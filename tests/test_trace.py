"""The trace writer formats lines straight from event columns; it must write
the bytes that ``json.dumps(row, sort_keys=True)`` writes for each row. The
columns take times in seconds and store them as int64 nanoseconds."""

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim.errors import NumericError
from slim.trace import EventColumns, read_ldjson, write_ldjson

NAMES = st.lists(st.text(st.sampled_from('ab"\\/\n\té€ ') | st.characters(), max_size=6),
                 min_size=1, max_size=4, unique=True)
QUANTITIES = st.one_of(
    st.integers(-2**53, 2**53).map(lambda n: (n, True)),
    st.floats(allow_nan=True, allow_infinity=True).map(lambda q: (q, False)),
    st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 20608.0]).map(lambda q: (q, False)),
)


@st.composite
def event_columns(draw):
    kinds, names = draw(NAMES), draw(NAMES)
    cols = EventColumns()
    assert [cols.kind_code(k) for k in kinds] == list(range(len(kinds)))
    assert [cols.event_code(e) for e in names] == list(range(len(names)))
    events = st.tuples(st.integers(0, 2**62).map(lambda ns: ns / 1e9),
                       st.integers(0, len(kinds) - 1),
                       st.integers(-1, 10**6), st.integers(0, len(names) - 1), QUANTITIES)
    for block in draw(st.lists(st.lists(events, max_size=12), max_size=3)):
        if block:
            t, k, i, e, q = zip(*block)
            cols.extend(t, k, i, e, [v for v, _ in q], [whole for _, whole in q])
    return cols


def reference_ldjson(cols) -> str:
    """The row-by-row writer the column writer replaced."""
    return "".join(json.dumps({"bytes": ev.bytes, "event": ev.event, "time_ns": ev.time_ns,
                               "unit": ev.unit}, sort_keys=True) + "\n" for ev in cols)


@given(event_columns())
@settings(max_examples=150, deadline=None)
def test_writer_matches_row_by_row_json(cols):
    rows = list(cols)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cols.ldjson"
        write_ldjson(cols, path)
        assert path.read_text() == reference_ldjson(rows)
        if all(math.isfinite(ev.bytes) for ev in rows):
            back = read_ldjson(path)
            assert back == rows
            assert [type(ev.bytes) for ev in back] == [type(ev.bytes) for ev in rows]


def ulps_from(x: float, k: int) -> float:
    """The float ``k`` steps from ``x`` (down for negative ``k``)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


BOUND_S = 2.0 ** 63 / 1e9  # the int64 nanosecond bound, in seconds
TIMES = st.one_of(
    st.floats(-BOUND_S, BOUND_S),
    st.integers(-2**53, 2**53).map(lambda n: (n + 0.5) / 1e9),  # mostly exact half-ns ties
    st.builds(ulps_from, st.sampled_from([-BOUND_S, BOUND_S]), st.integers(-4, 4)),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(TIMES)
@example(0.5e-9)  # half-ns ties round to even
@example(2.5e-9)
@example(3.5e-9)
@example(-2.5e-9)
@example(BOUND_S)
@example(ulps_from(BOUND_S, -1))
@example(-BOUND_S)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@settings(max_examples=300, deadline=None)
def test_event_times_round_to_int64_ns(t):
    """A time in seconds is stored as ``int(round(t * 1e9))`` ns, ties to
    even; one that is not finite or falls outside int64 nanoseconds raises
    NumericError and stores nothing, alone or in a block."""
    cols = EventColumns()
    cols.append(1e-9, "die", "nand_read", 1)
    product = t * 1e9
    ns = round(product) if math.isfinite(product) else None
    if ns is not None and -2**63 <= ns < 2**63:
        cols.append(t, "die", "nand_read", 2)
        cols.extend([0.0, t], [0, 0], [-1, -1], [0, 0], [3, 4], [True, True])
        assert [ev.time_ns for ev in cols] == [1, ns, 0, ns]
    else:
        with pytest.raises(NumericError, match="int64 nanoseconds"):
            cols.append(t, "die", "nand_read", 2)
        with pytest.raises(NumericError, match="int64 nanoseconds"):
            cols.extend([0.0, t], [0, 0], [-1, -1], [0, 0], [3, 4], [True, True])
        assert len(cols) == 1 and [ev.time_ns for ev in cols] == [1]
