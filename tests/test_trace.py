"""The trace writer formats lines straight from event columns; it must write
the bytes that ``json.dumps(row, sort_keys=True)`` writes for each row."""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

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
    events = st.tuples(st.integers(0, 2**62), st.integers(0, len(kinds) - 1),
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
        path, from_rows = Path(tmp) / "cols.ldjson", Path(tmp) / "rows.ldjson"
        write_ldjson(cols, path)
        write_ldjson(rows, from_rows)
        assert path.read_text() == reference_ldjson(rows)
        assert from_rows.read_bytes() == path.read_bytes()
        if all(math.isfinite(ev.bytes) for ev in rows):
            back = read_ldjson(path)
            assert back == rows
            assert [type(ev.bytes) for ev in back] == [type(ev.bytes) for ev in rows]
