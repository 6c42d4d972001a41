"""Line-delimited JSON event traces shared by the simulators and the energy
accountant. ``bytes`` carries the event's quantity: bytes moved for transfer
events, operation counts for compute events.

``TraceEvent`` is the reader's type, one row per event. The simulators record
events as columns (``EventColumns``), with times in seconds that the columns
store as int64 nanoseconds; rows are built only when iterated, and
``write_ldjson`` formats lines straight from the columns."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError


@dataclass(frozen=True)
class TraceEvent:
    time_ns: int
    unit: str
    event: str
    bytes: float


class EventColumns:
    """An event trace held as columns, in trace order: time in ns, unit kind
    and index, event code and quantity. Times are recorded in seconds; the
    columns alone round them to int64 nanoseconds and bound them.

    Unit kinds and event names are interned in ``kinds`` and ``names``, and
    the ``kind`` and ``event`` columns index them. A unit with index -1 is
    its kind alone ("onchip"); any other is kind and index ("die12"). A
    quantity is stored as float64 and flagged ``is_int`` when it was
    recorded as an integer, so rows give it back with the type it had
    (exact for integers below 2**53; page bytes and MAC counts are far below).
    Iterating yields ``TraceEvent`` rows; ``len`` is the event count."""

    def __init__(self):
        self.kinds: list[str] = []
        self.names: list[str] = []
        self._blocks: list[tuple[np.ndarray, ...]] = []
        self._n = 0

    @staticmethod
    def _intern(table: list[str], name: str) -> int:
        if name not in table:
            table.append(name)
        return table.index(name)

    def kind_code(self, kind: str) -> int:
        return self._intern(self.kinds, kind)

    def event_code(self, name: str) -> int:
        return self._intern(self.names, name)

    def extend(self, t_s, kind, index, event, qty, is_int) -> None:
        """Append events given as equal-length arrays; ``t_s`` holds times in
        seconds, stored as ``np.rint(t_s * 1e9)`` ns, and ``kind`` and
        ``event`` hold codes from ``kind_code`` and ``event_code``. A time
        that is not finite or does not fit int64 nanoseconds raises
        NumericError, and then nothing is stored."""
        # a time past int64 nanoseconds (inf and nan too) is refused here,
        # before the cast would wrap it
        with np.errstate(over="ignore", invalid="ignore"):
            t_ns = np.rint(np.asarray(t_s, dtype=np.float64) * 1e9)
            lo, hi = (t_ns.min(), t_ns.max()) if t_ns.size else (0.0, 0.0)
        if not (-2.0 ** 63 <= lo and hi < 2.0 ** 63):  # nan fails both
            raise NumericError(f"trace event times span {lo:g} to {hi:g} ns, "
                               "outside int64 nanoseconds")
        cols = (t_ns.astype(np.int64), np.asarray(kind, dtype=np.int64),
                np.asarray(index, dtype=np.int64), np.asarray(event, dtype=np.int64),
                np.asarray(qty, dtype=np.float64), np.asarray(is_int, dtype=bool))
        self._blocks.append(cols)
        self._n += len(cols[0])

    def append(self, t_s: float, unit: str, event: str, qty) -> None:
        """Append one event by names at ``t_s`` seconds; the unit is stored
        whole, as a kind."""
        self.extend([t_s], [self.kind_code(unit)], [-1], [self.event_code(event)],
                    [qty], [isinstance(qty, (int, np.integer))])

    def columns(self) -> tuple[np.ndarray, ...]:
        """(time_ns, kind, index, event, qty, is_int), each of length ``len(self)``."""
        if len(self._blocks) != 1:
            empty = [np.zeros(0, dtype=t) for t in (np.int64,) * 4 + (np.float64, bool)]
            self._blocks = [tuple(np.concatenate(c) for c in zip(*self._blocks, empty))]
        return self._blocks[0]

    def unit(self, kind: int, index: int) -> str:
        return self.kinds[kind] if index < 0 else f"{self.kinds[kind]}{index}"

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        time_ns, kind, index, event, qty, is_int = (c.tolist() for c in self.columns())
        names = self.names
        for t, k, i, e, q, whole in zip(time_ns, kind, index, event, qty, is_int):
            yield TraceEvent(t, self.unit(k, i), names[e], int(q) if whole else q)


def write_ldjson(events, path) -> None:
    """Write ``EventColumns``, one JSON object per line with sorted keys, as
    ``json.dumps(row, sort_keys=True)`` would write each of its rows. Lines
    are formatted straight from the columns: each event name and each
    distinct unit is JSON-encoded once, a quantity recorded as an integer is
    written as a JSON integer and any other with ``json.dumps`` (so NaN,
    Infinity and -0.0 keep their spelling). The lines are streamed to the
    file, never held whole."""
    time_ns, kind, index, event, qty, is_int = (c.tolist() for c in events.columns())
    names = [json.dumps(name) for name in events.names]
    units: dict[tuple[int, int], str] = {}

    def lines():
        for t, k, i, e, q, whole in zip(time_ns, kind, index, event, qty, is_int):
            unit = units.get((k, i))
            if unit is None:
                unit = units[(k, i)] = json.dumps(events.unit(k, i))
            yield (f'{{"bytes": {int(q) if whole else json.dumps(q)}, "event": {names[e]}, '
                   f'"time_ns": {t}, "unit": {unit}}}\n')

    with open(Path(path), "w") as fh:
        fh.writelines(lines())


def read_ldjson(path) -> list[TraceEvent]:
    events = []
    with open(Path(path)) as fh:
        for line in fh:
            if line.strip():
                events.append(TraceEvent(**json.loads(line)))
    return events
