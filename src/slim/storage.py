"""Event-driven SSD model: geometry/timing, page-aligned fused-vector weight
mapping, sparsity-driven read transactions, and channel-level vs die-level
processing-engine scheduling.

A token is scheduled in one call to ``simulate_ffn_pass``, every layer's pass
at once as array operations, from what each die reads in each layer as
(layer, die) tables (``TokenReads``); a die that reads nothing holds 0
pages. Die-level PEs are closed form per die. Channel-level PEs share their
channel's bus under a per-page rule (the die whose page is ready first goes
next); each (layer, channel) is one row of a table of dies stepped in
lockstep, and the rounds in which a row's dies take turns on the bus
without it idling close in one left-to-right sum of their slots. Every
time equals, bit for bit, a heap loop over pages. Events are recorded as
columns (``trace.EventColumns``).

A "fused vector" is one hidden neuron's weights (gate column + up column +
down row, 3*dim_e elements) stored contiguously so a neuron is one storage
unit. Vectors map round-robin across dies; small vectors pack several per
page, large ones span consecutive pages in one die.

Times are seconds internally; NAND timing fields are microseconds as usually
quoted on datasheets.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import MappingError, NumericError, ShapeError
from .model import ModelConfig
from .trace import EventColumns

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SsdGeometry:
    n_ch: int = 16
    chips_per_ch: int = 4
    dies_per_chip: int = 1
    planes_per_die: int = 2
    blocks_per_plane: int = 1024
    pages_per_block: int = 512
    page_bytes: int = 4096

    def __post_init__(self):
        for name in ("n_ch", "chips_per_ch", "dies_per_chip", "planes_per_die",
                     "blocks_per_plane", "pages_per_block", "page_bytes"):
            if getattr(self, name) < 1:
                raise MappingError(f"{name} must be >= 1")

    @property
    def n_dies(self) -> int:
        return self.n_ch * self.chips_per_ch * self.dies_per_chip

    @property
    def pages_per_die(self) -> int:
        # planes contribute capacity only; multi-plane read is not modeled
        return self.planes_per_die * self.blocks_per_plane * self.pages_per_block

    def die_coords(self, die_index: int) -> tuple[int, int, int]:
        """Inverse of the ch-major die enumeration: (ch, chip, die)."""
        ch = die_index % self.n_ch
        rest = die_index // self.n_ch
        chip = rest % self.chips_per_ch
        return ch, chip, rest // self.chips_per_ch


@dataclass(frozen=True)
class NandTiming:
    t_r_us: float = 3.0  # page array read
    t_prog_us: float = 100.0
    ch_bus_mbps: float = 1200.0  # ONFI NV-DDR3 1200 MT/s x 8b
    pe_macs: int = 16  # MACs per processing engine
    pe_clock_ghz: float = 1.0
    pe_level: str = "die"  # "die" | "channel"

    def __post_init__(self):
        if self.pe_level not in ("die", "channel"):
            raise ShapeError(f"pe_level must be 'die' or 'channel', got {self.pe_level!r}")
        if not all(0 < v < math.inf for v in (self.t_r_us, self.t_prog_us,
                                              self.ch_bus_mbps, self.pe_clock_ghz)):
            raise ShapeError("timing parameters must be finite and positive")
        if self.pe_macs < 1:
            raise ShapeError(f"pe_macs must be >= 1, got {self.pe_macs}")


@dataclass(frozen=True)
class NspParams:
    """Scheduling constants the datasheets do not pin down."""

    ftl_txn_us: float = 0.5  # address translation per transaction
    onchip_bus_gbps: float = 8.0  # FMC <-> controller path for channel-level PEs
    psum_bytes_per_elem: int = 2  # partial-sum width on the collection bus
    act_bytes_per_elem: int = 1  # activations move quantized

    def __post_init__(self):
        if not (0 <= self.ftl_txn_us < math.inf and 0 < self.onchip_bus_gbps < math.inf):
            raise ShapeError("ftl_txn_us must be finite and >= 0, onchip_bus_gbps finite and > 0")
        if min(self.psum_bytes_per_elem, self.act_bytes_per_elem) < 1:
            raise ShapeError("byte widths per element must be >= 1")


SLC_GEOMETRY = SsdGeometry(page_bytes=4096)
TLC_GEOMETRY = SsdGeometry(page_bytes=16384)


def nand_preset(nand: str, pe_level: str) -> tuple[SsdGeometry, NandTiming]:
    """Low-latency SLC or high-density TLC device, with the PE variant's MAC
    budget (64 MACs at the channel controller, 16 in each die)."""
    pe_macs = 64 if pe_level == "channel" else 16
    if nand == "slc":
        return SLC_GEOMETRY, NandTiming(t_r_us=3.0, t_prog_us=100.0,
                                        pe_macs=pe_macs, pe_level=pe_level)
    if nand == "tlc":
        return TLC_GEOMETRY, NandTiming(t_r_us=40.0, t_prog_us=650.0,
                                        pe_macs=pe_macs, pe_level=pe_level)
    raise ShapeError(f"unknown nand preset {nand!r}")


@dataclass(frozen=True)
class WeightLayout:
    """Closed-form map from fused vectors to physical pages.

    Vectors are placed in packing groups of ``packing_factor`` consecutive
    neurons of one slot (``layer * n_expert + expert``). Neuron j of a slot
    belongs to group ``g = slot * ceil(dim_h / packing_factor) +
    j // packing_factor``, which lives on die ``g mod n_dies`` starting at
    per-die page ``(g // n_dies) * span_pages``; the vector sits at byte
    offset ``(j mod packing_factor) * vector_bytes``. Every vector's pages are
    consecutive within one die. ``place`` is the only address formula; no
    per-neuron table is kept, and ``SsdGeometry.die_coords`` turns a die index
    into (channel, chip, die).
    """

    geo: SsdGeometry
    n_dec: int
    n_expert: int
    dim_h: int
    dim_e: int
    bytes_per_elem: int
    vector_bytes: int
    packing_factor: int  # vectors per page (1 when a vector spans pages)
    span_pages: int  # pages per vector (1 when packing)

    @property
    def groups_per_slot(self) -> int:
        return -(-self.dim_h // self.packing_factor)

    @property
    def n_groups(self) -> int:
        return self.n_dec * self.n_expert * self.groups_per_slot

    def place(self, slot, neuron):
        """(die index, first per-die page, byte offset) of a neuron of a slot;
        elementwise on integer arrays."""
        group = slot * self.groups_per_slot + neuron // self.packing_factor
        return (group % self.geo.n_dies, group // self.geo.n_dies * self.span_pages,
                neuron % self.packing_factor * self.vector_bytes)

    @property
    def pages_used_per_die(self) -> np.ndarray:
        full, extra = divmod(self.n_groups, self.geo.n_dies)
        return (full + (np.arange(self.geo.n_dies) < extra)) * self.span_pages


def map_weights(cfg: ModelConfig, geo: SsdGeometry, bytes_per_elem: int = 1) -> WeightLayout:
    """Place every fused vector page-aligned, round-robin across dies.

    Vectors no larger than a page are packed floor(page/vector) per page;
    larger vectors span ceil(vector/page) consecutive pages on one die.
    Packing groups never cross an (layer, expert) boundary so one page only
    holds neurons of a single expert matrix. Groups are dealt to dies in
    order, which gives the closed form documented on WeightLayout: the
    busiest die holds ceil(groups / n_dies) * span pages.
    """
    vector_bytes = 3 * cfg.dim_e * bytes_per_elem
    if vector_bytes <= geo.page_bytes:
        packing = geo.page_bytes // vector_bytes
        span = 1
    else:
        packing = 1
        span = math.ceil(vector_bytes / geo.page_bytes)

    layout = WeightLayout(geo=geo, n_dec=cfg.n_dec, n_expert=cfg.n_expert,
                          dim_h=cfg.dim_h, dim_e=cfg.dim_e,
                          bytes_per_elem=bytes_per_elem, vector_bytes=vector_bytes,
                          packing_factor=packing, span_pages=span)
    # a die fits pages_per_die // span groups; the first group past that lands on die 0
    fitting = geo.pages_per_die // span
    if layout.n_groups > fitting * geo.n_dies:
        raise MappingError(f"die 0 overflows at {(fitting + 1) * span} pages "
                           f"(capacity {geo.pages_per_die})")
    return layout


@dataclass(frozen=True, eq=False)
class TokenReads:
    """What a token's FFN passes read, as three (n_dec, n_dies) tables of
    the ``layout`` the token was read on; page counts, not pages. Each layer
    makes one pass, and a die that reads nothing in it holds 0 in every
    table.

    ``n_pages`` counts the die's pages that hold at least one active vector.
    ``useful_bytes`` prorates each of those pages by the fraction of its
    resident vectors that are active (a page serving a lone active vector
    counts fully, so dense passes read at 100% efficiency and waste appears
    exactly when packed neighbors are skipped). ``active_elems`` counts the
    weights actually multiplied by the PE. The die's channel and the raw
    bytes follow from the die index, ``n_pages`` and the geometry of
    ``layout``. Tables of any other shape, or a negative page count, raise
    ShapeError.
    """

    n_pages: np.ndarray
    useful_bytes: np.ndarray
    active_elems: np.ndarray
    layout: WeightLayout

    def __post_init__(self):
        shape = (self.layout.n_dec, self.layout.geo.n_dies)
        shapes = [np.shape(t) for t in (self.n_pages, self.useful_bytes, self.active_elems)]
        if shapes != [shape] * 3:
            raise ShapeError(f"tables of shapes {shapes}, not (n_dec, n_dies) {shape}")
        if (self.n_pages < 0).any():
            raise ShapeError("negative page count")


def generate_read_transactions(layout: WeightLayout, masks: dict[tuple[int, int], np.ndarray]
                               ) -> TokenReads:
    """Per-die reads of one token, given neuron masks keyed by (layer,
    expert) as ``nested_masks`` returns them; a page is read iff it holds at
    least one active neuron's data. Layers without a mask read nothing.

    Group j of a slot sits on die ``(d0 + j) mod n_dies``, where ``d0`` is the
    die of the slot's first group (``place(slot, 0)``). So each slot's
    per-group counts, padded in front by ``d0`` and folded into rows of
    ``n_dies``, put every die's groups in one column, and a layer's slots
    stack down the rows in visiting order (experts ascending, then neurons),
    which the layout makes ascending page order. Column sums give each die's
    hit groups and active vectors, the layer's row of the tables; useful
    bytes are accumulated left to right down each column, where unhit groups
    and padding add exact zeros, then multiplied by ``span_pages``. That
    equals the page by page sum bit for bit: a group spans several pages
    only with packing factor 1, where every page is wholly useful and the
    sums are integers below 2**53."""
    n_dies, span, n_groups = layout.geo.n_dies, layout.span_pages, layout.groups_per_slot
    by_layer: dict[int, list] = {}
    for layer, expert in sorted(masks):
        if not (0 <= layer < layout.n_dec and 0 <= expert < layout.n_expert):
            raise ShapeError(f"layer {layer} / expert {expert} outside the layout")
        mask = np.asarray(masks[(layer, expert)], dtype=bool)
        if mask.shape != (layout.dim_h,):
            raise ShapeError(f"mask shape {mask.shape} vs dim_h {layout.dim_h}")
        by_layer.setdefault(layer, []).append((layer * layout.n_expert + expert, mask))

    starts = np.arange(0, layout.dim_h, layout.packing_factor)
    resident = np.minimum(layout.packing_factor, layout.dim_h - starts)
    # rows enough for one slot's groups after any front pad below n_dies
    width = -(-(n_dies - 1 + n_groups) // n_dies) * n_dies
    n_pages, useful_bytes, active_elems = (np.zeros((layout.n_dec, n_dies), dtype=dt)
                                           for dt in (np.int64, np.float64, np.int64))
    for layer, slot_masks in by_layer.items():
        active = np.zeros((len(slot_masks), width), dtype=np.int64)
        useful = np.zeros((len(slot_masks), width))
        for row, (slot, mask) in enumerate(slot_masks):
            pad = layout.place(slot, 0)[0]
            # a group is one neuron without packing; reduceat would only copy
            counts = (mask if layout.packing_factor == 1
                      else np.add.reduceat(mask, starts, dtype=np.int64))
            active[row, pad:pad + n_groups] = counts
            useful[row, pad:pad + n_groups] = layout.geo.page_bytes * counts / resident
        active, useful = active.reshape(-1, n_dies), useful.reshape(-1, n_dies)
        n_pages[layer] = np.count_nonzero(active, axis=0) * span
        useful_bytes[layer] = np.add.accumulate(useful, axis=0)[-1] * span
        active_elems[layer] = active.sum(axis=0) * 3 * layout.dim_e
    return TokenReads(n_pages, useful_bytes, active_elems, layout)


@dataclass(frozen=True)
class FfnPassResult:
    """A token's FFN passes: ``layer_latency_s`` per layer, ``latency_s``
    their sum taken in layer order, and the other fields token totals."""

    latency_s: float
    layer_latency_s: tuple[float, ...]
    raw_bytes: int
    useful_bytes: float
    active_elems: int
    macs: int


# elements per transient array of a round-robin close (256 KB of float64)
_CHUNK = 1 << 15


def _closable_rounds(ready, left, slot, bus, t_r: float):
    """How many leading rounds of each row run bus-bound (0 when round 0
    does not). Tables are (row, die), each row's dies in (ready, die) order,
    and every bus is past the broadcast.

    Round r serves, in that order, every die with more than r pages left.
    Round 0 runs bus-bound when every queued die is ready by its turn:
    ``bus`` plus the slots of the dies before it. It also needs each die
    ready before the first page pushed in the round (the first served die
    with more pages, at its turn plus t_r), so that no served die comes
    back before the round ends. Round r >= 1 runs bus-bound when the slots
    of the dies with more than r pages sum to at least t_r: between a die's
    turns the bus serves each of them once. Those sums fall as dies run
    out, so the rounds that pass lead; the last round a die serves in
    passes when the dies with at least its pages reach t_r."""
    n_rows, width = ready.shape
    turn = np.add.accumulate(np.column_stack((bus, slot[:, :-1])), axis=1)
    more = left > 1
    first = more.argmax(axis=1)
    first_push = np.where(more.any(axis=1), turn[np.arange(n_rows), first] + t_r, np.inf)
    in_turn = (ready <= turn) & ((np.arange(width) <= first[:, None])
                                 | (ready < first_push[:, None]))
    round0 = np.all(in_turn | (left == 0), axis=1)
    # by pages left, most first: the first die whose running slot sum
    # reaches t_r has the most pages of those whose last round passes
    by_left = np.argsort(-left, axis=1, kind="stable")
    reach = np.add.accumulate(np.take_along_axis(slot, by_left, axis=1), axis=1) >= t_r
    first_reach = by_left[np.arange(n_rows), reach.argmax(axis=1)]
    last = np.where(reach.any(axis=1), left[np.arange(n_rows), first_reach], 0)
    return np.where(round0, np.maximum(last, 1), 0)


def _round_robin_ends(bus, ready, left, slot, rounds, t_r: float):
    """Close ``rounds`` rounds of each row in one left-to-right sum.

    Tables are (row, die), each row's dies in (ready, die) order, ``ready``
    when each die's next page is ready. Round r serves every die with more
    than r pages left, in that order, each page starting the moment the bus
    frees: the bus is ``bus`` plus the slots in serving order, summed left
    to right; an unserved (round, die) adds slot * 0 = 0.0, which leaves the
    sum's bits unchanged. Rounds run in the time-major order of a
    (round x die, row) array, in chunks of at most ``_CHUNK`` elements.

    Returns the bus after the rounds, each die's ready time after them (its
    last start + t_r), and per row two checks on the computed floats: every
    served page was ready by its start (round 0: ``ready``; later: the die's
    previous start + t_r), and the ready times pushed rise strictly in
    serving order."""
    n_rows, width = ready.shape
    # int32 halves the bytes of the per-chunk round comparison
    served_rounds = np.minimum(left, rounds[:, None]).T.astype(np.int32)
    # due: each die's ready time in the chunk's first round; after: in the
    # round after the row's last
    slot, due = slot.T, ready.T.copy()
    after = np.empty_like(due)
    end = bus.copy()
    on_time = np.ones(n_rows, dtype=bool)
    rising = np.ones(n_rows, dtype=bool)
    rows_per_chunk = max(1, _CHUNK // width)
    for a in range(0, n_rows, rows_per_chunk):
        rows = slice(a, a + rows_per_chunk)
        n, last_round = len(end[rows]), rounds[rows] - 1
        n_rounds = int(rounds[rows].max())
        rounds_per_chunk = max(1, _CHUNK // (n * width))
        bufs = np.empty((2, 1 + rounds_per_chunk * width, n))
        for r in range(0, n_rounds, rounds_per_chunk):
            c = min(rounds_per_chunk, n_rounds - r)
            served = np.arange(r, r + c, dtype=np.int32)[:, None, None] < served_rounds[:, rows]
            bus_at, pushed = bufs[:, :1 + c * width]
            bus_at[0] = end[rows]
            np.multiply(served, slot[:, rows], out=bus_at[1:].reshape(c, width, n))
            # the running sum slot by slot across all rows: accumulate's
            # additions, without its strided walk down axis 0
            prev, *steps = bus_at
            for step in steps:
                np.add(prev, step, step)
                prev = step
            np.add(bus_at, t_r, out=pushed)
            start = bus_at[:-1].reshape(c, width, n)
            nxt = pushed[:-1].reshape(c, width, n)
            idle = ~served
            on_time[rows] &= ((due[:, rows] <= start[0]) | idle[0]).all(axis=0)
            on_time[rows] &= ((nxt[:-1] <= start[1:]) | idle[1:]).all(axis=(0, 1))
            rising[rows] &= ((pushed[1:] > pushed[:-1]) | idle.reshape(-1, n)).all(axis=0)
            due[:, rows] = nxt[-1]
            k = last_round - r
            ends_here = np.flatnonzero((k >= 0) & (k < c))
            after[:, a + ends_here] = nxt[k[ends_here], :, ends_here].T
            end[rows] = bus_at[-1]
    return end, after.T, on_time, rising


def _channel_bus_ends(ready, left, slot, t_r: float, bcast: float):
    """When each row's shared channel bus finishes streaming its dies'
    pages, with the lockstep steps taken and the rows closed in full and
    by rounds.

    A row is one (layer, channel) and a column one of its dies, in
    ascending die index: its first page is ready at ``ready``, it has
    ``left`` pages (0 in a padding column) and each holds the bus ``slot``.
    The rule is the heap loop over pages: serve the die whose page is ready
    first, the lower die index on ties, at max(bus free, page ready, bcast);
    its next page is ready t_r after that start. Every live row takes that
    step at once: ``argmin`` per row picks the lower column on ties.

    Rows are checked when the step count is a power of two; every bus is
    then past the broadcast, as each row has served a page. With the dies
    in (ready, die) order, a row whose first R >= 2 rounds run
    bus-bound (``_closable_rounds``) closes those rounds in one sum
    (``_round_robin_ends``): in round 0 each die is the earliest entry of
    the heap at its turn, and from there on every die has been served, so
    the heap serves the least recently served die, whose pushed ready time
    is the smallest as long as pushed times rise strictly. The close keeps
    a row's result only if the computed floats bear this out: every page
    served by its start and pushed times rising. A row whose pushed times
    do not rise is stepped to its end; one whose pages were late is checked
    again later. A closed row's dies
    then wait for their last start + t_r, and the rest steps in lockstep.
    """
    n_rows, width = ready.shape
    end = np.empty(n_rows)
    ids = np.arange(n_rows)
    ready, left = ready.copy(), left.copy()
    bus = np.zeros(n_rows)
    pages = left.sum(axis=1)
    may_close = np.ones(n_rows, dtype=bool)
    steps = full = by_rounds = 0
    while True:
        if steps and steps & (steps - 1) == 0:
            # necessary for two rounds: slots enough for round 1, and the
            # last queued die ready by its turn at the latest
            queued = left > 0
            total = np.where(queued, slot, 0.0).sum(axis=1)
            latest = np.where(queued, ready, -np.inf).max(axis=1)
            at = np.flatnonzero(may_close & (total >= t_r) & (latest <= bus + total))
            order = np.argsort(ready[at], axis=1, kind="stable")
            cells = (at[:, None], order)
            rounds = _closable_rounds(ready[cells], left[cells], slot[cells], bus[at], t_r)
            pick = rounds > 1
            if pick.any():
                at, order, rounds = at[pick], order[pick], rounds[pick]
                cells = (at[:, None], order)
                ends, due, on_time, rising = _round_robin_ends(
                    bus[at], ready[cells], left[cells], slot[cells], rounds, t_r)
                may_close[at[~rising]] = False
                keep = rising & on_time
                at, order, rounds = at[keep], order[keep], rounds[keep]
                cells = (at[:, None], order)
                left[cells] -= np.minimum(left[cells], rounds[:, None])
                ready[cells] = np.where(left[cells] > 0, due[keep], np.inf)
                bus[at], pages[at] = ends[keep], left[at].sum(axis=1)
                closed = int(np.count_nonzero(pages[at] == 0))
                full, by_rounds = full + closed, by_rounds + at.size - closed
        done = pages == 0
        if done.any():
            end[ids[done]] = bus[done]
            ids, ready, left, slot, bus, pages, may_close = (
                a[~done] for a in (ids, ready, left, slot, bus, pages, may_close))
        if not ids.size:
            return end, steps, full, by_rounds
        at = ready.argmin(axis=1) + np.arange(0, ids.size * width, width)
        flat_ready, flat_left = ready.reshape(-1), left.reshape(-1)
        start = np.maximum(np.maximum(bus, flat_ready[at]), bcast)
        bus = start + slot.reshape(-1)[at]
        flat_left[at] -= 1
        flat_ready[at] = np.where(flat_left[at] > 0, start + t_r, np.inf)
        pages -= 1
        steps += 1


def simulate_ffn_pass(reads: TokenReads, timing: NandTiming,
                      geo: SsdGeometry, batch_tokens: int = 1, *, dim_e: int,
                      params: NspParams = NspParams(), trace: EventColumns) -> FfnPassResult:
    """Schedule a token's FFN passes, one per layer, over the NSP engines.

    ``reads`` holds what the token reads, as ``generate_read_transactions``
    returns it: one pass per row of its tables, on a layout of ``geo``
    (ShapeError otherwise). Each layer's pass starts when the one before
    ends: layer i's events are offset by the latencies of layers 0..i-1,
    added in layer order.

    Steps of a pass: broadcast the input activations to every PE buffer,
    translate transactions in the FTL (one fixed-latency issue per die that
    reads, in die order, pipelined with the reads), stream page reads
    through the PEs (double-buffered, so each page costs max(read,
    compute)), and finally collect partial sums over the channel bus
    (die-level PEs, dies in index order on each channel) or the on-chip bus
    (channel-level PEs, channels in index order).

    Die-level PEs consume pages in-die: a die finishes at issue + n_pages *
    max(t_R, compute), and no earlier than the broadcast. Channel-level PEs
    serialize every page on their channel's shared ONFI bus: the bus takes
    the die whose page is ready earliest (lower die index on ties), a die
    holds one buffered page and starts its next array read when that page
    goes onto the bus, and each page holds the bus for max(transfer,
    compute). Every (layer, channel) of the token is one row of one
    schedule stepped in lockstep, and a row closes the rounds in which its
    dies take turns bus-bound in one sum (``_channel_bus_ends``); the
    result is bit-identical to a heap loop over every page.

    A die's per-page compute time uses its mean active elements per page.
    Die d is die ``d // n_ch`` of channel ``d % n_ch``, so a (layer,
    channel) row is a reshape of the (layer, die) tables. Events go to
    ``trace`` in each layer's order: broadcast, reads and MACs per die that
    reads (die level: in die order; channel level: by channel, then die),
    then partial sums. At ``SLIM_LOG=debug`` one line gives the seconds
    spent on the schedule and on the events, the lockstep steps and the
    channel rows that read, closed in full and by rounds. Event times go to
    ``trace`` in seconds, which raises NumericError on one that is not
    finite or does not fit int64 nanoseconds.
    """
    t0 = time.perf_counter()
    if reads.layout.geo != geo:
        raise ShapeError("reads were laid out on another geometry")
    t_r = timing.t_r_us * 1e-6
    ftl = params.ftl_txn_us * 1e-6
    ch_rate = timing.ch_bus_mbps * 1e6
    onchip_rate = params.onchip_bus_gbps * 1e9
    pe_rate = timing.pe_macs * timing.pe_clock_ghz * 1e9
    xfer = geo.page_bytes / ch_rate
    in_bytes = dim_e * params.act_bytes_per_elem * batch_tokens
    psum_bytes = dim_e * params.psum_bytes_per_elem * batch_tokens
    die_level = timing.pe_level == "die"

    pes_per_ch = geo.chips_per_ch * geo.dies_per_chip
    # step 1: broadcast inputs to PE input SRAMs, done at the same time on every channel
    if die_level:
        bcast = pes_per_ch * in_bytes / ch_rate
        psum_s = psum_bytes / ch_rate
    else:
        bcast = geo.n_ch * in_bytes / onchip_rate
        psum_s = psum_bytes / onchip_rate

    n_layers = reads.layout.n_dec
    pages, elems = reads.n_pages, reads.active_elems
    reading = pages > 0
    counts = reading.sum(axis=1)
    # (layer, die of the channel, channel)
    by_ch = (n_layers, pes_per_ch, geo.n_ch)
    ch_reads = reading.reshape(by_ch).any(axis=1)
    # step 2: LPA translation, serialized in firmware: a die's slot is its
    # place among its layer's dies that read (the cells of the others go unused)
    issue = np.add.accumulate(np.full(geo.n_dies, ftl))[np.cumsum(reading, axis=1) - 1]
    layer_useful = np.add.accumulate(reads.useful_bytes, axis=1)[:, -1]
    with np.errstate(over="ignore"):
        compute = elems * batch_tokens / np.maximum(pages, 1) / pe_rate  # no 0/0 where idle
    if not np.isfinite(compute).all():
        raise NumericError(f"per-page PE compute time is not finite at {pe_rate:g} MAC/s")
    steps = full = by_rounds = 0

    if die_level:
        done = np.maximum(issue + pages * np.maximum(t_r, compute), bcast)
        # step 4: each channel bus collects its dies' partial sums in die order
        has, ends = reading.reshape(by_ch), done.reshape(by_ch)
        bus, psum_end = np.zeros((n_layers, geo.n_ch)), np.empty(by_ch)
        for k in range(pes_per_ch):
            bus = psum_end[:, k] = np.where(has[:, k], np.maximum(bus, ends[:, k]) + psum_s, bus)
        psum_end = psum_end.reshape(n_layers, geo.n_dies)
        layer_end = np.maximum(bcast, bus.max(axis=1))
    else:
        # rows: one per (layer, channel); columns: its dies in index order
        ready, left, slot = (t.reshape(by_ch).transpose(0, 2, 1).reshape(-1, pes_per_ch)
                             for t in (np.where(reading, issue + t_r, np.inf), pages,
                                       np.where(reading, np.maximum(xfer, compute), 0.0)))
        bus, steps, full, by_rounds = _channel_bus_ends(ready, left, slot, t_r, bcast)
        bus = bus.reshape(n_layers, geo.n_ch)
        # step 4: the on-chip bus collects the channels' partial sums in channel order
        onchip, psum_end = np.zeros(n_layers), np.empty((n_layers, geo.n_ch))
        for c in range(geo.n_ch):
            onchip = psum_end[:, c] = np.where(ch_reads[:, c],
                                               np.maximum(onchip, bus[:, c]) + psum_s, onchip)
        layer_end = np.maximum(bcast, onchip)

    t1 = time.perf_counter()
    lat = layer_end.tolist()
    starts = np.add.accumulate(np.array([0.0] + lat[:-1]))
    code = {name: trace.event_code(name)
            for name in ("ch_bus", "onchip_bus", "nand_read", "pe_mac")}
    kind = {name: trace.kind_code(name) for name in ("ch", "die", "fmc", "onchip")}
    block = (geo.n_ch + 3 * counts if die_level
             else 1 + 3 * counts + ch_reads.sum(axis=1))
    off = np.cumsum(block) - block
    cols = [np.empty(int(block.sum()), dtype=dt)
            for dt in (np.float64, np.int64, np.int64, np.int64, np.float64)]

    def put(at, t, unit_kind, index, event, qty):
        for c, v in zip(cols, (t, kind[unit_kind], index, code[event], qty)):
            c[at] = v

    def rank(layer):
        """Each cell's place among its layer's, for cells in layer order."""
        return np.arange(layer.size) - np.searchsorted(layer, layer)

    read_bytes = pages * geo.page_bytes
    macs = elems * batch_tokens
    if die_level:
        at = off[:, None] + np.arange(geo.n_ch)
        put(at, bcast, "ch", np.arange(geo.n_ch), "ch_bus", pes_per_ch * in_bytes)
        layer, die = np.nonzero(reading)
        at = off[layer] + geo.n_ch + 2 * rank(layer)
        put(at, done[layer, die], "die", die, "nand_read", read_bytes[layer, die])
        put(at + 1, done[layer, die], "die", die, "pe_mac", macs[layer, die])
        at = off[layer] + geo.n_ch + 2 * counts[layer] + rank(layer)
        put(at, psum_end[layer, die], "ch", die % geo.n_ch, "ch_bus", psum_bytes)
    else:
        put(off, bcast, "onchip", -1, "onchip_bus", geo.n_ch * in_bytes)
        # a layer's dies by channel, each channel's in die order
        layer, ch, k = np.nonzero(reading.reshape(by_ch).transpose(0, 2, 1))
        die = k * geo.n_ch + ch
        at = off[layer] + 1 + 3 * rank(layer)
        t = bus[layer, ch]
        put(at, t, "die", die, "nand_read", read_bytes[layer, die])
        put(at + 1, t, "ch", ch, "ch_bus", read_bytes[layer, die])
        put(at + 2, t, "fmc", ch, "pe_mac", macs[layer, die])
        layer, ch = np.nonzero(ch_reads)
        at = off[layer] + 1 + 3 * counts[layer] + rank(layer)
        put(at, psum_end[layer, ch], "onchip", -1, "onchip_bus", psum_bytes)
    t, *rest = cols
    t += starts[np.repeat(np.arange(n_layers), block)]  # in place: a trace can be long
    trace.extend(t, *rest, np.ones(len(t), dtype=bool))
    t2 = time.perf_counter()
    log.debug("simulate_ffn_pass: %d layers, schedule %.6f s (%d lockstep steps, "
              "%d of %d channel rows closed in full, %d by rounds), events %.6f s",
              n_layers, t1 - t0, steps, full, 0 if die_level else int(ch_reads.sum()),
              by_rounds, t2 - t1)
    return FfnPassResult(
        latency_s=float(np.add.accumulate(np.array([0.0] + lat))[-1]),
        layer_latency_s=tuple(lat), raw_bytes=int(pages.sum()) * geo.page_bytes,
        useful_bytes=float(np.add.accumulate(np.concatenate(([0.0], layer_useful)))[-1]),
        active_elems=int(elems.sum()), macs=int(elems.sum()) * batch_tokens)

def write_model(layout: WeightLayout, geo: SsdGeometry, timing: NandTiming) -> float:
    """One-time programming cost in seconds: dies program their pages in
    parallel, pages within a die serialize. Never part of inference latency."""
    busiest = int(np.max(layout.pages_used_per_die)) if layout.pages_used_per_die.size else 0
    return busiest * timing.t_prog_us * 1e-6
