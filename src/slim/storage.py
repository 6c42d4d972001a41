"""Event-driven SSD model: geometry/timing, page-aligned fused-vector weight
mapping, sparsity-driven read transactions, and channel-level vs die-level
processing-engine scheduling.

A token is scheduled in one call to ``simulate_ffn_pass``, every layer's pass
at once as array operations. Die-level PEs are closed form per transaction.
Channel-level PEs share their channel's bus under a per-page rule (the die
whose page is ready first goes next); each (layer, channel) is one row of a
table of dies stepped in lockstep, and a row that has become bus-bound is
closed in one left-to-right sum of its remaining slots. Every time equals,
bit for bit, a heap loop over pages. Events are recorded as columns
(``trace.EventColumns``).

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

from .errors import MappingError, ShapeError
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
        if min(self.t_r_us, self.t_prog_us, self.ch_bus_mbps, self.pe_clock_ghz) <= 0:
            raise ShapeError("timing parameters must be positive")


@dataclass(frozen=True)
class NspParams:
    """Scheduling constants the datasheets do not pin down."""

    ftl_txn_us: float = 0.5  # address translation per transaction
    onchip_bus_gbps: float = 8.0  # FMC <-> controller path for channel-level PEs
    psum_bytes_per_elem: int = 2  # partial-sum width on the collection bus
    act_bytes_per_elem: int = 1  # activations move quantized

    def __post_init__(self):
        if not (self.ftl_txn_us >= 0 and self.onchip_bus_gbps > 0):
            raise ShapeError("ftl_txn_us must be >= 0 and onchip_bus_gbps > 0")
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


@dataclass(frozen=True)
class ReadTransaction:
    """What one die reads for one FFN pass: a page count, not the pages.

    n_pages counts the die's pages that hold at least one active vector.
    useful_bytes prorates each of those pages by the fraction of its resident
    vectors that are active (a page serving a lone active vector counts
    fully, so dense passes read at 100% efficiency and waste appears exactly
    when packed neighbors are skipped). active_elems counts the weights
    actually multiplied by the PE. The die's channel and the raw bytes follow
    from ``die_index``, ``n_pages`` and the geometry.
    """

    die_index: int
    n_pages: int
    useful_bytes: float
    active_elems: int


def generate_read_transactions(layout: WeightLayout, masks: dict[tuple[int, int], np.ndarray]
                               ) -> list[list[ReadTransaction]]:
    """Per-die transactions of one token, one list per layer, given neuron
    masks keyed by (layer, expert) as ``nested_masks`` returns them; a page
    is read iff it holds at least one active neuron's data. Layers without a
    mask read nothing.

    Group j of a slot sits on die ``(d0 + j) mod n_dies``, where ``d0`` is the
    die of the slot's first group (``place(slot, 0)``). So each slot's
    per-group counts, padded in front by ``d0`` and folded into rows of
    ``n_dies``, put every die's groups in one column, and a layer's slots
    stack down the rows in visiting order (experts ascending, then neurons),
    which the layout makes ascending page order. Column sums give each die's
    hit groups and active vectors; useful bytes are accumulated left to right
    down each column, where unhit groups and padding add exact zeros, then
    multiplied by ``span_pages``. That equals the page by page sum bit for
    bit: a group spans several pages only with packing factor 1, where every
    page is wholly useful and the sums are integers below 2**53."""
    n_dies, span, n_groups = layout.geo.n_dies, layout.span_pages, layout.groups_per_slot
    by_layer: list[list] = [[] for _ in range(layout.n_dec)]
    for layer, expert in sorted(masks):
        if not (0 <= layer < layout.n_dec and 0 <= expert < layout.n_expert):
            raise ShapeError(f"layer {layer} / expert {expert} outside the layout")
        mask = np.asarray(masks[(layer, expert)], dtype=bool)
        if mask.shape != (layout.dim_h,):
            raise ShapeError(f"mask shape {mask.shape} vs dim_h {layout.dim_h}")
        by_layer[layer].append((layer * layout.n_expert + expert, mask))

    starts = np.arange(0, layout.dim_h, layout.packing_factor)
    resident = np.minimum(layout.packing_factor, layout.dim_h - starts)
    # rows enough for one slot's groups after any front pad below n_dies
    width = -(-(n_dies - 1 + n_groups) // n_dies) * n_dies
    out = []
    for slot_masks in by_layer:
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
        pages = np.count_nonzero(active, axis=0)
        dies = np.flatnonzero(pages).tolist()
        pages, elems = pages.tolist(), active.sum(axis=0).tolist()
        useful = np.add.accumulate(useful, axis=0)[-1].tolist() if dies else []
        out.append([ReadTransaction(die_index=d, n_pages=pages[d] * span,
                                    useful_bytes=useful[d] * span,
                                    active_elems=elems[d] * 3 * layout.dim_e)
                    for d in dies])
    return out


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


def _round_robin_ends(ready, left, slot, bus):
    """End of each row's bus when every remaining page starts the moment the
    bus frees and the dies take turns in (ready, die) order, each leaving
    when out of pages: ``bus`` plus the row's slots in serving order, summed
    left to right. Round r serves every die with more than r pages left; an
    unserved (round, die) adds slot * 0 = 0.0, which leaves the sum's bits
    unchanged."""
    order = np.argsort(ready, axis=1, kind="stable")
    left = np.take_along_axis(left, order, axis=1)[:, None, :]
    slot = np.take_along_axis(slot, order, axis=1)[:, None, :]
    n_rows, _, width = left.shape
    n_rounds = int(left.max())
    rows_per_chunk = max(1, _CHUNK // (n_rounds * width))
    rounds_per_chunk = max(1, _CHUNK // (rows_per_chunk * width))
    end = bus.copy()
    for a in range(0, n_rows, rows_per_chunk):
        rows = slice(a, a + rows_per_chunk)
        for r in range(0, n_rounds, rounds_per_chunk):
            served = np.arange(r, min(r + rounds_per_chunk, n_rounds))[:, None] < left[rows]
            c, n, w = served.shape
            steps = np.empty((c, 1 + n * w))
            steps[:, 0] = end[rows]
            np.multiply(served, slot[rows], out=steps[:, 1:].reshape(c, n, w))
            end[rows] = np.add.accumulate(steps, axis=1, out=steps)[:, -1]
    return end


def _channel_bus_ends(ready, left, slot, t_r: float, bcast: float):
    """When each row's shared channel bus finishes streaming its dies'
    pages, with the lockstep steps taken and the rows closed.

    A row is one (layer, channel) and a column one of its dies, in
    ascending die index: its first page is ready at ``ready``, it has
    ``left`` pages (0 in a padding column) and each holds the bus ``slot``.
    The rule is the heap loop over pages: serve the die whose page is ready
    first, the lower die index on ties, at max(bus free, page ready, bcast);
    its next page is ready t_r after that start. Every live row takes that
    step at once: ``argmin`` per row picks the lower column on ties.

    A row closes once it is bus-bound for the rest: the bus frees after
    every queued die is ready, and every queued slot is at least t_r. (Ready
    times are positive, so the row has taken a step and its bus is past the
    broadcast.) From there each page starts when the bus frees, the page
    a served die reads next is ready by the time the bus frees again, and
    the dies take turns in their (ready, die) order as long as each ready
    time pushed exceeds the one before, which t_r >= one ulp of the row's
    end guarantees. ``_round_robin_ends`` then gives the end with the loop's
    own IEEE sums; a row failing the ulp check is stepped to its end. Rows
    are checked when the step count is 0 or a power of two: a bus-bound row
    stays bus-bound (a served die's next page is ready by start + t_r <=
    start + slot), so a later check closes it just the same.
    """
    n_rows, width = ready.shape
    end = np.empty(n_rows)
    ids = np.arange(n_rows)
    ready, left = ready.copy(), left.copy()
    bus = np.zeros(n_rows)
    pages = left.sum(axis=1)
    may_close = np.ones(n_rows, dtype=bool)
    steps = closed = 0
    while True:
        done = pages == 0
        if done.any():
            end[ids[done]] = bus[done]
            ids, ready, left, slot, bus, pages, may_close = (
                a[~done] for a in (ids, ready, left, slot, bus, pages, may_close))
        if not ids.size:
            return end, steps, closed
        if steps & (steps - 1) == 0:
            at = np.flatnonzero(may_close & np.all(
                (left == 0) | ((ready <= bus[:, None]) & (slot >= t_r)), axis=1))
            if at.size:
                ends = _round_robin_ends(ready[at], left[at], slot[at], bus[at])
                exact = np.spacing(ends) <= t_r
                bus[at[exact]], pages[at[exact]] = ends[exact], 0
                may_close[at[~exact]] = False
                closed += int(exact.sum())
                continue
        at = ready.argmin(axis=1) + np.arange(0, ids.size * width, width)
        flat_ready, flat_left = ready.reshape(-1), left.reshape(-1)
        start = np.maximum(np.maximum(bus, flat_ready[at]), bcast)
        bus = start + slot.reshape(-1)[at]
        flat_left[at] -= 1
        flat_ready[at] = np.where(flat_left[at] > 0, start + t_r, np.inf)
        pages -= 1
        steps += 1


def simulate_ffn_pass(layer_txns: list[list[ReadTransaction]], timing: NandTiming,
                      geo: SsdGeometry, batch_tokens: int = 1, *, dim_e: int,
                      params: NspParams = NspParams(), trace: EventColumns | None = None,
                      t_start: float = 0.0) -> FfnPassResult:
    """Schedule a token's FFN passes, one per layer, over the NSP engines.

    ``layer_txns`` holds one list of transactions per layer, as
    ``generate_read_transactions`` returns them. Each layer's pass starts
    when the one before ends: layer i's events are offset by ``t_start``
    plus the latencies of layers 0..i-1, added in layer order.

    Steps of a pass: broadcast the input activations to every PE buffer,
    translate transactions in the FTL (one fixed-latency issue each, in list
    order, pipelined with the reads), stream page reads through the PEs
    (double-buffered, so each page costs max(read, compute)), and finally
    collect partial sums over the channel bus (die-level PEs, dies in index
    order on each channel) or the on-chip bus (channel-level PEs, channels
    in index order).

    Die-level PEs consume pages in-die: a die finishes at issue + n_pages *
    max(t_R, compute), and no earlier than the broadcast. Channel-level PEs
    serialize every page on their channel's shared ONFI bus: the bus takes
    the die whose page is ready earliest (lower die index on ties), a die
    holds one buffered page and starts its next array read when that page
    goes onto the bus, and each page holds the bus for max(transfer,
    compute). Every (layer, channel) of the token is one row of one
    schedule stepped in lockstep, and a row closes in one sum once it is
    bus-bound (``_channel_bus_ends``); the result is bit-identical to a
    heap loop over every page.

    Within a transaction the per-page compute time uses the transaction's
    mean active elements per page. A layer's transactions must target
    distinct dies and hold at least one page (generate_read_transactions
    emits at most one per die, never an empty one); ShapeError otherwise.
    Events go to ``trace`` in each layer's order: broadcast, reads and MACs
    per transaction, then partial sums. At ``SLIM_LOG=debug`` one line gives
    the seconds spent on the schedule and on the events, the lockstep steps
    and the channel rows closed.
    """
    t0 = time.perf_counter()
    t_r = timing.t_r_us * 1e-6
    ftl = params.ftl_txn_us * 1e-6
    ch_rate = timing.ch_bus_mbps * 1e6
    onchip_rate = params.onchip_bus_gbps * 1e9
    pe_rate = timing.pe_macs * timing.pe_clock_ghz * 1e9
    xfer = geo.page_bytes / ch_rate
    in_bytes = dim_e * params.act_bytes_per_elem * batch_tokens
    psum_bytes = dim_e * params.psum_bytes_per_elem * batch_tokens
    die_level = timing.pe_level == "die"

    # step 1: broadcast inputs to PE input SRAMs, done at the same time on every channel
    if die_level:
        pes_per_ch = geo.chips_per_ch * geo.dies_per_chip
        bcast = pes_per_ch * in_bytes / ch_rate
        psum_s = psum_bytes / ch_rate
    else:
        bcast = geo.n_ch * in_bytes / onchip_rate
        psum_s = psum_bytes / onchip_rate

    n_layers = len(layer_txns)
    counts = np.array([len(txns) for txns in layer_txns], dtype=np.int64)
    flat = [txn for txns in layer_txns for txn in txns]
    n = len(flat)
    die = np.fromiter((t.die_index for t in flat), np.int64, n)
    pages = np.fromiter((t.n_pages for t in flat), np.int64, n)
    elems = np.fromiter((t.active_elems for t in flat), np.int64, n)
    useful = np.fromiter((t.useful_bytes for t in flat), np.float64, n)
    layer = np.repeat(np.arange(n_layers), counts)
    first_txn = np.cumsum(counts) - counts
    pos = np.arange(n) - first_txn[layer]

    by_die = np.lexsort((die, layer))
    twice = (layer[by_die][1:] == layer[by_die][:-1]) & (die[by_die][1:] == die[by_die][:-1])
    if twice.any():
        raise ShapeError(f"two transactions target die {die[by_die][1:][twice][0]}")
    if (pages < 1).any():
        raise ShapeError(f"transaction for die {die[pages < 1][0]} has no pages")

    width = int(counts.max(initial=0))
    # step 2: LPA translation, serialized in firmware
    issue = np.add.accumulate(np.full(width, ftl))[pos]
    grid = np.zeros((n_layers, width + 1))  # column 0 starts each layer's sum at 0.0
    grid[layer, pos + 1] = useful
    layer_useful = np.add.accumulate(grid, axis=1)[:, -1]
    compute = elems * batch_tokens / pages / pe_rate

    # rows: one per (layer, channel) with work; columns: its dies in index order
    ch = die % geo.n_ch
    order = np.lexsort((die, ch, layer))
    row_key = (layer * geo.n_ch + ch)[order]
    new_row = np.diff(row_key, prepend=-1) != 0
    first_of_row = np.flatnonzero(new_row)
    row_of = np.cumsum(new_row) - 1
    col = np.arange(n) - first_of_row[row_of]
    row_layer = layer[order][first_of_row]
    n_rows, row_width = len(first_of_row), int(col.max(initial=-1)) + 1
    row_size = np.diff(first_of_row, append=n)
    layer_end = np.full(n_layers, bcast)
    steps = closed = 0

    if die_level:
        done = np.maximum(issue + pages * np.maximum(t_r, compute), bcast)
        # step 4: each channel bus collects its dies' partial sums in die order
        table = np.zeros((n_rows, row_width))
        table[row_of, col] = done[order]
        bus = np.zeros(n_rows)
        psum_end = np.empty(n)
        for c in range(row_width):
            has = c < row_size
            bus[has] = np.maximum(bus[has], table[has, c]) + psum_s
            psum_end[order[first_of_row[has] + c]] = bus[has]
        np.maximum.at(layer_end, row_layer, bus)
    else:
        slot = np.maximum(xfer, compute)
        ready = np.full((n_rows, row_width), np.inf)
        ready[row_of, col] = (issue + t_r)[order]
        left = np.zeros((n_rows, row_width), dtype=np.int64)
        left[row_of, col] = pages[order]
        slots = np.zeros((n_rows, row_width))
        slots[row_of, col] = slot[order]
        bus, steps, closed = _channel_bus_ends(ready, left, slots, t_r, bcast)
        # step 4: the on-chip bus collects the channels' partial sums in channel order
        row_rank = np.arange(n_rows) - np.searchsorted(row_layer, row_layer)
        onchip = np.zeros(n_layers)
        psum_end = np.empty(n_rows)
        for k in range(int(row_rank.max(initial=-1)) + 1):
            at = np.flatnonzero(row_rank == k)
            onchip[row_layer[at]] = np.maximum(onchip[row_layer[at]], bus[at]) + psum_s
            psum_end[at] = onchip[row_layer[at]]
        layer_end = np.maximum(layer_end, onchip)

    t1 = time.perf_counter()
    lat = layer_end.tolist()
    if trace is not None:
        starts = np.add.accumulate(np.array([t_start] + lat[:-1]))
        code = {name: trace.event_code(name)
                for name in ("ch_bus", "onchip_bus", "nand_read", "pe_mac")}
        kind = {name: trace.kind_code(name) for name in ("ch", "die", "fmc", "onchip")}
        block = (geo.n_ch + 3 * counts if die_level
                 else 1 + 3 * counts + np.bincount(row_layer, minlength=n_layers))
        off = np.cumsum(block) - block
        cols = [np.empty(int(block.sum()), dtype=dt)
                for dt in (np.float64, np.int64, np.int64, np.int64, np.float64)]

        def put(at, t, unit_kind, index, event, qty):
            for c, v in zip(cols, (t, kind[unit_kind], index, code[event], qty)):
                c[at] = v

        read_bytes = pages * geo.page_bytes
        macs = elems * batch_tokens
        if die_level:
            at = off[:, None] + np.arange(geo.n_ch)
            put(at, bcast, "ch", np.arange(geo.n_ch), "ch_bus", pes_per_ch * in_bytes)
            at = off[layer] + geo.n_ch + 2 * pos
            put(at, done, "die", die, "nand_read", read_bytes)
            put(at + 1, done, "die", die, "pe_mac", macs)
            rank = np.arange(n) - first_txn[layer[by_die]]
            at = off[layer[by_die]] + geo.n_ch + 2 * counts[layer[by_die]] + rank
            put(at, psum_end[by_die], "ch", ch[by_die], "ch_bus", psum_bytes)
        else:
            put(off, bcast, "onchip", -1, "onchip_bus", geo.n_ch * in_bytes)
            # a channel's transactions in list order, channels in index order
            by_ch = np.lexsort((pos, ch, layer))
            txn_row = np.empty(n, dtype=np.int64)
            txn_row[order] = row_of
            rank = np.arange(n) - first_txn[layer[by_ch]]
            at = off[layer[by_ch]] + 1 + 3 * rank
            t = bus[txn_row[by_ch]]
            put(at, t, "die", die[by_ch], "nand_read", read_bytes[by_ch])
            put(at + 1, t, "ch", ch[by_ch], "ch_bus", read_bytes[by_ch])
            put(at + 2, t, "fmc", ch[by_ch], "pe_mac", macs[by_ch])
            at = off[row_layer] + 1 + 3 * counts[row_layer] + row_rank
            put(at, psum_end, "onchip", -1, "onchip_bus", psum_bytes)
        t, *rest = cols
        t_ns = np.rint((starts[np.repeat(np.arange(n_layers), block)] + t) * 1e9)
        trace.extend(t_ns.astype(np.int64), *rest, np.ones(len(t), dtype=bool))
    t2 = time.perf_counter()
    log.debug("simulate_ffn_pass: %d layers, schedule %.6f s (%d lockstep steps, "
              "%d of %d channel rows closed), events %.6f s",
              n_layers, t1 - t0, steps, closed, 0 if die_level else n_rows, t2 - t1)
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
