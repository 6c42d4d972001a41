"""Event-driven SSD model: geometry/timing, page-aligned fused-vector weight
mapping, sparsity-driven read transactions, and channel-level vs die-level
processing-engine scheduling.

A "fused vector" is one hidden neuron's weights (gate column + up column +
down row, 3*dim_e elements) stored contiguously so a neuron is one storage
unit. Vectors map round-robin across dies; small vectors pack several per
page, large ones span consecutive pages in one die.

Times are seconds internally; NAND timing fields are microseconds as usually
quoted on datasheets.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import MappingError, ShapeError
from .model import ModelConfig
from .trace import TraceEvent


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
    latency_s: float
    raw_bytes: int
    useful_bytes: float
    active_elems: int
    macs: int


def _confirmed_steps(start, waits_on, first_ready, step_slot, bus_t, t_r):
    """How many leading steps of a guessed schedule the page-by-page heap
    loop of ``_channel_bus_end`` takes exactly as guessed, and the ready
    times the guess gives: the queued dies' ``first_ready``, then each
    step's start + t_r. Step i waits for ready time ``waits_on[i]``.

    A step is confirmed when its guessed start equals the loop's own
    max(bus free, page ready), computed from the guess, and the ready time
    it pushes is later than every one already queued, so that heap order,
    die-index tie-breaks included, stays round-robin. (The loop's third
    term, the broadcast's end, cannot bind: the bus was already busy past it
    when the ramp ended.)"""
    m = len(first_ready)
    readies = np.concatenate((first_ready, start + t_r))
    bus_free = np.concatenate(([bus_t], start[:-1] + step_slot[:-1]))
    ok = start == np.maximum(bus_free, readies[waits_on])
    ok &= readies[m:] > readies[m - 1:-1]
    return (len(ok) if ok.all() else int(ok.argmin())), readies


def _channel_bus_end(ready: dict[int, float], pages: dict[int, int],
                     slot: dict[int, float], t_r: float, bcast: float) -> float:
    """When one channel's shared bus finishes streaming its dies' pages.

    Die d has ``pages[d]`` pages, the first ready at ``ready[d]``, and each
    holds the bus ``slot[d]``. The rule is a heap loop over pages: serve the
    die whose page is ready first (lower die index on ties) at max(bus free,
    page ready, bcast); its next page is ready t_r after that start. The
    loop runs page by page only where the schedule has no closed form:

    1. ramp: heap steps until every die has read once. From then on the
       queued dies are served round-robin, each leaving when out of pages.
    2. rounds: all remaining starts are guessed bus-bound (a running sum of
       slots) and die-bound (a running sum of t_r down each die's column);
       the longer prefix that ``_confirmed_steps`` confirms is taken.
    3. fallback: when that prefix is shorter than a budget (at first one
       round of the dies), that many heap steps, and the budget doubles.

    Accepted values are the loop's own IEEE sums in the loop's order, so the
    result is bit-identical to stepping every page.
    """
    left = dict(pages)
    heap = [(r, d) for d, r in ready.items()]
    heapq.heapify(heap)
    bus_t = 0.0

    def heap_step():
        nonlocal bus_t
        r, d = heapq.heappop(heap)
        start = max(bus_t, r, bcast)
        bus_t = start + slot[d]
        left[d] -= 1
        if left[d]:
            heapq.heappush(heap, (start + t_r, d))
        return d

    unread = set(left)
    while unread:
        unread.discard(heap_step())
    budget = len(pages)
    while heap:
        heap.sort()  # pop order; a sorted list is also a valid heap
        m = len(heap)
        dies = [d for _, d in heap]
        first_ready = np.array([r for r, _ in heap])
        n_left = [left[d] for d in dies]
        # round r serves, in queue order, every die with more than r pages left
        served = np.arange(max(n_left))[:, None] < np.array(n_left)
        step_slot = np.array([slot[d] for d in dies])[served.nonzero()[1]]
        n = len(step_slot)
        # step_no[r + 1, j]: the step that serves queue die j's page r; row 0
        # counts up from -m, so m + step_no indexes _confirmed_steps' readies
        step_no = np.cumsum(served.ravel()).reshape(served.shape) - 1
        step_no = np.vstack((np.arange(-m, 0), step_no))
        waits_on = m + step_no[:-1][served]
        start = np.add.accumulate(np.concatenate(([bus_t], step_slot[:-1])))
        steps, readies = _confirmed_steps(start, waits_on, first_ready, step_slot,
                                          bus_t, t_r)
        if steps < n:
            die_bound = np.full(served.shape, t_r)
            die_bound[0] = first_ready
            die_start = np.add.accumulate(die_bound, axis=0)[served]
            die_steps, die_readies = _confirmed_steps(die_start, waits_on, first_ready,
                                                      step_slot, bus_t, t_r)
            if die_steps > steps:
                start, steps, readies = die_start, die_steps, die_readies
        if steps:
            bus_t = float(start[steps - 1] + step_slot[steps - 1])
            if steps == n:
                break
            done = ((step_no[1:] < steps) & served).sum(axis=0)
            next_ready = readies[m + step_no[done, np.arange(m)]].tolist()
            heap = []
            for j, d in enumerate(dies):
                left[d] -= int(done[j])
                if left[d]:
                    heap.append((next_ready[j], d))
            heapq.heapify(heap)
        if steps < budget:
            for _ in range(min(budget, n - steps)):
                heap_step()
            budget *= 2
    return bus_t


def simulate_ffn_pass(transactions: list[ReadTransaction], timing: NandTiming,
                      geo: SsdGeometry, batch_tokens: int = 1, *, dim_e: int,
                      params: NspParams = NspParams(), trace: list | None = None,
                      t_start: float = 0.0) -> FfnPassResult:
    """Schedule one FFN pass over the NSP engines and return its latency.

    Steps: broadcast the input activations to every PE buffer, translate
    transactions in the FTL (one fixed-latency issue each, pipelined with the
    reads), stream page reads through the PEs (double-buffered, so each page
    costs max(read, compute)), and finally collect partial sums over the
    channel bus (die-level PEs) or the on-chip bus (channel-level PEs).

    Die-level PEs consume pages in-die and only their partial sums touch
    the bus. Channel-level PEs serialize every page on their channel's
    shared ONFI bus: the bus takes the die whose page is ready earliest
    (lower die index on ties), a die holds one buffered page and starts its
    next array read when that page goes onto the bus, and each page holds
    the bus for max(transfer, compute). After a ramp in which every die has
    read once, the dies take turns round-robin. The rounds are evaluated in
    closed form when the bus is the bottleneck (pages back to back) or the
    dies are (each page t_R after its die's previous one), and page by page
    where neither holds (``_channel_bus_end``). Every closed-form start is
    checked against the page-by-page rule with the same float operations,
    so the latency is bit-identical to stepping every page.

    Within a transaction the per-page compute time uses the transaction's
    mean active elements per page. Transactions must target distinct dies
    and hold at least one page (generate_read_transactions emits at most
    one per die, never an empty one); ShapeError otherwise.
    """
    t_r = timing.t_r_us * 1e-6
    ftl = params.ftl_txn_us * 1e-6
    ch_rate = timing.ch_bus_mbps * 1e6
    onchip_rate = params.onchip_bus_gbps * 1e9
    pe_rate = timing.pe_macs * timing.pe_clock_ghz * 1e9
    xfer = geo.page_bytes / ch_rate
    in_bytes = dim_e * params.act_bytes_per_elem * batch_tokens
    psum_bytes = dim_e * params.psum_bytes_per_elem * batch_tokens

    def emit(t, unit, event, qty):
        if trace is not None:
            trace.append(TraceEvent(time_ns=int(round((t_start + t) * 1e9)),
                                    unit=unit, event=event, bytes=qty))

    # step 1: broadcast inputs to PE input SRAMs, done at the same time on every channel
    if timing.pe_level == "die":
        pes_per_ch = geo.chips_per_ch * geo.dies_per_chip
        bcast = pes_per_ch * in_bytes / ch_rate
        for ch in range(geo.n_ch):
            emit(bcast, f"ch{ch}", "ch_bus", pes_per_ch * in_bytes)
    else:
        bcast = geo.n_ch * in_bytes / onchip_rate
        emit(bcast, "onchip", "onchip_bus", geo.n_ch * in_bytes)

    ftl_t = 0.0
    bus_free = [0.0] * geo.n_ch  # ONFI channel bus
    onchip_free = 0.0
    pe_done: dict[int, float] = {}
    raw = 0
    useful = 0.0
    elems = 0

    issue_at = {}
    for txn in transactions:
        if txn.die_index in issue_at:
            raise ShapeError(f"two transactions target die {txn.die_index}")
        if txn.n_pages < 1:
            raise ShapeError(f"transaction for die {txn.die_index} has no pages")
        ftl_t += ftl  # step 2: LPA translation, serialized in firmware
        issue_at[txn.die_index] = ftl_t
        raw += txn.n_pages * geo.page_bytes
        useful += txn.useful_bytes
        elems += txn.active_elems

    def compute_page(txn):
        return (txn.active_elems * batch_tokens / txn.n_pages) / pe_rate

    if timing.pe_level == "die":
        for txn in transactions:
            macs = txn.active_elems * batch_tokens
            ready = max(0.0, issue_at[txn.die_index])  # no read before t = 0
            done = ready + txn.n_pages * max(t_r, compute_page(txn))
            done = max(done, bcast)  # PE needs the input to finish
            pe_done[txn.die_index] = done
            emit(done, f"die{txn.die_index}", "nand_read", txn.n_pages * geo.page_bytes)
            emit(done, f"die{txn.die_index}", "pe_mac", macs)
    else:
        by_ch: dict[int, list[ReadTransaction]] = {}
        for txn in transactions:
            by_ch.setdefault(geo.die_coords(txn.die_index)[0], []).append(txn)
        for ch in range(geo.n_ch):
            ch_txns = by_ch.get(ch)
            if not ch_txns:
                continue
            bus_free[ch] = _channel_bus_end(
                {t.die_index: issue_at[t.die_index] + t_r for t in ch_txns},
                {t.die_index: t.n_pages for t in ch_txns},
                {t.die_index: max(xfer, compute_page(t)) for t in ch_txns},
                t_r, bcast)
            pe_done[ch] = bus_free[ch]
            for t in ch_txns:
                emit(bus_free[ch], f"die{t.die_index}", "nand_read", t.n_pages * geo.page_bytes)
                emit(bus_free[ch], f"ch{ch}", "ch_bus", t.n_pages * geo.page_bytes)
                emit(bus_free[ch], f"fmc{ch}", "pe_mac", t.active_elems * batch_tokens)

    # step 4: reduce and collect partial sums from every PE that did work
    end = bcast
    if timing.pe_level == "die":
        for die_index in sorted(pe_done):
            ch, _, _ = geo.die_coords(die_index)
            start = max(bus_free[ch], pe_done[die_index])
            bus_free[ch] = start + psum_bytes / ch_rate
            emit(bus_free[ch], f"ch{ch}", "ch_bus", psum_bytes)
            end = max(end, bus_free[ch])
    else:
        for ch in sorted(pe_done):
            onchip_free = max(onchip_free, pe_done[ch]) + psum_bytes / onchip_rate
            emit(onchip_free, "onchip", "onchip_bus", psum_bytes)
            end = max(end, onchip_free)

    return FfnPassResult(latency_s=end, raw_bytes=raw, useful_bytes=useful,
                         active_elems=elems, macs=elems * batch_tokens)


def write_model(layout: WeightLayout, geo: SsdGeometry, timing: NandTiming) -> float:
    """One-time programming cost in seconds: dies program their pages in
    parallel, pages within a die serialize. Never part of inference latency."""
    busiest = int(np.max(layout.pages_used_per_die)) if layout.pages_used_per_die.size else 0
    return busiest * timing.t_prog_us * 1e-6
