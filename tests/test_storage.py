import heapq
import math
import warnings
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slim import storage
from slim.errors import MappingError, NumericError, ShapeError
from slim.model import ModelConfig
from slim.storage import (
    FfnPassResult,
    NandTiming,
    NspParams,
    SsdGeometry,
    TokenReads,
    WeightLayout,
    generate_read_transactions,
    map_weights,
    nand_preset,
    simulate_ffn_pass,
    write_model,
)
from slim.trace import EventColumns, TraceEvent

LLAMA = ModelConfig(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32, seq_len=2048, seed=1)
TOY = ModelConfig(n_dec=2, dim_e=512, dim_h=64, n_heads=4, seq_len=32, seed=1)


def full_masks(cfg, value=True):
    return {(0, e): np.full(cfg.dim_h, value, dtype=bool) for e in range(cfg.n_expert)}


# one die's transaction of one layer, as a row
Txn = namedtuple("Txn", "die_index n_pages useful_bytes active_elems")


def page_txn(geo, die_index, n_pages, elems_per_page):
    """A hand-built transaction of n_pages full pages on one die."""
    return Txn(die_index=die_index, n_pages=n_pages,
               useful_bytes=float(n_pages * geo.page_bytes),
               active_elems=n_pages * elems_per_page)


def hand_layout(geo, n_layers):
    """A layout of n_layers on geo for hand-built transactions; the FFN pass
    reads only its geometry and layer count."""
    return WeightLayout(geo=geo, n_dec=n_layers, n_expert=1, dim_h=1, dim_e=1,
                        bytes_per_elem=1, vector_bytes=3, packing_factor=1, span_pages=1)


def token_reads(token, geo):
    """The (layer, die) tables of a token given as one list of rows per
    layer, each row one die's reads, read on geo."""
    shape = (len(token), geo.n_dies)
    tables = [np.zeros(shape, dtype=np.int64), np.zeros(shape), np.zeros(shape, dtype=np.int64)]
    for layer, txns in enumerate(token):
        for txn in txns:
            for table, value in zip(tables, txn[1:]):
                table[layer, txn.die_index] = value
    return TokenReads(*tables, layout=hand_layout(geo, len(token)))


def layer_rows(reads, layer):
    """One layer's dies that read, in die order, as rows of built-in numbers."""
    dies = np.flatnonzero(reads.n_pages[layer])
    return [Txn(*row) for row in zip(dies.tolist(), reads.n_pages[layer, dies].tolist(),
                                     reads.useful_bytes[layer, dies].tolist(),
                                     reads.active_elems[layer, dies].tolist())]


def raw_bytes(txns, geo):
    return sum(t.n_pages for t in txns) * geo.page_bytes


class TestMapping:
    def test_tlc_one_vector_per_page(self):
        geo, _ = nand_preset("tlc", "die")
        layout = map_weights(LLAMA, geo, bytes_per_elem=1)
        assert layout.vector_bytes == 12288
        assert layout.packing_factor == 1 and layout.span_pages == 1
        # 4096 B slack per 16 KB page: 75% storage utilization
        assert layout.vector_bytes / geo.page_bytes == 0.75

    def test_slc_three_page_span(self):
        geo, _ = nand_preset("slc", "die")
        layout = map_weights(LLAMA, geo, bytes_per_elem=1)
        assert layout.packing_factor == 1 and layout.span_pages == 3

    def test_toy_packing_two(self):
        geo = SsdGeometry(page_bytes=4096)
        layout = map_weights(TOY, geo, bytes_per_elem=1)
        assert layout.vector_bytes == 1536
        assert layout.packing_factor == 2 and layout.span_pages == 1
        counts = layout.pages_used_per_die
        assert counts.max() - counts.min() <= 1

    def test_entry_count_exact(self):
        cfg = ModelConfig(n_dec=3, dim_e=64, dim_h=40, n_heads=4, n_expert=4, top_k=2, seed=0)
        layout = map_weights(cfg, SsdGeometry())
        flat = np.arange(cfg.n_dec * cfg.n_expert * cfg.dim_h)
        placed = layout.place(flat // cfg.dim_h, flat % cfg.dim_h)
        # one distinct (die, page, offset) per entry: no two vectors share an address
        assert len(set(zip(*(a.tolist() for a in placed)))) == 3 * 4 * 40

    def test_vector_pages_consecutive_in_one_die(self):
        geo, _ = nand_preset("slc", "die")
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=80, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        assert layout.span_pages == 3
        assert layout.place(0, 0)[0] != layout.place(0, 1)[0]  # round-robin

    def test_round_robin_is_channel_major(self):
        geo = SsdGeometry(n_ch=4, chips_per_ch=2)
        cfg = ModelConfig(n_dec=1, dim_e=2048, dim_h=16, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)  # vector 6144 B -> 2-page span, 8 dies
        chs = [geo.die_coords(layout.place(0, j)[0])[0] for j in range(4)]
        assert chs == [0, 1, 2, 3]

    def test_capacity_error(self):
        tiny = SsdGeometry(n_ch=1, chips_per_ch=1, planes_per_die=1,
                           blocks_per_plane=1, pages_per_block=2, page_bytes=4096)
        with pytest.raises(MappingError):
            map_weights(TOY, tiny)


class TestTransactions:
    def test_full_mask_page_count_and_useful(self):
        geo, _ = nand_preset("slc", "die")
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=128, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        txns = layer_rows(generate_read_transactions(layout, full_masks(cfg)), 0)
        assert sum(t.n_pages for t in txns) == cfg.dim_h * layout.span_pages
        assert sum(t.useful_bytes for t in txns) == raw_bytes(txns, geo)

    def test_half_mask_half_pages(self):
        geo, _ = nand_preset("slc", "die")
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=128, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        mask = np.zeros(cfg.dim_h, dtype=bool)
        mask[::2] = True
        txns = layer_rows(generate_read_transactions(layout, {(0, 0): mask}), 0)
        assert sum(t.n_pages for t in txns) == cfg.dim_h // 2 * layout.span_pages
        assert sum(t.useful_bytes for t in txns) == raw_bytes(txns, geo)

    def test_packing_two_alternating_worst_case(self):
        geo = SsdGeometry(page_bytes=4096)
        layout = map_weights(TOY, geo)  # packing 2
        mask = np.zeros(TOY.dim_h, dtype=bool)
        mask[::2] = True  # one active vector in every packed pair
        txns = layer_rows(generate_read_transactions(layout, {(0, 0): mask}), 0)
        total = raw_bytes(txns, geo)
        useful = sum(t.useful_bytes for t in txns)
        assert sum(t.n_pages for t in txns) == TOY.dim_h // 2  # every page still read
        assert useful == pytest.approx(total / 2)

    def test_conservation_random_masks(self):
        geo = SsdGeometry(page_bytes=4096)
        layout = map_weights(TOY, geo)
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = rng.random(TOY.dim_h) < rng.random()
            txns = layer_rows(generate_read_transactions(layout, {(1, 0): mask}), 1)
            assert sum(t.useful_bytes for t in txns) <= raw_bytes(txns, geo) + 1e-9

    def test_pages_monotone_in_sparsity(self):
        geo, _ = nand_preset("slc", "die")
        layout = map_weights(TOY, geo)
        perm = np.random.default_rng(1).permutation(TOY.dim_h)
        prev = None
        for frac in (1.0, 0.75, 0.5, 0.25):
            mask = np.zeros(TOY.dim_h, dtype=bool)
            mask[perm[: int(frac * TOY.dim_h)]] = True
            pages = generate_read_transactions(layout, {(0, 0): mask}).n_pages.sum()
            if prev is not None:
                assert pages <= prev
            prev = pages

    def test_mask_shape_checked(self):
        layout = map_weights(TOY, SsdGeometry())
        with pytest.raises(ShapeError):
            generate_read_transactions(layout, {(0, 0): np.ones(3, dtype=bool)})


class TestFfnPass:
    def _run(self, nand, level, cfg, mask_frac=1.0, seed=0):
        geo, timing = nand_preset(nand, level)
        layout = map_weights(cfg, geo)
        rng = np.random.default_rng(seed)
        masks = {(0, e): rng.random(cfg.dim_h) < mask_frac for e in range(cfg.n_expert)}
        token = generate_read_transactions(layout, masks)
        return simulate_ffn_pass(token, timing, geo, dim_e=cfg.dim_e)

    def test_die_level_slc_near_peak(self):
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=11008, n_heads=32, seed=0)
        res = self._run("slc", "die", cfg)
        peak = 64 * 4096 / 3e-6  # dies x page / t_R
        assert abs(res.raw_bytes / res.latency_s - peak) / peak < 0.05

    def test_channel_level_bus_bound(self):
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=11008, n_heads=32, seed=0)
        res = self._run("slc", "channel", cfg)
        assert abs(res.raw_bytes / res.latency_s - 19.2e9) / 19.2e9 < 0.01

    def test_tlc_channel_also_bus_bound(self):
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=11008, n_heads=32, seed=0)
        res = self._run("tlc", "channel", cfg)
        assert abs(res.raw_bytes / res.latency_s - 19.2e9) / 19.2e9 < 0.01

    def test_latency_monotone_in_sparsity(self):
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=2048, n_heads=4, seed=0)
        geo, timing = nand_preset("slc", "die")
        layout = map_weights(cfg, geo)
        perm = np.random.default_rng(3).permutation(cfg.dim_h)
        lat = []
        for frac in (1.0, 0.75, 0.5, 0.25):
            mask = np.zeros(cfg.dim_h, dtype=bool)
            mask[perm[: int(frac * cfg.dim_h)]] = True
            token = generate_read_transactions(layout, {(0, 0): mask})
            lat.append(simulate_ffn_pass(token, timing, geo, dim_e=cfg.dim_e).latency_s)
        assert all(b <= a + 1e-12 for a, b in zip(lat, lat[1:]))

    def test_deterministic_trace(self):
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=256, n_heads=4, seed=0)
        geo, timing = nand_preset("tlc", "channel")
        layout = map_weights(cfg, geo)
        mask = np.random.default_rng(4).random(cfg.dim_h) < 0.6
        token = generate_read_transactions(layout, {(0, 0): mask})
        t1, t2 = EventColumns(), EventColumns()
        r1 = simulate_ffn_pass(token, timing, geo, dim_e=cfg.dim_e, trace=t1)
        r2 = simulate_ffn_pass(token, timing, geo, dim_e=cfg.dim_e, trace=t2)
        assert r1 == r2 and list(t1) == list(t2) and len(t1) > 0

    def test_batch_scales_compute_not_reads(self):
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=256, n_heads=4, seed=0)
        geo, timing = nand_preset("slc", "die")
        layout = map_weights(cfg, geo)
        token = generate_read_transactions(layout, full_masks(cfg))
        r1 = simulate_ffn_pass(token, timing, geo, 1, dim_e=cfg.dim_e)
        r8 = simulate_ffn_pass(token, timing, geo, 8, dim_e=cfg.dim_e)
        assert r8.raw_bytes == r1.raw_bytes
        assert r8.macs == 8 * r1.macs

    def test_reads_of_another_geometry_refused(self):
        # SLC and TLC presets differ in page size: a record read on one never
        # meets the other's timing
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=256, n_heads=4, seed=0)
        slc, _ = nand_preset("slc", "channel")
        tlc, timing = nand_preset("tlc", "channel")
        reads = generate_read_transactions(map_weights(cfg, slc), full_masks(cfg))
        with pytest.raises(ShapeError):
            simulate_ffn_pass(reads, timing, tlc, dim_e=cfg.dim_e)


class TestWriteModel:
    def test_single_page_per_die(self):
        geo = SsdGeometry(n_ch=2, chips_per_ch=2, page_bytes=4096)
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=8, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)  # packing 2 -> 4 groups over 4 dies
        assert np.all(layout.pages_used_per_die == 1)
        _, timing = nand_preset("slc", "die")
        assert write_model(layout, geo, timing) == pytest.approx(100e-6)

    def test_single_die_serializes(self):
        geo = SsdGeometry(n_ch=1, chips_per_ch=1, page_bytes=4096)
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=10, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        pages = int(layout.pages_used_per_die[0])
        _, timing = nand_preset("slc", "die")
        assert write_model(layout, geo, timing) == pytest.approx(pages * 100e-6)

    def test_even_distribution_ceiling(self):
        geo = SsdGeometry(n_ch=4, chips_per_ch=1, page_bytes=4096)
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=42, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)  # 21 groups over 4 dies -> ceil = 6
        total = int(layout.pages_used_per_die.sum())
        _, timing = nand_preset("slc", "die")
        assert write_model(layout, geo, timing) == pytest.approx(
            np.ceil(total / 4) * 100e-6)


def test_geometry_capacity():
    geo, _ = nand_preset("slc", "die")
    assert geo.n_dies == 64
    capacity = geo.n_dies * geo.pages_per_die * geo.page_bytes
    assert capacity == 64 * 2 * 1024 * 512 * 4096  # ~256 GB class device
    tgeo, _ = nand_preset("tlc", "die")
    assert tgeo.n_dies * tgeo.pages_per_die * tgeo.page_bytes == 4 * capacity  # ~1 TB class


def test_bad_pe_level():
    with pytest.raises(ShapeError):
        NandTiming(pe_level="fmc")


# --- reference: the per-entry placement loop the closed form must reproduce ---

def reference_layout(cfg, geo, bytes_per_elem):
    """Deal packing groups to dies one by one, filling per-entry tables."""
    vector_bytes = 3 * cfg.dim_e * bytes_per_elem
    if vector_bytes <= geo.page_bytes:
        packing, span = geo.page_bytes // vector_bytes, 1
    else:
        packing, span = 1, math.ceil(vector_bytes / geo.page_bytes)
    n_entries = cfg.n_dec * cfg.n_expert * cfg.dim_h
    die_of = np.empty(n_entries, dtype=np.int32)
    page_of = np.empty(n_entries, dtype=np.int64)
    offset_of = np.empty(n_entries, dtype=np.int64)
    pages_used = np.zeros(geo.n_dies, dtype=np.int64)
    group = 0
    for layer in range(cfg.n_dec):
        for expert in range(cfg.n_expert):
            base = (layer * cfg.n_expert + expert) * cfg.dim_h
            for j0 in range(0, cfg.dim_h, packing):
                die = group % geo.n_dies
                start_page = pages_used[die]
                if start_page + span > geo.pages_per_die:
                    raise MappingError(f"die {die} overflows")
                for slot, j in enumerate(range(j0, min(j0 + packing, cfg.dim_h))):
                    die_of[base + j] = die
                    page_of[base + j] = start_page
                    offset_of[base + j] = slot * vector_bytes
                pages_used[die] += span
                group += 1
    return dict(die_of=die_of, page_of=page_of, offset_of=offset_of,
                pages_used_per_die=pages_used, packing=packing, span=span)


def reference_transactions(ref, cfg, geo, layer, masks):
    """Walk every packing group of the masked experts, page by page."""
    packing, span = ref["packing"], ref["span"]
    pages_by_die, order_by_die, elems_by_die = {}, {}, {}
    for expert in sorted(masks):
        mask = np.asarray(masks[expert], dtype=bool)
        base = (layer * cfg.n_expert + expert) * cfg.dim_h
        for j0 in range(0, cfg.dim_h, packing):
            j1 = min(j0 + packing, cfg.dim_h)
            active = int(np.count_nonzero(mask[j0:j1]))
            if active == 0:
                continue
            die = int(ref["die_of"][base + j0])
            first = int(ref["page_of"][base + j0])
            d_pages = pages_by_die.setdefault(die, {})
            d_order = order_by_die.setdefault(die, [])
            for p in range(first, first + span):
                if p not in d_pages:
                    d_order.append(p)
                d_pages[p] = (active, j1 - j0)
            elems_by_die[die] = elems_by_die.get(die, 0) + active * 3 * cfg.dim_e
    txns = []
    for die in sorted(pages_by_die):
        pages = tuple(order_by_die[die])
        useful = 0.0  # left to right, never compensated
        for p in pages:
            active, resident = pages_by_die[die][p]
            useful += geo.page_bytes * active / resident
        txns.append(Txn(die_index=die, n_pages=len(pages), useful_bytes=useful,
                        active_elems=elems_by_die[die]))
    return txns


@st.composite
def layout_cases(draw):
    n_expert = draw(st.integers(1, 4))
    cfg = ModelConfig(n_dec=draw(st.integers(1, 3)), dim_e=draw(st.integers(1, 700)),
                      dim_h=draw(st.integers(1, 40)), n_heads=1, n_expert=n_expert,
                      top_k=1, seed=0)
    # page sizes from 1 KB down to 128 B give packing > 1 with a short last
    # group as well as vectors spanning many pages; tiny dies overflow
    geo = SsdGeometry(n_ch=draw(st.integers(1, 4)), chips_per_ch=draw(st.integers(1, 3)),
                      dies_per_chip=draw(st.integers(1, 2)),
                      planes_per_die=draw(st.integers(1, 2)),
                      blocks_per_plane=draw(st.integers(1, 3)),
                      pages_per_block=draw(st.integers(1, 16)),
                      page_bytes=draw(st.sampled_from([128, 256, 1024])))
    bytes_per_elem = draw(st.integers(1, 2))
    slots = draw(st.sets(st.tuples(st.integers(0, cfg.n_dec - 1),
                                   st.integers(0, n_expert - 1))))
    masks = {slot: np.array(draw(st.lists(st.booleans(), min_size=cfg.dim_h,
                                          max_size=cfg.dim_h)), dtype=bool)
             for slot in slots}
    return cfg, geo, bytes_per_elem, masks


def example_case(n_dec, n_expert, dim_e, dim_h, page_bytes, bytes_per_elem, seed):
    """Every slot of a layout masked at random, on a die array large enough."""
    cfg = ModelConfig(n_dec=n_dec, dim_e=dim_e, dim_h=dim_h, n_heads=1, n_expert=n_expert,
                      top_k=1, seed=0)
    geo = SsdGeometry(n_ch=3, chips_per_ch=2, blocks_per_plane=2, pages_per_block=128,
                      page_bytes=page_bytes)
    rng = np.random.default_rng(seed)
    masks = {(layer, e): rng.random(dim_h) < 0.5
             for layer in range(n_dec) for e in range(n_expert)}
    return cfg, geo, bytes_per_elem, masks


@given(layout_cases())
# packing 4 with a 3-vector last group; vectors of 33 pages
@example(example_case(3, 4, 20, 39, 256, 1, 0))
@example(example_case(2, 3, 700, 13, 128, 2, 1))
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_reference(case):
    cfg, geo, bytes_per_elem, masks = case
    try:
        ref = reference_layout(cfg, geo, bytes_per_elem)
    except MappingError:
        with pytest.raises(MappingError):
            map_weights(cfg, geo, bytes_per_elem)
        return
    layout = map_weights(cfg, geo, bytes_per_elem)
    flat = np.arange(cfg.n_dec * cfg.n_expert * cfg.dim_h)
    placed = layout.place(flat // cfg.dim_h, flat % cfg.dim_h)
    for got, name in zip(placed, ("die_of", "page_of", "offset_of")):
        assert np.array_equal(got, ref[name]), name
    got = layout.pages_used_per_die
    assert got.dtype == ref["pages_used_per_die"].dtype
    assert np.array_equal(got, ref["pages_used_per_die"])

    reads = generate_read_transactions(layout, masks)
    for name, dtype in (("n_pages", np.int64), ("useful_bytes", np.float64),
                        ("active_elems", np.int64)):
        table = getattr(reads, name)
        assert table.shape == (cfg.n_dec, geo.n_dies) and table.dtype == dtype, name
    for layer in range(cfg.n_dec):
        got = layer_rows(reads, layer)
        want = reference_transactions(ref, cfg, geo, layer,
                                      {e: m for (li, e), m in masks.items() if li == layer})
        assert got == want
        assert [g.useful_bytes.hex() for g in got] == [w.useful_bytes.hex() for w in want]
    # a die that reads nothing holds nothing
    idle = reads.n_pages == 0
    assert not reads.useful_bytes[idle].any() and not reads.active_elems[idle].any()


@pytest.mark.parametrize("slot, length", [
    ((1, 0), 65),  # wrong mask length on a later layer
    ((2, 0), 64), ((-1, 0), 64),  # layer outside the layout
    ((1, 1), 64), ((1, -1), 64),  # expert outside the layout
])
def test_bad_masks_rejected(slot, length):
    layout = map_weights(TOY, SsdGeometry())  # 2 layers, 1 expert, dim_h 64
    masks = {(0, 0): np.ones(TOY.dim_h, dtype=bool), slot: np.ones(length, dtype=bool)}
    with pytest.raises(ShapeError):
        generate_read_transactions(layout, masks)


def hand_tables(n_pages, useful_bytes=None, active_elems=None):
    """Tables on a 2-layer layout of 4 dies, each defaulting to n_pages'
    shape: full 64-byte pages and one element per page."""
    n_pages = np.asarray(n_pages)
    useful = 64.0 * n_pages if useful_bytes is None else np.asarray(useful_bytes)
    elems = n_pages if active_elems is None else np.asarray(active_elems)
    layout = hand_layout(SsdGeometry(n_ch=2, chips_per_ch=2, page_bytes=64), 2)
    return TokenReads(n_pages, useful, elems, layout=layout)


@pytest.mark.parametrize("tables", [
    dict(n_pages=np.ones((3, 4), dtype=np.int64)),  # a layer too many
    dict(n_pages=np.ones((1, 4), dtype=np.int64)),  # a layer too few
    dict(n_pages=np.ones((2, 5), dtype=np.int64)),  # a die too many
    dict(n_pages=np.ones((2, 2), dtype=np.int64)),  # a die too few
    dict(n_pages=np.ones(8, dtype=np.int64)),  # 1-D columns, one entry per cell
    dict(n_pages=np.ones((2, 4, 1), dtype=np.int64)),  # a trailing axis
    dict(n_pages=np.ones((4, 2), dtype=np.int64)),  # (die, layer), transposed
    dict(n_pages=np.ones((2, 4), dtype=np.int64), useful_bytes=np.ones((2, 3))),
    dict(n_pages=np.ones((2, 4), dtype=np.int64), active_elems=np.ones(8, dtype=np.int64)),
    dict(n_pages=np.array([[1, 0, 2, 0], [0, -1, 0, 3]])),  # a negative page count
], ids=["layers+1", "layers-1", "dies+1", "dies-1", "1d", "3d", "transposed",
        "useful-shape", "elems-shape", "negative"])
def test_reads_tables_checked(tables):
    """TokenReads holds three tables of shape (n_dec, n_dies) with page
    counts >= 0: a record of any other shape cannot be scheduled."""
    with pytest.raises(ShapeError):
        hand_tables(**tables)


# --- reference: the FFN pass as one heap push/pop per channel-level page ---

def reference_ffn_pass(transactions: list[Txn], timing: NandTiming,
                      geo: SsdGeometry, batch_tokens: int = 1, *, dim_e: int,
                      params: NspParams = NspParams(), trace: list | None = None,
                      t_start: float = 0.0) -> FfnPassResult:
    """The per-page heap loop the channel-level schedule must reproduce."""
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

    # step 1: broadcast inputs to PE input SRAMs
    bcast_end = {}
    if timing.pe_level == "die":
        pes_per_ch = geo.chips_per_ch * geo.dies_per_chip
        for ch in range(geo.n_ch):
            bcast_end[ch] = pes_per_ch * in_bytes / ch_rate
            emit(bcast_end[ch], f"ch{ch}", "ch_bus", pes_per_ch * in_bytes)
    else:
        t = geo.n_ch * in_bytes / onchip_rate
        for ch in range(geo.n_ch):
            bcast_end[ch] = t
        emit(t, "onchip", "onchip_bus", geo.n_ch * in_bytes)

    ftl_t = 0.0
    die_free: dict[int, float] = {}
    bus_free = [0.0] * geo.n_ch  # ONFI channel bus
    onchip_free = 0.0
    pe_done: dict[int, float] = {}
    raw = 0
    useful = 0.0
    elems = 0

    issue_at = {}
    for txn in transactions:
        ftl_t += ftl  # step 2: LPA translation, serialized in firmware
        issue_at[txn.die_index] = ftl_t
        raw += txn.n_pages * geo.page_bytes
        useful += txn.useful_bytes
        elems += txn.active_elems

    if timing.pe_level == "die":
        for txn in transactions:
            n_pages = txn.n_pages
            macs = txn.active_elems * batch_tokens
            compute_page = (macs / n_pages) / pe_rate if n_pages else 0.0
            ready = max(die_free.get(txn.die_index, 0.0), issue_at[txn.die_index])
            done = ready + n_pages * max(t_r, compute_page)
            # PE needs the input to finish
            done = max(done, bcast_end[geo.die_coords(txn.die_index)[0]])
            die_free[txn.die_index] = done
            pe_done[txn.die_index] = done
            emit(done, f"die{txn.die_index}", "nand_read", n_pages * geo.page_bytes)
            emit(done, f"die{txn.die_index}", "pe_mac", macs)
    else:
        # The shared channel bus arbitrates over its dies' ready pages in
        # chronological order; a die holds one buffered page and starts its
        # next array read when that buffer drains onto the bus.
        for ch in range(geo.n_ch):
            ch_txns = [t for t in transactions if geo.die_coords(t.die_index)[0] == ch]
            if not ch_txns:
                continue
            pages_left = {}
            per_page_compute = {}
            heap = []
            for t in ch_txns:
                n_pages = t.n_pages
                macs = t.active_elems * batch_tokens
                pages_left[t.die_index] = n_pages
                per_page_compute[t.die_index] = (macs / n_pages) / pe_rate if n_pages else 0.0
                heapq.heappush(heap, (issue_at[t.die_index] + t_r, t.die_index))
            bus_t = bus_free[ch]
            while heap:
                ready, die_index = heapq.heappop(heap)
                start = max(bus_t, ready, bcast_end[ch])
                bus_t = start + max(xfer, per_page_compute[die_index])
                die_free[die_index] = start
                pages_left[die_index] -= 1
                if pages_left[die_index] > 0:
                    heapq.heappush(heap, (start + t_r, die_index))
            bus_free[ch] = bus_t
            pe_done[ch] = bus_t
            for t in ch_txns:
                emit(bus_t, f"die{t.die_index}", "nand_read", t.n_pages * geo.page_bytes)
                emit(bus_t, f"ch{ch}", "ch_bus", t.n_pages * geo.page_bytes)
                emit(bus_t, f"fmc{ch}", "pe_mac", t.active_elems * batch_tokens)

    # step 4: reduce and collect partial sums from every PE that did work
    end = max(bcast_end.values())
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

    return FfnPassResult(latency_s=end, layer_latency_s=(end,), raw_bytes=raw,
                         useful_bytes=useful, active_elems=elems, macs=elems * batch_tokens)


@st.composite
def devices(draw):
    geo = SsdGeometry(n_ch=draw(st.integers(1, 3)), chips_per_ch=draw(st.integers(1, 8)),
                      dies_per_chip=draw(st.integers(1, 2)),
                      page_bytes=draw(st.sampled_from([2048, 4096, 16384])))
    # datasheet values and arbitrary ones: bus-bound, die-bound and mixed
    # channels, compute-bound slots from large batches on few MACs
    timing = NandTiming(t_r_us=draw(st.sampled_from([3.0, 40.0, 100.0]) | st.floats(0.5, 120)),
                        ch_bus_mbps=draw(st.just(1200.0) | st.floats(100, 4000)),
                        pe_macs=draw(st.sampled_from([16, 64]) | st.integers(1, 256)),
                        pe_level=draw(st.sampled_from(["channel", "die"])))
    params = NspParams(ftl_txn_us=draw(st.sampled_from([0.5, 0.0]) | st.floats(0, 20)))
    return geo, timing, params


@st.composite
def layer_txns(draw, geo):
    dies = draw(st.lists(st.integers(0, geo.n_dies - 1), unique=True, max_size=geo.n_dies))
    return [page_txn(geo, d, draw(st.integers(1, 600)),
                     draw(st.integers(1, geo.page_bytes))) for d in sorted(dies)]


@st.composite
def ffn_cases(draw):
    geo, timing, params = draw(devices())
    txns = draw(layer_txns(geo))
    return txns, timing, geo, draw(st.integers(1, 64)), draw(st.integers(1, 8192)), params


def assert_same_pass(txns, timing, geo, batch, dim_e, params=NspParams(), t_start=0.0):
    """One pass as a one-layer token against the reference."""
    got_events, want_events = EventColumns(), []
    got = simulate_ffn_pass(token_reads([txns], geo), timing, geo, batch, dim_e=dim_e,
                            params=params, trace=got_events, t_start=t_start)
    want = reference_ffn_pass(txns, timing, geo, batch, dim_e=dim_e, params=params,
                              trace=want_events, t_start=t_start)
    assert got.latency_s.hex() == want.latency_s.hex()
    assert got == want and list(got_events) == want_events


@given(ffn_cases(), st.floats(0, 1e-3))
@settings(max_examples=300, deadline=None)
def test_ffn_pass_matches_reference(case, t_start):
    assert_same_pass(*case, t_start=t_start)


@st.composite
def token_cases(draw):
    geo, timing, params = draw(devices())
    token = draw(st.lists(layer_txns(geo), min_size=1, max_size=6))
    return token, timing, geo, draw(st.integers(1, 64)), draw(st.integers(1, 8192)), params


# 6 layers x 3 channels of 16 bus-bound SLC dies with 600 pages each: 18
# rows close at once, 9600 (round, die) slots each, over several chunks
BIG_TOKEN = (
    [[page_txn(SsdGeometry(n_ch=3, chips_per_ch=8, dies_per_chip=2), d, 600, 64)
      for d in range(48)]] * 6,
    NandTiming(t_r_us=3.0, pe_level="channel"),
    SsdGeometry(n_ch=3, chips_per_ch=8, dies_per_chip=2), 1, 4096, NspParams())

# a llama2-7B-like TLC channel token in small: 3 layers x 2 channels of 4
# dies with 60-99 pages each; 13.65 us slots under a 40 us t_R take turns
# bus-bound while 3 or more dies have pages, then the tail is stepped
TLC_GEO = SsdGeometry(n_ch=2, chips_per_ch=4, page_bytes=16384)
TLC_TOKEN = (
    [[page_txn(TLC_GEO, d, 60 + (7 * d + 5 * layer) % 40, 12288) for d in range(8)]
     for layer in range(3)],
    NandTiming(t_r_us=40.0, t_prog_us=650.0, pe_macs=64, pe_level="channel"),
    TLC_GEO, 1, 4096, NspParams())


@given(token_cases(), st.floats(0, 1e-3), st.sampled_from([storage._CHUNK, 64, 7]))
@example(BIG_TOKEN, 0.0, storage._CHUNK)
@example(TLC_TOKEN, 0.0, 64)
@example(TLC_TOKEN, 0.0, 7)
@settings(max_examples=60, deadline=None)
def test_token_matches_reference_layer_by_layer(case, t_start, chunk):
    """A whole token equals the reference pass chained layer by layer: each
    layer starts when the one before ends, and the token's latency and
    useful bytes are the layer values summed in layer order. Small chunks
    split the round-robin closes by rows and by rounds."""
    token, timing, geo, batch, dim_e, params = case
    events = EventColumns()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_CHUNK", chunk)
        got = simulate_ffn_pass(token_reads(token, geo), timing, geo, batch, dim_e=dim_e,
                                params=params, trace=events, t_start=t_start)
    want_events = []
    start, latency, useful, raw, elems = t_start, 0.0, 0.0, 0, 0
    assert len(got.layer_latency_s) == len(token)
    for txns, lat in zip(token, got.layer_latency_s):
        want = reference_ffn_pass(txns, timing, geo, batch, dim_e=dim_e, params=params,
                                  trace=want_events, t_start=start)
        assert lat.hex() == want.latency_s.hex()
        start += want.latency_s
        latency += want.latency_s
        useful += want.useful_bytes
        raw += want.raw_bytes
        elems += want.active_elems
    assert got.latency_s.hex() == latency.hex()
    assert got.useful_bytes.hex() == useful.hex()
    assert (got.raw_bytes, got.active_elems, got.macs) == (raw, elems, elems * batch)
    rows = list(events)
    assert len(rows) == len(events) == len(want_events)
    for g, w in zip(rows, want_events):
        assert g == w and type(g.bytes) is type(w.bytes)


@pytest.mark.parametrize("chips, t_r_us, ch_bus_mbps, pe_macs, ftl_txn_us, elems, path", [
    # elems: (pages, active elements per page) of each die's transaction.
    # 4 dies, SLC: a transfer outlasts t_R, so the bus is the bottleneck once
    # every die has queued a page; the rest closes in one sum
    (4, 3.0, 1200.0, 64, 0.5, [(60, 4096)] * 4, "bus"),
    # 2 dies issued 20 us apart, t_R 100 us: die-bound, stepped to the end
    (2, 100.0, 1200.0, 64, 20.0, [(60, 4096)] * 2, "die"),
    # compute-bound slots of unequal length, summing to less than t_R
    (3, 5.0, 4096.0, 2, 0.5, [(60, 1000), (60, 3000), (60, 4000)], "fallback"),
    # as "bus", but issued 20 us apart: die 0 runs out of pages before die 1
    # is ready, and the bus idles; the row closes only once all have queued
    (4, 3.0, 1200.0, 64, 20.0, [(2, 4096)] + [(60, 4096)] * 3, "late"),
    # mixed: dies 0 and 2 hold the bus 8 us, die 1 only 1 us, under a 5 us
    # t_R. The 40 rounds all three share close; die 1's last 40 pages alone
    # would leave the bus idle, so they are stepped: 1 + 40 steps
    (3, 5.0, 4096.0, 2, 0.5, [(40, 16000), (80, 500), (40, 16000)], "mixed"),
    # slots over t_R, but t_R is below one ulp of the row's times: each
    # pushed ready time is its page's start, and the starts still rise
    # strictly, so the dies take turns and the row closes after one step
    (3, 1e-15, 1200.0, 1, 0.5, [(60, 4096), (60, 8192), (60, 12288)], "ulp"),
    # TLC-like: 13.65 us slots under a 40 us t_R, but 4 dies taking turns
    # hold the bus 54.6 us a round, so the row closes after one step
    (4, 40.0, 300.0, 64, 0.5, [(60, 4096)] * 4, "turns"),
    # uneven tail: the TLC-like turns close while all 4 dies have pages (20
    # rounds after die 0's first page), then dies 0 and 1 take 27.3 us a
    # round, under t_R, and their last 79 pages are stepped: 1 + 79 steps
    (4, 40.0, 300.0, 64, 0.5, [(60, 4096), (60, 4096), (20, 4096), (20, 4096)], "tail"),
])
def test_channel_schedule_paths(monkeypatch, chips, t_r_us, ch_bus_mbps, pe_macs,
                                ftl_txn_us, elems, path):
    """Each way the channel schedule advances is reached and is exact:
    lockstep heap steps, the round-robin close of a row bus-bound to its
    end, and the close of its leading bus-bound rounds."""
    calls = []
    bus_ends = storage._channel_bus_ends

    def spy(*args):
        end, steps, full, by_rounds = bus_ends(*args)
        calls.append((steps, full, by_rounds, len(end)))
        return end, steps, full, by_rounds

    monkeypatch.setattr(storage, "_channel_bus_ends", spy)
    geo = SsdGeometry(n_ch=1, chips_per_ch=chips)
    timing = NandTiming(t_r_us=t_r_us, ch_bus_mbps=ch_bus_mbps, pe_macs=pe_macs,
                        pe_level="channel")
    txns = [page_txn(geo, d, n, e) for d, (n, e) in enumerate(elems)]
    assert_same_pass(txns, timing, geo, 1, 64, NspParams(ftl_txn_us=ftl_txn_us))
    (steps, full, by_rounds, rows), = calls
    pages = sum(n for n, _ in elems)
    assert rows == 1
    if path in ("bus", "late"):
        assert (full, by_rounds) == (1, 0) and 0 < steps < pages // 2
    elif path in ("turns", "ulp"):
        assert (full, by_rounds) == (1, 0) and steps == 1
    elif path in ("mixed", "tail"):
        assert (full, by_rounds) == (0, 1) and steps == {"mixed": 41, "tail": 80}[path]
    else:
        assert (full, by_rounds) == (0, 0) and steps == pages


def heap_bus_end(ready, left, slot, t_r, bcast):
    """One row of a channel schedule table by the per-page heap rule."""
    heap = [(r, d) for d, r in enumerate(ready) if left[d] > 0]
    heapq.heapify(heap)
    left, bus = list(left), 0.0
    while heap:
        r, d = heapq.heappop(heap)
        start = max(bus, r, bcast)
        bus = start + slot[d]
        left[d] -= 1
        if left[d] > 0:
            heapq.heappush(heap, (start + t_r, d))
    return bus


@st.composite
def bus_tables(draw):
    """Schedule tables of a few rows: slots across and far below t_R, tiny
    slots below one ulp of the times among long ones, ready times that tie."""
    n_rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    t_r = draw(st.sampled_from([3e-6, 40e-6, 1e-15]) | st.floats(1e-7, 1e-4))
    cell = st.sampled_from([1e-22, 0.2, 0.3, 1 / 3, 0.5, 1.2, 2.0]) | st.floats(0.01, 1.5)
    slot = np.array(draw(st.lists(cell, min_size=n_rows * width, max_size=n_rows * width)))
    left = np.array(draw(st.lists(st.integers(0, 40), min_size=n_rows * width,
                                  max_size=n_rows * width))).reshape(n_rows, width)
    left[:, 0] = np.maximum(left[:, 0], 1)
    lag = np.array(draw(st.lists(st.sampled_from([0.0, 5e-7, 1e-6, 1.5e-6, 2e-6]),
                                 min_size=n_rows * width, max_size=n_rows * width)))
    ready = np.where(left > 0, t_r + lag.reshape(n_rows, width), np.inf)
    return ready, left, slot.reshape(n_rows, width) * t_r, t_r, draw(st.floats(0, 2e-5))


def one_row(ready, left, slot, t_r, bcast):
    left = np.array([left])
    return (np.where(left > 0, [ready], np.inf), left, np.array([slot]), t_r, bcast)


@given(bus_tables(), st.sampled_from([storage._CHUNK, 64, 7]))
# each row would end differently if the close skipped one of its checks on
# the computed floats: a page late for its turn in a later round ...
@example(one_row([3e-6] * 3, [22, 9, 18], [1e-6] * 3, 3e-6, 1.5e-5), storage._CHUNK)
# ... a 1e-22 s slot that leaves the bus, and so two pushed ready times, tied ...
@example(one_row([40e-6, 40e-6, 41.5e-6, 42e-6, 40e-6, 41.5e-6], [33, 33, 37, 10, 38, 30],
                 [12e-6, 12e-6, 80e-6, 40e-6 / 3, 1e-22, 80e-6], 40e-6, 3.9e-6), storage._CHUNK)
# ... and a die of round 0 ready only after a page its round pushed
@example(one_row([3e-6, 7e-6, 5e-6, 3e-6, 5e-6, 4.5e-6], [6, 35, 7, 24, 11, 15],
                 [0.34e-6, 0.65e-6, 4.4e-6, 3.7e-6, 4.1e-6, 1.5e-6], 3e-6, 2.3e-6), 64)
@settings(max_examples=300, deadline=None)
def test_bus_ends_match_heap(table, chunk):
    """Every row's bus end is the heap loop's, bit for bit, however its
    rounds close."""
    ready, left, slot, t_r, bcast = table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(storage, "_CHUNK", chunk)
        end, _, _, _ = storage._channel_bus_ends(ready, left, slot, t_r, bcast)
    for k in range(len(end)):
        assert end[k].hex() == heap_bus_end(ready[k], left[k], slot[k], t_r, bcast).hex()


def test_tied_ready_times_keep_heap_order():
    """Slots below one ulp of a 3 s t_R make pushed ready times tie; the heap
    then serves the lower die index first, not round-robin, and so must the
    channel schedule."""
    geo = SsdGeometry(n_ch=1, chips_per_ch=3)
    timing = NandTiming(t_r_us=3e6, ch_bus_mbps=1e13, pe_macs=16, pe_clock_ghz=1e8,
                        pe_level="channel")
    txns = [page_txn(geo, 0, 6, 2421), page_txn(geo, 1, 8, 3666), page_txn(geo, 2, 6, 661)]
    assert_same_pass(txns, timing, geo, 8, 64, NspParams(ftl_txn_us=3e-10))


@pytest.mark.parametrize("pe_level", ["die", "channel"])
def test_event_times_past_int64_ns_raise(pe_level):
    """A 1e305 us t_R puts the traced event times past int64 nanoseconds:
    the pass raises NumericError before the cast, and numpy warns of
    nothing on the way."""
    geo = SsdGeometry(n_ch=2, chips_per_ch=2)
    timing = NandTiming(t_r_us=1e305, pe_level=pe_level)
    reads = token_reads([[page_txn(geo, 0, 3, 100), page_txn(geo, 3, 2, 50)]], geo)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="int64 nanoseconds"):
            simulate_ffn_pass(reads, timing, geo, dim_e=64, trace=EventColumns())
