import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slim.errors import MappingError, ShapeError
from slim.model import ModelConfig
from slim.storage import (
    FusedVectorId,
    NandTiming,
    ReadTransaction,
    SsdGeometry,
    generate_read_transactions,
    map_weights,
    nand_preset,
    simulate_ffn_pass,
    write_model,
)

LLAMA = ModelConfig(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32, seq_len=2048, seed=1)
TOY = ModelConfig(n_dec=2, dim_e=512, dim_h=64, n_heads=4, seq_len=32, seed=1)


def full_masks(cfg, value=True):
    return {e: np.full(cfg.dim_h, value, dtype=bool) for e in range(cfg.n_expert)}


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
        assert layout.n_entries == 3 * 4 * 40
        assert layout.die_of.shape == (layout.n_entries,)

    def test_vector_pages_consecutive_in_one_die(self):
        geo, _ = nand_preset("slc", "die")
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=80, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        loc0 = layout.lookup(FusedVectorId(0, 0, 0))
        loc1 = layout.lookup(FusedVectorId(0, 0, 1))
        assert loc0[7] == 3  # span
        assert (loc0[0], loc0[1], loc0[2]) != (loc1[0], loc1[1], loc1[2])  # round-robin

    def test_round_robin_is_channel_major(self):
        geo = SsdGeometry(n_ch=4, chips_per_ch=2)
        cfg = ModelConfig(n_dec=1, dim_e=2048, dim_h=16, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)  # vector 6144 B -> 2-page span, 8 dies
        chs = [layout.lookup(FusedVectorId(0, 0, j))[0] for j in range(4)]
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
        txns = generate_read_transactions(layout, 0, full_masks(cfg))
        assert sum(len(t.pages) for t in txns) == cfg.dim_h * layout.span_pages
        assert sum(t.useful_bytes for t in txns) == sum(t.total_bytes for t in txns)

    def test_half_mask_half_pages(self):
        geo, _ = nand_preset("slc", "die")
        cfg = ModelConfig(n_dec=1, dim_e=4096, dim_h=128, n_heads=4, seed=0)
        layout = map_weights(cfg, geo)
        mask = np.zeros(cfg.dim_h, dtype=bool)
        mask[::2] = True
        txns = generate_read_transactions(layout, 0, {0: mask})
        assert sum(len(t.pages) for t in txns) == cfg.dim_h // 2 * layout.span_pages
        assert sum(t.useful_bytes for t in txns) == sum(t.total_bytes for t in txns)

    def test_packing_two_alternating_worst_case(self):
        geo = SsdGeometry(page_bytes=4096)
        layout = map_weights(TOY, geo)  # packing 2
        mask = np.zeros(TOY.dim_h, dtype=bool)
        mask[::2] = True  # one active vector in every packed pair
        txns = generate_read_transactions(layout, 0, {0: mask})
        total = sum(t.total_bytes for t in txns)
        useful = sum(t.useful_bytes for t in txns)
        assert sum(len(t.pages) for t in txns) == TOY.dim_h // 2  # every page still read
        assert useful == pytest.approx(total / 2)

    def test_conservation_random_masks(self):
        geo = SsdGeometry(page_bytes=4096)
        layout = map_weights(TOY, geo)
        rng = np.random.default_rng(0)
        for _ in range(20):
            mask = rng.random(TOY.dim_h) < rng.random()
            txns = generate_read_transactions(layout, 1, {0: mask})
            assert sum(t.useful_bytes for t in txns) <= sum(t.total_bytes for t in txns) + 1e-9

    def test_pages_monotone_in_sparsity(self):
        geo, _ = nand_preset("slc", "die")
        layout = map_weights(TOY, geo)
        perm = np.random.default_rng(1).permutation(TOY.dim_h)
        prev = None
        for frac in (1.0, 0.75, 0.5, 0.25):
            mask = np.zeros(TOY.dim_h, dtype=bool)
            mask[perm[: int(frac * TOY.dim_h)]] = True
            pages = sum(len(t.pages) for t in
                        generate_read_transactions(layout, 0, {0: mask}))
            if prev is not None:
                assert pages <= prev
            prev = pages

    def test_mask_shape_checked(self):
        layout = map_weights(TOY, SsdGeometry())
        with pytest.raises(ShapeError):
            generate_read_transactions(layout, 0, {0: np.ones(3, dtype=bool)})


class TestFfnPass:
    def _run(self, nand, level, cfg, mask_frac=1.0, seed=0):
        geo, timing = nand_preset(nand, level)
        layout = map_weights(cfg, geo)
        rng = np.random.default_rng(seed)
        masks = {e: rng.random(cfg.dim_h) < mask_frac for e in range(cfg.n_expert)}
        txns = generate_read_transactions(layout, 0, masks)
        return simulate_ffn_pass(txns, timing, geo, dim_e=cfg.dim_e)

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
            txns = generate_read_transactions(layout, 0, {0: mask})
            lat.append(simulate_ffn_pass(txns, timing, geo, dim_e=cfg.dim_e).latency_s)
        assert all(b <= a + 1e-12 for a, b in zip(lat, lat[1:]))

    def test_deterministic_trace(self):
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=256, n_heads=4, seed=0)
        geo, timing = nand_preset("tlc", "channel")
        layout = map_weights(cfg, geo)
        mask = np.random.default_rng(4).random(cfg.dim_h) < 0.6
        txns = generate_read_transactions(layout, 0, {0: mask})
        t1, t2 = [], []
        r1 = simulate_ffn_pass(txns, timing, geo, dim_e=cfg.dim_e, trace=t1)
        r2 = simulate_ffn_pass(txns, timing, geo, dim_e=cfg.dim_e, trace=t2)
        assert r1 == r2 and t1 == t2 and len(t1) > 0

    def test_batch_scales_compute_not_reads(self):
        cfg = ModelConfig(n_dec=1, dim_e=512, dim_h=256, n_heads=4, seed=0)
        geo, timing = nand_preset("slc", "die")
        layout = map_weights(cfg, geo)
        txns = generate_read_transactions(layout, 0, full_masks(cfg))
        r1 = simulate_ffn_pass(txns, timing, geo, 1, dim_e=cfg.dim_e)
        r8 = simulate_ffn_pass(txns, timing, geo, 8, dim_e=cfg.dim_e)
        assert r8.raw_bytes == r1.raw_bytes
        assert r8.macs == 8 * r1.macs


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
    assert geo.capacity_bytes == 64 * 2 * 1024 * 512 * 4096  # ~256 GB class device
    tgeo, _ = nand_preset("tlc", "die")
    assert tgeo.capacity_bytes == 4 * geo.capacity_bytes  # ~1 TB class device


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
        useful = sum(geo.page_bytes * a / r for a, r in
                     (pages_by_die[die][p] for p in pages))
        ch, chip, d = geo.die_coords(die)
        txns.append(ReadTransaction(die_index=die, ch=ch, chip=chip, die=d,
                                    pages=pages, useful_bytes=useful,
                                    total_bytes=len(pages) * geo.page_bytes,
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
    layer = draw(st.integers(0, cfg.n_dec - 1))
    experts = draw(st.sets(st.integers(0, n_expert - 1)))
    masks = {e: np.array(draw(st.lists(st.booleans(), min_size=cfg.dim_h,
                                       max_size=cfg.dim_h)), dtype=bool)
             for e in experts}
    return cfg, geo, bytes_per_elem, layer, masks


@given(layout_cases())
@settings(max_examples=300, deadline=None)
def test_closed_form_matches_reference(case):
    cfg, geo, bytes_per_elem, layer, masks = case
    try:
        ref = reference_layout(cfg, geo, bytes_per_elem)
    except MappingError:
        with pytest.raises(MappingError):
            map_weights(cfg, geo, bytes_per_elem)
        return
    layout = map_weights(cfg, geo, bytes_per_elem)
    for name in ("die_of", "page_of", "offset_of", "pages_used_per_die"):
        got = getattr(layout, name)
        assert got.dtype == ref[name].dtype and np.array_equal(got, ref[name]), name

    per_plane = geo.blocks_per_plane * geo.pages_per_block
    for layer_i in range(cfg.n_dec):
        for expert in range(cfg.n_expert):
            for j in range(cfg.dim_h):
                i = (layer_i * cfg.n_expert + expert) * cfg.dim_h + j
                p = int(ref["page_of"][i])
                plane, rest = divmod(p, per_plane)
                block, page = divmod(rest, geo.pages_per_block)
                expect = (*geo.die_coords(int(ref["die_of"][i])), plane, block, page,
                          int(ref["offset_of"][i]), ref["span"])
                assert layout.lookup(FusedVectorId(layer_i, expert, j)) == expect

    got = generate_read_transactions(layout, layer, masks)
    want = reference_transactions(ref, cfg, geo, layer, masks)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for name in ("die_index", "ch", "chip", "die", "pages", "useful_bytes",
                     "total_bytes", "active_elems"):
            assert getattr(g, name) == getattr(w, name), name
        assert g.useful_bytes.hex() == w.useful_bytes.hex()
        assert all(type(v) is int for v in (g.die_index, g.ch, g.chip, g.die,
                                            g.total_bytes, g.active_elems, *g.pages))
        assert type(g.useful_bytes) is float
