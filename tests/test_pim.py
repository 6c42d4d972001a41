import math

import pytest

from slim.errors import ShapeError
from slim.model import ModelConfig
from slim.pim import (
    DDR4_2400,
    BitSerialCostModel,
    DramGeometry,
    bitserial_gemm_cost,
    kv_append_cost,
    layout_cost,
    mha_cost,
    predictor_cost,
    qkvo_cost,
    token_dram_cost,
)

GEO, TIMING = DDR4_2400
CM = BitSerialCostModel()
CLOCK = GEO.clock_ghz * 1e9


def closed_form_gemm_seconds(m, k, n, bits, geo=GEO, timing=TIMING, cm=CM,
                             a_layout=True, b_layout=True):
    """Independent re-derivation of the documented cost formula."""
    if m * k * n == 0:
        return 0.0
    waves = math.ceil(m * k * n / (geo.page_bytes * 8 * geo.total_banks))
    aaps = waves * (cm.c_mul * bits**2 + cm.c_add * 2 * bits)
    secs = aaps * (timing.nras + timing.nrp) / (geo.clock_ghz * 1e9)
    for on, elems in ((a_layout, m * k), (b_layout, k * n)):
        if on:
            secs += math.ceil(elems * bits / (64 * geo.total_banks)) / (geo.clock_ghz * 1e9)
    return secs


class TestGeometry:
    def test_table_preset(self):
        assert GEO.total_banks == 512
        assert GEO.bitline_lanes == 8192 * 8 * 512
        assert TIMING.aap_cycles == 39 + 18


class TestLayout:
    def test_one_cycle_quantum(self):
        n_bytes = 64 * GEO.total_banks / 8
        assert layout_cost(n_bytes, GEO).seconds == pytest.approx(1 / CLOCK)

    def test_linear_in_bytes(self):
        a = layout_cost(1 << 20, GEO).seconds
        b = layout_cost(2 << 20, GEO).seconds
        assert b == pytest.approx(2 * a)

    def test_one_megabyte_is_256_cycles(self):
        cost = layout_cost(1 << 20, GEO)
        assert cost.seconds == pytest.approx(256 / CLOCK)  # ~213 ns
        assert cost.layout_bytes == 1 << 20

    def test_doubling_banks_halves_layout(self):
        big = DramGeometry(n_chips=64)
        assert layout_cost(1 << 20, big).seconds == pytest.approx(
            layout_cost(1 << 20, GEO).seconds / 2)


class TestGemm:
    def test_single_wave_exact(self):
        # work <= lane width: exactly (mul_aaps + add_aaps) * aap_cycles
        cost = bitserial_gemm_cost(1, 64, 64, 8, GEO, TIMING, CM,
                                   include_a_layout=False, include_b_layout=False)
        expected_aaps = CM.mul_aaps(8) + CM.add_aaps(16)
        assert cost.aaps == expected_aaps
        assert cost.seconds == pytest.approx(expected_aaps * TIMING.aap_cycles / CLOCK)

    def test_linear_in_k_beyond_one_wave(self):
        lanes = GEO.bitline_lanes
        base = bitserial_gemm_cost(1, lanes, 4, 8, GEO, TIMING, CM,
                                   include_a_layout=False, include_b_layout=False)
        double = bitserial_gemm_cost(1, 2 * lanes, 4, 8, GEO, TIMING, CM,
                                     include_a_layout=False, include_b_layout=False)
        assert double.aaps == pytest.approx(2 * base.aaps)

    def test_gemv_matches_closed_form_oracle(self):
        got = bitserial_gemm_cost(1, 4096, 512, 8, GEO, TIMING, CM)
        assert got.seconds == pytest.approx(closed_form_gemm_seconds(1, 4096, 512, 8))

    def test_monotone_in_dims_and_bits(self):
        base = bitserial_gemm_cost(2, 512, 512, 8, GEO, TIMING, CM).seconds
        assert bitserial_gemm_cost(2, 512, 1024, 8, GEO, TIMING, CM).seconds >= base
        assert bitserial_gemm_cost(2, 1024, 512, 8, GEO, TIMING, CM).seconds >= base
        assert bitserial_gemm_cost(4, 512, 512, 8, GEO, TIMING, CM).seconds >= base
        assert bitserial_gemm_cost(2, 512, 512, 16, GEO, TIMING, CM).seconds >= base

    def test_more_banks_never_slower(self):
        big = DramGeometry(n_chips=64)
        assert (bitserial_gemm_cost(8, 4096, 4096, 8, big, TIMING, CM).seconds
                <= bitserial_gemm_cost(8, 4096, 4096, 8, GEO, TIMING, CM).seconds)

    def test_degenerate_is_free(self):
        assert bitserial_gemm_cost(1, 0, 128, 8, GEO, TIMING, CM).seconds == 0.0

    def test_negative_dims_rejected(self):
        with pytest.raises(ShapeError):
            bitserial_gemm_cost(1, -1, 4, 8, GEO, TIMING, CM)


class TestMha:
    def test_l1_closed_form(self):
        got = mha_cost(1, 64, 4, 8, GEO, TIMING, CM)
        lanes = GEO.bitline_lanes
        mul = CM.mul_aaps(8) * TIMING.aap_cycles / CLOCK  # one wave per pointwise pass
        score = math.ceil(64 * 8 / (64 * GEO.total_banks)) / CLOCK + mul
        softmax = math.ceil((64 + 4) * 4 / GEO.total_banks) / CLOCK
        output = (math.ceil(4 * 8 / (64 * GEO.total_banks)) / CLOCK + mul
                  + math.ceil((64 + 64) * 4 / GEO.total_banks) / CLOCK)
        assert 64 < lanes  # single wave regime
        assert got["score"].seconds == pytest.approx(score)
        assert got["softmax"].seconds == pytest.approx(softmax)
        assert got["output"].seconds == pytest.approx(output)

    def test_monotone_in_seq_len(self):
        prev = 0.0
        for L in (1, 64, 512, 2048, 4096):
            t = mha_cost(L, 4096, 32, 8, GEO, TIMING, CM)["total"].seconds
            assert t >= prev
            prev = t

    def test_dim_e_doubles_bitserial_terms(self):
        lanes = GEO.bitline_lanes
        L = 64
        a = mha_cost(L, lanes // L, 4, 8, GEO, TIMING, CM)
        b = mha_cost(L, 2 * lanes // L, 4, 8, GEO, TIMING, CM)
        # pointwise work sits exactly at 1 vs 2 waves
        assert b["score"].aaps == pytest.approx(2 * a["score"].aaps)

    def test_additivity(self):
        got = mha_cost(128, 256, 8, 8, GEO, TIMING, CM)
        assert got["total"].seconds == pytest.approx(
            got["score"].seconds + got["softmax"].seconds + got["output"].seconds)

    def test_invalid_seq_len(self):
        with pytest.raises(ShapeError):
            mha_cost(0, 64, 4, 8, GEO, TIMING, CM)


class TestQkvoPredictor:
    def test_qkvo_is_four_projections(self):
        one = bitserial_gemm_cost(1, 4096, 4096, 8, GEO, TIMING, CM,
                                  include_b_layout=False)
        assert qkvo_cost(4096, 8, GEO, TIMING, CM).seconds == pytest.approx(4 * one.seconds)

    def test_zero_rank_costs_compare_only(self):
        cost = predictor_cost(4096, 0, 11008, 8, GEO, TIMING, CM)
        assert cost.aaps == 0
        assert cost.seconds == pytest.approx(
            math.ceil(11008 * CM.compare_cycles_per_elem / GEO.total_banks) / CLOCK)

    def test_predictor_under_10_percent_of_layer_gemms(self):
        # smooth the per-wave quantization with a batched evaluation
        m, dim_e, dim_h, dim_lr = 64, 4096, 11008, 1024
        pred = predictor_cost(dim_e, dim_lr, dim_h, 8, GEO, TIMING, CM, batch=m).seconds
        layer = qkvo_cost(dim_e, 8, GEO, TIMING, CM, batch=m).seconds
        for k, n in ((dim_e, dim_h), (dim_e, dim_h), (dim_h, dim_e)):
            layer += bitserial_gemm_cost(m, k, n, 8, GEO, TIMING, CM,
                                         include_b_layout=False).seconds
        assert pred / layer < 0.10


def test_kv_append_small():
    cost = kv_append_cost(4096, 1, GEO, TIMING)
    assert cost.rw_bytes == 8192
    assert cost.seconds < 1e-6


def test_token_cost_composition():
    """The layer's row: qkvo, the three attention steps, prediction, routing
    and the KV append, each as its own cost."""
    cfg = ModelConfig(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32, seq_len=2048, seed=0)
    row = token_dram_cost(cfg, GEO, TIMING, CM)
    assert row.position == cfg.seq_len
    mha = mha_cost(cfg.seq_len, cfg.dim_e, cfg.n_heads, 8, GEO, TIMING, CM)
    assert (row.score, row.softmax, row.output) == (mha["score"], mha["softmax"], mha["output"])
    assert row.phases()["mha"] == mha["total"]
    assert row.qkvo == qkvo_cost(cfg.dim_e, 8, GEO, TIMING, CM)
    assert list(row.phases()) == ["qkvo", "mha", "predict", "router", "kv"]
    assert sum(c.seconds for c in row.phases().values()) == pytest.approx(
        row.qkvo.seconds + row.score.seconds + row.softmax.seconds + row.output.seconds
        + row.predict.seconds + row.router.seconds + row.kv.seconds)
    assert row.router.seconds == 0.0  # single-expert model
    moe = ModelConfig(n_dec=4, dim_e=256, dim_h=512, n_heads=4, n_expert=8,
                      top_k=2, seq_len=128, seed=0)
    row_moe = token_dram_cost(moe, GEO, TIMING, CM)
    assert row_moe.router.seconds > 0.0
    # prediction runs once per activated expert
    single = token_dram_cost(
        ModelConfig(n_dec=4, dim_e=256, dim_h=512, n_heads=4, n_expert=8,
                    top_k=1, seq_len=128, seed=0), GEO, TIMING, CM)
    assert row_moe.predict.seconds == pytest.approx(2 * single.predict.seconds)


def test_dram_token_time_below_dense_ssd_ffn_time():
    """Llama2-7B-shaped sanity: the DRAM phase stays below the die-level SLC
    FFN phase at sparsity 0, so the SSD side dominates the pipeline."""
    cfg = ModelConfig(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32, seq_len=2048, seed=0)
    row = token_dram_cost(cfg, GEO, TIMING, CM)
    t_dram = cfg.n_dec * sum(c.seconds for c in row.phases().values())
    ffn_bytes = cfg.n_dec * 3 * cfg.dim_e * cfg.dim_h
    dense_ssd = ffn_bytes / (64 * 4096 / 3e-6)
    assert t_dram < dense_ssd
