"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as they
pass. Paper-anchored numbers (device bandwidth arithmetic, end-to-end ratio
bands) use the Llama2-7B-shaped configuration; everything else runs at toy
scale inside the stated runtime budgets.
"""

import time

import numpy as np
import pytest

from oracles import measured_sparsity
from slim.config import load_scenario
from slim.model import (
    Decoder,
    ModelConfig,
    ffn_forward,
    harvest_ffn_inputs,
    synth_layers,
)
from slim.numerics import silu
from slim.pim import DDR4_2400, BitSerialCostModel, token_dram_cost
from slim.predictor import (
    Predictor,
    build_threshold_table,
    init_from_svd,
    loss_gradients,
    predict_mask,
    reconstruction_loss,
    train,
)
from slim.runner import scenario_rows, write_report
from slim.storage import generate_read_transactions, map_weights, nand_preset
from slim.system import (
    PhaseTimes,
    baseline_preset,
    evaluate_slim,
    nested_masks,
    neuron_ranks,
    run_baseline,
    run_pipelined,
    run_sequential,
)

DRAM_GEO, DRAM_TIMING = DDR4_2400
COST = BitSerialCostModel()
SSD = nand_preset("slc", "die")  # the device the GPU baselines sit next to
LLAMA = ModelConfig(n_dec=32, dim_e=4096, dim_h=11008, n_heads=32, seq_len=2048, seed=7)
SPARSITY_GRID = (0.0, 0.25, 0.5, 0.75)


def check(ok: bool, label: str, detail: str):
    print(f"[{label}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def llama_sweep():
    """All four design points over the sparsity grid, shared across criteria."""
    ranks = neuron_ranks(LLAMA, 7)
    dram = token_dram_cost(LLAMA, DRAM_GEO, DRAM_TIMING, COST)
    out = {}
    for nand in ("slc", "tlc"):
        geo = nand_preset(nand, "die")[0]  # both PE levels read the same pages
        for s in SPARSITY_GRID:
            reads = generate_read_transactions(map_weights(LLAMA, geo),
                                               nested_masks(ranks, s))
            for level in ("die", "channel"):
                out[(nand, level, s)] = evaluate_slim(
                    LLAMA, nand_preset(nand, level)[1], dram, reads,
                    scheduler="pipelined")
    return out


def test_criterion_1_masked_ffn_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(101)
    dim_e, dim_h = 64, 256
    worst = 0.0
    ones_equal = True
    for _ in range(200):
        w_g = rng.standard_normal((dim_h, dim_e)) / np.sqrt(dim_e)
        w_u = rng.standard_normal((dim_h, dim_e)) / np.sqrt(dim_e)
        w_d = rng.standard_normal((dim_e, dim_h)) / np.sqrt(dim_h)
        x = rng.standard_normal((3, dim_e))
        mask = rng.random(dim_h) < rng.uniform(0.05, 0.95)
        hidden = silu(x @ w_g.T) * (x @ w_u.T)
        hidden[:, ~mask] = 0.0
        oracle = hidden @ w_d.T
        w_down = w_d.T.copy()
        got = ffn_forward(x, w_g, w_u, w_down, mask)
        worst = max(worst, float(np.max(np.abs(got - oracle))))
        ones = ffn_forward(x, w_g, w_u, w_down, np.ones(dim_h, dtype=bool))
        ones_equal &= np.array_equal(ones, ffn_forward(x, w_g, w_u, w_down))
    dt = time.time() - t0
    check(worst <= 1e-12 and ones_equal and dt < 10.0, "criterion 1",
          f"masked-FFN equals zero-out oracle on 200 instances "
          f"(max diff {worst:.2e}), all-true mask equals dense bitwise "
          f"({dt:.1f}s)")


def test_criterion_2_predictor_optimality_and_gradients():
    rng = np.random.default_rng(102)
    # full-rank init reaches the Eq-style reconstruction optimum
    worst_loss = 0.0
    for _ in range(5):
        dim_e, dim_h = int(rng.integers(8, 24)), int(rng.integers(8, 24))
        w_g = rng.standard_normal((dim_h, dim_e))
        p = init_from_svd(w_g, min(dim_e, dim_h))
        x = rng.standard_normal((10, dim_e))
        worst_loss = max(worst_loss, reconstruction_loss(p, x, w_g))
    # analytic gradient vs central finite differences on 20 small instances
    worst_rel = 0.0
    eps = 1e-6
    for _ in range(20):
        dim_e, dim_h, r = 6, 8, 3
        w_g = rng.standard_normal((dim_h, dim_e))
        p = Predictor(l=rng.standard_normal((dim_e, r)), r=rng.standard_normal((r, dim_h)))
        x = rng.standard_normal((5, dim_e))
        gl, gr = loss_gradients(p, x, w_g)
        for which, base, grad in (("l", p.l, gl), ("r", p.r, gr)):
            num = np.zeros_like(base)
            for i in range(base.shape[0]):
                for j in range(base.shape[1]):
                    hi, lo = base.copy(), base.copy()
                    hi[i, j] += eps
                    lo[i, j] -= eps
                    ph = Predictor(l=hi, r=p.r) if which == "l" else Predictor(l=p.l, r=hi)
                    pl = Predictor(l=lo, r=p.r) if which == "l" else Predictor(l=p.l, r=lo)
                    num[i, j] = (reconstruction_loss(ph, x, w_g)
                                 - reconstruction_loss(pl, x, w_g)) / (2 * eps)
            worst_rel = max(worst_rel, float(np.max(np.abs(grad - num))
                                             / np.max(np.abs(grad))))
    check(worst_loss < 1e-9 and worst_rel < 1e-5, "criterion 2",
          f"full-rank init loss {worst_loss:.2e} < 1e-9; "
          f"gradient vs finite differences rel err {worst_rel:.2e} < 1e-5")


def test_criterion_3_threshold_semantics():
    t0 = time.time()
    rng = np.random.default_rng(103)
    # mask nesting over 1000 random (predictor, threshold pair) draws
    nested_ok = True
    for _ in range(1000):
        p = Predictor(l=rng.standard_normal((10, 3)), r=rng.standard_normal((3, 16)))
        x = rng.standard_normal(10)
        t1, t2 = sorted(rng.uniform(0, 3, size=2))
        m_lo, m_hi = predict_mask(p, x, t1), predict_mask(p, x, t2)
        nested_ok &= bool(np.all(~m_hi | m_lo))
        nested_ok &= measured_sparsity(m_hi) >= measured_sparsity(m_lo)

    # calibration consistency and output-degradation trend at toy scale
    cfg = ModelConfig(n_dec=2, dim_e=64, dim_h=256, n_heads=4, seq_len=128, seed=11)
    dec, layers = Decoder(cfg), list(synth_layers(cfg))
    calib = [x for _, _, x in harvest_ffn_inputs(dec, layers, 48, seed=12)]
    evalset = [x for _, _, x in harvest_ffn_inputs(dec, layers, 16, seed=13)]
    targets = (0.0, 0.2, 0.4, 0.6)
    calib_ok = True
    mses = []
    for t in targets:
        total = 0.0
        for li, lw in enumerate(layers[1::2]):  # each layer's FFN half
            p = init_from_svd(lw.w_g[0], 16)
            p, _ = train(p, calib[li], lw.w_g[0], epochs=30, lr=1e-3)
            table = build_threshold_table(p, calib[li], targets)
            thr = table.threshold_for(t)
            n_scores = calib[li].shape[0] * cfg.dim_h
            got = measured_sparsity(predict_mask(p, calib[li], thr))
            calib_ok &= abs(got - t) <= 1.0 / n_scores + 1e-12
            dense = ffn_forward(evalset[li], lw.w_g[0], lw.w_u[0], lw.w_down[0])
            for row in range(evalset[li].shape[0]):
                mask = predict_mask(p, evalset[li][row], thr)
                got_row = ffn_forward(evalset[li][row:row + 1], lw.w_g[0],
                                      lw.w_u[0], lw.w_down[0], mask)
                total += float(np.mean((got_row - dense[row:row + 1]) ** 2))
        mses.append(total)
    monotone = all(b >= a - 1e-15 for a, b in zip(mses, mses[1:]))
    dt = time.time() - t0
    check(nested_ok and calib_ok and monotone and dt < 60.0, "criterion 3",
          f"nesting on 1000 draws, calibration sparsity within 1/n, "
          f"MSE trend {['%.2e' % m for m in mses]} ({dt:.1f}s)")


def test_criterion_4_bandwidth_arithmetic(llama_sweep):
    raw = {k: r.raw_bytes / r.phases.t_ssd / 1e9 for k, r in llama_sweep.items()}
    die_slc = raw[("slc", "die", 0.0)]
    die_tlc = raw[("tlc", "die", 0.0)]
    ch_slc = raw[("slc", "channel", 0.0)]
    peak = 64 * 4096 / 3e-6 / 1e9  # dies x page/t_R = 87.38 GB/s
    ratio = die_tlc / die_slc
    ok = (abs(die_slc - peak) / peak < 0.05
          and abs(ch_slc - 19.2) / 19.2 < 0.01
          and 0.28 <= ratio <= 0.32
          and ch_slc > 8.0 and die_slc > 32.0)
    check(ok, "criterion 4",
          f"die-SLC {die_slc:.1f} GB/s (peak {peak:.1f}), channel {ch_slc:.2f} "
          f"GB/s (cap 19.2), TLC/SLC {ratio:.3f} in [0.28, 0.32], "
          f"channel > 8 and die-SLC > 32 GB/s")


def pipeline_speedup_bound(phases: PhaseTimes) -> float:
    """Ideal steady-state speedup of 2-stream pipelining over sequential."""
    return (phases.t_dram + phases.t_ssd) / max(phases.t_dram, phases.t_ssd)


def test_criterion_5_pipelining_formula():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        td, ts = rng.uniform(1e-4, 5e-2, size=2)
        phases = PhaseTimes(td, ts)
        lat_p, _ = run_pipelined(phases, 100)
        lat_s, _ = run_sequential(phases, 100)
        ideal = pipeline_speedup_bound(phases)
        worst = max(worst, abs(lat_s / lat_p - ideal) / ideal)
    check(worst < 0.05, "criterion 5",
          f"100-token speedup within 5% of (td+ts)/max(td,ts) over 50 draws "
          f"(worst {worst:.3%})")


def test_criterion_6_end_to_end_ratio_bands(llama_sweep):
    t0 = time.time()
    slim = llama_sweep[("slc", "die", 0.5)]
    ssd_gpu = run_baseline(baseline_preset("ssd_gpu", *SSD), LLAMA, 0.0)
    dram_gpu = run_baseline(baseline_preset("dram_gpu", *SSD), LLAMA, 0.0)
    r_ssd = slim.throughput / ssd_gpu.throughput
    r_dram = slim.throughput / dram_gpu.throughput
    dt = time.time() - t0
    check(10.0 <= r_ssd <= 20.0 and 3.0 <= r_dram <= 6.0 and dt < 300.0,
          "criterion 6",
          f"die-SLC@0.5 {slim.throughput:.1f} tok/s: {r_ssd:.1f}x over SSD-GPU "
          f"(band [10, 20]), {r_dram:.2f}x over DRAM-GPU (band [3, 6])")


def test_criterion_7_sweep_trends(llama_sweep):
    trend_ok = True
    for nand in ("slc", "tlc"):
        for level in ("die", "channel"):
            tputs = [llama_sweep[(nand, level, s)].throughput for s in SPARSITY_GRID]
            effs = [llama_sweep[(nand, level, s)].useful_bytes
                    / llama_sweep[(nand, level, s)].phases.t_ssd for s in SPARSITY_GRID]
            trend_ok &= all(b >= a - 1e-9 for a, b in zip(tputs, tputs[1:]))
            trend_ok &= all(b <= a + 1e-9 for a, b in zip(effs, effs[1:]))

    # prediction overhead on the large-embedding shapes, pipelining disabled
    shapes = {
        "llama2_7b": LLAMA,
        "llama2_13b": ModelConfig(n_dec=40, dim_e=5120, dim_h=13824, n_heads=40,
                                  seq_len=2048, seed=7),
        "mixtral_8x7b": ModelConfig(n_dec=32, dim_e=4096, dim_h=14336, n_heads=32,
                                    n_expert=8, top_k=2, seq_len=2048, seed=7),
    }
    geo, timing = nand_preset("slc", "die")
    worst_share = 0.0
    for cfg in shapes.values():
        for s in (0.0, 0.25, 0.5):
            reads = generate_read_transactions(
                map_weights(cfg, geo), nested_masks(neuron_ranks(cfg, 7), s))
            res = evaluate_slim(cfg, timing, token_dram_cost(cfg, DRAM_GEO, DRAM_TIMING, COST),
                                reads, scheduler="sequential")
            share = res.dram["predict"].seconds / (res.phases.t_dram + res.phases.t_ssd)
            worst_share = max(worst_share, share)
    check(trend_ok and worst_share < 0.10, "criterion 7",
          f"throughput/eff-bandwidth monotone on 4 design points; prediction "
          f"share max {worst_share:.1%} < 10% for dim_e >= 4096 shapes")


def test_criterion_8_conservation_and_determinism(tmp_path, llama_sweep):
    # energy ledger conservation, bit-exact, on every evaluated point
    ledger_ok = all(r.energy.total == sum(r.energy.components.values())
                    for r in llama_sweep.values())

    # identical seeds produce byte-identical reports
    cfg = load_scenario({"model": "toy", "seed": 9, "sparsity_targets": [0.0, 0.5]})
    csv1, json1 = write_report(scenario_rows(cfg, sweep=True), tmp_path / "r1")
    csv2, json2 = write_report(scenario_rows(cfg, sweep=True), tmp_path / "r2")
    bytes_ok = (csv1.read_bytes() == csv2.read_bytes()
                and json1.read_bytes() == json2.read_bytes())

    # the layout gives exactly N_dec * n_expert * dim_h distinct addresses
    moe = ModelConfig(n_dec=3, dim_e=256, dim_h=96, n_heads=4, n_expert=5,
                      top_k=2, seq_len=16, seed=0)
    geo, _ = nand_preset("slc", "die")
    counts_ok = True
    for model in (moe, ModelConfig(n_dec=2, dim_e=512, dim_h=64, n_heads=4, seed=0)):
        layout = map_weights(model, geo)
        expect = model.n_dec * model.n_expert * model.dim_h
        flat = np.arange(expect)
        placed = layout.place(flat // model.dim_h, flat % model.dim_h)
        counts_ok &= len(set(zip(*(a.tolist() for a in placed)))) == expect
    check(ledger_ok and bytes_ok and counts_ok, "criterion 8",
          "ledger total == component sum bit-exactly; byte-identical reports "
          "for identical seeds; LPA entries == N_dec*n_expert*dim_h")
