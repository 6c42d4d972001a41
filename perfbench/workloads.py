"""The three benchmark workloads: the scenario document each one runs, the CLI
commands it runs, and the checks on what those commands write.

Why these workloads:

llama-sweep   `slim sweep` of the llama2-7B shape (the document in
              configs/llama2_7b.json, with the workload seed). A dense FFN of
              11008 neurons packs one fused vector per page, so host time goes
              to the per-neuron loops of the weight layout and the read
              transactions, and the channel-level points drive the event heap
              over up to ~1M simulated pages. Every page read is fully useful.
moe-simulate  `slim simulate` of the deepseek-16B MoE shape, die-level TLC,
              with a trace. 64 experts with top-8 routing make the layout 8x
              larger than any pass reads; TLC pages hold two fused vectors, so
              useful bytes drop below raw bytes as sparsity rises. The only
              workload that writes a trace.
train-infer   `slim train` then `slim infer` on a small dense decoder: only
              the functional half (predictor SVD, training, thresholds, and
              512 single-token decode steps). Simulator changes should leave
              it unchanged; decoder and predictor changes should leave the
              other two unchanged.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

SPARSITY = [0.0, 0.25, 0.5, 0.75]
BASELINES = ["ssd_gpu", "dram_gpu"]
TRAIN_TARGETS = [0.0, 0.2, 0.4, 0.6]
# measured sparsity on held-out tokens may sit this far from the calibrated target
SPARSITY_TOLERANCE = 0.1
# report columns are rounded to 6 significant digits
REPORT_REL_ROUNDING = 5e-6

# a traced simulator iteration records all of these
SIM_SPANS = ("config.load_scenario", "runner.scenario_rows", "runner.write_report",
             "system.evaluate_slim", "system.nested_masks", "system.energy_report",
             "system.run_baseline", "storage.map_weights",
             "storage.generate_read_transactions", "storage.simulate_ffn_pass",
             "storage.write_model", "pim.token_dram_cost")
SIM_COUNTERS = ("storage.pages_read", "storage.raw_bytes", "storage.useful_bytes",
                "system.trace_events")

# "outputs" are the files whose bytes must repeat exactly for a fixed seed;
# "spans" and "counters" must all appear in a traced iteration: one that is
# missing means a probe no longer fits the program, not that work vanished
WORKLOADS = {
    "llama-sweep": {
        "commands": ["sweep"],
        "outputs": ["report.json"],
        "points": [(level, nand) for level in ("die", "channel") for nand in ("slc", "tlc")],
        "headline": ("die", "slc", 0.5),
        "spans": SIM_SPANS,
        "counters": SIM_COUNTERS,
    },
    "moe-simulate": {
        "commands": ["simulate"],
        "outputs": ["report.json", "trace.ldjson"],
        "points": [("die", "tlc")],
        "headline": ("die", "tlc", 0.5),
        "spans": SIM_SPANS + ("trace.write_ldjson",),
        "counters": SIM_COUNTERS,
    },
    "train-infer": {
        "commands": ["train", "infer"],
        "outputs": ["infer_report.json"],
        "spans": ("config.load_scenario", "model.harvest_ffn_inputs",
                  "predictor.init_from_svd", "predictor.train",
                  "predictor.build_threshold_table", "predictor.predict_mask",
                  "container.write_tensors", "container.read_tensors", "numerics.matmul",
                  "model.Decoder.decode_step", "model.KVCache.stacked"),
        "counters": ("model.kv_rows_stacked", "predictor.steps_accepted", "predictor.epochs"),
    },
}


def config_doc(workload: str, seed: int) -> dict:
    """The scenario document a workload runs; the seed is its only input."""
    if workload == "llama-sweep":
        return {"model": "llama2_7b_shape", "nand": "slc", "pe_level": "die",
                "dram": "ddr4_2400", "sparsity_targets": SPARSITY,
                "scheduler": "pipelined", "baselines": BASELINES, "seed": seed}
    if workload == "moe-simulate":
        return {"model": "deepseek_16b_shape", "nand": "tlc", "pe_level": "die",
                "dram": "ddr4_2400", "sparsity_targets": SPARSITY,
                "scheduler": "pipelined", "baselines": BASELINES, "seed": seed,
                "emit_trace": True}
    if workload == "train-infer":
        return {"model": {"n_dec": 8, "dim_e": 256, "dim_h": 1024, "n_heads": 8,
                          "seq_len": 256},
                "train": {"calib_tokens": 128, "eval_tokens": 64,
                          "targets": TRAIN_TARGETS},
                "seed": seed}
    raise KeyError(f"unknown workload {workload!r}")


def _row_ok(row: dict) -> str | None:
    if not row["raw_gbps"] >= row["eff_gbps"]:
        return f"raw_gbps {row['raw_gbps']} < eff_gbps {row['eff_gbps']}"
    parts = [v for k, v in row.items()
             if k.startswith("energy_") and k.endswith("_mj")]
    total = row["energy_mj_per_token"]
    tol = REPORT_REL_ROUNDING * (abs(total) + sum(abs(v) for v in parts)) + 1e-12
    if abs(sum(parts) - total) > tol:
        return f"energy components sum to {sum(parts)}, total is {total}"
    return None


def check_simulation(workload: str, out: Path, rcs: dict) -> dict:
    """One operation per expected report row (plus the trace file when one is
    expected). A failed command fails every operation it should have produced."""
    spec = WORKLOADS[workload]
    expected = {(level, nand, s) for level, nand in spec["points"] for s in SPARSITY}
    expected |= {(kind, "-", 0.0) for kind in BASELINES}
    wants_trace = "trace.ldjson" in spec["outputs"]
    attempted = len(expected) + wants_trace
    problems = [f"slim {cmd} exited {rc}" for cmd, rc in rcs.items() if rc != 0]
    if problems:
        return {"attempted": attempted, "failed": attempted, "problems": problems}

    rows = json.loads((out / "report.json").read_text())
    seen, good, extra = set(), set(), 0
    for row in rows:
        key = (row["design_level"], row["nand"], row["sparsity"])
        if key not in expected or key in seen:
            problems.append(f"unexpected row {key}")
            extra += 1
        elif bad := _row_ok(row):
            problems.append(f"row {key}: {bad}")
        else:
            good.add(key)
        seen.add(key)
    problems += [f"missing row {key}" for key in sorted(expected - seen, key=str)]
    failed = len(expected - good) + extra
    if wants_trace:
        trace = out / "trace.ldjson"
        if not trace.exists() or trace.stat().st_size == 0:
            problems.append("trace.ldjson missing or empty")
            failed += 1

    level, nand, s = spec["headline"]
    head = next((r for r in rows if (r["design_level"], r["nand"], r["sparsity"])
                 == (level, nand, s)), None)
    modeled = {}
    if head is not None:
        modeled = {
            "modeled_tok_per_s": head["tok_per_s"],
            "modeled_eff_gbps": head["eff_gbps"],
            "modeled_mj_per_token": head["energy_mj_per_token"],
            "t_dram_share": head["t_dram_ms"] / (head["t_dram_ms"] + head["t_ssd_ms"]),
        }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "modeled": modeled}


def check_train_infer(out: Path, rcs: dict) -> dict:
    """One operation for `train`, one per calibrated target for `infer`."""
    attempted = 1 + len(TRAIN_TARGETS)
    failed = 0
    problems = []

    train_ok = rcs.get("train") == 0 and all(
        (out / name).exists()
        for name in ("predictor.slimwt", "thresholds.json", "train_summary.json"))
    if not train_ok:
        problems.append(f"slim train exited {rcs.get('train')} or left no artifacts")
        failed += 1
    if rcs.get("infer") != 0:
        problems.append(f"slim infer exited {rcs.get('infer')}")
        return {"attempted": attempted, "failed": failed + len(TRAIN_TARGETS),
                "problems": problems}

    entries = json.loads((out / "infer_report.json").read_text())["targets"]
    by_target = {e["target_sparsity"]: e for e in entries}
    prev_mse = -math.inf
    for target in TRAIN_TARGETS:
        e = by_target.get(target)
        if e is None:
            problems.append(f"no infer entry for target {target}")
            failed += 1
            continue
        mse, sparsity = e["output_mse"], e["measured_sparsity"]
        if not math.isfinite(mse) or mse < prev_mse:
            problems.append(f"target {target}: mse {mse} not finite or below {prev_mse}")
            failed += 1
        elif abs(sparsity - target) > SPARSITY_TOLERANCE:
            problems.append(f"target {target}: measured sparsity {sparsity:.3f}")
            failed += 1
        if math.isfinite(mse):
            prev_mse = max(prev_mse, mse)
    top = by_target.get(max(TRAIN_TARGETS))
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "infer_mse": top["output_mse"] if top else None}
