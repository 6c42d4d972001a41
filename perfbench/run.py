"""Benchmark of the slim simulator and decoder, run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: llama-sweep, moe-simulate, train-infer (see workloads.py for why
each was chosen). Every iteration is one fresh `python3 perfbench/child.py`
process that imports slim from ./src, sets up and runs the workload's CLI
commands. Iterations repeat until --seconds have passed (at least one, and
never past a deadline that keeps every run under 180 s). Set-up is also
sampled by set-up-only processes before and after the iterations. Every
figure is the median over its samples.

--trace 0 prints the end-to-end metrics; --trace 1 adds one traced iteration
and prints the per-layer metrics, the per-span table and the tracing
overhead. Before the last line go the environment record, the checks and the
sha256 of every simulated output; the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Work files go to
.perfbench_work/ under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # fixed: BLAS threading spreads set-up and training times
SETUP_PROBES = 21
DEADLINE_S = 150  # every run ends well inside the 180 s a run may take
EVAL_LAYERS = ("storage", "system", "pim")


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return done.stdout.strip() or "unknown"


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, t0: float):
        self.workload, self.seed, self.work, self.t0 = workload, seed, work, t0
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), SLIM_LOG="warning",
                        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                        OMP_NUM_THREADS=str(BLAS_THREADS),
                        MKL_NUM_THREADS=str(BLAS_THREADS))
        self.n = 0

    def child(self, *flags: str) -> dict:
        """Run one child process to completion and return its result, with
        ``setup_s`` measured from the moment it was started."""
        self.n += 1
        result = self.work / f"result-{self.n}.json"
        cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--work", str(self.work / f"iter-{self.n}"), "--result", str(result),
               *flags]
        timeout = max(5.0, DEADLINE_S + 25 - (time.monotonic() - self.t0))
        start = time.monotonic()
        done = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if done.returncode != 0 or not result.exists():
            raise RuntimeError(f"child exited {done.returncode}:\n{done.stderr[-4000:]}")
        doc = json.loads(result.read_text())
        doc["setup_s"] = doc["setup_done"] - start
        return doc


def _end_to_end(iters: list[dict], setups: list[float]) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(it["run_s"] for it in iters), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in iters), "MB"),
    }


def _workload_metrics(workload: str, iters: list[dict]) -> dict:
    """Metrics only one kind of workload has; printed, not in the JSON line."""
    first = iters[0]["checks"]
    if workload == "train-infer":
        decode = [ms for it in iters for ms in it["decode_ms"]]
        return {
            "train_s": (statistics.median(it["cmd_s"]["train"] for it in iters), "s"),
            "decode_ms_p50": (statistics.median(decode), "ms"),
            "decode_ms_p98": (_percentile(decode, 0.98), f"ms (n={len(decode)})"),
            "infer_mse": (first.get("infer_mse"), "-"),
        }
    modeled = first.get("modeled", {})
    return {
        "modeled_tok_per_s": (modeled.get("modeled_tok_per_s"), "tok/s"),
        "modeled_eff_gbps": (modeled.get("modeled_eff_gbps"), "GB/s"),
        "modeled_mj_per_token": (modeled.get("modeled_mj_per_token"), "mJ"),
    }


def _per_layer(traced: dict, untraced_run_s: float, t_dram_share: float):
    """Per-layer metrics of one traced iteration. ``.s`` is summed self CPU
    time of a span name, ``.calls`` its call count."""
    header, rows = spans.load(traced["spans_file"])
    stats = spans.span_stats(rows)
    counters = header["counters"]

    def self_s(name):
        return stats.get(name, {}).get("self_cpu_s", 0.0)

    def total_s(name):
        return stats.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    pages = counters.get("storage.pages_read", 0.0)
    out = {f"{name}.s": (self_s(name), "s") for name in (
        "storage.map_weights", "storage.generate_read_transactions",
        "storage.simulate_ffn_pass", "storage.write_model", "system.evaluate_slim",
        "system.nested_masks", "system.energy_report", "trace.write_ldjson",
        "system.run_baseline", "pim.token_dram_cost", "runner.scenario_rows",
        "runner.write_report", "config.load_scenario", "model.harvest_ffn_inputs",
        "predictor.init_from_svd", "predictor.train", "predictor.build_threshold_table",
        "predictor.predict_mask", "container.write_tensors", "container.read_tensors",
        "numerics.matmul")}
    out["model.decode_step.s"] = (self_s("model.Decoder.decode_step"), "s")
    out.update({
        "storage.map_weights.calls": (calls("storage.map_weights"), "count"),
        "system.evaluate_slim.calls": (calls("system.evaluate_slim"), "count"),
        "model.decode_step.calls": (calls("model.Decoder.decode_step"), "count"),
        "numerics.matmul.calls": (calls("numerics.matmul"), "count"),
        "storage.pages_read": (pages, "count"),
        "storage.ns_per_page": (ratio(self_s("storage.simulate_ffn_pass") * 1e9, pages), "ns"),
        "storage.useful_ratio": (ratio(counters.get("storage.useful_bytes", 0.0),
                                       counters.get("storage.raw_bytes", 0.0)), "ratio"),
        "system.trace_events": (counters.get("system.trace_events", 0.0), "count"),
        "system.evaluate_slim.child_share": (
            spans.child_share(rows, "system.evaluate_slim", EVAL_LAYERS), "ratio"),
        "pim.t_dram_share": (t_dram_share, "ratio"),
        "runner.parallelism": (ratio(total_s("system.evaluate_slim"),
                                     total_s("runner.scenario_rows")), "ratio"),
        "model.kv_rows_stacked": (counters.get("model.kv_rows_stacked", 0.0), "count"),
        "predictor.step_accept_ratio": (ratio(counters.get("predictor.steps_accepted", 0.0),
                                              counters.get("predictor.epochs", 0.0)), "ratio"),
        "traced_run_s": (traced["run_s"], "s"),
        "tracing_overhead_s": (traced["run_s"] - untraced_run_s, "s"),
    })
    return out, stats, counters, header["hook_errors"]


def _check_trace(spec: dict, stats: dict, counters: dict, hook_errors: dict) -> list[str]:
    """A span or counter the workload must record that is missing, or a hook
    that failed, means a probe no longer fits the program: its per-layer
    metrics would read 0 and look like a gain, so the run is incorrect."""
    problems = [f"counter hook for {name} failed: {err}" for name, err in hook_errors.items()]
    problems += [f"traced run recorded no {name} span" for name in spec["spans"]
                 if name not in stats]
    problems += [f"traced run recorded no {name} counter" for name in spec["counters"]
                 if name not in counters]
    return problems


def _check_digests(workload: str, seed: int, src: str, iters: list[dict]) -> list[str]:
    """Outputs of one program and seed must repeat byte for byte: across the
    iterations of this run and against earlier runs recorded in WORK."""
    problems = []
    first = iters[0]["digests"]
    for it in iters[1:]:
        if it["digests"] != first:
            problems.append(f"outputs differ between iterations: {first} vs {it['digests']}")
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{src}:{workload}:{seed}"
    if key in known and known[key] != first:
        problems.append(f"outputs differ from an earlier run of this program and seed: "
                        f"{known[key]} vs {first}")
    known.setdefault(key, first)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t0 = time.monotonic()

    if not (ROOT / "src" / "slim" / "__init__.py").exists():
        print(f"perfbench: no slim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(args.workload, args.seed, work, t0)

    try:
        # set-up probes before and after the iterations, to span the run
        setups = [runner.child("--setup-only")["setup_s"] for _ in range(SETUP_PROBES // 2)]
        iters = []
        while True:
            t_iter = time.monotonic()
            iters.append(runner.child())
            elapsed, last = time.monotonic() - t0, time.monotonic() - t_iter
            # a traced run still needs room for one slower, traced iteration
            if elapsed >= args.seconds or elapsed + last * (1 + 1.5 * args.trace) > DEADLINE_S:
                break
        setups += [runner.child("--setup-only")["setup_s"]
                   for _ in range(SETUP_PROBES - len(setups))]
        traced = runner.child("--trace") if args.trace else None
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups += [it["setup_s"] for it in iters]

    src = _src_digest()
    env = {"commit": _commit(), "src_sha256": src[:16],
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": iters[0]["python"], "numpy": iters[0]["numpy"],
           "blas": iters[0]["blas"], "blas_threads": BLAS_THREADS}
    (work / "env.json").write_text(json.dumps(env, indent=1) + "\n")

    attempted = sum(it["checks"]["attempted"] for it in iters)
    failed = sum(it["checks"]["failed"] for it in iters)
    problems = [p for it in iters for p in it["checks"]["problems"]]
    problems += _check_digests(args.workload, args.seed, src, iters)
    if traced is not None:
        failed += traced["checks"]["failed"]
        attempted += traced["checks"]["attempted"]
        problems += traced["checks"]["problems"]
        if traced["digests"] != iters[0]["digests"]:
            problems.append("traced outputs differ from untraced outputs")

    e2e = _end_to_end(iters, setups)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    if traced is not None:
        t_dram_share = iters[0]["checks"].get("modeled", {}).get("t_dram_share", 0.0)
        layer, stats, counters, hook_errors = _per_layer(traced, e2e["run_s"][0], t_dram_share)
        problems += _check_trace(workloads.WORKLOADS[args.workload], stats, counters,
                                 hook_errors)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layer.items()}

    extra = _workload_metrics(args.workload, iters)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} iterations={len(iters)} setup_samples={len(setups)}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"metric {name} = {value} {unit}")
    print(f"metric error_rate = {failed / attempted if attempted else 1.0} ratio "
          f"({failed}/{attempted})")
    for name, digest in iters[0]["digests"].items():
        print(f"digest {name} sha256={digest}")
    if traced is not None:
        for line in spans.format_table(stats, traced["run_s"]):
            print("span " + line)
        for name, (value, unit) in layer.items():
            print(f"layer {name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"check FAILED: {problem}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
