#!/usr/bin/env python3
"""Record one point of the perf trajectory: run perfbench on every workload
and write BENCH_<n>.json, then compare it with the previous BENCH_*.json.

    python3 scripts/bench.py --pr N [--repo DIR]
    python3 scripts/bench.py --against DIR --pairs N --workload W [--seed S]

Each workload runs once per seed of SEEDS (`perfbench/run.py --trace 0
--seconds <BENCHMARK.json run_seconds>`, each run one perfbench median over
its own iterations). The seeds, the run count and the run length are fixed,
so every BENCH file of the trajectory is made the same way and their
digests and medians compare. Per workload the
file records the median, quartiles and IQR over the runs of `setup_s`,
`run_s` and `peak_rss_mb`, the median of every other printed metric (the
modeled tok/s, GB/s and mJ/token of the simulator workloads, train_s and
infer_mse of train-infer), the error rate and the output digests per seed;
at the top it records the commit, the sources' digest, `nproc`, the CPU
model and the boot id of the host.

`--repo` benchmarks another checkout (say, a clone of the parent commit);
the file is still written next to this script's repository root, so every
BENCH file of the trajectory sits in one place. The comparison reads the
BENCH file with the largest number below N and prints each end-to-end
metric's relative change of the median against its bound in
BENCHMARK.json; it refuses a file whose seeds, run count or run length
differ, or whose CPU model or boot id differs: hosts of one nproc, Python
and BLAS can still run every workload at a different speed, so only files
recorded on one host, in one boot, compare. An existing BENCH_N.json is
never overwritten. The exit status is 1 when a run was not correct, a
metric is worse than its bound or the files do not compare, 2 for a bad
argument, else 0.

`--against DIR` measures a change instead of recording a point: it runs
perfbench on workload W N times in DIR (say, a clone of the parent commit)
and N times in this checkout, as N pairs that alternate which side runs
first, with seeds S, S+1, ... (use seeds no development run used). Both
sides of a pair run on the same host under the same load, so pairs
compare where BENCH files recorded at other times may not. Each pair
prints both sides' end-to-end metrics, their ratio (this checkout over
DIR) and whether the output digests are equal; the summary prints per
metric both medians, DIR's interquartile range and the number of pairs
this checkout won. The exit status is 1 when a run was not correct or a
pair's digests differ.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "run_s", "peak_rss_mb")
SEEDS = (1000, 1001, 1002)
HOST = ("cpu_model", "boot_id")


def host() -> dict:
    """The CPU model and boot id of this host (None where /proc lacks them)."""
    def read(path, prefix=""):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            return None
        return next((line.split(":", 1)[-1].strip() for line in lines
                     if line.startswith(prefix)), None)
    return {"cpu_model": read("/proc/cpuinfo", "model name"),
            "boot_id": read("/proc/sys/kernel/random/boot_id")}


def _spread(values: list[float]) -> dict:
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "values": values}


def run_perfbench(repo: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run, parsed from its printed lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=repo, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    env, printed, digests = {}, {}, {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "env":
            # values may hold spaces (the BLAS name), keys never do
            env = dict(re.findall(r"(\w+)=(.*?)(?= \w+=|$)", rest))
        elif kind == "metric":
            name, _, value = rest.partition(" = ")
            printed[name] = float(value.split()[0])
        elif kind == "digest":
            name, _, sha = rest.partition(" sha256=")
            digests[name] = sha
    return {"env": env, "printed": printed, "digests": digests, **json.loads(lines[-1])}


def summarize(runs: dict[int, dict]) -> dict:
    """Per-workload record from its runs, keyed by seed."""
    results = list(runs.values())
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {name: {"unit": results[0]["metrics"][name]["unit"],
                      **_spread([r["metrics"][name]["value"] for r in results])}
               for name in END_TO_END}
    others = sorted(set(results[0]["printed"]) - set(END_TO_END) - {"error_rate"})
    return {
        "seeds": sorted(runs),
        "correct": all(r["correct"] for r in results),
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "printed_medians": {n: statistics.median(r["printed"][n] for r in results)
                            for n in others},
        "digests": {str(seed): r["digests"] for seed, r in runs.items()},
    }


def previous_bench(pr: int) -> Path | None:
    found = {int(m.group(1)): p for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m.group(1)) < pr}
    return found[max(found)] if found else None


def compare(old: dict, new: dict, bounds: dict) -> bool:
    """Print each shared workload's end-to-end changes; False if any metric
    is worse than its bound, or if the two files were not made with the same
    runs, run length and seeds on the same host in the same boot."""
    if any(old.get(key) != new.get(key) for key in HOST):
        print("not comparable: recorded on another host "
              + ", ".join(f"{key} {old.get(key)!r} vs {new.get(key)!r}" for key in HOST))
        return False
    if old["perfbench"] != new["perfbench"]:
        print(f"not comparable: perfbench {old['perfbench']} vs {new['perfbench']}")
        return False
    ok = True
    for workload, rec in new["workloads"].items():
        before = old["workloads"].get(workload)
        if before is None:
            continue
        if before["seeds"] != rec["seeds"]:
            print(f"{workload}: not comparable: seeds {before['seeds']} vs {rec['seeds']}")
            ok = False
            continue
        for name, spec in bounds.items():
            a, b = before["metrics"][name]["median"], rec["metrics"][name]["median"]
            rel = (b - a) / a
            worse = rel > spec["bound"] if spec["better"] == "lower" else -rel > spec["bound"]
            ok &= not worse
            print(f"{workload:13s} {name:12s} {a:10.4g} -> {b:10.4g} {rel:+7.1%} "
                  f"(bound {spec['bound']:.0%}) {'WORSE' if worse else 'ok'}")
    return ok


def alternate(against: Path, pairs: int, workload: str, first_seed: int, seconds: float,
              bounds: dict, run=run_perfbench) -> bool:
    """Run ``pairs`` alternating perfbench pairs of ``against`` and ROOT
    and print them; False if a run was not correct or a pair's output
    digests differ. ``run`` is ``run_perfbench`` or a stand-in with its
    signature."""
    ok, runs = True, {"against": [], "this": []}
    for i in range(pairs):
        seed = first_seed + i
        sides = [("against", against), ("this", ROOT)]
        for side, repo in sides[::-1] if i % 2 else sides:
            runs[side].append(run(repo, workload, seed, seconds))
        old, new = runs["against"][-1], runs["this"][-1]
        same = old["digests"] == new["digests"]
        ok &= old["correct"] and new["correct"] and same
        print(f"pair {i + 1} seed {seed}: " + ", ".join(
            f"{m} {old['metrics'][m]['value']:.4g} -> {new['metrics'][m]['value']:.4g} "
            f"({new['metrics'][m]['value'] / old['metrics'][m]['value']:.3f})"
            for m in END_TO_END) + f"; digests {'equal' if same else 'DIFFER'}", flush=True)
    for m in END_TO_END:
        old, new = ([r["metrics"][m]["value"] for r in runs[side]] for side in ("against", "this"))
        lower = bounds[m]["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        spread = _spread(old)
        print(f"{m:12s} median {spread['median']:.4g} (IQR {spread['iqr']:.4g}) -> "
              f"{statistics.median(new):.4g} "
              f"({statistics.median(new) / spread['median'] - 1:+.1%}), "
              f"this checkout better in {wins}/{pairs} pairs")
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--pr", type=int, help="number n of BENCH_<n>.json")
    p.add_argument("--repo", type=Path, default=ROOT, help="checkout to benchmark")
    p.add_argument("--against", type=Path, help="checkout to run pairs against")
    p.add_argument("--pairs", type=int, default=10, help="number of pairs (with --against)")
    p.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]],
                   help="workload of the pairs (with --against)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair (with --against)")
    args = p.parse_args(argv)
    if args.against is not None:
        if args.workload is None or args.pairs < 1:
            p.error("--against needs --workload and --pairs >= 1")
        return 0 if alternate(args.against, args.pairs, args.workload, args.seed,
                              bench["run_seconds"], bounds) else 1
    if args.pr is None:
        p.error("one of --pr and --against is required")
    out = ROOT / f"BENCH_{args.pr}.json"
    if out.exists():
        p.error(f"{out.name} exists; a BENCH file is written once")
    seconds = bench["run_seconds"]

    workloads, env = {}, {}
    for name in (w["name"] for w in bench["workloads"]):
        runs = {}
        for seed in SEEDS:
            runs[seed] = run_perfbench(args.repo, name, seed, seconds)
            env = runs[seed]["env"]
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {runs[seed]['metrics'][m]['value']:.4g}" for m in END_TO_END), flush=True)
        workloads[name] = summarize(runs)

    record = {"pr": args.pr, "commit": env.get("commit"), "src_sha256": env.get("src_sha256"),
              "nproc": int(env.get("nproc", 0)), "python": env.get("python"),
              "numpy": env.get("numpy"), "blas": env.get("blas"), **host(),
              "perfbench": {"runs": len(SEEDS), "seconds": seconds},
              "workloads": workloads}
    with out.open("x") as f:
        f.write(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")

    ok = all(w["correct"] for w in workloads.values())
    prev = previous_bench(args.pr)
    if prev is not None:
        print(f"against {prev.name}:")
        ok &= compare(json.loads(prev.read_text()), record, bounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
