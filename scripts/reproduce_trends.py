#!/usr/bin/env python3
"""Headline comparison tables for the modeled accelerator.

Produces, on stdout and under --out:
  1. throughput of the die/channel designs (SLC NAND, sparsity 0.5, pipelined)
     against the PCIe-bound GPU baselines, per model shape;
  2. throughput and aggregate read bandwidth versus sparsity for the four
     design points on a selected shape;
  3. per-token latency and energy breakdowns; their shares of t_dram + t_ssd
     and energy per token do not depend on the scheduler, which only sets
     throughput.

Everything is analytic/simulated; only shapes and masks matter, no weights.
"""

import argparse
import json
from pathlib import Path

from slim.config import load_scenario
from slim.runner import DESIGN_POINTS, evaluate_baseline, evaluate_points

SPARSITIES = (0.0, 0.25, 0.5, 0.75)
# the shapes whose sparsity tables are shown; the others show only SLC at 0.5
SWEPT = ("llama2_7b_shape", "deepseek_16b_shape")


def figures(key, r):
    """The figures the tables show of one design point, not its event trace."""
    total = r.phases.t_dram + r.phases.t_ssd
    return {"tok_per_s": r.throughput, "raw_gbps": r.raw_bytes / r.phases.t_ssd / 1e9,
            "qkvo": r.dram["qkvo"].seconds / total, "mha": r.dram["mha"].seconds / total,
            "pred": r.dram["predict"].seconds / total, "ffn_ssd": r.phases.t_ssd / total,
            "energy_mj": r.energy.total * 1e3}


def evaluate_shape(name, seed):
    """The scenario of one preset model shape and the figures of every point
    its tables show, each point evaluated once (``runner.evaluate_points``)."""
    cfg = load_scenario({"model": name, "seed": seed})
    if name in SWEPT:
        return cfg, evaluate_points(cfg, DESIGN_POINTS, SPARSITIES, figures)
    return cfg, evaluate_points(cfg, [("slc", "die"), ("slc", "channel")], [0.5], figures)


def headline_table(shapes):
    print("\n== tokens/s at sparsity 0.5 (SLC NAND, pipelined) vs dense GPU baselines")
    print(f"{'model':>18} {'die':>8} {'channel':>8} {'ssd_gpu':>9} {'dram_gpu':>9} "
          f"{'die/ssd_gpu':>11} {'die/dram_gpu':>12}")
    rows = {}
    for name, (cfg, figs) in shapes.items():
        die = figs[("slc", "die", 0.5)]["tok_per_s"]
        ch = figs[("slc", "channel", 0.5)]["tok_per_s"]
        ssd = evaluate_baseline(cfg, "ssd_gpu").throughput
        dram = evaluate_baseline(cfg, "dram_gpu").throughput
        print(f"{name:>18} {die:8.2f} {ch:8.2f} {ssd:9.3f} {dram:9.3f} "
              f"{die / ssd:11.1f} {die / dram:12.2f}")
        rows[name] = {"die": die, "channel": ch, "ssd_gpu": ssd, "dram_gpu": dram}
    return rows


def sparsity_table(name, figs):
    print(f"\n== {name}: throughput (tok/s) and raw read bandwidth (GB/s) vs sparsity")
    print(f"{'design':>12} " + " ".join(f"{f's={s}':>16}" for s in SPARSITIES))
    rows = {}
    # NAND-major: the SLC rows, then the TLC rows
    for nand, level in sorted(DESIGN_POINTS, key=lambda point: point[0]):
        pts = [{"sparsity": s, "tok_per_s": figs[(nand, level, s)]["tok_per_s"],
                "raw_gbps": figs[(nand, level, s)]["raw_gbps"]} for s in SPARSITIES]
        cells = (f"{p['tok_per_s']:7.2f}/{p['raw_gbps']:6.2f}" for p in pts)
        print(f"{level + '-' + nand:>12} " + " ".join(f"{c:>16}" for c in cells))
        rows[f"{level}-{nand}"] = pts
    return rows


def breakdown_table(shapes):
    print("\n== per-token breakdown at sparsity 0.5 (die-level SLC; any scheduler)")
    print(f"{'model':>18} {'qkvo%':>7} {'mha%':>7} {'pred%':>7} {'ffn(ssd)%':>10} "
          f"{'energy mJ':>10}")
    rows = {}
    for name, (_, figs) in shapes.items():
        p = figs[("slc", "die", 0.5)]
        print(f"{name:>18} {p['qkvo']:7.1%} {p['mha']:7.1%} "
              f"{p['pred']:7.1%} {p['ffn_ssd']:10.1%} {p['energy_mj']:10.2f}")
        rows[name] = {k: p[k] for k in ("qkvo", "mha", "pred", "ffn_ssd", "energy_mj")}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="slim_out/trends", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--quick", action="store_true",
                    help="llama2-7B only, no MoE sparsity sweep")
    args = ap.parse_args(argv)

    models = ["llama2_7b_shape"] if args.quick else [
        "llama2_7b_shape", "llama2_13b_shape", "mixtral_8x7b_shape",
        "deepseek_16b_shape"]
    shapes = {name: evaluate_shape(name, args.seed) for name in models}
    doc = {
        "headline": headline_table(shapes),
        "sparsity_sweep": sparsity_table("llama2_7b_shape", shapes["llama2_7b_shape"][1]),
        "breakdown": breakdown_table(shapes),
    }
    if not args.quick:
        doc["sparsity_sweep_moe"] = sparsity_table("deepseek_16b_shape",
                                                   shapes["deepseek_16b_shape"][1])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trends.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out / 'trends.json'}")


if __name__ == "__main__":
    main()
