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
from slim.runner import evaluate_baseline, evaluate_point, point_device, read_token
from slim.system import nested_masks, neuron_ranks

SPARSITIES = (0.0, 0.25, 0.5, 0.75)


def slc_reads(cfg, sparsity):
    """One token's reads on the SLC device at ``sparsity``, shared by the
    die and channel points."""
    masks = nested_masks(neuron_ranks(cfg.model, cfg.seed), sparsity)
    return read_token(cfg, point_device(cfg, "slc", "die")[0], masks)


def headline_table(models, seed):
    print("\n== tokens/s at sparsity 0.5 (SLC NAND, pipelined) vs dense GPU baselines")
    print(f"{'model':>18} {'die':>8} {'channel':>8} {'ssd_gpu':>9} {'dram_gpu':>9} "
          f"{'die/ssd_gpu':>11} {'die/dram_gpu':>12}")
    rows = {}
    for name in models:
        cfg = load_scenario({"model": name, "seed": seed})
        reads = slc_reads(cfg, 0.5)
        die = evaluate_point(cfg, "slc", "die", reads).throughput
        ch = evaluate_point(cfg, "slc", "channel", reads).throughput
        ssd = evaluate_baseline(cfg, "ssd_gpu").throughput
        dram = evaluate_baseline(cfg, "dram_gpu").throughput
        print(f"{name:>18} {die:8.2f} {ch:8.2f} {ssd:9.3f} {dram:9.3f} "
              f"{die / ssd:11.1f} {die / dram:12.2f}")
        rows[name] = {"die": die, "channel": ch, "ssd_gpu": ssd, "dram_gpu": dram}
    return rows


def sparsity_table(name, seed):
    cfg = load_scenario({"model": name, "seed": seed})
    ranks = neuron_ranks(cfg.model, cfg.seed)
    masks = {s: nested_masks(ranks, s) for s in SPARSITIES}
    print(f"\n== {name}: throughput (tok/s) and raw read bandwidth (GB/s) vs sparsity")
    print(f"{'design':>12} " + " ".join(f"{f's={s}':>16}" for s in SPARSITIES))
    rows = {}
    for nand in ("slc", "tlc"):
        # die and channel points of one NAND type read the same pages
        reads = {s: read_token(cfg, point_device(cfg, nand, "die")[0], masks[s])
                 for s in SPARSITIES}
        for level in ("die", "channel"):
            cells = []
            pts = []
            for s in SPARSITIES:
                r = evaluate_point(cfg, nand, level, reads[s])
                bw = r.raw_bytes / r.phases.t_ssd / 1e9
                cells.append(f"{r.throughput:7.2f}/{bw:6.2f}")
                pts.append({"sparsity": s, "tok_per_s": r.throughput, "raw_gbps": bw})
            print(f"{level + '-' + nand:>12} " + " ".join(f"{c:>16}" for c in cells))
            rows[f"{level}-{nand}"] = pts
    return rows


def breakdown_table(models, seed):
    print("\n== per-token breakdown at sparsity 0.5 (die-level SLC; any scheduler)")
    print(f"{'model':>18} {'qkvo%':>7} {'mha%':>7} {'pred%':>7} {'ffn(ssd)%':>10} "
          f"{'energy mJ':>10}")
    rows = {}
    for name in models:
        cfg = load_scenario({"model": name, "seed": seed})
        r = evaluate_point(cfg, "slc", "die", slc_reads(cfg, 0.5))
        total = r.phases.t_dram + r.phases.t_ssd
        shares = {
            "qkvo": r.dram.qkvo.seconds / total,
            "mha": r.dram.mha.seconds / total,
            "pred": r.dram.predict.seconds / total,
            "ffn_ssd": r.phases.t_ssd / total,
        }
        print(f"{name:>18} {shares['qkvo']:7.1%} {shares['mha']:7.1%} "
              f"{shares['pred']:7.1%} {shares['ffn_ssd']:10.1%} "
              f"{r.energy.total * 1e3:10.2f}")
        rows[name] = dict(shares, energy_mj=r.energy.total * 1e3)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="slim_out/trends", help="output directory")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--quick", action="store_true",
                    help="llama2-7B only, no MoE sparsity sweep")
    args = ap.parse_args()

    models = ["llama2_7b_shape"] if args.quick else [
        "llama2_7b_shape", "llama2_13b_shape", "mixtral_8x7b_shape",
        "deepseek_16b_shape"]
    doc = {
        "headline": headline_table(models, args.seed),
        "sparsity_sweep": sparsity_table("llama2_7b_shape", args.seed),
        "breakdown": breakdown_table(models, args.seed),
    }
    if not args.quick:
        doc["sparsity_sweep_moe"] = sparsity_table("deepseek_16b_shape", args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trends.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out / 'trends.json'}")


if __name__ == "__main__":
    main()
