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
import functools
import json
from pathlib import Path

from slim.config import load_scenario
from slim.runner import evaluate_baseline, evaluate_point, point_device, read_token
from slim.system import nested_masks, neuron_ranks

SPARSITIES = (0.0, 0.25, 0.5, 0.75)


class DesignPoints:
    """The design points of the preset model shapes at one seed. Each point
    is evaluated once, however many tables show it, and only the figures
    the tables show are kept, not its event trace. Each model's neuron
    order is drawn once, and the token is read once per NAND type and
    sparsity, since the die and channel points of one NAND type read the
    same pages. A table asks for at most four reads before it has evaluated
    every point on them, so only the last four reads are kept."""

    def __init__(self, seed):
        self.seed = seed
        self.scenario = functools.cache(self._scenario)
        self._reads = functools.lru_cache(maxsize=4)(self._read)
        self.figures = functools.cache(self._figures)

    def _scenario(self, name):
        cfg = load_scenario({"model": name, "seed": self.seed})
        return cfg, neuron_ranks(cfg.model, cfg.seed)

    def _read(self, name, nand, sparsity):
        cfg, ranks = self.scenario(name)
        return read_token(cfg, point_device(cfg, nand, "die")[0], nested_masks(ranks, sparsity))

    def _figures(self, name, nand, level, sparsity):
        cfg, _ = self.scenario(name)
        r = evaluate_point(cfg, nand, level, self._reads(name, nand, sparsity))
        total = r.phases.t_dram + r.phases.t_ssd
        return {"tok_per_s": r.throughput, "raw_gbps": r.raw_bytes / r.phases.t_ssd / 1e9,
                "qkvo": r.dram.qkvo.seconds / total, "mha": r.dram.mha.seconds / total,
                "pred": r.dram.predict.seconds / total, "ffn_ssd": r.phases.t_ssd / total,
                "energy_mj": r.energy.total * 1e3}


def headline_table(models, points):
    print("\n== tokens/s at sparsity 0.5 (SLC NAND, pipelined) vs dense GPU baselines")
    print(f"{'model':>18} {'die':>8} {'channel':>8} {'ssd_gpu':>9} {'dram_gpu':>9} "
          f"{'die/ssd_gpu':>11} {'die/dram_gpu':>12}")
    rows = {}
    for name in models:
        cfg, _ = points.scenario(name)
        die = points.figures(name, "slc", "die", 0.5)["tok_per_s"]
        ch = points.figures(name, "slc", "channel", 0.5)["tok_per_s"]
        ssd = evaluate_baseline(cfg, "ssd_gpu").throughput
        dram = evaluate_baseline(cfg, "dram_gpu").throughput
        print(f"{name:>18} {die:8.2f} {ch:8.2f} {ssd:9.3f} {dram:9.3f} "
              f"{die / ssd:11.1f} {die / dram:12.2f}")
        rows[name] = {"die": die, "channel": ch, "ssd_gpu": ssd, "dram_gpu": dram}
    return rows


def sparsity_table(name, points):
    print(f"\n== {name}: throughput (tok/s) and raw read bandwidth (GB/s) vs sparsity")
    print(f"{'design':>12} " + " ".join(f"{f's={s}':>16}" for s in SPARSITIES))
    rows = {}
    for nand in ("slc", "tlc"):
        for level in ("die", "channel"):
            cells = []
            pts = []
            for s in SPARSITIES:
                p = points.figures(name, nand, level, s)
                cells.append(f"{p['tok_per_s']:7.2f}/{p['raw_gbps']:6.2f}")
                pts.append({"sparsity": s, "tok_per_s": p["tok_per_s"],
                            "raw_gbps": p["raw_gbps"]})
            print(f"{level + '-' + nand:>12} " + " ".join(f"{c:>16}" for c in cells))
            rows[f"{level}-{nand}"] = pts
    return rows


def breakdown_table(models, points):
    print("\n== per-token breakdown at sparsity 0.5 (die-level SLC; any scheduler)")
    print(f"{'model':>18} {'qkvo%':>7} {'mha%':>7} {'pred%':>7} {'ffn(ssd)%':>10} "
          f"{'energy mJ':>10}")
    rows = {}
    for name in models:
        p = points.figures(name, "slc", "die", 0.5)
        print(f"{name:>18} {p['qkvo']:7.1%} {p['mha']:7.1%} "
              f"{p['pred']:7.1%} {p['ffn_ssd']:10.1%} {p['energy_mj']:10.2f}")
        rows[name] = {k: p[k] for k in ("qkvo", "mha", "pred", "ffn_ssd", "energy_mj")}
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
    points = DesignPoints(args.seed)
    doc = {
        "headline": headline_table(models, points),
        "sparsity_sweep": sparsity_table("llama2_7b_shape", points),
        "breakdown": breakdown_table(models, points),
    }
    if not args.quick:
        doc["sparsity_sweep_moe"] = sparsity_table("deepseek_16b_shape", points)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trends.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out / 'trends.json'}")


if __name__ == "__main__":
    main()
