"""Command-line entry point.

    slim train    --config cfg.json [--out DIR] [--seed N]
    slim infer    --config cfg.json [--out DIR] [--seed N]
    slim simulate --config cfg.json [--out DIR] [--seed N]
    slim sweep    --config cfg.json [--out DIR] [--seed N]

Exit codes: 0 success; 2 configuration error, or a path that cannot be
read or written; 3 numeric failure.
Set SLIM_LOG=debug|info|warning for verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .config import load_scenario
from .errors import ConfigError, MappingError, NumericError, ShapeError
from .runner import (
    emit_trace_file,
    infer_report,
    scenario_rows,
    train_predictors,
    write_report,
)

log = logging.getLogger("slim")


def _setup_logging():
    level = os.environ.get("SLIM_LOG", "info").upper()
    logging.basicConfig(level=getattr(logging, level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "infer", "simulate", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="scenario JSON document")
        p.add_argument("--out", default="slim_out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
    return parser


def cmd_train(cfg, out_dir: Path) -> int:
    summary = train_predictors(cfg, out_dir)
    for entry in summary["layers"]:
        print(f"layer {entry['layer']:>2} expert {entry['expert']:>3}: "
              f"loss {entry['init_loss']:.6e} -> {entry['final_loss']:.6e}")
    (out_dir / "train_summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / cfg.paths.predictor} and {out_dir / cfg.paths.thresholds}")
    return 0


def cmd_infer(cfg, out_dir: Path) -> int:
    report = infer_report(cfg, out_dir)
    for entry in report["targets"]:
        print(f"target {entry['target_sparsity']:.2f}: "
              f"output mse {entry['output_mse']:.6e}, "
              f"measured sparsity {entry['measured_sparsity']:.3f}")
    print(f"wrote {out_dir / 'infer_report.json'}")
    return 0


def cmd_simulate(cfg, out_dir: Path, sweep: bool) -> int:
    sink = [] if cfg.emit_trace else None
    rows = scenario_rows(cfg, sweep=sweep, trace_sink=sink)
    csv_path, json_path = write_report(rows, out_dir)
    if sink:
        print(f"wrote {emit_trace_file(sink[0], out_dir)}")
    for row in rows:
        print(f"{row['design_level']:>8} {row['nand']:>3} s={row['sparsity']:<5}"
              f" {row['tok_per_s']:>9} tok/s  {row['eff_gbps']:>8} GB/s eff")
    print(f"wrote {csv_path} and {json_path}")
    return 0


def main(argv=None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config, seed_override=args.seed)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "train":
            return cmd_train(cfg, out_dir)
        if args.command == "infer":
            return cmd_infer(cfg, out_dir)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, sweep=False)
        return cmd_simulate(cfg, out_dir, sweep=True)
    # OSError and UnicodeDecodeError: a path that cannot be read, decoded
    # or written, such as a directory given for a file
    except (ConfigError, MappingError, ShapeError, OSError, UnicodeDecodeError) as exc:
        log.error("%s", exc)
        return 2
    except NumericError as exc:
        log.error("%s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
