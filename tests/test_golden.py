"""Pins of what the CLI and the trends script write.

Most files under tests/golden/ hold the simulator's reports and traces for
the scenarios in CASES, and ``trends_quick.json`` and ``trends_full.json``
hold ``scripts/reproduce_trends.py`` with and without ``--quick``;
refactors and perf changes must reproduce them byte for byte. ``toy_train_infer.infer_report.json`` is the
one tolerance pin (see its test). Goldens are regenerated only by a change
that fixes a modeling bug and records the fix and the moved numbers in
CHANGES.md.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from slim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
TOY_MOE_CHANNEL_TLC = {"model": "toy_moe", "nand": "tlc", "pe_level": "channel",
                       "emit_trace": True}
TOY_MOE_DIE_SLC = {"model": "toy_moe", "nand": "slc", "pe_level": "die", "emit_trace": True}
SEQUENTIAL = {"scheduler": "sequential"}
# the toy_moe shape, inline, with four tokens in flight
BATCH_4 = {"model": {"n_dec": 2, "dim_e": 64, "dim_h": 128, "n_heads": 4, "n_expert": 4,
                     "top_k": 2, "seq_len": 64, "batch": 4}}
TRACED = ["report.json", "trace.ldjson"]

CASES = [
    ("toy_sweep", "sweep", ROOT / "configs" / "toy.json", ["report.json"]),
    ("toy_moe_channel_tlc", "simulate", TOY_MOE_CHANNEL_TLC, TRACED),
    ("toy_moe_die_slc", "simulate", TOY_MOE_DIE_SLC, TRACED),
    ("toy_moe_sequential_channel_tlc", "simulate", {**TOY_MOE_CHANNEL_TLC, **SEQUENTIAL},
     TRACED),
    ("toy_moe_sequential_die_slc", "simulate", {**TOY_MOE_DIE_SLC, **SEQUENTIAL}, TRACED),
    ("batch4_channel_tlc", "simulate", {**TOY_MOE_CHANNEL_TLC, **BATCH_4}, TRACED),
    ("batch4_die_slc", "simulate", {**TOY_MOE_DIE_SLC, **BATCH_4}, TRACED),
    ("llama2_7b_sweep", "sweep", ROOT / "configs" / "llama2_7b.json", ["report.json"]),
]


@pytest.mark.parametrize("name,command,config,files", CASES, ids=[c[0] for c in CASES])
def test_outputs_match_golden(tmp_path, name, command, config, files):
    if isinstance(config, dict):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        config = path
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    for file in files:
        golden = GOLDEN / f"{name}.{file}"
        assert (out / file).read_bytes() == golden.read_bytes(), (
            f"{out / file} differs from {golden}. Goldens are regenerated only by "
            "a change that fixes a modeling bug and records it in CHANGES.md.")


def test_infer_report_matches_golden_within_tolerance(tmp_path):
    """`slim train` then `slim infer` on configs/toy.json against the pinned
    report. A tolerance pin, not a byte pin: the file holds full-precision
    floats, and a training change that only reorders sums may move their last
    bits. Targets must match exactly, output MSEs within 1e-9 relative and
    measured sparsities within 1e-9 absolute."""
    config, out = ROOT / "configs" / "toy.json", tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    assert main(["infer", "--config", str(config), "--out", str(out)]) == 0
    got = json.loads((out / "infer_report.json").read_text())["targets"]
    want = json.loads((GOLDEN / "toy_train_infer.infer_report.json").read_text())["targets"]
    assert [t["target_sparsity"] for t in got] == [t["target_sparsity"] for t in want]
    for g, w in zip(got, want):
        assert math.isclose(g["output_mse"], w["output_mse"], rel_tol=1e-9, abs_tol=0.0), g
        assert abs(g["measured_sparsity"] - w["measured_sparsity"]) <= 1e-9, g


@pytest.mark.parametrize("name,flags", [("trends_quick", ["--quick"]), ("trends_full", [])],
                         ids=["quick", "full"])
def test_quick_trends_match_golden(tmp_path, name, flags):
    """`reproduce_trends.py`, run as a script with and without `--quick`,
    writes the pinned trends.json byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "reproduce_trends.py"),
                    *flags, "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True)
    golden = GOLDEN / f"{name}.json"
    assert (tmp_path / "trends.json").read_bytes() == golden.read_bytes(), (
        f"{tmp_path / 'trends.json'} differs from {golden}. Goldens are regenerated "
        "only by a change that fixes a modeling bug and records it in CHANGES.md.")
