"""Byte-exact pins of the simulator's reports and trace.

The files under tests/golden/ hold what the CLI wrote for four scenarios.
Refactors and perf changes must reproduce them byte for byte. They are
regenerated only by a change that fixes a modeling bug and records the fix
and the moved numbers in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from slim.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
TOY_MOE_CHANNEL_TLC = {"model": "toy_moe", "nand": "tlc", "pe_level": "channel",
                       "emit_trace": True}
TOY_MOE_DIE_SLC = {"model": "toy_moe", "nand": "slc", "pe_level": "die", "emit_trace": True}

CASES = [
    ("toy_sweep", "sweep", ROOT / "configs" / "toy.json", ["report.json"]),
    ("toy_moe_channel_tlc", "simulate", TOY_MOE_CHANNEL_TLC,
     ["report.json", "trace.ldjson"]),
    ("toy_moe_die_slc", "simulate", TOY_MOE_DIE_SLC, ["report.json", "trace.ldjson"]),
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
