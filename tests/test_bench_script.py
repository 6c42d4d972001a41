"""scripts/bench.py: the BENCH files it compares and the ones it refuses.

Nothing here runs perfbench; the committed BENCH_5.json and BENCH_6.json
serve as records.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

BOUNDS = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def _record(n):
    return json.loads((ROOT / f"BENCH_{n}.json").read_text())


def test_committed_records_compare():
    assert bench.compare(_record(5), _record(6), BOUNDS)


def test_other_run_length_refused(capsys):
    new = copy.deepcopy(_record(6))
    new["perfbench"] = {"runs": 1, "seconds": 1}
    assert not bench.compare(_record(5), new, BOUNDS)
    assert "not comparable" in capsys.readouterr().out


def test_other_seeds_refused(capsys):
    new = copy.deepcopy(_record(6))
    new["workloads"]["train-infer"]["seeds"] = [7, 8, 9]
    assert not bench.compare(_record(5), new, BOUNDS)
    assert "train-infer: not comparable" in capsys.readouterr().out


@pytest.mark.parametrize("changed", ["cpu_model", "boot_id"])
def test_other_host_refused(capsys, changed):
    old, new = copy.deepcopy(_record(5)), copy.deepcopy(_record(6))
    for rec in (old, new):
        rec.update(cpu_model="Intel(R) Xeon(R) Processor", boot_id="5e0c-1")
    assert bench.compare(old, new, BOUNDS)
    capsys.readouterr()
    new[changed] += "x"
    assert not bench.compare(old, new, BOUNDS)
    assert "not comparable: recorded on another host" in capsys.readouterr().out
    # a file recorded before the host was recorded cannot show it is the same
    assert not bench.compare(_record(5), new, BOUNDS)


def test_host_is_recorded():
    assert set(bench.host()) == set(bench.HOST)


def test_existing_record_not_overwritten():
    before = (ROOT / "BENCH_6.json").read_bytes()
    with pytest.raises(SystemExit) as exc:
        bench.main(["--pr", "6"])
    assert exc.value.code == 2
    assert (ROOT / "BENCH_6.json").read_bytes() == before
