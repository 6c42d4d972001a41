"""scripts/bench.py: the BENCH files it compares and the ones it refuses.

Nothing here runs perfbench; the committed BENCH_5.json and BENCH_6.json
serve as records.
"""

import copy
import importlib.util
import json
import re
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


def test_pairs_alternate_and_count_wins(capsys, tmp_path):
    # a stand-in for perfbench: this checkout is 20% faster on run_s and
    # ties on setup_s; the digests differ in the third pair only
    order = []

    def stub(repo, workload, seed, seconds):
        this = repo == bench.ROOT
        order.append(("this" if this else "against", seed))
        values = {"setup_s": 0.3, "run_s": (0.8 if this else 1.0) + seed / 100,
                  "peak_rss_mb": 70.0 if this else 75.0}
        return {"correct": True, "metrics": {m: {"value": v} for m, v in values.items()},
                "digests": {"out.json": "b" if this and seed == 3 else "a"}}

    assert not bench.alternate(tmp_path, 3, "train-infer", 1, 2.0, BOUNDS, run=stub)
    assert order == [("against", 1), ("this", 1), ("this", 2), ("against", 2),
                     ("against", 3), ("this", 3)]
    out = capsys.readouterr().out
    assert "pair 1 seed 1: setup_s 0.3 -> 0.3 (1.000), run_s 1.01 -> 0.81 (0.802)" in out
    assert "pair 2 seed 2:" in out and "digests equal" in out
    assert "pair 3 seed 3:" in out and "digests DIFFER" in out
    assert re.search(r"run_s +median 1\.02 \(IQR 0\.01\) -> 0\.82 \(-19\.6%\), "
                     r"this checkout better in 3/3 pairs", out), out
    assert "setup_s" in out and "better in 0/3 pairs" in out
    assert "peak_rss_mb" in out and "-6.7%" in out

    order.clear()
    assert bench.alternate(tmp_path, 2, "train-infer", 1, 2.0, BOUNDS, run=stub)


def test_pairs_need_a_workload(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        bench.main(["--against", str(tmp_path), "--pairs", "2"])
    assert exc.value.code == 2
