"""Tests of the benchmark itself: metric reporting, failure counting, missing sources.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

spans, workloads = run.import_benchmark()


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv, sizes="tiny") == 0
    result = _last_json_line(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer"] if trace else CONTRACT["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.fixture(scope="module")
def passed_records(tmp_path_factory):
    """Records of one tiny pass of every workload, all of which pass their checks."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        w = cls(5, workloads.TINY, str(tmp_path_factory.mktemp(name)))
        w.run_pass(workloads.PassClock())
        assert all(w.verify())
        out[name] = w
    return out


def _bump_search(records):
    records[0]["fidelity"] += 1e-6


def _bump_scan_row(records):
    scan = next(r for r in records if r["op"] == "scan")
    row = next(iter(scan["checked"].values()))
    row[1] += 1e-6


def _bump_map_mean(records):
    records[0]["mean"] += 1e-6


def _fail_z_test(records):
    records[0]["exit"] = 4


def _bump_channel_row(records):
    table = next(r for r in records if r["op"] == "independent")["table"]
    table[len(table) - 1][2] += 1e-9


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("transfer-search", _bump_search),
        ("transfer-search", _bump_scan_row),
        ("map-statistics", _bump_map_mean),
        ("mc-channels", _fail_z_test),
        ("mc-channels", _bump_channel_row),
    ],
)
def test_corrupted_result_is_counted_as_failed(passed_records, workload, corrupt):
    w = passed_records[workload]
    original = w.records
    w.records = copy.deepcopy(original)
    try:
        corrupt(w.records)
        assert w.verify().count(False) == 1
    finally:
        w.records = original


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in CONTRACT["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [*CONTRACT["command"][1:], "--workload", "mc-channels", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
