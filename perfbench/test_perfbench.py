"""Tests of the benchmark itself, on its tiny smoke inputs.

Run:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def bench(*args, cwd=ROOT):
    """Run the benchmark; return (exit code, stdout lines, final JSON or None)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc.returncode, lines, result


def check_metrics(lines, result, declared):
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    code, lines, result = bench("--workload", workload, "--seed", "3", "--trace", "0", "--smoke")
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    check_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    runs = [
        bench("--workload", "mixed-small", "--seed", "5", "--trace", "1", "--smoke")
        for _ in range(2)
    ]
    for code, lines, result in runs:
        assert code == 0 and result["correct"]
        check_metrics(lines, result, SPEC["per_layer"])
    first, second = (r[2]["metrics"] for r in runs)
    counts = {k: v["value"] for k, v in first.items() if v["unit"] in COUNT_UNITS}
    assert counts == {k: second[k]["value"] for k in counts}
    assert counts["kernel.rref_inplace.calls"] > 0


def test_corrupted_certificate_fails_the_run():
    code, lines, result = bench(
        "--workload", "invert-sigma", "--seed", "3", "--trace", "0", "--smoke", "--corrupt"
    )
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any("certificate rejected" in line for line in lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    code, _, result = bench("--workload", "mixed-small", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0 and result is None


def test_compare_refuses_mixed_backends(tmp_path):
    record = {
        "workload": "mixed-small",
        "environment": {"backend": "py"},
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
    }
    (tmp_path / "a.json").write_text(json.dumps(record))
    record["environment"]["backend"] = "cy"
    (tmp_path / "b.json").write_text(json.dumps(record))
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(tmp_path / "a.json"), str(tmp_path / "b.json")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "refusing" in proc.stdout
