"""Smoke test of the benchmark itself on the tiny ``smoke`` workload.

Not collected by the repository's test run (``testpaths`` lists
``tests`` and ``benchmarks``); run it explicitly:

    python -m pytest walkbench/test_smoke.py -q -p no:cacheprovider
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, trace: int):
    return subprocess.run(
        [sys.executable, "walkbench/run.py", "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_and_unit_is_emitted(trace, section):
    p = run(ROOT, trace)
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if section == "end_to_end":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC[section])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "walkbench", tmp_path / "walkbench")
    p = run(tmp_path, 0)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
