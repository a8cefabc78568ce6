"""The numpy core imports without Spark.

The driver-only paths (Table II's kernel run, dataset loading) and the
worker-side kernel need only numpy; Spark stays in the engine, the
builder and the jobs that use it.
"""
import subprocess
import sys
from pathlib import Path

import repro

CORE = "repro.datasets, repro.samplers, repro.models, repro.walks.kernel"


def test_numpy_core_imports_without_pyspark():
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import {CORE}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", out.stdout
