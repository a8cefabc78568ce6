"""The numpy core imports without Spark, and without import cycles.

The driver-only paths (Table II's kernel run, dataset loading) and the
worker-side kernel need only numpy; Spark stays in the engine, the
builder and the jobs that use it.
"""
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

CORE = "repro.datasets, repro.samplers, repro.models, repro.walks.kernel"
SRC = Path(repro.__file__).resolve().parents[1]
#: Every numpy-core module: layering is graph -> core -> models/samplers
#: -> walks, and no module may need another to be imported before it.
NUMPY_CORE_MODULES = [
    "repro.graph.csr",
    *(
        f"repro.{pkg}.{m.name}"
        for pkg in ("core", "models", "samplers")
        for m in pkgutil.iter_modules([str(SRC / "repro" / pkg)])
    ),
    "repro.walks.kernel",
    "repro.datasets",
]


def _imported_pyspark(modules: str) -> str:
    """Import ``modules`` first in a fresh interpreter; returns the
    pyspark modules that came with them."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import {modules}; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyspark'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_numpy_core_imports_without_pyspark():
    assert _imported_pyspark(CORE) == "[]"


@pytest.mark.parametrize("module", NUMPY_CORE_MODULES)
def test_numpy_core_module_imports_first(module):
    """Each module imports on its own, first: a cycle between packages
    fails here instead of hiding behind the import order of a caller."""
    assert _imported_pyspark(module) == "[]"
