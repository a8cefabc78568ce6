"""Benchmark harness utilities: timing, paper-scaled budgets, tables.

Shared by the ``jobs/`` table harnesses and the ``benchmarks/`` suite.
"""
from __future__ import annotations

import os
import time
from typing import List, Sequence

from repro.datasets import DatasetSpec
from repro.graph.csr import CSRGraph
from repro.samplers.base import MemoryBudget

#: Paper-normalized CSR cost: 4 bytes (neighbor id) per directed slot.
BYTES_GRAPH_PER_SLOT = 4
#: ``spark.sql.shuffle.partitions`` of :func:`get_or_create_spark`.
SHUFFLE_PARTITIONS = 64


class Timer:
    """``with Timer() as t: ...; t.s`` — wall seconds."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.s = time.perf_counter() - self.t0
        return False

    def __float__(self):
        return float(getattr(self, "s", 0.0))


def paper_budget(spec: DatasetSpec, g: CSRGraph) -> MemoryBudget:
    """A :class:`MemoryBudget` scaled like the paper's 96 GB server
    against the dataset's true size, pre-charged with the CSR itself —
    samplers whose tables would not have fit on the paper's machine
    raise :class:`MemoryBudgetExceeded` here, reproducing the ``*``
    cells of Tables VI/VII."""
    b = MemoryBudget(spec.budget_bytes(g), label=spec.name)
    b.charge("graph_csr", BYTES_GRAPH_PER_SLOT * g.m)
    return b


def fmt_cell(v, width: int = 9) -> str:
    if v is None:
        return "-".rjust(width)
    if isinstance(v, str):
        return v.rjust(width)
    return f"{v:.2f}".rjust(width)


def print_table(
    title: str,
    header: Sequence[str],
    rows: List[Sequence],
    out=None,
) -> str:
    """Render an aligned text table; prints and returns it."""
    widths = [
        max(len(str(h)), *(len(fmt_cell(r[i]).strip()) for r in rows)) + 2
        if rows
        else len(str(h)) + 2
        for i, h in enumerate(header)
    ]
    lines = [title]
    lines.append("".join(str(h).rjust(w) for h, w in zip(header, widths)))
    for r in rows:
        lines.append("".join(fmt_cell(c, w) for c, w in zip(r, widths)))
    text = "\n".join(lines)
    print(text, file=out)
    return text


def driver_mem() -> str:
    """~75% of the container's memory limit, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > cgroup v2/v1
    limit > 48g fallback. Records where the value came from in
    ``_SPARK_DRIVER_MEM_SRC``.

    The cgroup read is best-effort: a container runtime's sysfs
    emulation may not pass the host limit through. An unbounded
    value (cgroup-v1's ~9.2e18 "unlimited" sentinel, or a missing limit)
    is treated as absent so the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            with open(p) as f:
                raw = f.read().strip()
            if not raw or raw == "max":
                continue
            gib = int(raw) / (1 << 30)
            if not (1 <= gib <= 1024):  # v1 "unlimited" → ~8.6e9 GiB
                continue
            os.environ["_SPARK_DRIVER_MEM_SRC"] = f"cgroup:{p}={raw}"
            return f"{max(1, int(gib * 0.75))}g"
        except (OSError, ValueError):
            continue
    os.environ["_SPARK_DRIVER_MEM_SRC"] = "fallback"
    return "48g"


def set_spark_submit_args() -> None:
    """Default ``SPARK_DRIVER_MEM`` and ``PYSPARK_SUBMIT_ARGS`` (master
    ``SPARK_MASTER`` or local[*], :func:`driver_mem`, UI off); values
    already set win. spark.driver.memory is read at JVM launch, not
    from SparkConf, so this must run before the JVM starts."""
    os.environ.setdefault("SPARK_DRIVER_MEM", driver_mem())
    os.environ.setdefault(
        "PYSPARK_SUBMIT_ARGS",
        f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
        f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell",
    )


def get_or_create_spark(app: str = "repro-job"):
    """The repo's one SparkSession recipe, for ``jobs/`` entry points
    and the tests' ``spark`` fixture: :func:`set_spark_submit_args`,
    then the per-session configs honoured after launch. Arrow on and
    broadcast joins off are the flags of walkbench's session too, so the
    tests run the walk engine's ``mapInArrow`` path under the settings
    that walkbench measures."""
    set_spark_submit_args()
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
