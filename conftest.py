import os
import sys

import pytest
from pyspark.sql import SparkSession


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session, from the
    repo's one recipe, :func:`repro.bench_utils.get_or_create_spark`
    (it sets ``PYSPARK_SUBMIT_ARGS`` before it starts the JVM)."""
    from repro.bench_utils import get_or_create_spark

    s = get_or_create_spark("repro")
    # One line in test_output.txt that tells the driver whether the
    # cgroup derivation saw the real limit (README § Spark target).
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
