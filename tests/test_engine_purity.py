"""A corpus is a pure function of (graph, model, sampler, seed,
num_partitions): neither the core count nor the Arrow batch size may
change a single walk.

Each Spark configuration runs in its own subprocess (one JVM), which
builds every sampler's corpus and prints one hash per sampler; the test
compares the two processes' hashes. Run as a script, this module is
that subprocess: ``python tests/test_engine_purity.py``, with the
master in ``SPARK_MASTER`` and the batch size as its argument.
"""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from tests.util import small_graph

ROOT = Path(__file__).resolve().parents[1]
#: 2 x 13 000 walkers: each task cuts two blocks (10 000 + 3 000) out of
#: 130 Arrow batches at 100 rows, or out of 2 batches at 10 000.
NUM_WALKS, WALK_LENGTH, PARTITIONS, SEED = 130, 8, 2, 11
CONFIGS = [("local[2]", 100), ("local[4]", 10_000)]


def corpus_hashes(batch_rows: int) -> dict:
    """``{sampler: [rows, sha256 of the walk_id-sorted corpus]}``."""
    import numpy as np

    from repro.bench_utils import get_or_create_spark
    from repro.models import make_model
    from repro.samplers import SAMPLER_NAMES
    from repro.walks.engine import generate_walks

    spark = get_or_create_spark("purity")
    spark.sparkContext.setLogLevel("ERROR")
    spark.conf.set("spark.sql.execution.arrow.maxRecordsPerBatch", str(batch_rows))
    g = small_graph()
    model = make_model("node2vec", p=0.25, q=4.0)
    out = {}
    try:
        for name in SAMPLER_NAMES:
            t = generate_walks(
                spark, g, model, num_walks=NUM_WALKS, walk_length=WALK_LENGTH,
                sampler=name, seed=SEED, num_partitions=PARTITIONS,
            ).toArrow().sort_by("walk_id")
            walk = t["walk"].combine_chunks()
            h = hashlib.sha256()
            for col in (t["walk_id"], t["start"], walk.value_lengths(), walk.flatten()):
                h.update(np.ascontiguousarray(col.to_numpy()).tobytes())
            out[name] = [t.num_rows, h.hexdigest()]
    finally:
        spark.stop()
    return out


def run_config(master: str, batch_rows: int) -> subprocess.Popen:
    env = dict(os.environ)
    # The parent's session recipe exported its own master in these.
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    env.update(
        SPARK_MASTER=master,
        SPARK_DRIVER_MEM="1g",
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    return subprocess.Popen(
        [sys.executable, __file__, str(batch_rows)], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def test_corpus_independent_of_cores_and_arrow_batches():
    procs = [run_config(m, b) for m, b in CONFIGS]
    results = []
    for p in procs:
        try:
            out, err = p.communicate(timeout=600)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise
        assert p.returncode == 0, err[-4000:]
        results.append(json.loads(out.strip().splitlines()[-1]))
    a, b = results
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name][0] == NUM_WALKS * small_graph().n, name
        assert a[name] == b[name], name


if __name__ == "__main__":
    print(json.dumps(corpus_hashes(int(sys.argv[1]))))
