#!/usr/bin/env python3
"""Layered walk-corpus benchmark of the UniNet reproduction.

Runs one workload (see ``workloads.py``) through the public API the way
a user does — ``make_sampler`` -> ``prepare()`` ->
``repro.walks.engine.generate_walks`` -> ``count_walk_tokens`` ->
``repro.embedding.word2vec.train_embeddings`` — on a pinned local Spark
session, checks the outputs, and prints every metric by name with its
unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 walkbench/run.py --workload n2v-mh-twitter --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of untouched code: the
median over repetitions, each a fresh corpus (Table VI's ``T_i`` and
``T_w``), run until ``--seconds`` of them are measured. ``--trace 1``
builds one corpus, trains Word2Vec on it (Table VI's ``T_l``) and
reports the per-layer metrics: engine-level costs from that corpus, and
the kernel split from ``tracing.kernel_layers``.

Run it from the repository root: it imports ``repro`` from ``./src`` and
keeps Spark's scratch files, the run record and the trace spans in
``./.walkbench_work``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import W2V, WORKLOADS

ROOT = Path.cwd()
WORK = ROOT / ".walkbench_work"
#: Set-up (session start, graph build, warm-up) is repeated this many
#: times per run; ``setup_s`` is the median.
SETUP_ROUNDS = 3
#: In a traced run the first set-up round also trains Word2Vec on this
#: many (5-token) warm-up walks, so that the timed fit is not the JVM's
#: first.
WARMUP_LEARN_WALKS = 2_000

#: name -> unit, in report order.
END_TO_END = {
    "setup_s": "s",
    "corpus_tokens_per_s": "tokens/s",
    "driver_peak_rss_mb": "MB",
}
PER_LAYER = {
    "datasets.load_s": "s",
    "sampler.prepare_s": "s",
    "sampler.ledger_bytes": "bytes",
    "engine.broadcast_bytes": "bytes",
    "engine.batches": "count",
    "engine.spark_overhead_s": "s",
    "kernel.traced_batches": "count",
    "kernel.simulate_walks_s": "s",
    "kernel.self_s": "s",
    "kernel.static_prepare_s": "s",
    "kernel.walks_to_lists_s": "s",
    "arrow.from_pandas_s": "s",
    "sampler.sample_s": "s",
    "sampler.sample_calls": "count",
    "sampler.accept_ratio": "ratio",
    "model.dyn_weight_s": "s",
    "model.dyn_weight_items": "count",
    "csr.edge_index_s": "s",
    "csr.edge_index_queries": "count",
    "mh.first_touch_states": "count",
    "mh.first_touch_s": "s",
    "word2vec.fit_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def spark_plan() -> dict:
    """The pinned session: ``local[N]`` with N <= the machine's cores
    (4 at most), and a driver heap of a quarter of RAM within 2-4 GiB."""
    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {
        "cores": min(4, os.cpu_count() or 1),
        "driver_memory": f"{max(2, min(4, int(mem_gib // 4)))}g",
        "ram_gib": round(mem_gib, 2),
    }


def pin_environment(plan: dict) -> None:
    """Must run before pyspark starts the JVM: the driver's memory,
    master and temp dirs are fixed at launch."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ.update(
        TMPDIR=str(tmp),
        SPARK_LOCAL_DIRS=str(tmp),
        PYTHONPATH=str(ROOT / "src"),
        PYSPARK_PYTHON=sys.executable,
        # spark-submit's own launcher JVM.
        SPARK_LAUNCHER_OPTS=f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}",
        PYSPARK_SUBMIT_ARGS=(
            f"--master local[{plan['cores']}] "
            f"--driver-memory {plan['driver_memory']} "
            f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
            "--conf spark.ui.enabled=false "
            "--conf spark.ui.showConsoleProgress=false "
            "--conf spark.driver.host=127.0.0.1 "
            f"--conf spark.sql.warehouse.dir={WORK / 'warehouse'} "
            "pyspark-shell"
        ),
    )
    sys.path.insert(0, str(ROOT / "src"))


def start_session(cores: int):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("walkbench")
        .master(f"local[{cores}]")
        .config("spark.sql.shuffle.partitions", str(cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown(spark) -> None:
    """Stop Spark and wait for the JVM (and with it the Python workers)."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def reset_peak_rss() -> None:
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # peak then covers the whole process


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment(spark, plan: dict) -> dict:
    import numpy
    import pandas
    import pyarrow
    import pyspark

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    jvm = spark.sparkContext._jvm
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "ram_gib": plan["ram_gib"],
        "spark_master": spark.sparkContext.master,
        "driver_memory": plan["driver_memory"],
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pandas": pandas.__version__,
        "pyarrow": pyarrow.__version__,
        "pyspark": pyspark.__version__,
        "java": str(jvm.System.getProperty("java.version")),
    }


class Bench:
    """One run of one workload; ``ops`` collects ``(name, ok, detail)``."""

    def __init__(self, args, plan: dict):
        from repro.datasets import DATASETS
        from repro.models import make_model

        self.args = args
        self.w = WORKLOADS[args.workload]
        self.spec = DATASETS[self.w.dataset]
        self.model = make_model(self.w.model, **self.w.model_kw)
        self.plan = plan
        self.ops = []
        self.spark = None
        self.g = None

    # -- set-up --------------------------------------------------------
    def setup(self, warm_word2vec: bool) -> dict:
        from repro.embedding.word2vec import train_embeddings
        from repro.walks.engine import count_walk_tokens, generate_walks
        from pyspark.sql import functions as F

        rounds, loads = [], []
        for r in range(SETUP_ROUNDS):
            if self.spark is not None:
                self.spark.stop()
            self.g = None
            gc.collect()
            t0 = time.perf_counter()
            self.spark = start_session(self.plan["cores"])
            t1 = time.perf_counter()
            self.g = self.spec.build()
            t2 = time.perf_counter()
            # Starts every Python worker and imports the kernel there.
            warm = generate_walks(
                self.spark, self.g, self.model, num_walks=1, walk_length=4,
                sampler="mh-random", seed=self.args.seed,
            ).persist()
            count_walk_tokens(warm)
            if warm_word2vec and r == 0:
                # The JVM keeps its compiled Word2Vec across sessions.
                train_embeddings(
                    warm.where(F.col("walk_id") < WARMUP_LEARN_WALKS),
                    seed=self.args.seed, num_partitions=self.plan["cores"], **W2V,
                ).count()
            warm.unpersist(blocking=True)
            t3 = time.perf_counter()
            rounds.append(t3 - t0)
            loads.append(t2 - t1)
            print(f"# setup round {r + 1}: {t3 - t0:.3f} s "
                  f"(session {t1 - t0:.3f}, graph {t2 - t1:.3f}, warm-up {t3 - t2:.3f})")
        return {"setup_s": statistics.median(rounds), "datasets.load_s": statistics.median(loads),
                "rounds": rounds}

    # -- one corpus ----------------------------------------------------
    def rep(self, i: int, learn: bool) -> dict:
        """One timed corpus (``T_i``, ``T_w``) and, if ``learn``, its
        embeddings (``T_l``)."""
        import numpy as np
        from pyspark import StorageLevel
        from pyspark.sql import functions as F
        from repro.bench_utils import paper_budget
        from repro.embedding.word2vec import train_embeddings
        from repro.samplers import make_sampler
        from repro.walks.engine import count_walk_tokens, generate_walks

        w, g, seed = self.w, self.g, self.args.seed * 1000 + i
        gc.collect()
        reset_peak_rss()
        budget = paper_budget(self.spec, g)
        t0 = time.perf_counter()
        s = make_sampler(w.sampler, g, self.model, np.random.default_rng(seed), budget)
        s.prepare()
        t1 = time.perf_counter()
        df = generate_walks(
            self.spark, g, self.model, num_walks=w.num_walks,
            walk_length=w.walk_length, prepared=s, seed=seed,
        ).persist(StorageLevel.MEMORY_AND_DISK)
        tokens = count_walk_tokens(df)
        t2 = time.perf_counter()
        rss_mb = peak_rss_mb()
        vocab = None
        if learn:
            sents = df if w.learn_walks is None else df.where(F.col("walk_id") < w.learn_walks)
            vocab = train_embeddings(
                sents, seed=seed, num_partitions=self.plan["cores"], **W2V
            ).count()
        t3 = time.perf_counter()
        return {
            "seed": seed, "df": df, "sampler": s, "tokens": tokens, "vocab": vocab,
            "t_i": t1 - t0, "t_w": t2 - t1, "t_l": t3 - t2, "rss_mb": rss_mb,
            "ledger_bytes": budget.used - budget.ledger.get("graph_csr", 0.0),
        }

    def expected_tokens(self) -> int:
        st = self.model.start_nodes(self.g)
        iso = int((self.g.degree(st) == 0).sum())
        return self.w.num_walks * (
            (st.shape[0] - iso) * (self.w.walk_length + 1) + iso
        )

    def record(self, name, ok, detail="") -> None:
        self.ops.append((name, bool(ok), detail))
        print(f"# check {name}: {'ok' if ok else 'FAILED'} {detail}")

    def guarded(self, name, fn):
        """Run one operation; an exception counts as a failed one."""
        try:
            return fn()
        except Exception:  # boundary: report, count, keep measuring
            traceback.print_exc()
            self.record(name, False, "raised")
            return None

    def check_rep(self, r: dict, full: bool) -> None:
        from checks import check_corpus

        self.record("corpus_tokens", r["tokens"] == self.expected_tokens(),
                    f"{r['tokens']} tokens")
        if r["vocab"] is not None:
            self.record("embedding", r["vocab"] > 0, f"{r['vocab']} vectors")
        if full:
            for c in self.guarded("corpus_checks", lambda: check_corpus(
                self.g, self.model, r["df"], self.w.num_walks,
                self.w.learn_walks, r["vocab"],
            )) or []:
                self.record(*c)

    def check_oom_cell(self) -> None:
        from checks import check_oom_cell

        if self.w.oom_cell is not None:
            c = self.guarded("oom_cell", lambda: check_oom_cell(
                self.g, self.spec, *self.w.oom_cell))
            if c is not None:
                self.record(*c)

    # -- modes ---------------------------------------------------------
    def run_end_to_end(self, setup: dict) -> dict:
        reps = []
        measured = 0.0
        while not reps or measured < self.args.seconds:
            r = self.guarded("corpus", lambda: self.rep(len(reps), learn=False))
            if r is None:
                break
            measured += r["t_i"] + r["t_w"]
            print(f"# rep {len(reps) + 1}: T_i {r['t_i']:.3f} s  T_w {r['t_w']:.3f} s  "
                  f"tokens {r['tokens']}  rss {r['rss_mb']:.1f} MB")
            t0 = time.perf_counter()
            self.check_rep(r, full=not reps)
            r["df"].unpersist(blocking=True)
            print(f"# checks and cleanup: {time.perf_counter() - t0:.3f} s")
            reps.append({k: v for k, v in r.items() if k not in ("df", "sampler")})
        if not reps:
            return {}
        med = lambda f: statistics.median(f(r) for r in reps)  # noqa: E731
        return {
            "setup_s": setup["setup_s"],
            "corpus_tokens_per_s": med(lambda r: r["tokens"] / (r["t_i"] + r["t_w"])),
            "driver_peak_rss_mb": med(lambda r: r["rss_mb"]),
            "reps": reps,
        }

    def run_traced(self, setup: dict) -> dict:
        import numpy as np
        from pyspark.ml.feature import Word2Vec
        from pyspark.sql import functions as F
        from pyspark.context import SparkContext
        from repro.samplers import make_sampler
        from repro.walks.engine import walker_frame
        from tracing import Tracer, kernel_layers

        # Engine-level costs from one untouched corpus; only the
        # broadcast and Word2Vec's fit are observed from outside.
        broadcasts = []
        broadcast = SparkContext.broadcast

        def sized_broadcast(sc, value):
            bc = broadcast(sc, value)
            broadcasts.append(os.path.getsize(bc._path))  # the pickled value
            return bc

        tr = Tracer()
        tr.wrap(Word2Vec, "fit", "word2vec.fit")
        SparkContext.broadcast = sized_broadcast
        try:
            r = self.guarded("corpus", lambda: self.rep(0, learn=True))
        finally:
            SparkContext.broadcast = broadcast
            tr.restore()
        if r is None:
            return {}
        self.check_rep(r, full=True)
        r["df"].unpersist(blocking=True)

        st = self.model.start_nodes(self.g)
        conf = self.spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch", "10000")
        sizes = [row["count"] for row in walker_frame(
            self.spark, st, self.w.num_walks, self.spark.sparkContext.defaultParallelism,
        ).groupBy(F.spark_partition_id()).count().collect()]
        engine_batches = sum(-(-n // int(conf)) for n in sizes)

        prepared = r["sampler"]

        def fresh():
            if prepared.name == "alias":  # stateless tables: reuse them
                return prepared
            s = make_sampler(self.w.sampler, self.g, self.model,
                             np.random.default_rng(r["seed"]))
            s.prepare()
            return s

        k = kernel_layers(self.g, self.model, fresh, self.w.num_walks,
                          self.w.walk_length, r["seed"], self.args.seconds)
        walkers = st.shape[0] * self.w.num_walks
        busy = (k["kernel_s"] + k["serialize_s"]) / k["walkers"] * walkers
        metrics = {
            "datasets.load_s": setup["datasets.load_s"],
            "sampler.prepare_s": r["t_i"],
            "sampler.ledger_bytes": r["ledger_bytes"],
            "engine.broadcast_bytes": float(sum(broadcasts)),
            "engine.batches": engine_batches,
            "engine.spark_overhead_s": r["t_w"] - busy / self.plan["cores"],
            "word2vec.fit_s": tr.self_s["word2vec.fit"],
            **k["metrics"],
        }
        return {**metrics, "spans": k["spans"], "rep": {
            x: v for x, v in r.items() if x not in ("df", "sampler")}}

    def run(self) -> int:
        t_start = time.perf_counter()
        try:
            setup = self.setup(warm_word2vec=bool(self.args.trace))
            env = environment(self.spark, self.plan)
            print("# env " + json.dumps(env, sort_keys=True))
            print(f"# workload {self.w.name}: {self.w.why}")
            self.check_oom_cell()
            if self.args.trace:
                out = self.run_traced(setup)
                names = PER_LAYER
            else:
                out = self.run_end_to_end(setup)
                names = END_TO_END
        finally:
            if self.spark is not None:
                shutdown(self.spark)
        if not out:
            print("walkbench: no corpus was built", file=sys.stderr)
            return 1
        failed = sum(1 for _, ok, _ in self.ops if not ok)
        metrics = {n: {"value": float(out[n]), "unit": u} for n, u in names.items()}
        for n, m in metrics.items():
            print(f"{n:28s} {m['value']:>16.6g} {m['unit']}")
        print(f"# operations: {len(self.ops)} attempted, {failed} failed "
              f"(failed_ops_ratio {failed / len(self.ops):.4f})")
        self.save(env, setup, out, metrics, failed, time.perf_counter() - t_start)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(self.ops),
            "failed": failed,
            "metrics": metrics,
        }))
        return 0

    def save(self, env, setup, out, metrics, failed, wall) -> None:
        a = self.args
        stem = f"{a.workload}_seed{a.seed}_trace{a.trace}"
        res = WORK / "results"
        res.mkdir(parents=True, exist_ok=True)
        spans = out.pop("spans", None)
        if spans is not None:
            with open(res / f"{stem}.spans.jsonl", "w") as f:
                for sid, parent, layer, t0, t1 in spans:
                    f.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                        "start": t0, "end": t1}) + "\n")
        record = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
            "trace": a.trace, "env": env, "setup_rounds_s": setup["rounds"],
            "metrics": metrics, "ops": self.ops, "failed": failed, "wall_s": wall,
            "reps": out.get("reps") or [out.get("rep")],
        }
        with open(res / f"{stem}.json", "w") as f:
            json.dump(record, f, indent=1, default=float)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "walks" / "engine.py").is_file():
        print("walkbench: run from the repository root; ./src/repro is missing",
              file=sys.stderr)
        return 2
    plan = spark_plan()
    pin_environment(plan)
    return Bench(args, plan).run()


if __name__ == "__main__":
    sys.exit(main())
