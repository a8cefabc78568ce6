"""Per-layer split of the walk kernel, timed from outside the program.

The program carries no instrumentation: :class:`Tracer` swaps a
public function of a layer (``CSRGraph.edge_index``, a model's
``dyn_weight``, a sampler's ``sample``, ...) for a wrapper that records
one span per call — layer, start, end and the enclosing span — and
restores the original afterwards. A layer's self time is its spans'
duration minus the part covered by child spans.

:func:`kernel_layers` runs ``simulate_walks`` on the driver over the
engine's 10 k-walker Arrow batches: once untraced (kernel and
serialization times), once traced with a fresh sampler and the same
random streams (so the work is identical and the difference is the
tracing overhead), and, for M-H samplers, replays the traced ``sample``
calls on a fresh and then on a warm sampler to price first-touch init.
"""
from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from repro.graph.csr import CSRGraph
from repro.samplers.base import StaticSampler
from repro.walks.kernel import simulate_walks, walks_to_lists

#: ``spark.sql.execution.arrow.maxRecordsPerBatch``: rows per pandas
#: batch handed to the engine's ``mapInPandas`` function.
BATCH = 10_000
WALKS_ARROW = pa.schema(
    [("walk_id", pa.int64()), ("start", pa.int64()), ("walk", pa.list_(pa.int64()))]
)


class Tracer:
    def __init__(self):
        #: ``(span_id, parent_id, layer, start, end)``; parent -1 at top.
        self.spans: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self._stack: List[list] = []  # [span_id, child seconds]
        self._next = 0
        self._patched: List[tuple] = []

    def call(self, layer: str, fn: Callable, *a, n_items: int = 0, **kw):
        sid, self._next = self._next, self._next + 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            t1 = time.perf_counter()
            _, child = self._stack.pop()
            self.spans.append((sid, parent, layer, t0, t1))
            self.self_s[layer] += (t1 - t0) - child
            self.calls[layer] += 1
            self.items[layer] += n_items
            if self._stack:
                self._stack[-1][1] += t1 - t0

    def wrap(
        self,
        owner: type,
        attr: str,
        layer: str,
        items: Optional[Callable[..., int]] = None,
        on_call: Optional[Callable[..., None]] = None,
    ) -> None:
        """Route ``owner.attr`` through :meth:`call` until :meth:`restore`."""
        orig = getattr(owner, attr)
        tracer = self

        def traced(*a, **kw):
            if on_call is not None:
                on_call(*a, **kw)
            n = items(*a, **kw) if items is not None else 0
            return tracer.call(layer, orig, *a, n_items=n, **kw)

        self._patched.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            if orig is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)
        self._patched.clear()


def _batches(starts: np.ndarray, num_walks: int, limit: int):
    walkers = starts.shape[0] * num_walks
    for b in range(min(limit, -(-walkers // BATCH))):
        ids = np.arange(b * BATCH, min((b + 1) * BATCH, walkers), dtype=np.int64)
        yield ids, starts[ids % starts.shape[0]]


def _reseed(samp, seed: int, ids: np.ndarray) -> np.random.Generator:
    # The engine's per-batch stream.
    samp.reseed(np.random.default_rng((seed, int(ids[0]), 0xC0FFEE)))
    return samp.rng


def kernel_layers(
    g: CSRGraph,
    model,
    make_sampler: Callable[[], object],
    num_walks: int,
    walk_length: int,
    seed: int,
    seconds: float,
) -> dict:
    """Per-batch layer costs of the kernel; see the module docstring.

    ``make_sampler()`` returns a prepared sampler with fresh state.
    Batches are taken in engine order until the untraced pass has run
    for ``seconds / 10`` (at least one batch).
    """
    starts = model.start_nodes(g)
    untraced = Counter()
    batches = 0
    samp = make_sampler()
    t_pass = time.perf_counter()
    for ids, bst in _batches(starts, num_walks, 1 << 30):
        rng = _reseed(samp, seed, ids)
        t0 = time.perf_counter()
        walks = simulate_walks(g, model, bst, walk_length, samp, rng)
        t1 = time.perf_counter()
        lists = walks_to_lists(walks)
        t2 = time.perf_counter()
        pdf = pd.DataFrame({"walk_id": ids, "start": bst, "walk": lists})
        pa.RecordBatch.from_pandas(pdf, schema=WALKS_ARROW, preserve_index=False)
        t3 = time.perf_counter()
        untraced.update(
            {"kernel": t1 - t0, "lists": t2 - t1, "arrow": t3 - t2, "walkers": ids.shape[0]}
        )
        batches += 1
        if time.perf_counter() - t_pass >= seconds / 10:
            break

    tracer = Tracer()
    samp = make_sampler()
    stats0 = dict(samp.stats)
    recorded = []
    tracer.wrap(CSRGraph, "edge_index", "csr.edge_index", items=lambda g_, u, v: len(u))
    tracer.wrap(type(model), "dyn_weight", "model.dyn_weight",
                items=lambda m_, g_, wk, eidx: len(eidx))
    tracer.wrap(type(samp), "sample", "sampler.sample",
                on_call=lambda s_, wk: recorded.append(wk))
    tracer.wrap(StaticSampler, "prepare", "kernel.static_prepare")
    try:
        for ids, bst in _batches(starts, num_walks, batches):
            rng = _reseed(samp, seed, ids)
            tracer.call("kernel.simulate_walks", simulate_walks,
                        g, model, bst, walk_length, samp, rng)
    finally:
        tracer.restore()
    traced_kernel = sum(
        t1 - t0 for _, _, layer, t0, t1 in tracer.spans
        if layer == "kernel.simulate_walks"
    )
    proposals = samp.stats.get("proposals", 0) - stats0.get("proposals", 0)
    accepts = samp.stats.get("accepts", 0) - stats0.get("accepts", 0)
    manager = getattr(samp, "manager", None)

    first_touch_s = 0.0
    if manager is not None:
        fresh = make_sampler()
        laps = []
        for _ in range(2):  # cold, then warm on the same batches
            t0 = time.perf_counter()
            for wk in recorded:
                fresh.sample(wk)
            laps.append(time.perf_counter() - t0)
        first_touch_s = laps[0] - laps[1]

    per = 1.0 / batches
    s = tracer.self_s
    return {
        "walkers": int(untraced["walkers"]),
        "kernel_s": untraced["kernel"],
        "serialize_s": untraced["lists"] + untraced["arrow"],
        "spans": tracer.spans,
        "metrics": {
            "kernel.traced_batches": batches,
            "kernel.simulate_walks_s": untraced["kernel"] * per,
            "kernel.self_s": s["kernel.simulate_walks"] * per,
            "kernel.static_prepare_s": s["kernel.static_prepare"] * per,
            "kernel.walks_to_lists_s": untraced["lists"] * per,
            "arrow.from_pandas_s": untraced["arrow"] * per,
            "sampler.sample_s": s["sampler.sample"] * per,
            "sampler.sample_calls": tracer.calls["sampler.sample"] * per,
            "sampler.accept_ratio": accepts / proposals if proposals else 1.0,
            "model.dyn_weight_s": s["model.dyn_weight"] * per,
            "model.dyn_weight_items": tracer.items["model.dyn_weight"] * per,
            "csr.edge_index_s": s["csr.edge_index"] * per,
            "csr.edge_index_queries": tracer.items["csr.edge_index"] * per,
            "mh.first_touch_states": (
                manager.initialized_count * per if manager is not None else 0
            ),
            "mh.first_touch_s": first_touch_s * per,
            "trace.overhead_s": (traced_kernel - untraced["kernel"]) * per,
        },
    }
