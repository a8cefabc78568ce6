"""Output checks of one walk corpus and of its embeddings.

Each check returns ``(name, ok, detail)``; the runner counts every
check as one attempted operation and every ``ok=False`` (or exception)
as a failed one.
"""
from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pyarrow.compute as pc

from repro.bench_utils import paper_budget
from repro.core.theory import exact_transition, tv_distance
from repro.models import make_model
from repro.samplers import MemoryBudgetExceeded, make_sampler

Check = Tuple[str, bool, str]

#: Hub-transition tolerance of tests/test_engine_spark.py.
TV_TOL = 0.12
#: The hub distribution is compared over this many groups of neighbor
#: slots of equal exact mass, ordered by exact probability. At these
#: corpus sizes a hub is left only a few times per neighbor slot, so the
#: per-slot TV of even an exact sampler would be about
#: sqrt(deg / (2 pi visits)) ~ 0.2 — sampling noise, not sampler error.
#: Grouping keeps a bias toward high- (or low-) probability slots, such
#: as an M-H chain stuck near its initial sample, visible.
TV_BINS = 10
N_HUBS = 3
#: Second-order models: exact distributions are computed for the
#: most-visited previous nodes of each hub only.
MAX_STATES = 256
MIN_TRANSITIONS = 500
EDGE_CHUNK = 1 << 21


def corpus_arrays(df):
    """Collect a corpus as numpy: ``(walk_id, start, tokens, lengths)``."""
    tbl = df.select("walk_id", "start", "walk").toArrow()
    walk = tbl.column("walk")
    return (
        tbl.column("walk_id").to_numpy(),
        tbl.column("start").to_numpy(),
        pc.list_flatten(walk).to_numpy(),
        pc.list_value_length(walk).to_numpy().astype(np.int64),
    )


def hub_tv(g, model, vals, is_first, is_last, hub) -> Tuple[float, int]:
    """Grouped TV distance between the corpus' transitions out of
    ``hub`` and ``theory.exact_transition``; also the transitions used."""
    pos = np.flatnonzero((vals == hub) & ~is_last)
    nxt = vals[pos + 1]
    prev = np.where(is_first[pos], -1, vals[pos - 1])
    slot = np.searchsorted(g.neighbors(hub), nxt)
    deg = int(g.degree(np.array([hub]))[0])
    if model.order == 2:
        # The first step of a second-order walk is a static draw, not
        # a transition of the model's state.
        keep = prev >= 0
        prev, slot = prev[keep], slot[keep]
        states, counts = np.unique(prev, return_counts=True)
        top = np.argsort(-counts, kind="stable")[:MAX_STATES]
        keep = np.isin(prev, states[top])
        slot = slot[keep]
        expected = np.zeros(deg)
        for s, c in zip(states[top], counts[top]):
            expected += c * exact_transition(g, model, hub, prev=int(s))
    else:
        expected = slot.shape[0] * exact_transition(g, model, hub)
    observed = np.bincount(slot, minlength=deg).astype(np.float64)
    order = np.argsort(-expected, kind="stable")
    mass = expected[order]
    mid = (np.cumsum(mass) - mass / 2) / max(mass.sum(), 1e-300)
    group = np.minimum((mid * TV_BINS).astype(np.int64), TV_BINS - 1)
    tv = tv_distance(
        np.bincount(group, observed[order], minlength=TV_BINS),
        np.bincount(group, mass, minlength=TV_BINS),
    )
    return tv, int(slot.shape[0])


def check_corpus(
    g,
    model,
    df,
    num_walks: int,
    learn_walks: Optional[int],
    vocab_size: Optional[int],
) -> List[Check]:
    """All checks of one persisted corpus and, given its size, of the
    vocabulary Word2Vec learned from it."""
    out: List[Check] = []
    st = model.start_nodes(g)
    walkers = st.shape[0] * num_walks
    ids, starts, vals, lens = corpus_arrays(df)

    order = np.argsort(ids, kind="stable")
    out.append((
        "walk_count",
        ids.shape[0] == walkers
        and np.array_equal(ids[order], np.arange(walkers)),
        f"{ids.shape[0]} walks for {walkers} walkers",
    ))

    offs = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    ok = bool((lens >= 1).all()) and np.array_equal(starts, st[ids % st.shape[0]])
    ok = ok and np.array_equal(vals[offs[:-1][lens >= 1]], starts[lens >= 1])
    out.append(("walk_starts", ok, "each walk starts at its walker's start node"))

    is_first = np.zeros(vals.shape[0], dtype=bool)
    is_last = np.zeros(vals.shape[0], dtype=bool)
    is_first[offs[:-1][lens >= 1]] = True
    is_last[offs[1:][lens >= 1] - 1] = True
    bad = steps = 0
    for a in range(0, vals.shape[0] - 1, EDGE_CHUNK):
        b = min(a + EDGE_CHUNK, vals.shape[0] - 1)
        m = ~is_last[a:b]
        u, v = vals[a:b][m], vals[a + 1 : b + 1][m]
        steps += u.shape[0]
        bad += int((~g.has_edge(u, v)).sum())
    out.append(("steps_are_edges", bad == 0, f"{bad} of {steps} steps off the graph"))

    for hub in np.argsort(-g.degrees, kind="stable")[:N_HUBS]:
        tv, n = hub_tv(g, model, vals, is_first, is_last, int(hub))
        out.append((
            f"hub_tv[{int(hub)}]",
            n >= MIN_TRANSITIONS and tv <= TV_TOL,
            f"TV {tv:.4f} over {n} transitions (tolerance {TV_TOL})",
        ))

    if vocab_size is None:
        return out
    rows = np.ones(ids.shape[0], dtype=bool) if learn_walks is None else ids < learn_walks
    rows &= lens > 1
    expect = np.unique(vals[np.repeat(rows, lens)]).shape[0]
    out.append((
        "embedding_vocab",
        vocab_size == expect,
        f"{vocab_size} vectors for {expect} distinct learned tokens",
    ))
    return out


def check_oom_cell(g, spec, model_name: str, sampler_name: str) -> Check:
    """The paper's ``*`` cell: this sampler's tables must not fit the
    paper-scaled memory budget of this dataset."""
    model = make_model(model_name)
    s = make_sampler(
        sampler_name, g, model, np.random.default_rng(0), paper_budget(spec, g)
    )
    try:
        s.prepare()
    except MemoryBudgetExceeded as e:
        return (f"oom_cell[{sampler_name}]", True, str(e))
    return (f"oom_cell[{sampler_name}]", False, "prepare() fit the budget")
