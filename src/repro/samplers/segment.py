"""Ragged segmented numpy helpers.

Vectorized operations over ragged per-node segments, among them the
one inverse-CDF draw (:func:`window_choice`) of every sampler. Everything
here is allocation-light numpy with no Python-per-segment loops.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph


def ragged_arange(lens: np.ndarray) -> np.ndarray:
    """``[0..lens[0]), [0..lens[1]), ...`` concatenated."""
    lens = np.asarray(lens, dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.zeros(lens.shape[0], dtype=np.int64)
    np.cumsum(lens[:-1], out=starts[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(starts, lens)


def segment_ids(lens: np.ndarray) -> np.ndarray:
    """``[0]*lens[0] + [1]*lens[1] + ...``"""
    return np.repeat(np.arange(lens.shape[0], dtype=np.int64), lens)


def window_choice(
    cum: np.ndarray, lo: np.ndarray, hi: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """For each ``i``, the offset from ``lo[i]`` of an entry of the
    window ``[lo[i], hi[i])`` of running sum ``cum`` (entry ``j`` weighs
    ``cum[j + 1] - cum[j]``), drawn ∝ weight by inverse CDF with uniform
    ``u[i]``; ``-1`` where the window's mass is ≤ 1e-300 (or it is empty).

    A vectorized bisection confined to each window: ⌈log₂ max width⌉
    rounds, each gathering one entry of ``cum`` per walker, so a draw
    costs O(log d) however long ``cum`` is. It returns the offset of
    ``searchsorted(cum, target, 'right') - 1`` clipped to the window:
    the last ``j`` in ``[lo, hi)`` with ``cum[j] <= target``, where
    ``cum[lo] <= target`` holds from the start."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    base = cum[lo]
    totals = cum[hi] - base
    target = base + u * totals
    # Steps 2^(k-1), ..., 1 with 2^k >= every width: each round moves
    # ``pos`` forward by the step where that entry is still in the
    # window and at most the target (``cand`` is capped at ``hi`` only
    # to stay inside ``cum``).
    pos = lo.copy()
    for k in reversed(range(int((hi - lo).max(initial=1) - 1).bit_length())):
        cand = np.minimum(pos + (1 << k), hi)
        step = cum.take(cand) <= target
        step &= cand < hi
        np.copyto(pos, cand, where=step)
    return np.where(totals > 1e-300, pos - lo, -1)


def segmented_choice(
    weights: np.ndarray, lens: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Weighted within-segment choice: for each segment ``i`` draw an
    offset in ``[0, lens[i])`` with probability proportional to its
    weight, using uniforms ``u[i]``. Returns ``-1`` for segments whose
    total weight is ~0 (no valid candidate).

    One global ``cumsum`` + one :func:`window_choice` — the inverse-CDF
    scan of the paper's *direct* edge sampler, vectorized.
    """
    cs = np.concatenate([[0.0], np.cumsum(weights, dtype=np.float64)])
    ends = np.cumsum(lens)
    return window_choice(cs, ends - lens, ends, u)


def segmented_argmax(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """For each segment ``i`` of ``x`` (``lens[i]`` values), the offset
    of its first largest value, as ``np.argmax`` picks it; ``-1`` where
    the segment is empty or its largest value is not positive."""
    sid = segment_ids(np.asarray(lens, dtype=np.int64))
    top = np.zeros(len(lens))
    np.maximum.at(top, sid, x)
    hit = (x == top[sid]) & (x > 0)
    first = np.full(len(lens), np.iinfo(np.int64).max)
    np.minimum.at(first, sid[hit], ragged_arange(lens)[hit])
    return np.where(top > 0, first, -1)


def neighbor_dyn_weights(
    g: CSRGraph, model: RandomWalkModel, wk: WalkerBatch
) -> tuple[np.ndarray, np.ndarray]:
    """Dynamic weights of all neighbors of each walker of ``wk``, one
    segment per walker in CSR slot order, and the walkers' degrees."""
    lens = g.degree(wk.cur)
    sid = segment_ids(lens)
    cand_eidx = g.indptr[wk.cur][sid] + ragged_arange(lens)
    return model.dyn_weight(g, wk.take(sid), cand_eidx), lens
