"""Composed periodicity reduction plus the anchor alignment.

Horizontal then vertical reduction preserve the bounded distance exactly; on
the reduced pair, the labeling refined by depth-8k look-ahead and then
2k-compatibility admits a greedy alignment within cost 16k^2 and width 2k
whenever any tree alignment of cost <= k exists.  That witness (the anchor)
stays within a fixed symmetric difference of every optimal tree alignment,
which is what level sampling builds its matchings from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .alignment import greedy_bounded_align
from .context import QueryContext
from .forest import LabeledForest
from .horizontal import sync_reductions
from .labeling import compat_refine, lookahead_refine
from .vertical import vert_sync_reductions


@dataclass
class ReducedPair:
    """Reduced forests, refined sequences, and the anchor (None when no
    alignment fits the budget, which certifies distance > k)."""

    f: LabeledForest
    g: LabeledForest
    seq_f: np.ndarray
    seq_g: np.ndarray
    anchor: np.ndarray | None


def reduce_and_anchor(F: LabeledForest, G: LabeledForest,
                      ctx: QueryContext) -> ReducedPair:
    """Periodicity-reduce (F, G) and compute the anchor alignment for the
    threshold and under the fingerprint base of the query context `ctx`,
    recording both phases' times in `ctx.timings`."""
    k = ctx.k
    t0 = time.perf_counter()
    F1, G1 = sync_reductions(F, G, ctx)
    F2, G2 = vert_sync_reductions(F1, G1, ctx)
    lam_look = lookahead_refine(F2, G2, 8 * k, ctx)
    lam_refined = compat_refine(F2, G2, lam_look, 2 * k)
    seq_f = F2.relabeled_codes(lam_refined.f)
    seq_g = G2.relabeled_codes(lam_refined.g)
    t1 = time.perf_counter()
    anchor = greedy_bounded_align(seq_f, seq_g, 16 * k * k, 2 * k)
    t2 = time.perf_counter()
    ctx.timings["reduction_ms"] = 1e3 * (t1 - t0)
    ctx.timings["anchor_ms"] = 1e3 * (t2 - t1)
    return ReducedPair(F2, G2, seq_f, seq_g, anchor)
