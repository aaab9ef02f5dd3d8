"""Bounded tree edit distance for height-bounded forests.

For forests of height at most h, greedy alignments over the depth-h
look-ahead labeling share almost every match, so one witness yields a node
matching M forced in every optimum; the partial-matching reduction then
shrinks the instance to poly(h, k) nodes for the exact solver.  Horizontal
reduction runs first so the shared-match extraction's periodicity
precondition holds (vertical periodicity cannot survive depth-h look-ahead
labels, which are distinct along any root-to-leaf path).
"""

from __future__ import annotations

import numpy as np

from .alignment import common_matching_core
from .context import QueryContext
from .errors import ContractError, NoAlignmentError
from .forest import LabeledForest
from .horizontal import sync_reductions
from .labeling import lookahead_refine
from .oracle import INF, ted_threshold
from .partial import partial_reduce


def lift_position_matching(F: LabeledForest, G: LabeledForest,
                           pairs: np.ndarray) -> np.ndarray:
    """Node pairs whose both parentheses appear in the position-pair set."""
    to_y = np.full(2 * F.n, -1, dtype=np.int64)
    if len(pairs):
        to_y[pairs[:, 0]] = pairs[:, 1]
    yo = to_y[F.o]
    yc = to_y[F.c]
    u = np.flatnonzero((yo >= 0) & (yc >= 0))
    v = G.node_at[yo[u]]
    good = (G.o[v] == yo[u]) & (G.c[v] == yc[u])
    return np.stack([u[good], v[good]], axis=1)


def shallow_ted(F: LabeledForest, G: LabeledForest, h: int,
                ctx: QueryContext) -> int | float:
    """ted_{<=k}(F, G) for forests of height at most h, for the threshold
    k = ctx.k and under the fingerprint base of the query context `ctx`.
    The kernel DP's work counts are added to `ctx.timings`.

    The shared matching M misses at most 15·e·kk^2·w nodes of F1 (kk = 2hk,
    w = 2k, e = 18k), else ContractError.  A missed node has a parenthesis
    the witness leaves unmatched (at most kk), one in a trimmed fragment
    prefix (at most (kk + 1)·7·w·kk·e) or a breakpoint in its span (at most
    kk·h, F1 being h high): the sum is within the bound as kk >= h + 1.
    When the core is empty because the sequences are too short for a match
    to outlive the trim = 7·w·kk·e, no witness is built; then the width exit
    gives 2·F1.n <= min(2·F1.n, 2·G1.n) + w <= trim + w, so F1.n <= (trim +
    w)/2 <= 15·e·kk^2·w as well.

    INF is returned before the DP when the core raises NoAlignmentError:
    the sequence lengths differ by more than w, or a witness is built and
    none fits the budget.  Below the trim scale no witness is built, and the
    exact DP answers INF itself.
    """
    k = ctx.k
    if h < 1:
        raise ValueError("need h >= 1")
    if F.height() > h or G.height() > h:
        raise ValueError("forest height exceeds the stated bound")
    F1, G1 = sync_reductions(F, G, ctx)
    lam = lookahead_refine(F1, G1, h, ctx)
    seq_f = F1.relabeled_codes(lam.f)
    seq_g = G1.relabeled_codes(lam.g)
    kk, w, e = 2 * h * k, 2 * k, 18 * k
    try:
        shared = common_matching_core(seq_f, seq_g, kk, w, e)
    except NoAlignmentError:
        return INF
    M = lift_position_matching(F1, G1, shared)
    allowed_loss = 15 * e * kk * kk * w
    if len(M) < F1.n - allowed_loss:
        raise ContractError(f"shared matching of {len(M)} pairs misses more "
                            f"than {allowed_loss} of {F1.n} nodes")
    # partial_reduce raises no CrossingMatchingError here: M lifts the
    # matched positions of one monotone alignment, so it increases strictly
    # on both sides, and each of its pairs holds equal look-ahead codes,
    # whose classes refine the labels (a checked contract).  A raise is an
    # internal fault, not distance > k.
    F2, G2 = partial_reduce(F1, G1, M, ctx)
    bound = (k + 2) * (5 * (F1.n + G1.n - 2 * len(M)) + 4)
    if F2.n + G2.n > bound:
        raise ContractError(f"residual of {F2.n + G2.n} nodes exceeds the "
                            f"partial-matching size bound {bound}")
    return ted_threshold(F2, G2, k, stats=ctx.timings)
