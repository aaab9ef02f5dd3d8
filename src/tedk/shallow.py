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
from .errors import ContractError, CrossingMatchingError, NoAlignmentError
from .forest import LabeledForest, LabelInterner
from .horizontal import sync_reductions
from .labeling import JointLabeling, lookahead_refine
from .oracle import INF, ted_threshold
from .partial import partial_reduce, validate_matching


def lift_position_matching(F: LabeledForest, G: LabeledForest,
                           pairs: np.ndarray) -> np.ndarray:
    """Node pairs whose both parentheses appear in the position-pair set."""
    to_y = np.full(2 * F.n, -1, dtype=np.int64)
    if len(pairs):
        to_y[pairs[:, 0]] = pairs[:, 1]
    yo = to_y[F.o]
    yc = to_y[F.c]
    ok = (yo >= 0) & (yc >= 0)
    if not ok.any():
        return np.empty((0, 2), dtype=np.int64)
    node_at = G.position_index().node_at
    u = np.flatnonzero(ok)
    v = node_at[yo[u]]
    good = (G.o[v] == yo[u]) & (G.c[v] == yc[u])
    return np.stack([u[good], v[good]], axis=1)


def shallow_ted(F: LabeledForest, G: LabeledForest, h: int, k: int,
                interner: LabelInterner, base: int,
                audit: bool = False) -> int | float:
    """ted_{<=k}(F, G) for forests of height at most h."""
    if h < 1 or k < 1:
        raise ValueError("need h >= 1 and k >= 1")
    if F.height() > h or G.height() > h:
        raise ValueError("forest height exceeds the stated bound")
    if abs(F.n - G.n) > k:
        return INF
    F1, G1 = sync_reductions(F, G, k)
    lam = lookahead_refine(F1, G1, JointLabeling.base(F1, G1), h, base,
                           audit=audit)
    seq_f = F1.paren(lam.f).codes
    seq_g = G1.paren(lam.g).codes
    kk, w, e = 2 * h * k, 2 * k, 18 * k
    try:
        shared = common_matching_core(seq_f, seq_g, kk, w, e)
    except NoAlignmentError:
        return INF
    M = lift_position_matching(F1, G1, shared)
    allowed_loss = 15 * (18 * k) * (2 * h * k) ** 2 * (2 * k)
    if len(M) < F1.n - allowed_loss:
        return INF
    try:
        validate_matching(F1, G1, M)
    except CrossingMatchingError:
        return INF
    F2, G2 = partial_reduce(F1, G1, M, k, interner)
    bound = (k + 2) * (5 * (F1.n + G1.n - 2 * len(M)) + 4)
    if F2.n + G2.n > bound:
        raise ContractError(f"residual of {F2.n + G2.n} nodes exceeds the "
                            f"partial-matching size bound {bound}")
    return ted_threshold(F2, G2, k)
