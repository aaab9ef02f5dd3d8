"""Reductions from matching-constrained distance to plain bounded distance.

Given forests F, G and a non-crossing matching M of node pairs that any
candidate alignment must match, three chained constructions turn the
constrained problem into an unconstrained one: height flattening (every
matched node becomes a leaf of a decomposed piece, single-node separator
trees keep pieces aligned), pruning of redundant matched leaf pairs (a pair
whose immediate left siblings are also matched is implied), and a uniqueness
gadget (k+1 fresh-labeled children force any cost-<=k alignment to match the
pair).  All constructions are vectorized over the parenthesis sequences,
and each takes its output forests from the query context
(`context.QueryContext.forest`): an output string equal to one the context
holds (both outputs, when F's and G's strings are equal) gets that forest,
so each distinct string is paired once.  When G is F and M is the
diagonal, each construction computes F's side once and G's output is F's
(`_one_side`); the output contracts still check both.

Fresh labels need only differ from the labels of the two forests at hand, so
each construction numbers its own from one past the largest of those
(`_fresh_base`); no label table is consulted or extended.  Nested reductions
(a sampling round's, then its shallow solver's) stack their fresh labels
above each other, since each one's input holds the labels of the one before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, CrossingMatchingError
from .forest import LabeledForest, _stable_order, last_at_level

if TYPE_CHECKING:
    from .context import QueryContext


def as_matching(M) -> np.ndarray:
    M = np.asarray(M, dtype=np.int64)
    if M.size == 0:
        return M.reshape(0, 2)
    if M.ndim != 2 or M.shape[1] != 2:
        raise ValueError("matching must be an (m, 2) array of node pairs")
    return M


def validate_matching(F: LabeledForest, G: LabeledForest, M) -> np.ndarray:
    """Check labels and the non-crossing property; returns M as an array."""
    M = as_matching(M)
    if len(M) == 0:
        return M
    u, v = M[:, 0], M[:, 1]
    if u.min() < 0 or u.max() >= F.n or v.min() < 0 or v.max() >= G.n:
        raise ValueError("matching refers to nodes outside the forests")
    if not np.array_equal(F.labels[u], G.labels[v]):
        raise CrossingMatchingError("matched nodes must share labels")
    xs = np.concatenate([F.o[u], F.c[u]])
    ys = np.concatenate([G.o[v], G.c[v]])
    order = np.argsort(xs, kind="stable")
    xs, ys = xs[order], ys[order]
    if len(xs) > 1 and ((np.diff(xs) <= 0).any() or (np.diff(ys) <= 0).any()):
        raise CrossingMatchingError("matching positions cross")
    return M


def _fresh_base(F: LabeledForest, G: LabeledForest) -> int:
    """The first label past every label of F and G (both non-empty)."""
    return 1 + int(max(F.labels.max(), G.labels.max()))


def _leaves(F: LabeledForest, nodes: np.ndarray) -> bool:
    return bool((F.c[nodes] == F.o[nodes] + 1).all())


def _without_leaves(F: LabeledForest, leaves: np.ndarray,
                    ctx: QueryContext):
    """(F less the given leaves, each old node's new id): clearing a leaf's
    two positions deletes it, and a kept node's new id is its rank among the
    kept openings."""
    keep = np.ones(2 * F.n, dtype=bool)
    keep[F.o[leaves]] = False
    keep[F.c[leaves]] = False
    return ctx.forest(F.codes[keep]), np.cumsum(keep[F.o]) - 1


def _one_side(F: LabeledForest, G: LabeledForest, M: np.ndarray) -> bool:
    """True when G is F and M pairs each node with itself: G's side of a
    construction is then F's, and is computed once."""
    return G is F and np.array_equal(M[:, 0], M[:, 1])


def _marked_class(F: LabeledForest, marked: np.ndarray) -> np.ndarray:
    """class_of[u]: 0 if u has no marked proper ancestor, else 1 + the index
    (into `marked`, in the given order) of the nearest marked proper ancestor.

    Ranked in pre-order, the marked nodes form a sequence whose level is the
    marked nesting depth; u's nearest marked ancestor is the last marked node
    before u one marked level above u (`last_at_level`).  The marked nodes
    must be distinct.
    """
    n = F.n
    cls = np.zeros(n, dtype=np.int64)
    if len(marked) == 0 or n == 0:
        return cls
    rank = np.argsort(marked, kind="stable")
    ranked = marked[rank]
    # number of marked proper ancestors of u = marked intervals open at o(u):
    # marked nodes before u in pre-order, less marked closes before o(u)
    is_m = np.zeros(n, dtype=bool)
    is_m[marked] = True
    opens_before = np.cumsum(is_m) - is_m
    closes = np.zeros(2 * n, dtype=bool)
    closes[F.c[marked]] = True
    md = opens_before - np.cumsum(closes)[F.o]
    nodes = np.flatnonzero(md > 0)
    at = last_at_level(md[ranked], md[nodes] - 1, opens_before[nodes])
    cls[nodes] = rank[at] + 1
    return cls


def _assemble_with_separators(F: LabeledForest, cls: np.ndarray, m: int,
                              sep_code_open: int, sep_code_close: int):
    """Reorder F's characters by (class, position) with a separator pair
    between consecutive classes; returns (codes, new_id_of_old_node,
    separator_new_ids)."""
    n = F.n
    pos_cls = np.empty(2 * n, dtype=np.int64)
    pos_cls[F.o] = cls
    pos_cls[F.c] = cls
    perm = _stable_order(pos_cls)
    sorted_codes = F.codes[perm]
    sorted_cls = pos_cls[perm]
    out_len = 2 * n + 2 * m
    out = np.empty(out_len, dtype=np.int64)
    # each sorted position is shifted right by two chars per preceding separator
    out_pos = np.arange(2 * n, dtype=np.int64) + 2 * sorted_cls
    out[out_pos] = sorted_codes
    counts = np.bincount(sorted_cls, minlength=m + 1)
    seg_end = np.cumsum(counts)
    sep_at = seg_end[:-1] + 2 * np.arange(m, dtype=np.int64)
    out[sep_at] = sep_code_open
    out[sep_at + 1] = sep_code_close
    # new pre-order id of old node u = rank of its open among output opens
    is_open_out = (out & 1) == 0
    open_rank = np.cumsum(is_open_out) - 1
    inv_perm_pos = np.empty(2 * n, dtype=np.int64)
    inv_perm_pos[perm] = out_pos
    new_id = open_rank[inv_perm_pos[F.o]]
    sep_ids = open_rank[sep_at]
    return out, new_id, sep_ids


def reduce_height(F: LabeledForest, G: LabeledForest, M, ctx: QueryContext):
    """Flatten matched nodes into leaves of decomposed pieces.

    Returns (F', G', M') with |F'| = |F| + |M|, |M'| = 2|M|, matched nodes
    all leaves, and the constrained distance unchanged.
    """
    M = validate_matching(F, G, M)
    m = len(M)
    if m == 0:
        return F, G, M
    order = np.argsort(F.o[M[:, 0]], kind="stable")
    M = M[order]
    sep = _fresh_base(F, G)
    so, sc = sep << 1, (sep << 1) | 1
    codes_f, newf, seps_f = _assemble_with_separators(
        F, _marked_class(F, M[:, 0]), m, so, sc)
    if _one_side(F, G, M):
        codes_g, newg, seps_g = codes_f, newf, seps_f
    else:
        codes_g, newg, seps_g = _assemble_with_separators(
            G, _marked_class(G, M[:, 1]), m, so, sc)
    F2 = ctx.forest(codes_f)
    G2 = ctx.forest(codes_g)
    M2 = np.concatenate([
        np.stack([newf[M[:, 0]], newg[M[:, 1]]], axis=1),
        np.stack([seps_f, seps_g], axis=1),
    ])
    if F2.n != F.n + m or G2.n != G.n + m:
        raise ContractError("reduce_height must add one separator per pair")
    if not (_leaves(F2, M2[:, 0]) and _leaves(G2, M2[:, 1])):
        raise ContractError("reduce_height left a matched node with children")
    return F2, G2, M2


def prune_redundant(F: LabeledForest, G: LabeledForest, M,
                    ctx: QueryContext):
    """Drop matched leaf pairs whose immediate left siblings are also matched.

    The surviving matching satisfies |M'| <= (2/5)(|F'| + |G'| + 1).
    """
    M = as_matching(M)
    if not (_leaves(F, M[:, 0]) and _leaves(G, M[:, 1])):
        raise ValueError("prune_redundant needs a leaves-only matching")
    if len(M) == 0:
        return F, G, M

    # matched nodes are leaves, two positions each: a pair's left siblings
    # are matched to each other iff the previous pair in F's order opens
    # two positions before it on both sides (the sort keys are distinct)
    order = np.argsort(F.o[M[:, 0]])
    redundant = np.zeros(len(M), dtype=bool)
    redundant[order[1:]] = ((np.diff(F.o[M[order, 0]]) == 2)
                            & (np.diff(G.o[M[order, 1]]) == 2))
    if not redundant.any():
        F2, G2, M2 = F, G, M
    else:
        F2, new_f = _without_leaves(F, M[redundant, 0], ctx)
        G2, new_g = ((F2, new_f) if _one_side(F, G, M)
                     else _without_leaves(G, M[redundant, 1], ctx))
        kept = M[~redundant]
        M2 = np.stack([new_f[kept[:, 0]], new_g[kept[:, 1]]], axis=1)
    if 5 * len(M2) > 2 * (F2.n + G2.n + 1):
        raise ContractError("pruned matching exceeds (2/5)(|F'| + |G'| + 1)")
    return F2, G2, M2


def gadget(F: LabeledForest, G: LabeledForest, M, ctx: QueryContext):
    """Attach k+1 uniquely labeled children to each matched leaf pair
    (k = ctx.k)."""
    M = as_matching(M)
    m = len(M)
    if m == 0:
        return F, G
    if not (_leaves(F, M[:, 0]) and _leaves(G, M[:, 1])):
        raise ValueError("gadget needs a leaves-only matching")
    slots = ctx.k + 1
    base = _fresh_base(F, G)
    syms = base + np.arange(m * slots, dtype=np.int64).reshape(m, slots)
    block = np.empty((m, 2 * slots), dtype=np.int64)
    block[:, 0::2] = syms << 1
    block[:, 1::2] = (syms << 1) | 1

    def attach(H: LabeledForest, nodes: np.ndarray) -> LabeledForest:
        # each pair's block goes right before its leaf's close
        return ctx.forest(np.insert(
            H.codes, np.repeat(H.c[nodes], 2 * slots), block.ravel()))

    F2 = attach(F, M[:, 0])
    G2 = F2 if _one_side(F, G, M) else attach(G, M[:, 1])
    if F2.n != F.n + slots * m or G2.n != G.n + slots * m:
        raise ContractError("gadget must add k+1 children per pair")
    if F2.height() > F.height() + 1 or G2.height() > G.height() + 1:
        raise ContractError("gadget raised a forest's height by more than 1")
    return F2, G2


def partial_reduce(F: LabeledForest, G: LabeledForest, M,
                   ctx: QueryContext):
    """Chain reduce_height -> prune_redundant -> gadget, for the threshold
    k = ctx.k and with the forests of the query context `ctx`."""
    F1, G1, M1 = reduce_height(F, G, M, ctx)
    F2, G2, M2 = prune_redundant(F1, G1, M1, ctx)
    return gadget(F2, G2, M2, ctx)
