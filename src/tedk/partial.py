"""Reductions from matching-constrained distance to plain bounded distance.

Given forests F, G and a non-crossing matching M of node pairs that any
candidate alignment must match, three chained rewrites of the two code
strings turn the constrained problem into an unconstrained one: height
flattening (every matched node becomes a leaf of a decomposed piece,
single-node separator trees keep pieces aligned), pruning of redundant
matched leaf pairs (a pair whose immediate left siblings are also matched
is implied), and a uniqueness gadget (k+1 fresh-labeled children force any
cost-<=k alignment to match the pair).  Between the rewrites the matching
travels as an (m, 2) array P of the opening positions of matched leaf
pairs; an open followed at once by the close of its label is a leaf, so a
leaf test reads two codes.  The rewrites take no query context and build
no forest: `partial_reduce` chains them and pairs each output string once,
through the query context (`context.QueryContext.forest`).  When the two
strings are one array and P is the diagonal (G is F and M pairs each node
with itself), each rewrite computes F's side once and G's output is F's
(`_one_side`); the output contracts check G's side through F's.

Fresh labels need only differ from the labels of the two strings at hand, so
each rewrite numbers its own from one past the largest of those
(`_fresh_base`); no label table is consulted or extended.  Nested reductions
(a sampling round's, then its shallow solver's) stack their fresh labels
above each other, since each one's input holds the labels of the one before.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, CrossingMatchingError
from .forest import _stable_order, last_at_level

if TYPE_CHECKING:
    from .context import QueryContext
    from .forest import LabeledForest


def as_matching(M) -> np.ndarray:
    """M as an (m, 2) int64 array; ValueError unless M holds integers."""
    M = np.asarray(M)
    if M.size == 0:
        return M.astype(np.int64).reshape(0, 2)
    if not np.issubdtype(M.dtype, np.integer):
        raise ValueError(f"matching entries must be integers, not {M.dtype}")
    if M.ndim != 2 or M.shape[1] != 2:
        raise ValueError("matching must be an (m, 2) array of pairs")
    return M.astype(np.int64, copy=False)


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


def _fresh_base(codes_f: np.ndarray, codes_g: np.ndarray) -> int:
    """The first label past every label of the two strings (both
    non-empty): the largest code holds the largest label."""
    return 1 + (int(max(codes_f.max(), codes_g.max())) >> 1)


def _leaves(codes: np.ndarray, at: np.ndarray) -> bool:
    """True when each position in `at` opens a leaf: an open followed at
    once by the close of its label."""
    return bool(((codes[at] & 1) == 0).all()
                and (codes[at + 1] == codes[at] + 1).all())


def _without_leaves(codes: np.ndarray, at: np.ndarray):
    """(codes less the leaves opening at `at`, each old position's new
    one): clearing a leaf's two positions deletes it, and a kept position's
    new one is its rank among the kept."""
    keep = np.ones(len(codes), dtype=bool)
    keep[at] = False
    keep[at + 1] = False
    return codes[keep], np.cumsum(keep) - 1


def _one_side(codes_f: np.ndarray, codes_g: np.ndarray, P) -> bool:
    """True when the two strings are one array and P pairs each entry with
    itself: G's side of a rewrite is then F's, and is computed once."""
    return codes_g is codes_f and np.array_equal(P[:, 0], P[:, 1])


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
    between consecutive classes; returns (codes, each input position's
    output position, each separator's opening position)."""
    n = F.n
    pos_cls = np.empty(2 * n, dtype=np.int64)
    pos_cls[F.o] = cls
    pos_cls[F.c] = cls
    perm = _stable_order(pos_cls)
    sorted_cls = pos_cls[perm]
    out = np.empty(2 * n + 2 * m, dtype=np.int64)
    # each sorted position is shifted right by two chars per preceding separator
    out_pos = np.arange(2 * n, dtype=np.int64) + 2 * sorted_cls
    out[out_pos] = F.codes[perm]
    seg_end = np.cumsum(np.bincount(sorted_cls, minlength=m + 1))
    sep_at = seg_end[:-1] + 2 * np.arange(m, dtype=np.int64)
    out[sep_at] = sep_code_open
    out[sep_at + 1] = sep_code_close
    pos = np.empty(2 * n, dtype=np.int64)
    pos[perm] = out_pos
    return out, pos, sep_at


def reduce_height(F: LabeledForest, G: LabeledForest, M):
    """Flatten matched nodes into leaves of decomposed pieces.

    Returns (codes_f, codes_g, P): strings of |F| + |M| and |G| + |M|
    nodes, and the opening positions of their 2|M| matched pairs (M's
    nodes, then the separators), all leaves; the constrained distance is
    unchanged.  An empty M returns F's and G's strings.
    """
    M = validate_matching(F, G, M)
    m = len(M)
    if m == 0:
        return F.codes, G.codes, M
    M = M[np.argsort(F.o[M[:, 0]], kind="stable")]
    sep = _fresh_base(F.codes, G.codes)
    so, sc = sep << 1, (sep << 1) | 1
    codes_f, pos_f, seps_f = _assemble_with_separators(
        F, _marked_class(F, M[:, 0]), m, so, sc)
    codes_g, pos_g, seps_g = (
        (codes_f, pos_f, seps_f) if _one_side(F.codes, G.codes, M)
        else _assemble_with_separators(G, _marked_class(G, M[:, 1]), m, so, sc))
    P = np.stack([np.concatenate([pos_f[F.o[M[:, 0]]], seps_f]),
                  np.concatenate([pos_g[G.o[M[:, 1]]], seps_g])], axis=1)
    if len(codes_f) != 2 * (F.n + m) or len(codes_g) != 2 * (G.n + m):
        raise ContractError("reduce_height must add one separator per pair")
    if not (_leaves(codes_f, P[:, 0]) and _leaves(codes_g, P[:, 1])):
        raise ContractError("reduce_height left a matched node with children")
    return codes_f, codes_g, P


def prune_redundant(codes_f: np.ndarray, codes_g: np.ndarray, P):
    """Drop matched leaf pairs whose immediate left siblings are also
    matched; returns (codes_f, codes_g, P) for the rest.

    The surviving pairs satisfy |P'| <= (2/5)(|F'| + |G'| + 1).
    """
    P = as_matching(P)
    if not (_leaves(codes_f, P[:, 0]) and _leaves(codes_g, P[:, 1])):
        raise ValueError("prune_redundant needs a leaves-only matching")
    if len(P) == 0:
        return codes_f, codes_g, P
    # matched nodes are leaves, two positions each: a pair's left siblings
    # are matched to each other iff the previous pair in F's order opens
    # two positions before it on both sides (the sort keys are distinct)
    order = np.argsort(P[:, 0])
    redundant = np.zeros(len(P), dtype=bool)
    redundant[order[1:]] = ((np.diff(P[order, 0]) == 2)
                            & (np.diff(P[order, 1]) == 2))
    if redundant.any():
        one = _one_side(codes_f, codes_g, P)
        codes_f, new_f = _without_leaves(codes_f, P[redundant, 0])
        codes_g, new_g = ((codes_f, new_f) if one
                          else _without_leaves(codes_g, P[redundant, 1]))
        kept = P[~redundant]
        P = np.stack([new_f[kept[:, 0]], new_g[kept[:, 1]]], axis=1)
    # 2(|F'| + |G'| + 1), with two codes per node
    if 5 * len(P) > len(codes_f) + len(codes_g) + 2:
        raise ContractError("pruned matching exceeds (2/5)(|F'| + |G'| + 1)")
    return codes_f, codes_g, P


def gadget(codes_f: np.ndarray, codes_g: np.ndarray, P, k: int):
    """Attach k+1 uniquely labeled children to each matched leaf pair;
    returns the two strings."""
    P = as_matching(P)
    m = len(P)
    if m == 0:
        return codes_f, codes_g
    if not (_leaves(codes_f, P[:, 0]) and _leaves(codes_g, P[:, 1])):
        raise ValueError("gadget needs a leaves-only matching")
    slots = k + 1
    base = _fresh_base(codes_f, codes_g)
    syms = base + np.arange(m * slots, dtype=np.int64).reshape(m, slots)
    block = np.empty((m, 2 * slots), dtype=np.int64)
    block[:, 0::2] = syms << 1
    block[:, 1::2] = (syms << 1) | 1

    def attach(codes: np.ndarray, at: np.ndarray) -> np.ndarray:
        # each pair's block goes right before its leaf's close
        out = np.insert(codes, np.repeat(at + 1, 2 * slots), block.ravel())
        if len(out) != len(codes) + 2 * slots * m:
            raise ContractError("gadget must add k+1 children per pair")
        # a string's height is its largest prefix balance
        hi, ho = (np.cumsum(1 - 2 * (s & 1)).max() for s in (codes, out))
        if ho > hi + 1:
            raise ContractError("gadget raised a forest's height by more than 1")
        return out

    out_f = attach(codes_f, P[:, 0])
    out_g = out_f if _one_side(codes_f, codes_g, P) else attach(codes_g, P[:, 1])
    return out_f, out_g


def partial_reduce(F: LabeledForest, G: LabeledForest, M, ctx: QueryContext):
    """Chain reduce_height -> prune_redundant -> gadget for the threshold
    k = ctx.k, then pair each output string once through the query context
    `ctx`; an empty M returns F and G."""
    codes_f, codes_g, P = reduce_height(F, G, M)
    codes_f, codes_g = gadget(*prune_redundant(codes_f, codes_g, P), ctx.k)
    if len(P) == 0:
        return F, G
    return ctx.forest(codes_f), ctx.forest(codes_g)
