"""Exact tree edit distance by dynamic programming, with threshold cutoff.

The recurrence works on pre-order spans: a subforest is a contiguous id range
[i..e) that is a union of complete sibling trees.  Deleting the leftmost root
keeps the range contiguous ([i+1..e)), and matching the leftmost roots splits
both ranges at the subtree ends.  Values saturate at a cap (k+1 for a
threshold query), and a state whose size difference already reaches the cap
is cut without recursion, which keeps the explored region near the diagonal.

Each state solves its match-roots branch first.  A distance is at least the
size difference of its two forests, so the delete and insert branches are
bounded below by the state's size difference alone (2 when the sizes are
equal, and also 2 at a size difference of 1 unless the branch that leaves
equal sizes leaves equal forests).  When the match branch is within that
bound, it is the exact (capped) value and the delete and insert states are
never explored.  On similar forests almost every state ends there, so the
explored region follows the edits rather than the whole size-difference
band.  This module is the correctness oracle for everything else, so it
stays one recurrence with no heuristics that could change a value.
"""

from __future__ import annotations

import numpy as np

from .errors import CrossingMatchingError
from .forest import LabeledForest, LabelInterner
from .partial import gadget, reduce_height, validate_matching

INF = float("inf")


def _label_multiset_bound(F: LabeledForest, G: LabeledForest) -> int:
    """max(|F|, |G|) - (max label-preserving pairing) is a valid lower bound."""
    fa, fc = np.unique(F.labels, return_counts=True)
    ga, gc = np.unique(G.labels, return_counts=True)
    common, fi, gi = np.intersect1d(fa, ga, return_indices=True)
    shared = int(np.minimum(fc[fi], gc[gi]).sum()) if len(common) else 0
    return max(F.n, G.n) - shared


def _ted_dp(F: LabeledForest, G: LabeledForest, cap: int) -> int:
    """min(cap, ted(F, G)) via saturating leftmost-root DP, match branch first.

    A state (fi, fe, gi, ge) first solves the match-roots branch
    sub = [labels differ] + D(children) + D(right siblings).  With
    dd = (fe - fi) - (ge - gi), deleting the left root of F leaves size
    difference dd - 1 and inserting that of G leaves dd + 1; a distance is at
    least its size difference and stored values are min(cap, .), so both
    branches cost at least min(cap + 1, L) with L = 2 if dd == 0 else |dd|.
    When |dd| == 1 one branch leaves equal sizes, and its distance is 0 only
    if its two forests are equal (same pre-order labels and subtree sizes),
    so L is 2 when they differ.  Hence when sub <= L the state's value is
    min(sub, cap) exactly, and the delete and insert states are never pushed.
    """
    endf = F.subtree_end.tolist()
    endg = G.subtree_end.tolist()
    labf = F.labels.tolist()
    labg = G.labels.tolist()
    nf, ng = F.n, G.n
    # a forest is its pre-order sequence of (label, subtree size), so the
    # node ranges [a..a+m) of F and [b..b+m) of G hold equal forests iff
    # these bytes agree from 16a and from 16b on
    shape_f = np.stack([F.labels, F.subtree_end - np.arange(nf)], axis=1)
    shape_g = np.stack([G.labels, G.subtree_end - np.arange(ng)], axis=1)
    bytes_f = shape_f.astype(np.int64).tobytes()
    bytes_g = shape_g.astype(np.int64).tobytes()
    memo: dict[tuple[int, int, int, int], int] = {}
    root = (0, nf, 0, ng)
    stack = [root]
    push = stack.append
    while stack:
        s = stack[-1]
        if s in memo:
            stack.pop()
            continue
        fi, fe, gi, ge = s
        if fi == fe:
            memo[s] = min(ge - gi, cap)
            stack.pop()
            continue
        if gi == ge:
            memo[s] = min(fe - fi, cap)
            stack.pop()
            continue
        dd = (fe - fi) - (ge - gi)
        if abs(dd) >= cap:
            memo[s] = cap
            stack.pop()
            continue
        fend, gend = endf[fi], endg[gi]
        kids = (fi + 1, fend, gi + 1, gend)
        right = (fend, fe, gend, ge)
        r1 = memo.get(kids)
        r2 = memo.get(right)
        if r1 is None or r2 is None:
            if r1 is None:
                push(kids)
            if r2 is None:
                push(right)
            continue
        sub = r1 + r2 + (labf[fi] != labg[gi])
        low = abs(dd) or 2
        if sub == 2 and low == 1:
            a, b = (fi + 1, gi) if dd == 1 else (fi, gi + 1)
            if bytes_f[16 * a:16 * fe] != bytes_g[16 * b:16 * ge]:
                low = 2
        if sub <= low:
            memo[s] = sub if sub < cap else cap
            stack.pop()
            continue
        dele = (fi + 1, fe, gi, ge)
        ins = (fi, fe, gi + 1, ge)
        r3 = memo.get(dele)
        r4 = memo.get(ins)
        if r3 is None or r4 is None:
            if r3 is None:
                push(dele)
            if r4 is None:
                push(ins)
            continue
        memo[s] = min(1 + r3, 1 + r4, sub, cap)
        stack.pop()
    return memo[root]


def ted_exact(F: LabeledForest, G: LabeledForest) -> int:
    """Exact unit-cost tree edit distance (relabel/delete/insert)."""
    if F.paren() == G.paren():
        return 0
    return _ted_dp(F, G, F.n + G.n + 1)


def ted_threshold(F: LabeledForest, G: LabeledForest, k) -> int | float:
    """ted(F, G) if it is at most k, INF otherwise."""
    if k < 0:
        raise ValueError("threshold must be non-negative")
    if F.paren() == G.paren():
        return 0
    k = int(k)
    if abs(F.n - G.n) > k or _label_multiset_bound(F, G) > k:
        return INF
    val = _ted_dp(F, G, k + 1)
    return val if val <= k else INF


def ted_constrained(F: LabeledForest, G: LabeledForest, M,
                    interner: LabelInterner | None = None) -> int | float:
    """Minimum cost over tree alignments matching every pair of M.

    INF when M is not a non-crossing label-matching set.  Implemented by
    height flattening plus the uniqueness gadget at an unconstrained
    threshold, then the exact DP.
    """
    try:
        M = validate_matching(F, G, M)
    except (CrossingMatchingError, ValueError):
        return INF
    if len(M) == 0:
        return ted_exact(F, G)
    if interner is None:
        interner = LabelInterner()
        interner.fresh_block(int(max(F.labels.max(), G.labels.max())) + 1,
                             "pad")
    F1, G1, M1 = reduce_height(F, G, M, interner)
    k_free = F1.n + G1.n
    F2, G2 = gadget(F1, G1, M1, k_free, interner)
    return ted_exact(F2, G2)
