"""Exact tree edit distance by dynamic programming, with threshold cutoff.

The recurrence works on pre-order spans: a subforest is a contiguous id range
[i..e) that is a union of complete sibling trees.  Deleting the leftmost root
keeps the range contiguous ([i+1..e)), and matching the leftmost roots splits
both ranges at the subtree ends.  Values saturate at a cap (k+1 for a
threshold query), and a state whose size difference already reaches the cap
is cut without recursion, which keeps the explored region near the diagonal.

A state whose two forests have equal sizes and are equal has value 0 and
is answered without pushing its children and right-sibling states: ted = 0
iff the forests are equal, and equal forests have equal pre-order
sequences of (label, subtree size), which also determine them.  The check
is O(1): for each shift d = gi - fi met at such a state, one numpy pass
over F builds the prefix count of the positions t where F's (label, size)
differs from G's at t + d, and the state is equal iff the count is the
same at both ends of F's range.  Tables are built only for shifts met, at
most one per shift in (-|F|, |G|) and never more than the states explored,
each |F| + 1 int64 entries read through a memoryview.

Every other state solves its match-roots branch first.  A distance is at
least the size difference of its two forests, so the delete and insert
branches are bounded below by the state's size difference alone (2 when
the sizes are equal, and also 2 at a size difference of 1 unless the
branch that leaves equal sizes leaves equal forests, which the same check
decides).  When the match branch is within that bound, it is the exact
(capped) value and the delete and insert states are never explored.  On
similar forests the explored region then hugs the paths from the roots to
the edits, with every shared subforest answered in one step.  This module
is the correctness oracle for everything else, so it stays one recurrence
with no heuristics that could change a value.
"""

from __future__ import annotations

import numpy as np

from .forest import LabeledForest

INF = float("inf")


def _label_multiset_bound(F: LabeledForest, G: LabeledForest) -> int:
    """max(|F|, |G|) - (max label-preserving pairing) is a valid lower bound."""
    fa, fc = np.unique(F.labels, return_counts=True)
    ga, gc = np.unique(G.labels, return_counts=True)
    common, fi, gi = np.intersect1d(fa, ga, return_indices=True)
    shared = int(np.minimum(fc[fi], gc[gi]).sum()) if len(common) else 0
    return max(F.n, G.n) - shared


def _mismatch_counts(lab_f: np.ndarray, size_f: np.ndarray,
                     lab_g: np.ndarray, size_g: np.ndarray,
                     d: int) -> memoryview:
    """count[t]: the positions s < t at which F's (label, subtree size)
    differs from G's at s + d, a position with no partner in G counting as
    a difference; an int64 array of |F| + 1 entries read as a memoryview."""
    nf, ng = len(lab_f), len(lab_g)
    lo = max(0, -d)
    hi = max(lo, min(nf, ng - d))
    diff = np.ones(nf, dtype=np.int64)
    diff[lo:hi] = ((lab_f[lo:hi] != lab_g[lo + d:hi + d])
                   | (size_f[lo:hi] != size_g[lo + d:hi + d]))
    count = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum(diff, out=count[1:])
    return memoryview(count)


def _ted_dp(F: LabeledForest, G: LabeledForest, cap: int,
            stats: dict | None = None) -> int:
    """min(cap, ted(F, G)) via saturating leftmost-root DP, match branch first.

    A state (fi, fe, gi, ge) whose two forests have equal sizes and are
    equal has value 0 and is answered at once: ted = 0 iff the forests are
    equal, and equal forests have equal pre-order (label, subtree size)
    sequences, which `equal` compares in O(1).  Any other state first solves
    the match-roots branch sub = [labels differ] + D(children) +
    D(right siblings).  With dd = (fe - fi) - (ge - gi), deleting the left
    root of F leaves size difference dd - 1 and inserting that of G leaves
    dd + 1; a distance is at least its size difference and stored values
    are min(cap, .), so both branches cost at least min(cap + 1, L) with
    L = 2 if dd == 0 else |dd|.  When |dd| == 1 one branch leaves equal
    sizes, and its distance is 0 only if its two forests are equal, so L
    is 2 when `equal` says they differ.  Hence when sub <= L the state's
    value is min(sub, cap) exactly, and the delete and insert states are
    never pushed.

    `equal(a, e, b)` is true iff the node ranges [a..e) of F and
    [b..b + e - a) of G hold equal forests, that is, iff the (label, size)
    sequences agree on that range at shift b - a.  Each shift met gets
    one table on first use, the prefix count of mismatched positions
    (`_mismatch_counts`, one numpy pass over F), and the two ranges agree
    iff the count is the same at both ends.  Tables are built only for
    shifts met at a pair of equal-size forests: at most one per state and
    one per shift in (-|F|, |G|), of 8 (|F| + 1) bytes each.

    `stats`, when given, gains the memo size (`dp_states`) and the number
    of tables built (`dp_tables`), added to any counts already there.
    """
    endf = F.subtree_end.tolist()
    endg = G.subtree_end.tolist()
    labf = F.labels.tolist()
    labg = G.labels.tolist()
    nf, ng = F.n, G.n
    cols = (F.labels, F.subtree_end - np.arange(nf),
            G.labels, G.subtree_end - np.arange(ng))
    tables: dict[int, memoryview] = {}

    def equal(a: int, e: int, b: int) -> bool:
        d = b - a
        count = tables.get(d)
        if count is None:
            count = tables[d] = _mismatch_counts(*cols, d)
        return count[e] == count[a]

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
        if dd == 0 and equal(fi, fe, gi):
            memo[s] = 0
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
            if not equal(a, fe, b):
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
    if stats is not None:
        stats["dp_states"] = stats.get("dp_states", 0) + len(memo)
        stats["dp_tables"] = stats.get("dp_tables", 0) + len(tables)
    return memo[root]


def ted_exact(F: LabeledForest, G: LabeledForest) -> int:
    """Exact unit-cost tree edit distance (relabel/delete/insert).

    The DP runs under the caps 2, 4, 8, ... and the first value below its
    cap is the distance, since a capped run gives min(cap, ted).  A small
    cap cuts every state whose size difference reaches it, so a small
    distance is found near the diagonal; the last cap, |F| + |G| + 1, is
    above every distance.
    """
    if F == G:
        return 0
    top = F.n + G.n + 1
    cap = 2
    while True:
        cap = min(cap, top)
        val = _ted_dp(F, G, cap)
        if val < cap:
            return val
        cap *= 2


def ted_threshold(F: LabeledForest, G: LabeledForest, k,
                  stats: dict | None = None) -> int | float:
    """ted(F, G) if it is at most k, INF otherwise.  `stats`, when given,
    gains the DP's work counts (see `_ted_dp`) if the DP runs."""
    if k < 0:
        raise ValueError("threshold must be non-negative")
    if F == G:
        return 0
    # ted(F, G) <= |F| + |G|, so the clamp changes no answer and keeps an
    # unbounded k (INF included) out of int()
    k = int(min(k, F.n + G.n))
    if abs(F.n - G.n) > k or _label_multiset_bound(F, G) > k:
        return INF
    val = _ted_dp(F, G, k + 1, stats)
    return val if val <= k else INF
