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
the edits, with every shared subforest answered in one step.

The walk down such a path is jumped, as Landau and Vishkin's string
algorithm jumps over a run of equal characters with one longest common
extension query.  Two lemmas, proved in `_ted_dp`, make it exact:
ted(a(X), a(Y)) = ted(X, Y) for equal root labels, and ted(T·X, T·Y) =
ted(X, Y) for a tree T.  So a state whose two ranges are single trees with
equal root labels has the value of a state further down: the first node
on the path toward the end p of the two trees' common pre-order prefix of
(label, relative depth) that is not the last child on both sides, or p
itself.  p comes from one binary search in a prefix-count table built
once per (shift, depth offset) met, like the equality tables, and the
node from a binary search over the two trees' rightmost paths.  The
trigger is O(1) in plain Python.  Since each lemma holds with equality,
min(cap, .) is unchanged and the cap keeps its job of cutting states far
from the diagonal.  This module is the correctness oracle for everything
else, so it stays one recurrence with no heuristics that could change a
value.
"""

from __future__ import annotations

import numpy as np

from .forest import LabeledForest

INF = float("inf")
# descend by a jump only when both rightmost paths hold this many nodes: a
# shorter descent costs fewer DP states than one new prefix table
_JUMP_PATH = 16
# the work counts `_ted_dp` adds to its `stats`
DP_COUNTS = ("dp_states", "dp_tables", "dp_prefix_tables", "dp_jumps")


def _label_multiset_bound(F: LabeledForest, G: LabeledForest) -> int:
    """max(|F|, |G|) - (max label-preserving pairing) is a valid lower bound."""
    fa, fc = np.unique(F.labels, return_counts=True)
    ga, gc = np.unique(G.labels, return_counts=True)
    common, fi, gi = np.intersect1d(fa, ga, return_indices=True)
    shared = int(np.minimum(fc[fi], gc[gi]).sum()) if len(common) else 0
    return max(F.n, G.n) - shared


def _mismatch_counts(lab_f: np.ndarray, key_f: np.ndarray,
                     lab_g: np.ndarray, key_g: np.ndarray,
                     d: int, off: int = 0) -> np.ndarray:
    """count[t]: the positions s < t at which F's (label, key + off)
    differs from G's (label, key) at s + d, a position with no partner in
    G counting as a difference; an int64 array of |F| + 1 entries."""
    nf, ng = len(lab_f), len(lab_g)
    lo = max(0, -d)
    hi = max(lo, min(nf, ng - d))
    diff = np.ones(nf, dtype=bool)
    part = diff[lo:hi]
    np.not_equal(lab_f[lo:hi], lab_g[lo + d:hi + d], out=part)
    part |= key_f[lo:hi] + off != key_g[lo + d:hi + d]
    count = np.zeros(nf + 1, dtype=np.int64)
    np.cumsum(diff, out=count[1:])
    return count


def _ted_dp(F: LabeledForest, G: LabeledForest, cap: int,
            stats: dict | None = None) -> int:
    """min(cap, ted(F, G)) via saturating leftmost-root DP, match branch first.

    A state (fi, fe, gi, ge) whose two forests have equal sizes and are
    equal has value 0 and is answered at once: ted = 0 iff the forests are
    equal, and equal forests have equal pre-order (label, subtree size)
    sequences, which `equal` compares in O(1).

    A state whose two ranges are single trees with equal root labels takes
    the value of one later state, by two lemmas (X, Y forests, T a tree):

    1. ted(a(X), a(Y)) = ted(X, Y) when the roots rF, rG carry one label a.
       The root pair plus a mapping of X to Y is a mapping of the trees, so
       <= holds.  For >=, exchange the root pair into an optimal mapping M,
       never at a higher cost.  If M holds (rF, v) and (u, rG) with
       u != rF, then u is an ancestor of every other F-node of M (it pairs
       with rG, an ancestor of every G-node) and v of every other G-node,
       so (rF, rG) and (u, v) in their place keep a mapping; they cost
       [lab u != lab v], and the two old pairs cost at least that much
       (if lab u != lab v, one of them is not a).  If one root alone is
       paired, with w, pairing it with the other root instead turns
       [lab w != a] + 1 (the other root unpaired) into 1 (w unpaired).  If
       neither is paired, adding their pair saves 2.  So an optimal
       mapping pairs the roots, and the rest of it maps X to Y.
    2. ted(T·X, T·Y) = ted(X, Y).  The identity on T plus a mapping of X
       to Y is a mapping, so <= holds.  In a mapping M of T·X to T·Y, no
       pair sends part of T into Y while another sends part of X into T:
       the first node lies left of the second in F and right of it in G.
       Say no pair sends X into T (the other case is symmetric), and let A
       be M's pairs whose F-node lies in T, so |A| <= |T|.  Putting the
       identity on T in A's place pairs every node of both copies of T and
       unpairs the Y-nodes that A held, a cost change of -2|T| + 2|A| -
       (A's relabels) <= 0.  What is left is the identity on T plus M's
       pairs between X and Y, whose cost is at least ted(X, Y).

    Each step below applies one lemma, so it keeps the exact value, and
    min(cap, .) with it.  With d = gi - fi, let p be the end of the common
    pre-order prefix of the two trees' sequences of (label, depth - root
    depth), at most fe and ge - d: the trees agree in shape and labels on
    [fi..p) and [gi..p + d).  A node of that prefix on the path from fi
    toward p that is the last child of its parent on both sides leaves
    single trees with equal labels: descend into it (lemma 1).  Below the
    last such node, the children that end inside the prefix are equal
    trees on both sides: skip them (lemma 2).  The walk stops at x, the
    first node on the path that is not the last child on both sides, or
    at p itself when every node on the path is, and the state takes the
    value of (x, fe, x + d, ge).

    `descend` finds x without walking.  p comes from one `searchsorted` in
    a prefix-count table of (label, depth) mismatches, built on the first
    use of each (shift d, depth offset) like `equal`'s tables.  The path's
    nodes that are last children on both sides are the nodes before p on
    the rightmost paths of both trees, which close in one run of
    parentheses ending at the root's close; a binary search over that run
    (reading nodes through `node_at`) finds the deepest of them, and a
    walk over its children skips those that end inside the prefix.  When
    either rightmost path holds fewer than `_JUMP_PATH` nodes, the state
    descends one level instead (lemma 1 alone), which costs less than a
    new table; both give the same value.

    Any other state first solves the match-roots branch sub = [labels
    differ] + D(children) + D(right siblings).  With dd = (fe - fi) -
    (ge - gi), deleting the left root of F leaves size difference dd - 1
    and inserting that of G leaves dd + 1; a distance is at least its size
    difference and stored values are min(cap, .), so both branches cost at
    least min(cap + 1, L) with L = 2 if dd == 0 else |dd|.  When |dd| == 1
    one branch leaves equal sizes, and its distance is 0 only if its two
    forests are equal, so L is 2 when `equal` says they differ.  Hence when
    sub <= L the state's value is min(sub, cap) exactly, and the delete
    and insert states are never pushed.  The jump leaves the cap as it is:
    a state whose size difference reaches the cap is still cut, which keeps
    the states near the diagonal wherever no jump applies.

    `equal(a, e, b)` is true iff the node ranges [a..e) of F and
    [b..b + e - a) of G hold equal forests, that is, iff the (label, size)
    sequences agree on that range at shift b - a.  Each shift met gets
    one table on first use, the prefix count of mismatched positions
    (`_mismatch_counts`, one numpy pass over F), and the two ranges agree
    iff the count is the same at both ends.  Tables are built only for
    shifts met at a pair of equal-size forests: at most one per state and
    one per shift in (-|F|, |G|), of 8 (|F| + 1) bytes each.

    `stats`, when given, gains the memo size (`dp_states`), the number of
    equality tables built (`dp_tables`), of prefix tables built
    (`dp_prefix_tables`) and of descents taken (`dp_jumps`), added to any
    counts already there.
    """
    nf, ng = F.n, G.n
    labs_f, labs_g = F.labels, G.labels
    # memoryviews cost nothing to make, where lists cost O(n) to build and
    # the DP often reads only a few of their entries
    endf, endg = memoryview(F.subtree_end), memoryview(G.subtree_end)
    labf, labg = memoryview(labs_f), memoryview(labs_g)
    cols = (labs_f, F.subtree_end - np.arange(nf),
            labs_g, G.subtree_end - np.arange(ng))
    tables: dict[int, memoryview] = {}

    def equal(a: int, e: int, b: int) -> bool:
        d = b - a
        count = tables.get(d)
        if count is None:
            count = tables[d] = memoryview(_mismatch_counts(*cols, d))
        return count[e] == count[a]

    prefix: dict[tuple[int, int], np.ndarray] = {}
    jumps = 0

    def descend(fi: int, fe: int, gi: int, ge: int) -> int:
        nonlocal jumps
        cf, cg = int(F.c[fi]), int(G.c[gi])
        # the rightmost paths' lengths: their nodes close at cf, cf - 1, ...
        hi = min(cf - int(F.o[fe - 1]), cg - int(G.o[ge - 1]))
        if hi < _JUMP_PATH:
            return fi + 1
        jumps += 1
        d = gi - fi
        key = (d, int(G.depth[gi] - F.depth[fi]))
        count = prefix.get(key)
        if count is None:
            count = prefix[key] = _mismatch_counts(
                labs_f, F.depth, labs_g, G.depth, *key)
        p = min(int(np.searchsorted(count, count[fi], "right")) - 1,
                fe, ge - d)
        # the root (level 0) lies before p on both sides; find the first
        # level whose rightmost-path node does not, on either side
        atf, atg = F.node_at, G.node_at
        lo, pd = 1, p + d
        while lo < hi:
            mid = (lo + hi) >> 1
            if atf[cf - mid] < p and atg[cg - mid] < pd:
                lo = mid + 1
            else:
                hi = mid
        # from the first child of the deepest such node, skip the children
        # that end inside the prefix: equal trees on both sides
        x = int(atf[cf - lo + 1]) + 1
        while x < p and endf[x] < p:
            x = endf[x]
        return x

    memo: dict[tuple[int, int, int, int], int] = {}
    via: dict[tuple[int, int, int, int], tuple[int, int, int, int]] = {}
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
        if fend == fe and gend == ge and labf[fi] == labg[gi]:
            t = via.get(s)
            if t is None:
                x = descend(fi, fe, gi, ge)
                t = via[s] = (x, fe, x + gi - fi, ge)
            r = memo.get(t)
            if r is None:
                push(t)
                continue
            memo[s] = r
            stack.pop()
            continue
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
        counts = (len(memo), len(tables), len(prefix), jumps)
        for name, value in zip(DP_COUNTS, counts):
            stats[name] = stats.get(name, 0) + value
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
