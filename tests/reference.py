"""Definition-level references that only the tests compare against.

Everything here is written straight from the definitions, with no machinery
shared with the production paths, and is quadratic or worse on purpose.
The three references that `tedk selftest` also runs (`naive_runs`,
`banded_edit_cost`, `ted_brute_constrained`) live in `tedk.selftest`; the
Tai-mapping enumeration below reuses its helpers, so each reference has one
copy.
"""

from __future__ import annotations

import json

import numpy as np

from tedk.alignment import as_codes
from tedk.forest import LabeledForest
from tedk.hashing import M61
from tedk.selftest import all_tai_mappings, mapping_cost


# -- strings ------------------------------------------------------------------

def prefix_table(codes, base: int) -> list[int]:
    """P[i] = sum_{j<i} (codes[j] + 1) * base^(n-1-j) mod 2^61-1, for
    i = 0..n, in Python ints."""
    weights = [1]  # base^(n-1-j), from the last position back
    for _ in range(len(codes) - 1):
        weights.append(weights[-1] * base % M61)
    P = [0]
    for code, weight in zip(codes, reversed(weights)):
        P.append((P[-1] + (int(code) + 1) * weight) % M61)
    return P


def sync_power_occurrences(X, Y, s: int, e: int, max_root: int):
    """All (x, y, q) with Q^e = X[x..x+qe) = Y[y..y+qe), |Q|=q<=max_root,
    |x-y| <= s.  Definition-level scanner over per-period equality arrays."""
    X, Y = as_codes(X), as_codes(Y)
    out = []
    for q in range(1, max_root + 1):
        need = e * q
        if need > len(X) or need > len(Y):
            continue

        def starts(S):
            eq = S[:-q] == S[q:]
            m = len(eq)
            good = np.zeros(len(S), dtype=np.int64)
            run = 0
            for t in range(m - 1, -1, -1):
                run = run + 1 if eq[t] else 0
                good[t] = run + q
            good[m:] = len(S) - np.arange(m, len(S))
            return np.flatnonzero(good >= need)

        cx = starts(X)
        cy = set(starts(Y).tolist())
        for x in cx.tolist():
            for y in range(max(0, x - s), x + s + 1):
                if y in cy and np.array_equal(X[x:x + q], Y[y:y + q]):
                    out.append((x, y, q))
    return out


# -- forests ------------------------------------------------------------------

def naive_positions(F: LabeledForest):
    """Re-derivation of o/c/depth by one stack walk over the code string:
    node ids count the openings in order, a closing ends the top node."""
    o, c, depth = [], [0] * F.n, []
    stack: list[int] = []
    for pos, code in enumerate(F.codes.tolist()):
        if code & 1:
            c[stack.pop()] = pos
        else:
            stack.append(len(o))
            depth.append(len(stack) - 1)
            o.append(pos)
    return o, c, depth


def parents(F: LabeledForest) -> np.ndarray:
    """Each node's parent, -1 for a root, by one stack walk over the code
    string."""
    out, stack = [], []
    for code in F.codes.tolist():
        if code & 1:
            stack.pop()
        else:
            out.append(stack[-1] if stack else -1)
            stack.append(len(out) - 1)
    return np.array(out, dtype=np.int64)


def nested_json(F: LabeledForest, interner) -> str:
    """JSON text of F by `json.dumps` on a nested dict tree built from
    each node's parent."""
    out: list = []
    holders: dict[int, list] = {}
    parent = parents(F).tolist()
    for u, sym in enumerate(F.labels.tolist()):
        node = {"label": interner.text(sym), "children": []}
        p = parent[u]
        (out if p < 0 else holders[p]).append(node)
        holders[u] = node["children"]
    return json.dumps(out)


def naive_lca(F: LabeledForest, u: int, v: int) -> int | None:
    parent = parents(F).tolist()
    anc = set()
    x = u
    while x != -1:
        anc.add(x)
        x = parent[x]
    x = v
    while x != -1:
        if x in anc:
            return x
        x = parent[x]
    return None


def naive_ors(points, x_lo, x_hi, y_lo, y_hi):
    """(index of min-y point in rectangle) by linear scan, or None."""
    best = None
    for t, (x, y) in enumerate(points):
        if x_lo <= x <= x_hi and y_lo <= y <= y_hi:
            if best is None or y < points[best][1]:
                best = t
    return best


def trimmed_print(F: LabeledForest, lab: np.ndarray, u: int, d: int) -> tuple:
    """P_lab(sub_{<d}(u)) extracted literally."""
    sub = []
    end = int(F.subtree_end[u])
    base = int(F.depth[u])
    keep = [t for t in range(u, end) if F.depth[t] - base < d]
    out = []
    stack = []
    for t in keep:
        while stack and not (stack[-1][1] > t):
            out.append((1, stack.pop()[0]))
        out.append((0, int(lab[t])))
        stack.append((int(lab[t]), int(F.subtree_end[t])))
    while stack:
        out.append((1, stack.pop()[0]))
    return tuple(out)


def _periodic_from(S: np.ndarray, q: int) -> np.ndarray:
    """len[i] of the longest stretch with S[t]==S[t+q] from t=i, plus q."""
    n = len(S)
    out = np.zeros(n, dtype=np.int64)
    if q >= n:
        return out
    eq = S[:-q] == S[q:]
    acc = np.zeros(len(eq) + 1, dtype=np.int64)
    rev = eq[::-1]
    idx = np.arange(len(eq), dtype=np.int64)
    last_false = np.maximum.accumulate(np.where(~rev, idx, -1))
    acc[:len(eq)] = (idx - last_false)[::-1]
    out[:len(eq)] = acc[:len(eq)] + q
    out[len(eq):] = n - np.arange(len(eq), n)
    return out


def context_power_nodes(F: LabeledForest, q_l: int, q_r: int, e: int):
    """Nodes where some context (|C_L|=q_l, |C_R|=q_r) has an e-th power,
    straight from the definition: prefix C_L^e, suffix C_R^e, balanced core.
    A per-period equality prefilter keeps the candidate set small."""
    S = F.codes
    out = []
    sides = S & 1
    excess = np.cumsum(1 - 2 * sides)
    fwd = _periodic_from(S, q_l)
    bwd = _periodic_from(S[::-1], q_r)[::-1]
    cand = np.flatnonzero((fwd[F.o] >= e * q_l) & (bwd[F.c] >= e * q_r))
    for u in cand.tolist():
        o, c = int(F.o[u]), int(F.c[u])
        length = c - o + 1
        if e * (q_l + q_r) > length:
            continue
        cl = S[o:o + q_l]
        cr = S[c - q_r + 1:c + 1]
        ok = True
        for t in range(1, e):
            if not np.array_equal(S[o + t * q_l:o + (t + 1) * q_l], cl):
                ok = False
                break
            if not np.array_equal(S[c - (t + 1) * q_r + 1:c - t * q_r + 1], cr):
                ok = False
                break
        if not ok:
            continue
        a = o + e * q_l
        b = c - e * q_r + 1
        # the core [a..b) must be balanced: excess returns to base and never dips
        if a > b:
            continue
        end_exc = excess[b - 1] if b > 0 else 0
        start_exc = excess[a - 1] if a > 0 else 0
        if a == b:
            balanced = True
        else:
            balanced = (end_exc == start_exc
                        and (excess[a:b] >= start_exc).all())
        # C_L . C_R must itself be balanced with consistent labels
        if balanced:
            try:
                LabeledForest.from_codes(np.concatenate([cl, cr]))
            except ValueError:
                balanced = False
        if balanced:
            out.append(u)
    return out


def synced_context_powers(F: LabeledForest, G: LabeledForest, s: int, e: int,
                          max_part: int):
    """All (u, v, q_l, q_r) context powers C^e occurring 2k-synchronized."""
    hits = []
    for q_l in range(1, max_part + 1):
        for q_r in range(1, max_part + 1):
            us = context_power_nodes(F, q_l, q_r, e)
            vs = context_power_nodes(G, q_l, q_r, e)
            if not us or not vs:
                continue
            SF, SG = F.codes, G.codes
            for u in us:
                for v in vs:
                    if (abs(int(F.o[u]) - int(G.o[v])) <= s
                            and abs(int(F.c[u]) - int(G.c[v])) <= s
                            and np.array_equal(
                                SF[F.o[u]:F.o[u] + q_l],
                                SG[G.o[v]:G.o[v] + q_l])
                            and np.array_equal(
                                SF[F.c[u] - q_r + 1:F.c[u] + 1],
                                SG[G.c[v] - q_r + 1:G.c[v] + 1])):
                        hits.append((u, v, q_l, q_r))
    return hits


# -- brute-force tree edit distance over Tai mappings -------------------------

def ted_brute(F: LabeledForest, G: LabeledForest) -> int:
    return min(mapping_cost(F, G, p) for p in all_tai_mappings(F, G))


def ted_zhang_shasha(F: LabeledForest, G: LabeledForest) -> int:
    """Unit-cost tree edit distance by Zhang and Shasha's keyroot algorithm
    (SIAM J. Comput. 1989), each forest under a virtual root of its own
    label -1, which matches the other's at no cost.

    Nodes are numbered 1..n in post-order, `left[i]` is the number of i's
    leftmost leaf, and a keyroot is the last node with its leftmost leaf.
    Each pair of keyroots (i, j) fills a forest-distance table over the
    post-order prefixes left[i]-1..i and left[j]-1..j; an entry whose two
    forests are whole trees is also their tree distance, which the tables
    of later keyroots read.
    """
    def post_order(H):
        # a node's leftmost leaf is the next node to close after it opens
        lab, left, opened = [None], [None], []
        for code in H.codes.tolist():
            if code & 1:
                lab.append(code >> 1)
                left.append(opened.pop())
            else:
                opened.append(len(lab))
        lab.append(-1)  # the virtual root, whose leftmost leaf is node 1
        left.append(1)
        keys = {leaf: i for i, leaf in enumerate(left) if i}
        return lab, left, sorted(keys.values())

    la, lf, keys_f = post_order(F)
    lb, lg, keys_g = post_order(G)
    n, m = len(la) - 1, len(lb) - 1
    tree = [[0] * (m + 1) for _ in range(n + 1)]
    fd = [[0] * (m + 1) for _ in range(n + 1)]
    for i in keys_f:
        for j in keys_g:
            i0, j0 = lf[i] - 1, lg[j] - 1
            fd[i0][j0] = 0
            for a in range(i0 + 1, i + 1):
                fd[a][j0] = fd[a - 1][j0] + 1
            for b in range(j0 + 1, j + 1):
                fd[i0][b] = fd[i0][b - 1] + 1
            for a in range(i0 + 1, i + 1):
                for b in range(j0 + 1, j + 1):
                    step = min(fd[a - 1][b], fd[a][b - 1]) + 1
                    if lf[a] == lf[i] and lg[b] == lg[j]:
                        fd[a][b] = min(step, fd[a - 1][b - 1] + (la[a] != lb[b]))
                        tree[a][b] = fd[a][b]
                    else:
                        fd[a][b] = min(step, fd[lf[a] - 1][lg[b] - 1] + tree[a][b])
    return tree[n][m]


def optimal_tree_alignments(F: LabeledForest, G: LabeledForest):
    """One canonical alignment per optimal Tai mapping (deletions first)."""
    best = ted_brute(F, G)
    out = []
    for p in all_tai_mappings(F, G):
        if mapping_cost(F, G, p) != best:
            continue
        aligned = []
        for (u, v) in p:
            aligned.append((int(F.o[u]), int(G.o[v])))
            aligned.append((int(F.c[u]), int(G.c[v])))
        aligned.sort()
        walk = [(0, 0)]
        cx = cy = 0
        for (x, y) in aligned + [(2 * F.n, 2 * G.n)]:
            while cx < x:
                cx += 1
                walk.append((cx, cy))
            while cy < y:
                cy += 1
                walk.append((cx, cy))
            if (x, y) != (2 * F.n, 2 * G.n):
                cx, cy = x + 1, y + 1
                walk.append((cx, cy))
        out.append(np.array(walk, dtype=np.int64))
    return best, out


def union_find_components(n: int, edges) -> list[int]:
    """Component id of each node 0..n-1 of the undirected graph with the
    given (a, b) edges, by union-find; the ids are 0, 1, ... in the order
    of each component's least node."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    first: dict[int, int] = {}
    return [first.setdefault(find(t), len(first)) for t in range(n)]


def naive_compat_classes(F: LabeledForest, G: LabeledForest, lab_f, lab_g,
                         w: int) -> list[int]:
    """Union-find closure over every w-compatible cross pair: the class of
    each node of F, then of G, numbered by each class's first node."""
    nf, ng = F.n, G.n
    edges = [(u, nf + v) for u in range(nf) for v in range(ng)
             if (lab_f[u] == lab_g[v]
                 and abs(int(F.o[u]) - int(G.o[v])) <= w
                 and abs(int(F.c[u]) - int(G.c[v])) <= w)]
    return union_find_components(nf + ng, edges)
