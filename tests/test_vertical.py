from math import gcd

import numpy as np

import tedk.vertical
from tedk.generate import (alphabet, apply_random_edits, plant_horizontal,
                           plant_vertical, planted_pair, random_forest)
from tedk.horizontal import filter_runs
from tedk.oracle import ted_threshold
from tedk.vertical import (compute_contexts, compute_q, vert_periods,
                           vert_sync_reductions)

from conftest import deep_chain, forest, query, validate
from reference import (context_power_nodes, naive_lca, naive_ors,
                       sync_power_occurrences, synced_context_powers)


def chain(label, depth, interner):
    return forest("(" + label + " " * 0 + ("(" + label) * (depth - 1)
                  + ")" * depth, interner)


def test_compute_q_aperiodic_defaults(interner, rng):
    syms = alphabet(interner, 4)
    F = random_forest(rng, 20, 4, syms)
    q, endp = compute_q(F, query(1))
    # an aperiodic forest keeps every entry at its default
    if not any(j - i >= 16 * p
               for i, j, p in filter_runs(F.codes, 1).tolist()):
        assert (q == 1).all() and (endp == np.arange(2 * F.n)).all()


def test_compute_q_chain_anchors(interner):
    k = 1
    F = chain("a", 20, interner)
    q, endp = compute_q(F, query(k))
    # open run [0..20) with period 1 anchors positions 0..4 (suffix >= 16)
    assert q[0] == 1 and endp[0] == 20
    assert q[4] == 1 and endp[4] == 20
    assert endp[5] == 5  # suffix exponent only 15: default
    # close run [20..40): position 39 anchors the prefix ending there
    assert q[39] == 1 and endp[39] == 19
    assert q[35] == 1 and endp[35] == 19  # prefix exponent exactly 16
    assert endp[34] == 34                 # prefix exponent 15: default


def test_compute_q_naive_per_position(interner, rng):
    # the anchored run is the longest >=16k-exponent, <=4k-period run
    k = 1
    F = chain("a", 25, interner)
    S = F.codes.tolist()
    q, endp = compute_q(F, query(k))
    n = len(S)
    for pos in range(n):
        best = None
        for p in range(1, 4 * k + 1):
            ln = 0
            if S[pos] & 1 == 0:
                while pos + ln + p < n and S[pos + ln] == S[pos + ln + p]:
                    ln += 1
                if ln + p >= 16 * k * p:
                    best = (p, pos + ln + p)
                    break
            else:
                while pos - ln - p >= 0 and S[pos - ln] == S[pos - ln - p]:
                    ln += 1
                if ln + p >= 16 * k * p:
                    best = (p, pos - ln - p)
                    break
        if best is None:
            assert endp[pos] == pos
        else:
            assert (q[pos], endp[pos]) == best


def test_compute_contexts_chain(interner):
    k = 1
    F = chain("a", 40, interner)
    rows = compute_contexts(F, query(k)).tolist()
    assert rows[0] == [0, 1, 1, 40]
    # agreement with the definition-level detector at the threshold exponent
    naive = context_power_nodes(F, 1, 1, 16)
    assert {u for u, q_l, q_r, e in rows} == set(naive)


def test_compute_contexts_empty_for_flat(interner, rng):
    syms = alphabet(interner, 3)
    F = random_forest(rng, 30, 3, syms)
    for u, q_l, q_r, e in compute_contexts(F, query(1)).tolist():
        # whatever is reported must be a genuine context power
        assert e >= 16
        assert u in context_power_nodes(F, q_l, q_r, e)


def test_compute_contexts_divergence_clip(interner):
    # two long runs that diverge: exponent limited by the meeting point
    k = 1
    depth = 21
    left = "(a" * 30 + ")" * 30
    right = "(a" * 28 + ")" * 28
    txt = "(a" * depth + left + right + ")" * depth
    F = forest(txt, interner)
    exps = {u: e for u, q_l, q_r, e in compute_contexts(F, query(k)).tolist()}
    assert 0 in exps
    got = exps[0]
    # the definition-level maximal exponent at the root
    e = 16
    while context_power_nodes(F, 1, 1, e + 1).count(0):
        e += 1
    assert got == e


def loop_contexts(F, k):
    """Per-node loop form of `compute_contexts`, with the divergence LCA
    taken by `naive_lca` (the reference for the vectorized pass)."""
    if F.n == 0:
        return []
    q_arr, end_arr = (x.tolist() for x in compute_q(F, query(k)))
    # depth at each position: the nesting level after an opening, minus one,
    # or before a closing
    sides = F.codes & 1
    D = (np.cumsum(1 - 2 * sides) - 1 + sides).tolist()
    node_at = F.node_at.tolist()
    out = []
    for u, (ou, cu) in enumerate(zip(F.o.tolist(), F.c.tolist())):
        q_l, j_l = q_arr[ou], end_arr[ou]
        q_r, j_r = q_arr[cu], end_arr[cu]
        if j_l == ou or j_r == cu or cu - ou < max(q_l, q_r):
            continue
        d_l = D[ou + q_l] - D[ou]
        d_r = D[cu - q_r] - D[cu]
        if d_l < 1 or d_r < 1:
            continue
        d = d_l * d_r // gcd(d_l, d_r)
        cl_len = q_l * (d // d_l)
        cr_len = q_r * (d // d_r)
        if cl_len > 4 * k or cr_len > 4 * k:
            continue
        v = naive_lca(F, node_at[min(j_l - 1, cu)], node_at[max(j_r + 1, ou)])
        e = min((j_l - ou) // cl_len, (cu - j_r) // cr_len,
                (cu - ou + 1) // (cl_len + cr_len),
                (int(F.depth[v]) - int(F.depth[u]) + 1) // d)
        if e >= 16 * k:
            out.append([u, cl_len, cr_len, e])
    return out


def diverging_towers(rng, interner):
    """A spine over two sibling spines of the same layers, so the divergence
    point can be what clips the exponent.  Spine labels repeat every one or
    two levels, and a leaf hangs before the spine child every a-th level and
    after it every b-th level (0: never), so the two sides' layer depths can
    differ and their lcm is the context's."""
    labs = "st"[:int(rng.integers(1, 3))]
    a, b = (int(x) for x in rng.integers(0, 4, 2))

    def spine(depth):
        opens = closes = ""
        for t in range(depth):
            opens += "(" + labs[t % len(labs)] + ("(x)" if a and t % a == 0 else "")
            closes = ("(y)" if b and t % b == 0 else "") + ")" + closes
        return opens, closes
    (o0, c0), (o1, c1), (o2, c2) = (spine(int(d)) for d in rng.integers(0, 130, 3))
    return forest(o0 + o1 + c1 + o2 + c2 + c0, interner)


def test_compute_contexts_matches_loop(interner, rng):
    divergence = "(a" * 21 + "(a" * 30 + ")" * 30 + "(a" * 28 + ")" * 28 + ")" * 21
    cases = [(forest(divergence, interner), 1),
             (deep_chain(rng, 20_200, alphabet(interner, 2)), 1),
             (deep_chain(rng, 400, alphabet(interner, 1)), 1)]
    for t in range(1000):
        k = 1 + t % 2
        F, G, _ = planted_pair(rng, int(rng.integers(0, 300)), k, 2, interner,
                               kind=("vertical", "mixed")[t // 2 % 2])
        cases += [(F, k), (G, k)]
    cases += [(diverging_towers(rng, interner), 1 + t % 2) for t in range(300)]
    nonempty = 0
    for F, k in cases:
        want = loop_contexts(F, k)
        assert compute_contexts(F, query(k)).tolist() == want
        nonempty += bool(want)
    assert nonempty > 2000


def test_vert_periods_planted_and_suppression(interner):
    k = 1
    F = chain("a", 40, interner)
    G = chain("a", 40, interner)
    # one row: all nested inner occurrences are suppressed by the advance
    # rule
    [[u_f, u_g, q_l, q_r, e]] = vert_periods(F, G, query(k)).tolist()
    assert u_f == 0 and u_g == 0 and e == 40


def test_vert_periods_requires_partner(interner, rng):
    syms = alphabet(interner, 2)
    k = 1
    F = chain("a", 40, interner)
    G = random_forest(rng, 30, 3, syms)
    assert vert_periods(F, G, query(k)).tolist() == []
    # a power of the same shape at the same place, but another context
    assert vert_periods(F, chain("b", 40, interner), query(k)).tolist() == []


def context(F, u, q_l, q_r):
    """(C_L, C_R) of the context of shape (q_l, q_r) at node u, as code
    tuples."""
    o, c = int(F.o[u]), int(F.c[u])
    return (tuple(F.codes[o:o + q_l].tolist()),
            tuple(F.codes[c - q_r + 1:c + 1].tolist()))


def reference_pairs(F, G, k):
    """`vert_periods` from the definition: each F power not yet passed takes
    the least-closing equal-context G power of the 2k-by-2k window over all
    of G's powers (`naive_ors`), lifted while the power opening q_l earlier
    is an equal-context power inside both windows.  Also counts the lifts."""
    cg = compute_contexts(G, query(k)).tolist()
    out, lifts, i = [], 0, -1
    for u, q_l, q_r, e_f in compute_contexts(F, query(k)).tolist():
        ou, cu = int(F.o[u]), int(F.c[u])
        if ou <= i:
            continue
        same = [(v, e_g) for v, s_l, s_r, e_g in cg
                if (s_l, s_r) == (q_l, q_r)
                and context(G, v, q_l, q_r) == context(F, u, q_l, q_r)
                and int(G.o[v]) >= ou - 2 * k
                and abs(int(G.c[v]) - cu) <= 2 * k]
        pick = naive_ors([(int(G.o[v]), int(G.c[v])) for v, _ in same],
                         ou - 2 * k, ou + 2 * k, cu - 2 * k, cu + 2 * k)
        if pick is None:
            continue
        v, e_g = same[pick]
        while up := [(w, e_w) for w, e_w in same if G.o[w] == G.o[v] - q_l]:
            (v, e_g), lifts = up[0], lifts + 1
        e = min(e_f, e_g)
        out.append([u, v, q_l, q_r, e])
        i = ou + (e - 8 * k) * q_l
    return out, lifts


def test_vert_periods_partner_choice(interner, rng):
    # planted pairs with 1-3 vertical sites (a horizontal one every third
    # pair) and up to 2k edits, in both argument orders
    occs = multi = lifts = 0
    for t in range(300):
        k = 1 + t % 2
        syms = alphabet(interner, int(rng.integers(1, 4)))
        F = random_forest(rng, int(rng.integers(0, 150)),
                          int(rng.integers(1, 8)), syms)
        if t % 3 == 0:
            F = plant_horizontal(rng, F, k, syms)
        for _ in range(int(rng.integers(1, 4))):
            F = plant_vertical(rng, F, k, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 2 * k + 1)), syms)
        for A, B in ((F, G), (G, F)):
            got = vert_periods(A, B, query(k)).tolist()
            want, lifted = reference_pairs(A, B, k)
            assert got == want
            e_f, e_g = ({u: e for u, q_l, q_r, e in
                         compute_contexts(H, query(k)).tolist()}
                        for H in (A, B))
            for u, v, q_l, q_r, e in got:
                assert context(A, u, q_l, q_r) == context(B, v, q_l, q_r)
                assert abs(int(A.o[u]) - int(B.o[v])) <= 2 * k
                assert abs(int(A.c[u]) - int(B.c[v])) <= 2 * k
                assert e == min(e_f[u], e_g[v])
            occs += len(got)
            multi += len(got) > 1
            lifts += lifted
    assert occs > 700 and multi > 200 and lifts > 800


def test_empty_detections_keep_their_columns(interner):
    # each detector returns int64 rows of its width when it finds nothing,
    # and a pair with no synchronized power reduces to itself
    k = 1
    flat = forest("(a(b))(c)", interner)
    # node 1 anchors runs at both its parentheses, but its two sub-chains
    # diverge right below it, which clips its exponent to 1
    forked = forest("(a" * 17 + ")" * 15 + "(a" * 15 + ")" * 17, interner)
    _, endp = compute_q(forked, query(k))
    assert endp[forked.o[1]] != forked.o[1] and endp[forked.c[1]] != forked.c[1]
    for H in (flat, forked):
        got = compute_contexts(H, query(k))
        assert got.dtype == np.int64 and got.shape == (0, 4)
    tower = chain("a", 40, interner)
    other = chain("b", 40, interner)
    # G without a power, and G with powers of another context only
    for F, G in ((tower, flat), (tower, other), (flat, tower)):
        got = vert_periods(F, G, query(k))
        assert got.dtype == np.int64 and got.shape == (0, 5)
        F2, G2 = vert_sync_reductions(F, G, query(k))
        assert F2 == F and G2 == G


def test_vert_sites_of_a_chain_pair(interner, monkeypatch):
    # layers (a(x) ... ): |C_L| = 3, |C_R| = 1, 40 of them, the tower
    # opening 2 positions later in G; each pair gives its left parts from
    # the openings and its right parts up to the closings
    k = 1
    F = forest("(a(x)" * 40 + ")" * 40, interner)
    G = forest("(y)" + "(a(x)" * 40 + ")" * 40, interner)
    assert vert_periods(F, G, query(k)).tolist() == [[0, 1, 3, 1, 40]]
    u_f, u_g, q_l, q_r, e = 0, 1, 3, 1, 40
    seen = []
    real = tedk.vertical.cut_sites

    def recorded(F, G, sites, ctx):
        seen.append(sites.tolist())
        return real(F, G, sites, ctx)

    monkeypatch.setattr(tedk.vertical, "cut_sites", recorded)
    F2, G2 = vert_sync_reductions(F, G, query(k))
    assert seen == [[[F.o[u_f], G.o[u_g], q_l, e],
                     [F.c[u_f] - q_r * e + 1, G.c[u_g] - q_r * e + 1, q_r, e]]]
    assert seen == [[[0, 2, 3, 40], [120, 122, 1, 40]]]
    assert F2 == forest("(a(x)" * 14 + ")" * 14, interner)
    assert G2 == forest("(y)" + "(a(x)" * 14 + ")" * 14, interner)


def test_vert_reduction_chain(interner):
    k = 1
    F = chain("a", 40, interner)
    G = chain("a", 40, interner)
    F2, G2 = vert_sync_reductions(F, G, query(k))
    assert F2.n == 14 and G2.n == 14
    assert ted_threshold(F2, G2, k) == 0
    assert not synced_context_powers(F2, G2, 2 * k, 16 * k, 4 * k)


def test_vert_reduction_preserves_distance(interner, rng):
    for t in range(20):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 50)), k, 2, interner,
                               kind="vertical")
        F2, G2 = vert_sync_reductions(F, G, query(k))
        validate(F2)
        validate(G2)
        assert ted_threshold(F2, G2, k) == ted_threshold(F, G, k)


def test_vert_postconditions(interner, rng):
    from tedk.horizontal import min_balance_rotations, sync_reductions
    for t in range(12):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 60)), k, 2, interner,
                               kind="mixed")
        F1, G1 = sync_reductions(F, G, query(k))
        F2, G2 = vert_sync_reductions(F1, G1, query(k))
        assert not synced_context_powers(F2, G2, 2 * k, 16 * k, 4 * k)
        X, Y = F2.codes, G2.codes
        bad = [(x, y, q) for (x, y, q)
               in sync_power_occurrences(X, Y, 2 * k, 18 * k, 4 * k)
               if min_balance_rotations(X[x:x + q]) is not None]
        assert not bad


def test_nonprimitive_layer_structure(interner):
    # alternating two-label layers: the detector reports the primitive root
    k = 1
    depth = 40
    txt = "".join("(a" if t % 2 == 0 else "(b" for t in range(depth)) + ")" * depth
    F = forest(txt, interner)
    rows = compute_contexts(F, query(k)).tolist()
    assert rows, "alternating chain must be detected"
    u, q_l, q_r, e = rows[0]
    assert q_l == 2 and q_r == 2 and e == 20
    G = forest(txt, interner)
    F2, G2 = vert_sync_reductions(F, G, query(k))
    assert ted_threshold(F2, G2, k) == 0
    assert not synced_context_powers(F2, G2, 2 * k, 16 * k, 4 * k)
