import numpy as np
import pytest
from hypothesis import given, settings

import tedk.oracle
from tedk.alignment import eval_alignment
from tedk.forest import LabeledForest
from tedk.generate import alphabet, apply_random_edits, random_forest
from tedk.oracle import INF, _ted_dp, ted_exact, ted_threshold
from tedk.selftest import ted_brute_constrained

from conftest import (deep_chain, forest, forest_pairs, is_tree_alignment,
                      ted_constrained)
from reference import optimal_tree_alignments, ted_brute, ted_zhang_shasha


def test_exact_examples(interner):
    F = forest("(a(b)(c))", interner)
    assert ted_exact(F, F) == 0
    assert ted_exact(forest("(a)", interner), forest("(b)", interner)) == 1
    F = forest("(a)(b(x)(y)(z))", interner)
    G = forest("(a(x)(y)(z))", interner)
    assert ted_exact(F, G) == 2
    # no single edit suffices: exhaustive check via the brute oracle
    assert ted_brute(F, G) == 2


def test_exact_matches_brute(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(40):
        F = random_forest(rng, int(rng.integers(0, 7)), 3, syms)
        G = random_forest(rng, int(rng.integers(0, 7)), 3, syms)
        assert ted_exact(F, G) == ted_brute(F, G)


def test_threshold_examples(interner):
    F = forest("(a(b))", interner)
    assert ted_threshold(F, F, 0) == 0
    assert ted_threshold(forest("(a)", interner), forest("(b)", interner), 0) == INF
    with pytest.raises(ValueError):
        ted_threshold(F, F, -1)


def test_threshold_equals_clamped_exact(interner, rng):
    syms = alphabet(interner, 4)
    for t in range(150):
        F = random_forest(rng, int(rng.integers(0, 30)), 5, syms)
        if rng.random() < 0.5:
            G = apply_random_edits(rng, F, int(rng.integers(0, 6)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 30)), 5, syms)
        d = ted_exact(F, G)
        k = int(rng.integers(1, 6))
        assert ted_threshold(F, G, k) == (d if d <= k else INF)
        # any k >= |F| + |G| answers exactly, the package's INF included
        assert ted_threshold(F, G, INF) == ted_threshold(F, G, 10**30) == d


def test_metric_sanity(interner, rng):
    syms = alphabet(interner, 3)
    fs = [random_forest(rng, int(rng.integers(0, 12)), 4, syms) for _ in range(12)]
    for F in fs:
        assert ted_exact(F, F) == 0
    for _ in range(30):
        F, G, H = (fs[int(t)] for t in rng.integers(0, len(fs), 3))
        dfg, dgf = ted_exact(F, G), ted_exact(G, F)
        assert dfg == dgf
        assert abs(F.n - G.n) <= dfg <= F.n + G.n
        assert ted_exact(F, H) <= dfg + ted_exact(G, H)


def test_string_view_consistency(interner, rng):
    # ted equals half the string edit cost of the best tree alignment
    syms = alphabet(interner, 2)
    for _ in range(15):
        F = random_forest(rng, int(rng.integers(0, 6)), 3, syms)
        G = random_forest(rng, int(rng.integers(0, 6)), 3, syms)
        best, alns = optimal_tree_alignments(F, G)
        assert ted_exact(F, G) == best
        for A in alns[:10]:
            assert is_tree_alignment(A, F, G)
            cost = eval_alignment(A, F.codes, G.codes).cost
            assert cost == 2 * best


def test_constrained_examples(interner, rng):
    F = forest("(a(b)(c))", interner)
    G = forest("(a(b)(c))", interner)
    M = np.empty((0, 2), dtype=np.int64)
    assert ted_constrained(F, G, M) == ted_exact(F, G) == 0
    assert ted_constrained(F, G, [(0, 0)]) == 0
    # label-mismatching pair is rejected
    assert ted_constrained(F, G, [(0, 1)]) == INF
    # crossing pairs are rejected
    assert ted_constrained(F, G, [(1, 2), (2, 1)]) == INF


def test_constrained_matches_brute(interner, rng):
    syms = alphabet(interner, 2)
    done = 0
    while done < 25:
        F = random_forest(rng, int(rng.integers(1, 8)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        if G.n == 0 or G.n > 8:
            continue
        pairs = []
        for u in rng.permutation(F.n)[: int(rng.integers(1, 4))]:
            for v in rng.permutation(G.n):
                if F.labels[u] == G.labels[v]:
                    from tedk.partial import validate_matching
                    try:
                        validate_matching(F, G, np.array(pairs + [(int(u), int(v))]))
                        pairs.append((int(u), int(v)))
                        break
                    except ValueError:
                        continue
        if not pairs:
            continue
        M = np.array(pairs, dtype=np.int64)
        assert ted_constrained(F, G, M) == ted_brute_constrained(F, G, M)
        done += 1


def _ted_dp_unpruned(F: LabeledForest, G: LabeledForest, cap: int) -> int:
    """min(cap, ted(F, G)) by the leftmost-root recurrence over every state
    in the size-difference band, always taking all three branches."""
    endf, endg = F.subtree_end.tolist(), G.subtree_end.tolist()
    labf, labg = F.labels.tolist(), G.labels.tolist()
    memo: dict = {}

    def d(fi, fe, gi, ge):
        s = (fi, fe, gi, ge)
        if s not in memo:
            if fi == fe or gi == ge:
                memo[s] = min(fe - fi + ge - gi, cap)
            elif abs((fe - fi) - (ge - gi)) >= cap:
                memo[s] = cap
            else:
                fend, gend = endf[fi], endg[gi]
                memo[s] = min(
                    1 + d(fi + 1, fe, gi, ge),
                    1 + d(fi, fe, gi + 1, ge),
                    (labf[fi] != labg[gi]) + d(fi + 1, fend, gi + 1, gend)
                    + d(fend, fe, gend, ge),
                    cap)
        return memo[s]

    return d(0, F.n, 0, G.n)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(forest_pairs())
def test_dp_matches_brute(pair):
    F, G = pair
    want = ted_brute(F, G)
    for cap in (1, 2, 3, F.n + G.n + 1):
        assert _ted_dp(F, G, cap) == min(want, cap)


def test_dp_matches_unpruned_recurrence(interner, rng):
    # the match-first skip never changes a value, at any cap
    syms_pool = [alphabet(interner, s) for s in (1, 2, 4)]
    for t in range(120):
        syms = syms_pool[t % 3]
        F = random_forest(rng, int(rng.integers(0, 60)),
                          int(rng.integers(1, 9)), syms)
        if t % 2:
            G = apply_random_edits(rng, F, int(rng.integers(0, 6)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 60)),
                              int(rng.integers(1, 9)), syms)
        for cap in (1, 2, 3, 5, F.n + G.n + 1):
            assert _ted_dp(F, G, cap) == _ted_dp_unpruned(F, G, cap)
    # realistic sizes, where the equal-forest exit fires at non-zero shifts:
    # a shared prefix and suffix around a middle with at most 3 edits
    for t in range(40):
        syms = syms_pool[t % 3]
        P, S = (random_forest(rng, int(rng.integers(100, 181)),
                              int(rng.integers(1, 9)), syms)
                for _ in range(2))
        mid = random_forest(rng, int(rng.integers(1, 40)),
                            int(rng.integers(1, 6)), syms)
        edited = apply_random_edits(rng, mid, int(rng.integers(0, 4)), syms)
        F, G = (LabeledForest.from_codes(np.concatenate(
            [P.codes, m.codes, S.codes])) for m in (mid, edited))
        want = [_ted_dp_unpruned(F, G, cap) for cap in range(1, 6)]
        assert want == [_ted_dp(F, G, cap) for cap in range(1, 6)]
        # at most 3 edits, so the value at cap 5 is ted itself
        assert want[-1] <= 3
        unbounded = _ted_dp(F, G, F.n + G.n + 1)
        assert unbounded == want[-1]
        # ted_exact raises its cap from 2 and stops at the first value
        # below it
        assert ted_exact(F, G) == unbounded


def test_dp_states_follow_the_edit(interner, rng):
    # a root list of 200 copies of one 50-node tree, one node relabeled in
    # the last copy: the equal-forest exit answers each shared copy in one
    # state, where walking them costs about 2 states per node
    syms = alphabet(interner, 3)
    body = random_forest(rng, 49, 6, syms).codes
    root = int(syms[0])
    tree = np.concatenate([[root << 1], body, [(root << 1) | 1]])
    F = LabeledForest.from_codes(np.tile(tree, 200))
    u = F.n - 50 + int(rng.integers(50))
    lab = int(syms[1]) if F.labels[u] == syms[0] else int(syms[0])
    codes = F.codes.copy()
    codes[F.o[u]], codes[F.c[u]] = lab << 1, (lab << 1) | 1
    G = LabeledForest.from_codes(codes)
    stats = {}
    assert ted_threshold(F, G, 2, stats) == 1
    assert 1 <= stats["dp_tables"] and stats["dp_states"] < F.n // 4
    # a second call adds to the counts; equal forests run no DP
    twice = {key: 2 * value for key, value in stats.items()}
    assert ted_threshold(F, G, 2, stats) == 1 and stats == twice
    assert ted_threshold(F, F, 2, stats) == 0 and stats == twice


def test_dp_matches_zhang_shasha(interner):
    # 60 seeded pairs against an exact algorithm that shares nothing with
    # the DP: unrelated forests, edited copies, wide sibling lists, and a
    # shared prefix and suffix around a small edit, where the equal-forest
    # exit and the size-difference-1 rule fire
    rng = np.random.default_rng(26)
    syms = alphabet(interner, 3)
    pairs = []
    for _ in range(15):
        F, G = (random_forest(rng, int(rng.integers(0, 31)),
                              int(rng.integers(1, 8)), syms) for _ in range(2))
        pairs.append((F, G))
    for _ in range(25):
        wide = len(pairs) % 5 < 2  # height 1 or 2: long root and child lists
        F = random_forest(rng, int(rng.integers(12, 41)),
                          int(rng.integers(1, 3)) if wide
                          else int(rng.integers(3, 8)), syms)
        pairs.append((F, apply_random_edits(rng, F, int(rng.integers(1, 5)),
                                            syms)))
    for _ in range(20):
        P, S = (random_forest(rng, int(rng.integers(5, 21)),
                              int(rng.integers(1, 6)), syms) for _ in range(2))
        mid = random_forest(rng, int(rng.integers(1, 9)), 3, syms)
        edited = apply_random_edits(rng, mid, int(rng.integers(1, 3)), syms)
        pairs.append(tuple(LabeledForest.from_codes(np.concatenate(
            [P.codes, m.codes, S.codes])) for m in (mid, edited)))
    stats = {}
    for F, G in pairs:
        d = ted_zhang_shasha(F, G)
        assert ted_exact(F, G) == d
        for k in (1, 2, 3, 5):
            assert ted_threshold(F, G, k, stats) == (d if d <= k else INF)
    assert sum(abs(F.n - G.n) == 1 for F, G in pairs[40:]) >= 3
    assert sum(F.n > 11 for F, _ in pairs) >= 40
    assert stats["dp_tables"] > 0


def _edit(F: LabeledForest, u: int, kind: str, lab: int) -> LabeledForest:
    """F with node u relabeled to `lab`, deleted (its children take its
    place), or wrapped in a new node labeled `lab` ("insert")."""
    codes = F.codes.tolist()
    o, c = int(F.o[u]), int(F.c[u])
    if kind == "relabel":
        codes[o], codes[c] = lab << 1, (lab << 1) | 1
    elif kind == "delete":
        del codes[c], codes[o]
    else:
        codes.insert(c + 1, (lab << 1) | 1)
        codes.insert(o, lab << 1)
    return LabeledForest.from_codes(np.array(codes, dtype=np.int64))


def _spine(F: LabeledForest) -> np.ndarray:
    """The nodes whose subtrees end last: a chain's nodes, root first."""
    return np.flatnonzero(F.subtree_end == F.n)


def test_dp_jump_matches_zhang_shasha_on_chains(interner, rng):
    # 42 seeded chains 20-300 levels deep, each edited once at a chosen
    # depth, against an exact algorithm that shares nothing with the DP;
    # every DP run descends by jumps
    syms = alphabet(interner, 2)
    stats = {}
    runs = 0
    for t in range(42):
        F = deep_chain(rng, int(rng.integers(20, 301)), syms,
                       leaf_every=int(rng.integers(40, 68)))
        u = int(rng.choice(_spine(F)))
        lab = int(syms[0] if F.labels[u] == syms[1] else syms[1])
        G = _edit(F, u, ("relabel", "insert", "delete")[t % 3], lab)
        if t % 2:
            F, G = G, F
        d = ted_zhang_shasha(F, G)
        assert d == 1
        assert ted_exact(F, G) == d
        for k in (1, 2, 3):
            assert ted_threshold(F, G, k, stats) == d
            runs += 1
    assert stats["dp_jumps"] >= runs


def test_dp_jump_stops_part_way_on_one_side(interner, rng):
    # G gains a leaf as the last child of a chain node a, so G's rightmost
    # path leaves the chain below a while F's follows it down, and a relabel
    # further down (or none) lies where the common prefix ends: the descent
    # stops at a's chain child on one side only
    syms = alphabet(interner, 2)
    for t in range(24):
        F = deep_chain(rng, int(rng.integers(40, 201)), syms,
                       leaf_every=int(rng.integers(10, 68)))
        spine = _spine(F)
        # a at depth >= 16, so both rightmost paths are long enough to jump
        at = int(rng.integers(16, len(spine) - 20))
        a, below = int(spine[at]), int(spine[at + int(rng.integers(1, 20))])
        leaf = int(syms[t % 2])
        codes = F.codes.tolist()
        codes[int(F.c[a]):int(F.c[a])] = [leaf << 1, (leaf << 1) | 1]
        G = LabeledForest.from_codes(np.array(codes, dtype=np.int64))
        if t % 3:
            lab = int(syms[0] if G.labels[below] == syms[1] else syms[1])
            G = _edit(G, below, "relabel", lab)
        if t % 2:
            F, G = G, F
        d = ted_zhang_shasha(F, G)
        assert d == (2 if t % 3 else 1)
        stats = {}
        assert [_ted_dp(F, G, cap, stats) for cap in range(1, 5)] \
            == [min(d, cap) for cap in range(1, 5)]
        # cap 1 cuts the root state: the sizes differ by the leaf
        assert stats["dp_jumps"] >= 3


def test_dp_jump_matches_unpruned_on_deep_pairs(interner, rng, monkeypatch):
    # 200 seeded chains 16-60 deep (`deep_chain` hangs a leaf every 14-19
    # levels for leaf_every >= 14, none below) with a small forest hung at
    # a random node, under random edits, against the plain recurrence at
    # caps 1-4: once as shipped and once with a jump at every state whose
    # ranges are single trees with equal root labels
    jumps = {}
    for t in range(200):
        syms = alphabet(interner, 1 + t % 3)
        F = deep_chain(rng, int(rng.integers(16, 61)), syms,
                       leaf_every=int(rng.integers(1, 20)))
        hung = random_forest(rng, int(rng.integers(1, 6)), 2, syms)
        at = int(F.o[rng.integers(F.n)]) + 1
        F = LabeledForest.from_codes(np.concatenate(
            [F.codes[:at], hung.codes, F.codes[at:]]))
        G = apply_random_edits(rng, F, int(rng.integers(1, 4)), syms)
        want = [_ted_dp_unpruned(F, G, cap) for cap in range(1, 5)]
        for gate in (1, tedk.oracle._JUMP_PATH):
            monkeypatch.setattr(tedk.oracle, "_JUMP_PATH", gate)
            stats = jumps.setdefault(gate, {})
            assert [_ted_dp(F, G, cap, stats) for cap in range(1, 5)] == want
    assert all(stats["dp_jumps"] > 200 for stats in jumps.values())


def test_dp_jump_counts_on_a_deep_chain(interner, rng):
    # one edit near the bottom of a 3,000-deep chain: the DP jumps to it
    # instead of walking 3,000 levels
    syms = alphabet(interner, 2)
    F = deep_chain(rng, 3000, syms)
    spine = _spine(F)
    u = int(spine[-10])
    lab = int(syms[0] if F.labels[u] == syms[1] else syms[1])
    for kind in ("relabel", "insert", "delete"):
        G = _edit(F, u, kind, lab)
        for k in (1, 3):
            stats = {}
            assert ted_threshold(F, G, k, stats) == 1
            assert stats["dp_states"] <= 200 and stats["dp_jumps"] >= 1
    # a node inserted near the root puts G's copy of the chain below it one
    # level deeper, so the walk down to a relabel near the bottom jumps at
    # depth offset 1.  Each chain node first holds a 2-node path, so the
    # match of F's chain against G's shifted by one level differs in size
    # by 3 and is cut at once at k = 2
    labs = syms[rng.integers(2, size=3000)].tolist()
    codes = []
    for a, b, c in zip(labs, *syms[rng.integers(2, size=(2, 3000))].tolist()):
        codes += [a << 1, b << 1, c << 1, (c << 1) | 1, (b << 1) | 1]
    codes += [(a << 1) | 1 for a in reversed(labs)]
    F = LabeledForest.from_codes(np.array(codes, dtype=np.int64))
    spine = _spine(F)
    u = int(spine[-10])
    lab = int(syms[0] if F.labels[u] == syms[1] else syms[1])
    G = _edit(_edit(F, u, "relabel", lab), int(spine[5]), "insert", lab)
    stats = {}
    assert ted_threshold(F, G, 2, stats) == 2
    assert stats["dp_states"] <= 200 and stats["dp_jumps"] >= 2
