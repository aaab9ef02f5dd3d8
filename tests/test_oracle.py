import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tedk._naive import (optimal_tree_alignments, ted_brute,
                         ted_brute_constrained)
from tedk.alignment import eval_alignment, is_tree_alignment
from tedk.forest import LabeledForest, LabelInterner
from tedk.generate import (alphabet, apply_random_edits, plant_horizontal,
                           plant_vertical, random_forest)
from tedk.oracle import (INF, _ted_dp, ted_constrained, ted_exact,
                         ted_threshold)

from conftest import forest


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
            cost = eval_alignment(A, F.paren().codes, G.paren().codes).cost
            assert cost == 2 * best


def test_constrained_examples(interner, rng):
    F = forest("(a(b)(c))", interner)
    G = forest("(a(b)(c))", interner)
    M = np.empty((0, 2), dtype=np.int64)
    assert ted_constrained(F, G, M, interner) == ted_exact(F, G) == 0
    assert ted_constrained(F, G, [(0, 0)], interner) == 0
    # label-mismatching pair is rejected
    assert ted_constrained(F, G, [(0, 1)], interner) == INF
    # crossing pairs are rejected
    assert ted_constrained(F, G, [(1, 2), (2, 1)], interner) == INF


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
        assert ted_constrained(F, G, M, interner) == ted_brute_constrained(F, G, M)
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


@st.composite
def small_forest_pairs(draw):
    """(F, G) of at most 11 nodes each: random, edited or planted."""
    it = LabelInterner()
    syms = alphabet(it, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = random_forest(rng, draw(st.integers(0, 6)), draw(st.integers(1, 4)),
                      syms)
    kind = draw(st.sampled_from(["random", "edited", "horizontal",
                                 "vertical"]))
    if kind == "random":
        return F, random_forest(rng, draw(st.integers(0, 6)), 3, syms)
    if kind == "horizontal":
        F = plant_horizontal(rng, F, 1, syms, reps=draw(st.integers(1, 2)))
    elif kind == "vertical":
        F = plant_vertical(rng, F, 1, syms, reps=draw(st.integers(1, 2)))
    G = apply_random_edits(rng, F, draw(st.integers(0, 3)), syms)
    if draw(st.booleans()):
        F, G = G, F
    return F, G


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_forest_pairs())
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
