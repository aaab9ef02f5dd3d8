import numpy as np
import pytest

import tedk.shallow
from tedk.alignment import greedy_bounded_align
from tedk.errors import ContractError, CrossingMatchingError
from tedk.generate import alphabet, apply_random_edits, planted_pair, random_forest
from tedk.context import QueryContext
from tedk.forest import LabeledForest
from tedk.oracle import INF, ted_threshold
from tedk.shallow import shallow_ted

from conftest import forest

BASE = 0xABCDEF


def test_identical_forests(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 5, syms)
    assert shallow_ted(F, F, F.height(), QueryContext(2, BASE)) == 0


def test_deep_relabel(interner):
    F = forest("(a(b(c(d(e)))))", interner)
    G = forest("(a(b(c(d(x)))))", interner)
    assert shallow_ted(F, G, 5, QueryContext(1, BASE)) == 1


def test_height_precondition(interner):
    F = forest("(a(b))", interner)
    with pytest.raises(ValueError):
        shallow_ted(F, F, 1, QueryContext(1, BASE))


def test_shallow_matches_oracle_random(interner, rng):
    syms_pool = [alphabet(interner, s) for s in (1, 2, 4)]
    for t in range(500):
        syms = syms_pool[int(rng.integers(3))]
        n = int(rng.integers(0, 40))
        hcap = int(rng.integers(1, 7))
        F = random_forest(rng, n, hcap, syms)
        if rng.random() < 0.5:
            G = apply_random_edits(rng, F, int(rng.integers(0, 7)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 40)), hcap, syms)
        h = max(F.height(), G.height(), 1)
        k = int(rng.integers(1, 5))
        got = shallow_ted(F, G, h, QueryContext(k, BASE + t))
        want = ted_threshold(F, G, k)
        assert got == want, (t, k)


def test_shallow_on_planted_periodicity(interner, rng):
    for t in range(20):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 40)), k, 2, interner,
                               kind="horizontal")
        h = max(F.height(), G.height(), 1)
        assert shallow_ted(F, G, h, QueryContext(k, BASE + t)) == \
            ted_threshold(F, G, k)


def test_no_false_infinity(interner, rng):
    # INF only when the oracle also exceeds k
    syms = alphabet(interner, 2)
    for t in range(60):
        F = random_forest(rng, int(rng.integers(1, 25)), 4, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        k = int(rng.integers(1, 4))
        h = max(F.height(), G.height(), 1)
        if shallow_ted(F, G, h, QueryContext(k, BASE + t)) == INF:
            assert ted_threshold(F, G, k) == INF


def test_lengths_past_the_width_answer_inf(interner, rng):
    # 3,000 distinct leaves against one at h = k = 1: the sequences differ
    # in length by far more than w = 2, and the core's width exit answers
    # INF.  The trim of 504 covers the one-leaf side, so without that exit
    # the core would be empty and its 3,000 missed nodes would break the
    # allowed loss of 2,160
    syms = rng.permutation([interner.intern(f"x{i}") for i in range(3000)])
    codes = np.stack([syms << 1, (syms << 1) | 1], axis=1).ravel()
    F = LabeledForest.from_codes(codes)
    G = LabeledForest.from_codes(codes[:2])
    assert shallow_ted(F, G, 1, QueryContext(1, BASE)) == INF


def test_no_witness_below_the_trim_reaches_the_dp(interner, monkeypatch):
    # no alignment of cost <= kk = 2 exists (the labels refine into the
    # look-ahead labels, so those mismatch too), but the 8 positions are
    # below the trim of 504: the core is empty without a witness search and
    # the exact DP, not an early exit, answers INF
    F = forest("(a)(b)(c)(d)", interner)
    G = forest("(e)(f)(g)(h)", interner)
    assert greedy_bounded_align(F.codes, G.codes, 2, 2) is None
    solved = []

    def counted(*args, **kwargs):
        solved.append(args)
        return ted_threshold(*args, **kwargs)

    monkeypatch.setattr(tedk.shallow, "ted_threshold", counted)
    assert shallow_ted(F, G, 1, QueryContext(1, BASE)) == \
        ted_threshold(F, G, 1) == INF
    assert len(solved) == 1


def test_residual_size_contract(interner, rng, monkeypatch):
    # a residual larger than the partial-matching accounting allows is a
    # broken contract, reported even under python -O
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 5, syms)
    big = random_forest(rng, 2000, 5, syms)
    monkeypatch.setattr(tedk.shallow, "partial_reduce",
                        lambda *args: (big, big))
    with pytest.raises(ContractError):
        shallow_ted(F, F, F.height(), QueryContext(2, BASE))


def test_crossing_shared_matching_raises(interner, monkeypatch):
    # a crossing shared matching cannot come from one monotone alignment:
    # the partial reduction's own matching check raises, and shallow_ted
    # passes the fault on instead of answering distance > k
    F = forest("(a)(a)", interner)
    crossing = np.array([[0, 2], [1, 3], [2, 0], [3, 1]], dtype=np.int64)
    monkeypatch.setattr(tedk.shallow, "common_matching_core",
                        lambda *args: crossing)
    assert len(tedk.shallow.lift_position_matching(F, F, crossing)) == 2
    with pytest.raises(CrossingMatchingError):
        shallow_ted(F, F, 1, QueryContext(1, BASE))
