import numpy as np
import pytest

from tedk.context import QueryContext
from tedk.generate import alphabet, planted_pair, random_forest
from tedk.horizontal import (filter_runs, min_balance_rotations,
                             sync_occurrences, sync_reductions)
from tedk.indexes import compute_runs
from tedk.oracle import ted_threshold
from tedk.selftest import naive_runs

from conftest import forest, query
from reference import prefix_table, sync_power_occurrences


def enc(text, interner):
    """(side,label) codes for a bracket string: () and [] are two labels."""
    rd = interner.intern("rd")
    sq = interner.intern("sq")
    m = {"(": rd << 1, ")": (rd << 1) | 1, "[": sq << 1, "]": (sq << 1) | 1}
    return np.array([m[ch] for ch in text], dtype=np.int64)


def test_filter_runs_matches_naive(rng):
    k = 1
    for _ in range(30):
        S = rng.integers(0, 2, 200)
        got = filter_runs(S, k)
        want = [[i, j, p] for i, j, p in naive_runs(S)
                if p <= 4 * k and (j - i) >= 16 * k * p]
        assert got.dtype == np.int64 and got.tolist() == want


def test_filter_runs_planted(interner):
    k = 1
    F = forest("(r" + "(c)" * 20 + ")", interner)
    [[i, j, p]] = filter_runs(F.codes, k).tolist()
    assert p == 2 and j - i == 40


def test_context_runs_by_content(rng):
    # the context gives filter_runs(codes, k), found once for each of the
    # latest two strings: an equal string (another array) gets the same list
    k = 1
    ctx = query(k)
    S, T, U = (np.concatenate([rng.integers(0, 2, 100), np.tile(block, 20),
                               rng.integers(0, 2, 100)])
               for block in ([0, 1, 1], [1, 0, 0], [0, 0, 1, 1]))
    runs_s = ctx.runs(S)
    assert len(runs_s) and np.array_equal(runs_s, filter_runs(S, k))
    assert np.array_equal(ctx.runs(T), filter_runs(T, k))
    assert ctx.runs(S.copy()) is runs_s and ctx.runs(T.copy()) is ctx.runs(T)
    # S is now the oldest: dropped
    assert np.array_equal(ctx.runs(U), filter_runs(U, k))
    again = ctx.runs(S)
    assert np.array_equal(again, runs_s) and again is not runs_s
    with pytest.raises(ValueError):
        QueryContext(0, base=1)


def test_context_runs_and_tables_share_records(rng):
    # one record per string: its runs and its prefix table count as one of
    # the latest two strings, whichever was asked for first
    ctx = query(1)
    S, T, U = (rng.integers(0, 3, 200) for _ in range(3))
    runs_s = ctx.runs(S)
    hs = ctx.table(S.copy())
    assert hs.P.tolist() == prefix_table(S, ctx.base)
    assert ctx.table(T).P.tolist() == prefix_table(T, ctx.base)
    assert ctx.runs(S.copy()) is runs_s and ctx.table(S) is hs
    ctx.runs(U)  # S is now the oldest: dropped
    again = ctx.table(S)
    assert again is not hs and again.P.tolist() == prefix_table(S, ctx.base)


def test_sigma_examples(interner):
    assert min_balance_rotations(enc("()", interner)) == 0
    assert min_balance_rotations(enc(")][()(", interner)) == 2
    assert min_balance_rotations(enc("(((((", interner)) is None
    assert min_balance_rotations(enc("", interner)) == 0
    # label-inconsistent matches make balance impossible
    assert min_balance_rotations(enc("(]", interner)) is None


def stack_balance_rotations(codes):
    """Reference for `min_balance_rotations`: one stack pass finds the last
    unmatched close; rotate just past it, then pair with a stack."""
    codes = np.asarray(codes, dtype=np.int64).tolist()
    last_unmatched_close = -1
    depth = 0
    for p, code in enumerate(codes):
        if code & 1 == 0:
            depth += 1
        elif depth == 0:
            last_unmatched_close = p
        else:
            depth -= 1
    r = last_unmatched_close + 1
    stack = []
    for code in codes[r:] + codes[:r]:
        if code & 1 == 0:
            stack.append(code)
        elif not stack or stack.pop() != code - 1:
            return None
    return None if stack else r


def test_min_balance_rotations_match_stack_pass(interner, rng):
    syms = alphabet(interner, 3)
    found = 0
    for _ in range(2000):
        if rng.random() < 0.5:
            m = int(rng.integers(0, 13))
            codes = (rng.integers(0, 2, m) << 1) | rng.integers(0, 2, m)
        else:
            codes = random_forest(rng, int(rng.integers(0, 10)), 4,
                                  syms).codes
            if len(codes):
                codes = np.roll(codes, int(rng.integers(len(codes))))
                if rng.random() < 0.3:
                    codes[int(rng.integers(len(codes)))] ^= 2
        want = stack_balance_rotations(codes)
        assert min_balance_rotations(codes) == want, codes.tolist()
        found += want is not None
    assert 500 < found < 1900


def test_sync_occurrences_identical_aperiodic(interner, rng):
    syms = alphabet(interner, 3)
    while True:
        F = random_forest(rng, 20, 4, syms)
        if not len(filter_runs(F.codes, 1)):
            break
    assert sync_occurrences(F, F, query(1)).tolist() == []


def test_sync_occurrences_planted(interner):
    k = 1
    F = forest("(r" + "(c)" * 20 + ")", interner)
    G = forest("(r" + "(c)" * 20 + ")", interner)
    [[at_f, at_g, p, e]] = sync_occurrences(F, G, query(k)).tolist()
    assert p == 2 and at_f == at_g == 1 and e == 20 - 2 * k
    assert e >= 14 * k


def test_sync_occurrences_rejects_small_overlap(interner):
    # the same period blocks exist in both, but at distant offsets the
    # overlapping exponent never reaches 16k, so nothing qualifies
    k = 1
    F = forest("(r" + "(c)" * 20 + ")" + "(x)" * 30, interner)
    G = forest("(x)" * 30 + "(r" + "(c)" * 20 + ")", interner)
    assert sync_occurrences(F, G, query(k)).tolist() == []


def test_sync_occurrences_site_at_later_start(interner):
    # F's run of (c) blocks starts at 0 and G's at 2: the site starts at the
    # later start in both strings, and e counts the whole periods of the
    # overlap [2, 40), 19, less 2k
    k = 1
    F = forest("(c)" * 20 + "(x)", interner)
    G = forest("(x)" + "(c)" * 20, interner)
    assert sync_occurrences(F, G, query(k)).tolist() == [[2, 2, 2, 17]]
    F2, G2 = sync_reductions(F, G, query(k))
    assert F2 == forest("(c)" * 17 + "(x)", interner)
    assert G2 == forest("(x)" + "(c)" * 17, interner)


def test_empty_detections_keep_their_columns(interner):
    # no run, or runs but no synchronized site: each detector still returns
    # int64 rows of its width, and a pair with no site reduces to itself
    k = 1
    flat = forest("(a(b))(c)", interner)
    F = forest("(r" + "(c)" * 20 + ")" + "(x)" * 30, interner)
    G = forest("(x)" * 30 + "(r" + "(c)" * 20 + ")", interner)
    ctx = query(k)
    assert len(ctx.runs(F.codes)) and len(ctx.runs(G.codes))
    for got, width in ((compute_runs(np.empty(0, dtype=np.int64)), 3),
                       (compute_runs(flat.codes), 3),
                       (filter_runs(flat.codes, k), 3),
                       (ctx.runs(flat.codes), 3),
                       (sync_occurrences(flat, flat, ctx), 4),
                       (sync_occurrences(F, G, ctx), 4)):
        assert got.dtype == np.int64 and got.shape == (0, width)
    for A, B in ((flat, flat), (F, G)):
        A2, B2 = sync_reductions(A, B, ctx)
        assert A2 == A and B2 == B


def test_sync_reductions_identity_when_clean(interner, rng):
    syms = alphabet(interner, 4)
    F = random_forest(rng, 25, 4, syms)
    G = random_forest(rng, 25, 4, syms)
    F2, G2 = sync_reductions(F, G, query(1))
    if not len(sync_occurrences(F, G, query(1))):
        assert F2 == F and G2 == G


def test_sync_reductions_planted_exponent(interner):
    k = 1
    F = forest("(r" + "(c)" * 30 + ")", interner)
    G = forest("(r" + "(c)" * 30 + ")", interner)
    F2, G2 = sync_reductions(F, G, query(k))
    # detected occurrence carries e = 30 - 2k; the site keeps 14k of those
    # repetitions, so 30 - (28 - 14) = 16 children remain
    assert F2.n == 1 + 16 and G2.n == 1 + 16
    assert ted_threshold(F2, G2, k) == ted_threshold(F, G, k) == 0


def is_subsequence(sub, full):
    it = iter(full.tolist())
    return all(ch in it for ch in sub.tolist())


def test_sync_reductions_preserve_distance(interner, rng):
    for t in range(25):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 60)), k, 2, interner,
                               kind="horizontal")
        F2, G2 = sync_reductions(F, G, query(k))
        assert ted_threshold(F2, G2, k) == ted_threshold(F, G, k)
        # character conservation: outputs are subsequences of the inputs
        assert is_subsequence(F2.codes, F.codes)
        assert is_subsequence(G2.codes, G.codes)


def test_postcondition_no_synced_balanced_powers(interner, rng):
    for t in range(15):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 80)), k, 2, interner,
                               kind="horizontal")
        F2, G2 = sync_reductions(F, G, query(k))
        X, Y = F2.codes, G2.codes
        bad = [(x, y, q) for (x, y, q)
               in sync_power_occurrences(X, Y, 2 * k, 18 * k, 4 * k)
               if min_balance_rotations(X[x:x + q]) is not None]
        assert not bad
