import numpy as np
import pytest

import tedk.alignment
from tedk.alignment import (as_codes, common_matching_core, eval_alignment,
                            greedy_bounded_align, is_greedy)
from tedk.errors import MalformedAlignmentError, NoAlignmentError
from tedk.generate import alphabet, random_forest
from tedk.selftest import banded_edit_cost

from conftest import forest, is_tree_alignment, sym_diff_size
from reference import sync_power_occurrences


def all_alignments(nx, ny, cap=None):
    """Every monotone unit-step pair sequence from (0,0) to (nx,ny)."""
    out = []

    def rec(x, y, path):
        if cap is not None and len(path) - 1 - min(x, y) > cap:
            return
        if x == nx and y == ny:
            out.append(np.array(path, dtype=np.int64))
            return
        if x < nx:
            rec(x + 1, y, path + [(x + 1, y)])
        if y < ny:
            rec(x, y + 1, path + [(x, y + 1)])
        if x < nx and y < ny:
            rec(x + 1, y + 1, path + [(x + 1, y + 1)])

    rec(0, 0, [(0, 0)])
    return out


def budget_alignments(X, Y, k, w):
    """All alignments with cost <= k and width <= w (cost-pruned search)."""
    X, Y = as_codes(X).tolist(), as_codes(Y).tolist()
    nx, ny = len(X), len(Y)
    out = []

    def rec(x, y, cost, path):
        if cost > k or abs(x - y) > w:
            return
        if cost + abs((nx - x) - (ny - y)) > k:
            return
        if x == nx and y == ny:
            out.append(np.array(path, dtype=np.int64))
            return
        if x < nx:
            rec(x + 1, y, cost + 1, path + [(x + 1, y)])
        if y < ny:
            rec(x, y + 1, cost + 1, path + [(x, y + 1)])
        if x < nx and y < ny:
            rec(x + 1, y + 1, cost + (X[x] != Y[y]), path + [(x + 1, y + 1)])

    rec(0, 0, 0, [(0, 0)])
    return out


def test_eval_examples():
    A = np.array([(i, i) for i in range(2 + 1)])
    st = eval_alignment(A, "ab", "ab")
    assert st.cost == 0 and st.width == 0
    assert len(st.matches) == 2 and len(st.breakpoints) == 1
    B = np.array([(0, 0), (1, 0), (2, 0)])
    assert eval_alignment(B, "ab", "").cost == 2
    with pytest.raises(MalformedAlignmentError):
        eval_alignment(np.array([(0, 0), (2, 1)]), "ab", "a")
    with pytest.raises(MalformedAlignmentError):
        eval_alignment(np.array([(i, i) for i in range(1 + 1)]), "ab", "ab")
    for bad in (np.zeros((0, 2)), np.zeros(2), np.zeros((1, 3))):
        with pytest.raises(MalformedAlignmentError):
            eval_alignment(bad, "", "")


def test_eval_cost_recount(rng):
    for _ in range(50):
        nx, ny = rng.integers(0, 7, 2)
        X = rng.integers(0, 2, nx)
        Y = rng.integers(0, 2, ny)
        for A in all_alignments(int(nx), int(ny))[:40]:
            st = eval_alignment(A, X, Y)
            steps = np.diff(A, axis=0)
            manual = 0
            for t, (dx, dy) in enumerate(steps.tolist()):
                x, y = A[t]
                if dx == 1 and dy == 1 and X[x] == Y[y]:
                    continue
                manual += 1
            assert st.cost == manual
            assert len(st.breakpoints) == 1 + st.cost


def test_greedy_align_examples():
    A = greedy_bounded_align("ab", "ab", 0, 0)
    assert eval_alignment(A, "ab", "ab").cost == 0
    A = greedy_bounded_align("abc", "axc", 1, 1)
    assert eval_alignment(A, "abc", "axc").cost == 1
    assert greedy_bounded_align("abc", "abcd", 0, 0) is None
    with pytest.raises(ValueError):
        greedy_bounded_align("a", "a", 1, 2)


def test_greedy_align_matches_banded_dp(rng):
    for _ in range(400):
        nx, ny = rng.integers(0, 40, 2)
        X = rng.integers(0, 3, nx)
        Y = rng.integers(0, 3, ny)
        w = int(rng.integers(0, 7))
        k = int(rng.integers(w, 7))
        A = greedy_bounded_align(X, Y, k, w)
        want = banded_edit_cost(X, Y, w)
        if want is None or want > k:
            assert A is None
        else:
            assert A is not None
            st = eval_alignment(A, X, Y)
            assert st.cost == want
            assert st.width <= w
            assert is_greedy(A, X, Y)


def test_greedy_align_reads_strided_views(rng):
    # the same alignment on strided and reversed views as on contiguous
    # copies of them: each string sits at the even positions of an array
    # twice its length, between junk characters
    for t in range(150):
        X0 = rng.integers(0, 1 + t % 3, int(rng.integers(0, 120)))
        Y0 = X0.copy()
        for _ in range(int(rng.integers(0, 4))):
            at = int(rng.integers(0, len(Y0) + 1))
            Y0 = (np.insert(Y0, at, rng.integers(0, 4)) if rng.random() < 0.5
                  or len(Y0) == 0 else np.delete(Y0, min(at, len(Y0) - 1)))
        views = []
        for S in (X0, Y0):
            spread = rng.integers(5, 9, 2 * len(S))
            spread[0::2] = S
            views.append(spread[0::2] if t % 2 else spread[-2::-2])
        X, Y = views
        w = int(rng.integers(0, 4))
        for k in (w, w + 3, w + len(X) + len(Y)):
            A = greedy_bounded_align(X, Y, k, w)
            B = greedy_bounded_align(X.copy(), Y.copy(), k, w)
            assert (A is None) == (B is None)
            if A is not None:
                assert np.array_equal(A, B)


def test_greedy_align_deterministic(rng):
    X = rng.integers(0, 2, 30)
    Y = rng.integers(0, 2, 30)
    A = greedy_bounded_align(X, Y, 6, 3)
    B = greedy_bounded_align(X, Y, 6, 3)
    if A is not None:
        assert np.array_equal(A, B)


_NEG = -(1 << 60)


def _greedy_align_rowwise(X, Y, k, w):
    """greedy_bounded_align computed one cost level and one diagonal at a
    time, with a plain LCE loop: the reference for the whole aligner."""
    X, Y = as_codes(X).tolist(), as_codes(Y).tolist()
    nx, ny = len(X), len(Y)
    delta = ny - nx
    if abs(delta) > w:
        return None
    reach, starts, ops = [], [], []
    for i in range(min(k, nx + ny) + 1):
        row, row_s, row_op = ([_NEG] * (2 * w + 1), [_NEG] * (2 * w + 1),
                              [0] * (2 * w + 1))
        for j in range(-min(i, w), min(i, w) + 1):
            limit = min(nx, ny - j)
            if i == 0:
                s, op = 0, 0
            else:
                prev = reach[i - 1]
                s, op = _NEG, 0
                dele = prev[j + 1 + w] + 1 if j + 1 <= w else _NEG
                ins = prev[j - 1 + w] if j - 1 >= -w else _NEG
                for c, o, lo in ((dele, 1, 1), (ins, 2, 0),
                                 (prev[j + w] + 1, 3, 1)):
                    if c > s and lo <= c <= limit:
                        s, op = c, o
                if prev[j + w] >= s:
                    s, op = prev[j + w], 0
                if s < 0:
                    continue
            x = s
            while x < limit and X[x] == Y[x + j]:
                x += 1
            row[j + w], row_s[j + w], row_op[j + w] = x, s, op
        reach.append(row)
        starts.append(row_s)
        ops.append(row_op)
        if row[delta + w] >= nx:
            break
    else:
        return None
    pairs = []
    i, j, x = len(reach) - 1, delta, nx
    while True:
        while i > 0 and reach[i - 1][j + w] >= x:
            i -= 1
        s = starts[i][j + w]
        pairs.extend((t, t + j) for t in range(x, s - 1, -1))
        x = s
        if i == 0:
            break
        op = ops[i][j + w]
        if op == 1:
            i, j, x = i - 1, j + 1, x - 1
        elif op == 2:
            i, j = i - 1, j - 1
        else:
            i, x = i - 1, x - 1
    return np.array(pairs[::-1], dtype=np.int64)


def test_greedy_align_mismatch_runs_match_rowwise(rng):
    # long stretches where every diagonal mismatches (a relabeled block,
    # possibly of another length), ending anywhere, under budgets that also
    # run out inside a stretch
    for t in range(300):
        n = int(rng.integers(0, 300))
        X = rng.integers(0, 1 + t % 3, n)
        a = int(rng.integers(0, n + 1))
        b = int(rng.integers(a, n + 1))
        size = max(0, b - a + int(rng.integers(-3, 4)))
        Y = np.concatenate([X[:a], rng.integers(10, 13 + t % 4, size), X[b:]])
        if t % 2:
            X, Y = Y, X
        for _ in range(int(rng.integers(0, 3))):
            at = int(rng.integers(0, len(Y) + 1))
            Y = (np.insert(Y, at, rng.integers(0, 3)) if rng.random() < 0.5
                 or len(Y) == 0 else np.delete(Y, min(at, len(Y) - 1)))
        w = int(rng.integers(0, 4))
        for k in (w, w + int(rng.integers(0, 40)), w + n + len(Y)):
            A = greedy_bounded_align(X, Y, k, w)
            B = _greedy_align_rowwise(X, Y, k, w)
            assert (A is None) == (B is None)
            if A is not None:
                assert np.array_equal(A, B)


def test_is_greedy_examples():
    # deleting equal leading characters is not greedy
    A = np.array([(0, 0), (1, 0), (2, 1), (2, 2)])
    assert not is_greedy(A, "aa", "aa")
    assert is_greedy(np.array([(i, i) for i in range(2 + 1)]), "aa", "aa")


def test_is_greedy_matches_definition(rng):
    for _ in range(30):
        nx, ny = rng.integers(0, 5, 2)
        X = rng.integers(0, 2, nx)
        Y = rng.integers(0, 2, ny)
        for A in all_alignments(int(nx), int(ny)):
            st = eval_alignment(A, X, Y)
            direct = all(X[x] != Y[y] for (x, y) in st.breakpoints.tolist()
                         if x != nx and y != ny)
            assert is_greedy(A, X, Y) == direct


def naive_is_tree_alignment(A, F, G):
    sf, sg = F.codes, G.codes
    diag = (np.diff(A[:, 0]) == 1) & (np.diff(A[:, 1]) == 1)
    amap = {int(A[t, 0]): int(A[t, 1]) for t in np.flatnonzero(diag)}
    bmap = {y: x for x, y in amap.items()}
    for H, other, m in ((F, G, amap), (G, F, bmap)):
        for u in range(H.n):
            a, b = m.get(int(H.o[u])), m.get(int(H.c[u]))
            if a is None and b is None:
                continue
            if a is None or b is None:
                return False
            hit = [v for v in range(other.n)
                   if int(other.o[v]) == a and int(other.c[v]) == b]
            if not hit:
                return False
    return True


def test_tree_alignment_examples(interner):
    F = forest("(a(b))", interner)
    A = np.array([(i, i) for i in range(2 * F.n + 1)])
    assert is_tree_alignment(A, F, F)
    # o(b) aligned but c(b) deleted, with an insertion to stay monotone
    B = np.array([(0, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 4)])
    assert not is_tree_alignment(B, F, F)


def test_tree_alignment_matches_enumeration(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(8):
        F = random_forest(rng, int(rng.integers(1, 4)), 2, syms)
        G = random_forest(rng, int(rng.integers(1, 4)), 2, syms)
        for A in all_alignments(2 * F.n, 2 * G.n)[:3000]:
            assert is_tree_alignment(A, F, G) == naive_is_tree_alignment(A, F, G)


def pair_set(A):
    return set(map(tuple, A.tolist()))


def test_sym_diff(rng):
    A = np.array([(i, i) for i in range(5 + 1)])
    assert sym_diff_size(A, A) == 0
    B = np.array([(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (5, 5)])
    a, b = pair_set(A), pair_set(B)
    assert sym_diff_size(A, B) == len(a ^ b)
    # C holds every pair of A plus the two detour pairs (0, 1) and (5, 4)
    C = np.array([(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (4, 4),
                  (5, 4), (5, 5)])
    inter = pair_set(A) & pair_set(C)
    assert inter == {(i, i) for i in range(6)}
    assert sym_diff_size(A, C) == len(pair_set(A) ^ pair_set(C)) == 2


def test_common_matching_trivial_formula(rng):
    X = rng.integers(0, 2, 30)
    M = common_matching_core(X, X, 1, 1, 1)  # trim 7*1*1*1 = 7
    assert M.tolist() == [[i, i] for i in range(7, 30)]


def test_common_matching_two_fragments(rng):
    X = rng.integers(0, 2, 40)
    Y = X.copy()
    Y[20] = 1 - Y[20]
    M = common_matching_core(X, Y, 1, 1, 1)
    want = [[i, i] for i in range(7, 20)] + [[i, i] for i in range(28, 40)]
    assert M.tolist() == want
    with pytest.raises(NoAlignmentError):
        common_matching_core("aaa", "bbb", 1, 0, 1)


def test_common_matching_exits_before_the_size_test():
    # the arguments are checked, and lengths further apart than w refused,
    # even where the trim (14 and 42 here) covers both strings
    with pytest.raises(ValueError):
        common_matching_core("ab", "ab", 1, 2, 1)
    with pytest.raises(NoAlignmentError):
        common_matching_core("abcd", "a", 3, 2, 1)


def test_common_matching_builds_a_witness_only_above_the_trim(rng, monkeypatch):
    # the skip never changes a value, so count the witness searches: one
    # runs exactly when min(|X|, |Y|) > trim, and below that the core is
    # empty
    calls = []

    def counted(*args):
        calls.append(args)
        return greedy_bounded_align(*args)

    monkeypatch.setattr(tedk.alignment, "greedy_bounded_align", counted)
    for k, w, e in ((1, 1, 1), (2, 1, 3), (3, 2, 1)):
        trim = 7 * w * k * e
        for n in (trim - 1, trim, trim + 1):
            for d in range(-w, w + 1):
                X = rng.integers(0, 3, n)
                Y = np.concatenate([X, rng.integers(0, 3, w)])[:n + d]
                before = len(calls)
                M = common_matching_core(X, Y, k, w, e)
                built = len(calls) - before
                assert built == (min(len(X), len(Y)) > trim), (k, w, e, n, d)
                if not built:
                    assert M.shape == (0, 2) and M.dtype == np.int64


def test_common_matching_contained_in_every_greedy_witness(rng):
    # enumerate all greedy alignments within (k, w) and check containment
    for _ in range(25):
        n = int(rng.integers(4, 9))
        X = rng.integers(0, 2, n)
        Y = X.copy()
        if rng.random() < 0.7 and n:
            Y[rng.integers(n)] ^= 1
        k, w, e = 2, 1, 1
        if sync_power_occurrences(X, Y, w, e, 2 * w):
            continue  # precondition violated; skip sample
        try:
            M = {tuple(p) for p in common_matching_core(X, Y, k, w, e).tolist()}
        except NoAlignmentError:
            continue
        found_any = False
        for A in budget_alignments(X, Y, k, w):
            st = eval_alignment(A, X, Y)
            if not is_greedy(A, X, Y):
                continue
            found_any = True
            assert M <= set(map(tuple, st.matches.tolist()))
        assert found_any
        assert len(M) >= n - 15 * w * k * k * e


def test_sheep_bound(rng):
    # periodicity-free pairs: any two (k,w)-alignments share most elements
    k, w, e = 3, 2, 3
    checked = 0
    while checked < 10:
        n = int(rng.integers(5, 10))
        X = rng.integers(0, 4, n)
        Y = rng.integers(0, 4, n)
        if sync_power_occurrences(X, Y, w, e, 2 * w):
            continue
        alns = budget_alignments(X, Y, k, w)
        if len(alns) < 2:
            continue
        idx = rng.integers(0, len(alns), 20)
        for a, b in zip(idx[::2], idx[1::2]):
            A, B = alns[int(a)], alns[int(b)]
            diff = len(pair_set(A) - pair_set(B))
            assert diff <= 7 * w * k * e
        checked += 1
