"""Built-in check suites behind `tedk selftest`, and the references they run.

Each check prints one pass/fail line; quick keeps counts small, full runs
the oracle-equivalence sweep at acceptance scale.  Returns overall success.

The references are written straight from the definitions, with no machinery
shared with the production paths, and are quadratic or worse on purpose:
`naive_runs` checks every interval for a run, `banded_edit_cost` is the
full banded string DP, and `ted_brute_constrained` enumerates every Tai
mapping.  The test suites compare against the same three functions, and
draw their strings at the edge of the engine's run filter from
`planted_runs`.
"""

from __future__ import annotations

import numpy as np

from .alignment import (as_codes, eval_alignment, greedy_bounded_align,
                        is_greedy)
from .context import QueryContext
from .engine import EngineConfig, ted_bounded
from .forest import LabeledForest, LabelInterner
from .generate import (alphabet, apply_random_edits, planted_pair,
                       random_forest)
from .horizontal import filter_runs, min_balance_rotations, sync_reductions
from .indexes import compute_runs
from .oracle import ted_threshold
from .partial import partial_reduce, validate_matching
from .vertical import vert_sync_reductions


# -- references ---------------------------------------------------------------

def prefix_function(S) -> list[int]:
    n = len(S)
    pi = [0] * n
    for i in range(1, n):
        j = pi[i - 1]
        while j and S[i] != S[j]:
            j = pi[j - 1]
        if S[i] == S[j]:
            j += 1
        pi[i] = j
    return pi


def naive_runs(S) -> list[list[int]]:
    """All runs by checking the definition for every interval: sorted
    [i, j, p] rows, as `compute_runs(S).tolist()` gives them."""
    S = as_codes(S).tolist()
    n = len(S)
    out = []
    for i in range(n):
        pi = prefix_function(S[i:])
        for ln in range(2, n - i + 1):
            p = ln - pi[ln - 1]
            if ln < 2 * p:
                continue
            j = i + ln
            if i > 0 and S[i - 1] == S[i - 1 + p]:
                continue
            if j < n and S[j] == S[j - p]:
                continue
            out.append([i, j, p])
    return sorted(out)


def primitive_word(rng, p: int) -> np.ndarray:
    """A random word of length p over 0, 1, 2 that is no power of a shorter
    word, so that its repetitions have smallest period p."""
    while True:
        word = rng.integers(0, 3, p)
        if not any(np.array_equal(word, np.roll(word, d)) for d in range(1, p)):
            return word


def planted_runs(rng, k: int) -> tuple[np.ndarray, list[list[int]]]:
    """A code string with runs at the edge of the engine's run filter
    (period <= 4k, exponent >= 16k), and the [i, j, p] rows of the runs that
    filter keeps.

    Three runs of random periods p <= 4k have equality stretches of
    need - 1, need and need + 1 positions in random order, where
    need = (16k - 1) p is the shortest stretch the filter keeps.  The first
    two are split by one mismatch; the pieces touch both ends of the string
    and are parted by random filler between two symbols that occur once.
    Filler shorter than 16 holds no run of exponent 16, and any other run
    of period q inside a piece is shorter than p + q (Fine and Wilf), so
    the planted runs are all that the filter keeps.
    """
    fresh = iter(range(3, 1 << 30))  # symbols that occur once
    deltas = rng.permutation([-1, 0, 1]).tolist()
    pieces, runs, at = [], [], 0

    def plant(p, stretches):
        nonlocal at
        need = (16 * k - 1) * p
        word = primitive_word(rng, p)
        for t, delta in enumerate(stretches):
            if t:
                pieces.append([next(fresh)])  # the mismatch
                at += 1
            length = need + delta + p
            pieces.append(np.resize(word, length))
            if delta >= 0:
                runs.append([at, at + length, p])
            at += length

    order = [deltas[:2], deltas[2:]]
    for t in rng.permutation(2).tolist():
        if pieces:
            filler = rng.integers(0, 3, int(rng.integers(0, 16)))
            pieces += [[next(fresh)], filler, [next(fresh)]]
            at += len(filler) + 2
        plant(int(rng.integers(1, 4 * k + 1)), order[t])
    return np.concatenate(pieces).astype(np.int64), sorted(runs)


def banded_edit_cost(X, Y, w: int) -> int | None:
    """Min alignment cost with every |x_t - y_t| <= w, by full DP."""
    X, Y = as_codes(X).tolist(), as_codes(Y).tolist()
    nx, ny = len(X), len(Y)
    if abs(nx - ny) > w:
        return None
    big = nx + ny + 1
    width = 2 * w + 1
    prev = [big] * width
    for j in range(-w, w + 1):  # x = 0 row: j = y
        if 0 <= j <= ny:
            prev[j + w] = j
    for x in range(1, nx + 1):
        cur = [big] * width
        for j in range(-w, w + 1):
            y = x + j
            if y < 0 or y > ny:
                continue
            best = big
            if j + 1 <= w and prev[j + 1 + w] < big:           # delete X[x-1]
                best = min(best, prev[j + 1 + w] + 1)
            if y >= 1 and j - 1 >= -w and cur[j - 1 + w] < big:  # insert Y[y-1]
                best = min(best, cur[j - 1 + w] + 1)
            if y >= 1 and prev[j + w] < big:                   # align
                best = min(best, prev[j + w] + (X[x - 1] != Y[y - 1]))
            cur[j + w] = best
        prev = cur
    val = prev[ny - nx + w]
    return None if val >= big else val


def _tai_compatible(F, G, pairs, u, v) -> bool:
    endf, endg = F.subtree_end, G.subtree_end
    for (u2, v2) in pairs:
        anc_f = u2 < u < endf[u2]
        anc_g = v2 < v < endg[v2]
        if anc_f != anc_g:
            return False
        if not anc_f and not (u >= endf[u2] and v >= endg[v2]):
            return False
    return True


def all_tai_mappings(F: LabeledForest, G: LabeledForest):
    """Yield every order/ancestor-consistent one-to-one node mapping."""
    nf, ng = F.n, G.n

    def rec(u, min_v, pairs):
        if u == nf:
            yield list(pairs)
            return
        yield from rec(u + 1, min_v, pairs)
        for v in range(min_v, ng):
            if _tai_compatible(F, G, pairs, u, v):
                pairs.append((u, v))
                yield from rec(u + 1, v + 1, pairs)
                pairs.pop()

    yield from rec(0, 0, [])


def mapping_cost(F, G, pairs) -> int:
    lab_f, lab_g = F.labels, G.labels
    mismatch = sum(1 for (u, v) in pairs if lab_f[u] != lab_g[v])
    return (F.n - len(pairs)) + (G.n - len(pairs)) + mismatch


def ted_brute_constrained(F: LabeledForest, G: LabeledForest, M) -> float:
    """min cost over Tai mappings that match every pair of M."""
    best = float("inf")
    want = {(int(u), int(v)) for (u, v) in np.asarray(M).reshape(-1, 2)}
    lab_f, lab_g = F.labels, G.labels
    for (u, v) in want:
        if lab_f[u] != lab_g[v]:
            return float("inf")
    for p in all_tai_mappings(F, G):
        if want <= set(p):
            best = min(best, mapping_cost(F, G, p))
    return best


# -- checks -------------------------------------------------------------------

def _check_runs(rng, count: int) -> tuple[int, int]:
    bad = 0
    for _ in range(count):
        n = int(rng.integers(0, 120))
        S = rng.integers(0, 3, n)
        got = compute_runs(S).tolist()
        if got != naive_runs(S) or len(got) >= max(1, n):
            bad += 1
    # the engine's call, filtered to period <= 4k and exponent >= 16k
    planted = count // 10
    for t in range(planted):
        k = 1 + t % 3
        S, kept = planted_runs(rng, k)
        got = filter_runs(S, k).tolist()
        want = [[i, j, p] for i, j, p in naive_runs(S)
                if p <= 4 * k and j - i >= 16 * k * p]
        if got != want or got != kept:
            bad += 1
    return bad, count + planted


def _check_greedy(rng, count: int) -> tuple[int, int]:
    bad = 0
    for _ in range(count):
        nx, ny = rng.integers(0, 30, 2)
        X = rng.integers(0, 3, nx)
        Y = rng.integers(0, 3, ny)
        w = int(rng.integers(0, 5))
        k = int(rng.integers(w, 8))
        A = greedy_bounded_align(X, Y, k, w)
        want = banded_edit_cost(X, Y, w)
        if want is None or want > k:
            ok = A is None
        elif A is None:
            ok = False
        else:
            st = eval_alignment(A, X, Y)
            ok = st.cost == want and st.width <= w and is_greedy(A, X, Y)
        bad += 0 if ok else 1
    return bad, count


def _check_sigma() -> tuple[int, int]:
    # ")][()(" with square/round labels -> 2 ; "(((((" -> impossible
    rd, sq = 0, 1
    X = np.array([(rd << 1) | 1, (sq << 1) | 1, sq << 1, rd << 1,
                  (rd << 1) | 1, rd << 1], dtype=np.int64)
    bad = 0 if min_balance_rotations(X) == 2 else 1
    Y = np.array([rd << 1] * 5, dtype=np.int64)
    bad += 0 if min_balance_rotations(Y) is None else 1
    return bad, 2


def _check_reductions(rng, count: int, interner) -> tuple[int, int]:
    bad = 0
    for t in range(count):
        k = int(rng.integers(1, 3))
        F, G, _ = planted_pair(rng, int(rng.integers(0, 40)), k, 2, interner,
                               kind=("horizontal", "vertical", "mixed")[t % 3])
        want = ted_threshold(F, G, k)
        # the reductions hash nothing, so any fingerprint base will do
        ctx = QueryContext(k, base=0x5E1F)
        F1, G1 = sync_reductions(F, G, ctx)
        F2, G2 = vert_sync_reductions(F1, G1, ctx)
        if ted_threshold(F1, G1, k) != want or ted_threshold(F2, G2, k) != want:
            bad += 1
    return bad, count


def _check_partial(rng, count: int, interner) -> tuple[int, int]:
    bad = 0
    for _ in range(count):
        syms = alphabet(interner, 2)
        F = random_forest(rng, int(rng.integers(1, 8)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 2)), syms)
        # grow a random non-crossing matching greedily
        pairs = []
        lab_f, lab_g = F.labels, G.labels
        for u in rng.permutation(F.n)[:3]:
            for v in rng.permutation(G.n):
                cand = pairs + [(int(u), int(v))]
                if lab_f[u] == lab_g[v]:
                    try:
                        validate_matching(F, G, np.array(cand))
                        pairs = cand
                        break
                    except ValueError:
                        continue
        M = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        k = int(rng.integers(1, 4))
        F2, G2 = partial_reduce(F, G, M, QueryContext(k, base=0x5E1F))
        got = ted_threshold(F2, G2, k)
        want = ted_brute_constrained(F, G, M)
        want = want if want <= k else float("inf")
        if got != want:
            bad += 1
    return bad, count


def _check_engine(rng, count: int, interner) -> tuple[int, int]:
    bad = 0
    for t in range(count):
        syms = alphabet(interner, int(rng.integers(1, 5)))
        n = int(rng.integers(0, 40))
        F = random_forest(rng, n, int(rng.integers(1, 7)), syms)
        if rng.random() < 0.5:
            G = apply_random_edits(rng, F, int(rng.integers(0, 7)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 40)),
                              int(rng.integers(1, 7)), syms)
        k = int(rng.integers(1, 6))
        if ted_bounded(F, G, EngineConfig(k=k, seed=t)) \
                != ted_threshold(F, G, k):
            bad += 1
    return bad, count


def run_selftest(level: str = "quick") -> bool:
    scale = 1 if level == "quick" else 10
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240801)))
    interner = LabelInterner()
    checks = [
        ("runs vs naive maximal-periodicity scan", _check_runs(rng, 30 * scale)),
        ("greedy alignment vs banded DP", _check_greedy(rng, 60 * scale)),
        ("balance rotation examples", _check_sigma()),
        ("periodicity reductions preserve ted<=k",
         _check_reductions(rng, 12 * scale, interner)),
        ("partial matching vs constrained brute force",
         _check_partial(rng, 10 * scale, interner)),
        ("engine vs oracle", _check_engine(rng, 40 * scale, interner)),
    ]
    ok = True
    for name, (bad, count) in checks:
        status = "ok" if bad == 0 else "FAIL"
        print(f"[{status}] {name}: {count - bad}/{count}")
        ok = ok and bad == 0
    return ok
