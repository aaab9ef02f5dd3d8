"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np

from tedk.alignment import eval_alignment, greedy_bounded_align, is_greedy
from tedk.context import QueryContext
from tedk.engine import EngineConfig, ted_bounded
from tedk.forest import LabelInterner
from tedk.generate import (alphabet, apply_random_edits, planted_pair,
                           random_forest)
from tedk.horizontal import min_balance_rotations, sync_reductions
from tedk.indexes import compute_runs
from tedk.oracle import INF, ted_threshold
from tedk.partial import (gadget, partial_reduce, prune_redundant,
                          reduce_height, validate_matching)
from tedk.reduction import reduce_and_anchor
from tedk.selftest import banded_edit_cost, naive_runs
from tedk.vertical import vert_sync_reductions

from conftest import (is_tree_alignment, query, sym_diff_size,
                      ted_constrained)
from reference import sync_power_occurrences, synced_context_powers


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


CRITERION_LINES: list[str] = []


def report(name, ok, detail):
    # collected lines are re-printed by the terminal-summary hook in
    # conftest.py, outside pytest's capture
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    CRITERION_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def test_criterion_1_oracle_equivalence_end_to_end():
    rng = _rng(101)
    interner = LabelInterner()
    t0 = time.time()
    mismatches = 0
    cases = 0
    pools = [alphabet(interner, s) for s in (1, 2, 4)]
    for t in range(2000):
        syms = pools[int(rng.integers(3))]
        k = int(rng.integers(1, 6))
        F = random_forest(rng, int(rng.integers(0, 41)),
                          int(rng.integers(1, 8)), syms)
        if rng.random() < 0.5:
            G = apply_random_edits(rng, F, int(rng.integers(0, 8)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 41)),
                              int(rng.integers(1, 8)), syms)
        got = ted_bounded(F, G, EngineConfig(k=k, seed=t))
        want = ted_threshold(F, G, k)
        mismatches += got != want
        cases += 1
    for t in range(500):
        k = int(rng.integers(1, 3))
        kind = ("horizontal", "vertical", "mixed")[t % 3]
        F, G, _ = planted_pair(rng, int(rng.integers(0, 40)), k, 2, interner,
                               kind=kind)
        got = ted_bounded(F, G, EngineConfig(k=k, seed=t))
        want = ted_threshold(F, G, k)
        mismatches += got != want
        cases += 1
    wall = time.time() - t0
    report("criterion 1: engine == oracle end-to-end",
           mismatches == 0 and wall < 300,
           f"{cases} cases, {mismatches} mismatches, {wall:.1f}s")


def test_criterion_2_reduction_soundness():
    rng = _rng(202)
    interner = LabelInterner()
    bad = 0
    cases = 0
    while cases < 300:
        k = int(rng.integers(1, 3))
        kind = ("horizontal", "vertical", "mixed")[cases % 3]
        F, G, _ = planted_pair(rng, int(rng.integers(0, 180)), k, 2, interner,
                               kind=kind)
        if F.n > 300 or G.n > 300:
            continue
        want = ted_threshold(F, G, k)
        F1, G1 = sync_reductions(F, G, query(k))
        F2, G2 = vert_sync_reductions(F1, G1, query(k))
        bad += ted_threshold(F1, G1, k) != want
        bad += ted_threshold(F2, G2, k) != want
        cases += 1
    report("criterion 2: hor/ver reductions preserve ted<=k", bad == 0,
           f"{cases} planted instances (n<=300, k<=2), {bad} violations")


def test_criterion_3_periodicity_postconditions():
    rng = _rng(303)
    interner = LabelInterner()
    bad_a = bad_b = bad_c = 0
    cases = 0
    sizes = [2400, 1200, 600] + [int(rng.integers(0, 300)) for _ in range(27)]
    for t, base in enumerate(sizes):
        k = 1 + t % 2
        kind = ("horizontal", "vertical", "mixed")[t % 3]
        F, G, _ = planted_pair(rng, base, k, 2, interner, kind=kind)
        assert F.n <= 5000 and G.n <= 5000
        F1, G1 = sync_reductions(F, G, query(k))
        X, Y = F1.codes, G1.codes
        bad_a += any(min_balance_rotations(X[x:x + q]) is not None
                     for (x, y, q)
                     in sync_power_occurrences(X, Y, 2 * k, 18 * k, 4 * k))
        F2, G2 = vert_sync_reductions(F1, G1, query(k))
        bad_b += bool(synced_context_powers(F2, G2, 2 * k, 16 * k, 4 * k))
        rp = reduce_and_anchor(F, G, QueryContext(k, 0xACCE97 + t))
        bad_c += bool(sync_power_occurrences(rp.seq_f, rp.seq_g, 2 * k,
                                             20 * k + 2, 4 * k))
        cases += 1
    report("criterion 3: periodicity postconditions (a/b/c scanners)",
           bad_a == 0 and bad_b == 0 and bad_c == 0,
           f"{cases} planted suites, violations a={bad_a} b={bad_b} c={bad_c}")


def test_criterion_4_runs_correctness():
    rng = _rng(404)
    bad = 0
    count_bad = 0
    for t in range(500):
        n = int(rng.integers(0, 301))
        S = rng.integers(0, int(rng.integers(2, 5)), n)
        got = compute_runs(S).tolist()
        bad += got != naive_runs(S)
        count_bad += len(got) >= max(1, n)
    report("criterion 4: runs equal the naive oracle and count < n",
           bad == 0 and count_bad == 0,
           f"500 strings n<=300, {bad} mismatches, {count_bad} count violations")


def test_criterion_5_greedy_alignment():
    rng = _rng(505)
    bad = 0
    for t in range(500):
        nx, ny = rng.integers(0, 41, 2)
        X = rng.integers(0, 3, nx)
        Y = rng.integers(0, 3, ny)
        w = int(rng.integers(0, 7))
        k = int(rng.integers(w, 7))
        A = greedy_bounded_align(X, Y, k, w)
        want = banded_edit_cost(X, Y, w)
        if want is None or want > k:
            bad += A is not None
        else:
            stats = eval_alignment(A, X, Y)
            bad += stats.cost != want or stats.width > w or not is_greedy(A, X, Y)
    # linear scaling at fixed (k, w): doubling time ratio <= 2.3.  The
    # absolute times sit in the millisecond range, so rounds are interleaved
    # across sizes, the per-size minimum is kept, and one remeasurement is
    # allowed before the bound is enforced.
    k, w = 6, 3
    sizes = (100_000, 200_000, 400_000)
    inputs = []
    for n in sizes:
        X = rng.integers(0, 4, n)
        Y = X.copy()
        for _ in range(3):
            Y[rng.integers(n)] = rng.integers(4)
        assert greedy_bounded_align(X, Y, k, w) is not None  # warmup
        inputs.append((X, Y))

    def measure():
        best = [INF] * len(sizes)
        for _ in range(12):
            for t, (X, Y) in enumerate(inputs):
                t0 = time.perf_counter()
                greedy_bounded_align(X, Y, k, w)
                best[t] = min(best[t], time.perf_counter() - t0)
        return best[1] / best[0], best[2] / best[1]

    r1, r2 = measure()
    if r1 > 2.3 or r2 > 2.3:
        r1, r2 = measure()
    report("criterion 5: greedy alignment vs banded DP + linear scaling",
           bad == 0 and r1 <= 2.3 and r2 <= 2.3,
           f"500 pairs, {bad} mismatches; doubling ratios {r1:.2f}, {r2:.2f}")


def test_criterion_6_partial_matching_contracts():
    rng = _rng(606)
    interner = LabelInterner()
    syms = alphabet(interner, 2)
    bad_bound = bad_gadget = bad_equal = 0
    cases = 0
    while cases < 300:
        F = random_forest(rng, int(rng.integers(1, 13)), 4, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 4)), syms)
        if not 1 <= G.n <= 12:
            continue
        pairs = []
        for u in rng.permutation(F.n)[: int(rng.integers(0, 5))]:
            for v in rng.permutation(G.n):
                if F.labels[u] != G.labels[v]:
                    continue
                cand = pairs + [(int(u), int(v))]
                try:
                    validate_matching(F, G, np.array(cand, dtype=np.int64))
                except ValueError:
                    continue
                pairs = cand
                break
        M = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        k = int(rng.integers(1, 5))
        # sizes in nodes, from the lengths of the rewritten code strings
        f2, g2, P2 = prune_redundant(*reduce_height(F, G, M))
        bad_bound += 5 * len(P2) > 2 * (len(f2) // 2 + len(g2) // 2 + 1)
        f3, g3 = gadget(f2, g2, P2, k)
        bad_gadget += (len(f3) // 2 != len(f2) // 2 + (k + 1) * len(P2)
                       or len(g3) // 2 != len(g2) // 2 + (k + 1) * len(P2))
        got = ted_threshold(*partial_reduce(F, G, M, query(k)), k)
        want = ted_constrained(F, G, M)
        bad_equal += got != (want if want <= k else INF)
        cases += 1
    report("criterion 6: partial-matching contracts",
           bad_bound == 0 and bad_gadget == 0 and bad_equal == 0,
           f"{cases} cases; bound={bad_bound} gadget={bad_gadget} "
           f"equality={bad_equal} violations")


def test_criterion_7_anchor_stability():
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_alignment import budget_alignments, pair_set
    rng = _rng(707)
    interner = LabelInterner()
    syms = alphabet(interner, 2)
    checked = 0
    bad = 0
    while checked < 25:
        k = int(rng.integers(1, 3))
        F = random_forest(rng, int(rng.integers(1, 6)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, k + 1)), syms)
        if not 1 <= G.n <= 5 or F.n + G.n > 10:
            continue
        want = ted_threshold(F, G, k)
        if want == INF:
            continue
        rp = reduce_and_anchor(F, G, QueryContext(k, 0x70707 + checked))
        sf0, sg0 = rp.f.codes, rp.g.codes
        opts = [B for B in budget_alignments(sf0, sg0, 2 * k, 2 * k)
                if is_tree_alignment(B, rp.f, rp.g)
                and eval_alignment(B, sf0, sg0).cost == 2 * want]
        bad += not opts
        for B in opts:
            bad += sym_diff_size(rp.anchor, B) > 4928 * k ** 4
        checked += 1
    # shared-elements bound on periodicity-free string suites
    k, w, e = 3, 2, 3
    suites = 0
    while suites < 10:
        n = int(rng.integers(5, 10))
        X = rng.integers(0, 4, n)
        Y = rng.integers(0, 4, n)
        if sync_power_occurrences(X, Y, w, e, 2 * w):
            continue
        alns = budget_alignments(X, Y, k, w)
        for i in range(0, min(len(alns), 30), 2):
            for j in range(1, min(len(alns), 30), 3):
                diff = len(pair_set(alns[i]) - pair_set(alns[j]))
                bad += diff > 7 * w * k * e
        suites += 1
    report("criterion 7: anchor within 4928k^4 of every optimum + 7wke bound",
           bad == 0, f"{checked} instances + {suites} string suites, "
           f"{bad} violations")


def test_criterion_8_scaling(tmp_path):
    from tedk.cli import main
    files = {}
    for n in (500_000, 1_000_000):
        out = tmp_path / f"f{n}.paren"
        assert main(["gen", "--n", str(n), "--height", "12", "--sigma", "4",
                     "--seed", "8", "--out", str(out)]) == 0
        files[n] = out
    times = {}
    for n, path in files.items():
        t0 = time.perf_counter()
        code = main(["compute", str(path), str(path), "--k", "2"])
        times[n] = time.perf_counter() - t0
        assert code == 0
    ratio = times[1_000_000] / times[500_000]
    ok = times[1_000_000] < 30 and ratio <= 2.6
    report("criterion 8: 1e6-node identical forests under 30s, near-linear",
           ok, f"T(1e6)={times[1_000_000]:.1f}s, "
           f"T(2n)/T(n)={ratio:.2f}")
