import numpy as np

from tedk.forest import serialize_paren
from tedk.generate import (alphabet, apply_random_edits, plant_horizontal,
                           plant_vertical, planted_pair, random_forest)
from tedk.horizontal import filter_runs
from tedk.oracle import ted_exact
from tedk.vertical import compute_contexts

from conftest import query


def gen(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_deterministic(interner):
    syms = alphabet(interner, 3)
    a = random_forest(gen(5), 50, 6, syms)
    b = random_forest(gen(5), 50, 6, syms)
    assert a == b
    assert serialize_paren(a, interner) == serialize_paren(b, interner)


def test_size_and_height_caps(interner):
    syms = alphabet(interner, 2)
    rng = gen(6)
    for _ in range(20):
        n = int(rng.integers(0, 50))
        h = int(rng.integers(1, 6))
        F = random_forest(rng, n, h, syms)
        assert F.n == n
        assert F.height() <= h


def test_plant_horizontal_creates_runs(interner):
    syms = alphabet(interner, 2)
    rng = gen(7)
    k = 2
    F = random_forest(rng, 20, 4, syms)
    F2 = plant_horizontal(rng, F, k, syms)
    assert any(j - i >= 16 * k * p
               for i, j, p in filter_runs(F2.codes, k).tolist())


def test_plant_vertical_creates_contexts(interner):
    syms = alphabet(interner, 2)
    rng = gen(8)
    k = 1
    F = random_forest(rng, 15, 3, syms)
    F2 = plant_vertical(rng, F, k, syms)
    assert len(compute_contexts(F2, query(k)))


def test_edit_script_bounds_distance(interner):
    syms = alphabet(interner, 3)
    rng = gen(9)
    for _ in range(25):
        F = random_forest(rng, int(rng.integers(1, 20)), 4, syms)
        d = int(rng.integers(0, 5))
        G = apply_random_edits(rng, F, d, syms)
        assert ted_exact(F, G) <= d


def test_planted_pair_contract(interner):
    from tedk.oracle import INF, ted_threshold
    rng = gen(10)
    for t in range(10):
        F, G, d = planted_pair(rng, 20, 2, 2, interner, kind="mixed")
        # the recorded script length bounds the distance (threshold DP keeps
        # the check cheap on these big planted instances)
        assert ted_threshold(F, G, d) != INF
