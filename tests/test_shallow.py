import pytest

import tedk.shallow
from tedk.errors import ContractError
from tedk.generate import alphabet, apply_random_edits, planted_pair, random_forest
from tedk.oracle import INF, ted_threshold
from tedk.shallow import shallow_ted

from conftest import forest

BASE = 0xABCDEF


def test_identical_forests(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 5, syms)
    assert shallow_ted(F, F, F.height(), 2, interner, BASE) == 0


def test_deep_relabel(interner):
    F = forest("(a(b(c(d(e)))))", interner)
    G = forest("(a(b(c(d(x)))))", interner)
    assert shallow_ted(F, G, 5, 1, interner, BASE) == 1


def test_height_precondition(interner):
    F = forest("(a(b))", interner)
    with pytest.raises(ValueError):
        shallow_ted(F, F, 1, 1, interner, BASE)


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
        got = shallow_ted(F, G, h, k, interner, BASE + t)
        want = ted_threshold(F, G, k)
        assert got == want, (t, k)


def test_shallow_on_planted_periodicity(interner, rng):
    for t in range(20):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 40)), k, 2, interner,
                               kind="horizontal")
        h = max(F.height(), G.height(), 1)
        assert shallow_ted(F, G, h, k, interner, BASE + t) == \
            ted_threshold(F, G, k)


def test_no_false_infinity(interner, rng):
    # INF only when the oracle also exceeds k
    syms = alphabet(interner, 2)
    for t in range(60):
        F = random_forest(rng, int(rng.integers(1, 25)), 4, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        k = int(rng.integers(1, 4))
        h = max(F.height(), G.height(), 1)
        if shallow_ted(F, G, h, k, interner, BASE + t) == INF:
            assert ted_threshold(F, G, k) == INF


def test_residual_size_contract(interner, rng, monkeypatch):
    # a residual larger than the partial-matching accounting allows is a
    # broken contract, reported even under python -O
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 5, syms)
    big = random_forest(rng, 2000, 5, syms)
    monkeypatch.setattr(tedk.shallow, "partial_reduce",
                        lambda *args: (big, big))
    with pytest.raises(ContractError):
        shallow_ted(F, F, F.height(), 2, interner, BASE)
