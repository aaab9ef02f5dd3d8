import numpy as np
import pytest

import tedk.engine
from tedk.engine import EngineConfig, mark_levels, run, ted_bounded
from tedk.errors import ContractError
from tedk.forest import LabeledForest, parse_paren_text
from tedk.generate import alphabet, apply_random_edits, planted_pair, random_forest
from tedk.oracle import INF, ted_threshold


def test_trivial_cases(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 20, 4, syms)
    for k in (1, 2, 5):
        assert ted_bounded(F, F, EngineConfig(k=k, seed=1), interner) == 0
    G = random_forest(rng, 5, 3, syms)
    assert ted_bounded(F, G, EngineConfig(k=2, seed=1), interner) == INF
    with pytest.raises(ValueError):
        ted_bounded(F, F, EngineConfig(k=0), interner)


def test_empty_forests(interner):
    empty = parse_paren_text("", interner)
    leaf = parse_paren_text("(a)", interner)
    assert ted_bounded(empty, empty, EngineConfig(k=1, seed=0), interner) == 0
    assert ted_bounded(empty, leaf, EngineConfig(k=1, seed=0), interner) == 1
    assert ted_bounded(leaf, empty, EngineConfig(k=2, seed=0), interner) == 1


def test_mark_levels(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 6, syms)
    assert mark_levels(F, 0, 100).tolist() == F.roots.tolist()
    assert len(mark_levels(F, 0, 1)) == F.n
    for r in range(4):
        got = set(mark_levels(F, r, 4).tolist())
        want = {u for u in range(F.n) if F.depth[u] % 4 == r}
        assert got == want
    with pytest.raises(ValueError):
        mark_levels(F, 4, 4)


def test_determinism(interner, rng):
    syms = alphabet(interner, 3)
    F = random_forest(rng, 25, 8, syms, branch=0.8)
    G = apply_random_edits(rng, F, 2, syms)
    cfg = EngineConfig(k=2, seed=99, height_cap=3)
    a = run(F, G, cfg, interner)
    b = run(F, G, cfg, interner)
    assert a.value == b.value and a.kept == b.kept and a.rounds == b.rounds


def test_engine_matches_oracle_random(interner, rng):
    syms_pool = [alphabet(interner, s) for s in (1, 2, 4)]
    for t in range(150):
        syms = syms_pool[int(rng.integers(3))]
        F = random_forest(rng, int(rng.integers(0, 40)), int(rng.integers(1, 7)),
                          syms)
        if rng.random() < 0.5:
            G = apply_random_edits(rng, F, int(rng.integers(0, 7)), syms)
        else:
            G = random_forest(rng, int(rng.integers(0, 40)),
                              int(rng.integers(1, 7)), syms)
        k = int(rng.integers(1, 6))
        assert ted_bounded(F, G, EngineConfig(k=k, seed=t), interner) == \
            ted_threshold(F, G, k)


def test_engine_on_planted(interner, rng):
    for t in range(40):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 50)), k, 2, interner)
        assert ted_bounded(F, G, EngineConfig(k=k, seed=t), interner) == \
            ted_threshold(F, G, k)


def test_sampling_rounds_sound(interner, rng):
    # forcing the sampling path with a small height cap: the result is never
    # below the oracle, and kept rounds always dominate it
    syms = alphabet(interner, 3)
    for t in range(40):
        F = random_forest(rng, int(rng.integers(5, 30)), 12, syms, branch=0.8)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        k = int(rng.integers(1, 3))
        hcap = max(2, min(F.height(), G.height()) - 1)
        rep = run(F, G, EngineConfig(k=k, seed=t, height_cap=hcap), interner)
        want = ted_threshold(F, G, k)
        assert rep.value >= want
        if rep.value != want:
            assert rep.value == INF or rep.value > want


def test_sampling_equality_on_deep_chains(interner, rng):
    # deeper than the default cap 19716*k^4 at k=1: the true sampling path
    syms = alphabet(interner, 2)

    def deep_chain(depth):
        labs = syms[rng.integers(len(syms), size=depth)]
        codes = []
        for i, lab in enumerate(labs.tolist()):
            codes.append(lab << 1)
            if i % 67 == 13:
                s = int(syms[rng.integers(len(syms))])
                codes += [s << 1, (s << 1) | 1]
        codes += [(lab << 1) | 1 for lab in labs[::-1].tolist()]
        return LabeledForest.from_codes(np.array(codes, dtype=np.int64))

    F = deep_chain(20200)
    G = apply_random_edits(rng, F, 1, syms)
    cfg = EngineConfig(k=1, seed=3, rounds=8)
    rep = run(F, G, cfg, interner)
    assert rep.h == 19716
    assert max(F.height(), G.height()) > rep.h
    assert rep.kept > 0
    assert rep.value == ted_threshold(F, G, 1)


def test_threads_smoke(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 25, 10, syms, branch=0.85)
    G = apply_random_edits(rng, F, 1, syms)
    hcap = max(2, min(F.height(), G.height()) - 1)
    one = run(F, G, EngineConfig(k=1, seed=5, height_cap=hcap, threads=1), interner)
    two = run(F, G, EngineConfig(k=1, seed=5, height_cap=hcap, threads=2), interner)
    assert one.value == two.value and one.kept == two.kept


def test_audit_mode_sweep(interner, rng):
    # the dual-fingerprint collision audit stays silent on honest runs
    syms = alphabet(interner, 2)
    for t in range(25):
        F = random_forest(rng, int(rng.integers(0, 25)), 5, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 4)), syms)
        k = int(rng.integers(1, 4))
        got = ted_bounded(F, G, EngineConfig(k=k, seed=t, audit=True), interner)
        assert got == ted_threshold(F, G, k)


def test_report_timings(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 4, syms)
    rep = run(F, F, EngineConfig(k=2, seed=0), interner)
    assert rep.value == 0
    assert "reduction_ms" in rep.timings and "anchor_ms" in rep.timings


def test_round_height_contract(interner, rng, monkeypatch):
    # a sampling round whose reduced forests exceed height h + 1 is a broken
    # contract, reported even under python -O
    syms = alphabet(interner, 2)
    F = random_forest(rng, 25, 10, syms, branch=0.85)
    G = apply_random_edits(rng, F, 1, syms)
    hcap = max(2, min(F.height(), G.height()) - 1)
    tall = parse_paren_text("(a" * (hcap + 2) + ")" * (hcap + 2), interner)
    monkeypatch.setattr(tedk.engine, "partial_reduce",
                        lambda *args: (tall, tall))
    with pytest.raises(ContractError):
        run(F, G, EngineConfig(k=1, seed=5, height_cap=hcap), interner)
