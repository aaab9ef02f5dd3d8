import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tedk.engine
import tedk.hashing
import tedk.horizontal
import tedk.labeling
import tedk.shallow
from tedk.context import QueryContext
from tedk.engine import (EngineConfig, lower_bound, mark_levels, run,
                         ted_bounded)
from tedk.errors import ContractError
from tedk.forest import LabeledForest, parse_paren_text, serialize_paren
from tedk.generate import alphabet, apply_random_edits, planted_pair, random_forest
from tedk.labeling import lookahead_refine
from tedk.oracle import INF, _label_multiset_bound, ted_exact, ted_threshold
from tedk.selftest import banded_edit_cost

from conftest import deep_chain, forest_pairs


def test_trivial_cases(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 20, 4, syms)
    for k in (1, 2, 5):
        assert ted_bounded(F, F, EngineConfig(k=k, seed=1)) == 0
    G = random_forest(rng, 5, 3, syms)
    assert ted_bounded(F, G, EngineConfig(k=2, seed=1)) == INF
    with pytest.raises(ValueError):
        ted_bounded(F, F, EngineConfig(k=0))


def test_empty_forests(interner):
    empty = parse_paren_text("", interner)
    leaf = parse_paren_text("(a)", interner)
    assert ted_bounded(empty, empty, EngineConfig(k=1, seed=0)) == 0
    assert ted_bounded(empty, leaf, EngineConfig(k=1, seed=0)) == 1
    assert ted_bounded(leaf, empty, EngineConfig(k=2, seed=0)) == 1


def test_mark_levels(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 6, syms)
    assert (np.flatnonzero(mark_levels(F, 0, 100)).tolist()
            == np.flatnonzero(F.depth == 0).tolist())
    assert mark_levels(F, 0, 1).all() and len(mark_levels(F, 0, 1)) == F.n
    for r in range(4):
        got = set(np.flatnonzero(mark_levels(F, r, 4)).tolist())
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
        assert ted_bounded(F, G, EngineConfig(k=k, seed=t)) == \
            ted_threshold(F, G, k)


def test_engine_on_planted(interner, rng):
    for t in range(40):
        k = int(rng.integers(1, 3))
        F, G, d = planted_pair(rng, int(rng.integers(0, 50)), k, 2, interner)
        assert ted_bounded(F, G, EngineConfig(k=k, seed=t)) == \
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


def test_config_checks_k_and_seed(interner):
    # k is an integer >= 1 and the seed one >= 0; numpy integers pass
    for bad in (0, -1, 2.5, "2", None):
        with pytest.raises(ValueError):
            EngineConfig(k=bad)
    for bad in (-1, 2.5, "3", None):
        with pytest.raises(ValueError):
            EngineConfig(k=1, seed=bad)
    # the height cap is None (19716k^4) or an integer >= 1
    for bad in (2.5, 0, -1, "3"):
        with pytest.raises(ValueError):
            EngineConfig(k=1, height_cap=bad)
    F = parse_paren_text("(a(b))", interner)
    G = parse_paren_text("(a)", interner)
    cfg = EngineConfig(k=np.int64(2), seed=np.int64(3))
    assert ted_bounded(F, G, cfg) == 1
    cfg = EngineConfig(k=1, height_cap=np.int64(3))
    assert ted_bounded(F, G, cfg) == 1


def test_huge_k_is_clamped_to_input_size(interner, rng):
    # ted <= |F| + |G|, so that size answers any larger k exactly; the passes
    # of width 4k+1 and the height cap are sized by it
    syms = alphabet(interner, 2)
    for t in range(8):
        F = random_forest(rng, int(rng.integers(0, 4)), 3, syms)
        G = random_forest(rng, int(rng.integers(0, 4)), 3, syms)
        rep = run(F, G, EngineConfig(k=10**20, seed=t), interner)
        assert rep.value == ted_exact(F, G)
        assert rep.h == 19716 * max(1, F.n + G.n) ** 4


def test_rounds_below_one_rejected(interner, rng):
    # zero sampling rounds would answer INF without looking at the forests
    for bad in (0, -3):
        with pytest.raises(ValueError):
            EngineConfig(k=1, rounds=bad).num_rounds(100)
    assert EngineConfig(k=1, rounds=3).num_rounds(100) == 3
    syms = alphabet(interner, 2)
    F = random_forest(rng, 25, 10, syms, branch=0.85)
    G = apply_random_edits(rng, F, 1, syms)
    hcap = max(2, min(F.height(), G.height()) - 1)
    # the sampling path; its first round is kept and meets L = 1, so it is
    # the only one run
    rep = run(F, G, EngineConfig(k=1, rounds=2, height_cap=hcap), interner)
    assert (rep.value, rep.rounds, rep.kept, rep.bound) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        run(F, G, EngineConfig(k=1, rounds=0, height_cap=hcap), interner)
    # a shallow instance never asks for the round count; the config still
    # refuses a bad one
    S = parse_paren_text("(a(b))", interner)
    for bad in (0, -3, "3", 2.0, None):
        with pytest.raises(ValueError):
            run(S, S, EngineConfig(k=1, rounds=bad), interner)


def test_audit_mode_sweep(interner, rng):
    # the dual-fingerprint collision audit stays silent on honest runs
    syms = alphabet(interner, 2)
    for t in range(25):
        F = random_forest(rng, int(rng.integers(0, 25)), 5, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 4)), syms)
        k = int(rng.integers(1, 4))
        got = ted_bounded(F, G, EngineConfig(k=k, seed=t, audit=True))
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


def _pinned_chains(interner):
    """F, a chain a0..a29 whose node a24 holds 200 distinct leaves, and G,
    F with a0 made a leaf beside a1 (ted 2)."""
    leaves = "".join(f"(b{j})" for j in range(200))
    chain = [f"(a{i}" + (leaves if i == 24 else "") for i in range(30)]
    F = parse_paren_text("".join(chain) + ")" * 30, interner)
    G = parse_paren_text("(a0)" + "".join(chain[1:]) + ")" * 29, interner)
    return F, G


def test_report_sums_dp_work(interner, monkeypatch):
    # the report adds up the kernel DP's states and tables over the query's
    # DP calls, here one in each of three kept rounds
    kernels = []
    real = tedk.shallow.ted_threshold

    def spy(F, G, k, stats=None):
        kernels.append((F, G, k))
        return real(F, G, k, stats=stats)
    monkeypatch.setattr(tedk.shallow, "ted_threshold", spy)
    F, G = _pinned_chains(interner)
    rep = run(F, G, EngineConfig(k=1, seed=1, rounds=3, height_cap=20))
    assert rep.kept == len(kernels) == 3
    want = {}
    for A, B, k in kernels:
        real(A, B, k, want)
    assert want["dp_states"] > 0
    assert {key: rep.timings[key] for key in want} == want


def test_sampling_rounds_pinned(interner):
    # a 30-node chain a0..a29 whose node a24 holds 200 distinct leaves, with
    # h = 20.  Round i draws its residue from the seed (seed, 1 + i); residue
    # 5 marks depth 25, forces the 200 leaf pairs and fails the Markov bound.
    # Against itself (L = 0) the first kept round answers 0 and ends the
    # loop.  G makes a0 a leaf beside a1: ted = 2 > k but sed = 2, so
    # L = 1 <= k; every round answers INF, none meets L, and all 40 run
    # (residue 4 marks G's leaves and fails the Markov bound too)
    F, G = _pinned_chains(interner)
    kept = []
    for seed in range(6):
        residues = [int(np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(seed, 1 + i)))).integers(20))
            for i in range(40)]
        cfg = EngineConfig(k=1, seed=seed, rounds=40, height_cap=20)
        rep = run(F, F, cfg, interner)
        first = next(i for i, r in enumerate(residues) if r != 5)
        assert (rep.value, rep.rounds, rep.kept, rep.bound) == \
            (0, first + 1, 1, 0)
        rep = run(F, G, cfg, interner)
        assert (rep.value, rep.rounds, rep.bound) == (INF, 40, 1)
        assert rep.kept <= 40 - residues.count(4) - residues.count(5)
        kept.append(rep.kept)
    assert kept == [35, 34, 36, 33, 34, 35]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(forest_pairs(most=30))
@example(pair=(LabeledForest.from_codes([0, 0, 1, 1]),
               LabeledForest.from_codes([0, 1, 2, 3])))
def test_lower_bound_certified(pair):
    # L = ceil(sed / 2) when sed <= 2k, else INF, and then ted > k; L is at
    # most ted and at least the size difference and the multiset bound.
    # The explicit pair, (a(a)) and (a)(b), has the odd sed 3, where the
    # ceiling differs from the floor
    F, G = pair
    sed = banded_edit_cost(F.codes, G.codes, len(F.codes) + len(G.codes))
    d = ted_exact(F, G)
    for k in (1, 2, 3):
        L = lower_bound(F, G, k)
        if sed > 2 * k:
            assert L == INF and ted_threshold(F, G, k) == INF
        else:
            assert L == (sed + 1) // 2 <= d
            assert L >= max(abs(F.n - G.n), _label_multiset_bound(F, G))


def test_deep_chain_one_round_under_auto(interner, rng):
    # 20,200 levels, above the k = 1 height cap: the first round is kept,
    # meets L and ends the loop that `auto` plans at 92 rounds
    syms = alphabet(interner, 2)
    F = deep_chain(rng, 20_200, syms)
    G = apply_random_edits(rng, F, 1, syms)
    rep = run(F, G, EngineConfig(k=1, seed=2), interner)
    assert max(F.height(), G.height()) > rep.h
    assert EngineConfig(k=1).num_rounds(F.n + G.n) == 92
    assert (rep.rounds, rep.kept) == (1, 1)
    assert rep.value == rep.bound == ted_threshold(F, G, 1) == 1


def test_early_exit_keeps_the_all_rounds_minimum(interner, rng, monkeypatch):
    # with L patched to -1 no round meets it and every planned round runs,
    # as without the exit; the exit changes neither value nor L
    syms = alphabet(interner, 3)
    pairs = []
    for t in range(60):
        F = random_forest(rng, int(rng.integers(5, 40)), 12, syms, branch=0.8)
        pairs.append((F, apply_random_edits(rng, F, int(rng.integers(0, 4)),
                                            syms), t))
    for t in range(20):
        F, G, _ = planted_pair(rng, int(rng.integers(5, 30)), 2, 2, interner)
        pairs.append((F, G, 60 + t))
    exits = []
    for F, G, t in pairs:
        k = 1 + t % 3
        hcap = max(2, min(F.height(), G.height()) - 1)
        cfg = EngineConfig(k=k, seed=t, rounds=10, height_cap=hcap)
        rep = run(F, G, cfg, interner)
        with monkeypatch.context() as m:
            m.setattr(tedk.engine, "lower_bound", lambda *args: -1)
            full = run(F, G, cfg, interner)
        assert rep.value == full.value
        assert rep.value == INF or rep.value >= rep.bound
        if rep.bound == INF:
            assert rep.rounds == 0
        elif rep.rounds:
            assert full.rounds == 10 and rep.kept <= full.kept
            exits.append(rep.rounds < 10)
    assert any(exits) and not all(exits)


def test_prefix_tables_built_once_per_query(interner, rng, monkeypatch):
    # the shallow look-ahead reuses the reduction stage's prefix tables, so a
    # query builds at most one per forest; each query owns its state, which
    # is freed (no reference cycle) when the query returns
    built = []
    real = tedk.hashing.HashedSeq.__init__

    def counted(self, codes, ctx):
        built.append((weakref.ref(ctx), ctx.base))
        real(self, codes, ctx)

    monkeypatch.setattr(tedk.hashing.HashedSeq, "__init__", counted)
    syms = alphabet(interner, 4)
    F = random_forest(rng, 400, 8, syms)
    G = apply_random_edits(rng, F, 2, syms)
    while ted_threshold(F, G, 2) in (0, INF):
        G = apply_random_edits(rng, F, 2, syms)
    twin = LabeledForest.from_codes(F.codes.copy())
    gc.disable()
    try:
        for A, B in ((F, G), (F, twin)):
            want = ted_threshold(A, B, 2)
            bases = []
            for seed in (1, 2):
                built.clear()
                rep = run(A, B, EngineConfig(k=2, seed=seed), interner)
                assert rep.value == want
                assert 1 <= len(built) <= 2
                assert all(ref() is None for ref, _ in built)
                bases.append({base for _, base in built})
            assert len(bases[0]) == len(bases[1]) == 1
            assert bases[0] != bases[1]
            audited = run(A, B, EngineConfig(k=2, seed=1, audit=True), interner)
            assert audited.value == want
    finally:
        gc.enable()


def test_runs_built_once_per_distinct_string(interner, rng, monkeypatch):
    # the query context finds the filtered runs of each code string once:
    # every pass asks for F's string, then G's, and an equal string (G = F,
    # or a pass that cut nothing) gets the runs already found.  The context
    # and its runs die with the query (no reference cycle, gc is off)
    strings, results, contexts = [], [], []
    real_runs = tedk.horizontal.compute_runs
    real_context = tedk.engine.QueryContext

    def counted_runs(S, *args, **kwargs):
        strings.append(S.tobytes())
        out = real_runs(S, *args, **kwargs)
        results.append(weakref.ref(out))
        return out

    def tracked_context(*args, **kwargs):
        ctx = real_context(*args, **kwargs)
        contexts.append(weakref.ref(ctx))
        return ctx

    monkeypatch.setattr(tedk.horizontal, "compute_runs", counted_runs)
    monkeypatch.setattr(tedk.engine, "QueryContext", tracked_context)
    syms = alphabet(interner, 4)
    F = random_forest(rng, 400, 8, syms)
    G = apply_random_edits(rng, F, 2, syms)
    while ted_threshold(F, G, 2) in (0, INF):
        G = apply_random_edits(rng, F, 2, syms)
    P, _, _ = planted_pair(rng, 300, 2, 3, interner, kind="mixed", edits=0)
    twin = LabeledForest.from_codes(P.codes.copy())
    gc.disable()
    try:
        for A, B, most in ((F, G, 2), (P, twin, 3)):
            strings.clear()
            results.clear()
            contexts.clear()
            rep = run(A, B, EngineConfig(k=2, seed=3), interner)
            assert rep.value == ted_threshold(A, B, 2)
            assert len(strings) == len(set(strings)) <= most
            assert len(contexts) == 1 and contexts[0]() is None
            assert results and all(ref() is None for ref in results)
        assert len(strings) == 3  # both periodicity passes cut P
    finally:
        gc.enable()


def test_forests_built_once_per_kept_string(interner, rng, monkeypatch):
    # every forest a query builds comes from the context: no string whose
    # forest one of the latest two records holds is paired again, each
    # forest asked for is counted once as built or reused, and the context
    # dies with its forests when the query returns (gc is off)
    contexts, built, asked = [], [], []
    real_context = tedk.engine.QueryContext
    real_build = LabeledForest.from_codes
    real_forest = QueryContext.forest

    def tracked_context(*args, **kwargs):
        ctx = real_context(*args, **kwargs)
        contexts.append(weakref.ref(ctx))
        return ctx

    def counted_build(codes):
        kept = [rec["codes"] for rec in contexts[-1]()._records
                if "forest" in rec]
        assert not any(np.array_equal(S, codes) for S in kept)
        out = real_build(codes)
        built.append(weakref.ref(out.o))  # forests take no weak reference
        return out

    def counted_forest(ctx, codes):
        asked.append(len(codes))
        return real_forest(ctx, codes)

    syms = alphabet(interner, 4)
    F = random_forest(rng, 400, 8, syms)
    P, _, _ = planted_pair(rng, 300, 2, 3, interner, kind="mixed", edits=0)
    pairs = [(A, LabeledForest.from_codes(A.codes.copy())) for A in (F, P)]
    configs = (EngineConfig(k=2, seed=3), EngineConfig(k=2, seed=3, audit=True),
               EngineConfig(k=1, seed=3, rounds=2, height_cap=3))
    monkeypatch.setattr(tedk.engine, "QueryContext", tracked_context)
    monkeypatch.setattr(LabeledForest, "from_codes",
                        staticmethod(counted_build))
    monkeypatch.setattr(QueryContext, "forest", counted_forest)
    gc.disable()
    try:
        for A, twin in pairs:
            for cfg in configs:
                contexts.clear()
                built.clear()
                asked.clear()
                rep = run(A, twin, cfg, interner)
                assert rep.value == 0
                t = rep.timings
                assert t["forests_built"] == len(built) >= 1
                assert t["forests_built"] + t["forests_reused"] == len(asked)
                # G's string equals F's at every step
                assert t["forests_reused"] >= t["forests_built"]
                assert len(contexts) == 1 and contexts[0]() is None
                assert all(ref() is None for ref in built)
    finally:
        gc.enable()


def test_lookahead_fingerprints_equal_strings_once(interner, rng,
                                                   monkeypatch):
    # G equal to F takes F's fingerprints: one pass per base (the audit
    # twin's is the second)
    calls = []
    real = tedk.labeling._subtree_fingerprints

    def counted(H, d, ctx):
        calls.append(ctx)
        return real(H, d, ctx)

    syms = alphabet(interner, 3)
    F = random_forest(rng, 300, 7, syms)
    twin = LabeledForest.from_codes(F.codes.copy())
    relabeled = F.labels.copy()
    relabeled[F.n // 2] = int(syms[0] if relabeled[F.n // 2] != syms[0]
                              else syms[1])
    G = LabeledForest.from_codes(F.relabeled_codes(relabeled))  # same length
    ctx = QueryContext(1, 0xF1F1F1)
    fp = real(F, 3, ctx)
    _, dense = np.unique(np.concatenate([fp, fp]), return_inverse=True)
    monkeypatch.setattr(tedk.labeling, "_subtree_fingerprints", counted)
    for B, audit, want in ((twin, False, 1), (twin, True, 2), (G, False, 2)):
        calls.clear()
        out = lookahead_refine(F, B, 3, QueryContext(1, 0xF1F1F1, audit=audit))
        assert len(calls) == want
        if B is twin:
            assert out.f.tolist() == out.g.tolist() == dense[:F.n].tolist()


def test_engine_hashes_each_string_once(interner, rng, monkeypatch):
    # a height-12 pair two edits apart at k = 2: the anchor's depth-8k
    # look-ahead and the shallow solver's depth-hb one cut nothing past the
    # height, so one run hashes each distinct string once and ranks one
    # fingerprint pair, per base; the report counts the fingerprints
    hashed, ranked = [], []
    real_fp = tedk.labeling._subtree_fingerprints
    real_joint = tedk.labeling._dense_joint

    def counted_fp(H, d, ctx):
        hashed.append((ctx.base, H.codes.tobytes()))
        return real_fp(H, d, ctx)

    def counted_joint(fp_f, fp_g):
        ranked.append(1)
        return real_joint(fp_f, fp_g)

    monkeypatch.setattr(tedk.labeling, "_subtree_fingerprints", counted_fp)
    monkeypatch.setattr(tedk.labeling, "_dense_joint", counted_joint)
    syms = alphabet(interner, 4)
    F = random_forest(rng, 1500, 12, syms)
    G = apply_random_edits(rng, F, 2, syms)
    assert max(F.height(), G.height()) == 12
    want = ted_threshold(F, G, 2)
    assert want <= 2
    for audit in (False, True):
        hashed.clear()
        ranked.clear()
        rep = run(F, G, EngineConfig(k=2, seed=5, audit=audit))
        assert rep.value == want and rep.rounds == 0
        bases = 1 + audit
        assert len(hashed) == len(set(hashed)) == 2 * bases
        assert len(ranked) == bases
        assert rep.timings["fingerprints_built"] == 2
        assert rep.timings["fingerprints_reused"] == 2


@settings(max_examples=150, deadline=None, derandomize=True)
@given(forest_pairs(most=12), st.integers(1, 3))
def test_engine_fuzz_against_oracle(pair, cap):
    # exact at the default cap; under a forced cap each kept round's value
    # is the cost of an alignment, so the answer is never below the oracle
    F, G = pair
    for k in (1, 2, 3):
        want = ted_threshold(F, G, k)
        assert ted_bounded(F, G, EngineConfig(k=k, seed=k)) == want
        forced = EngineConfig(k=k, seed=k, rounds=6, height_cap=cap)
        assert ted_bounded(F, G, forced) >= want


def test_query_leaves_the_interner_unchanged(interner, rng, monkeypatch):
    # the partial reductions, the engine's and the shallow solver's, number
    # their fresh labels past the forests' own and intern nothing
    calls = []
    for module in (tedk.engine, tedk.shallow):
        real = module.partial_reduce

        def counted(*args, real=real, name=module.__name__):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(module, "partial_reduce", counted)
    syms = alphabet(interner, 3)
    text = serialize_paren(random_forest(rng, 3000, 5, syms), interner)
    F = parse_paren_text(text, interner)
    G = parse_paren_text(text, interner)
    size = interner.intern("unseen")
    rep = run(F, G, EngineConfig(k=1, seed=3, rounds=2, height_cap=3), interner)
    assert rep.value == 0 and rep.kept >= 1
    assert {"tedk.engine", "tedk.shallow"} <= set(calls)
    assert interner.intern("unseen") == size
    assert interner.intern("later") == size + 1
