import numpy as np
import pytest

import tedk.partial
from tedk.errors import CrossingMatchingError
from tedk.forest import LabeledForest
from tedk.generate import alphabet, apply_random_edits, random_forest
from tedk.oracle import INF, ted_threshold
from tedk.partial import (_marked_class, gadget, partial_reduce,
                          prune_redundant, reduce_height, validate_matching)
from tedk.selftest import ted_brute_constrained

from conftest import (VIRTUAL_ROOT, as_forests, deep_chain, forest, query,
                      stack_walk, ted_constrained)
from reference import parents


def random_matching(rng, F, G, tries=4):
    pairs = []
    if F.n == 0 or G.n == 0:
        return np.empty((0, 2), dtype=np.int64)
    for u in rng.permutation(F.n)[:tries]:
        for v in rng.permutation(G.n):
            if F.labels[u] != G.labels[v]:
                continue
            cand = pairs + [(int(u), int(v))]
            try:
                validate_matching(F, G, np.array(cand, dtype=np.int64))
            except (CrossingMatchingError, ValueError):
                continue
            pairs = cand
            break
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def test_reduce_height_empty_matching(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 10, 4, syms)
    G = random_forest(rng, 9, 4, syms)
    codes_f, codes_g, P = reduce_height(F, G, np.empty((0, 2), dtype=np.int64))
    assert codes_f is F.codes and codes_g is G.codes and len(P) == 0


def test_reduce_height_single_pair_sizes(interner):
    F = forest("(a(b)(c))", interner)
    G = forest("(a(b)(x))", interner)
    codes_f, codes_g, P = reduce_height(F, G, [(0, 0)])
    F2, G2, M2 = as_forests(codes_f, codes_g, P)
    assert F2.n == F.n + 1 and G2.n == G.n + 1 and len(M2) == 2
    # every matched node is a leaf
    assert (F2.c[M2[:, 0]] == F2.o[M2[:, 0]] + 1).all()


def test_reduce_height_crossing_raises(interner):
    F = forest("(a)(b)", interner)
    G = forest("(b)(a)", interner)
    with pytest.raises(CrossingMatchingError):
        reduce_height(F, G, [(0, 1), (1, 0)])


def test_reduce_height_preserves_constrained_distance(interner, rng):
    syms = alphabet(interner, 2)
    done = 0
    while done < 20:
        F = random_forest(rng, int(rng.integers(1, 7)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        if not 1 <= G.n <= 7:
            continue
        M = random_matching(rng, F, G, tries=2)
        if len(M) == 0:
            continue
        F2, G2, M2 = as_forests(*reduce_height(F, G, M))
        assert F2.n == F.n + len(M) and G2.n == G.n + len(M)
        assert len(M2) == 2 * len(M)
        assert ted_brute_constrained(F2, G2, M2) == ted_brute_constrained(F, G, M)
        done += 1


def test_prune_redundant_examples(interner):
    # five matched children of twin roots: pairs 2..5 pruned
    F = forest("(r(c)(c)(c)(c)(c))", interner)
    G = forest("(r(c)(c)(c)(c)(c))", interner)
    P = np.array([(p, p) for p in F.o[1:]], dtype=np.int64)
    codes_f, codes_g, P2 = prune_redundant(F.codes, G.codes, P)
    assert P2.tolist() == [[1, 1]]
    assert len(codes_f) == len(codes_g) == 2 * (F.n - 4)
    # no adjacent matched siblings: identity
    F = forest("(r(c)(d)(c))", interner)
    P = np.array([(1, 1), (5, 5)], dtype=np.int64)
    codes_f, codes_g, P2 = prune_redundant(F.codes, F.codes, P)
    assert codes_f is codes_g is F.codes and P2.tolist() == P.tolist()


def test_prune_redundant_bound_and_distance(interner, rng):
    syms = alphabet(interner, 2)
    done = 0
    while done < 15:
        F = random_forest(rng, int(rng.integers(1, 7)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 2)), syms)
        if not 1 <= G.n <= 7:
            continue
        M = random_matching(rng, F, G)
        if len(M) == 0:
            continue
        codes_f, codes_g, P = reduce_height(F, G, M)
        F1, G1, M1 = as_forests(codes_f, codes_g, P)
        F2, G2, M2 = as_forests(*prune_redundant(codes_f, codes_g, P))
        assert 5 * len(M2) <= 2 * (F2.n + G2.n + 1)
        # the kept pairs are leaves
        assert (F2.c[M2[:, 0]] == F2.o[M2[:, 0]] + 1).all()
        assert (G2.c[M2[:, 1]] == G2.o[M2[:, 1]] + 1).all()
        assert ted_brute_constrained(F2, G2, M2) == \
            ted_brute_constrained(F1, G1, M1)
        done += 1


def test_gadget_examples(interner):
    F = forest("(a(b))", interner)
    G = forest("(a(b))", interner)
    # no pairs: identity
    none = np.empty((0, 2), dtype=np.int64)
    codes_f, codes_g = gadget(F.codes, G.codes, none, 2)
    assert codes_f is F.codes and codes_g is G.codes
    # k=2, |M|=1 on leaf pair: sizes grow by k+1 = 3, and the new nodes
    # are children of the matched leaf b, which opens at position 1
    P = np.array([(1, 1)], dtype=np.int64)
    F2, G2 = map(LabeledForest.from_codes, gadget(F.codes, G.codes, P, 2))
    assert F2.n == F.n + 3 and G2.n == G.n + 3
    assert F2.height() <= F.height() + 1
    assert parents(F2).tolist() == parents(G2).tolist() == [-1, 0, 1, 1, 1]


def test_gadget_labels_fresh(interner):
    # fresh labels start one past the largest label of both forests, so a
    # reduction of a reduction's output numbers its own above them, and no
    # label is interned
    F = forest("(a(b))", interner)
    G = forest("(b(b)(z))", interner)
    top = int(G.labels.max())
    assert top > F.labels.max()
    M = np.array([(1, 1)], dtype=np.int64)  # b opens at position 1 too
    F2, G2 = map(LabeledForest.from_codes, gadget(F.codes, G.codes, M, 1))
    new_f = set(F2.labels.tolist()) - set(F.labels.tolist())
    new_g = set(G2.labels.tolist()) - set(G.labels.tolist())
    assert new_f == new_g == {top + 1, top + 2}
    codes_f, _, _ = reduce_height(F2, G2, M)
    assert set((codes_f >> 1).tolist()) - set(F2.labels.tolist()) == {top + 3}
    assert interner.intern("fresh") == top + 1


def test_gadget_preserves_threshold(interner, rng):
    syms = alphabet(interner, 2)
    done = 0
    while done < 15:
        F = random_forest(rng, int(rng.integers(1, 6)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        if not 1 <= G.n <= 6:
            continue
        M = random_matching(rng, F, G, tries=2)
        if len(M) == 0:
            continue
        k = int(rng.integers(1, 4))
        codes_f, codes_g, P = reduce_height(F, G, M)
        F2, G2 = map(LabeledForest.from_codes, gadget(codes_f, codes_g, P, k))
        want = ted_brute_constrained(*as_forests(codes_f, codes_g, P))
        want = want if want <= k else INF
        assert ted_threshold(F2, G2, k) == want
        done += 1


def test_matching_entries_must_be_integers(interner, rng):
    # a float pair is refused, not rounded to the pair it would cast to;
    # an empty matching may come in any dtype
    syms = alphabet(interner, 2)
    F = random_forest(rng, 10, 4, syms)
    for M in ([[0.7, 0]], np.array([[0.0, 0.0]]), [[True, True]]):
        with pytest.raises(ValueError, match="integers"):
            validate_matching(F, F, M)
        with pytest.raises(ValueError, match="integers"):
            partial_reduce(F, F, M, query(1))
    M = validate_matching(F, F, np.array([[0, 0]], dtype=np.int32))
    assert M.dtype == np.int64
    assert validate_matching(F, F, []).shape == (0, 2)


def test_leaf_test_reads_the_label(interner, rng):
    # a matched position must open a leaf: an open followed at once by the
    # close of its own label.  A close of another label there, an inner
    # node's open, or a close, is refused by pruning and by the gadget.
    syms = alphabet(interner, 3)
    done = 0
    while done < 20:
        F = random_forest(rng, int(rng.integers(2, 30)), 5, syms)
        leaves = np.flatnonzero(F.c == F.o + 1)
        inner = np.flatnonzero(F.c != F.o + 1)
        if len(inner) == 0:
            continue
        p = int(F.o[rng.choice(leaves)])
        P = np.array([[p, p]])
        assert gadget(F.codes, F.codes, P, 1)[0].size > F.codes.size
        relabeled = F.codes.copy()
        relabeled[p + 1] += 2 * int(rng.integers(1, 3))  # another close
        bad = [(relabeled, P), (F.codes, P + 1),
               (F.codes, np.full((1, 2), F.o[rng.choice(inner)]))]
        for codes, Q in bad:
            with pytest.raises(ValueError, match="leaves-only"):
                prune_redundant(codes, codes, Q)
            with pytest.raises(ValueError, match="leaves-only"):
                gadget(codes, codes, Q, 1)
        done += 1


def test_partial_reduce_pairs_each_output_once(interner, rng):
    # the three rewrites build no forest: partial_reduce pairs its output
    # strings through the context, two on a two-sided matching, one when G
    # is F and M is the diagonal, and none on an empty M, which returns the
    # inputs themselves
    syms = alphabet(interner, 2)
    done = 0
    while done < 20:
        F = random_forest(rng, int(rng.integers(2, 40)), 5, syms)
        G = apply_random_edits(rng, F, 2, syms)
        M = random_matching(rng, F, G)
        if len(M) == 0:
            continue
        ctx = query(2)
        F2, G2 = partial_reduce(F, G, M, ctx)
        assert not np.array_equal(F2.codes, G2.codes)
        assert ctx.timings["forests_built"] == 2
        nodes = np.flatnonzero(rng.random(F.n) < 0.5)
        ctx = query(2)
        F2, G2 = partial_reduce(F, F, np.stack([nodes, nodes], axis=1), ctx)
        assert G2 is F2
        assert ctx.timings["forests_built"] == (1 if len(nodes) else 0)
        ctx = query(2)
        F2, G2 = partial_reduce(F, G, np.empty((0, 2), dtype=np.int64), ctx)
        assert F2 is F and G2 is G and ctx.timings["forests_built"] == 0
        done += 1


def test_partial_reduce_empty_matching_equals_plain(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 8, 3, syms)
    G = random_forest(rng, 8, 3, syms)
    F2, G2 = partial_reduce(F, G, np.empty((0, 2), dtype=np.int64),
                            query(1))
    assert ted_threshold(F2, G2, 1) == ted_threshold(F, G, 1)


def test_partial_reduce_matches_constrained_oracle(interner, rng):
    syms = alphabet(interner, 2)
    done = 0
    while done < 60:
        F = random_forest(rng, int(rng.integers(1, 12)), 4, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 4)), syms)
        if not 1 <= G.n <= 12:
            continue
        M = random_matching(rng, F, G)
        k = int(rng.integers(1, 5))
        F2, G2 = partial_reduce(F, G, M, query(k))
        want = ted_constrained(F, G, M)
        want = want if want <= k else INF
        assert ted_threshold(F2, G2, k) == want
        done += 1


def test_partial_reduce_height_contract(interner, rng):
    # output height exceeds by at most 2 the longest matched-free path
    syms = alphabet(interner, 2)
    done = 0
    while done < 15:
        F = random_forest(rng, int(rng.integers(2, 12)), 5, syms)
        G = apply_random_edits(rng, F, 1, syms)
        if not 1 <= G.n <= 12:
            continue
        M = random_matching(rng, F, G)
        if len(M) == 0:
            continue
        F2, G2 = partial_reduce(F, G, M, query(1))

        def longest_free_path(H, members):
            flags = np.zeros(H.n, dtype=bool)
            flags[members] = True
            best = np.zeros(H.n, dtype=np.int64)
            parent = parents(H)
            for u in range(H.n - 1, -1, -1):
                kids = np.flatnonzero(parent == u)
                sub = max((int(best[c]) for c in kids), default=0)
                best[u] = 0 if flags[u] else 1 + sub
            return int(best.max()) if H.n else 0

        if F2.height() > 2:
            assert longest_free_path(F, M[:, 0]) >= F2.height() - 2
        if G2.height() > 2:
            assert longest_free_path(G, M[:, 1]) >= G2.height() - 2
        done += 1


def test_one_forest_on_the_diagonal_computes_one_side(interner, rng,
                                                      monkeypatch):
    # F holds two copies of a tree.  On (F, F) with the diagonal M, each
    # construction computes F's side once and G's output is F's; a shifted
    # M, which maps the first copy into the second, computes both sides.
    # Every step equals the two-sided path on (F, a copy of F).
    calls = []
    real = tedk.partial._assemble_with_separators

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(tedk.partial, "_assemble_with_separators", counted)
    syms = alphabet(interner, 2)
    for _ in range(12):
        T = random_forest(rng, int(rng.integers(2, 30)), 5, syms)
        F = LabeledForest.from_codes(np.concatenate([T.codes, T.codes]))
        copy = LabeledForest.from_codes(F.codes.copy())
        nodes = np.sort(rng.choice(F.n, int(rng.integers(1, F.n + 1)),
                                   replace=False))
        first = np.flatnonzero(rng.random(T.n) < 0.6)
        first = first if len(first) else np.array([0])
        for M, one in ((np.stack([nodes, nodes], axis=1), True),
                       (np.stack([first, first + T.n], axis=1), False)):
            calls.clear()
            twin = reduce_height(F, F, M)
            assert len(calls) == (1 if one else 2)
            sides = reduce_height(F, copy, M)
            for step in (prune_redundant, lambda *a: gadget(*a, 2), None):
                assert [S.tolist() for S in twin[:2]] == \
                    [S.tolist() for S in sides[:2]]
                if step is None:
                    break
                assert twin[2].tolist() == sides[2].tolist()
                twin = step(*twin)
                sides = step(*sides)
                if one:
                    assert twin[1] is twin[0]


def _walk_marked_class(F, marked):
    index_of = {int(v): i for i, v in enumerate(marked)}
    cls = [0] * F.n
    for u, _, marked_anc in stack_walk(F.codes, marked):
        if marked_anc:
            cls[u] = index_of[marked_anc[-1]] + 1
    return cls


def test_marked_class_matches_stack_walk(interner, rng):
    syms = alphabet(interner, 3)
    for _ in range(60):
        F = random_forest(rng, int(rng.integers(0, 120)),
                          int(rng.integers(1, 25)), syms,
                          branch=float(rng.uniform(0.3, 0.95)))
        for m in (0, 1, int(rng.integers(0, F.n + 1)), F.n):
            marked = rng.permutation(F.n)[:m].astype(np.int64)
            assert _marked_class(F, marked).tolist() == _walk_marked_class(F, marked)
    F = deep_chain(rng, 20_200, syms)
    marked = rng.permutation(F.n)[:F.n // 3].astype(np.int64)
    assert _marked_class(F, marked).tolist() == _walk_marked_class(F, marked)


def _parent_walk_marked_class(F, marked):
    """Reference `_marked_class`: from each node, walk up `parent` to the
    first marked node."""
    index_of = {int(v): i for i, v in enumerate(marked)}
    parent = parents(F).tolist()
    cls = []
    for u in range(F.n):
        p = parent[u]
        while p != VIRTUAL_ROOT and p not in index_of:
            p = parent[p]
        cls.append(0 if p == VIRTUAL_ROOT else index_of[p] + 1)
    return cls


def test_marked_class_matches_parent_walk(interner, rng):
    # empty and full marked sets, and nested ones: every node on the path
    # from a node up to its root, alone or with other nodes, in any order
    syms = alphabet(interner, 3)
    for _ in range(80):
        F = random_forest(rng, int(rng.integers(0, 80)),
                          int(rng.integers(1, 12)), syms,
                          branch=float(rng.uniform(0.3, 0.95)))
        path = []
        parent = parents(F).tolist()
        if F.n:
            u = int(rng.integers(F.n))
            while u != VIRTUAL_ROOT:
                path.append(u)
                u = parent[u]
        extra = rng.permutation(F.n)[:int(rng.integers(0, F.n + 1))].tolist()
        for marked in ([], rng.permutation(F.n).tolist(), path[::-1],
                       rng.permutation(path).tolist(),
                       rng.permutation(sorted(set(path + extra))).tolist()):
            marked = np.asarray(marked, dtype=np.int64)
            assert (_marked_class(F, marked).tolist()
                    == _parent_walk_marked_class(F, marked))
