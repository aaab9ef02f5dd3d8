import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tedk.labeling
from tedk.alignment import eval_alignment, is_greedy
from tedk.context import QueryContext
from tedk.forest import LabeledForest
from tedk.generate import alphabet, apply_random_edits, random_forest
from tedk.hashing import M61, HashedSeq, mulmod_vec
from tedk.labeling import (JointLabeling, _components, _dense_joint,
                           _level_descendant_cuts, _subtree_fingerprints,
                           compat_refine, lookahead_refine, refines)

from conftest import (deep_chain, forest, forest_pairs, is_tree_alignment,
                      stack_walk)
from reference import (naive_compat_classes, optimal_tree_alignments,
                       prefix_table, trimmed_print, union_find_components)
from test_indexes import concat_fp, substring

BASE = 0x1234567


def same_partition(lab1, lab2):
    return refines(lab1, lab2) and refines(lab2, lab1)


def alignment_forest_cost(A, F, G, lab):
    """Cost of A read on the `lab`-refined prints, in tree-edit units (ed/2)."""
    stats = eval_alignment(A, F.relabeled_codes(lab.f),
                           G.relabeled_codes(lab.g))
    return stats.cost / 2


def lookahead_cost_bound_check(F, G, lab, d, A, base):
    """Refined cost of a tree alignment is at most d times the base cost;
    `lab` is the forests' own labeling, which the look-ahead refines."""
    refined = lookahead_refine(F, G, d, QueryContext(1, base))
    return (alignment_forest_cost(A, F, G, refined)
            <= d * alignment_forest_cost(A, F, G, lab))


def compat_cost_equal_check(F, G, lab, w, A):
    """Width-<=w alignments cost the same under the w-compatibility classes."""
    if eval_alignment(A, F.codes, G.codes).width > w:
        raise ValueError("alignment width exceeds w")
    refined = compat_refine(F, G, lab, w)
    return (alignment_forest_cost(A, F, G, refined)
            == alignment_forest_cost(A, F, G, lab))


def test_lookahead_rejects_zero_depth(interner):
    F = forest("(a)", interner)
    with pytest.raises(ValueError):
        lookahead_refine(F, F, 0, QueryContext(1, BASE))


def test_lookahead_depth_one_is_identity(interner, rng):
    syms = alphabet(interner, 3)
    for _ in range(10):
        F = random_forest(rng, int(rng.integers(0, 20)), 4, syms)
        G = random_forest(rng, int(rng.integers(0, 20)), 4, syms)
        lab = JointLabeling(F.labels, G.labels)
        out = lookahead_refine(F, G, 1, QueryContext(1, BASE))
        assert same_partition(out, lab)


def test_lookahead_full_depth_encodes_subtrees(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(10):
        F = random_forest(rng, int(rng.integers(1, 15)), 4, syms)
        G = random_forest(rng, int(rng.integers(1, 15)), 4, syms)
        d = max(F.height(), G.height()) + 1
        out = lookahead_refine(F, G, d, QueryContext(1, BASE))
        subs = ([F.codes[F.o[u]:F.c[u] + 1].tobytes() for u in range(F.n)]
                + [G.codes[G.o[v]:G.c[v] + 1].tobytes() for v in range(G.n)])
        ids = np.concatenate([out.f, out.g])
        for a in range(len(ids)):
            for b in range(len(ids)):
                assert (ids[a] == ids[b]) == (subs[a] == subs[b])


def test_lookahead_matches_naive_trimmed_prints(interner, rng):
    syms = alphabet(interner, 2)
    for d in (1, 2, 3, 4):
        F = random_forest(rng, 25, 5, syms)
        G = random_forest(rng, 25, 5, syms)
        lab = JointLabeling(F.labels, G.labels)
        out = lookahead_refine(F, G, d, QueryContext(1, BASE))
        prints = ([trimmed_print(F, lab.f, u, d) for u in range(F.n)]
                  + [trimmed_print(G, lab.g, v, d) for v in range(G.n)])
        ids = np.concatenate([out.f, out.g]).tolist()
        seen = {}
        for cid, pr in zip(ids, prints):
            assert seen.setdefault(cid, pr) == pr
        assert len(set(ids)) == len(set(prints))


def test_lookahead_audit_mode(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 4, syms)
    G = random_forest(rng, 30, 4, syms)
    lookahead_refine(F, G, 3, QueryContext(1, BASE, audit=True))


def test_lookahead_fingerprints_recorded_per_depth(interner, rng,
                                                  monkeypatch):
    # one context, several depths over the same two strings: each depth has
    # its own fingerprints in the strings' records, equal to a fresh
    # context's, and a depth asked again hashes nothing
    syms = alphabet(interner, 2)
    F = random_forest(rng, 60, 6, syms)
    G = apply_random_edits(rng, F, 2, syms)
    calls = []
    real = tedk.labeling._subtree_fingerprints

    def counted(H, d, state):
        if state is ctx:
            calls.append(d)
        return real(H, d, state)

    monkeypatch.setattr(tedk.labeling, "_subtree_fingerprints", counted)
    ctx = QueryContext(1, BASE)
    for d in (1, 2, 3, 2, 1):
        got = lookahead_refine(F, G, d, ctx)
        want = lookahead_refine(F, G, d, QueryContext(1, BASE))
        assert (got.f.tolist(), got.g.tolist()) == (want.f.tolist(),
                                                    want.g.tolist())
    assert calls == [1, 1, 2, 2, 3, 3]
    assert len(np.unique(lookahead_refine(F, G, 3, ctx).f)) > \
        len(np.unique(lookahead_refine(F, G, 1, ctx).f))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(forest_pairs(most=20), st.integers(0, 3))
@example(pair=(LabeledForest.from_codes([0, 2, 4, 5, 3, 1]),
               LabeledForest.from_codes([0, 2, 6, 7, 3, 1])), extra=1)
def test_lookahead_past_height_equals_at_height(pair, extra):
    # every depth at or past the height cuts nothing: it gives the classes
    # of depth = height, and one context hashes each string once and ranks
    # the fingerprint pair once for all of them
    F, G = pair
    h = max(1, F.height(), G.height())
    ctx = QueryContext(1, BASE)
    at_h = lookahead_refine(F, G, h, ctx)
    want = lookahead_refine(F, G, h, QueryContext(1, BASE))
    for d in (h + extra, h + extra + 5, h):
        out = lookahead_refine(F, G, d, ctx)
        assert out is at_h
        assert out.f.tolist() == want.f.tolist()
        assert out.g.tolist() == want.g.tolist()
        fresh = lookahead_refine(F, G, d, QueryContext(1, BASE))
        assert fresh.f.tolist() == want.f.tolist()
        assert fresh.g.tolist() == want.g.tolist()
    hashed = 1 if np.array_equal(F.codes, G.codes) else 2
    assert ctx.timings["fingerprints_built"] == hashed
    assert ctx.timings["fingerprints_reused"] == 8 - hashed


def test_lookahead_keys_effective_depth_per_forest(interner, rng):
    # G relabels one of F's deepest nodes: only depths that reach it tell
    # the two roots apart.  One context, asked for depths on both sides of
    # the height in a mixed order, answers each as a fresh context does.
    syms = alphabet(interner, 3)
    for _ in range(8):
        F = random_forest(rng, int(rng.integers(20, 80)),
                          int(rng.integers(2, 7)), syms, branch=0.8)
        h = F.height()
        assert h >= 2
        deepest = int(np.flatnonzero(F.depth == h - 1)[0])
        labels = F.labels.copy()
        labels[deepest] = int(syms[0] if labels[deepest] != syms[0]
                              else syms[1])
        G = LabeledForest.from_codes(F.relabeled_codes(labels))
        ctx = QueryContext(1, BASE)
        for d in (h + 2, h, h - 1, h + 1, h - 1, h):
            got = lookahead_refine(F, G, d, ctx)
            want = lookahead_refine(F, G, d, QueryContext(1, BASE))
            assert got.f.tolist() == want.f.tolist()
            assert got.g.tolist() == want.g.tolist()
            root = int(np.flatnonzero(F.depth[:deepest + 1] == 0)[-1])
            assert (got.f[root] == got.g[root]) == (d < h)


def test_lookahead_ranks_a_fingerprint_pair_once(interner, rng):
    # the same two fingerprint arrays give back the labeling ranked last,
    # read-only; another pair of the same sizes is ranked anew
    syms = alphabet(interner, 3)
    F = random_forest(rng, 50, 5, syms)
    G = apply_random_edits(rng, F, 2, syms)
    F2 = random_forest(rng, F.n, 5, syms)
    G2 = random_forest(rng, G.n, 5, syms)
    ctx = QueryContext(1, BASE, audit=True)
    first = lookahead_refine(F, G, 2, ctx)
    assert lookahead_refine(F, G, 2, ctx) is first
    for A, B in ((F2, G2), (F, G), (F2, G2)):
        got = lookahead_refine(A, B, 2, ctx)
        want = lookahead_refine(A, B, 2, QueryContext(1, BASE))
        assert got.f.tolist() == want.f.tolist()
        assert got.g.tolist() == want.g.tolist()
    for side in (first.f, first.g, got.f, got.g):
        with pytest.raises(ValueError):
            side[0] = side[0] + 1


def test_audit_twin_fingerprints_under_its_own_base(rng):
    # the audit recomputes under an independent base: its twin has no twin
    # of its own, and its prefix table of a string is the one of its own
    # base, which differs from the context's
    ctx = QueryContext(1, BASE, audit=True)
    assert ctx.audit.audit is None and ctx.audit.base != ctx.base
    codes = rng.integers(0, 5, 300)
    table, twin = ctx.table(codes), ctx.audit.table(codes)
    assert table.P.tolist() == prefix_table(codes, BASE)
    assert twin.P.tolist() == prefix_table(codes, ctx.audit.base)
    assert table.P[-1] != twin.P[-1]


def test_compat_refine_examples(interner, rng):
    # identical copies at w=0: each node lands with its positional twin
    syms = alphabet(interner, 3)
    F = random_forest(rng, 20, 4, syms)
    out = compat_refine(F, F, JointLabeling(F.labels, F.labels), 0)
    assert (out.f == out.g).all()
    # at w = 0 a node is compatible only with its twin: one class per pair
    assert len(np.unique(out.f)) == F.n


def test_compat_one_side_equals_two_sides(interner, rng):
    # G is F with F's own class array: the components on F alone, one
    # array for both sides, equal to the two-sided closure against a copy
    # of F.  Runs of equal leaves and of equal small trees make offsets
    # other than 0 join nodes.  With another class array for G, the
    # closure is two-sided again.
    syms = alphabet(interner, 3)
    periodic = forest("(a)" * 6 + "(b(a))" * 4 + "(c(a)(b))" * 3, interner)
    for _ in range(12):
        F = LabeledForest.from_codes(np.concatenate([
            random_forest(rng, int(rng.integers(0, 30)), 4, syms).codes,
            periodic.codes,
            random_forest(rng, int(rng.integers(0, 30)), 4, syms).codes]))
        twin = LabeledForest.from_codes(F.codes.copy())
        labels = F.labels
        for w in (0, 1, 2, 5):
            one = compat_refine(F, F, JointLabeling(labels, labels), w)
            two = compat_refine(F, twin, JointLabeling(F.labels, twin.labels),
                                w)
            assert one.f is one.g
            assert one.f.tolist() == two.f.tolist() == two.g.tolist()
            joined = F.n - len(np.unique(one.f))
            if w == 0:
                assert joined == 0
            elif w >= 2:
                assert joined > 0
            classes = rng.integers(0, 2, (2, F.n))
            lab = JointLabeling(classes[0], classes[1])
            got = compat_refine(F, F, lab, w)
            want = compat_refine(F, twin, lab, w)
            assert got.f.tolist() == want.f.tolist()
            assert got.g.tolist() == want.g.tolist()


def test_compat_refine_matches_naive_closure(interner, rng):
    # sizes that differ, an empty side, and windows from 0 to past twice the
    # longer string; labels are the forests' own or random classes
    syms = alphabet(interner, 2)
    for t in range(300):
        nf, ng = (int(x) for x in rng.integers(0, 25, 2))
        if t % 10 == 0:
            nf = 0
        elif t % 10 == 1:
            ng = 0
        F = random_forest(rng, nf, 4, syms)
        G = random_forest(rng, ng, 4, syms)
        if t % 3:
            lab = JointLabeling(F.labels, G.labels)
        else:
            lab = JointLabeling(rng.integers(0, 3, F.n), rng.integers(0, 3, G.n))
        if t % 4 == 0:
            w = 2 * max(F.n, G.n) + int(rng.integers(0, 3))
        else:
            w = int(rng.choice([0, 1, 2, 4]))
        out = compat_refine(F, G, lab, w)
        # the same partition, its classes numbered by their first node
        want = naive_compat_classes(F, G, lab.f.tolist(), lab.g.tolist(), w)
        assert np.concatenate([out.f, out.g]).tolist() == want


def components_check(r, c, n):
    """`_components` against union-find: the same ids, which are dense,
    non-negative and numbered by each component's least node."""
    r = np.asarray(r, dtype=np.int64)
    c = np.asarray(c, dtype=np.int64)
    ids = _components(r, c, n)
    assert ids.dtype == np.int64 and ids.shape == (n,)
    want = union_find_components(n, zip(r.tolist(), c.tolist()))
    assert ids.tolist() == want
    values, first = np.unique(ids, return_index=True)
    assert values.tolist() == list(range(len(values)))
    assert (np.diff(first) > 0).all()
    return ids


def path_edges(nodes, rng):
    """The edges of the path through `nodes` in turn, shuffled in order and
    each with a random direction."""
    a, b = nodes[:-1], nodes[1:]
    flip = rng.random(len(a)) < 0.5
    order = rng.permutation(len(a))
    return np.where(flip, b, a)[order], np.where(flip, a, b)[order]


@pytest.mark.parametrize("order", ["sorted", "reversed", "zigzag", "random"])
def test_components_of_long_paths(order):
    # 65,536 nodes on one path: in id order, in reverse, alternating the
    # lowest and highest ids left, and at random; plus the same path split
    # in two at its middle, whose halves are numbered by their least nodes
    n = 1 << 16
    rng = np.random.default_rng(7)
    nodes = {"sorted": np.arange(n),
             "reversed": np.arange(n)[::-1],
             "zigzag": np.stack([np.arange(n // 2),
                                 np.arange(n - 1, n // 2 - 1, -1)],
                                axis=1).ravel(),
             "random": rng.permutation(n)}[order]
    r, c = path_edges(nodes, rng)
    assert not components_check(r, c, n).any()
    half = n // 2
    r, c = (np.concatenate(pair) for pair in zip(
        path_edges(nodes[:half], rng), path_edges(nodes[half:], rng)))
    assert len(set(components_check(r, c, n).tolist())) == 2


def test_components_of_a_star_with_the_largest_centre():
    # every leaf is a least root with no smaller neighbour: the centre hooks
    # under leaf 0 in the first round and the other leaves in the second
    n = 5000
    leaves = np.arange(n - 1)
    assert not components_check(np.full(n - 1, n - 1), leaves, n).any()
    assert not components_check(leaves[::-1], np.full(n - 1, n - 1), n).any()
    # two stars, centres at the top: the even leaves below n - 2 on one,
    # the odd ones on the other
    odd, even = leaves[1:-1:2], leaves[0:-1:2]
    ids = components_check(np.concatenate([odd, even]),
                           np.repeat([n - 1, n - 2], [len(odd), len(even)]),
                           n)
    assert ids[n - 1] == ids[1] == 1 and ids[n - 2] == ids[0] == 0


def test_components_of_random_bipartite_graphs():
    # two sides as in compat_refine, edges only across, from empty to dense,
    # with repeated edges, isolated nodes and many components
    rng = np.random.default_rng(11)
    for t in range(300):
        nf, ng = (int(x) for x in rng.integers(0, 60, 2))
        m = int(rng.integers(0, 2 * (nf + ng) + 1)) if nf and ng else 0
        r = rng.integers(0, max(nf, 1), m)
        c = nf + rng.integers(0, max(ng, 1), m)
        if t % 2:
            r, c = c, r
        components_check(r, c, nf + ng)
    assert components_check([], [], 0).tolist() == []
    assert components_check([], [], 3).tolist() == [0, 1, 2]


def test_refinement_direction(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 25, 5, syms)
    G = random_forest(rng, 25, 5, syms)
    lab = JointLabeling(F.labels, G.labels)
    la = lookahead_refine(F, G, 3, QueryContext(1, BASE))
    assert refines(la, lab)
    cp = compat_refine(F, G, la, 2)
    assert refines(cp, la) and refines(cp, lab)
    # a strictly coarser labeling does not refine a finer one
    if (len(np.unique(np.concatenate([la.f, la.g])))
            > len(np.unique(np.concatenate([lab.f, lab.g])))):
        assert not refines(lab, la)


def refines_by_sort(fine, coarse):
    """Reference `refines`: sort the nodes by fine class, then compare the
    coarse classes of neighbours in one fine class.  The linear `refines`
    indexes a table by fine class, so its fine classes must be non-negative
    integers; this reference takes any integers."""
    fv = np.concatenate([fine.f, fine.g])
    cv = np.concatenate([coarse.f, coarse.g])
    order = np.argsort(fv, kind="stable")
    fv, cv = fv[order], cv[order]
    same_fine = fv[1:] == fv[:-1]
    return bool((cv[1:][same_fine] == cv[:-1][same_fine]).all())


def test_refines_matches_sort_reference(rng):
    empty = JointLabeling(np.empty(0, dtype=np.int64),
                          np.empty(0, dtype=np.int64))
    assert refines(empty, empty) and refines_by_sort(empty, empty)
    verdicts = []
    for _ in range(400):
        nf, ng = (int(x) for x in rng.integers(0, 40, 2))
        classes = int(rng.integers(1, 12))
        fine = JointLabeling(rng.integers(0, classes, nf),
                             rng.integers(0, classes, ng))
        # coarse classes on non-dense (also negative and huge) ids: a
        # function of the fine class, sometimes with a few nodes moved
        spread = (rng.choice([1, 7, 1 << 40], size=classes)
                  * rng.integers(-5, 6, classes))
        coarse = JointLabeling(spread[fine.f], spread[fine.g])
        if rng.random() < 0.5 and nf:
            coarse.f[rng.integers(0, nf, 2)] = rng.integers(
                -(1 << 50), 1 << 50, 2)
        want = refines_by_sort(fine, coarse)
        assert refines(fine, coarse) == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts
    with pytest.raises(ValueError):
        refines(JointLabeling(np.array([0, -1]), np.empty(0, dtype=np.int64)),
                JointLabeling(np.array([0, 0]), np.empty(0, dtype=np.int64)))


def test_refines_with_shared_arrays(rng):
    # a side whose fine and coarse arrays are both F's is read once; a
    # side that shares only one of them is read, and a violation on G's
    # side alone is found
    for _ in range(200):
        n = int(rng.integers(1, 30))
        classes = int(rng.integers(1, 6))
        fine_f = rng.integers(0, classes, n)
        coarse_f = (rng.integers(0, 3, classes) * 5)[fine_f]
        coarse_g = coarse_f.copy()
        if rng.random() < 0.5:
            coarse_g[rng.integers(0, n)] += 1
        fine_g = fine_f.copy()
        for fine, coarse in (((fine_f, fine_f), (coarse_f, coarse_f)),
                             ((fine_f, fine_f), (coarse_f, coarse_g)),
                             ((fine_f, fine_g), (coarse_f, coarse_g)),
                             ((fine_f, fine_g), (coarse_f, coarse_f)),
                             ((fine_f[:0], fine_g), (coarse_f[:0], coarse_g))):
            fine, coarse = JointLabeling(*fine), JointLabeling(*coarse)
            assert refines(fine, coarse) == refines_by_sort(fine, coarse)
    # only G's coarse class breaks the partition
    cls, coarse = np.array([0, 0, 1]), np.array([4, 4, 7])
    fine = JointLabeling(cls, cls)
    assert refines(fine, JointLabeling(coarse, coarse.copy()))
    assert not refines(fine, JointLabeling(coarse, np.array([4, 5, 7])))


def test_dense_joint_ranks_like_unique(interner, rng):
    # the class ids are the inverse of np.unique over both forests'
    # fingerprints, also on shared and on empty arrays
    syms = alphabet(interner, 2)
    for _ in range(30):
        F = random_forest(rng, int(rng.integers(0, 60)), 5, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        ctx = QueryContext(1, BASE)
        fp_f = _subtree_fingerprints(F, int(rng.integers(1, 4)), ctx)
        fp_g = _subtree_fingerprints(G, int(rng.integers(1, 4)), ctx)
        for a, b in ((fp_f, fp_g), (fp_f, fp_f), (fp_g, fp_f[:0])):
            got = _dense_joint(a, b)
            inverse = np.unique(np.concatenate([a, b]),
                                return_inverse=True)[1]
            assert got.f.tolist() == inverse[:len(a)].tolist()
            assert got.g.tolist() == inverse[len(a):].tolist()
            assert (got.g is got.f) == (b is a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2 ** 64 - 1), max_size=40),
       st.lists(st.integers(0, 2 ** 64 - 1), max_size=40))
@example(f=[], g=[])
@example(f=[7] * 5, g=[7] * 3)
@example(f=[5, 3, 9], g=[2 ** 64 - 1, 0])
def test_dense_joint_matches_unique_inverse(f, g):
    fp_f = np.array(f, dtype=np.uint64)
    fp_g = np.array(g, dtype=np.uint64)
    got = _dense_joint(fp_f, fp_g)
    inverse = np.unique(np.concatenate([fp_f, fp_g]), return_inverse=True)[1]
    assert got.f.tolist() == inverse[:len(f)].tolist()
    assert got.g.tolist() == inverse[len(f):].tolist()
    assert got.f.dtype == got.g.dtype == np.int64


def test_lookahead_cost_bound(interner, rng):
    syms = alphabet(interner, 2)
    for _ in range(8):
        F = random_forest(rng, int(rng.integers(1, 6)), 3, syms)
        G = apply_random_edits(rng, F, int(rng.integers(0, 3)), syms)
        if G.n == 0 or G.n > 6:
            continue
        lab = JointLabeling(F.labels, G.labels)
        _, alns = optimal_tree_alignments(F, G)
        for A in alns[:5]:
            for d in (1, 2, 3):
                assert lookahead_cost_bound_check(F, G, lab, d, A, BASE)
            w = eval_alignment(A, F.codes, G.codes).width
            assert compat_cost_equal_check(F, G, lab, w, A)


def test_identity_alignment_costs_zero(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 12, 4, syms)
    A = np.array([(i, i) for i in range(2 * F.n + 1)])
    lab = JointLabeling(F.labels, F.labels)
    assert alignment_forest_cost(A, F, F, lab) == 0
    assert lookahead_cost_bound_check(F, F, lab, 3, A, BASE)


def test_optimum_alignment_greedy_under_full_lookahead(interner, rng):
    # some optimum tree alignment is greedy on the fully refined strings
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    from test_alignment import budget_alignments
    from tedk.oracle import ted_exact
    syms = alphabet(interner, 2)
    done = 0
    while done < 10:
        F = random_forest(rng, int(rng.integers(1, 5)), 3, syms)
        G = random_forest(rng, int(rng.integers(1, 5)), 3, syms)
        best = ted_exact(F, G)
        if best > 2:
            continue
        h = max(F.height(), G.height(), 1)
        lab = lookahead_refine(F, G, h, QueryContext(1, BASE))
        sf = F.relabeled_codes(lab.f)
        sg = G.relabeled_codes(lab.g)
        sf0 = F.codes
        sg0 = G.codes
        opts = [A for A in budget_alignments(sf0, sg0, 2 * best, max(2 * best, 1))
                if is_tree_alignment(A, F, G)
                and eval_alignment(A, sf0, sg0).cost == 2 * best]
        assert opts, "enumeration must find an optimum tree alignment"
        assert any(is_greedy(A, sf, sg) for A in opts)
        done += 1


def _walk_cuts(F, d):
    pairs = [(anc[-d], u) for u, anc, _ in stack_walk(F.codes) if len(anc) >= d]
    pairs.sort()
    return ([p[0] for p in pairs], [p[1] for p in pairs])


def test_level_cuts_match_stack_walk(interner, rng):
    syms = alphabet(interner, 3)
    for _ in range(40):
        F = random_forest(rng, int(rng.integers(0, 120)),
                          int(rng.integers(1, 25)), syms,
                          branch=float(rng.uniform(0.3, 0.95)))
        for d in (1, 2, 3, 8, 16, F.height() + 1):
            owner, member = _level_descendant_cuts(F, d)
            assert (owner.tolist(), member.tolist()) == _walk_cuts(F, d)
    F = deep_chain(rng, 20_200, syms)
    for d in (1, 8, 16):
        owner, member = _level_descendant_cuts(F, d)
        assert (owner.tolist(), member.tolist()) == _walk_cuts(F, d)


def three_path_fingerprints(F, codes, d, ctx):
    """Reference trimmed-print fingerprints: whole subtrees for nodes without
    cuts, one vectorized concatenation for nodes with one cut, and a scalar
    fold over the fragments of each node with two or more cuts."""
    hs = HashedSeq(codes, ctx)
    n = F.n
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    owner, member = _level_descendant_cuts(F, d)
    fp = np.zeros(n, dtype=np.uint64)
    if len(owner) == 0:
        return hs.substring_vec(F.o, F.c + 1)
    has_cut = np.zeros(n, dtype=bool)
    has_cut[owner] = True
    plain = np.flatnonzero(~has_cut)
    fp[plain] = hs.substring_vec(F.o[plain], F.c[plain] + 1)
    o, c = F.o, F.c
    bounds = np.searchsorted(owner, np.arange(n + 1))
    counts = np.diff(bounds)
    single = np.flatnonzero(counts == 1)
    if len(single):
        wnode = member[bounds[single]]
        a = hs.substring_vec(o[single], o[wnode])
        b = hs.substring_vec(c[wnode] + 1, c[single] + 1)
        blen = (c[single] + 1) - (c[wnode] + 1)
        fp[single] = (mulmod_vec(a, hs.pw[blen]) + b) % np.uint64(M61)
    for v in np.flatnonzero(counts >= 2).tolist():
        acc, acc_len = 0, 0
        at = int(o[v])
        for wnode in member[bounds[v]:bounds[v + 1]].tolist():
            acc = concat_fp(ctx.base, acc, acc_len,
                            substring(ctx.base, hs, at, int(o[wnode])),
                            int(o[wnode]) - at)
            acc_len += int(o[wnode]) - at
            at = int(c[wnode]) + 1
        acc = concat_fp(ctx.base, acc, acc_len,
                        substring(ctx.base, hs, at, int(c[v]) + 1),
                        int(c[v]) + 1 - at)
        fp[v] = acc
    return fp


def test_fingerprints_match_three_path_reference(interner, rng):
    syms = alphabet(interner, 3)
    multi = 0

    def check(F, d):
        nonlocal multi
        base = int(rng.integers(1 << 10, M61 - 2))
        H = LabeledForest.from_codes(
            F.relabeled_codes(rng.integers(0, 50, F.n)))
        got = _subtree_fingerprints(H, d, QueryContext(1, base))
        assert got.dtype == np.uint64
        assert got.tolist() == three_path_fingerprints(H, H.codes, d,
                                                      QueryContext(1, base)).tolist()
        owner, _ = _level_descendant_cuts(F, d)
        multi += int((np.bincount(owner, minlength=F.n) >= 2).sum())

    for _ in range(60):
        F = random_forest(rng, int(rng.integers(0, 150)),
                          int(rng.integers(1, 25)), syms,
                          branch=float(rng.uniform(0.3, 0.95)))
        for d in (1, 2, 3, 8, 16, F.height(), F.height() + 1):
            if d >= 1:
                check(F, d)
    F = deep_chain(rng, 20_200, syms)
    for d in (1, 8, 16, F.height(), F.height() + 1):
        check(F, d)
    assert multi > 1000
