import numpy as np
import pytest
from hypothesis import strategies as st

from tedk.alignment import eval_alignment
from tedk.context import QueryContext
from tedk.errors import CrossingMatchingError
from tedk.forest import (LabeledForest, LabelInterner, _pair_parens,
                         parse_paren_text)
from tedk.generate import (alphabet, apply_random_edits, plant_horizontal,
                           plant_vertical, random_forest)
from tedk.oracle import INF, ted_exact
from tedk.partial import gadget, reduce_height, validate_matching

VIRTUAL_ROOT = -1  # the parent of a root in `reference.parents`


@pytest.fixture
def interner():
    return LabelInterner()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(0xC0FFEE)))


def forest(text, it):
    return parse_paren_text(text, it)


def query(k, base=0xC0DE):
    """A query context for threshold k.  The periodicity reductions hash
    nothing, so any fingerprint base serves them."""
    return QueryContext(k, base)


def stack_walk(codes, marked=()):
    """Reference level ancestors, read off the parenthesis codes with a stack.

    Yields (u, anc, marked_anc) per node u in pre-order: u's proper ancestors
    and its marked proper ancestors, root first.  Both are live lists, valid
    until the next step.
    """
    marked = set(int(v) for v in marked)
    anc, marked_anc = [], []
    u = 0
    for code in np.asarray(codes).tolist():
        if code & 1 == 0:
            yield u, anc, marked_anc
            anc.append(u)
            if u in marked:
                marked_anc.append(u)
            u += 1
        else:
            w = anc.pop()
            if marked_anc and marked_anc[-1] == w:
                marked_anc.pop()


def deep_chain(rng, depth, syms, leaf_every=67):
    """A chain `depth` levels deep with a leaf hung every `leaf_every` levels,
    labels drawn from `syms` (the shape of the benchmark's deep workload)."""
    labs = syms[rng.integers(len(syms), size=depth)].tolist()
    codes = []
    for level, lab in enumerate(labs):
        codes.append(lab << 1)
        if level % leaf_every == 13:
            s = int(syms[rng.integers(len(syms))])
            codes += [s << 1, (s << 1) | 1]
    codes += [(lab << 1) | 1 for lab in reversed(labs)]
    return LabeledForest.from_codes(np.array(codes, dtype=np.int64))


def validate(F):
    """Re-check F's structural invariants against its codes: the pairing,
    then each node's close label against its open label."""
    o, c, depth = _pair_parens(F.codes)
    if not (np.array_equal(o, F.o) and np.array_equal(c, F.c)
            and np.array_equal(depth, F.depth)):
        raise ValueError("inconsistent cached position arrays")
    if not np.array_equal(F.codes[o] >> 1, F.codes[c] >> 1):
        raise ValueError("a close's label differs from its open's")


def is_tree_alignment(A, F, G) -> bool:
    """Check the per-node consistency conditions of a tree alignment."""
    X, Y = F.codes, G.codes
    eval_alignment(A, X, Y)
    dx = np.diff(A[:, 0])
    dy = np.diff(A[:, 1])
    diag = (dx == 1) & (dy == 1)
    x_to_y = np.full(len(X), -1, dtype=np.int64)
    y_to_x = np.full(len(Y), -1, dtype=np.int64)
    x_to_y[A[:-1, 0][diag]] = A[:-1, 1][diag]
    y_to_x[A[:-1, 1][diag]] = A[:-1, 0][diag]

    def side_ok(H_from, H_to, pos_map) -> bool:
        yo = pos_map[H_from.o]
        yc = pos_map[H_from.c]
        both_deleted = (yo < 0) & (yc < 0)
        aligned = (yo >= 0) & (yc >= 0)
        if not (both_deleted | aligned).all():
            return False
        if not aligned.any():
            return True
        v = H_to.node_at[np.maximum(yo[aligned], 0)]
        ok = (H_to.o[v] == yo[aligned]) & (H_to.c[v] == yc[aligned])
        return bool(ok.all())

    return side_ok(F, G, x_to_y) and side_ok(G, F, y_to_x)


def sym_diff_size(A, B) -> int:
    """|A triangle B| over the element pair sets."""
    big = 1 << 32
    a = A[:, 0] * big + A[:, 1]
    b = B[:, 0] * big + B[:, 1]
    inter = len(np.intersect1d(a, b))
    return len(a) + len(b) - 2 * inter


def ted_constrained(F, G, M):
    """Minimum cost over tree alignments matching every pair of M.

    INF when M is not a non-crossing label-matching set.  Implemented by
    height flattening plus the uniqueness gadget at an unconstrained
    threshold, then the exact DP.
    """
    try:
        M = validate_matching(F, G, M)
    except (CrossingMatchingError, ValueError):
        return INF
    if len(M) == 0:
        return ted_exact(F, G)
    codes_f, codes_g, P = reduce_height(F, G, M)
    k = (len(codes_f) + len(codes_g)) // 2
    return ted_exact(*map(LabeledForest.from_codes,
                          gadget(codes_f, codes_g, P, k)))


def as_forests(codes_f, codes_g, P):
    """(F, G, M) for two rewritten strings and the opening positions P of
    their matched pairs: each position must open a node, whose pre-order id
    is its rank among the opens."""
    F, G = LabeledForest.from_codes(codes_f), LabeledForest.from_codes(codes_g)
    M = np.stack([np.searchsorted(F.o, P[:, 0]),
                  np.searchsorted(G.o, P[:, 1])], axis=1)
    assert (F.o[M[:, 0]] == P[:, 0]).all() and (G.o[M[:, 1]] == P[:, 1]).all()
    return F, G, M


@st.composite
def forest_pairs(draw, most=6):
    """(F, G): random, edited, planted horizontally, vertically or both
    ("mixed"), or "embedded"; F of at most `most` nodes before planting or
    embedding (11 nodes each at the default).  An embedded pair edits a
    forest of 1 or 2 nodes between a prefix and a suffix that F and G
    share, the two parts of F split between two roots, so its inserts and
    deletes shift the suffix's node ids."""
    it = LabelInterner()
    syms = alphabet(it, draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    F = random_forest(rng, draw(st.integers(0, most)), draw(st.integers(1, 4)),
                      syms)
    kind = draw(st.sampled_from(["random", "edited", "horizontal",
                                 "vertical", "mixed", "embedded"]))
    if kind == "random":
        return F, random_forest(rng, draw(st.integers(0, most)), 3, syms)
    if kind == "embedded":
        cuts = [0, *(F.c[F.depth == 0] + 1).tolist()]
        cut = cuts[draw(st.integers(0, len(cuts) - 1))]
        mid = random_forest(rng, draw(st.integers(1, 2)), 2, syms)
        G = apply_random_edits(rng, mid, draw(st.integers(1, 2)), syms)
        F, G = (LabeledForest.from_codes(np.concatenate(
            [F.codes[:cut], m.codes, F.codes[cut:]])) for m in (mid, G))
    else:
        # one repetition each when mixed keeps the default pairs within
        # reach of the brute-force oracle
        if kind in ("horizontal", "mixed"):
            reps = 1 if kind == "mixed" else draw(st.integers(1, 2))
            F = plant_horizontal(rng, F, 1, syms, reps=reps)
        if kind in ("vertical", "mixed"):
            reps = 1 if kind == "mixed" else draw(st.integers(1, 2))
            F = plant_vertical(rng, F, 1, syms, reps=reps)
        G = apply_random_edits(rng, F, draw(st.integers(0, 3)), syms)
    if draw(st.booleans()):
        F, G = G, F
    return F, G


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
