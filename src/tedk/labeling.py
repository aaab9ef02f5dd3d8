"""Joint relabelings of two forests: look-ahead and compatibility refinement.

A joint labeling is a pair of per-forest symbol arrays drawn from one shared
class space.  Look-ahead refinement of the forests' own labels gives two
nodes the same class exactly when their depth-limited labeled subtrees print
the same string (realized by Karp-Rabin fingerprints under the query
context's one base).  A trimmed print is the node's print with the subtrees
of its descendants d levels below cut out; those cuts are found for all
nodes at once by one sort and one binary search (`forest.last_at_level`),
and one vectorized pass hashes every remaining fragment, read off the
context's prefix table of the forest's code string, and combines each
node's fragments.  The fingerprints go into the string's record in the
context, keyed by the effective depth min(d, height): every depth at or
past a forest's height cuts nothing and gives the full-print fingerprints.
Equal code strings are equal forests, so when G's string equals F's, or a
later look-ahead at the same effective depth meets a string already hashed,
it gets the recorded array and nothing is hashed twice.  Fingerprints are
ranked into dense class ids by a stable order of their values (two sorts
of packed keys), a running count of value changes along it and one
scatter back.  The context also keeps the last fingerprint pair ranked
into classes (`QueryContext.joint`): a look-ahead that meets the same two
arrays (by identity) returns that labeling, whose arrays are read-only,
and still runs its contract checks.
Compatibility refinement merges nodes reachable through chains of
cross-forest pairs whose parenthesis positions lie within a window w.  Its
connected components come from `_components`: rounds of hooking each root
under its least neighbouring root and pointer jumping, after Shiloach and
Vishkin, which end within 2 floor(log2 n) rounds on n nodes.  A root with
no smaller neighbour either takes the hook of a root of its own or hooks
in the next round, so every two rounds at least halve the roots of each
component.
When G is F and G's classes are F's own array, compatibility is symmetric
and reflexive, so it computes F's side alone and shares it with G.

Each refinement checks that its output refines its input (`refines`, one
linear pass over a table indexed by fine class, which skips G's side when
both its arrays are F's) with an explicit `ContractError`, so the check
also runs under ``python -O``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import QueryContext
from .errors import ContractError, FingerprintCollisionError
from .forest import LabeledForest, last_at_level
from .hashing import mulmod_vec, sum_mod


@dataclass(frozen=True)
class JointLabeling:
    """Class id per node for forest F (`f`) and forest G (`g`)."""

    f: np.ndarray
    g: np.ndarray


def refines(fine: JointLabeling, coarse: JointLabeling) -> bool:
    """True iff equal `fine` classes always imply equal `coarse` classes.

    The fine classes must be non-negative integers, as every refinement's
    dense class ids are.  One O(n + max class) pass over a table indexed by
    fine class: each node of F, then of G, writes its coarse class there,
    and the partition refines exactly when every node then reads its own
    coarse class back.  G's side is skipped when both its arrays are F's.
    """
    sides = [(fine.f, coarse.f)]
    if not (fine.g is fine.f and coarse.g is coarse.f):
        sides.append((fine.g, coarse.g))
    sides = [(fv, cv) for fv, cv in sides if len(fv)]
    if not sides:
        return True
    if min(fv.min() for fv, _ in sides) < 0:
        raise ValueError("fine classes must be non-negative")
    seen = np.empty(max(int(fv.max()) for fv, _ in sides) + 1,
                    dtype=np.result_type(coarse.f, coarse.g))
    for fv, cv in sides:
        seen[fv] = cv
    return all(bool((seen[fv] == cv).all()) for fv, cv in sides)


def _level_descendant_cuts(F: LabeledForest, d: int):
    """For each node v: pre-order list of descendants exactly d levels below.

    Returns (owner, node) arrays sorted by (owner, node); owner lists realize
    the ancestor-array traversal without recursion.  Each node's owner is its
    ancestor d levels up, from one `last_at_level` query.
    """
    if F.height() <= d:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy()
    member = np.flatnonzero(F.depth >= d)
    owner = last_at_level(F.depth, F.depth[member] - d, member)
    order = np.argsort(owner, kind="stable")
    return owner[order], member[order]


def _subtree_fingerprints(F: LabeledForest, d: int,
                          ctx: QueryContext) -> np.ndarray:
    """fp of the depth-<d trimmed subtree print of F's codes, per node.

    A node v with cuts w_1..w_m (pre-order) prints the fragments
    [o(v), o(w_1)), [c(w_1)+1, o(w_2)), ..., [c(w_m)+1, c(v)+1); all n + m
    fragments are hashed in one pass.  A node without cuts is its single
    fragment; for the others fp(v) = sum of fp(f) * base^(length of v's
    fragments after f), summed per node mod 2^61-1.
    """
    hs = ctx.table(F.codes)
    owner, member = _level_descendant_cuts(F, d)
    m = len(owner)
    counts = np.bincount(owner, minlength=F.n)
    first = np.arange(F.n) + (np.cumsum(counts) - counts)
    closed = owner + np.arange(m)  # the fragment each cut ends
    starts = np.empty(F.n + m, dtype=np.int64)
    ends = np.empty(F.n + m, dtype=np.int64)
    starts[first] = F.o
    starts[closed + 1] = F.c[member] + 1
    ends[closed] = F.o[member]
    ends[first + counts] = F.c + 1
    frag = hs.substring_vec(starts, ends)
    fp = frag[first]
    # the fragments of the nodes with cuts, each node's run from `head` on
    cut = np.flatnonzero(counts)
    sizes = counts[cut] + 1
    head = np.cumsum(sizes) - sizes
    sel = np.repeat(first[cut] - head, sizes) + np.arange(len(cut) + m)
    total = np.cumsum(ends[sel] - starts[sel])
    after = np.repeat(total[head + sizes - 1], sizes) - total
    terms = mulmod_vec(frag[sel], hs.pw[after])
    fp[cut] = sum_mod(terms, lambda x: np.add.reduceat(x, head))
    return fp


def _dense_joint(fp_f: np.ndarray, fp_g: np.ndarray) -> JointLabeling:
    """Dense class ids of the fingerprints, ranked by value (the inverse of
    `np.unique`), in read-only arrays.  G's array may be F's own (equal
    code strings), which then ranks only once and shares F's class array.

    The order by value is a radix sort of two digits, each pass one
    `np.sort` of packed keys, which is several times faster than an
    argsort on fingerprints with many repeats: a key holds one digit above
    the bits of a position, so the keys are distinct and the order of
    equal digits is kept.  The low 64 - bits bits go first, then the high
    bits.  A running count of the value changes along that order,
    scattered back, gives the ids.
    """
    fp = fp_f if fp_g is fp_f else np.concatenate([fp_f, fp_g])
    n = len(fp)
    bits = max(n - 1, 1).bit_length()
    shift, mask = np.uint64(bits), np.uint64((1 << bits) - 1)
    pos = np.arange(n, dtype=np.uint64)
    key = fp << shift
    key |= pos
    key.sort()
    order = (key & mask).view(np.int64)
    np.right_shift(fp[order], np.uint64(64 - bits), out=key)
    key <<= shift
    key |= pos
    key.sort()
    key &= mask
    order = order[key.view(np.int64)]
    ordered = fp[order]
    rank = np.zeros(n, dtype=np.int64)
    np.not_equal(ordered[1:], ordered[:-1], out=rank[1:])
    ids = np.empty_like(rank)
    ids[order] = np.cumsum(rank, out=rank)
    f = ids[:len(fp_f)]
    g = f if fp_g is fp_f else ids[len(fp_f):]
    f.flags.writeable = g.flags.writeable = False
    return JointLabeling(f, g)


def lookahead_refine(F: LabeledForest, G: LabeledForest, d: int,
                     ctx: QueryContext) -> JointLabeling:
    """Depth-d look-ahead refinement of the forests' own labels (classes
    match iff the trimmed labeled subtree prints agree, up to fingerprint
    collision).

    d must be >= 1; the one base of the query context `ctx` makes classes
    comparable across both forests.  The fingerprints come from the
    strings' records at the effective depth min(d, height), and the same
    pair of fingerprint arrays as the last call's gives back that call's
    labeling (read-only arrays).  When `ctx` carries an audit twin, an
    independent second fingerprint recomputes the partition and any
    discrepancy raises FingerprintCollisionError.
    """
    if d < 1:
        raise ValueError("look-ahead depth must be >= 1")

    def classes(state: QueryContext) -> JointLabeling:
        # depths at or past a forest's height cut nothing: one key for all
        fp_f, fp_g = (
            state.derived(H.codes, ("fp", min(d, H.height())),
                          lambda H=H: _subtree_fingerprints(H, d, state),
                          "fingerprints")
            for H in (F, G))
        memo = state.joint
        if memo is None or memo[0] is not fp_f or memo[1] is not fp_g:
            memo = state.joint = (fp_f, fp_g, _dense_joint(fp_f, fp_g))
        return memo[2]

    out = classes(ctx)
    if ctx.audit is not None:
        out2 = classes(ctx.audit)
        if not (refines(out, out2) and refines(out2, out)):
            raise FingerprintCollisionError(
                "fingerprint collision detected in look-ahead classes")
    labels = F.labels  # G's too when G is F: one side to check
    if not refines(out, JointLabeling(labels, labels if G is F else G.labels)):
        raise ContractError(
            "look-ahead classes do not refine the forests' labels")
    return out


def _components(r: np.ndarray, c: np.ndarray, n: int) -> np.ndarray:
    """Component id of each of the nodes 0..n-1 of the undirected graph
    with the edges (r[i], c[i]), each joining two distinct nodes; the ids
    are 0, 1, ... in the order of each component's least node.

    Hooking and pointer jumping in rounds, after Shiloach and Vishkin
    (J. Algorithms 1982).  `parent` is a forest with parent[v] <= v, whose
    roots are each their tree's least node, and at the start of a round
    every edge joins two roots.  A round hooks each root under the least
    root it shares an edge with, when that one is smaller
    (`np.minimum.at`), and jumps the hooked roots to their new roots
    (`_jump`); the edges then map to those roots, and the ones inside a
    tree are dropped.  The other nodes are jumped to their roots once, at
    the end.  A jump halves every path to a root, so `_jump` settles
    within log2(n) + 1 steps.

    At most 2 floor(log2 n) rounds run.  In a component with m roots, call
    a root with no smaller neighbour a minimum: no two minima are
    neighbours, every other root hooks, and only the minima stay roots.  A
    minimum that no root hooks under has all its neighbours hooked under
    roots smaller than itself, so it hooks in the next round.  Each other
    minimum takes the hook of at least one root that is not a minimum, a
    different one for each, so there are at most m/2 of them, and only they
    can still be roots after two rounds.  The m roots of a component thus
    fall to at most floor(m/2) in every two rounds; a component has at most
    n nodes, so after 2 floor(log2 n) rounds each has one root and no edge
    is left.  An edge left past that bound raises ContractError.
    """
    parent = np.arange(n, dtype=np.int64)
    for _ in range(2 * (n.bit_length() - 1)):
        if not len(r):
            break
        hooked = np.maximum(r, c)
        np.minimum.at(parent, hooked, np.minimum(r, c))
        _jump(parent, hooked)
        r, c = parent[r], parent[c]
        cross = r != c
        r, c = r[cross], c[cross]
    if len(r):
        raise ContractError("connectivity rounds exceed 2 floor(log2 n)")
    nodes = np.arange(n)
    _jump(parent, nodes)
    roots = np.flatnonzero(parent == nodes)
    ids = np.empty(n, dtype=np.int64)
    ids[roots] = np.arange(len(roots))
    return ids[parent]


def _jump(parent: np.ndarray, nodes: np.ndarray) -> None:
    """parent[v] = its tree's root for each v in `nodes`, in place, by
    jumps parent[v] = parent[parent[v]] on the nodes not yet there."""
    while len(nodes):
        up = parent[nodes]
        top = parent[up]
        moving = top != up
        nodes = nodes[moving]
        parent[nodes] = top[moving]


def compat_refine(F: LabeledForest, G: LabeledForest, lab: JointLabeling,
                  w: int) -> JointLabeling:
    """Connected components of the transitive closure of w-compatibility.

    Nodes u in F and v in G are w-compatible when they share a class and both
    parenthesis positions differ by at most w.  The classes must be
    non-negative.

    G's class, closing position and node id are laid out by opening
    position, padded by w on both sides and sized for the longer string;
    a close or a pad holds class -1, which matches no node.  Each offset
    from -w to w is then one gather at F's opening positions shifted by it,
    and the closing positions are gathered only where the classes agree.
    A node with no compatible partner is a component of its own, so the
    graph holds only the cross-forest edges.  Its components come from
    `_components`, numbered by least node (F's nodes first, then G's), in
    at most 2 floor(log2 n) rounds of hooking and pointer jumping on n
    nodes: a root with no smaller neighbour either takes the hook of a
    root of its own or hooks in the next round, so every two rounds at
    least halve the roots of each component (the full argument is in
    `_components`).

    When G is F and G's classes are F's own array, compatibility is
    symmetric and every node is compatible with its twin, so each component
    holds a node's two copies together: the components are those of the
    graph on F's n nodes alone, with the edges of offsets 1 to w, and both
    sides get the one component array.
    """
    one_side = G is F and lab.g is lab.f
    nf, ng = F.n, G.n
    total = nf if one_side else nf + ng
    if total == 0:
        return JointLabeling(lab.f.copy(), lab.g.copy())
    size = 2 * max(nf, ng) + 2 * w
    cls_at = np.full(size, -1, dtype=np.int64)
    close_at = np.empty(size, dtype=np.int64)
    node_at = np.empty(size, dtype=np.int64)
    at = G.o + w
    cls_at[at] = lab.g
    close_at[at] = G.c
    node_at[at] = np.arange(total - ng, total, dtype=np.int64)
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    for off in range(1 if one_side else -w, w + 1):
        at = F.o + (off + w)
        u = np.flatnonzero(cls_at[at] == lab.f)
        at = at[u]
        near = np.abs(F.c[u] - close_at[at]) <= w
        rows.append(u[near])
        cols.append(node_at[at[near]])
    comp = _components(np.concatenate(rows), np.concatenate(cols), total)
    if one_side:
        out = JointLabeling(comp, comp)
    else:
        out = JointLabeling(comp[:nf], comp[nf:])
    if not refines(out, lab):
        raise ContractError("compatibility classes do not refine the input labeling")
    return out
