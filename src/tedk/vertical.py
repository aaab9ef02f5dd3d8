"""Vertical periodicity reduction: repeated context layers along a path.

A context is a split (C_L, C_R) of some tree print; its e-th power occurring
at a node means e nested layers whose flanking subtrees repeat level by
level.  Detection anchors small-period high-exponent runs (the query
context's) at each node's opening and closing parenthesis, derives the
context period from the depth deltas, clips the exponent by run lengths,
the subtree size, and the divergence point (LCA of the two run endpoints),
all in one vectorized pass over the nodes; the LCA depths come from a
binary search over level ancestors (`forest.lca_depth`), with no LCA table.
The powers are int64 rows (u, q_l, q_r, e) (`compute_contexts`), found once
per distinct string and kept in the query context's record.  It then
pairs occurrences across the forests into rows (u_f, u_g, q_l, q_r, e)
(`vert_periods`): each F occurrence takes the outermost equal-context G
occurrence among those whose opening and closing positions both lie within
2k of its own.  The candidates are read straight off G's parenthesis array,
at the at most 4k+1 positions of the opening window
(`LabeledForest.node_at`), so no index is built.  Reduction turns each pair
into two cut sites in one array step, the left parts from the openings and
the right parts up to the closings, and cuts them down to 14k layers on
both sides at once with the horizontal reduction's `cut_sites`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError
from .forest import LabeledForest, lca_depth
from .horizontal import cut_sites

if TYPE_CHECKING:
    from .context import QueryContext


def compute_q(F: LabeledForest, ctx: QueryContext):
    """Anchor arrays (q, endpoint) per parenthesis position.

    An opening position inside a filtered run (from the query context) whose
    suffix keeps exponent >= 16k anchors that run; closing positions anchor
    run prefixes.  Each position is written at most once (runs this long
    cannot share it).
    """
    codes = F.codes
    m = len(codes)
    q_arr = np.ones(m, dtype=np.int64)
    end_arr = np.arange(m, dtype=np.int64)
    is_open = (codes & 1) == 0
    need = 16 * ctx.k
    for i, j, p in ctx.runs(codes).tolist():
        span = np.arange(i, j)
        opens = span[is_open[i:j]]
        good = opens[(j - opens) >= need * p]
        if len(good):
            if (end_arr[good] != good).any():
                raise ContractError("position anchored twice")
            q_arr[good] = p
            end_arr[good] = j
        closes = span[~is_open[i:j]]
        good = closes[(closes - (i - 1)) >= need * p]
        if len(good):
            if (end_arr[good] != good).any():
                raise ContractError("position anchored twice")
            q_arr[good] = p
            end_arr[good] = i - 1
    return q_arr, end_arr


def compute_contexts(F: LabeledForest, ctx: QueryContext) -> np.ndarray:
    """Maximal small context powers per node: an (x, 4) int64 array of rows
    (u, q_l, q_r, e), the power (C_L, C_R)^e at node u with |C_L| = q_l and
    |C_R| = q_r, in opening-position order.

    One vectorized pass over the nodes u whose opening and closing positions
    both anchor a run: the context's layer depth d is the lcm of the depth
    steps of the two runs' periods, and the exponent is the least of the two
    run lengths, the subtree size and the layers above the divergence point,
    the LCA of the nodes at the runs' far endpoints (clipped into sub(u); a
    run escaping the subtree is already capped by the size bound).
    """
    k = ctx.k
    q_arr, end_arr = compute_q(F, ctx)
    o, c, depth, node_at = F.o, F.c, F.depth, F.node_at
    u = np.flatnonzero((end_arr[o] != o) & (end_arr[c] != c)
                       & ((c - o) >= np.maximum(q_arr[o], q_arr[c])))
    ou, cu, top = o[u], c[u], depth[u]
    d_l = depth[node_at[ou + q_arr[ou]]] - top
    d_r = depth[node_at[cu - q_arr[cu]]] - top
    d = np.lcm(d_l, d_r)
    # a step below 1 is no context; its row is dropped, the divisor guard
    # only keeps the division defined
    cl_len = q_arr[ou] * (d // np.maximum(d_l, 1))
    cr_len = q_arr[cu] * (d // np.maximum(d_r, 1))
    keep = ((d_l >= 1) & (d_r >= 1) & (cl_len <= 4 * k)
            & (cr_len <= 4 * k))
    if not keep.any():
        return np.empty((0, 4), dtype=np.int64)
    u, ou, cu, top, d, cl_len, cr_len = (
        x[keep] for x in (u, ou, cu, top, d, cl_len, cr_len))
    j_l, j_r = end_arr[ou], end_arr[cu]
    pl = np.minimum(j_l - 1, cu)
    pr = np.maximum(j_r + 1, ou)
    if ((pl < ou) | (pr > cu)).any():
        raise ContractError("context power endpoints outside the subtree")
    v_depth = lca_depth(depth, node_at[pl], node_at[pr], lo=top)
    e = np.minimum.reduce([(j_l - ou) // cl_len,
                           (cu - j_r) // cr_len,
                           (cu - ou + 1) // (cl_len + cr_len),
                           (v_depth - top + 1) // d])
    return np.stack([u, cl_len, cr_len, e], axis=1)[e >= 16 * k]


def _context_key(codes: np.ndarray, o: int, c: int, q_l: int, q_r: int) -> bytes:
    return codes[o:o + q_l].tobytes() + b"|" + codes[c - q_r + 1:c + 1].tobytes()


def vert_periods(F: LabeledForest, G: LabeledForest,
                 ctx: QueryContext) -> np.ndarray:
    """Pair context powers of F with equal-context powers of G within the
    2k-by-2k window, advancing past each hit's reduced span: an (s, 5) int64
    array of rows (u_f, u_g, q_l, q_r, e), the powers at F's node u_f and
    G's node u_g of one context with |C_L| = q_l and |C_R| = q_r, and the
    lesser of their exponents.

    The partner is read off G's parenthesis array: the first power, scanning
    the 4k+1 positions around F's opening from the low end, whose closing is
    within 2k and whose context is equal.  A tower of nested occurrences has
    a power at every layer, and that is its outermost passing layer; an
    inner one would let the reduction keep 16k synchronized layers alive.

    Every layer between two passing ones passes too.  A power spans at
    least 16k(q_l + q_r) >= 32k positions, and two candidates open at most
    4k apart, so they are nested: s0 (opening p0, closing c0) outside s.
    Both openings carry C_L inside s0's left run, of primitive period pi and
    depth step d_l, and both closings carry C_R inside its right run (pi_r,
    d_r); by Fine and Wilf these runs also anchor s.  So p - p0 = a*pi,
    c0 - c(s) = b*pi_r, and a*d_l = b*d_r is s's depth below s0, a multiple
    j*d of d = lcm(d_l, d_r).  By periodicity each layer i < j opens at
    p0 + i*q_l and closes at c0 - i*q_r with the same anchors, periods and
    context, and an exponent at least s's.
    """
    k = ctx.k
    cf = ctx.derived(F.codes, "contexts", lambda: compute_contexts(F, ctx))
    cg = ctx.derived(G.codes, "contexts", lambda: compute_contexts(G, ctx))
    cg = {v: (q_l, q_r, e) for v, q_l, q_r, e in cg.tolist()}
    if not cg:
        return np.empty((0, 5), dtype=np.int64)
    out = []
    i = -1
    for u, q_l, q_r, e_f in cf.tolist():
        ou, cu = int(F.o[u]), int(F.c[u])
        if ou <= i:
            continue
        key = _context_key(F.codes, ou, cu, q_l, q_r)

        def partner(p: int) -> tuple[int, int] | None:
            """(v, e) of G's power at node v opening at p, if it may pair
            with u's."""
            v = int(G.node_at[p])
            if v not in cg:
                return None
            s_l, s_r, e_g = cg[v]
            cv = int(G.c[v])
            if (G.o[v] != p or (s_l, s_r) != (q_l, q_r) or abs(cv - cu) > 2 * k
                    or _context_key(G.codes, p, cv, q_l, q_r) != key):
                return None
            return v, e_g

        window = range(max(0, ou - 2 * k), min(2 * G.n, ou + 2 * k + 1))
        hit = next(filter(None, map(partner, window)), None)
        if hit is None:
            continue
        v, e_g = hit
        e = min(e_f, e_g)
        out.append((u, v, q_l, q_r, e))
        i = ou + (e - 8 * k) * q_l
    return np.array(out, dtype=np.int64).reshape(-1, 5)


def vert_sync_reductions(F: LabeledForest, G: LabeledForest,
                         ctx: QueryContext):
    """Cut every synchronized context power to 14k layers on both sides
    (k = ctx.k).

    Each power (u_f, u_g, q_l, q_r, e) contributes two sites, the e left
    parts from the openings, (F.o[u_f], G.o[u_g], q_l, e), and the e right
    parts up to the closings, (F.c[u_f] - q_r * e + 1, G.c[u_g] - q_r * e +
    1, q_r, e); `cut_sites` drops the first e - 14k copies of each.
    """
    u_f, u_g, q_l, q_r, e = vert_periods(F, G, ctx).T
    back = q_r * e - 1  # the e right parts end at the closing
    sites = np.concatenate([
        np.stack([F.o[u_f], G.o[u_g], q_l, e], axis=1),
        np.stack([F.c[u_f] - back, G.c[u_g] - back, q_r, e], axis=1)])
    # rows in lexicographic order, as `cut_sites` takes them
    return cut_sites(F, G, sites[np.lexsort(sites.T[::-1])], ctx)
