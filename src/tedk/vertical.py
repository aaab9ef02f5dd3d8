"""Vertical periodicity reduction: repeated context layers along a path.

A context is a split (C_L, C_R) of some tree print; its e-th power occurring
at a node means e nested layers whose flanking subtrees repeat level by
level.  Detection anchors small-period high-exponent runs (the query
context's) at each node's opening and closing parenthesis, derives the
context period from the depth deltas, clips the exponent by run lengths,
the subtree size, and the divergence point (LCA of the two run endpoints),
all in one vectorized pass over the nodes; the LCA depths come from a
binary search over level ancestors (`forest.lca_depth`), with no LCA table.
It then pairs occurrences across the forests: each F occurrence takes the
outermost equal-context G occurrence among those whose opening and closing
positions both lie within 2k of its own.  The candidates are read straight
off G's parenthesis array, at the at most 4k+1 positions of the opening
window (`LabeledForest.node_at`), so no index is built.  Reduction turns
each pair into two sites, the left parts from the openings and the right
parts up to the closings, and cuts them down to 14k layers on both sides at
once with the horizontal reduction's `cut_sites`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError
from .forest import LabeledForest, lca_depth
from .horizontal import cut_sites

if TYPE_CHECKING:
    from .context import QueryContext


@dataclass(frozen=True)
class ContextOcc:
    """Maximal context power at node u: |C_L|=q_l, |C_R|=q_r, exponent e."""

    u: int
    q_l: int
    q_r: int
    e: int


@dataclass(frozen=True)
class VertOcc:
    """Synchronized context power at nodes (u_f, u_g), common exponent e."""

    u_f: int
    u_g: int
    q_l: int
    q_r: int
    e: int


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
    for r in ctx.runs(codes):
        span = np.arange(r.i, r.j)
        opens = span[is_open[r.i:r.j]]
        good = opens[(r.j - opens) >= need * r.p]
        if len(good):
            if (end_arr[good] != good).any():
                raise ContractError("position anchored twice")
            q_arr[good] = r.p
            end_arr[good] = r.j
        closes = span[~is_open[r.i:r.j]]
        good = closes[(closes - (r.i - 1)) >= need * r.p]
        if len(good):
            if (end_arr[good] != good).any():
                raise ContractError("position anchored twice")
            q_arr[good] = r.p
            end_arr[good] = r.i - 1
    return q_arr, end_arr


def compute_contexts(F: LabeledForest, ctx: QueryContext) -> list[ContextOcc]:
    """Maximal small context powers per node, in opening-position order.

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
        return []
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
    keep = e >= 16 * k
    return [ContextOcc(*t) for t in zip(u[keep].tolist(), cl_len[keep].tolist(),
                                        cr_len[keep].tolist(), e[keep].tolist())]


def _context_key(codes: np.ndarray, o: int, c: int, q_l: int, q_r: int) -> bytes:
    return codes[o:o + q_l].tobytes() + b"|" + codes[c - q_r + 1:c + 1].tobytes()


def vert_periods(F: LabeledForest, G: LabeledForest,
                 ctx: QueryContext) -> list[VertOcc]:
    """Pair context powers of F with equal-context powers of G within the
    2k-by-2k window, advancing past each hit's reduced span.

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
    cf = compute_contexts(F, ctx)
    cg = {t.u: t for t in compute_contexts(G, ctx)}
    if not cf or not cg:
        return []
    out: list[VertOcc] = []
    i = -1
    for t in cf:
        ou, cu = int(F.o[t.u]), int(F.c[t.u])
        if ou <= i:
            continue
        key = _context_key(F.codes, ou, cu, t.q_l, t.q_r)

        def partner(p: int) -> ContextOcc | None:
            """G's power opening at p, if it may pair with t."""
            s = cg.get(int(G.node_at[p]))
            if (s is None or G.o[s.u] != p or (s.q_l, s.q_r) != (t.q_l, t.q_r)
                    or abs(G.c[s.u] - cu) > 2 * k):
                return None
            return s if _context_key(G.codes, p, G.c[s.u], t.q_l,
                                     t.q_r) == key else None

        window = range(max(0, ou - 2 * k), min(2 * G.n, ou + 2 * k + 1))
        s = next(filter(None, map(partner, window)), None)
        if s is None:
            continue
        e = min(t.e, s.e)
        out.append(VertOcc(t.u, s.u, t.q_l, t.q_r, e))
        i = ou + (e - 8 * k) * t.q_l
    return out


def vert_sync_reductions(F: LabeledForest, G: LabeledForest,
                         ctx: QueryContext):
    """Cut every synchronized context power to 14k layers on both sides
    (k = ctx.k).

    Each occurrence contributes two interval reductions: the outermost
    left-part copies starting at the opening positions, and the outermost
    right-part copies ending at the closing positions.
    """
    occs = vert_periods(F, G, ctx)
    sites: list[tuple[int, int, int, int]] = []
    for t in occs:
        sites.append((int(F.o[t.u_f]), int(G.o[t.u_g]), t.q_l, t.e))
        sites.append((int(F.c[t.u_f]) - t.q_r * t.e + 1,
                      int(G.c[t.u_g]) - t.q_r * t.e + 1, t.q_r, t.e))
    sites.sort()
    return cut_sites(F, G, sites, ctx.k)
