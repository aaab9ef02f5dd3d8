"""Joint relabelings of two forests: look-ahead and compatibility refinement.

A joint labeling is a pair of per-forest symbol arrays drawn from one shared
class space.  Look-ahead refinement gives two nodes the same class exactly
when their depth-limited labeled subtrees print the same string (realized by
Karp-Rabin fingerprints of fragment concatenations, one shared random base;
the fragments are cut at each node's descendants d levels below, found for all
nodes at once by one sort and one binary search, `forest.last_at_level`);
compatibility refinement merges nodes reachable through chains of
cross-forest pairs whose parenthesis positions lie within a window w.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ContractError
from .forest import LabeledForest, OPEN, last_at_level
from .hashing import M61, HashedSeq, concat_fp, mulmod_vec


@dataclass(frozen=True)
class JointLabeling:
    """Class id per node for forest F (`f`) and forest G (`g`)."""

    f: np.ndarray
    g: np.ndarray

    @staticmethod
    def base(F: LabeledForest, G: LabeledForest) -> "JointLabeling":
        return JointLabeling(F.labels.copy(), G.labels.copy())

    def classes(self) -> int:
        both = np.concatenate([self.f, self.g])
        return len(np.unique(both)) if len(both) else 0


def refines(fine: JointLabeling, coarse: JointLabeling) -> bool:
    """True iff equal `fine` classes always imply equal `coarse` classes."""
    fv = np.concatenate([fine.f, fine.g])
    cv = np.concatenate([coarse.f, coarse.g])
    if len(fv) == 0:
        return True
    order = np.argsort(fv, kind="stable")
    fv, cv = fv[order], cv[order]
    same_fine = fv[1:] == fv[:-1]
    return bool((cv[1:][same_fine] == cv[:-1][same_fine]).all())


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


def _subtree_fingerprints(F: LabeledForest, codes: np.ndarray, d: int,
                          base: int) -> np.ndarray:
    """fp of the depth-<d trimmed subtree print, per node."""
    hs = HashedSeq(codes, base)
    n = F.n
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    owner, member = _level_descendant_cuts(F, d)
    fp = np.zeros(n, dtype=np.uint64)
    if len(owner) == 0:
        # no cuts anywhere: the trimmed subtree is the whole subtree
        return hs.substring_vec(F.o, F.c + 1)
    has_cut = np.zeros(n, dtype=bool)
    has_cut[owner] = True
    plain = np.flatnonzero(~has_cut)
    fp[plain] = hs.substring_vec(F.o[plain], F.c[plain] + 1)
    o = F.o
    c = F.c
    bounds = np.searchsorted(owner, np.arange(n + 1))
    counts = np.diff(bounds)
    single = np.flatnonzero(counts == 1)
    if len(single):
        # one cut: two fragments, composed with one vectorized concat
        wnode = member[bounds[single]]
        a = hs.substring_vec(o[single], o[wnode])
        b = hs.substring_vec(c[wnode] + 1, c[single] + 1)
        blen = (c[single] + 1) - (c[wnode] + 1)
        fp[single] = (mulmod_vec(a, hs.pw[blen]) + b) % np.uint64(M61)
    for v in np.flatnonzero(counts >= 2).tolist():
        cuts = member[bounds[v]:bounds[v + 1]]
        acc, acc_len = 0, 0
        at = int(o[v])
        for wnode in cuts.tolist():
            frag_end = int(o[wnode])
            acc = concat_fp(hs.base, acc, acc_len,
                            hs.substring(at, frag_end), frag_end - at)
            acc_len += frag_end - at
            at = int(c[wnode]) + 1
        frag_end = int(c[v]) + 1
        acc = concat_fp(hs.base, acc, acc_len,
                        hs.substring(at, frag_end), frag_end - at)
        acc_len += frag_end - at
        fp[v] = acc
    return fp


def _dense_joint(fp_f: np.ndarray, fp_g: np.ndarray) -> JointLabeling:
    both = np.concatenate([fp_f, fp_g])
    _, inverse = np.unique(both, return_inverse=True)
    return JointLabeling(inverse[:len(fp_f)].astype(np.int64),
                         inverse[len(fp_f):].astype(np.int64))


def lookahead_refine(F: LabeledForest, G: LabeledForest, lab: JointLabeling,
                     d: int, base: int, audit: bool = False) -> JointLabeling:
    """Depth-d look-ahead refinement of `lab` (classes match iff the trimmed
    labeled subtree prints agree, up to fingerprint collision).

    d must be >= 1; the single shared random `base` makes classes comparable
    across both forests.  With audit=True an independent second fingerprint
    recomputes the partition and any discrepancy raises.
    """
    if d < 1:
        raise ValueError("look-ahead depth must be >= 1")
    codes_f = F.paren(lab.f).codes
    codes_g = G.paren(lab.g).codes
    out = _dense_joint(_subtree_fingerprints(F, codes_f, d, base),
                       _subtree_fingerprints(G, codes_g, d, base))
    if audit:
        base2 = (base * base + 0x9E3779B97F4A7C15) % M61
        base2 = max(base2, 1 << 10)
        out2 = _dense_joint(_subtree_fingerprints(F, codes_f, d, base2),
                            _subtree_fingerprints(G, codes_g, d, base2))
        if not (refines(out, out2) and refines(out2, out)):
            raise AssertionError("fingerprint collision detected in look-ahead classes")
    if not refines(out, lab):
        raise ContractError("look-ahead classes do not refine the input labeling")
    return out


def compat_refine(F: LabeledForest, G: LabeledForest, lab: JointLabeling,
                  w: int) -> JointLabeling:
    """Connected components of the transitive closure of w-compatibility.

    Nodes u in F and v in G are w-compatible when they share a class and both
    parenthesis positions differ by at most w.
    """
    nf, ng = F.n, G.n
    total = nf + ng
    if total == 0:
        return JointLabeling(lab.f.copy(), lab.g.copy())
    rows = [np.arange(total, dtype=np.int64)]
    cols = [np.arange(total, dtype=np.int64)]
    node_at_g = G.position_index().node_at if ng else None
    mg = 2 * ng
    for off in range(-w, w + 1):
        if nf == 0 or ng == 0:
            break
        pos = F.o + off
        ok = (pos >= 0) & (pos < mg)
        u = np.flatnonzero(ok)
        gpos = pos[u]
        is_open = (G.codes[gpos] & 1) == OPEN
        u = u[is_open]
        v = node_at_g[gpos[is_open]]
        good = (lab.f[u] == lab.g[v]) & (np.abs(F.c[u] - G.c[v]) <= w)
        u, v = u[good], v[good]
        rows.append(u)
        cols.append(v + nf)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    graph = coo_matrix((np.ones(len(r), dtype=np.int8), (r, c)),
                       shape=(total, total))
    _, comp = connected_components(graph, directed=False)
    comp = comp.astype(np.int64)
    out = JointLabeling(comp[:nf], comp[nf:])
    if not refines(out, lab):
        raise ContractError("compatibility classes do not refine the input labeling")
    return out
