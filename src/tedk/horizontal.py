"""Horizontal periodicity reduction: repeated sibling-forest blocks.

A balanced small-period high-exponent run that occurs at nearby positions in
both parenthesis sequences is a repeated block of sibling subtrees; cutting
both occurrences down to 14k repetitions preserves every distance up to k.
The detection pass merges the two filtered run arrays (`filter_runs`, rows
(i, j, p), from the query context `context.QueryContext`) by end position
and checks period equality up to rotation plus rotatability into a balanced
string.  Each hit is a cut site, a row (at_f, at_g, length, e) of an int64
array, and `cut_sites`, shared with the vertical reduction, removes the
surplus copies of every site from both code strings in one pass and takes
both output forests from the query context.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, ParseError
from .forest import LabeledForest
from .indexes import compute_runs

if TYPE_CHECKING:
    from .context import QueryContext


def filter_runs(codes: np.ndarray, k: int) -> np.ndarray:
    """Runs with period <= 4k and exponent >= 16k: `compute_runs`' sorted
    (r, 3) int64 rows (i, j, p)."""
    return compute_runs(codes, max_period=4 * k, min_exponent=16 * k)


def min_balance_rotations(codes: np.ndarray) -> int | None:
    """Minimal forward rotations making the string a balanced,
    label-consistent parenthesis sequence; None if impossible.

    Rotating just past the first minimum of the prefix balance (0 when it
    never drops below 0) is the smallest rotation whose balance stays >= 0:
    an earlier cut leaves that minimum's unmatched close in front.  Every
    such rotation pairs the same parentheses, so the checked constructor
    `LabeledForest` on this one decides: it pairs, then tests the labels.
    """
    codes = np.asarray(codes, dtype=np.int64)
    E = np.cumsum(1 - 2 * (codes & 1))
    r = int(np.argmin(E)) + 1 if len(E) and E.min() < 0 else 0
    try:
        LabeledForest(np.concatenate([codes[r:], codes[:r]]))
    except ParseError:
        return None
    return r


def _rotation_match(X: np.ndarray, Y: np.ndarray) -> bool:
    """True iff some rotation of X equals Y (|X| == |Y|, short strings)."""
    p = len(X)
    if p != len(Y):
        return False
    XX = np.concatenate([X, X])
    for a in range(p):
        if np.array_equal(XX[a:a + p], Y):
            return True
    return False


def sync_occurrences(F: LabeledForest, G: LabeledForest,
                     ctx: QueryContext) -> np.ndarray:
    """Merge-scan the filtered run arrays for balanced synchronized periods.

    Returns an (s, 4) int64 array of cut sites (i, i, p, e - 2k): the later
    of the two run starts i, the period p, and the number e of whole periods
    in the two runs' overlap, less the 2k copies the reduction spares.
    """
    k = ctx.k
    sf = F.codes
    sg = G.codes
    rf = ctx.runs(sf).tolist()
    rg = ctx.runs(sg).tolist()
    out = []
    lf = lg = 0
    while lf < len(rf) and lg < len(rg):
        (ai, aj, p), (bi, bj, q) = rf[lf], rg[lg]
        at = max(ai, bi)
        e = (min(aj, bj) - at) // p  # <= 0 when the runs do not overlap
        if (e >= 16 * k and p == q
                and _rotation_match(sf[ai:ai + p], sg[bi:bi + p])
                and min_balance_rotations(sf[ai:ai + p]) is not None):
            out.append((at, at, p, e - 2 * k))
        if aj < bj:
            lf += 1
        else:
            lg += 1
    return np.array(out, dtype=np.int64).reshape(-1, 4)


def cut_sites(F: LabeledForest, G: LabeledForest, sites: np.ndarray,
              ctx: QueryContext):
    """Cut each site, an int64 row (at_f, at_g, length, e) of `sites`, down
    to 14k repetitions (k = ctx.k).

    A site is a block of `length` codes repeated e times from position at_f
    of F's code string and at_g of G's; the first e - 14k copies go on both
    sides.  Sites come sorted and must not overlap.  The outputs come from
    the query context (`QueryContext.forest`): a string left uncut, or G's
    equal to F's, gets the forest already built for it.
    """
    k = ctx.k
    sf = F.codes
    sg = G.codes
    parts_f: list[np.ndarray] = []
    parts_g: list[np.ndarray] = []
    i_f = i_g = 0
    for at_f, at_g, length, e in sites.tolist():
        if e < 14 * k:
            raise ContractError("reduction site below 14k repetitions")
        if at_f < i_f or at_g < i_g:
            raise ContractError("reduction sites must not overlap")
        parts_f.append(sf[i_f:at_f])
        parts_g.append(sg[i_g:at_g])
        i_f = at_f + length * (e - 14 * k)
        i_g = at_g + length * (e - 14 * k)
    parts_f.append(sf[i_f:])
    parts_g.append(sg[i_g:])
    return (ctx.forest(np.concatenate(parts_f)),
            ctx.forest(np.concatenate(parts_g)))


def sync_reductions(F: LabeledForest, G: LabeledForest, ctx: QueryContext):
    """Cut every synchronized horizontal occurrence to 14k repetitions
    (k = ctx.k).

    Returns (F', G') with ted_{<=k} unchanged and no balanced string Q of
    length <= 4k whose (18k)-th power has 2k-synchronized occurrences.
    """
    return cut_sites(F, G, sync_occurrences(F, G, ctx), ctx)
