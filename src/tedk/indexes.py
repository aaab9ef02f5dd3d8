"""Maximal runs of a code string, as an int64 array of (i, j, p) rows.

A run is a maximal periodic substring S[i..j) with smallest period p and
exponent (j - i) / p >= 2.  Runs are found by a per-period scan: for each
period p the positions with S[i] == S[i+p] form stretches, every stretch of
length >= p yields a maximal p-periodic interval, and deduplicating
identical intervals while keeping the smallest detected period gives
exactly the runs (for an interval of exponent >= 2 the smallest period
divides every other detected period, so it is found at its own scan step).

A stretch only counts when it is long enough for the exponent filter, so
each scan step looks at aligned blocks of the equality mask instead of
every stretch: a block test on a reshaped buffer finds the groups of
all-equal blocks, and one `argmin` per group side extends a group to its
stretch.  The reduction pipeline only ever needs periods up to 4k, where
this is O(nk) in a constant number of array passes per period.
"""

from __future__ import annotations

import math

import numpy as np


def _long_stretches(buf: np.ndarray, m: int, need: int):
    """(start, end) arrays of the maximal True stretches of length >= need
    in buf[:m], with need >= 1; `buf` has room for m + need // 2 entries,
    and those past m are overwritten.

    With b = (need + 1) // 2, such a stretch [a, e) holds the aligned block
    that starts first at or after a: it starts before a + b and ends by
    a + 2b - 1 <= a + need <= e.  So every kept stretch holds a whole
    all-True block.  A group of consecutive all-True blocks lies in one
    stretch, whose ends are found in the group's two neighbour blocks: each
    holds a False, or it would be in the group.
    """
    b = (need + 1) // 2
    nb = -(-m // b)
    buf[m:nb * b] = False
    blocks = buf[:nb * b].reshape(nb, b)
    full = np.concatenate(([False], blocks.all(axis=1), [False]))
    edges = np.flatnonzero(full[1:] != full[:-1])
    first, stop = edges[0::2], edges[1::2]  # each group's blocks [first, stop)
    starts = first * b
    left = first > 0
    before = blocks[first[left] - 1, ::-1]  # last False: first from the right
    starts[left] -= np.argmin(before, axis=1)
    ends = stop * b
    right = stop < nb
    ends[right] += np.argmin(blocks[stop[right]], axis=1)
    keep = ends - starts >= need
    return starts[keep], ends[keep]


def compute_runs(S: np.ndarray, max_period: int | None = None,
                 min_exponent: float = 2.0) -> np.ndarray:
    """All runs of S, optionally restricted to period <= max_period and
    exponent >= min_exponent: an (r, 3) int64 array of rows (i, j, p), the
    run S[i..j) with smallest period p, sorted.

    The exponent filter is safe to apply per scan period: an interval whose
    true period q is smaller than the scanned p has the same maximal extent
    at the scan step for q, where its full exponent is measured.  At period
    p a stretch of length ln gives exponent (ln + p) / p, so it is kept iff
    ln >= ceil(min_exponent * p) - p, an exact integer threshold.
    """
    S = np.asarray(S)
    n = len(S)
    limit = n // 2 if max_period is None else min(max_period, n // 2)
    min_exponent = max(min_exponent, 2.0)
    buf = np.empty(n + n // 2, dtype=bool)
    best: dict[tuple[int, int], int] = {}
    for p in range(1, limit + 1):
        m = n - p
        need = math.ceil(min_exponent * p) - p
        if need > m:
            break
        np.equal(S[:-p], S[p:], out=buf[:m])
        starts, ends = _long_stretches(buf, m, need)
        for key in zip(starts.tolist(), (ends + p).tolist()):
            best.setdefault(key, p)  # p ascends: the first is the smallest
    runs = sorted((i, j, p) for (i, j), p in best.items())
    return np.array(runs, dtype=np.int64).reshape(-1, 3)
