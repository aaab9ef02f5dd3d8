"""Shared indexes: maximal runs and orthogonal range successor.

Runs are found by a per-period vectorized scan: for each period p the
positions with S[i] == S[i+p] form stretches, every stretch of length >= p
yields a maximal p-periodic interval, and deduplicating identical intervals
while keeping the smallest detected period gives exactly the runs (for an
interval of exponent >= 2 the smallest period divides every other detected
period, so it is found at its own scan step).  The reduction pipeline only
ever needs periods up to 4k, where this is O(nk) on numpy arrays.

The orthogonal range successor keeps each key's points sorted by x and scans
a query's x-window; its one caller asks only for windows of at most 4k+1
points, so a query costs O(k) plus two binary searches, with no tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, order=True)
class Run:
    """Maximal periodic substring S[i..j) with smallest period p."""

    i: int
    j: int
    p: int


def _stretches(mask: np.ndarray):
    """(start, length) pairs of maximal True stretches of a boolean array."""
    if len(mask) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    diff = np.diff(mask.astype(np.int8))
    starts = np.flatnonzero(diff == 1) + 1
    ends = np.flatnonzero(diff == -1) + 1
    if mask[0]:
        starts = np.concatenate(([0], starts))
    if mask[-1]:
        ends = np.concatenate((ends, [len(mask)]))
    return starts.astype(np.int64), (ends - starts).astype(np.int64)


def compute_runs(S: np.ndarray, max_period: int | None = None,
                 min_exponent: float = 2.0) -> list[Run]:
    """All runs of S, optionally restricted to period <= max_period and
    exponent >= min_exponent.

    The exponent filter is safe to apply per scan period: an interval whose
    true period q is smaller than the scanned p has the same maximal extent
    at the scan step for q, where its full exponent is measured.
    """
    S = np.asarray(S)
    n = len(S)
    limit = n // 2 if max_period is None else min(max_period, n // 2)
    min_exponent = max(min_exponent, 2.0)
    best: dict[tuple[int, int], int] = {}
    for p in range(1, limit + 1):
        eq = S[:-p] == S[p:]
        starts, lengths = _stretches(eq)
        sel = lengths + p >= min_exponent * p
        for a, ln in zip(starts[sel].tolist(), lengths[sel].tolist()):
            key = (a, a + ln + p)
            q = best.get(key)
            if q is None or p < q:
                best[key] = p
    runs = [Run(i, j, p) for (i, j), p in best.items()]
    runs.sort()
    return runs


class OrsIndex:
    """Orthogonal range successor over per-context point sets.

    Each key owns points (x=open position, y=close position) with attached
    node ids and payloads, kept sorted by x.  A query cuts out the x-window
    with two binary searches and returns the min-y point of that window
    inside the y-window, or None when the key is absent or no point fits.
    The cost is the window's size: `vertical.vert_periods` puts one point per
    node of G, so the x values are distinct opening positions and its
    x-windows of width 4k+1 hold at most 4k+1 points.
    """

    def __init__(self) -> None:
        self._groups: dict = {}

    @staticmethod
    def build(keys, xs, ys, nodes, payloads) -> "OrsIndex":
        idx = OrsIndex()
        xs = np.asarray(xs, dtype=np.int64)
        ys = np.asarray(ys, dtype=np.int64)
        nodes = np.asarray(nodes, dtype=np.int64)
        payloads = np.asarray(payloads, dtype=np.int64)
        by_key: dict = {}
        for t, key in enumerate(keys):
            by_key.setdefault(key, []).append(t)
        for key, members in by_key.items():
            sel = np.asarray(members, dtype=np.int64)
            sel = sel[np.argsort(xs[sel], kind="stable")]
            idx._groups[key] = (xs[sel], ys[sel], nodes[sel], payloads[sel])
        return idx

    def query(self, key, x_lo: int, x_hi: int, y_lo: int, y_hi: int):
        """(node, payload) of the min-y point in the rectangle, or None."""
        group = self._groups.get(key)
        if group is None:
            return None
        xs, ys, nodes, payloads = group
        lo = int(np.searchsorted(xs, x_lo, side="left"))
        hi = int(np.searchsorted(xs, x_hi, side="right"))
        win = ys[lo:hi]
        fits = np.flatnonzero((win >= y_lo) & (win <= y_hi))
        if len(fits) == 0:
            return None
        at = lo + int(fits[np.argmin(win[fits])])
        return int(nodes[at]), int(payloads[at])
