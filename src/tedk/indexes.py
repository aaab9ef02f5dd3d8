"""Maximal runs of a code string.

Runs are found by a per-period vectorized scan: for each period p the
positions with S[i] == S[i+p] form stretches, every stretch of length >= p
yields a maximal p-periodic interval, and deduplicating identical intervals
while keeping the smallest detected period gives exactly the runs (for an
interval of exponent >= 2 the smallest period divides every other detected
period, so it is found at its own scan step).  The reduction pipeline only
ever needs periods up to 4k, where this is O(nk) on numpy arrays.
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

