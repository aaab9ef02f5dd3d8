"""Horizontal periodicity reduction: repeated sibling-forest blocks.

A balanced small-period high-exponent run that occurs at nearby positions in
both parenthesis sequences is a repeated block of sibling subtrees; cutting
both occurrences down to 14k repetitions preserves every distance up to k.
The detection pass merges the two filtered run lists by end position and
checks period equality up to rotation plus rotatability into a balanced
string.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .forest import OPEN, LabeledForest
from .indexes import Run, compute_runs


@dataclass(frozen=True)
class HSyncOcc:
    """Synchronized horizontal occurrence: start (max of the two run starts),
    period length, usable exponent (already reduced by 2k)."""

    i: int
    p: int
    e: int


def filter_runs(codes: np.ndarray, k: int) -> list[Run]:
    """Runs with period <= 4k and exponent >= 16k, sorted by start."""
    out = [r for r in compute_runs(codes, max_period=4 * k, min_exponent=16 * k)
           if r.j - r.i >= 16 * k * r.p]
    out.sort(key=lambda r: r.i)
    return out


def min_balance_rotations(codes: np.ndarray) -> int | None:
    """Minimal forward rotations making the string a balanced,
    label-consistent parenthesis sequence; None if impossible.

    One stack pass finds the last closing parenthesis that would be
    unmatched; rotating just past it is the only candidate.
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = len(codes)
    if n == 0:
        return 0
    last_unmatched_close = -1
    depth = 0
    for p in range(n):
        if codes[p] & 1 == OPEN:
            depth += 1
        elif depth == 0:
            last_unmatched_close = p
        else:
            depth -= 1
    r = last_unmatched_close + 1
    rotated = np.concatenate([codes[r:], codes[:r]])
    sides = rotated & 1
    delta = 1 - 2 * sides
    E = np.cumsum(delta)
    if E[-1] != 0 or E.min() < 0:
        return None
    level = E + sides
    order = np.argsort(level, kind="stable")
    po, pc = order[0::2], order[1::2]
    if not np.array_equal(rotated[po] >> 1, rotated[pc] >> 1):
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


def sync_occurrences(F: LabeledForest, G: LabeledForest, k: int) -> list[HSyncOcc]:
    """Merge-scan the filtered run lists for balanced synchronized periods."""
    sf = F.paren().codes
    sg = G.paren().codes
    rf = filter_runs(sf, k)
    rg = filter_runs(sg, k)
    out: list[HSyncOcc] = []
    lf = lg = 0
    while lf < len(rf) and lg < len(rg):
        a, b = rf[lf], rg[lg]
        overlap = min(a.j, b.j) - max(a.i, b.i)
        e = overlap // a.p if overlap > 0 else -1
        if (e >= 16 * k and a.p == b.p
                and _rotation_match(sf[a.i:a.i + a.p], sg[b.i:b.i + b.p])
                and min_balance_rotations(sf[a.i:a.i + a.p]) is not None):
            out.append(HSyncOcc(max(a.i, b.i), a.p, e - 2 * k))
        if a.j < b.j:
            lf += 1
        else:
            lg += 1
    return out


def sync_reductions(F: LabeledForest, G: LabeledForest, k: int):
    """Cut every synchronized horizontal occurrence to 14k repetitions.

    Returns (F', G') with ted_{<=k} unchanged and no balanced string Q of
    length <= 4k whose (18k)-th power has 2k-synchronized occurrences.
    """
    occs = sync_occurrences(F, G, k)
    sf = F.paren().codes
    sg = G.paren().codes
    parts_f: list[np.ndarray] = []
    parts_g: list[np.ndarray] = []
    i = 0
    for occ in occs:
        if occ.e < 14 * k:
            raise ContractError("horizontal reduction site below 14k repetitions")
        if occ.i < i:
            raise ContractError("horizontal reduction sites must not overlap")
        parts_f.append(sf[i:occ.i])
        parts_g.append(sg[i:occ.i])
        i = occ.i + occ.p * (occ.e - 14 * k)
    parts_f.append(sf[i:])
    parts_g.append(sg[i:])
    F2 = LabeledForest.from_codes(np.concatenate(parts_f) if parts_f else sf)
    G2 = LabeledForest.from_codes(np.concatenate(parts_g) if parts_g else sg)
    return F2, G2
