"""String alignments: evaluation, banded greedy search, alignment algebra.

An alignment is the monotone sequence of index pairs (x_t, y_t) from (0,0) to
(|X|,|Y|) with unit steps.  The bounded search is the diagonal-band variant of
the k-differences wavefront: for each cost level and each diagonal in
[-w..w] it keeps the furthest reachable row, extended by exact longest common
extensions.  Witnesses are reconstructed from the recorded predecessor choice
(deletion preferred over insertion over substitution, so output is
deterministic) and are always greedy: every edit sits at a post-slide
mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedAlignmentError, NoAlignmentError
from .forest import LabeledForest, ParenSeq

_NEG = -(1 << 60)


def as_codes(seq) -> np.ndarray:
    """Accept ParenSeq, numpy arrays, lists, or plain strings."""
    if isinstance(seq, ParenSeq):
        return seq.codes
    if isinstance(seq, str):
        return np.frombuffer(seq.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    return np.asarray(seq, dtype=np.int64)


class Alignment:
    """Monotone pair sequence; stored as an (m+1, 2) int64 array."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: np.ndarray):
        self.pairs = np.asarray(pairs, dtype=np.int64)
        if self.pairs.ndim != 2 or self.pairs.shape[1] != 2:
            raise MalformedAlignmentError("pairs must be an (m+1, 2) array")

    @staticmethod
    def identity(n: int) -> "Alignment":
        r = np.arange(n + 1, dtype=np.int64)
        return Alignment(np.stack([r, r], axis=1))

    @property
    def xs(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def ys(self) -> np.ndarray:
        return self.pairs[:, 1]

    def check_valid(self, nx: int, ny: int) -> None:
        p = self.pairs
        if len(p) == 0 or p[0, 0] != 0 or p[0, 1] != 0:
            raise MalformedAlignmentError("alignment must start at (0,0)")
        if p[-1, 0] != nx or p[-1, 1] != ny:
            raise MalformedAlignmentError("alignment must end at (|X|,|Y|)")
        dx = np.diff(p[:, 0])
        dy = np.diff(p[:, 1])
        ok = ((dx >= 0) & (dy >= 0) & (dx <= 1) & (dy <= 1) & (dx + dy >= 1))
        if not ok.all():
            raise MalformedAlignmentError("steps must increment x, y, or both by 1")

    def width(self) -> int:
        if len(self.pairs) == 0:
            return 0
        return int(np.abs(self.pairs[:, 0] - self.pairs[:, 1]).max())

    def pair_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.pairs.tolist()))

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Alignment):
            return NotImplemented
        return bool(np.array_equal(self.pairs, other.pairs))

    def __repr__(self) -> str:
        return f"Alignment(m={len(self.pairs) - 1})"


@dataclass
class AlignmentStats:
    cost: int
    width: int
    matches: np.ndarray      # (m, 2) pairs (x_t, y_t) that are matches
    breakpoints: np.ndarray  # the remaining elements

    def match_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.matches.tolist()))

    def breakpoint_set(self) -> set[tuple[int, int]]:
        return set(map(tuple, self.breakpoints.tolist()))


def _match_mask(A: Alignment, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """mask over elements t in [0..m): step t is a match."""
    p = A.pairs
    dx = np.diff(p[:, 0])
    dy = np.diff(p[:, 1])
    diag = (dx == 1) & (dy == 1)
    xs = p[:-1, 0]
    ys = p[:-1, 1]
    eq = np.zeros(len(xs), dtype=bool)
    if diag.any():
        eq[diag] = X[xs[diag]] == Y[ys[diag]]
    return diag & eq


def eval_alignment(A: Alignment, X, Y) -> AlignmentStats:
    """Cost, width, matches and breakpoints of A on X, Y."""
    X, Y = as_codes(X), as_codes(Y)
    A.check_valid(len(X), len(Y))
    mask = _match_mask(A, X, Y)
    m = len(A.pairs) - 1
    cost = int(m - mask.sum())
    full_mask = np.concatenate([mask, [False]])  # the final element is a breakpoint
    return AlignmentStats(cost=cost, width=A.width(),
                          matches=A.pairs[:-1][mask],
                          breakpoints=A.pairs[~full_mask])


def is_greedy(A: Alignment, X, Y) -> bool:
    """True iff every interior breakpoint sits on unequal characters."""
    X, Y = as_codes(X), as_codes(Y)
    stats = eval_alignment(A, X, Y)
    b = stats.breakpoints
    interior = (b[:, 0] != len(X)) & (b[:, 1] != len(Y))
    b = b[interior]
    if len(b) == 0:
        return True
    return bool((X[b[:, 0]] != Y[b[:, 1]]).all())


def _lce(X: np.ndarray, Y: np.ndarray, Xl: list, Yl: list, x: int, y: int) -> int:
    """Exact longest common extension.

    Most wavefront queries terminate within a few characters, so the first
    handful is compared through plain list indexing; long extensions fall
    back to doubling vector compares.
    """
    n = min(len(Xl) - x, len(Yl) - y)
    t = 0
    while t < n and t < 8:
        if Xl[x + t] != Yl[y + t]:
            return t
        t += 1
    chunk = 128
    while t < n:
        step = min(chunk, n - t)
        neq = X[x + t:x + t + step] != Y[y + t:y + t + step]
        hit = np.flatnonzero(neq)
        if len(hit):
            return t + int(hit[0])
        t += step
        chunk = min(chunk * 2, 1 << 20)
    return n


def _mismatch_run(X: np.ndarray, Y: np.ndarray, row: list, w: int,
                  most: int) -> int:
    """Largest t <= most such that X[x + s] != Y[x + j + s] for every step
    s in 1..t and every diagonal j in [-w..w], where x = row[j + w]."""
    t = 0
    chunk = 16
    while t < most:
        step = min(chunk, most - t)
        ok = np.ones(step, dtype=bool)
        for j in range(-w, w + 1):
            x = row[j + w] + t + 1
            ok &= X[x:x + step] != Y[x + j:x + j + step]
        bad = np.flatnonzero(~ok)
        if len(bad):
            return t + int(bad[0])
        t += step
        chunk *= 2
    return t


def greedy_bounded_align(X, Y, k: int, w: int) -> Alignment | None:
    """A greedy witness of cost <= k and width <= w, or None if none exists.

    Diagonal j = y - x holds the furthest reachable x per cost level; edit
    candidates that would cross a sequence boundary are invalid rather than
    clamped, and a free "stay" candidate keeps each column monotone, so the
    traceback can follow exact furthest values.  Deterministic: on ties the
    predecessor preference is deletion, then insertion, then substitution.

    Away from the sequence ends, the next cost level is the current one
    advanced by the same relative choices, so its values depend only on the
    current values up to a common shift.  When a level is its predecessor
    shifted by +1 and slid nowhere, the following levels are it shifted by
    +1, +2, ... with the same choices for as long as every diagonal keeps
    meeting a mismatch; such a run of levels is filled in directly.  Long
    runs of mismatches (a relabeled ancestor chain) then cost little per
    level.
    """
    X, Y = as_codes(X), as_codes(Y)
    if w < 0 or k < w:
        raise ValueError("need 0 <= w <= k")
    nx, ny = len(X), len(Y)
    delta = ny - nx
    if abs(delta) > w:
        return None
    Xl, Yl = X.tolist(), Y.tolist()
    k_eff = min(k, nx + ny)
    width = 2 * w + 1
    end = min(nx, ny - w)  # least sequence limit over the band
    reach: list[list[int]] = []   # furthest x per diagonal, NEG if unreachable
    starts: list[list[int]] = []  # pre-slide x of the recorded predecessor
    ops: list[list[int]] = []     # 0 stay/seed, 1 del, 2 ins, 3 sub
    shift: list[int] = []         # level i's values are reach[i] + shift[i]
    found = -1
    i = 0
    while i <= k_eff:
        row = [_NEG] * width
        row_s = [_NEG] * width
        row_op = [0] * width
        span = min(i, w)
        prev = reach[i - 1] if i else None
        for j in range(-span, span + 1):
            limit = ny - j if ny - j < nx else nx
            if i == 0:
                s, op = 0, 0
            else:
                s, op = _NEG, 0
                c = prev[j + 1 + w] + 1 if j + 1 <= w else _NEG      # deletion
                if c > s and 0 < c <= limit:
                    s, op = c, 1
                c = prev[j - 1 + w] if j - 1 >= -w else _NEG         # insertion
                if c > s and 0 <= c <= limit:
                    s, op = c, 2
                c = prev[j + w] + 1                                  # substitution
                if c > s and 0 < c <= limit:
                    s, op = c, 3
                stay = prev[j + w]
                if stay >= s:  # already at least as far with fewer edits
                    s, op = stay, 0
                if s < 0:
                    continue
            x = s + _lce(X, Y, Xl, Yl, s, s + j) if s < limit else s
            row[j + w] = x
            row_s[j + w] = s
            row_op[j + w] = op
        reach.append(row)
        starts.append(row_s)
        ops.append(row_op)
        shift.append(0)
        if row[delta + w] >= nx:
            found = i
            break
        if (i and row == row_s and min(prev) >= 0
                and all(x - p == 1 for x, p in zip(row, prev))):
            run = _mismatch_run(X, Y, row, w,
                                min(k_eff - i, end - max(row) - 1))
            if run:
                # levels i+1 .. i+run-1 share this row's lists with a
                # shift; the last one is built, as the next level reads it
                reach.extend([row] * (run - 1))
                starts.extend([row] * (run - 1))
                ops.extend([row_op] * run)
                shift.extend(range(1, run))
                last = [x + run for x in row]
                reach.append(last)
                starts.append(last)
                shift.append(0)
                i += run
        i += 1
    if found < 0:
        return None

    # traceback along exact furthest values (invariant: x == reach[i][j]).
    # Each visited cell contributes the diagonal segment [s..x]; the edit
    # step between consecutive cells is exactly the one-unit gap between
    # segment endpoints, so concatenating the segments yields the alignment.
    # A substitution inside a run of shifted levels leads to the same
    # choice on the level below, so the path goes straight down the diagonal
    # to the level the run was built from, as one segment.
    descs: list[tuple[int, int, int]] = []  # (s, x, j), collected backwards
    i, j, x = found, delta, nx
    while True:
        while i > 0 and reach[i - 1][j + w] + shift[i - 1] >= x:
            i -= 1
        if shift[i] and ops[i][j + w] == 3:
            i -= shift[i]
            s = reach[i][j + w] + 1
            descs.append((s, x, j))
            x = s - 1
            continue
        s = starts[i][j + w] + shift[i]
        descs.append((s, x, j))
        x = s
        if i == 0:
            break
        op = ops[i][j + w]
        if op == 1:      # deletion of X[x-1], predecessor on diagonal j+1
            i, j, x = i - 1, j + 1, x - 1
        elif op == 2:    # insertion of Y[x+j-1], predecessor on diagonal j-1
            i, j = i - 1, j - 1
        else:            # substitution at (x-1, x+j-1)
            i, x = i - 1, x - 1
    a, b, jj = np.array(descs[::-1], dtype=np.int64).T
    lens = b - a + 1
    firsts = np.cumsum(lens) - lens  # output index of each segment's start
    xs = np.arange(int(lens.sum()), dtype=np.int64)
    xs += np.repeat(a - firsts, lens)
    ys = xs + np.repeat(jj, lens)
    return Alignment(np.stack([xs, ys], axis=1))


def is_tree_alignment(A: Alignment, F: LabeledForest, G: LabeledForest) -> bool:
    """Check the per-node consistency conditions of a tree alignment."""
    X, Y = F.paren().codes, G.paren().codes
    A.check_valid(len(X), len(Y))
    p = A.pairs
    dx = np.diff(p[:, 0])
    dy = np.diff(p[:, 1])
    diag = (dx == 1) & (dy == 1)
    x_to_y = np.full(len(X), -1, dtype=np.int64)
    y_to_x = np.full(len(Y), -1, dtype=np.int64)
    x_to_y[p[:-1, 0][diag]] = p[:-1, 1][diag]
    y_to_x[p[:-1, 1][diag]] = p[:-1, 0][diag]

    def side_ok(H_from, H_to, pos_map) -> bool:
        yo = pos_map[H_from.o]
        yc = pos_map[H_from.c]
        both_deleted = (yo < 0) & (yc < 0)
        aligned = (yo >= 0) & (yc >= 0)
        if not (both_deleted | aligned).all():
            return False
        if not aligned.any():
            return True
        node_at = H_to.position_index().node_at
        v = node_at[np.maximum(yo[aligned], 0)]
        ok = (H_to.o[v] == yo[aligned]) & (H_to.c[v] == yc[aligned])
        return bool(ok.all())

    return side_ok(F, G, x_to_y) and side_ok(G, F, y_to_x)


def sym_diff_size(A: Alignment, B: Alignment) -> int:
    """|A triangle B| over the element pair sets."""
    big = 1 << 32
    a = A.pairs[:, 0] * big + A.pairs[:, 1]
    b = B.pairs[:, 0] * big + B.pairs[:, 1]
    inter = len(np.intersect1d(a, b))
    return len(a) + len(b) - 2 * inter


def common_matching_core(X, Y, k: int, w: int, e: int) -> np.ndarray:
    """Match pairs shared by every greedy (cost<=k, width<=w) alignment.

    Builds one witness and drops the first 7*w*k*e matches of each maximal
    perfectly matched fragment.  Raises NoAlignmentError when no alignment
    fits the budget.  Caller guarantees the periodicity precondition.
    """
    X, Y = as_codes(X), as_codes(Y)
    A = greedy_bounded_align(X, Y, k, w)
    if A is None:
        raise NoAlignmentError(f"no alignment with cost <= {k}, width <= {w}")
    trim = 7 * w * k * e
    mask = _match_mask(A, X, Y)
    if not mask.any():
        return np.empty((0, 2), dtype=np.int64)
    idx = np.arange(len(mask), dtype=np.int64)
    run_start = np.maximum.accumulate(np.where(~mask, idx + 1, 0))
    # position of t inside its run of consecutive matches
    within = idx - run_start
    keep = mask & (within >= trim)
    return A.pairs[:-1][keep]
