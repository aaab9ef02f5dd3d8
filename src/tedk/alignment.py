"""String alignments: evaluation, banded greedy search, shared matches.

The strings are int64 code arrays, such as a forest's `codes` or its
`relabeled_codes` under a refined labeling; plain strings are accepted too.
An alignment is a plain (m+1, 2) int64 array: the monotone sequence of index
pairs (x_t, y_t) from (0,0) to (|X|,|Y|) with unit steps.  `eval_alignment`
validates one that comes from outside.  The bounded search is the
diagonal-band variant of the k-differences wavefront: for each cost level
and each diagonal in [-w..w] it keeps the furthest reachable row, extended
by exact longest common extensions.  Witnesses are reconstructed from the
recorded predecessor choice (deletion preferred over insertion over
substitution, so output is deterministic) and are always greedy: every edit
sits at a post-slide mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedAlignmentError, NoAlignmentError

_NEG = -(1 << 60)


def as_codes(seq) -> np.ndarray:
    """Accept numpy arrays, lists, or plain strings."""
    if isinstance(seq, str):
        return np.frombuffer(seq.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    return np.asarray(seq, dtype=np.int64)


@dataclass
class AlignmentStats:
    cost: int
    width: int
    matches: np.ndarray      # (m, 2) pairs (x_t, y_t) that are matches
    breakpoints: np.ndarray  # the remaining elements


def _match_mask(A: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """mask over elements t in [0..m): step t is a match."""
    dx = np.diff(A[:, 0])
    dy = np.diff(A[:, 1])
    diag = (dx == 1) & (dy == 1)
    xs = A[:-1, 0]
    ys = A[:-1, 1]
    eq = np.zeros(len(xs), dtype=bool)
    if diag.any():
        eq[diag] = X[xs[diag]] == Y[ys[diag]]
    return diag & eq


def eval_alignment(A: np.ndarray, X, Y) -> AlignmentStats:
    """Cost, width, matches and breakpoints of the alignment A on X, Y;
    MalformedAlignmentError unless A is an (m+1, 2) array of unit steps
    from (0,0) to (|X|,|Y|)."""
    X, Y = as_codes(X), as_codes(Y)
    A = np.asarray(A, dtype=np.int64)
    if A.ndim != 2 or A.shape[1] != 2 or len(A) == 0:
        raise MalformedAlignmentError("pairs must be an (m+1, 2) array")
    if A[0, 0] != 0 or A[0, 1] != 0:
        raise MalformedAlignmentError("alignment must start at (0,0)")
    if A[-1, 0] != len(X) or A[-1, 1] != len(Y):
        raise MalformedAlignmentError("alignment must end at (|X|,|Y|)")
    dx = np.diff(A[:, 0])
    dy = np.diff(A[:, 1])
    if not ((dx >= 0) & (dy >= 0) & (dx <= 1) & (dy <= 1) & (dx + dy >= 1)).all():
        raise MalformedAlignmentError("steps must increment x, y, or both by 1")
    mask = _match_mask(A, X, Y)
    full_mask = np.concatenate([mask, [False]])  # the final element is a breakpoint
    return AlignmentStats(cost=int(len(mask) - mask.sum()),
                          width=int(np.abs(A[:, 0] - A[:, 1]).max()),
                          matches=A[:-1][mask], breakpoints=A[~full_mask])


def is_greedy(A: np.ndarray, X, Y) -> bool:
    """True iff every interior breakpoint sits on unequal characters."""
    X, Y = as_codes(X), as_codes(Y)
    stats = eval_alignment(A, X, Y)
    b = stats.breakpoints
    interior = (b[:, 0] != len(X)) & (b[:, 1] != len(Y))
    b = b[interior]
    if len(b) == 0:
        return True
    return bool((X[b[:, 0]] != Y[b[:, 1]]).all())


def _lce(X: np.ndarray, Y: np.ndarray, Xm: memoryview, Ym: memoryview,
         x: int, y: int) -> int:
    """Exact longest common extension.

    Most wavefront queries terminate within a few characters, so the first
    handful is compared element by element through memoryviews of the two
    arrays (which index strided views too, and copy nothing); long
    extensions fall back to doubling vector compares.
    """
    n = min(len(Xm) - x, len(Ym) - y)
    t = 0
    while t < n and t < 8:
        if Xm[x + t] != Ym[y + t]:
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


def greedy_bounded_align(X, Y, k: int, w: int) -> np.ndarray | None:
    """A greedy witness of cost <= k and width <= w, or None if none exists.

    Diagonal j = y - x holds the furthest reachable x per cost level; edit
    candidates that would cross a sequence boundary are invalid rather than
    clamped, and a free "stay" candidate keeps each column monotone, so the
    traceback can follow exact furthest values.  Deterministic: on ties the
    predecessor preference is deletion, then insertion, then substitution.
    """
    X, Y = as_codes(X), as_codes(Y)
    if w < 0 or k < w:
        raise ValueError("need 0 <= w <= k")
    nx, ny = len(X), len(Y)
    delta = ny - nx
    if abs(delta) > w:
        return None
    Xm, Ym = memoryview(X), memoryview(Y)
    width = 2 * w + 1
    reach: list[list[int]] = []   # furthest x per diagonal, NEG if unreachable
    starts: list[list[int]] = []  # pre-slide x of the recorded predecessor
    ops: list[list[int]] = []     # 0 stay/seed, 1 del, 2 ins, 3 sub
    for i in range(min(k, nx + ny) + 1):
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
            x = s + _lce(X, Y, Xm, Ym, s, s + j) if s < limit else s
            row[j + w] = x
            row_s[j + w] = s
            row_op[j + w] = op
        reach.append(row)
        starts.append(row_s)
        ops.append(row_op)
        if row[delta + w] >= nx:
            break
    else:
        return None

    # traceback along exact furthest values (invariant: x == reach[i][j]).
    # Each visited cell contributes the diagonal segment [s..x]; the edit
    # step between consecutive cells is exactly the one-unit gap between
    # segment endpoints, so concatenating the segments yields the alignment.
    descs: list[tuple[int, int, int]] = []  # (s, x, j), collected backwards
    i, j, x = len(reach) - 1, delta, nx
    while True:
        while i > 0 and reach[i - 1][j + w] >= x:
            i -= 1
        s = starts[i][j + w]
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
    return np.stack([xs, ys], axis=1)


def common_matching_core(X, Y, k: int, w: int, e: int) -> np.ndarray:
    """Match pairs shared by every greedy (cost<=k, width<=w) alignment.

    Builds one witness and drops the first trim = 7*w*k*e matches of each
    maximal perfectly matched fragment.  Raises NoAlignmentError when the
    lengths differ by more than w, or when the witness search finds no
    alignment within the budget.  Caller guarantees the periodicity
    precondition.

    A fragment of consecutive matches holds at most min(|X|, |Y|) of them,
    and a match is kept only after trim earlier ones in its fragment.  So
    when min(|X|, |Y|) <= trim, every alignment's core is empty: the empty
    core is returned without building a witness, and whether the cost
    budget admits an alignment at all is left to the caller.
    """
    X, Y = as_codes(X), as_codes(Y)
    if w < 0 or k < w:
        raise ValueError("need 0 <= w <= k")
    if abs(len(X) - len(Y)) > w:
        raise NoAlignmentError(f"no alignment with width <= {w}")
    trim = 7 * w * k * e
    if min(len(X), len(Y)) <= trim:
        return np.empty((0, 2), dtype=np.int64)
    A = greedy_bounded_align(X, Y, k, w)
    if A is None:
        raise NoAlignmentError(f"no alignment with cost <= {k}, width <= {w}")
    mask = _match_mask(A, X, Y)
    idx = np.arange(len(mask), dtype=np.int64)
    run_start = np.maximum.accumulate(np.where(~mask, idx + 1, 0))
    # position of t inside its run of consecutive matches
    within = idx - run_start
    keep = mask & (within >= trim)
    return A[:-1][keep]
