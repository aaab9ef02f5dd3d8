"""Karp-Rabin fingerprints modulo the Mersenne prime 2^61 - 1.

One random base is drawn per query from the engine's seeded RNG and shared
by every sequence that has to be comparable: the code strings of both
forests.  The query's context (`context.QueryContext`) holds the base, two
tables (the powers of the base and of its inverse), which `grow_powers`
extends to exactly the length asked for with one multiply-mod call, and
the prefix tables (`HashedSeq`) of its code strings.  A prefix table
weighs each code by the power of the base that counts the codes after it,
so it is one multiply-mod and one sum; a substring's fingerprint then
takes one subtraction and one multiply by an inverse power.

Tables and queries are vectorized with a 128-bit-safe uint64 multiply-mod
that works in place on a few buffers; sums mod 2^61-1 add the 32-bit halves
of their terms separately, then fold them.  The multiply-mod is the one
routine that works in blocks: it computes its flattened output _ROW =
8,192 entries at a time, so its up to six temporaries (the operands'
halves and two partial products) stay 64 KiB long and are reused from the
heap; over a whole long array they would be served by fresh mappings that
page-fault on first touch, several times slower.  Every other pass runs
over the whole array at once.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .context import QueryContext

M61 = (1 << 61) - 1
_MASK32 = (1 << 32) - 1
_U61 = np.uint64(M61)
_ROW = 1 << 13  # entries per block of the multiply-mod: 64 KiB of uint64


def _reduce_once(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """x - M61 where x >= M61, in place (x below 2*M61 is then reduced).

    Below M61, x - M61 wraps past x, so the smaller of the two is the
    reduced value: two plain passes, with `t` (if given) as scratch, where
    a masked subtract is several times slower.
    """
    return np.minimum(x, np.subtract(x, _U61, out=t), out=x)


def _fold(x: np.ndarray) -> np.ndarray:
    """x mod 2^61-1 in place, for any uint64 x (2^61 = 1 mod 2^61-1)."""
    hi = x >> np.uint64(61)
    x &= _U61
    x += hi
    return _reduce_once(x, hi)


def _mulmod_block(a: np.ndarray, b: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """(a * b) mod 2^61-1 into `out`, which may be one of the operands:
    besides the operands' 32-bit halves, two temporaries of the output's
    shape hold the partial products."""
    # a*b = a_hi*b_hi*2^64 + (a_hi*b_lo + a_lo*b_hi)*2^32 + a_lo*b_lo
    # with 2^61 = 1 (mod M61): 2^64 = 8, 2^32 folded via a 29/32 split.
    a_hi = a >> np.uint64(32)
    a_lo = a & np.uint64(_MASK32)
    b_hi = b >> np.uint64(32)
    b_lo = b & np.uint64(_MASK32)
    mid = a_hi * b_lo
    t = a_lo * b_hi
    mid += t  # < 2^62
    np.multiply(a_hi, b_hi, out=out)  # < 2^58
    out <<= np.uint64(3)  # the 2^64 term, times 8
    np.right_shift(mid, np.uint64(29), out=t)  # * 2^61 == * 1
    out += t
    mid &= np.uint64((1 << 29) - 1)
    mid <<= np.uint64(32)
    out += mid
    np.multiply(a_lo, b_lo, out=mid)  # < 2^64, needs its own fold
    np.right_shift(mid, np.uint64(61), out=t)
    out += t
    mid &= _U61
    out += mid  # < 2^63
    np.right_shift(out, np.uint64(61), out=t)
    out &= _U61
    out += t
    return _reduce_once(out, t)


def mulmod_vec(a, b, out: np.ndarray | None = None) -> np.ndarray:
    """(a * b) mod 2^61-1 for uint64 operands with values < 2^61.

    The operands broadcast, so a column times a row fills a table, and one
    of them may be a scalar; `out` (contiguous) may be one of the operands.
    The flattened output is computed in blocks of _ROW entries, so every
    temporary stays 64 KiB long however long the operands are.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    shape = np.broadcast(a, b).shape
    if out is None:
        out = np.empty(shape, dtype=np.uint64)
    flat = np.reshape(out, -1, copy=False)
    # a scalar stays a scalar; an array operand is broadcast to the
    # output's shape (only if its own differs), flattened and read block by
    # block
    a, b = (x if x.ndim == 0 or x.shape == shape
            else np.broadcast_to(x, shape) for x in (a, b))
    a, b = (x if x.ndim == 0 else x.reshape(-1) for x in (a, b))
    for at in range(0, len(flat), _ROW):
        _mulmod_block(a if a.ndim == 0 else a[at:at + _ROW],
                      b if b.ndim == 0 else b[at:at + _ROW],
                      flat[at:at + _ROW])
    return out


def random_base(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 10, M61 - 2))


def sum_mod(terms: np.ndarray, add) -> np.ndarray:
    """`add` (a summing function such as np.cumsum) of uint64 terms below
    2^61, mod 2^61-1: the 32-bit halves are summed apart so that uint64 does
    not overflow, then folded: hi * 2^32 = (hi >> 29) + (hi mod 2^29) * 2^32
    mod 2^61-1."""
    lo = _fold(add(terms & np.uint64(_MASK32)))
    hi = _fold(add(terms >> np.uint64(32)))
    out = hi >> np.uint64(29)
    hi &= np.uint64((1 << 29) - 1)
    hi <<= np.uint64(32)
    out += hi
    _reduce_once(out, hi)
    out += lo
    return _reduce_once(out, lo)


def _geometric(first: int, ratio: int, m: int) -> np.ndarray:
    """first * ratio^i mod 2^61-1 for i < m, as uint64."""
    out = [first]
    for _ in range(m - 1):
        out.append(out[-1] * ratio % M61)
    return np.array(out, dtype=np.uint64)


def grow_powers(pw: np.ndarray, base: int, n: int) -> np.ndarray:
    """A power table base^0 .. base^(n-1): `pw` itself when it is long
    enough, else a new table of exactly n entries that starts with `pw`.

    The r missing entries, base^len(pw) on, are one multiply-mod call: a
    column of the powers of base^c from base^len(pw) on, times a row of
    the first c powers, with c = ceil(sqrt(r)), of which the first r
    entries are kept.
    """
    size = len(pw)
    if size >= n:
        return pw
    r = n - size
    c = math.isqrt(r - 1) + 1
    heads = _geometric(pow(base, size, M61), pow(base, c, M61), -(-r // c))
    out = np.empty(n, dtype=np.uint64)
    out[:size] = pw
    out[size:] = mulmod_vec(heads[:, None], _geometric(1, base, c)).ravel()[:r]
    return out


class HashedSeq:
    """Prefix-hash table over one integer sequence; O(1) substring queries.

    P[i] = sum_{j<i} digit_j * base^(n-1-j), with digit_j = code_j + 1: the
    digits of all codes, folded, weighed by the reversed power table in one
    multiply-mod and summed by one modular cumsum.  The table keeps views
    of the first n + 1 powers and inverse powers of the query context
    `ctx`, not the context: a context and its tables form no reference
    cycle, so they are freed as soon as the query drops it.
    """

    def __init__(self, codes: np.ndarray, ctx: QueryContext):
        self.n = n = len(codes)
        self.pw = pw = ctx.powers(n + 1)
        self.ipw = ctx.inverse_powers(n + 1)
        terms = np.asarray(codes).astype(np.uint64)
        terms += np.uint64(1)
        _fold(terms)
        mulmod_vec(terms, pw[:n][::-1], out=terms)
        self.P = np.zeros(n + 1, dtype=np.uint64)
        self.P[1:] = sum_mod(terms, np.cumsum)

    def substring_vec(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Fingerprints of positions [i..j) per pair, sum_{i<=t<j} digit_t *
        base^(j-1-t) = (P[j] - P[i]) * base^-(n-j); empty ranges hash to 0.
        One subtraction pass over all pairs, then one multiply-mod by
        their inverse powers."""
        sub = self.P[i]
        np.subtract(_U61, sub, out=sub)
        sub += self.P[j]
        _reduce_once(sub)
        return mulmod_vec(sub, self.ipw[self.n - j], out=sub)
