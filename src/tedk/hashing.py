"""Karp-Rabin fingerprints modulo the Mersenne prime 2^61 - 1.

One random base is drawn per run from the engine's seeded RNG and shared by
every sequence that has to be comparable (both forests, refined labelings,
context keys).  Tables and queries are vectorized with a 128-bit-safe uint64
multiply-mod; one doubling routine builds both power tables (the base and
its inverse), and sums mod 2^61-1 add the 32-bit halves of their terms
separately, then fold them.
"""

from __future__ import annotations

import numpy as np

M61 = (1 << 61) - 1
_MASK32 = (1 << 32) - 1


def mulmod_vec(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b) mod 2^61-1 for uint64 arrays with values < 2^61."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a_hi = a >> np.uint64(32)
    a_lo = a & np.uint64(_MASK32)
    b_hi = b >> np.uint64(32)
    b_lo = b & np.uint64(_MASK32)
    # a*b = a_hi*b_hi*2^64 + (a_hi*b_lo + a_lo*b_hi)*2^32 + a_lo*b_lo
    # with 2^61 = 1 (mod M61): 2^64 = 8, 2^32 folded via a 29/32 split.
    hi = a_hi * b_hi  # < 2^58
    mid = a_hi * b_lo + a_lo * b_hi  # < 2^62
    lo = a_lo * b_lo  # < 2^64, needs its own fold
    mid_hi = mid >> np.uint64(29)  # * 2^61 == * 1
    mid_lo = (mid & np.uint64((1 << 29) - 1)) << np.uint64(32)
    lo_hi = lo >> np.uint64(61)
    lo_lo = lo & np.uint64(M61)
    total = hi * np.uint64(8) + mid_hi + mid_lo + lo_hi + lo_lo
    total = (total >> np.uint64(61)) + (total & np.uint64(M61))
    total = (total >> np.uint64(61)) + (total & np.uint64(M61))
    return total - np.where(total >= np.uint64(M61), np.uint64(M61), np.uint64(0))


def random_base(rng: np.random.Generator) -> int:
    return int(rng.integers(1 << 10, M61 - 2))


def _powers(x: int, n: int) -> np.ndarray:
    """x^0, x^1, ..., x^(n-1) mod 2^61-1: each doubling step multiplies the
    filled prefix by x^size."""
    pw = np.empty(n, dtype=np.uint64)
    pw[:1] = 1
    size = 1
    while size < n:
        m = min(size, n - size)
        pw[size:size + m] = mulmod_vec(pw[:m], np.uint64(pow(x, size, M61)))
        size *= 2
    return pw


def sum_mod(terms: np.ndarray, add) -> np.ndarray:
    """`add` (a summing function such as np.cumsum) of uint64 terms below
    2^61, mod 2^61-1: the 32-bit halves are summed apart so that uint64 does
    not overflow, then folded."""
    lo = add(terms & np.uint64(_MASK32)) % np.uint64(M61)
    hi = add(terms >> np.uint64(32)) % np.uint64(M61)
    out = mulmod_vec(hi, np.uint64((1 << 32) % M61)) + lo
    return np.where(out >= np.uint64(M61), out - np.uint64(M61), out)


class HashedSeq:
    """Prefix-hash tables over one integer sequence; O(1) substring queries."""

    def __init__(self, codes: np.ndarray, base: int):
        self.n = n = len(codes)
        self.base = base % M61
        digits = (np.asarray(codes, dtype=np.uint64) + np.uint64(1)) % np.uint64(M61)
        self.pw = _powers(self.base, n + 1)
        # H[i] = hash of prefix [0..i):  sum_{j<i} digit_j * base^(i-1-j)
        # computed as cumsum(digit_j * inv^j) * base^(i-1)
        terms = mulmod_vec(digits, _powers(pow(self.base, M61 - 2, M61), n))
        H = np.zeros(n + 1, dtype=np.uint64)
        H[1:] = mulmod_vec(sum_mod(terms, np.cumsum), self.pw[:n])
        self.H = H

    def substring_vec(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Fingerprints of positions [i..j) per pair; empty ranges hash to 0."""
        hi = self.H[j]
        sub = mulmod_vec(self.H[i], self.pw[j - i])
        return (hi + (np.uint64(M61) - sub)) % np.uint64(M61)
