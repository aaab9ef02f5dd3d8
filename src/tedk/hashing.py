"""Karp-Rabin fingerprints modulo the Mersenne prime 2^61 - 1.

One random base is drawn per run from the engine's seeded RNG and shared by
every sequence that has to be comparable (both forests, refined labelings,
context keys).  Scalar queries use exact Python integers; bulk table
construction is vectorized with a 128-bit-safe uint64 multiply-mod.
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


class HashedSeq:
    """Prefix-hash tables over one integer sequence; O(1) substring queries."""

    def __init__(self, codes: np.ndarray, base: int):
        self.n = len(codes)
        self.base = base % M61
        digits = (np.asarray(codes, dtype=np.uint64) + np.uint64(1)) % np.uint64(M61)
        n = self.n
        # powers of the base via vectorized doubling
        pw = np.empty(n + 1, dtype=np.uint64)
        pw[0] = 1
        size = 1
        while size < n + 1:
            m = min(size, n + 1 - size)
            step = mulmod_vec(pw[size - 1], np.uint64(self.base))
            pw[size:size + m] = mulmod_vec(pw[:m], step)
            size *= 2
        self.pw = pw
        # H[i] = hash of prefix [0..i):  sum_{j<i} digit_j * base^(i-1-j)
        # computed as cumsum(digit_j * inv^j) * base^(i-1), with the cumsum
        # split into 32-bit halves to stay inside uint64.
        if n:
            inv = pow(self.base, M61 - 2, M61)
            ipw = np.empty(n, dtype=np.uint64)
            ipw[0] = 1
            size = 1
            while size < n:
                m = min(size, n - size)
                ipw[size:size + m] = mulmod_vec(ipw[:m], mulmod_vec(ipw[size - 1], np.uint64(inv)))
                size *= 2
            terms = mulmod_vec(digits, ipw)
            lo = np.cumsum(terms & np.uint64(_MASK32))
            hi = np.cumsum(terms >> np.uint64(32))
            cs = (mulmod_vec(hi % np.uint64(M61), np.uint64((1 << 32) % M61))
                  + lo % np.uint64(M61))
            cs = np.where(cs >= np.uint64(M61), cs - np.uint64(M61), cs)
            H = np.empty(n + 1, dtype=np.uint64)
            H[0] = 0
            H[1:] = mulmod_vec(cs, pw[:n])
        else:
            H = np.zeros(1, dtype=np.uint64)
        self.H = H

    def substring(self, i: int, j: int) -> int:
        """Fingerprint of positions [i..j); the empty range hashes to 0."""
        hi = int(self.H[j])
        lo = int(self.H[i])
        return (hi - lo * int(self.pw[j - i])) % M61

    def substring_vec(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        hi = self.H[j]
        sub = mulmod_vec(self.H[i], self.pw[j - i])
        return (hi + (np.uint64(M61) - sub)) % np.uint64(M61)


def concat_fp(base: int, fp_a: int, len_a: int, fp_b: int, len_b: int) -> int:
    """fp(A·B) from fp(A) and fp(B): fp(A)*base^|B| + fp(B) mod 2^61-1."""
    return (fp_a * pow(base, len_b, M61) + fp_b) % M61
