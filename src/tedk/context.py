"""One query's state: its threshold, fingerprint base and per-string data.

`engine.run` makes one `QueryContext` per query and hands it to every layer
that reads a code string or builds a forest.  It owns k, the Karp-Rabin
base with two tables, of its powers and of its inverse's powers (each grown
by `hashing.grow_powers`), the run report's phase timings, and one record
for each of the latest two code strings asked about: the string's forest
(`LabeledForest.from_codes`), filtered runs (`horizontal.filter_runs`, an
int64 array of (i, j, p) rows), vertical context powers
(`vertical.compute_contexts`), prefix table (`hashing.HashedSeq`) and
look-ahead fingerprints per effective depth, the depth capped at the
forest's height (`labeling.lookahead_refine`), each made on first request.
It also keeps `joint`, the last pair of fingerprint arrays that
`lookahead_refine` ranked into classes, with their labeling: a one-entry
memo matched by array identity.

The reuse rule, for every layer: a string equal to one of the latest two
gets that string's record (`derived`).  Each pass asks for F's string, then
G's, so two records catch G's string equal to F's and a string an earlier
pass left unchanged.  Equal strings are equal forests, so a forest, and all
a forest's data that depend on its string and k alone, are reused the same
way: a rewrite (a cut, height flattening, pruning, the gadget) whose output
string equals a kept one gets the kept forest instead of pairing its
parentheses again.  `timings` counts the forests asked for as
`forests_built` and `forests_reused`, and the look-ahead fingerprints as
`fingerprints_built` and `fingerprints_reused`.  A string is matched by
identity with a kept reference to the earlier array first, then by
content, so nothing is copied and a string passed in must not change
afterwards.  Nothing is cached at module level:
the records die with the context.  With audit on, the context carries a
twin under a second base.
"""

from __future__ import annotations

import numpy as np

from .forest import LabeledForest
from .hashing import M61, HashedSeq, grow_powers
from .horizontal import filter_runs


class QueryContext:
    """Threshold k, fingerprint base with its power and inverse-power
    tables, timings, the latest two strings' records, the last class
    ranking, and with audit=True a twin under a second base."""

    def __init__(self, k: int, base: int, audit: bool = False):
        if k < 1:
            raise ValueError("threshold must be >= 1")
        self.k = k
        self.base = base % M61
        self.inv = pow(self.base, M61 - 2, M61)
        self.pw = np.ones(1, dtype=np.uint64)
        self.ipw = np.ones(1, dtype=np.uint64)
        self.timings: dict = {"forests_built": 0, "forests_reused": 0,
                              "fingerprints_built": 0,
                              "fingerprints_reused": 0}
        self._records: list[dict] = []
        # the last fingerprint pair ranked into classes, and its labeling
        self.joint: tuple | None = None
        self.audit = None
        if audit:
            self.audit = QueryContext(
                k, max((base * base + 0x9E3779B97F4A7C15) % M61, 1 << 10))

    def powers(self, n: int) -> np.ndarray:
        """base^0 .. base^(n-1), from the one growing power table."""
        self.pw = grow_powers(self.pw, self.base, n)
        return self.pw[:n]

    def inverse_powers(self, n: int) -> np.ndarray:
        """base^0 .. base^-(n-1), from the one growing inverse table."""
        self.ipw = grow_powers(self.ipw, self.inv, n)
        return self.ipw[:n]

    def _record(self, codes: np.ndarray) -> dict:
        """The record of `codes`; a new one, which replaces the older of the
        two kept, when no kept string equals it.  A kept array passed again
        is found by identity, before any comparison by content."""
        for rec in self._records:
            if rec["codes"] is codes:
                return rec
        for rec in self._records:
            if np.array_equal(rec["codes"], codes):
                return rec
        rec = {"codes": codes}
        self._records = self._records[-1:] + [rec]
        return rec

    def derived(self, codes: np.ndarray, what, make, count: str = ""):
        """Field `what` of the record of `codes`, made by `make` if absent;
        with a `count` name, counted in `timings` as `<count>_built` or
        `<count>_reused`."""
        rec = self._record(codes)
        built = what not in rec
        if built:
            rec[what] = make()
        if count:
            self.timings[count + ("_built" if built else "_reused")] += 1
        return rec[what]

    def forest(self, codes: np.ndarray) -> LabeledForest:
        """The forest of `codes`, built by `LabeledForest.from_codes` (which
        raises on a malformed string) unless an equal string's record holds
        it already; counted in `timings` as built or reused."""
        return self.derived(codes, "forest",
                            lambda: LabeledForest.from_codes(codes), "forests")

    def runs(self, codes: np.ndarray) -> np.ndarray:
        """`filter_runs(codes, k)`: sorted (r, 3) int64 rows (i, j, p)."""
        return self.derived(codes, "runs", lambda: filter_runs(codes, self.k))

    def table(self, codes: np.ndarray) -> HashedSeq:
        """The prefix-hash table of `codes` under this context's base."""
        return self.derived(codes, "table", lambda: HashedSeq(codes, self))
