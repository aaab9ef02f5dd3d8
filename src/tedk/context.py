"""One query's context: its threshold and the data derived from its strings.

`engine.run` makes one `QueryContext` per query and hands it to every layer
that reads a code string.  The context owns the threshold k, the query's
Karp-Rabin state (`hashing.KarpRabin`: the base, its power table and the
prefix tables of the latest two code strings), and the filtered runs
(`horizontal.filter_runs`) of the latest two code strings.  Every pass asks
for F's string and then G's, so two are enough to find an equal string
again: G when it equals F, or a pass that cut nothing.  A string is
recognized by content, against a kept reference to an earlier array
(`np.array_equal`), so nothing is copied.  There is no module-level cache:
the tables and runs die with the context when the query returns.
"""

from __future__ import annotations

import numpy as np

from .hashing import KarpRabin
from .horizontal import filter_runs
from .indexes import Run


class QueryContext:
    """Threshold k, fingerprint state `kr`, and the latest filtered runs."""

    def __init__(self, k: int, base: int, audit: bool = False):
        if k < 1:
            raise ValueError("threshold must be >= 1")
        self.k = k
        self.kr = KarpRabin(base, audit=audit)
        self._runs: list[tuple[np.ndarray, list[Run]]] = []

    def runs(self, codes: np.ndarray) -> list[Run]:
        """`filter_runs(codes, k)`: those of one of the latest two strings
        when it equals `codes`, else computed.  `codes` is kept to recognize
        the string later, so it must not be changed afterwards."""
        for seen, runs in self._runs:
            if np.array_equal(seen, codes):
                return runs
        runs = filter_runs(codes, self.k)
        self._runs = self._runs[-1:] + [(codes, runs)]
        return runs
