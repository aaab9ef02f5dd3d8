"""Main algorithm: full reduction, level sampling, shallow residual solves.

After periodicity reduction and anchor construction, each round samples a
depth residue r modulo the height cap h = 19716*k^4, marks nodes at matching
depths, and forces the anchor's fully matched node pairs that touch a marked
node.  A round survives when the matching is small (Markov bound) and covers
every marked node; the partial-matching reduction then yields forests of
height <= h+1 solved by the shallow algorithm.  The answer is the minimum
over surviving rounds; when both reduced forests already fit under h the
sampling is skipped and one deterministic shallow solve suffices.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .alignment import _match_mask
from .context import QueryContext
from .errors import ContractError
from .forest import LabeledForest, LabelInterner
from .hashing import random_base
from .oracle import INF
from .partial import partial_reduce
from .reduction import ReducedPair, reduce_and_anchor
from .shallow import lift_position_matching, shallow_ted


def _int_at_least(value, least: int) -> bool:
    """True iff `value` is an integer (anything `operator.index` takes, numpy
    integers included) and at least `least`."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


@dataclass
class EngineConfig:
    k: int
    seed: int = 0
    rounds: int | str = "auto"
    height_cap: int | None = None
    audit: bool = False

    def __post_init__(self) -> None:
        if not _int_at_least(self.k, 1):
            raise ValueError("threshold k must be an integer >= 1")
        if not _int_at_least(self.seed, 0):
            raise ValueError("seed must be an integer >= 0")
        if self.rounds != "auto" and not _int_at_least(self.rounds, 1):
            raise ValueError("rounds must be 'auto' or an integer >= 1")
        if (self.height_cap is not None
                and not _int_at_least(self.height_cap, 1)):
            raise ValueError("height_cap must be None or an integer >= 1")

    def num_rounds(self, n_total: int) -> int:
        if self.rounds == "auto":
            return math.ceil(6 * math.log2(n_total + 4))
        return self.rounds


@dataclass
class EngineReport:
    value: int | float
    rounds: int = 0
    kept: int = 0
    h: int = 0
    timings: dict = field(default_factory=dict)


def mark_levels(F: LabeledForest, r: int, h: int) -> np.ndarray:
    """Mask of the nodes whose depth is congruent to r modulo h (roots at 0)."""
    if not 0 <= r < h:
        raise ValueError("residue out of range")
    return F.depth % h == r


def _anchor_node_pairs(rp: ReducedPair) -> np.ndarray:
    """Node pairs whose both parentheses the anchor matches."""
    matched = _match_mask(rp.anchor, rp.seq_f, rp.seq_g)
    return lift_position_matching(rp.f, rp.g, rp.anchor.pairs[:-1][matched])


def run(F: LabeledForest, G: LabeledForest, cfg: EngineConfig,
        interner: LabelInterner) -> EngineReport:
    """Full engine run with per-phase timings."""
    # ted(F, G) <= |F| + |G|, so a larger k changes no answer; the clamp
    # keeps the 4k+1-wide passes and the height cap sized by the input
    k = min(cfg.k, max(1, F.n + G.n))
    rng0 = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=(cfg.seed, 0xBA5E))))
    # the query's context: its records die with the query
    ctx = QueryContext(k, random_base(rng0), audit=cfg.audit)
    rp = reduce_and_anchor(F, G, ctx)
    h = cfg.height_cap if cfg.height_cap is not None else 19716 * k ** 4
    report = EngineReport(value=INF, h=h, timings=ctx.timings)
    if rp.anchor is None:
        return report
    t0 = time.perf_counter()
    if max(rp.f.height(), rp.g.height()) <= h:
        hb = max(1, rp.f.height(), rp.g.height())
        report.value = shallow_ted(rp.f, rp.g, hb, interner, ctx)
        ctx.timings["residual_ms"] = 1e3 * (time.perf_counter() - t0)
        return report

    pairs = _anchor_node_pairs(rp)
    nf, ng = rp.f.n, rp.g.n
    rounds = cfg.num_rounds(F.n + G.n)
    report.rounds = rounds

    kept = []
    for i in range(rounds):
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(cfg.seed, 1 + i))))
        r = int(rng.integers(h))
        marked_f = mark_levels(rp.f, r, h)
        marked_g = mark_levels(rp.g, r, h)
        sel = marked_f[pairs[:, 0]] | marked_g[pairs[:, 1]]
        M = pairs[sel]
        if len(M) * h > 4 * (nf + ng):
            continue  # rejected by the Markov bound
        covered_f = np.zeros(nf, dtype=bool)
        covered_f[M[:, 0]] = True
        covered_g = np.zeros(ng, dtype=bool)
        covered_g[M[:, 1]] = True
        if not (covered_f[marked_f].all() and covered_g[marked_g].all()):
            continue  # a marked node is left uncovered
        Fi, Gi = partial_reduce(rp.f, rp.g, M, k, interner)
        height = max(Fi.height(), Gi.height())
        if height > h + 1:
            raise ContractError(f"partial reduction left height {height} "
                                f"> {h + 1}")
        kept.append(shallow_ted(Fi, Gi, h + 1, interner, ctx))
    report.kept = len(kept)
    report.value = min(kept, default=INF)
    ctx.timings["rounds_ms"] = 1e3 * (time.perf_counter() - t0)
    return report


def ted_bounded(F: LabeledForest, G: LabeledForest, cfg: EngineConfig,
                interner: LabelInterner) -> int | float:
    """ted_{<=k}(F, G) with high probability (exact on the shallow path)."""
    return run(F, G, cfg, interner).value
