"""Main algorithm: full reduction, level sampling, shallow residual solves.

After periodicity reduction and anchor construction, each round samples a
depth residue r modulo the height cap h = 19716*k^4, marks nodes at matching
depths, and forces the anchor's fully matched node pairs that touch a marked
node.  A round survives when the matching is small (Markov bound) and covers
every marked node; the partial-matching reduction then yields forests of
height <= h+1 solved by the shallow algorithm.  The answer is the minimum
over surviving rounds; when both reduced forests already fit under h the
sampling is skipped and one deterministic shallow solve suffices.

The rounds stop as soon as their answer is certified.  Before them,
`lower_bound` gives one lower bound L on ted(F', G') of the reduced pair,
half the edit distance of the two parenthesis strings, rounded up; when
that distance exceeds 2k, ted > k, L is INF and the answer is INF with no
round run.  A kept round's value is the cost of a tree alignment of F' and
G' that contains the forced matching, or INF when that cost exceeds k, so
it is at least ted_{<=k}(F', G').  A round whose value v is at most
L <= ted therefore has v = ted <= k, the least value any round can give,
and the loop stops there: the answer is the one every planned round would
give.  `EngineReport.rounds` counts the rounds run and
`EngineReport.bound` records L.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .alignment import _match_mask, greedy_bounded_align
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
    """One query's settings: the threshold k, the seed of the base and the
    round residues, the number of sampling rounds ("auto" plans
    ceil(6 log2(n + 4))), and `audit` for the dual-base fingerprint check.

    `height_cap` overrides the sampling height h = 19716 k^4, which no small
    forest reaches; it exists so that tests can drive small inputs down the
    sampling path.  A cap below 19716 k^4 voids the with-high-probability
    guarantee: each kept round's value is still the cost of an alignment,
    so answers can come out too high, never too low.
    """

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
    bound: int | float = 0  # L of `lower_bound` on the sampling path, else 0
    timings: dict = field(default_factory=dict)


def mark_levels(F: LabeledForest, r: int, h: int) -> np.ndarray:
    """Mask of the nodes whose depth is congruent to r modulo h (roots at 0)."""
    if not 0 <= r < h:
        raise ValueError("residue out of range")
    return F.depth % h == r


def lower_bound(F: LabeledForest, G: LabeledForest, k: int) -> int | float:
    """A lower bound L on ted(F, G): ceil(sed / 2), where sed is the edit
    distance of the two code strings, or INF when sed > 2k (so ted > k).

    Proof.  A relabel changes the codes of one node's two parentheses, and
    a delete or an insert removes or adds them: each tree edit is at most 2
    string edits, so sed <= 2 ted and ted >= ceil(sed / 2).  Any string
    alignment of cost c has width at most c, so the banded search with cost
    budget and width 2k finds the least cost sed whenever sed <= 2k, and
    returns None exactly when sed > 2k, which gives ted > k.

    L also dominates the size difference and the label-multiset bound
    (`oracle._label_multiset_bound`), so neither is taken separately.  A
    code is a node's label with an open or close bit, so an alignment
    matches at most `shared` opens and `shared` closes, where `shared` is
    the size of the largest label-preserving pairing of the nodes.  Each
    other code of either string costs an operation of its own, so
    sed >= 2 (max(|F|, |G|) - shared): twice the multiset bound, which is
    at least ||F| - |G||.
    """
    A = greedy_bounded_align(F.codes, G.codes, 2 * k, 2 * k)
    if A is None:
        return INF
    sed = len(A) - 1 - int(_match_mask(A, F.codes, G.codes).sum())
    return (sed + 1) // 2


def _anchor_node_pairs(rp: ReducedPair) -> np.ndarray:
    """Node pairs whose both parentheses the anchor matches."""
    matched = _match_mask(rp.anchor, rp.seq_f, rp.seq_g)
    return lift_position_matching(rp.f, rp.g, rp.anchor[:-1][matched])


def run(F: LabeledForest, G: LabeledForest, cfg: EngineConfig,
        interner: LabelInterner | None = None) -> EngineReport:
    """Full engine run with per-phase timings.

    `interner` is unused and left unchanged: the partial reduction numbers
    its fresh labels past the forests' own.  It stays because the
    benchmark's worker still passes the interner its forests were parsed
    with."""
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
        report.value = shallow_ted(rp.f, rp.g, hb, ctx)
        ctx.timings["residual_ms"] = 1e3 * (time.perf_counter() - t0)
        return report

    # L > k only when the sed certificate fires; then no round is run
    report.bound = bound = lower_bound(rp.f, rp.g, k)
    rounds = cfg.num_rounds(F.n + G.n) if bound <= k else 0
    pairs = _anchor_node_pairs(rp)
    nf, ng = rp.f.n, rp.g.n

    kept = []
    for i in range(rounds):
        report.rounds = i + 1
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
        Fi, Gi = partial_reduce(rp.f, rp.g, M, ctx)
        height = max(Fi.height(), Gi.height())
        if height > h + 1:
            raise ContractError(f"partial reduction left height {height} "
                                f"> {h + 1}")
        kept.append(shallow_ted(Fi, Gi, h + 1, ctx))
        if kept[-1] <= bound:
            break  # each round's value is >= ted_{<=k} >= L: certified
    report.kept = len(kept)
    report.value = min(kept, default=INF)
    ctx.timings["rounds_ms"] = 1e3 * (time.perf_counter() - t0)
    return report


def ted_bounded(F: LabeledForest, G: LabeledForest,
                cfg: EngineConfig) -> int | float:
    """ted_{<=k}(F, G) with high probability (exact on the shallow path)."""
    return run(F, G, cfg).value
