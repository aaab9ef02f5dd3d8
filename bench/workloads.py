"""Instance generators for the four benchmark workloads.

Every instance is made from a numpy Generator seeded by the workload seed, so
equal seeds give byte-identical texts.  The engine only ever sees the text:
each query parses it afresh, exactly as ``tedk compute`` does after reading
its files.  Sizes and the reasons behind each workload are in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tedk import LabeledForest, LabelInterner, serialize_paren
from tedk.generate import (alphabet, apply_random_edits, plant_horizontal,
                           plant_vertical, random_forest)

# label text that no generated forest contains (alphabet() yields l0, l1, ...)
ABSENT_LABEL = "zz"


@dataclass
class Instance:
    f_text: str
    g_text: str
    k: int
    rounds: int | str
    engine_seed: int
    expected: int | float | None  # None: ask the oracle
    n_f: int
    n_g: int
    diff_at: int  # first position where the two parenthesis strings differ


@dataclass(frozen=True)
class Spec:
    name: str
    make: object  # (rng, engine_seed) -> Instance
    instances: int  # distinct instances per run; the oracle times all of them
    solves: bool  # the anchor accepts, so the shallow solver runs
    sampling: bool  # deeper than the height cap: level-sampling rounds run
    kernel_differs: bool  # the residual DP sees unequal forests


def _planted_forest(rng: np.random.Generator, interner: LabelInterner,
                    n: int, sites: int, reps: int) -> LabeledForest:
    """`sites` horizontal and `sites` vertical planted repetitions of `reps`
    copies each, every site in its own random forest of n/(2*sites) nodes
    (height 12, sigma 4); the result is their concatenation.

    Sites placed inside one another would stack their levels: 28 more per
    site after the reduction, which pushes the shared-matching trim past the
    forest on some draws and not on others.  Apart, every instance reaches
    the partial-matching layer."""
    syms = alphabet(interner, 4)
    parts = []
    for _ in range(sites):
        for plant in (plant_horizontal, plant_vertical):
            piece = random_forest(rng, n // (2 * sites), 12, syms)
            parts.append(plant(rng, piece, 2, syms, reps=reps).codes)
    return LabeledForest.from_codes(np.concatenate(parts))


def _edited(rng: np.random.Generator, F: LabeledForest, d: int,
            syms: np.ndarray) -> LabeledForest:
    """apply_random_edits, drawn again while the edits leave F unchanged
    (a relabel can pick the old label)."""
    while True:
        G = apply_random_edits(rng, F, d, syms)
        if G != F:
            return G


def _instance(F: LabeledForest, G: LabeledForest, interner: LabelInterner,
              k: int, rounds, engine_seed: int, expected) -> Instance:
    m = min(len(F.codes), len(G.codes))
    differ = np.flatnonzero(F.codes[:m] != G.codes[:m])
    return Instance(serialize_paren(F, interner), serialize_paren(G, interner),
                    k, rounds, engine_seed, expected, F.n, G.n,
                    int(differ[0]) if len(differ) else m)


def spread_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed (van der Corput) order: every prefix is spread
    evenly over the range."""
    return sorted(range(n), key=lambda i: int(f"{i:032b}"[::-1], 2))


def make_instances(spec: Spec, rng: np.random.Generator) -> list[Instance]:
    """The run's instances, ordered so that any prefix of the query loop
    spans their first-difference positions evenly.  Query time grows with
    that position on `deep` (the DP runs to the edit), and a run there
    reaches only about half of its instances."""
    made = [spec.make(rng, int(rng.integers(1 << 31))) for _ in range(spec.instances)]
    made.sort(key=lambda inst: inst.diff_at)
    return [made[i] for i in spread_order(len(made))]


IDENTICAL_N = 120_000
IDENTICAL_SITES = 6
PLANT_REPS = 400


def make_identical(rng: np.random.Generator, engine_seed: int) -> Instance:
    it = LabelInterner()
    F = _planted_forest(rng, it, IDENTICAL_N, IDENTICAL_SITES, PLANT_REPS)
    return _instance(F, F, it, 2, "auto", engine_seed, 0)


REJECT_N = 55_000
REJECT_SITES = 3
REJECT_RELABELS = 6  # 2k+2: three fresh relabels let the anchor through


def make_reject(rng: np.random.Generator, engine_seed: int) -> Instance:
    """G relabels 2k+2 distinct nodes of F to a label F lacks.  Each such node
    costs at least 1 in any alignment, so ted(F, G) > k by construction."""
    it = LabelInterner()
    F = _planted_forest(rng, it, REJECT_N, REJECT_SITES, PLANT_REPS)
    absent = it.intern(ABSENT_LABEL)
    nodes = rng.choice(F.n, size=REJECT_RELABELS, replace=False)
    codes = F.codes.copy()
    codes[F.o[nodes]] = absent << 1
    codes[F.c[nodes]] = (absent << 1) | 1
    G = LabeledForest.from_codes(codes)
    return _instance(F, G, it, 2, "auto", engine_seed, float("inf"))


EDITED_N = 4_000
EDITED_EDITS = 2


def make_edited(rng: np.random.Generator, engine_seed: int) -> Instance:
    it = LabelInterner()
    syms = alphabet(it, 4)
    F = random_forest(rng, EDITED_N, 12, syms)
    G = _edited(rng, F, EDITED_EDITS, syms)
    return _instance(F, G, it, 2, "auto", engine_seed, None)


DEEP_DEPTH = 20_200  # just above the k=1 height cap 19716: sampling path
DEEP_LEAF_EVERY = 67
DEEP_ROUNDS = 4


def make_deep(rng: np.random.Generator, engine_seed: int) -> Instance:
    """A sigma=2 chain with a leaf hung every 67 levels, plus one edit."""
    it = LabelInterner()
    syms = alphabet(it, 2)
    labs = syms[rng.integers(len(syms), size=DEEP_DEPTH)]
    leaf_at = np.arange(DEEP_DEPTH) % DEEP_LEAF_EVERY == 13
    leaf_labs = syms[rng.integers(len(syms), size=int(leaf_at.sum()))]
    codes: list[int] = []
    li = iter(leaf_labs.tolist())
    for lab, leaf in zip(labs.tolist(), leaf_at.tolist()):
        codes.append(lab << 1)
        if leaf:
            s = next(li)
            codes += [s << 1, (s << 1) | 1]
    codes += [(lab << 1) | 1 for lab in labs[::-1].tolist()]
    F = LabeledForest.from_codes(np.array(codes, dtype=np.int64))
    G = _edited(rng, F, 1, syms)
    return _instance(F, G, it, 1, DEEP_ROUNDS, engine_seed, None)


# Why each workload exists, and what its instances look like: NOTES.md.
WORKLOADS = {s.name: s for s in (
    Spec("identical", make_identical, 4, True, False, False),
    Spec("reject", make_reject, 5, False, False, False),
    Spec("edited", make_edited, 8, True, False, True),
    Spec("deep", make_deep, 12, True, True, True),
)}
