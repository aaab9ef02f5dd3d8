"""Reproducible instance generation: random forests, planted periodicity,
random edit scripts.  Everything is driven by an explicit numpy Generator so
equal seeds give byte-identical outputs."""

from __future__ import annotations

import numpy as np

from .forest import LabeledForest, LabelInterner


def alphabet(interner: LabelInterner, sigma: int) -> np.ndarray:
    return np.array([interner.intern(f"l{t}") for t in range(sigma)],
                    dtype=np.int64)


def random_forest(rng: np.random.Generator, n: int, max_height: int,
                  syms: np.ndarray, branch: float = 0.6) -> LabeledForest:
    """Random ordered forest with exactly n nodes and height <= max_height."""
    if n > 0 and max_height < 1:
        raise ValueError("positive forests need max_height >= 1")
    codes: list[int] = []
    stack: list[int] = []
    opened = 0
    while opened < n or stack:
        can_open = opened < n and len(stack) < max_height
        if can_open and (not stack or rng.random() < branch):
            sym = int(syms[rng.integers(len(syms))])
            codes.append(sym << 1)
            stack.append(sym)
            opened += 1
        else:
            codes.append((stack.pop() << 1) | 1)
    return LabeledForest.from_codes(np.asarray(codes, dtype=np.int64))


def _insert_block(codes: np.ndarray, at: int, block: np.ndarray) -> np.ndarray:
    return np.concatenate([codes[:at], block, codes[at:]])


def _random_gap(rng: np.random.Generator, F: LabeledForest) -> int:
    return int(rng.integers(2 * F.n + 1))


def plant_horizontal(rng: np.random.Generator, F: LabeledForest, k: int,
                     syms: np.ndarray, reps: int | None = None) -> LabeledForest:
    """Insert a balanced block repeated `reps` times (default ~20k) somewhere."""
    block_nodes = int(rng.integers(1, max(2, 2 * k)))
    block = random_forest(rng, block_nodes, max(1, block_nodes), syms)
    if reps is None:
        reps = int(rng.integers(18 * k, 24 * k + 1))
    big = np.tile(block.codes, reps)
    return LabeledForest.from_codes(
        _insert_block(F.codes, _random_gap(rng, F), big))


def plant_vertical(rng: np.random.Generator, F: LabeledForest, k: int,
                   syms: np.ndarray, reps: int | None = None) -> LabeledForest:
    """Wrap a random gap in `reps` nested copies of a small context."""
    spine = int(syms[rng.integers(len(syms))])
    left_nodes = int(rng.integers(0, max(1, 2 * k - 1)))
    right_nodes = int(rng.integers(0, max(1, 2 * k - 1)))
    left = random_forest(rng, left_nodes, max(1, left_nodes), syms)
    right = random_forest(rng, right_nodes, max(1, right_nodes), syms)
    c_l = np.concatenate([[spine << 1], left.codes])
    c_r = np.concatenate([right.codes, [(spine << 1) | 1]])
    if reps is None:
        reps = int(rng.integers(17 * k, 24 * k + 1))
    block = np.concatenate([np.tile(c_l, reps), np.tile(c_r, reps)])
    return LabeledForest.from_codes(
        _insert_block(F.codes, _random_gap(rng, F), block))


def apply_random_edits(rng: np.random.Generator, F: LabeledForest, d: int,
                       syms: np.ndarray) -> LabeledForest:
    """Apply d random unit edits (relabel, delete, insert-leaf)."""
    codes = F.codes.copy()
    for _ in range(d):
        cur = LabeledForest.from_codes(codes)
        ops = ["insert"] if cur.n == 0 else ["relabel", "delete", "insert"]
        op = ops[rng.integers(len(ops))]
        if op == "relabel":
            u = int(rng.integers(cur.n))
            sym = int(syms[rng.integers(len(syms))])
            codes[cur.o[u]] = sym << 1
            codes[cur.c[u]] = (sym << 1) | 1
        elif op == "delete":
            u = int(rng.integers(cur.n))
            keep = np.ones(len(codes), dtype=bool)
            keep[cur.o[u]] = False
            keep[cur.c[u]] = False
            codes = codes[keep]
        else:
            sym = int(syms[rng.integers(len(syms))])
            at = int(rng.integers(len(codes) + 1))
            codes = _insert_block(codes, at,
                                  np.array([sym << 1, (sym << 1) | 1],
                                           dtype=np.int64))
    return LabeledForest.from_codes(codes)


def planted_pair(rng: np.random.Generator, n: int, k: int, sigma: int,
                 interner: LabelInterner, kind: str = "mixed",
                 edits: int | None = None):
    """(F, G, d): G is F with planted periodicity and d recorded edits."""
    syms = alphabet(interner, sigma)
    F = random_forest(rng, n, max(1, int(rng.integers(2, 8))), syms)
    if kind in ("horizontal", "mixed"):
        F = plant_horizontal(rng, F, k, syms)
    if kind in ("vertical", "mixed"):
        F = plant_vertical(rng, F, k, syms)
    d = int(rng.integers(0, k + 1)) if edits is None else edits
    G = apply_random_edits(rng, F, d, syms)
    return F, G, d
