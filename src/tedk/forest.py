"""Labeled ordered forests and their parenthesis representation.

A forest is stored as its parenthesis character sequence: ``codes[p] =
(symbol << 1) | side`` with side 0 for an opening and 1 for a closing
parenthesis.  Node ids are dense pre-order integers (the rank of the opening
parenthesis), which makes the opening position monotone in the node id and
keeps every derived index a plain numpy array.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
import threading

import numpy as np

from .errors import LabelMismatchError, ParseError, UnbalancedError

VIRTUAL_ROOT = -1
OPEN = 0
CLOSE = 1


class LabelInterner:
    """Injective text <-> symbol map, plus a reserved range for fresh labels.

    Fresh labels (separators, gadget slots) get synthetic texts containing
    ``$``, which user tokens ([A-Za-z0-9_]+) can never collide with.  Symbol
    allocation is locked so concurrent engine rounds can share one interner.
    """

    def __init__(self) -> None:
        self._by_text: dict[str, int] = {}
        self._texts: list[str] = []
        self._lock = threading.Lock()

    def intern(self, text: str) -> int:
        sym = self._by_text.get(text)
        if sym is None:
            with self._lock:
                sym = self._by_text.get(text)
                if sym is None:
                    sym = len(self._texts)
                    self._by_text[text] = sym
                    self._texts.append(text)
        return sym

    def intern_many(self, texts) -> np.ndarray:
        """Vectorized interning: unique texts once, then a table lookup."""
        uniq, inverse = np.unique(np.asarray(texts, dtype=object), return_inverse=True)
        lut = np.fromiter((self.intern(t) for t in uniq), dtype=np.int64,
                          count=len(uniq))
        return lut[inverse]

    def fresh(self, hint: str = "fresh") -> int:
        return self.fresh_block(1, hint)

    def fresh_block(self, count: int, hint: str = "slot") -> int:
        """Reserve `count` consecutive fresh symbols; returns the first one."""
        with self._lock:
            base = len(self._texts)
            for i in range(count):
                text = f"${hint}{base + i}"
                self._by_text[text] = base + i
                self._texts.append(text)
        return base

    def text(self, symbol: int) -> str:
        return self._texts[symbol]

    def __len__(self) -> int:
        return len(self._texts)

    def __contains__(self, text: str) -> bool:
        return text in self._by_text


class Label:
    """An interned label: dense symbol plus the original token, if any."""

    __slots__ = ("symbol", "text")

    def __init__(self, symbol: int, text: str | None = None):
        self.symbol = symbol
        self.text = text

    def __eq__(self, other):
        return isinstance(other, Label) and other.symbol == self.symbol

    def __hash__(self):
        return hash(self.symbol)

    def __repr__(self):
        return f"Label({self.symbol}, {self.text!r})"


class ParenSeq:
    """Parenthesis representation of a forest under some labeling.

    Equal codes mean equal (side, label) characters; characters of different
    sides never compare equal by construction of the encoding.
    """

    __slots__ = ("codes",)

    def __init__(self, codes: np.ndarray):
        self.codes = np.asarray(codes, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def sides(self) -> np.ndarray:
        return self.codes & 1

    @property
    def symbols(self) -> np.ndarray:
        return self.codes >> 1

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParenSeq):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))


class PositionIndex:
    """Opening/closing positions per node, per-position depth, owner map."""

    __slots__ = ("o", "c", "D", "node_at")

    def __init__(self, o, c, D, node_at):
        self.o = o
        self.c = c
        self.D = D
        self.node_at = node_at


def group_by_depth(depth: np.ndarray) -> list[np.ndarray]:
    """ids_at[d] = sorted node ids at depth d, in O(n log n) total."""
    maxd = int(depth.max()) + 1 if len(depth) else 0
    order = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(maxd + 1))
    return [order[bounds[d]:bounds[d + 1]] for d in range(maxd)]


def _pair_parens(codes: np.ndarray):
    """Validate balance/labels and return (o, c, depth) per pre-order node.

    Vectorized: positions sorted stably by nesting level alternate
    open/close within each level, giving the matching in one argsort.
    """
    m = len(codes)
    if m % 2 != 0:
        raise UnbalancedError("odd number of parentheses")
    n = m // 2
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, e.copy(), e.copy()
    sides = (codes & 1).astype(np.int64)
    delta = 1 - 2 * sides
    E = np.cumsum(delta)
    if E[-1] != 0 or E.min() < 0:
        raise UnbalancedError("mismatched parenthesis depth")
    level = E + sides  # open: level after push; close: level before pop
    order = np.argsort(level, kind="stable")
    po = order[0::2]
    pc = order[1::2]
    if (codes[po] & 1).any() or not (codes[pc] & 1).all():
        raise UnbalancedError("parenthesis sides do not alternate per level")
    if not np.array_equal(codes[po] >> 1, codes[pc] >> 1):
        bad = int(np.flatnonzero(codes[po] >> 1 != codes[pc] >> 1)[0])
        raise LabelMismatchError(
            f"label of close at {int(pc[bad])} differs from open at {int(po[bad])}")
    o = np.flatnonzero(sides == 0).astype(np.int64)
    open_rank = np.cumsum(1 - sides) - 1
    c = np.empty(n, dtype=np.int64)
    c[open_rank[po]] = pc
    depth = E[o] - 1
    return o, c, depth


class LabeledForest:
    """Ordered rooted forest with per-node labels, ids in pre-order."""

    __slots__ = ("n", "codes", "o", "c", "depth", "_parent", "_pos",
                 "_child_index", "_height", "_subtree_end")

    def __init__(self, codes: np.ndarray, _paired=None):
        self.codes = np.asarray(codes, dtype=np.int64)
        if _paired is None:
            _paired = _pair_parens(self.codes)
        self.o, self.c, self.depth = _paired
        self.n = len(self.o)
        self._parent = None
        self._pos = None
        self._child_index = None
        self._height = None
        self._subtree_end = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_codes(codes) -> "LabeledForest":
        """Build and re-validate a forest from raw character codes.

        The single trusted constructor: raises UnbalancedError on depth
        errors, LabelMismatchError when a closing label disagrees with its
        opening partner.
        """
        return LabeledForest(np.asarray(codes, dtype=np.int64))

    @staticmethod
    def from_nested(trees: list, interner: LabelInterner) -> "LabeledForest":
        """Build from nested (label_text, [children...]) pairs (tests, JSON)."""
        codes: list[int] = []
        stack = [(t, False) for t in reversed(trees)]
        while stack:
            node, closing = stack.pop()
            text, children = node
            sym = interner.intern(text)
            if closing:
                codes.append((sym << 1) | 1)
                continue
            codes.append(sym << 1)
            stack.append((node, True))
            stack.extend((ch, False) for ch in reversed(children))
        return LabeledForest.from_codes(np.asarray(codes, dtype=np.int64))

    # -- derived indexes ----------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        return self.codes[self.o] >> 1

    @property
    def parent(self) -> np.ndarray:
        if self._parent is None:
            self._parent = self._compute_parent()
        return self._parent

    def _compute_parent(self) -> np.ndarray:
        n = self.n
        parent = np.full(n, VIRTUAL_ROOT, dtype=np.int64)
        depth = self.depth
        maxd = int(depth.max()) + 1 if n else 0
        if n == 0 or maxd <= 1:
            return parent
        ids_at = group_by_depth(depth)
        for d in range(1, maxd):
            ids = ids_at[d]
            if len(ids) == 0:
                continue
            ups = ids_at[d - 1]
            idx = np.searchsorted(ups, ids) - 1
            parent[ids] = ups[idx]
        return parent

    @property
    def roots(self) -> np.ndarray:
        return np.flatnonzero(self.depth == 0)

    @property
    def subtree_end(self) -> np.ndarray:
        """end[u] such that sub(u) occupies pre-order ids [u .. end[u])."""
        if self._subtree_end is None:
            self._subtree_end = (np.arange(self.n, dtype=np.int64)
                                 + (self.c - self.o + 1) // 2)
        return self._subtree_end

    def children(self, u: int) -> np.ndarray:
        if self._child_index is None:
            order = np.argsort(self.parent, kind="stable")
            starts = np.searchsorted(self.parent[order],
                                     np.arange(-1, self.n + 1))
            self._child_index = (order, starts)
        order, starts = self._child_index
        return order[starts[u + 1]:starts[u + 2]]

    def position_index(self) -> PositionIndex:
        if self._pos is None:
            n = self.n
            D = np.empty(2 * n, dtype=np.int64)
            node_at = np.empty(2 * n, dtype=np.int64)
            D[self.o] = self.depth
            D[self.c] = self.depth
            ids = np.arange(n, dtype=np.int64)
            node_at[self.o] = ids
            node_at[self.c] = ids
            self._pos = PositionIndex(self.o, self.c, D, node_at)
        return self._pos

    def paren(self, labeling: np.ndarray | None = None) -> ParenSeq:
        """Parenthesis representation under `labeling` (default: own labels)."""
        if labeling is None:
            return ParenSeq(self.codes)
        labeling = np.asarray(labeling, dtype=np.int64)
        codes = np.empty(2 * self.n, dtype=np.int64)
        codes[self.o] = labeling << 1
        codes[self.c] = (labeling << 1) | 1
        return ParenSeq(codes)

    # -- queries ------------------------------------------------------------

    def height(self) -> int:
        if self._height is None:
            self._height = int(self.depth.max()) + 1 if self.n else 0
        return self._height

    def subtree(self, v: int) -> "LabeledForest":
        return LabeledForest(self.codes[self.o[v]:self.c[v] + 1])

    def subtree_trimmed(self, v: int, d: int) -> "LabeledForest":
        """The subtree rooted at v restricted to depth-from-v < d."""
        if d < 1:
            raise ValueError("trim depth must be >= 1")
        end = int(self.subtree_end[v])
        ids = np.arange(v, end)
        keep = ids[self.depth[v:end] - self.depth[v] < d]
        return self.induced(keep)

    def induced(self, keep: np.ndarray) -> "LabeledForest":
        """Forest obtained by deleting every node not in `keep` (order kept)."""
        keep = np.asarray(keep, dtype=np.int64)
        mask = np.zeros(2 * self.n, dtype=bool)
        mask[self.o[keep]] = True
        mask[self.c[keep]] = True
        return LabeledForest(self.codes[mask])

    def validate(self) -> None:
        """Re-check structural invariants (tests and reduction outputs)."""
        o, c, depth = _pair_parens(self.codes)
        if not (np.array_equal(o, self.o) and np.array_equal(c, self.c)
                and np.array_equal(depth, self.depth)):
            raise ValueError("inconsistent cached position arrays")
        if self.n:
            par = self.parent
            if not (par < np.arange(self.n)).all() or par.min() < VIRTUAL_ROOT:
                raise ValueError("parent ids must precede children in pre-order")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledForest):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"LabeledForest(n={self.n})"


# -- text and JSON formats ---------------------------------------------------

def parse_paren_text(text: str, interner: LabelInterner) -> LabeledForest:
    """Parse ``Forest := Tree*``, ``Tree := "(" label Forest ")"``.

    Labels are tokens matching [A-Za-z0-9_]+; whitespace separates siblings.
    """
    toks = np.array(text.replace("(", " ( ").replace(")", " ) ").split(),
                    dtype=object)
    m = len(toks)
    if m == 0:
        return LabeledForest.from_codes(np.empty(0, dtype=np.int64))
    is_open = toks == "("
    is_close = toks == ")"
    is_label = ~(is_open | is_close)
    # every "(" must be followed by a label token, and labels appear only there
    after_open = np.zeros(m, dtype=bool)
    after_open[1:] = is_open[:-1]
    if not np.array_equal(is_label, after_open):
        bad = int(np.flatnonzero(is_label != after_open)[0])
        raise ParseError(f"unexpected token {toks[bad]!r} at position {bad}")
    if is_open[-1]:
        raise UnbalancedError("dangling '(' at end of input")
    label_toks = toks[is_label]
    if len(label_toks):
        uniq, inverse = np.unique(label_toks, return_inverse=True)
        for t in uniq:
            if not t.replace("_", "a").isalnum() or not t.isascii():
                raise ParseError(f"bad label token {t!r}")
        lut = np.fromiter((interner.intern(t) for t in uniq), dtype=np.int64,
                          count=len(uniq))
        syms = lut[inverse]
    else:
        syms = np.empty(0, dtype=np.int64)
    sides = is_close[~is_label].astype(np.int64)
    n_parens = len(sides)
    # opening parens take their following label's symbol; closes get filled
    # from the matching open by the constructor-level pairing
    opens_mask = sides == 0
    if int(opens_mask.sum()) != len(syms):
        raise UnbalancedError("mismatched parenthesis count")
    codes = np.empty(n_parens, dtype=np.int64)
    codes[opens_mask] = syms << 1
    # temporary close labels: resolve via the skeleton pairing
    delta = 1 - 2 * sides
    E = np.cumsum(delta)
    if len(E) and (E[-1] != 0 or E.min() < 0):
        raise UnbalancedError("mismatched parenthesis depth")
    level = E + sides
    order = np.argsort(level, kind="stable")
    po, pc = order[0::2], order[1::2]
    codes[pc] = codes[po] | 1
    return LabeledForest(codes)


def serialize_paren(F: LabeledForest, interner: LabelInterner) -> str:
    if F.n == 0:
        return ""
    uniq, inverse = np.unique(F.labels, return_inverse=True)
    open_texts = np.array(["(" + interner.text(int(s)) for s in uniq],
                          dtype=object)
    parts = np.empty(2 * F.n, dtype=object)
    parts[F.c] = ")"
    parts[F.o] = open_texts[inverse]
    return "".join(parts.tolist())


def parse_json_text(text: str, interner: LabelInterner) -> LabeledForest:
    """JSON format: array of {"label": str, "children": [...]} trees."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("JSON nesting too deep") from None
    if not isinstance(data, list):
        raise ParseError("top level must be an array of trees")
    codes: list[int] = []
    stack = [(t, False) for t in reversed(data)]
    while stack:
        node, closing = stack.pop()
        if closing:
            codes.append(node)
            continue
        if not isinstance(node, dict) or "label" not in node:
            raise ParseError("tree objects need a 'label' field")
        sym = interner.intern(str(node["label"]))
        codes.append(sym << 1)
        stack.append(((sym << 1) | 1, True))
        children = node.get("children", [])
        if not isinstance(children, list):
            raise ParseError("'children' must be an array")
        stack.extend((ch, False) for ch in reversed(children))
    return LabeledForest.from_codes(np.asarray(codes, dtype=np.int64))


def serialize_json(F: LabeledForest, interner: LabelInterner) -> str:
    out: list = []
    holders: dict[int, list] = {}
    parent = F.parent
    for u in range(F.n):
        node = {"label": interner.text(int(F.labels[u])), "children": []}
        p = int(parent[u])
        if p == VIRTUAL_ROOT:
            out.append(node)
        else:
            holders[p].append(node)
        holders[u] = node["children"]
    return json.dumps(out)


def height(F: LabeledForest) -> int:
    return F.height()
