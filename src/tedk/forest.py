"""Labeled ordered forests and their parenthesis representation.

A forest is stored as its parenthesis character sequence: ``codes[p] =
(symbol << 1) | side`` with side 0 for an opening and 1 for a closing
parenthesis.  Node ids are dense pre-order integers (the rank of the opening
parenthesis), which makes the opening position monotone in the node id and
keeps every derived index a plain numpy array.  Every layer reads these
arrays directly: `codes` per position, `o`, `c` and `depth` per node,
`node_at` from a position back to its node, and `relabeled_codes` for the
code array under another labeling.  Instances are immutable after
construction.

Level ancestors (the ancestor d levels up, the nearest marked ancestor) all
come from one stable sort and one binary search, `last_at_level`, with no
loop over depths.  The same sorted keys (`level_search`) give LCA depths by
a binary search over levels (`lca_depth`), so no ancestor table is built.
Likewise every parenthesis pairing goes through `_pair_parens`, one stable
sort of the nesting levels and one scatter by position to give each node its
close; the checked constructor `LabeledForest(codes)` then tests the labels,
one xor per node.  The parsers skip that test: they write each close from
its open's label (`_node_codes`).  Both sorts order small non-negative
integers, so they sort them as the smallest unsigned type that holds them
(`_stable_order`): numpy radix-sorts 8- and 16-bit keys in linear time,
which covers every forest under 2^16 levels deep.  Parsing reads the text as
one byte array: a 256-entry table classes each byte (open, close,
whitespace, label byte, other), the token starts come from masks, and the
labels are ranked in groups by byte length, each by one `np.unique` over one
key per label: a zero-padded big-endian uint64 for all labels of up to 8
bytes, a fixed-width bytes string for each longer length.  Each distinct
label is interned once, in sorted text order.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import LabelMismatchError, ParseError, UnbalancedError

JSON_MAX_HEIGHT = 400  # the same bound everywhere; `json`'s own guard varies


class LabelInterner:
    """Injective text <-> symbol map: symbols are 0, 1, ... in the order
    their texts are first interned."""

    def __init__(self) -> None:
        self._by_text: dict[str, int] = {}
        self._texts: list[str] = []

    def intern(self, text: str) -> int:
        sym = self._by_text.get(text)
        if sym is None:
            sym = len(self._texts)
            self._by_text[text] = sym
            self._texts.append(text)
        return sym

    def text(self, symbol: int) -> str:
        return self._texts[symbol]


def _stable_order(level: np.ndarray) -> np.ndarray:
    """``np.argsort(level, kind="stable")`` for non-negative integer levels.

    The levels are sorted cast to the smallest unsigned type that holds the
    largest one: numpy radix-sorts 8- and 16-bit keys in linear time, and a
    stable sort gives the same order on any key type.
    """
    if len(level) == 0:
        return np.empty(0, dtype=np.intp)
    return np.argsort(level.astype(np.min_scalar_type(level.max())),
                      kind="stable")


def level_search(level: np.ndarray):
    """Sort `level` once and return ``last(q_level, q_pos)``, which gives for
    each query (L, x) the last index i < x with level[i] == L, else -1.

    The levels must be non-negative integers.  One stable sort of `level`
    (`_stable_order`, a radix sort below 2^16 levels) builds the sorted key
    ``level * (len + 1) + index``; each call is one `searchsorted` on it.
    With `level` a pre-order depth and L = depth(x) - l, the answer is the
    ancestor of x l levels up: pre-order puts no other depth-L node between
    that ancestor and x, since such a node would lie in the ancestor's
    subtree, below depth L.
    """
    level = np.asarray(level, dtype=np.int64)
    scale = len(level) + 1
    if len(level) and level.min() < 0:
        raise ValueError("levels must be non-negative")
    order = _stable_order(level)
    keys = level[order] * scale + order

    def last(q_level, q_pos) -> np.ndarray:
        q_level = np.asarray(q_level, dtype=np.int64)
        q_pos = np.asarray(q_pos, dtype=np.int64)
        if len(level) == 0:
            return np.full(q_pos.shape, -1, dtype=np.int64)
        at = np.searchsorted(keys, q_level * scale + q_pos) - 1
        found = order[np.maximum(at, 0)]
        return np.where((at >= 0) & (level[found] == q_level), found, -1)

    return last


def last_at_level(level: np.ndarray, q_level, q_pos) -> np.ndarray:
    """One-shot `level_search`: answers queries (L, x) with one sort."""
    return level_search(level)(q_level, q_pos)


def lca_depth(depth: np.ndarray, a, b, lo=-1) -> np.ndarray:
    """Depth of the lowest common ancestor of each node pair (a, b), -1 for
    nodes of different trees; `depth` is the pre-order depth array.

    `lo` is a depth at which each pair already shares an ancestor (-1 is the
    virtual root).  Ancestors that coincide at level L coincide above it, so
    a binary search finds the largest such L between `lo` and the shallower
    node's depth: log2(height) rounds, each two queries to one sorted
    `level_search` (the level-L ancestor of x is the last depth-L node at or
    before x in pre-order).
    """
    depth = np.asarray(depth, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    ancestor = level_search(depth)
    lo = np.full(a.shape, lo, dtype=np.int64)
    hi = np.minimum(depth[a], depth[b])
    while (lo < hi).any():
        mid = (lo + hi + 1) // 2  # == lo once lo == hi: that pair stays put
        same = ancestor(mid, a + 1) == ancestor(mid, b + 1)
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid - 1)
    return lo


def _pair_parens(codes: np.ndarray):
    """Check the balance and return (o, c, depth) per pre-order node; only
    the side bits are read, so the labels are the caller's to check.

    Positions sorted stably by nesting level alternate open/close within
    each level, since a level's next open needs the close that ends its last
    one: one stable sort (`_stable_order`, a linear radix sort while the
    height is below 2^16) gives the matching, and the partners are scattered
    by position, so each node's close is read at its open.
    """
    m = len(codes)
    if m % 2 != 0:
        raise UnbalancedError("odd number of parentheses")
    sides = (codes & 1).astype(np.int8)
    E = np.cumsum(1 - 2 * sides, dtype=np.int64)
    if m and (E[-1] != 0 or E.min() < 0):
        raise UnbalancedError("mismatched parenthesis depth")
    order = _stable_order(E + sides)  # open: level after push; close: before pop
    at = np.empty(m, dtype=np.int64)
    at[order[0::2]] = order[1::2]
    o = np.flatnonzero(sides == 0)
    return o, at[o], E[o] - 1


def _node_codes(o: np.ndarray, c: np.ndarray, labels) -> np.ndarray:
    """The code array with node u's parentheses at o[u] and c[u], both
    labeled labels[u]."""
    labels = np.asarray(labels, dtype=np.int64)
    codes = np.empty(2 * len(o), dtype=np.int64)
    codes[o] = labels << 1
    codes[c] = (labels << 1) | 1
    return codes


class LabeledForest:
    """Ordered rooted forest with per-node labels, ids in pre-order.

    `LabeledForest(codes)`, the checked entry, runs `_pair_parens`, then one
    xor per node (an open and its close agree in the label iff their codes
    differ in the side bit alone) and names the mismatch of least depth,
    then least position.  `LabeledForest(codes, (o, c, depth))` trusts a
    caller that paired `codes` and wrote each close from its open's label.
    """

    __slots__ = ("n", "codes", "o", "c", "depth", "_node_at", "_height",
                 "_subtree_end")

    def __init__(self, codes: np.ndarray, _paired=None):
        self.codes = np.asarray(codes, dtype=np.int64)
        self.o, self.c, self.depth = _paired or _pair_parens(self.codes)
        self.n = len(self.o)
        self._node_at = None
        self._height = None
        self._subtree_end = None
        if _paired is None:
            bad = np.flatnonzero(self.codes[self.o] ^ self.codes[self.c] != 1)
            if len(bad):
                b = bad[np.argmin(self.depth[bad])]
                raise LabelMismatchError(f"label of close at {self.c[b]} "
                                         f"differs from open at {self.o[b]}")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_codes(codes) -> "LabeledForest":
        """The checked entry on any int sequence (UnbalancedError,
        LabelMismatchError).  Inside a query every rewrite reaches it
        through `context.QueryContext.forest`, once per distinct string."""
        return LabeledForest(codes)

    # -- derived indexes ----------------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        return self.codes[self.o] >> 1

    @property
    def subtree_end(self) -> np.ndarray:
        """end[u] such that sub(u) occupies pre-order ids [u .. end[u])."""
        if self._subtree_end is None:
            self._subtree_end = (np.arange(self.n, dtype=np.int64)
                                 + (self.c - self.o + 1) // 2)
        return self._subtree_end

    @property
    def node_at(self) -> np.ndarray:
        """node_at[p]: the node whose opening or closing parenthesis is at p."""
        if self._node_at is None:
            ids = np.arange(self.n, dtype=np.int64)
            node_at = np.empty(2 * self.n, dtype=np.int64)
            node_at[self.o] = ids
            node_at[self.c] = ids
            self._node_at = node_at
        return self._node_at

    def relabeled_codes(self, labeling: np.ndarray) -> np.ndarray:
        """The code array of this forest with node u labeled labeling[u]."""
        return _node_codes(self.o, self.c, labeling)

    # -- queries ------------------------------------------------------------

    def height(self) -> int:
        if self._height is None:
            self._height = int(self.depth.max()) + 1 if self.n else 0
        return self._height

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabeledForest):
            return NotImplemented
        return bool(np.array_equal(self.codes, other.codes))

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"LabeledForest(n={self.n})"


# -- text and JSON formats ---------------------------------------------------

def check_label(text: str) -> None:
    """Raise ParseError unless `text` is a label token, [A-Za-z0-9_]+ (ASCII).

    Both input formats accept exactly these labels, so every parsed forest
    can be written back as paren text."""
    if not text.isascii() or not text.replace("_", "a").isalnum():
        raise ParseError(f"bad label token {text!r}")


# byte classes of paren text, one table lookup per byte: the whitespace
# class is what `str.split` splits on in ASCII, and a word is a run of label
# or other bytes (every byte of a non-ASCII character is an other byte)
_OPEN, _CLOSE, _SPACE, _LABEL, _OTHER = range(5)
_BYTE_CLASS = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_CLASS[list(b"(")] = _OPEN
_BYTE_CLASS[list(b")")] = _CLOSE
_BYTE_CLASS[list(b" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")] = _SPACE
_BYTE_CLASS[list(b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                 b"0123456789_")] = _LABEL


def _windows(data: np.ndarray, dtype) -> np.ndarray:
    """A read-only view of `data` whose element i is the `dtype` value held
    by the bytes from i on, for every i that leaves room for one."""
    dtype = np.dtype(dtype)
    return np.ndarray(len(data) - dtype.itemsize + 1, dtype=dtype,
                      buffer=data, strides=(1,))


def _rank_labels(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """Distinct label texts, group by group, and each label's index into
    them; the labels are at `starts`, and `data` runs on for at least 7
    bytes past the last one.

    The labels of at most 8 bytes are one group: each is the big-endian
    uint64 at its start with the bytes past its end cleared, so numeric
    order is text order (no label holds a zero byte).  Each longer length
    is a group of fixed-width bytes strings, so no label is padded.  One
    `np.unique` ranks a group.
    """
    short = np.flatnonzero(lengths <= 8)
    shift = (64 - 8 * lengths[short]).astype(np.uint64)
    keys = _windows(data, ">u8")[starts[short]].astype(np.uint64)
    groups = [(short, keys >> shift << shift)]
    long = np.flatnonzero(lengths > 8)
    order = long[_stable_order(lengths[long])]
    for idx in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        if len(idx):
            width = int(lengths[idx[0]])
            groups.append((idx, _windows(data, f"S{width}")[starts[idx]]))
    texts: list[str] = []
    local = np.empty(len(starts), dtype=np.int64)
    for idx, keys in groups:
        uniq, inverse = np.unique(keys, return_inverse=True)
        if uniq.dtype == np.uint64:
            uniq = uniq.astype(">u8").view("S8")  # the cleared bytes drop off
        local[idx] = len(texts) + inverse
        texts += [t.decode("ascii") for t in uniq.tolist()]
    return texts, local


def parse_paren_text(text: str, interner: LabelInterner) -> LabeledForest:
    """Parse ``Forest := Tree*``, ``Tree := "(" label Forest ")"``.

    Labels are tokens matching [A-Za-z0-9_]+; whitespace separates siblings.
    Checks run in this order, and the first that fails names the error:
    token grammar (`ParseError`), a dangling "(" at the end
    (`UnbalancedError`), label tokens (`ParseError`), nesting
    (`UnbalancedError`).

    The text is read as one byte array.  Non-ASCII text first has its
    Unicode whitespace folded to spaces; its other characters are word
    bytes and fail the label check.  Each byte gets its class from one
    256-entry table (`_BYTE_CLASS`); the tokens start at every parenthesis
    and at every word byte that does not follow a word byte.  The labels are
    ranked in groups by byte length (`_rank_labels`), and the new texts are
    interned in sorted text order across all groups.
    """
    if not text.isascii():
        text = " ".join(text.split())
    # the spaces after the text keep every label's 8-byte window inside it
    data = np.frombuffer((text + " " * 7).encode("utf-8", "surrogatepass"),
                         dtype=np.uint8)
    cls = _BYTE_CLASS.take(data)
    word = cls >= _LABEL
    first = word.copy()  # of a word
    first[1:] &= ~word[:-1]
    starts = np.flatnonzero(first | (cls <= _CLOSE))
    m = len(starts)
    last = word.copy()
    last[:-1] &= ~word[1:]
    ends = np.flatnonzero(last) + 1  # one past each word, in order
    tok = cls[starts]
    is_open = tok == _OPEN
    is_label = tok >= _LABEL

    def token(t: int) -> str:
        s = int(starts[t])
        e = int(ends[np.count_nonzero(is_label[:t])]) if is_label[t] else s + 1
        return data[s:e].tobytes().decode("utf-8", "surrogatepass")

    # every "(" must be followed by a label token, and labels appear only there
    after_open = np.zeros(m, dtype=bool)
    after_open[1:] = is_open[:-1]
    if not np.array_equal(is_label, after_open):
        bad = int(np.flatnonzero(is_label != after_open)[0])
        raise ParseError(f"unexpected token {token(bad)!r} at position {bad}")
    if m and is_open[-1]:
        raise UnbalancedError("dangling '(' at end of input")
    labels = np.flatnonzero(is_label)
    label_at = starts[labels]
    bad = np.flatnonzero(cls == _OTHER)
    if len(bad):  # the first bad label in sorted order names the error
        at = np.unique(np.searchsorted(label_at, bad, side="right") - 1)
        check_label(min(token(int(t)) for t in labels[at]))
    texts, local = _rank_labels(data, label_at, ends - label_at)
    order = sorted(range(len(texts)), key=texts.__getitem__)
    lut = np.empty(len(texts), dtype=np.int64)
    lut[order] = [interner.intern(texts[i]) for i in order]
    # pair on the sides alone, then give each node its label
    o, c, depth = _pair_parens((tok[~is_label] == _CLOSE).astype(np.int8))
    return LabeledForest(_node_codes(o, c, lut[local]), (o, c, depth))


def serialize_paren(F: LabeledForest, interner: LabelInterner) -> str:
    uniq, inverse = np.unique(F.labels, return_inverse=True)
    open_texts = np.array(["(" + interner.text(int(s)) for s in uniq],
                          dtype=object)
    parts = np.empty(2 * F.n, dtype=object)
    parts[F.c] = ")"
    parts[F.o] = open_texts[inverse]
    return "".join(parts.tolist())


def parse_json_text(text: str, interner: LabelInterner) -> LabeledForest:
    """JSON format: array of {"label": str, "children": [...]} trees, at
    most JSON_MAX_HEIGHT levels deep; labels are JSON strings that follow
    the paren-text token rule (`check_label`), so a null, number or boolean
    label is a `ParseError`, not the text Python would print for it."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("JSON nesting too deep") from None
    if not isinstance(data, list):
        raise ParseError("top level must be an array of trees")
    sides: list[bool] = []
    labels: list[int] = []  # per node, in pre-order
    checked: set[str] = set()
    stack = [(t, False) for t in reversed(data)]
    while stack:
        node, closing = stack.pop()
        sides.append(closing)
        if closing:
            continue
        if not isinstance(node, dict) or "label" not in node:
            raise ParseError("tree objects need a 'label' field")
        text = node["label"]
        if not isinstance(text, str):
            raise ParseError(f"label {text!r} is not a JSON string")
        if text not in checked:
            check_label(text)
            checked.add(text)
        labels.append(interner.intern(text))
        stack.append((None, True))
        children = node.get("children", [])
        if not isinstance(children, list):
            raise ParseError("'children' must be an array")
        stack.extend((ch, False) for ch in reversed(children))
    o, c, depth = _pair_parens(np.array(sides, dtype=np.int8))
    F = LabeledForest(_node_codes(o, c, labels), (o, c, depth))
    if F.height() > JSON_MAX_HEIGHT:
        raise ParseError("JSON nesting too deep")
    return F


def serialize_json(F: LabeledForest, interner: LabelInterner) -> str:
    """JSON text of F, written in one pass over the parentheses as
    `serialize_paren` writes them; ValueError when F has more than
    JSON_MAX_HEIGHT levels, the bound `parse_json_text` holds its input to."""
    if F.height() > JSON_MAX_HEIGHT:
        raise ValueError(f"forest of height {F.height()} is too deep for JSON")
    uniq, inverse = np.unique(F.labels, return_inverse=True)
    open_texts = np.array(['{"label": ' + json.dumps(interner.text(int(s)))
                           + ', "children": [' for s in uniq], dtype=object)
    # an opening follows the close (the last position is a close, so the
    # clamped index reads no sibling there)
    sibling = F.codes[np.minimum(F.c + 1, 2 * F.n - 1)] & 1 == 0
    parts = np.empty(2 * F.n, dtype=object)
    parts[F.c] = np.where(sibling, "]}, ", "]}")
    parts[F.o] = open_texts[inverse]
    return "[" + "".join(parts.tolist()) + "]"

