import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tedk.forest as forest_module
from tedk.errors import LabelMismatchError, ParseError, UnbalancedError
from tedk.forest import (JSON_MAX_HEIGHT, LabeledForest, LabelInterner,
                         _pair_parens, last_at_level, level_search,
                         parse_json_text, parse_paren_text, serialize_json,
                         serialize_paren)
from tedk.generate import alphabet, random_forest

from conftest import deep_chain, forest, query, stack_walk, validate
from reference import naive_positions, nested_json, parents


def test_parse_single_node(interner):
    F = forest("(a)", interner)
    assert F.n == 1
    assert interner.text(int(F.labels[0])) == "a"


def test_parse_children_order(interner):
    F = forest("(a(b)(c))", interner)
    assert F.n == 3
    assert [interner.text(int(s)) for s in F.labels] == ["a", "b", "c"]
    assert parents(F).tolist() == [-1, 0, 0]


def test_parse_unbalanced(interner):
    with pytest.raises(UnbalancedError):
        forest("(a))", interner)
    with pytest.raises(UnbalancedError):
        forest("(a", interner)
    # the position counts tokens, not bytes
    with pytest.raises(ParseError,
                       match=r"^unexpected token 'x' at position 5$"):
        forest("(a(b) x)", interner)


def test_parse_malformed_text_raises_parse_errors(interner):
    # Unicode whitespace separates tokens, and a NUL byte, a non-ASCII
    # letter or a lone surrogate in a label is a bad label; none of them
    # ends in a UnicodeEncodeError
    cases = {
        "(a\u00a0b)": ParseError,
        "(a\u2003(b)\u2003c)": ParseError,
        "(a\x1cb)": ParseError,
        "(a\x00)": ParseError,
        "(\x00)": ParseError,
        "(\ud800)": ParseError,
        "(a(\ud800))": ParseError,
        "(a \ud800)": ParseError,
        "(a\u00e9)": ParseError,
        "(a\u00a0": UnbalancedError,
        "(a(b)\u2003": UnbalancedError,
        "(a))\x1c": UnbalancedError,
        "\ud800": ParseError,
    }
    for text, error in cases.items():
        with pytest.raises(ParseError) as exc:
            forest(text, interner)
        assert type(exc.value) is error, text
    F = forest("\u2003(a\u00a0(b)\x1c(c\u3000))\u00a0", interner)
    assert serialize_paren(F, interner) == "(a(b)(c))"


TOKEN = re.compile(r"[()]|[^\s()]+")


def stack_parse(text):
    """Reference paren-text parser: a token scan, then a stack walk.

    Returns (o, c, depth, label text per position) or raises the error class
    of `parse_paren_text`, checking in its documented order: token grammar,
    a dangling "(" at the end, label tokens, nesting.
    """
    toks = TOKEN.findall(text)
    for t, tok in enumerate(toks):
        if (tok not in ("(", ")")) != (t > 0 and toks[t - 1] == "("):
            raise ParseError(f"unexpected token {tok!r}")
    if toks and toks[-1] == "(":
        raise UnbalancedError("dangling '('")
    for tok in toks:
        if tok not in ("(", ")") and not re.fullmatch(r"[A-Za-z0-9_]+", tok):
            raise ParseError(f"bad label {tok!r}")
    o, c, depth, labels, stack = [], [], [], [], []
    for t, tok in enumerate(toks):
        if tok == "(":
            stack.append(len(o))
            depth.append(len(stack) - 1)
            o.append(len(labels))
            c.append(-1)
            labels.append(toks[t + 1])
        elif tok == ")":
            if not stack:
                raise UnbalancedError("unmatched ')'")
            u = stack.pop()
            c[u] = len(labels)
            labels.append(labels[o[u]])
    if stack:
        raise UnbalancedError("unclosed '('")
    return o, c, depth, labels


def random_token_text(rng, interner, syms):
    """Paren text from random tokens, or a random forest with up to three
    token edits (delete, insert, swap); labels include invalid ones, and
    valid ones of 1, 8, 9 and 16 bytes that share prefixes.  Unicode
    whitespace tokens separate the tokens around them."""
    pool = ["(", ")", "(", ")", "a", "b", "x_1", "Z9", "a-b", "\u00e9", "$x",
            "\u00a0", "\u2003", "\x1c", "a\x00", "\ud800", "abcdefgh",
            "abcdefgi", "abcdefghi", "abcdefgha", "abcdefghijklmnop",
            "abcdefghijklmnoq", "abcdefgh_jklmnop"]
    if rng.random() < 0.4:
        toks = [pool[i] for i in rng.integers(len(pool),
                                               size=int(rng.integers(0, 12)))]
    else:
        F = random_forest(rng, int(rng.integers(0, 12)), 4, syms)
        toks = TOKEN.findall(serialize_paren(F, interner))
        for _ in range(int(rng.integers(0, 4))):
            kind, at = int(rng.integers(3)), int(rng.integers(len(toks) + 1))
            if kind == 1 or not toks:
                toks.insert(at, pool[int(rng.integers(len(pool)))])
            elif kind == 0:
                del toks[min(at, len(toks) - 1)]
            else:
                b = int(rng.integers(len(toks)))
                a = min(at, len(toks) - 1)
                toks[a], toks[b] = toks[b], toks[a]
    seps = ["", " ", "\n", " \t"]
    text = ""
    for t, tok in enumerate(toks):
        text += tok
        if t + 1 < len(toks):
            words = tok not in ("(", ")") and toks[t + 1] not in ("(", ")")
            text += seps[int(rng.integers(1 if words else 0, len(seps)))]
    return text


def test_parse_matches_stack_parser(rng):
    gen = LabelInterner()
    syms = alphabet(gen, 3)
    seen = set()
    for _ in range(3000):
        text = random_token_text(rng, gen, syms)
        it = LabelInterner()
        try:
            want = stack_parse(text)
        except ParseError as exc:
            want = type(exc)
        try:
            F = parse_paren_text(text, it)
            validate(F)
            got = (F.o.tolist(), F.c.tolist(), F.depth.tolist(),
                   [it.text(s) for s in (F.codes >> 1).tolist()])
            assert (F.codes[F.o] & 1 == 0).all()
            assert (F.codes[F.c] & 1 == 1).all()
        except ParseError as exc:
            got = type(exc)
        assert got == want, text
        seen.add(want if isinstance(want, type) else "forest")
    assert seen == {"forest", ParseError, UnbalancedError}


def _pairing_error(codes):
    """Reference validation: the (error type, message) that the checked
    constructor `LabeledForest.from_codes` raises on `codes`, or None.  A
    depth walk, then a stack walk whose pairs are compared by nesting level,
    in position order within a level."""
    codes = [int(x) for x in codes]
    if len(codes) % 2:
        return UnbalancedError, "odd number of parentheses"
    depth = 0
    for x in codes:
        depth += 1 - 2 * (x & 1)
        if depth < 0:
            break
    if depth != 0:
        return UnbalancedError, "mismatched parenthesis depth"
    stack, pairs = [], []
    for p, x in enumerate(codes):
        if x & 1 == 0:
            stack.append(p)
        else:
            q = stack.pop()
            pairs.append((len(stack), q, p))
    for _, q, p in sorted(pairs):
        if codes[q] >> 1 != codes[p] >> 1:
            return (LabelMismatchError,
                    f"label of close at {p} differs from open at {q}")
    return None


def _raised(codes, build=LabeledForest.from_codes):
    try:
        build(codes)
    except (UnbalancedError, LabelMismatchError) as exc:
        return type(exc), str(exc)
    return None


def _check_pairing_errors(codes):
    """`_pair_parens` raises the constructor's UnbalancedError and nothing
    else: the labels are the constructor's to check."""
    got = _raised(codes)
    pairing = _raised(np.asarray(codes, dtype=np.int64), _pair_parens)
    assert pairing == (got if got and got[0] is UnbalancedError else None)


def test_pair_parens_errors_match_reference(rng):
    a, b, c, d = (x << 1 for x in (0, 1, 2, 3))
    cases = {
        "odd length": [a, a | 1, a],
        "negative depth": [a | 1, a],
        "non-zero final depth": [a, b, b | 1, a],
        "mismatch on the deepest level": [a, b, c, d | 1, b | 1, a | 1],
        "mismatches on two levels": [a, b, c, d | 1, a | 1, a | 1],
        "deeper mismatch first in pre-order": [a, b, c | 1, a | 1, b, c | 1],
        "negative labels": [a, -2, 1, a | 1],
    }
    want = {
        "odd length": (UnbalancedError, "odd number of parentheses"),
        "negative depth": (UnbalancedError, "mismatched parenthesis depth"),
        "non-zero final depth": (UnbalancedError,
                                 "mismatched parenthesis depth"),
        "mismatch on the deepest level": (
            LabelMismatchError, "label of close at 3 differs from open at 2"),
        "mismatches on two levels": (
            LabelMismatchError, "label of close at 4 differs from open at 1"),
        "deeper mismatch first in pre-order": (
            LabelMismatchError, "label of close at 5 differs from open at 4"),
        "negative labels": (
            LabelMismatchError, "label of close at 2 differs from open at 1"),
    }
    for name, codes in cases.items():
        assert _raised(codes) == _pairing_error(codes) == want[name], name
        _check_pairing_errors(codes)
    # random strings near balance, labels from -2 to 2, with side and label
    # flips
    seen = set()
    for _ in range(2000):
        m = int(rng.integers(0, 14))
        sides = rng.permutation(np.arange(m) % 2)
        labels = rng.integers(-2, 3, m)
        codes = (labels << 1) | sides
        if rng.random() < 0.7:  # a balanced string with matching labels
            codes, stack = [], []
            for side, label in zip(sides.tolist(), labels.tolist()):
                if side == 0 or not stack:
                    stack.append(label)
                    codes.append(label << 1)
                else:
                    codes.append((stack.pop() << 1) | 1)
            codes += [(x << 1) | 1 for x in reversed(stack)]
            for _ in range(int(rng.integers(0, 3))):
                if codes:
                    at = int(rng.integers(len(codes)))
                    codes[at] ^= int(rng.choice([1, 2, 4]))
        got = _raised(codes)
        assert got == _pairing_error(codes), codes
        _check_pairing_errors(codes)
        seen.add(got[0] if got else None)
    assert seen == {None, UnbalancedError, LabelMismatchError}


def test_label_mismatch_from_codes(interner):
    a = interner.intern("a")
    b = interner.intern("b")
    with pytest.raises(LabelMismatchError):
        LabeledForest.from_codes(np.array([a << 1, (b << 1) | 1]))


def test_paren_seq_empty_and_single(interner):
    assert len(forest("", interner).codes) == 0
    F = forest("(a)", interner)
    assert (F.codes & 1).tolist() == [0, 1]
    assert (F.codes >> 1).tolist() == [interner.intern("a")] * 2


def test_paren_positions_example(interner):
    F = forest("(a(b)(c))", interner)
    assert F.o.tolist() == [0, 1, 3]
    assert F.c.tolist() == [5, 2, 4]
    assert len(F.codes) == 2 * F.n


def test_position_index_examples(interner):
    F = forest("(a(b))", interner)
    assert F.node_at.tolist() == [0, 1, 1, 0]
    assert F.depth[F.node_at].tolist() == [0, 1, 1, 0]
    G = forest("(a)(b)", interner)
    assert G.o[1] == 2 and G.c[1] == 3
    assert G.node_at.tolist() == [0, 0, 1, 1]
    assert G.depth[G.node_at].tolist() == [0, 0, 0, 0]


def test_node_at_matches_stack_walk(interner, rng):
    # reference positions from the stack walk alone: u opens after u openings
    # and the u - depth(u) closings of the nodes before it that are not its
    # ancestors, and closes 2 * |sub(u)| - 1 positions later
    syms = alphabet(interner, 3)
    forests = [random_forest(rng, int(rng.integers(0, 60)), 6, syms)
               for _ in range(40)]
    forests += [deep_chain(rng, 3000, syms), forest("", interner)]
    for F in forests:
        size = np.ones(F.n, dtype=np.int64)
        depth = np.zeros(F.n, dtype=np.int64)
        for u, anc, _ in stack_walk(F.codes):
            depth[u] = len(anc)
            size[anc] += 1
        ids = np.arange(F.n)
        o = 2 * ids - depth
        want = np.full(2 * F.n, -1)
        want[o] = ids
        want[o + 2 * size - 1] = ids
        assert F.node_at.tolist() == want.tolist()
        assert F.depth.tolist() == depth.tolist()


def test_positions_match_recursive_oracle(interner, rng):
    syms = alphabet(interner, 3)
    for _ in range(25):
        F = random_forest(rng, int(rng.integers(0, 40)), 5, syms)
        o, c, depth = naive_positions(F)
        assert F.o.tolist() == o
        assert F.c.tolist() == c
        assert F.depth.tolist() == depth


def test_height_examples(interner):
    assert forest("", interner).height() == 0
    assert forest("(a)(b)(c)", interner).height() == 1
    assert forest("(a(b(c)))", interner).height() == 3


def test_round_trip_and_bijection(interner, rng):
    syms = alphabet(interner, 4)
    for _ in range(25):
        F = random_forest(rng, int(rng.integers(0, 60)), 6, syms)
        text = serialize_paren(F, interner)
        again = parse_paren_text(text, interner)
        assert again == F
        assert serialize_paren(again, interner) == text
        assert (F.codes[F.o] & 1 == 0).all()
        assert (F.codes[F.c] & 1 == 1).all()
        assert (F.codes[F.o] >> 1 == F.codes[F.c] >> 1).all()


def test_intervals_are_laminar(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 40, 6, syms)
    for u in range(F.n):
        for v in range(u + 1, F.n):
            a = (int(F.o[u]), int(F.c[u]))
            b = (int(F.o[v]), int(F.c[v]))
            nested = (a[0] < b[0] and b[1] < a[1]) or (b[0] < a[0] and a[1] < b[1])
            disjoint = a[1] < b[0] or b[1] < a[0]
            assert nested or disjoint


def test_json_round_trip(interner, rng):
    syms = alphabet(interner, 3)
    for _ in range(10):
        F = random_forest(rng, int(rng.integers(0, 30)), 5, syms)
        text = serialize_json(F, interner)
        again = parse_json_text(text, interner)
        assert again == F
    with pytest.raises(ParseError):
        parse_json_text('{"label": "a"}', interner)
    # JSON holds chains of JSON_MAX_HEIGHT levels and no deeper, both ways
    h = JSON_MAX_HEIGHT
    chain = forest("(a" * h + ")" * h, interner)
    assert parse_json_text(serialize_json(chain, interner), interner) == chain
    with pytest.raises(ValueError, match="too deep"):
        serialize_json(forest("(a" * (h + 1) + ")" * (h + 1), interner),
                       interner)
    deeper = '[{"label": "a", "children": ' * (h + 1) + "[]" + "}]" * (h + 1)
    with pytest.raises(ParseError, match="too deep"):
        parse_json_text(deeper, interner)


def test_parsers_pair_once_and_build_one_forest(rng, monkeypatch):
    # each parser pairs its parentheses once and builds its one forest
    # through the trusted entry, and that forest is the one the text was
    # written from: labels of up to 17 bytes, Unicode whitespace between
    # the paren-text tokens, and the empty forest
    calls = {"pair": 0, "trusted": 0, "checked": 0}
    real_pair, real_init = forest_module._pair_parens, LabeledForest.__init__

    def pair(codes):
        calls["pair"] += 1
        return real_pair(codes)

    def init(self, codes, _paired=None):
        calls["trusted" if _paired is not None else "checked"] += 1
        real_init(self, codes, _paired)

    monkeypatch.setattr(forest_module, "_pair_parens", pair)
    monkeypatch.setattr(LabeledForest, "__init__", init)
    gen = LabelInterner()
    syms = np.array([gen.intern(t) for t in (
        "a", "Z_9", "abcdefgh", "abcdefghi", "abcdefghijklmnopq")])
    seps = np.array(["", " ", "\u2003", "\u00a0\n", "\u3000\x1c"])
    for n in [0] + rng.integers(1, 40, 30).tolist():
        F = random_forest(rng, n, 5, syms)
        toks = TOKEN.findall(serialize_paren(F, gen))
        text = "".join(rng.choice(seps, len(toks)) + np.array(toks, dtype=str))
        for parse, source in ((parse_paren_text, text),
                              (parse_json_text, serialize_json(F, gen))):
            it = LabelInterner()
            calls.update(pair=0, trusted=0, checked=0)
            H = parse(source, it)
            assert calls == {"pair": 1, "trusted": 1, "checked": 0}, source
            validate(H)
            assert [it.text(s) for s in (H.codes >> 1).tolist()] == [
                gen.text(s) for s in (F.codes >> 1).tolist()]
            assert all(np.array_equal(x, y) for x, y in
                       zip((H.codes & 1, H.o, H.c, H.depth),
                           (F.codes & 1, F.o, F.c, F.depth)))


def test_serialize_json_matches_nested_dumps(interner, rng):
    # the one-pass writer gives the bytes `json.dumps` gives on the nested
    # dicts: empty, one-node and random forests, escaped labels, and a
    # chain at the height bound
    syms = np.concatenate([alphabet(interner, 3), [
        interner.intern(t) for t in ('q"x', "b\\c", "\u00e9")]])
    cases = [LabeledForest.from_codes(np.empty(0, dtype=np.int64)),
             forest("(a)", interner), forest("(a)(b(c))(d)", interner),
             forest("(a" * JSON_MAX_HEIGHT + ")" * JSON_MAX_HEIGHT, interner)]
    cases += [random_forest(rng, int(rng.integers(1, 200)),
                            int(rng.integers(1, 8)), syms) for _ in range(60)]
    for F in cases:
        assert serialize_json(F, interner) == nested_json(F, interner)


def test_serialize_json_reads_labels_once(interner, rng, monkeypatch):
    # `labels` builds the whole label array on each read; one call of
    # `serialize_json` reads it once, not once per node
    F = random_forest(rng, 300, 8, alphabet(interner, 3))
    labels = LabeledForest.labels
    reads = []

    def counted(self):
        reads.append(self)
        return labels.fget(self)

    monkeypatch.setattr(LabeledForest, "labels", property(counted))
    text = serialize_json(F, interner)
    assert len(reads) == 1
    monkeypatch.undo()
    assert parse_json_text(text, interner) == F


def test_json_labels_follow_paren_rule(interner):
    for label in ("a b", "a(b)", "", "\u00e9", "$sep0", 1.5, "x-y"):
        with pytest.raises(ParseError):
            parse_json_text(json.dumps([{"label": label}]), interner)
    F = parse_json_text('[{"label": "a_1", "children": [{"label": "7"}]}]',
                        interner)
    assert serialize_paren(F, interner) == "(a_1(7))"


def test_json_labels_must_be_strings(interner):
    # str() would turn null into "None", 5 into "5" and true into "True",
    # which then match those string labels
    for label in (None, 5, True, False, 0, [], {}, ["a"]):
        text = json.dumps([{"label": "a", "children": [{"label": label}]}])
        with pytest.raises(ParseError, match="not a JSON string"):
            parse_json_text(text, interner)
    for label in ("None", "5", "True"):
        F = parse_json_text(json.dumps([{"label": label}]), interner)
        assert serialize_paren(F, interner) == f"({label})"


_json_labels = st.one_of(st.from_regex(r"[A-Za-z0-9_]{1,3}", fullmatch=True),
                         st.text(max_size=3), st.integers(-3, 30),
                         st.booleans(), st.none())
_json_forests = st.recursive(
    st.just([]),
    lambda kids: st.lists(st.fixed_dictionaries(
        {"label": _json_labels, "children": kids}), max_size=3),
    max_leaves=12)


def _json_labels_of(trees):
    for node in trees:
        yield node["label"]
        yield from _json_labels_of(node["children"])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json_forests)
def test_json_accepted_forests_round_trip_through_paren_text(trees):
    interner = LabelInterner()
    text = json.dumps(trees)
    tokens_ok = all(isinstance(t, str) and re.fullmatch(r"[A-Za-z0-9_]+", t)
                    for t in _json_labels_of(trees))
    try:
        F = parse_json_text(text, interner)
    except ParseError:
        assert not tokens_ok
        return
    assert tokens_ok
    again = parse_paren_text(serialize_paren(F, interner), interner)
    assert np.array_equal(again.codes, F.codes)


def test_last_at_level_examples():
    level = np.array([0, 1, 2, 1, 0, 1])
    got = last_at_level(level, [0, 1, 1, 2, 0, 3, -1], [3, 3, 6, 6, 0, 6, 4])
    assert got.tolist() == [0, 1, 5, 2, -1, -1, -1]
    assert last_at_level(np.empty(0, dtype=np.int64), [0], [0]).tolist() == [-1]


def _pair_parens_int64(codes):
    """Reference pairing: `_pair_parens` as it was, with the nesting levels
    ordered by a stable argsort of int64 keys (no validation)."""
    sides = (codes & 1).astype(np.int64)
    E = np.cumsum(1 - 2 * sides)
    order = np.argsort(E + sides, kind="stable")
    o = np.flatnonzero(sides == 0)
    c = np.empty(len(o), dtype=np.int64)
    c[(np.cumsum(1 - sides) - 1)[order[0::2]]] = order[1::2]
    return o, c, E[o] - 1


def _last_int64(level, q_level, q_pos):
    """Reference `level_search` query over int64 argsort keys."""
    scale = len(level) + 1
    order = np.argsort(level, kind="stable")
    keys = level[order] * scale + order
    at = np.searchsorted(keys, q_level * scale + q_pos) - 1
    found = order[np.maximum(at, 0)]
    return np.where((at >= 0) & (level[found] == q_level), found, -1)


def _check_pairing_and_levels(codes, rng):
    codes = np.asarray(codes, dtype=np.int64)
    got = _pair_parens(codes)
    want = _pair_parens_int64(codes)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    depth = got[2]
    if len(depth) == 0:
        return
    ids = np.arange(len(depth), dtype=np.int64)
    # every node's parent and a random ancestor, plus queries that miss
    up = rng.integers(0, depth + 1)
    q_level = np.concatenate([depth - 1, depth - up, depth + 1,
                              rng.integers(-1, depth.max() + 2, len(depth))])
    q_pos = np.concatenate([ids, ids, ids, rng.integers(0, len(depth) + 1,
                                                        len(depth))])
    assert np.array_equal(level_search(depth)(q_level, q_pos),
                          _last_int64(depth, q_level, q_pos))


@st.composite
def _forest_codes(draw):
    """A random balanced code string: each step opens a node with a drawn
    label or closes the innermost open one."""
    steps = draw(st.lists(st.tuples(st.booleans(), st.integers(0, 3)),
                          max_size=200))
    codes, stack = [], []
    for opens, label in steps:
        if opens or not stack:
            stack.append(label)
            codes.append(label << 1)
        else:
            codes.append((stack.pop() << 1) | 1)
    codes += [(label << 1) | 1 for label in reversed(stack)]
    return codes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_forest_codes(), st.integers(0, 2**32 - 1))
def test_pairing_and_level_search_match_int64_sort(codes, seed):
    _check_pairing_and_levels(codes, np.random.default_rng(seed))


def _same_as_paired(H, codes) -> bool:
    """True iff forest H has the code string `codes` and its pairing."""
    codes = np.asarray(codes, dtype=np.int64)
    return (np.array_equal(H.codes, codes)
            and all(np.array_equal(got, want) for got, want
                    in zip((H.o, H.c, H.depth), _pair_parens(codes))))


def test_context_forest_by_content(interner, rng):
    # the query context pairs each string once while it is among the
    # latest two, and an equal string (another array) gets that forest; the
    # strings share one length, so only their content tells them apart
    syms = alphabet(interner, 3)
    A, B, C = (random_forest(rng, 40, 6, syms).codes for _ in range(3))
    assert len(A) == len(B) == len(C) and len({A.tobytes(), B.tobytes(),
                                               C.tobytes()}) == 3
    ctx = query(1)
    fa, fb = ctx.forest(A), ctx.forest(B)
    assert ctx.forest(A.copy()) is fa and fb is not fa
    assert _same_as_paired(fa, A) and _same_as_paired(fb, B)
    assert ctx.timings == {"forests_built": 2, "forests_reused": 1,
                           "fingerprints_built": 0, "fingerprints_reused": 0}
    # C drops A, the older of the two kept: A is paired again, not stale
    fc, again = ctx.forest(C), ctx.forest(A)
    assert again is not fa and fc is not fb
    assert _same_as_paired(fc, C) and _same_as_paired(again, A)
    assert ctx.forest(C) is fc
    assert ctx.timings == {"forests_built": 4, "forests_reused": 2,
                           "fingerprints_built": 0, "fingerprints_reused": 0}


@st.composite
def _near_forest_codes(draw):
    """A balanced code string (`_forest_codes`), or one with a code dropped
    or with its side or label bit flipped."""
    codes = draw(_forest_codes())
    how = draw(st.sampled_from(["keep", "drop", "side", "label"]))
    if codes and how != "keep":
        at = draw(st.integers(0, len(codes) - 1))
        if how == "drop":
            del codes[at]
        else:
            codes[at] ^= 1 if how == "side" else 2
    return codes


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_near_forest_codes(), min_size=1, max_size=4))
@example([[0, 1], [2, 3], [0, 1]])  # one length, two contents
@example([[0, 1], [0, 3], [0, 1]])  # the second string is malformed
def test_context_forest_matches_from_codes(strings):
    # each string, in order, gets the forest `from_codes` builds for it, or
    # the same error with the same message
    ctx = query(1)
    for codes in strings:
        codes = np.array(codes, dtype=np.int64)
        want = _raised(codes)
        try:
            H = ctx.forest(codes)
        except ParseError as exc:
            assert (type(exc), str(exc)) == want
            continue
        assert want is None and _same_as_paired(H, codes)


def test_pairing_and_level_search_across_key_types(rng):
    # the sort key type switches at levels 256 (uint8 -> uint16) and 65536
    # (uint16 -> uint32); chains of those heights, with sibling trees around
    # them, cross each switch
    a, b = 3, 5
    tail = [b << 1, a << 1, (a << 1) | 1, (b << 1) | 1, a << 1, (a << 1) | 1]
    for height, key in ((255, np.uint8), (256, np.uint16), (257, np.uint16),
                        (65535, np.uint16), (65536, np.uint32),
                        (65537, np.uint32)):
        labs = rng.integers(0, 4, height)
        chain = np.concatenate([labs << 1, (labs[::-1] << 1) | 1])
        codes = np.concatenate([tail, chain, tail])
        level = np.cumsum(1 - 2 * (codes & 1)) + (codes & 1)
        assert np.min_scalar_type(level.max()) == key
        _check_pairing_and_levels(codes, rng)


def test_parse_interns_new_labels_in_sorted_order():
    # labels already interned keep their symbols; new ones get the next
    # symbols in sorted text order, whatever order they appear in
    interner = LabelInterner()
    interner.intern("m")
    F = parse_paren_text("(z(b)(m(B)(a_2))(a)(b))", interner)
    assert [interner.text(s) for s in range(6)] == ["m", "B", "a", "a_2",
                                                   "b", "z"]
    assert (F.labels.tolist()
            == [interner.intern(t) for t in ("z", "b", "m", "B", "a_2", "a",
                                             "b")])


def test_parse_interns_across_label_lengths_in_sorted_order(rng):
    # labels of 1 to 20 bytes, sharing prefixes, some interned beforehand:
    # those keep their symbols, and the new ones get the next symbols in
    # sorted text order across all lengths ("aa" before "b", a 9-byte label
    # before a 2-byte one)
    chars = np.array(list("ab_Z9"))
    for _ in range(200):
        pool = ["aa", "b", "abcdefghi", "ac"]
        pool += ["".join(rng.choice(chars, int(rng.integers(1, 21))).tolist())
                 for _ in range(int(rng.integers(0, 12)))]
        picks = rng.choice(len(pool), int(rng.integers(1, 30)))
        labels = [pool[i] for i in picks]
        interner = LabelInterner()
        known = list(dict.fromkeys(pool[i] for i in rng.choice(
            len(pool), int(rng.integers(0, 4)))))
        for t in known:
            interner.intern(t)
        F = parse_paren_text("".join(f"({t})" for t in labels), interner)
        want = known + sorted(set(labels) - set(known))
        assert [interner.text(s) for s in range(len(want))] == want
        assert F.labels.tolist() == [interner.intern(t) for t in labels]


def _level_parents(F):
    """Each node's ancestor one level up, by `last_at_level`."""
    return last_at_level(F.depth, F.depth - 1, np.arange(F.n))


def test_parent_matches_stack_walk(interner, rng):
    syms = alphabet(interner, 3)
    assert _level_parents(LabeledForest.from_codes([])).tolist() == []
    for _ in range(60):
        F = random_forest(rng, int(rng.integers(1, 120)),
                          int(rng.integers(1, 25)), syms,
                          branch=float(rng.uniform(0.3, 0.95)))
        assert np.array_equal(_level_parents(F), parents(F))
    F = deep_chain(rng, 20_200, syms)
    assert F.height() == 20_200
    assert np.array_equal(_level_parents(F), parents(F))


def test_children_and_roots(interner):
    F = forest("(a(b)(c))(d)", interner)
    assert np.flatnonzero(F.depth == 0).tolist() == [0, 3]
    assert np.flatnonzero(parents(F) == 0).tolist() == [1, 2]
    assert np.flatnonzero(parents(F) == 1).tolist() == []
    assert F.subtree_end.tolist() == [3, 2, 3, 4]


def test_validate_ok(interner, rng):
    syms = alphabet(interner, 2)
    F = random_forest(rng, 30, 4, syms)
    validate(F)
    # the trusted entry takes its pairing as given; validate re-checks the
    # labels of each node's two parentheses
    codes = F.codes.copy()
    codes[F.c[int(rng.integers(F.n))]] ^= 2
    with pytest.raises(ValueError):
        validate(LabeledForest(codes, (F.o, F.c, F.depth)))


def test_interner_injective():
    it = LabelInterner()
    a1 = it.intern("x")
    a2 = it.intern("x")
    b = it.intern("y")
    assert a1 == a2 != b
    assert (it.text(a1), it.text(b)) == ("x", "y")
