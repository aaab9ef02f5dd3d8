import numpy as np
import pytest

from tedk.forest import LabeledForest, LabelInterner, parse_paren_text


@pytest.fixture
def interner():
    return LabelInterner()


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(0xC0FFEE)))


def forest(text, it):
    return parse_paren_text(text, it)


def stack_walk(codes, marked=()):
    """Reference level ancestors, read off the parenthesis codes with a stack.

    Yields (u, anc, marked_anc) per node u in pre-order: u's proper ancestors
    and its marked proper ancestors, root first.  Both are live lists, valid
    until the next step.
    """
    marked = set(int(v) for v in marked)
    anc, marked_anc = [], []
    u = 0
    for code in np.asarray(codes).tolist():
        if code & 1 == 0:
            yield u, anc, marked_anc
            anc.append(u)
            if u in marked:
                marked_anc.append(u)
            u += 1
        else:
            w = anc.pop()
            if marked_anc and marked_anc[-1] == w:
                marked_anc.pop()


def deep_chain(rng, depth, syms, leaf_every=67):
    """A chain `depth` levels deep with a leaf hung every `leaf_every` levels,
    labels drawn from `syms` (the shape of the benchmark's deep workload)."""
    labs = syms[rng.integers(len(syms), size=depth)].tolist()
    codes = []
    for level, lab in enumerate(labs):
        codes.append(lab << 1)
        if level % leaf_every == 13:
            s = int(syms[rng.integers(len(syms))])
            codes += [s << 1, (s << 1) | 1]
    codes += [(lab << 1) | 1 for lab in reversed(labs)]
    return LabeledForest.from_codes(np.array(codes, dtype=np.int64))


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
