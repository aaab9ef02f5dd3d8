"""Internal contracts are explicit checks that raise ContractError.

Each test breaks one producer so that a contract no longer holds and checks
that the consumer reports it; the checks are plain `if`/`raise`, so they run
under ``python -O`` too.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tedk
import tedk.horizontal
import tedk.labeling
import tedk.partial
import tedk.shallow
import tedk.vertical
from tedk.context import QueryContext
from tedk.errors import ContractError, FingerprintCollisionError
from tedk.forest import LabeledForest
from tedk.horizontal import sync_reductions
from tedk.labeling import JointLabeling, compat_refine, lookahead_refine
from tedk.partial import reduce_height
from tedk.shallow import shallow_ted
from tedk.vertical import compute_contexts, vert_sync_reductions

from conftest import forest, query

SRC = Path(tedk.__file__).parent
BENCH = Path(__file__).parents[1] / "bench"


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def traced_attributes():
    """The attribute field of every `bench/tracing.py` site: the tracer
    reaches those functions by name."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    sites = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SITES"])
    return {site.elts[2].value for site in sites.elts}


def overriding_methods(path, tree):
    """Line numbers of the methods that override a base class's method; the
    base class calls them (`cli._Parser.error` is called by argparse)."""
    module = importlib.import_module(f"tedk.{path.stem}")
    lines = set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            bases = getattr(module, cls.name).__mro__[1:]
            lines |= {f.lineno for f in cls.body
                      if isinstance(f, ast.FunctionDef)
                      and any(hasattr(b, f.name) for b in bases)}
    return lines


def module_constants(tree):
    """(line, name) of every name that a module-level assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((t.lineno, t.id) for target in targets
                        for t in ast.walk(target) if isinstance(t, ast.Name))


def test_no_unused_names_in_package():
    # every function, class, method and module-level constant outside the
    # public API is reached from the package or the benchmark; helpers and
    # constants only tests need live in tests/.  Uses in `__init__.py` are
    # re-exports, so they do not count; a method or property counts as
    # reached only through an attribute read in the package or a traced
    # site of the benchmark (a local variable of the same name, or an
    # attribute of another class in the benchmark, does not reach it), and
    # a constant only where it is read
    names, reads, attrs = set(), set(), traced_attributes()
    member_reads = traced_attributes()
    for path in sorted(SRC.glob("*.py")) + sorted(BENCH.glob("*.py")):
        if path == SRC / "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    reads.add(node.attr)
                    if path.parent == SRC:
                        member_reads.add(node.attr)
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        overrides = overriding_methods(path, tree)
        methods = {f.lineno for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for f in cls.body
                   if isinstance(f, ast.FunctionDef)}
        unused += [f"{path.name}:{node.lineno} {node.name}"
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                   and not (node.name.startswith("__")
                            and node.name.endswith("__"))
                   and node.name not in tedk.__all__
                   and (node.name not in member_reads
                        if node.lineno in methods
                        else node.name not in names | attrs)
                   and node.lineno not in overrides]
        unused += [f"{path.name}:{line} {name}"
                   for line, name in module_constants(tree)
                   if not (name.startswith("__") and name.endswith("__"))
                   and name not in tedk.__all__ and name not in reads]
    assert unused == []


def test_labeling_refines_contract(interner, monkeypatch):
    # the look-ahead checks each forest's classes against its own labels:
    # G's are F's reversed, so neither forest's labels stand in for both
    F = forest("(a(b)(c))", interner)
    G = forest("(c(b)(a))", interner)
    lookahead_refine(F, G, 1, QueryContext(1, 0x1234567))
    labels = F.labels
    lab = JointLabeling(labels, labels)
    merged = np.zeros(F.n, dtype=np.int64)
    monkeypatch.setattr(tedk.labeling, "_dense_joint",
                        lambda fp_f, fp_g: JointLabeling(merged, merged))
    with pytest.raises(ContractError):
        lookahead_refine(F, G, 2, QueryContext(1, 0x1234567))
    # one component over the graph's nodes: F's alone on the one-sided
    # path (G is F with F's label array on both sides), both forests' on
    # the two-sided one
    monkeypatch.setattr(tedk.labeling, "_components",
                        lambda r, c, n: np.zeros(n, dtype=np.int64))
    with pytest.raises(ContractError):
        compat_refine(F, F, lab, 2)
    with pytest.raises(ContractError):
        compat_refine(F, G, JointLabeling(F.labels, G.labels), 2)


def test_lookahead_audit_contract(interner, monkeypatch):
    # classes that only the audit's second base merges are a collision
    F = forest("(a(b)(c))", interner)
    ctx = QueryContext(1, 0x1234567, audit=True)
    real = tedk.labeling._subtree_fingerprints

    def merged_under_audit(H, d, state):
        fp = real(H, d, state)
        return fp if state is ctx else np.zeros_like(fp)

    lookahead_refine(F, F, 2, QueryContext(1, 0x1234567, audit=True))
    monkeypatch.setattr(tedk.labeling, "_subtree_fingerprints",
                        merged_under_audit)
    with pytest.raises(FingerprintCollisionError):
        lookahead_refine(F, F, 2, ctx)


def test_partial_leaf_contract(interner, monkeypatch):
    # without the marked classes, a matched inner node keeps its children
    F = forest("(a(b))", interner)
    monkeypatch.setattr(tedk.partial, "_marked_class",
                        lambda H, marked: np.zeros(H.n, dtype=np.int64))
    with pytest.raises(ContractError):
        reduce_height(F, F, [[0, 0]], query(1))


def test_horizontal_overlap_contract(interner, monkeypatch):
    F = forest("(a)" * 60, interner)
    sites = np.array([[10, 10, 2, 14], [4, 4, 2, 14]])
    monkeypatch.setattr(tedk.horizontal, "sync_occurrences",
                        lambda F, G, ctx: sites)
    with pytest.raises(ContractError):
        sync_reductions(F, F, query(1))


def test_vertical_exponent_contract(interner, monkeypatch):
    F = forest("(a" * 30 + ")" * 30, interner)
    monkeypatch.setattr(tedk.vertical, "vert_periods",
                        lambda F, G, ctx: np.array([[0, 0, 2, 2, 13]]))
    with pytest.raises(ContractError):
        vert_sync_reductions(F, F, query(1))


def test_vertical_endpoint_contract(interner, monkeypatch):
    # an opening anchored to a run that ends before it points outside sub(u)
    F = forest("(a" * 30 + ")" * 30, interner)
    real = tedk.vertical.compute_q

    def backward(F, ctx):
        q, end = real(F, ctx)
        end[0] = -5
        return q, end

    assert len(compute_contexts(F, query(1)))
    monkeypatch.setattr(tedk.vertical, "compute_q", backward)
    with pytest.raises(ContractError):
        compute_contexts(F, query(1))


def test_shallow_loss_contract(interner, rng, monkeypatch):
    # a shared core that misses more nodes of F1 than the witness accounts
    # for is an internal fault, not distance > k: at h = k = 1 the allowed
    # loss is 15 * 18 * 2**2 * 2 = 2,160 of 3,000 distinct leaves
    syms = rng.permutation([interner.intern(f"x{i}") for i in range(3000)])
    codes = np.stack([syms << 1, (syms << 1) | 1], axis=1).ravel()
    F, G = LabeledForest.from_codes(codes), LabeledForest.from_codes(codes)
    assert shallow_ted(F, G, 1, query(1)) == 0
    monkeypatch.setattr(tedk.shallow, "common_matching_core",
                        lambda X, Y, k, w, e: np.empty((0, 2), dtype=np.int64))
    with pytest.raises(ContractError, match="misses more than 2160 of 3000"):
        shallow_ted(F, G, 1, query(1))


OPTIMIZED_CHECKS = """
import numpy as np
import tedk.labeling as labeling
from tedk.alignment import eval_alignment
from tedk.forest import LabeledForest, LabelInterner, parse_paren_text
from tedk.context import QueryContext
from tedk.labeling import JointLabeling

def raised(call):
    try:
        call()
    except Exception as exc:
        return type(exc).__name__
    return "nothing"

F = parse_paren_text("(a(b)(c))", LabelInterner())
labels = F.labels
lab = JointLabeling(labels, labels)
merged = np.zeros(F.n, dtype=np.int64)
print("debug", __debug__)
print("refines", labeling.refines(JointLabeling(np.array([0, 0]), merged[:0]),
                                  JointLabeling(np.array([0, 1]), merged[:0])))
real = labeling._dense_joint
labeling._dense_joint = lambda fp_f, fp_g: JointLabeling(merged, merged)
print("lookahead", raised(lambda: labeling.lookahead_refine(
    F, F, 2, QueryContext(1, 0x1234567))))
labeling._dense_joint = real
G = parse_paren_text("(c(b)(a))", LabelInterner())
# a loop on a one-node graph: the round bound allows no round, and the
# edge is left over
print("rounds", raised(lambda: labeling._components(
    np.array([0]), np.array([0]), 1)))
labeling._components = lambda r, c, n: np.zeros(n, dtype=np.int64)
print("compat", raised(lambda: labeling.compat_refine(F, F, lab, 2)))
print("compat", raised(lambda: labeling.compat_refine(
    F, G, JointLabeling(F.labels, G.labels), 2)))
print("odd", raised(lambda: LabeledForest.from_codes([0, 0, 1])))
print("depth", raised(lambda: LabeledForest.from_codes([1, 0])))
print("label", raised(lambda: LabeledForest.from_codes([0, 3])))
ctx = QueryContext(1, 0x1234567)
for codes in ([0, 0, 1], [1, 0], [0, 3]):
    print("context", raised(lambda: ctx.forest(np.array(codes))))
print("parse", raised(lambda: parse_paren_text("(a))", LabelInterner())))
print("alignment", raised(lambda: eval_alignment(np.array([(0, 0), (1, 1)]),
                                                 "ab", "ab")))
"""


def test_contracts_survive_python_O():
    # the refinement, pairing and alignment checks are plain if/raise:
    # python -O, which strips assert statements, still runs them, also on
    # the query context's path to `from_codes`
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n") == [
        "debug False", "refines False", "lookahead ContractError",
        "rounds ContractError", "compat ContractError", "compat ContractError", "odd UnbalancedError",
        "depth UnbalancedError", "label LabelMismatchError", "context UnbalancedError",
        "context UnbalancedError", "context LabelMismatchError",
        "parse UnbalancedError",
        "alignment MalformedAlignmentError", ""]
