"""Span tracing of the engine's layers, from outside the library.

Each layer's public entry point is replaced, at the import site its caller
uses, by a wrapper that records a span (name, query id, parent span, start,
end) plus a few counts read off its arguments and result.  Spans stay in
memory; the worker turns them into per-layer metrics after the run and writes
them out.  Only one query runs at a time (threads=1), so a stack gives each
span its parent.

A renamed or moved entry point makes `install` raise instead of silently
dropping a layer, and `coverage_errors` fails a run in which a layer fired
where it must not, or stayed silent where it must fire.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

ROOT = "engine.run"


@dataclass
class Span:
    name: str
    query: int
    parent: int  # index into Tracer.spans, -1 for the query root
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)


# -- probes: O(1)-ish counts taken from (args, result) after the span ends ---

def _pair_nodes(args, out):
    return {"nodes_in": args[0].n + args[1].n, "nodes_out": out[0].n + out[1].n}


def _reduced_nodes(args, out):
    return {"nodes_out": out.f.n + out.g.n}


def _partial_nodes(args, out):
    return {"nodes_out": out[0].n + out[1].n}


def _oracle(args, out):
    return {"kernel_nodes": args[0].n + args[1].n, "equal_exit": int(out == 0)}


def _anchor(args, out):
    return {"anchor_reject": int(out is None)}


def _shared(args, out):
    return {"shared_pairs": len(out)}


def _classes(args, out):
    # compat_refine returns connected-component ids, which are non-negative
    return {"classes": int(np.count_nonzero(np.bincount(
        np.concatenate([out.f, out.g])))) if len(out.f) + len(out.g) else 0}


def _chars(args, out):
    return {"chars": len(args[1])}  # args[0] is the HashedSeq being built


def _shallow(args, out):
    return {"inf_return": int(out == math.inf)}


# (module, owner inside the module or "", attribute, span name, probe)
SITES = [
    ("tedk.engine", "", "reduce_and_anchor", "reduction.reduce_and_anchor", _reduced_nodes),
    ("tedk.engine", "", "shallow_ted", "shallow.shallow_ted", _shallow),
    ("tedk.engine", "", "partial_reduce", "partial.partial_reduce", _partial_nodes),
    ("tedk.shallow", "", "partial_reduce", "partial.partial_reduce", _partial_nodes),
    ("tedk.partial", "", "reduce_height", "partial.reduce_height", None),
    ("tedk.partial", "", "prune_redundant", "partial.prune_redundant", None),
    ("tedk.partial", "", "gadget", "partial.gadget", None),
    ("tedk.shallow", "", "ted_threshold", "oracle.ted_threshold", _oracle),
    ("tedk.shallow", "", "common_matching_core", "alignment.common_matching_core", _shared),
    ("tedk.reduction", "", "greedy_bounded_align", "alignment.greedy_bounded_align", _anchor),
    ("tedk.alignment", "", "greedy_bounded_align", "alignment.greedy_bounded_align", None),
    ("tedk.reduction", "", "lookahead_refine", "labeling.lookahead_refine", None),
    ("tedk.shallow", "", "lookahead_refine", "labeling.lookahead_refine", None),
    ("tedk.reduction", "", "compat_refine", "labeling.compat_refine", _classes),
    ("tedk.hashing", "HashedSeq", "__init__", "hashing.HashedSeq", _chars),
    ("tedk.reduction", "", "sync_reductions", "horizontal.sync_reductions", _pair_nodes),
    ("tedk.shallow", "", "sync_reductions", "horizontal.sync_reductions", _pair_nodes),
    ("tedk.reduction", "", "vert_sync_reductions", "vertical.vert_sync_reductions", _pair_nodes),
    ("tedk.horizontal", "", "compute_runs", "indexes.compute_runs", None),
    ("tedk.forest", "LabeledForest", "from_codes", "forest.from_codes", None),
]

SPAN_NAMES = sorted({s[3] for s in SITES} | {ROOT})


class MissingSiteError(RuntimeError):
    """A traced entry point no longer exists where its caller imports it."""


def resolve_sites(sites=SITES) -> list:
    """(owner object, attribute, raw __dict__ entry, name, probe) per site."""
    out = []
    for module, owner, attr, name, probe in sites:
        try:
            obj = importlib.import_module(module)
            obj = getattr(obj, owner) if owner else obj
            raw = vars(obj)[attr]
        except (ImportError, AttributeError, KeyError) as exc:
            where = f"{module}.{owner + '.' if owner else ''}{attr}"
            raise MissingSiteError(f"traced entry point {where} is gone") from exc
        out.append((obj, attr, raw, name, probe))
    return out


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.query = -1
        self._installed: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, self.query, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if probe is not None:
                span.counts = probe(args, out)
            return out
        return traced

    def run_query(self, query: int, fn, *args):
        """Call fn(*args) as the root span of query `query`."""
        self.query = query
        span = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(span)

    # -- installation at import sites ----------------------------------------

    def install(self) -> None:
        for obj, attr, raw, name, probe in resolve_sites():
            if isinstance(raw, staticmethod):
                new = staticmethod(self.wrap(name, raw.__func__, probe))
            else:
                new = self.wrap(name, raw, probe)
            setattr(obj, attr, new)
            self._installed.append((obj, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            obj, attr, raw = self._installed.pop()
            setattr(obj, attr, raw)


# -- analysis ----------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def consistency_errors(spans: list[Span], reports: list[dict]) -> list[str]:
    """Trace invariants that hold for any correct run of the engine."""
    errors = []
    own = self_times(spans)
    total: dict[int, float] = defaultdict(float)
    root_dur: dict[int, float] = {}
    for i, s in enumerate(spans):
        total[s.query] += own[i]
        if s.parent < 0:
            if s.name != ROOT or s.query in root_dur:
                errors.append(f"query {s.query}: stray root span {s.name}")
            root_dur[s.query] = s.end - s.start
        else:
            p = spans[s.parent]
            if p.query != s.query or s.start < p.start or s.end > p.end:
                errors.append(f"query {s.query}: {s.name} outside its parent {p.name}")
        if own[i] < -1e-9:
            errors.append(f"query {s.query}: {s.name} has negative self time")
        if s.name in ("horizontal.sync_reductions", "vertical.vert_sync_reductions"):
            if s.counts["nodes_out"] > s.counts["nodes_in"]:
                errors.append(f"query {s.query}: {s.name} grew "
                              f"{s.counts['nodes_in']} -> {s.counts['nodes_out']} nodes")
    for q, dur in root_dur.items():
        if abs(total[q] - dur) > 1e-6 * max(dur, 1e-3):
            errors.append(f"query {q}: self times sum to {total[q]:.6f} s, "
                          f"query took {dur:.6f} s")
    for rep in reports:
        if rep["kept"] > rep["rounds"]:
            errors.append(f"query {rep['query']}: kept {rep['kept']} of "
                          f"{rep['rounds']} rounds")
    return errors


def _layer_sums(spans: list[Span]) -> dict:
    """Per span name: calls, summed self time, summed outermost duration
    (a span nested in one of the same name is not counted twice), and the
    sum and maximum of each count."""
    own = self_times(spans)
    sums = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                "sum": defaultdict(int), "max": defaultdict(int)} for n in SPAN_NAMES}
    for i, s in enumerate(spans):
        st = sums[s.name]
        st["calls"] += 1
        st["self_s"] += own[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            st["total_s"] += s.end - s.start
        for key, val in s.counts.items():
            st["sum"][key] += val
            st["max"][key] = max(st["max"][key], val)
    return sums


# (span name, which of calls/self/total to report,
#  [(count key, metric name, "sum" per query or "max" over the run)])
LAYERS = [
    ("oracle.ted_threshold", ("calls", "self"),
     [("kernel_nodes", "oracle.kernel_nodes.max", "max"),
      ("equal_exit", "oracle.equal_exits", "sum")]),
    ("partial.partial_reduce", ("calls",), [("nodes_out", "partial.nodes_out", "sum")]),
    ("partial.reduce_height", ("self",), []),
    ("partial.prune_redundant", ("self",), []),
    ("partial.gadget", ("self",), []),
    ("alignment.greedy_bounded_align", ("calls", "self"),
     [("anchor_reject", "alignment.anchor_rejects", "sum")]),
    ("alignment.common_matching_core", ("calls", "self"),
     [("shared_pairs", "alignment.shared_pairs", "sum")]),
    ("labeling.lookahead_refine", ("self",), []),
    ("labeling.compat_refine", ("self",), [("classes", "labeling.classes", "sum")]),
    ("hashing.HashedSeq", ("calls", "self"), [("chars", "hashing.chars", "sum")]),
    ("horizontal.sync_reductions", ("calls", "self"),
     [("nodes_in", "horizontal.nodes_in", "sum"),
      ("nodes_out", "horizontal.nodes_out", "sum")]),
    ("vertical.vert_sync_reductions", ("calls", "self"),
     [("nodes_in", "vertical.nodes_in", "sum"),
      ("nodes_out", "vertical.nodes_out", "sum")]),
    ("indexes.compute_runs", ("calls", "self"), []),
    ("reduction.reduce_and_anchor", ("self", "total"),
     [("nodes_out", "reduction.nodes_out", "sum")]),
    ("shallow.shallow_ted", ("calls", "self", "total"),
     [("inf_return", "shallow.inf_returns", "sum")]),
    ("forest.from_codes", ("calls", "self"), []),
    (ROOT, ("self",), []),
]

COUNT_UNIT = {"kernel_nodes": "nodes", "equal_exit": "count",
              "nodes_out": "nodes", "nodes_in": "nodes", "anchor_reject": "count",
              "shared_pairs": "count", "classes": "count", "chars": "count",
              "inf_return": "count"}


def layer_metrics(spans: list[Span], reports: list[dict]) -> dict:
    """Per-layer metrics of a traced run: {name: (value, unit)}.

    Counts and times are means per traced query (maxima where named .max).
    Each time in seconds also appears as a share of the summed traced query
    time (`.self_share`, `.total_share`), which is 0 rather than absent
    where a layer does not run.
    """
    q = max(1, len(reports))
    sums = _layer_sums(spans)
    query_total = sum(s.end - s.start for s in spans if s.parent < 0) or math.nan
    out: dict = {}
    for span, kinds, counts in LAYERS:
        st = sums[span]
        if "calls" in kinds:
            out[f"{span}.calls"] = (st["calls"] / q, "count")
        for kind in ("self", "total"):
            if kind in kinds:
                out[f"{span}.{kind}_s"] = (st[f"{kind}_s"] / q, "s")
                out[f"{span}.{kind}_share"] = (st[f"{kind}_s"] / query_total, "ratio")
        for key, name, how in counts:
            val = st["max"][key] if how == "max" else st["sum"][key] / q
            out[name] = (val, COUNT_UNIT[key])
    for layer in ("horizontal", "vertical"):
        out[f"{layer}.nodes_cut"] = (out[f"{layer}.nodes_in"][0]
                                     - out[f"{layer}.nodes_out"][0], "nodes")
    rounds = sum(r["rounds"] for r in reports)
    rounds_s = sum(r["rounds_s"] for r in reports)
    out["engine.rounds"] = (rounds / q, "count")
    out["engine.rounds_kept"] = (sum(r["kept"] for r in reports) / q, "count")
    out["engine.rounds_s"] = (rounds_s / q, "s")
    out["engine.rounds_share"] = (rounds_s / query_total, "ratio")
    out["engine.round_s.mean"] = (rounds_s / rounds if rounds else 0.0, "s")
    return out


ANCHOR_LAYERS = {"reduction.reduce_and_anchor", "horizontal.sync_reductions",
                 "vertical.vert_sync_reductions", "labeling.lookahead_refine",
                 "labeling.compat_refine", "hashing.HashedSeq",
                 "indexes.compute_runs", "alignment.greedy_bounded_align",
                 "forest.from_codes"}
SOLVE_LAYERS = {"shallow.shallow_ted", "alignment.common_matching_core",
                "partial.partial_reduce", "partial.reduce_height",
                "partial.prune_redundant", "partial.gadget", "oracle.ted_threshold"}


def coverage_errors(spans: list[Span], metrics: dict, solves: bool,
                    sampling: bool, kernel_differs: bool) -> list[str]:
    """Layers that fired where they must not, or stayed silent where they
    must fire, for a workload with the given properties."""
    fired = {s.name for s in spans}
    errors = [f"{n} never ran" for n in sorted(ANCHOR_LAYERS - fired)]
    if solves:
        errors += [f"{n} never ran" for n in sorted(SOLVE_LAYERS - fired)]
    else:
        errors += [f"{n} ran after the anchor rejected"
                   for n in sorted(SOLVE_LAYERS & fired)]
    m = {k: v for k, (v, _) in metrics.items()}
    if (m["alignment.anchor_rejects"] > 0) == solves:
        errors.append(f"alignment.anchor_rejects = {m['alignment.anchor_rejects']}")
    if (m["engine.rounds"] > 0) != sampling:
        errors.append(f"engine.rounds = {m['engine.rounds']}")
    if solves:
        dp = m["oracle.ted_threshold.calls"] > m["oracle.equal_exits"]
        if dp != kernel_differs:
            errors.append(f"oracle.ted_threshold did {'' if dp else 'no '}DP work "
                          f"({m['oracle.equal_exits']} equal exits in "
                          f"{m['oracle.ted_threshold.calls']} calls per query)")
    return errors
