"""Self-test of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Instance  # noqa: E402

F_TEXT = "(a(b(c)(d))(e))(f(g))"
G_TEXT = "(a(b(c)(x))(e))(f(g)(h))"  # one relabel and one insertion apart


def tiny(expected, k=2, g_text=G_TEXT) -> Instance:
    return Instance(F_TEXT, g_text, k, "auto", 7, expected, 7, 8, 0)


def failed_frac(res: dict) -> float:
    line = next(ln for ln in res["lines"] if "failed_frac" in ln)
    return float(line.split()[1])


def declared(section: str) -> dict:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_correct_answers_pass():
    res = run.run_workload(WORKLOADS["edited"], 0, 0.0, False, [tiny(2), tiny(None)])
    assert res["json"]["correct"] and res["json"]["failed"] == 0
    assert failed_frac(res) == 0.0
    assert {n: m["unit"] for n, m in res["json"]["metrics"].items()} == declared("end_to_end")


def test_wrong_expected_value_counts_as_failed():
    # queries alternate between the two instances; the second expects 1, not 2
    res = run.run_workload(WORKLOADS["edited"], 0, 0.2, False, [tiny(2), tiny(1)])
    out = res["json"]
    assert not out["correct"]
    assert out["attempted"] >= 2 and out["failed"] == out["attempted"] // 2
    assert failed_frac(res) == pytest.approx(out["failed"] / out["attempted"], rel=1e-5)


def test_exception_counts_as_failed():
    # the engine rejects k = 0 with ValueError; the oracle answers 0
    res = run.run_workload(WORKLOADS["identical"], 0, 0.0, False,
                           [tiny(0, k=0, g_text=F_TEXT)])
    assert res["json"]["failed"] == 1 and failed_frac(res) == 1.0
    assert any("ValueError" in e for e in res["errors"])


def test_traced_run_is_consistent():
    res = run.run_workload(WORKLOADS["edited"], 0, 0.0, True, [tiny(2)])
    assert res["json"]["failed"] == 0
    assert {n: m["unit"] for n, m in res["json"]["metrics"].items()} == declared("per_layer")
    assert not any("self times" in e or "outside its parent" in e for e in res["errors"])
    metrics = res["json"]["metrics"]
    assert metrics["shallow.shallow_ted.calls"]["value"] == 1
    assert all(m["unit"] in run.RESULT_UNITS or n in run.TRACE_TIMES
               for n, m in metrics.items())


def test_spread_order_prefixes_cover_the_range():
    order = workloads.spread_order(12)
    assert sorted(order) == list(range(12))
    assert sorted(order[:4]) == [0, 2, 4, 8]


def test_missing_entry_point_fails():
    site = ("tedk.shallow", "", "no_such_function", "x.y", None)
    with pytest.raises(tracing.MissingSiteError):
        tracing.resolve_sites([site])


def test_uninstall_restores_entry_points():
    import tedk.forest
    import tedk.shallow
    before = (tedk.shallow.ted_threshold, vars(tedk.forest.LabeledForest)["from_codes"])
    tracer = tracing.Tracer()
    tracer.install()
    assert tedk.shallow.ted_threshold is not before[0]
    tracer.uninstall()
    assert (tedk.shallow.ted_threshold, vars(tedk.forest.LabeledForest)["from_codes"]) == before


def span(name, query, parent, start, end, **counts):
    return tracing.Span(name, query, parent, start, end, counts)


def test_consistency_checks_catch_broken_traces():
    ok = [span(tracing.ROOT, 0, -1, 0.0, 1.0),
          span("vertical.vert_sync_reductions", 0, 0, 0.1, 0.4, nodes_in=10, nodes_out=8)]
    assert tracing.consistency_errors(ok, [{"query": 0, "rounds": 8, "kept": 3}]) == []
    grown = [ok[0], span("horizontal.sync_reductions", 0, 0, 0.1, 0.4,
                         nodes_in=10, nodes_out=12)]
    assert any("grew" in e for e in tracing.consistency_errors(grown, []))
    outside = [ok[0], span("partial.gadget", 0, 0, 0.5, 1.5)]
    assert any("outside" in e for e in tracing.consistency_errors(outside, []))
    kept = tracing.consistency_errors(ok, [{"query": 0, "rounds": 2, "kept": 3}])
    assert any("kept 3 of 2" in e for e in kept)


def test_coverage_flags_layers_out_of_place():
    spans = [span(tracing.ROOT, 0, -1, 0.0, 1.0)]
    spans += [span(n, 0, 0, 0.1, 0.2) for n in sorted(tracing.ANCHOR_LAYERS)]
    spans.append(span("oracle.ted_threshold", 0, 0, 0.3, 0.4, kernel_nodes=4, equal_exit=0))
    metrics = tracing.layer_metrics(spans, [{"query": 0, "rounds": 0, "kept": 0,
                                             "rounds_s": 0.0}])
    errors = tracing.coverage_errors(spans, metrics, solves=False, sampling=False,
                                     kernel_differs=False)
    assert "oracle.ted_threshold ran after the anchor rejected" in errors
    assert any(e.startswith("alignment.anchor_rejects") for e in errors)
    assert math.isclose(metrics["oracle.ted_threshold.self_share"][0], 0.1)
