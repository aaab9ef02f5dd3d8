"""Engine-query process of the benchmark: one client, closed loop.

Reads {"src", "instances", "seconds", "trace", "expect", "spans_out"} as JSON
on standard input and writes one JSON object with the records on standard
output.  Besides engine queries it only parses texts and runs the speed
calibration (speed.py), so its peak RSS is the engine's.

First a set-up pass parses the instances' texts for SETUP_PASS_S.  Then
queries cycle over the instances until the phase's share of --seconds is
spent, at least one per phase.  A query parses its two texts afresh, then
calls ``tedk.engine.run`` with threads=1: what ``tedk compute`` does after
reading its files.  With trace=0 there is one untraced phase.  With trace=1
an untraced phase and a traced phase split the time; the traced phase wraps
every layer (tracing.py), and the difference between the phases' median
query times is the tracing overhead.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import speed

SETUP_PASS_S = 1.0


def run_phase(instances: list[dict], seconds: float, query, first_id: int,
              cal: speed.Calibrator) -> list[dict]:
    records = []
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < seconds:
        rec = query(first_id + i, i % len(instances), instances[i % len(instances)])
        cal.after(rec["setup_s"] + rec["query_s"])
        records.append(rec)
        i += 1
    return records


def setup_pass(tedk, instances: list[dict]) -> tuple[list[float], float]:
    """Parse the instances' texts, each at least once, for SETUP_PASS_S, so
    that set-up has many samples even when few queries fit in the run.
    Returns the parse times and the speed factor of calibrations made among
    them (half as long as the parses)."""
    cal = speed.Calibrator(share=0.5)
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < len(instances) or time.perf_counter() - start < SETUP_PASS_S:
        inst = instances[len(times) % len(instances)]
        t0 = time.perf_counter()
        it = tedk.LabelInterner()
        tedk.parse_paren_text(inst["f_text"], it)
        tedk.parse_paren_text(inst["g_text"], it)
        times.append(time.perf_counter() - t0)
        cal.after(times[-1])
    return times, cal.factor()


def make_query(tedk, call):
    """One query: fresh interner, fresh parse of both texts, one engine run.
    Any exception is recorded as the query's error."""
    def query(qid: int, idx: int, inst: dict) -> dict:
        rec = {"query": qid, "instance": idx, "nodes": inst["n_f"] + inst["n_g"],
               "value": None, "error": None, "rounds": 0, "kept": 0, "rounds_s": 0.0}
        t0 = time.perf_counter()
        t1 = t2 = t0
        try:
            it = tedk.LabelInterner()
            F = tedk.parse_paren_text(inst["f_text"], it)
            G = tedk.parse_paren_text(inst["g_text"], it)
            t1 = time.perf_counter()
            cfg = tedk.EngineConfig(k=inst["k"], seed=inst["engine_seed"],
                                    rounds=inst["rounds"])
            rep = call(qid, tedk.engine.run, F, G, cfg, it)
            t2 = time.perf_counter()
            rec.update(value=rep.value, rounds=rep.rounds, kept=rep.kept,
                       rounds_s=rep.timings.get("rounds_ms", 0.0) / 1e3)
        except Exception as exc:  # a failed query is counted, not fatal
            t2 = time.perf_counter()
            rec["error"] = f"{type(exc).__name__}: {exc}"
        rec["setup_s"] = t1 - t0
        rec["query_s"] = t2 - t1
        return rec
    return query


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import tedk
    import tedk.engine
    import tracing

    tracing.resolve_sites()  # a renamed layer entry point fails every run
    instances = job["instances"]
    untraced = make_query(tedk, lambda qid, fn, *args: fn(*args))
    out: dict = {}
    out["setup"], out["setup_speed"] = setup_pass(tedk, instances)
    cal = speed.Calibrator()
    if not job["trace"]:
        out["untraced"] = run_phase(instances, job["seconds"], untraced, 0, cal)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        out["untraced"] = run_phase(instances, job["seconds"] / 2, untraced, 0, cal)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            out["traced"] = run_phase(instances, job["seconds"] / 2,
                                      make_query(tedk, tracer.run_query),
                                      len(out["untraced"]), cal)
        finally:
            tracer.uninstall()
        spans, reports = tracer.spans, out["traced"]
        metrics = tracing.layer_metrics(spans, reports)
        p50 = statistics.median(r["query_s"] for r in reports) * cal.factor()
        metrics["trace.query_s.p50"] = (p50, "s")
        metrics["trace.overhead_s"] = (p50 - statistics.median(
            r["query_s"] for r in out["untraced"]) * cal.factor(), "s")
        out["layers"] = metrics
        out["trace_errors"] = tracing.consistency_errors(spans, reports)
        out["coverage_errors"] = tracing.coverage_errors(spans, metrics, **job["expect"])
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.query, s.parent, s.start, s.end, s.counts]
                       for s in spans], fh)
    out["speed"] = cal.factor()
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
