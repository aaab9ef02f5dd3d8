"""tedk benchmark: threshold queries on four workloads, checked answers.

    python3 bench/run.py --workload identical|reject|edited|deep|all \\
        --seed N --seconds S --trace 0|1

Generates the workload's instances from --seed, runs engine queries in a fresh
worker process for --seconds (closed loop, one client, threads=1), runs the
exact DP oracle on the same instances, checks every answer, and prints every
metric by name with its unit.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  See
NOTES.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKER_TIMEOUT_S = 120  # the whole run must end within 180 s
ORACLE_MIN_S = 0.3  # short oracle calls repeat until this much time is spent
# per-layer metrics with a time unit are reported as shares in the JSON line:
# a layer idle on a workload would otherwise report a constant 0 s
RESULT_UNITS = {"count", "nodes", "ratio"}
TRACE_TIMES = ("trace.query_s.p50", "trace.overhead_s")


def run_worker(instances: list, seconds: float, trace: bool, expect: dict,
               spans_out: Path) -> dict:
    job = {"src": str(SRC), "seconds": seconds, "trace": int(trace),
           "expect": expect, "spans_out": str(spans_out),
           "instances": [vars(i) for i in instances]}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout)


def oracle_reference(tedk, inst, cal: speed.Calibrator) -> tuple[float | int, float]:
    """(answer, median wall seconds) of oracle.ted_threshold on fresh forests."""
    it = tedk.LabelInterner()
    F = tedk.parse_paren_text(inst.f_text, it)
    G = tedk.parse_paren_text(inst.g_text, it)
    times = []
    while sum(times) < ORACLE_MIN_S:
        t0 = time.perf_counter()
        value = tedk.oracle.ted_threshold(F, G, inst.k)
        times.append(time.perf_counter() - t0)
    cal.after(sum(times))
    return value, statistics.median(times)


def check(records: list, instances: list) -> list:
    """Indices of records whose answer is wrong or that raised."""
    return [i for i, r in enumerate(records)
            if r["error"] is not None or r["value"] != instances[r["instance"]].expected]


def wall_times(records: list, worker: dict, oracle_s: list) -> dict:
    """Median wall times of queries, set-ups and oracle calls."""
    return {
        "query_s.p50": statistics.median(r["query_s"] for r in records),
        "nodes_per_s": statistics.median(r["nodes"] / r["query_s"] for r in records),
        "setup_s": statistics.median(worker["setup"]),
        "oracle_s.p50": statistics.median(oracle_s),
    }


def end_to_end(wall: dict, worker: dict) -> dict:
    """The end-to-end metrics of BENCHMARK.json, times at the reference
    machine speed."""
    f = worker["speed"]
    return {
        "query_s.p50": (wall["query_s.p50"] * f, "s"),
        "nodes_per_s": (wall["nodes_per_s"] / f, "nodes/s"),
        "setup_s": (wall["setup_s"] * worker["setup_speed"], "s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
    }


def run_workload(spec, seed: int, seconds: float, trace: bool,
                 instances: list | None = None) -> dict:
    """Run one workload and return its result with human-readable lines."""
    import tedk
    import tedk.oracle
    import workloads
    if instances is None:
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(seed, sum(map(ord, spec.name))))))
        instances = workloads.make_instances(spec, rng)
    OUT.mkdir(exist_ok=True)
    expect = {"solves": spec.solves, "sampling": spec.sampling,
              "kernel_differs": spec.kernel_differs}
    worker = run_worker(instances, seconds, trace, expect,
                        OUT / f"spans-{spec.name}-{seed}.json")
    errors = list(worker.get("trace_errors", [])) + list(worker.get("coverage_errors", []))
    oracle_s = []
    cal = speed.Calibrator()
    for i, inst in enumerate(instances):
        value, t = oracle_reference(tedk, inst, cal)
        oracle_s.append(t)
        if inst.expected is None:
            inst.expected = value
        elif value != inst.expected:
            errors.append(f"instance {i}: oracle says {value}, "
                          f"construction says {inst.expected}")
    records = worker["untraced"] + worker.get("traced", [])
    failed = check(records, instances)
    for i in failed[:5]:
        r = records[i]
        errors.append(f"query {r['query']} (instance {r['instance']}): got "
                      f"{r['value'] if r['error'] is None else r['error']}, "
                      f"expected {instances[r['instance']].expected}")
    lines = [f"workload {spec.name}: seed {seed}, {len(instances)} instances, "
             f"n = {[i.n_f + i.n_g for i in instances]}, k = {instances[0].k}"]
    if trace:
        shown = worker["layers"]
        result = {n: v for n, v in shown.items() if v[1] in RESULT_UNITS or n in TRACE_TIMES}
    else:
        wall = wall_times(worker["untraced"], worker, oracle_s)
        result = end_to_end(wall, worker)
        # the oracle's time is printed, not bounded: on identical and reject
        # its sub-millisecond exits vary more than any bound allows
        shown = {**result, "oracle_s.p50": (wall["oracle_s.p50"] * cal.factor(), "s"),
                 **{f"wall.{n}": (v, "nodes/s" if n == "nodes_per_s" else "s")
                    for n, v in wall.items()},
                 "speed.setup": (worker["setup_speed"], "ratio"),
                 "speed.worker": (worker["speed"], "ratio"),
                 "speed.oracle": (cal.factor(), "ratio")}
        lines.append(f"  samples: {len(worker['untraced'])} queries, "
                     f"{len(oracle_s)} oracle instances")
    for name, (value, unit) in shown.items():
        lines.append(f"  {name:<44} {value:>14.6g} {unit}")
    lines.append(f"  {'failed_frac':<44} {len(failed) / len(records):>14.6g} ratio")
    return {
        "lines": lines,
        "errors": errors,
        "json": {"correct": not errors, "attempted": len(records), "failed": len(failed),
                 "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result.items()}},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tedk" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no tedk sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        sys.stderr.write(f"bench: unknown workload {args.workload!r}\n")
        return 2
    results = {}
    for name in names:
        res = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(res["lines"]), flush=True)
        for e in res["errors"]:
            sys.stderr.write(f"bench: {name}: {e}\n")
        results[name] = res["json"]
    ok = all(r["correct"] for r in results.values())
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
