"""Benchmark entry point: one workload, one seed, a fixed time budget.

Usage, from the repository root::

    python3 perfbench/run.py --workload table2-hunt --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run is untraced and reports the end-to-end metrics
listed in ``BENCHMARK.json``.  With ``--trace 1`` it measures half the budget
untraced, then repeats exactly that work with every layer boundary wrapped
(see ``tracing.py``) and reports the per-layer metrics, each layer's self
time and the tracing overhead.  Either way the outputs are checked for
correctness, a table of figures is printed, and the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Details and the span file land in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: fresh processes timed per run for ``setup_s`` (their median is reported)
SETUP_PROBES = 7
#: top-level spans must cover at least this share of the traced wall-clock
MIN_TRACE_COVERAGE = 0.95


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes
# ---------------------------------------------------------------------------
def probe(name: str, seed: int) -> None:
    """Child side: do the workload's set-up and print how long it took, at
    reference speed, from before the first import of the program's code."""
    from pace import Pace

    pace = Pace()
    pace.sample()
    started = time.perf_counter()
    import workloads

    workload = workloads.make(name)
    workload.setup(seed)
    runtime = None
    if name == "service-soak":
        # a soak's first request follows the runtime boot; clients given no
        # request to send then leave at once, so the service quiesces
        runtime = workload.boot(0, seed)
    ready = time.perf_counter()
    pace.sample()
    if runtime is not None:
        runtime.join(60)
        runtime.shutdown()
    print(repr(pace.scaled(started, ready)))


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time of ``SETUP_PROBES`` fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe", "--workload", name,
             "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------
def layer_metrics(tracer, workload, results, wall_s: float, names) -> dict:
    counts, calls, self_by_name = tracer.counts, tracer.calls, tracer.self_by_name
    units = max(1, len(results))
    executions = counts["executions"]

    def per(value: float, base: float, scale: float = 1.0) -> float:
        return value / base * scale if base else 0.0

    layers = tracer.self_by_layer()
    # a layer the workload does not cross reports 0
    metrics = dict.fromkeys(names, 0.0)
    metrics.update({
        "harness.entry_us": per(layers["harness"], executions, 1e6),
        "harness.machines_per_exec": per(counts["machines"], executions),
        "runtime.step_us": per(layers["runtime"], counts["steps"], 1e6),
        "runtime.steps_per_exec": per(counts["steps"], executions),
        "strategy.choose_us": per(self_by_name["strategy.choose"], calls["strategy.choose"], 1e6),
        "strategy.prepare_us": per(
            self_by_name["strategy.prepare"], calls["strategy.prepare"], 1e6
        ),
        "strategy.decisions_per_exec": per(calls["strategy.choose"], executions),
        "dfs.pruned_schedules": per(
            sum(s.pruned_schedules for s in tracer.values["dfs_instances"]), units
        ),
        "dpor_lite.sleep_pruned": per(counts["sleep_pruned"], units),
        "fingerprint.step_us": per(layers["fingerprint"], counts["fingerprinted_steps"], 1e6),
        "fingerprint.hash_calls": per(counts["hash_calls"], executions),
        "stateful.visited_hit_ratio": per(counts["visited_hits"], counts["visited_lookups"]),
        "bugs.record_us": per(layers["bugs"], counts["bugs"], 1e6),
        "bugs.recorded": per(counts["bugs"], units),
        "bugs.distinct": float(counts["bugs_distinct"]),
        "shrink.replays": per(counts["shrink_replays"], counts["shrinks"]),
        "shrink.candidates": per(counts["shrink_candidates"], counts["shrinks"]),
        "shrink.reduction": (
            statistics.median(tracer.values["shrink_reduction"])
            if tracer.values["shrink_reduction"] else 0.0
        ),
        "portfolio.roundtrip_us": per(
            self_by_name["portfolio.roundtrip"], calls["portfolio.run"], 1e6
        ),
    })
    metrics.update(workload_layer_metrics(workload, results))
    table = tracer.layer_table(wall_s)
    shares = {row["layer"]: row["share"] for row in table}
    for name in names:
        if name.startswith("self_share."):
            metrics[name] = shares.get(name[len("self_share."):], 0.0)
    return metrics


def workload_layer_metrics(workload, results) -> dict:
    """Figures read from the workload's own reports rather than spans."""
    metrics = {}
    searches = [r for r in results if "search" in r]
    if searches:
        metrics["fingerprint.distinct_states"] = float(
            max(r["summary"]["distinct_states"] for r in searches)
        )
    parallel = [r for r in searches if r["report"] is not None]
    if parallel:
        reports = [r["report"] for r in parallel]
        serial = workload.reference_summary["schedules"]
        metrics.update({
            "parallel.claims": statistics.mean(p["results"] for p in reports),
            "parallel.claims_covered": statistics.mean(p["covered"] for p in reports),
            "parallel.claims_split": statistics.mean(p["split"] for p in reports),
            "parallel.redundancy": (
                statistics.mean(r["summary"]["schedules"] for r in parallel) / serial
            ),
            "parallel.worker_busy_share": statistics.mean(
                p["busy"] / (p["workers"] * p["elapsed"]) for p in reports
            ),
        })
    soaks = [r for r in results if "events" in r]
    if soaks:
        requests = sum(len(soak["raw_latencies"]) for soak in soaks)
        events = sum(soak["events"] for soak in soaks)
        metrics.update({
            "production.events_per_s": events / sum(soak["raw_serve_s"] for soak in soaks),
            "production.events_per_request": events / max(1, requests),
            "production.boot_s": statistics.median(soak["boot_s"] for soak in soaks),
            "production.drain_s": statistics.median(soak["drain_s"] for soak in soaks),
            "production.shutdown_s": statistics.median(soak["shutdown_s"] for soak in soaks),
        })
    return metrics


def analysis_metrics(workload) -> dict:
    """Cold build (timed during set-up), then a warm build from the cache."""
    import workloads
    from repro.analysis import AnalysisCache

    if getattr(workload, "table", None) is None:
        return {}
    os.makedirs(OUT, exist_ok=True)
    directory = tempfile.mkdtemp(dir=OUT)
    try:
        cache = AnalysisCache(directory=directory)
        workloads.build_independence(workload.testcase, cache)
        before = cache.hits
        started = time.perf_counter()
        warm = workloads.build_independence(workload.testcase, cache)
        warm_s = time.perf_counter() - started
        if warm != workload.table:
            raise RuntimeError("cached independence table differs from the cold build")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "analysis.independence_cold_s": workload.independence_cold_s,
        "analysis.independence_warm_s": warm_s,
        "analysis.cache_hit": float(cache.hits - before),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def attempted_and_failed(name: str, results) -> tuple:
    if name == "service-soak":
        attempted = failed = 0
        for result in results:
            summary = result["summary"]
            lost = summary["sent"] - summary["acked"] + summary["mismatched"]
            attempted += summary["sent"]
            failed += lost if lost else (0 if result["ok"] else 1)
        return max(1, attempted), min(max(1, attempted), failed)
    return len(results), sum(1 for result in results if not result["ok"])


def run(args, spec) -> dict:
    import checks
    import workloads
    from tracing import Tracer, instrument_testing

    broken = checks.broken_checks()
    setup_s = setup_seconds(args.workload, args.seed)
    workload = workloads.make(args.workload)
    workload.setup(args.seed)
    figures = {}
    trace = None
    if not args.trace:
        results, wall_s = workload.measure(args.seconds)
        peak = peak_rss_mb()
        problems = workload.verify(results)
        figures.update(workload.metrics(results))
        figures.update(setup_s=setup_s, peak_rss_mb=peak)
    else:
        half = args.seconds / 2
        untraced, _ = workload.measure(half)
        tracer = Tracer()
        if args.workload != "service-soak":
            instrument_testing(tracer)
        try:
            results, wall_s = workload.measure(half, workload.units(untraced), tracer=tracer)
        finally:
            tracer.uninstall()
        problems = workload.verify(untraced + results)
        # both halves at reference speed, so a drift between them is not
        # read as tracing cost
        overhead = workload.work_seconds(results) / workload.work_seconds(untraced) - 1
        coverage = tracer.top_level_seconds / wall_s
        if coverage < MIN_TRACE_COVERAGE:
            problems.append(f"top-level spans cover only {coverage:.1%} of the traced run")
        names = [metric["name"] for metric in spec["per_layer"]]
        figures.update(layer_metrics(tracer, workload, results, wall_s, names))
        figures.update(analysis_metrics(workload))
        figures.update({"trace.overhead": overhead, "trace.coverage": coverage})
        trace = tracer
        results = untraced + results
    attempted, failed = attempted_and_failed(args.workload, results)
    for name in broken:
        problems.append(f"check {name} accepted a deliberately wrong input")
    return {
        "figures": figures, "problems": problems, "attempted": attempted,
        "failed": failed, "tracer": trace, "wall_s": wall_s,
        "units": [workloads.describe(result) for result in results],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        probe(args.workload, args.seed)
        return 0
    import repro  # noqa: F401 - fail fast, before any output, without the program

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    outcome = run(args, spec)
    figures, problems = outcome["figures"], outcome["problems"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": float(figures[metric["name"]]), "unit": metric["unit"]}
        for metric in listed
    }

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if outcome["tracer"] is not None:
        outcome["tracer"].write(stem + "-spans.jsonl", outcome["wall_s"])
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"figures": figures, "problems": problems, "units": outcome["units"]},
                  handle, indent=2, sort_keys=True, default=str)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g}s, trace {args.trace}")
    for name in sorted(figures):
        print(f"  {name:36s} {figures[name]:.6g}")
    if outcome["tracer"] is not None:
        print("  layer self time:")
        for row in outcome["tracer"].layer_table(outcome["wall_s"]):
            print(f"    {row['layer']:12s} {row['self_s']:10.4f}s  {row['share']:7.2%}")
    for problem in problems[:20]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
