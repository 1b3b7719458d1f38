"""In-memory span tracer for the benchmark's traced run.

The traced run wraps the public functions at each layer boundary of the
program from here, in the benchmark's own files, so the program itself
carries no tracing code.  A span has a name ``<layer>.<operation>``, a
start, an end, the span that caused it and the top-level span (the unit of
work: one hunt, one exhaustive search, one soak phase) it belongs to.

A layer's self time is its spans' durations minus the part covered by their
child spans.  Spans of per-step operations (scheduling decisions,
fingerprint updates) are aggregated in place rather than stored one by
one, which bounds memory on runs of millions of steps; every other span is
kept in memory and written out when the run ends.

Counters (``Tracer.counts``) are taken at the same boundaries, so ratios
such as visited-set hits over lookups are measured where the work happens.
"""

from __future__ import annotations

import json
import multiprocessing.util
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

clock = time.perf_counter

#: spans cheap and frequent enough to aggregate rather than store
AGGREGATED = frozenset({
    "strategy.choose",
    "fingerprint.update",
    "harness.create",
    "portfolio.roundtrip",
})


class Tracer:
    """Single-threaded span stack with per-layer self-time accounting."""

    def __init__(self) -> None:
        #: open frames: [name, child_seconds, span_id, root_id]
        self.stack: List[list] = []
        #: stored spans: (span_id, parent_id, root_id, name, start, end)
        self.spans: List[tuple] = []
        self.total: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.self_by_name: Dict[str, float] = defaultdict(float)
        self.top_level_seconds = 0.0
        self.counts: Counter = Counter()
        self.values: Dict[str, list] = defaultdict(list)
        self._next_id = 1
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def call(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self.stack
        if stack and stack[-1][0] == name:
            # A re-entrant call (a super() chain through the same boundary)
            # belongs to the span already open.
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else None
        frame = [name, 0.0, span_id, parent[3] if parent else span_id]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            duration = end - start
            self.total[name] += duration
            self.calls[name] += 1
            self.self_by_name[name] += duration - frame[1]
            if parent is None:
                self.top_level_seconds += duration
            else:
                parent[1] += duration
            if name not in AGGREGATED:
                self.spans.append(
                    (span_id, parent[2] if parent else 0, frame[3], name, start, end)
                )

    def wrapper(self, name: str, fn: Callable) -> Callable:
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch(self, owner, attr: str, replacement) -> None:
        """Replace ``owner.attr`` until :meth:`uninstall`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Trace ``cls.attr`` (a plain function, staticmethod or property)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(self.wrapper(name, raw.__func__)))
        elif isinstance(raw, property):
            self.patch(cls, attr, property(self.wrapper(name, raw.fget)))
        else:
            self.patch(cls, attr, self.wrapper(name, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def self_by_layer(self) -> Dict[str, float]:
        layers: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_by_name.items():
            layers[name.partition(".")[0]] += seconds
        return layers

    def layer_table(self, wall_seconds: float) -> List[dict]:
        """Per-layer self time; ``bench`` also absorbs time outside spans."""
        layers = self.self_by_layer()
        layers["bench"] += max(
            0.0, wall_seconds - self.top_level_seconds
        )
        return [
            {
                "layer": layer,
                "self_s": round(seconds, 6),
                "share": round(seconds / wall_seconds, 6) if wall_seconds else 0.0,
            }
            for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1])
        ]

    def write(self, path: str, wall_seconds: float) -> None:
        """Write stored spans (JSON lines) followed by the layer table."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent_id, root_id, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent_id, "root": root_id,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            for name in sorted(self.calls):
                handle.write(json.dumps({
                    "aggregate": name, "calls": self.calls[name],
                    "total_s": self.total[name],
                }) + "\n")
            for row in self.layer_table(wall_seconds):
                handle.write(json.dumps(row) + "\n")


# ---------------------------------------------------------------------------
# layer instrumentation
# ---------------------------------------------------------------------------
def _strategy_classes() -> List[type]:
    from repro.core.strategy.base import SchedulingStrategy

    found, todo = [], [SchedulingStrategy]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def instrument_testing(tracer: Tracer) -> None:
    """Wrap the layer boundaries the testing workloads cross.

    Only the calling thread's work is traced: the testing runtime is
    single-threaded, and forked worker processes drop every wrapper at
    start (their numbers come back in the reports they return).
    """
    from repro.core import fingerprint as fingerprint_module
    from repro.core.engine import TestingEngine, TestReport
    from repro.core.parallel import ParallelExplorer
    from repro.core.portfolio import Portfolio, PortfolioJob
    from repro.core.runtime.kernel import RuntimeKernel
    from repro.core.runtime.testing import TestRuntime
    from repro.core.shrink import Shrinker
    from repro.core.strategy.dfs_strategy import DFSStrategy
    from repro.core.strategy.dpor_lite import DporLiteStrategy

    call = tracer.call
    counts = tracer.counts
    values = tracer.values

    # runtime: one span per execution; the entry call is the harness layer
    run = TestRuntime.__dict__["run"]

    def traced_run(runtime, test_entry):
        bug = call(
            "runtime.execution", run, runtime,
            lambda rt: call("harness.entry", test_entry, rt),
        )
        counts["executions"] += 1
        counts["steps"] += runtime.step_count
        if getattr(runtime, "_fingerprint", None) is not None:
            counts["fingerprinted_steps"] += runtime.step_count
        return bug

    tracer.patch(TestRuntime, "run", traced_run)
    tracer.wrap_method(RuntimeKernel, "create_machine", "harness.create")
    create = RuntimeKernel.__dict__["create_machine"]

    def counted_create(*args, **kwargs):
        counts["machines"] += 1
        return create(*args, **kwargs)

    tracer.patch(RuntimeKernel, "create_machine", counted_create)

    # bug recording: the record itself and the log/trace materialisation
    record = RuntimeKernel.__dict__["_record_bug"]
    messages = set()

    def traced_record(runtime, error):
        call("bugs.record", record, runtime, error)
        counts["bugs"] += 1
        messages.add(runtime.bug.message)
        counts["bugs_distinct"] = len(messages)

    tracer.patch(RuntimeKernel, "_record_bug", traced_record)
    tracer.wrap_method(RuntimeKernel, "execution_log", "bugs.record")

    # strategy: decisions and per-iteration preparation
    dfs_instances = []
    for cls in _strategy_classes():
        for attr in ("next_machine", "next_boolean", "next_integer"):
            if attr in cls.__dict__:
                tracer.wrap_method(cls, attr, "strategy.choose")
        if "prepare_iteration" in cls.__dict__:
            tracer.wrap_method(cls, "prepare_iteration", "strategy.prepare")
    choose = DporLiteStrategy.next_machine

    def counted_dpor_choose(strategy, enabled, step):
        sleep = getattr(strategy, "_sleep", None) or {}
        asleep = sum(1 for mid in enabled if mid.value in sleep)
        if asleep < len(enabled):
            counts["sleep_pruned"] += asleep
        return choose(strategy, enabled, step)

    tracer.patch(DporLiteStrategy, "next_machine", counted_dpor_choose)
    prepare = DFSStrategy.prepare_iteration

    def remembered_prepare(strategy, iteration):
        if iteration == 0:
            dfs_instances.append(strategy)
        return prepare(strategy, iteration)

    tracer.patch(DFSStrategy, "prepare_iteration", remembered_prepare)
    tracer.values["dfs_instances"] = dfs_instances
    is_covered = DFSStrategy.__dict__["_is_covered"]

    def counted_is_covered(strategy, state):
        hit = is_covered(strategy, state)
        if state is not None:
            counts["visited_lookups"] += 1
            counts["visited_hits"] += hit
        return hit

    tracer.patch(DFSStrategy, "_is_covered", counted_is_covered)

    # fingerprint maintenance and the hash calls under it
    from repro.core.fingerprint import FingerprintTracker

    for attr in (
        "register_machine", "touch", "on_enqueue", "on_inbox_popleft",
        "on_inbox_remove", "on_raise", "on_raised_popleft", "on_halt_clear",
        "register_monitor", "mark_monitor_dirty", "current", "recompute",
    ):
        if attr in FingerprintTracker.__dict__:
            tracer.wrap_method(FingerprintTracker, attr, "fingerprint.update")
    stable_hash = fingerprint_module.stable_hash

    def counted_hash(value):
        counts["hash_calls"] += 1
        return stable_hash(value)

    tracer.patch(fingerprint_module, "stable_hash", counted_hash)

    # shrinker: one span per shrink, replays counted, stats collected
    shrink = Shrinker.__dict__["shrink"]

    def traced_shrink(shrinker, bug):
        result = call("shrink.run", shrink, shrinker, bug)
        counts["shrinks"] += 1
        counts["shrink_candidates"] += result.stats.candidates_tried
        counts["shrink_replays"] += result.stats.replays_run
        values["shrink_reduction"].append(result.stats.reduction)
        return result

    tracer.patch(Shrinker, "shrink", traced_shrink)

    # portfolio: the run, and each job's report/job JSON round-trip
    tracer.wrap_method(Portfolio, "run", "portfolio.run")
    for cls in (TestReport, PortfolioJob):
        tracer.wrap_method(cls, "to_dict", "portfolio.roundtrip")
        tracer.wrap_method(cls, "from_dict", "portfolio.roundtrip")
    tracer.wrap_method(TestingEngine, "run", "engine.run")
    tracer.wrap_method(ParallelExplorer, "run", "parallel.run")

    # Forked workers (ParallelExplorer, multi-worker portfolios) start
    # untraced: their stack would be a copy nobody reads.
    multiprocessing.util.register_after_fork(tracer, Tracer.uninstall)


def percentile(values: List[float], q: int) -> float:
    """Nearest-rank percentile (``q`` in 1..100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[rank - 1]
