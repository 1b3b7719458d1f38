"""The benchmark's workloads: Table 2 hunts, bounded failover exhaust, soak.

Each workload has a ``setup`` (everything a user pays before the first
schedule or request) and a ``measure`` that runs units of work until its
time budget is spent.  Inputs come only from the workload seed; the program
receives generated seeds and budgets, never the benchmark's own seed.

Every unit of work is timed as raw wall-clock (``raw_*``) and at reference
speed (see ``pace.py``): the reference loop is sampled between units, and
each unit's time is scaled by the samples around it.  The gated metrics use
the scaled times; the raw ones are printed beside them.
"""

from __future__ import annotations

import dataclasses
from array import array
import gc
import os
import random
import statistics
import threading
import time
from typing import Dict, List, Optional

from checks import (
    check_hunt,
    check_search,
    check_soak,
    summarize_engine_report,
    summarize_hunt,
    summarize_parallel_report,
    summarize_soak,
)
from pace import Pace
from tracing import percentile

clock = time.perf_counter


def in_span(tracer, name: str, fn, *args):
    """``fn(*args)``, inside a span when the run is traced."""
    return tracer.call(name, fn, *args) if tracer is not None else fn(*args)


def pace_tick(tracer, pace: Pace) -> None:
    in_span(tracer, "bench.pace", pace.tick)

# ---------------------------------------------------------------------------
# table2-hunt
# ---------------------------------------------------------------------------
HUNT_STRATEGIES = ("random", "pct")
#: executions per hunt before it counts as "not found" (Table 2's budget,
#: scaled so a run holds a few hundred hunts)
HUNT_BUDGET = {"migratingtable": 80, "vnext": 8}
#: shrinker replay budget per found bug (a vNext replay costs ~30x more)
SHRINK_REPLAYS = {"migratingtable": 60, "vnext": 4}


@dataclasses.dataclass(frozen=True)
class Hunt:
    scenario: str
    strategy: str
    seed: int
    iterations: int
    shrink_replays: int


def hunt_rounds(seed: int):
    """Endless rounds of hunts: each Table 2 scenario once per round.

    The scenario order is shuffled per round, and each scenario alternates
    between random and pct from a seeded starting point, so any two
    consecutive rounds pair every scenario with both strategies.
    """
    from repro.core.registry import all_scenarios

    rng = random.Random(f"table2-hunt/{seed}")
    names = [case.name for case in all_scenarios(tag="table2")]
    offsets = {name: rng.randrange(2) for name in names}
    round_index = 0
    while True:
        order = list(names)
        rng.shuffle(order)
        hunts = []
        for name in order:
            family = name.split("/")[0]
            hunts.append(Hunt(
                scenario=name,
                strategy=HUNT_STRATEGIES[(round_index + offsets[name]) % 2],
                seed=rng.randrange(1, 2 ** 31),
                iterations=HUNT_BUDGET[family],
                shrink_replays=SHRINK_REPLAYS[family],
            ))
        yield hunts
        round_index += 1


def slim_bug(bug):
    """A bug's kind and message, without its trace and log."""
    if bug is None:
        return None
    from repro.core.runtime import BugInfo

    return BugInfo(kind=bug.kind, message=bug.message, step=bug.step)


class HuntWorkload:
    name = "table2-hunt"

    def setup(self, seed: int) -> None:
        from repro.core.portfolio import Portfolio
        from repro.core.registry import get_scenario

        self.rounds = hunt_rounds(seed)
        self.next_round = next(self.rounds)
        first = self.next_round[0]
        # Everything up to the first schedule: registry, scenario, jobs.
        Portfolio(get_scenario(first.scenario), strategies=[first.strategy]).jobs()

    @staticmethod
    def units(results) -> List[Hunt]:
        return [result["hunt"] for result in results]

    def measure(self, seconds: float, units: Optional[List[Hunt]] = None, tracer=None):
        """Run whole rounds until ``seconds`` pass, or exactly ``units``."""
        from repro.core.engine import TestingEngine
        from repro.core.portfolio import Portfolio
        from repro.core.registry import get_scenario
        from repro.core.trace import ScheduleTrace

        results = []
        pace = Pace()
        started = clock()
        queue = list(units) if units is not None else []
        while True:
            if not queue:
                if units is not None or (results and clock() - started >= seconds):
                    break
                queue = self.next_round
                self.next_round = next(self.rounds)
            hunt = queue.pop(0)
            testcase = get_scenario(hunt.scenario)
            config = testcase.default_config(shrink_max_replays=hunt.shrink_replays)
            pace_tick(tracer, pace)

            def one_hunt():
                hunt_started = clock()
                report = Portfolio(
                    testcase, strategies=[hunt.strategy], iterations=hunt.iterations,
                    num_workers=1, seed=hunt.seed, config=config,
                ).run()
                hunt_ended = clock()
                bug = report.first_bug
                shrink = None
                shrink_ended = hunt_ended
                if bug is not None:
                    job_config = report.winning_result.job.config
                    shrink = TestingEngine(testcase.build(), job_config).shrink_bug(bug)
                    shrink_ended = clock()
                return report, bug, shrink, (hunt_started, hunt_ended, shrink_ended)

            report, bug, shrink, stamps = in_span(tracer, "bench.hunt", one_hunt)
            # Keep only what the checks read: a found bug's kind and its
            # shrunk steps, so memory does not grow with the bugs found.
            results.append({
                "hunt": hunt,
                "expected_kind": testcase.expected_bug_kind,
                "config": config,
                "bug": slim_bug(bug),
                "shrunk_bug": slim_bug(shrink.bug) if shrink else None,
                "shrunk_trace": ScheduleTrace(steps=list(shrink.trace.steps)) if shrink else None,
                "executions": report.total_iterations,
                "stamps": stamps,
            })
        in_span(tracer, "bench.pace", pace.sample)
        for result in results:
            hunt_started, hunt_ended, shrink_ended = result.pop("stamps")
            found = result["shrunk_bug"] is not None
            result["raw_hunt_s"] = hunt_ended - hunt_started
            result["hunt_s"] = pace.scaled(hunt_started, hunt_ended)
            result["shrink_s"] = pace.scaled(hunt_ended, shrink_ended) if found else None
        return results, clock() - started

    @staticmethod
    def work_seconds(results) -> float:
        return sum(r["hunt_s"] + (r["shrink_s"] or 0.0) for r in results)

    @staticmethod
    def verify(results) -> List[str]:
        """Replay every shrunk trace; check kinds and messages."""
        from repro.core.engine import TestingEngine
        from repro.core.registry import get_scenario

        problems = []
        for result in results:
            bug, trace = result["bug"], result["shrunk_trace"]
            replayed = None
            if trace is not None:
                testcase = get_scenario(result["hunt"].scenario)
                replayed = TestingEngine(testcase.build(), result["config"]).replay(trace)
            summary = summarize_hunt(
                result["expected_kind"], bug, result["shrunk_bug"], replayed
            )
            found = check_hunt(summary)
            problems.extend(f"{result['hunt'].scenario}: {problem}" for problem in found)
            result["ok"] = not found
            result["correct_bug"] = bug is not None and result["ok"]
        return problems

    @staticmethod
    def metrics(results) -> Dict[str, float]:
        def rate(key: str) -> float:
            """Geometric mean over scenarios of executions per hunt second,
            so the mix of scenarios in a run does not move it."""
            per_scenario: Dict[str, List[float]] = {}
            for result in results:
                entry = per_scenario.setdefault(result["hunt"].scenario, [0, 0.0])
                entry[0] += result["executions"]
                entry[1] += result[key]
            return statistics.geometric_mean(
                executions / seconds for executions, seconds in per_scenario.values()
            )

        times = [result["hunt_s"] for result in results]
        raw = [result["raw_hunt_s"] for result in results]
        found = sum(1 for result in results if result.get("correct_bug"))
        shrinks = [result["shrink_s"] for result in results if result["shrink_s"] is not None]
        return {
            "throughput_per_s": rate("hunt_s"),
            "latency_ms.p50": statistics.median(times) * 1000,
            "latency_ms.tail": percentile(times, 90) * 1000,
            "success_share": found / len(results),
            # figures printed in the run's table only
            "hunts": len(results),
            "hunt_bugs_found": found,
            "shrink_s.p50": statistics.median(shrinks) if shrinks else 0.0,
            "raw.throughput_per_s": rate("raw_hunt_s"),
            "raw.latency_ms.p50": statistics.median(raw) * 1000,
            "raw.latency_ms.tail": percentile(raw, 90) * 1000,
        }


# ---------------------------------------------------------------------------
# failover-exhaust
# ---------------------------------------------------------------------------
EXHAUST_SCENARIO = "vnext/failover-1node"
#: step bound of the exhausted space (the repository's gates use 7; at 6 a
#: round of all four searches takes about 3 s, so a run holds about ten)
EXHAUST_STEPS = 6
CLAIM_ITERATIONS = 40
#: the searches of one round, in the order they run
EXHAUST_VARIANTS = {
    "dfs": dict(strategy="dfs"),
    "dpor-lite": dict(strategy="dpor-lite", prune=True),
    "stateful": dict(strategy="dfs", stateful=True),
    "parallel": dict(strategy="dpor-lite", prune=True, stateful=True, parallel=True),
}


def exhaust_config(variant: dict, table: Optional[dict]):
    from repro.core import TestingConfig

    stateful = variant.get("stateful", False)
    return TestingConfig(
        iterations=2_000_000,
        max_steps=EXHAUST_STEPS,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        strategy=variant["strategy"],
        stateful=stateful,
        fingerprints=stateful,
        independence=table if variant.get("prune") else None,
    )


def build_independence(testcase, cache=None) -> dict:
    from repro.analysis import AnalysisCache, independence_for_scenarios

    if cache is None:
        cache = AnalysisCache(enabled=False)
    return independence_for_scenarios([testcase], cache=cache)


class ExhaustWorkload:
    name = "failover-exhaust"

    def __init__(self) -> None:
        self.workers = max(1, os.cpu_count() or 1)

    def setup(self, seed: int) -> None:
        from repro.core.registry import get_scenario

        self.testcase = get_scenario(EXHAUST_SCENARIO)
        started = clock()
        self.table = build_independence(self.testcase)
        self.independence_cold_s = clock() - started
        self.configs = {
            name: exhaust_config(variant, self.table)
            for name, variant in EXHAUST_VARIANTS.items()
        }

    def search(self, name: str):
        from repro.core.engine import TestingEngine
        from repro.core.parallel import ParallelExplorer

        config = self.configs[name]
        if EXHAUST_VARIANTS[name].get("parallel"):
            report = ParallelExplorer(
                self.testcase, strategy=config.strategy, num_workers=self.workers,
                config=config, claim_iterations=CLAIM_ITERATIONS,
            ).run()
            return report, summarize_parallel_report(report)
        report = TestingEngine(self.testcase.build(), config).run()
        return report, summarize_engine_report(report)

    @staticmethod
    def units(results) -> int:
        return len({result["round"] for result in results})

    def measure(self, seconds: float, units: Optional[int] = None, tracer=None):
        """Run rounds of the four searches until ``seconds`` pass.

        A new round starts only if the previous one suggests it ends within
        the budget, so a run lasts about ``seconds`` (and holds at least one
        round).  ``units`` fixes the number of rounds instead.
        """
        results = []
        pace = Pace()
        started = clock()
        rounds = 0
        last_round_s = 0.0
        while True:
            elapsed = clock() - started
            if units is not None:
                if rounds >= units:
                    break
            elif rounds and elapsed + last_round_s > seconds:
                break
            round_started = clock()
            for name in EXHAUST_VARIANTS:
                pace_tick(tracer, pace)
                search_started = clock()
                report, summary = in_span(tracer, "bench.exhaust", self.search, name)
                search_ended = clock()
                # Drop the report (every schedule of this space records a
                # bug) before the next search, except what the metrics read.
                slim = None
                if EXHAUST_VARIANTS[name].get("parallel"):
                    slim = {
                        "results": len(report.results),
                        "covered": sum(1 for r in report.results if r.covered),
                        "split": sum(1 for r in report.results if r.split),
                        "busy": sum(w["busy_seconds"] for w in report.worker_stats()),
                        "elapsed": report.elapsed_seconds,
                        "workers": report.num_workers,
                    }
                results.append({
                    "round": rounds, "search": name, "summary": summary, "report": slim,
                    "stamps": (search_started, search_ended),
                })
            rounds += 1
            last_round_s = clock() - round_started
        in_span(tracer, "bench.pace", pace.sample)
        for result in results:
            search_started, search_ended = result.pop("stamps")
            result["raw_exhaust_s"] = search_ended - search_started
            result["exhaust_s"] = pace.scaled(search_started, search_ended)
        return results, clock() - started

    @staticmethod
    def work_seconds(results) -> float:
        return sum(r["exhaust_s"] for r in results)

    def reference(self) -> dict:
        """Serial dpor-lite + stateful search: the cross-check for all four."""
        from repro.core.engine import TestingEngine

        config = exhaust_config(EXHAUST_VARIANTS["parallel"], self.table)
        return summarize_engine_report(TestingEngine(self.testcase.build(), config).run())

    def verify(self, results) -> List[str]:
        reference = self.reference()
        self.reference_summary = reference
        problems = []
        for result in results:
            found = check_search(
                result["summary"], reference,
                compare_digest=bool(EXHAUST_VARIANTS[result["search"]].get("stateful")),
            )
            result["ok"] = not found
            problems.extend(f"{result['search']}: {problem}" for problem in found)
        return problems

    @staticmethod
    def metrics(results) -> Dict[str, float]:
        by_search: Dict[str, List[dict]] = {name: [] for name in EXHAUST_VARIANTS}
        for result in results:
            by_search[result["search"]].append(result)

        def figures(key: str, prefix: str) -> Dict[str, float]:
            medians = {
                name: statistics.median(r[key] for r in rows)
                for name, rows in by_search.items()
            }
            # A run holds about a dozen searches of each kind, too few for a
            # p90 with samples beyond it; the upper quartile has three.
            tails = {
                name: percentile([r[key] for r in rows], 75)
                for name, rows in by_search.items()
            }
            schedules = sum(rows[0]["summary"]["schedules"] for rows in by_search.values())
            out = {
                # schedules of one round over the round's median time
                f"{prefix}throughput_per_s": schedules / sum(medians.values()),
                # a round: exhausting the space once with each search
                f"{prefix}latency_ms.p50": sum(medians.values()) * 1000,
                f"{prefix}latency_ms.tail": sum(tails.values()) * 1000,
            }
            out.update({f"{prefix}exhaust_s.{name}": value for name, value in medians.items()})
            return out

        metrics = figures("exhaust_s", "")
        metrics.update(figures("raw_exhaust_s", "raw."))
        metrics.update({
            "success_share": sum(1 for r in results if r["ok"]) / len(results),
            "rounds": len({r["round"] for r in results}),
        })
        metrics.update({
            f"schedules.{name}": rows[0]["summary"]["schedules"]
            for name, rows in by_search.items()
        })
        return metrics


# ---------------------------------------------------------------------------
# service soak
# ---------------------------------------------------------------------------
def soak_classes():
    """The benchmark's closed-loop client and the host that starts it.

    Built lazily so importing this module needs no program on the path.
    """
    from repro.core import Machine, Receive
    from repro.examplesys.harness.service import ClientDone, ServiceHost, SubmitRequest
    from repro.examplesys.messages import Ack

    class BenchClient(Machine):
        """Closed loop: send, wait for the Ack, stamp both, repeat.

        Given a ``pace``, the client also samples the reference loop every
        ``PACE_EVERY`` requests, between an Ack and its next send, so the
        samples run on the service's own thread while it serves; ``paused``
        is the time they took.  Given ``done``, it reports its last Ack.
        """

        ignore_unhandled_events = True

        def on_start(self, host, frontend, requests: int, seed: int, pace=None, done=None):
            rng = random.Random(seed)
            # stamps in flat arrays: the soak's memory stays the service's
            self.sent = array("d")
            self.acked = array("d")
            self.mismatched = 0
            self.paused = 0.0
            for index in range(requests):
                if pace is not None and index % PACE_EVERY == 0:
                    self.paused += pace.sample()
                # payloads stay globally distinct across clients and requests
                data = index * 1_000_000 + self.id.value * 100 + rng.randrange(100)
                self.sent.append(clock())
                self.send(frontend, SubmitRequest(data, self.id))
                ack = yield Receive(Ack)
                self.acked.append(clock())
                self.mismatched += ack.data != data
            if done is not None:
                done.client_done()
            self.send(host, ClientDone(self.id))

    class BenchServiceHost(ServiceHost):
        """The service with the benchmark's clients in place of its own."""

        def on_start(self, num_clients: int, requests: int, seed: int, pace=None,
                     done=None):
            super().on_start(num_nodes=3, num_clients=0, num_requests=0, timer_ticks=10)
            self.num_clients = num_clients
            # the first client alone samples the reference loop
            self.clients = [
                self.create(BenchClient, self.id, self.frontend, requests,
                            seed * 1000 + index, pace if index == 0 else None, done,
                            name=f"BenchClient-{index}")
                for index in range(num_clients)
            ]

    return BenchClient, BenchServiceHost


class ClientsDone:
    """Set once every benchmark client has had its last Ack."""

    def __init__(self, clients: int) -> None:
        self.left = clients
        self.event = threading.Event()

    def client_done(self) -> None:
        # clients run on the service's single loop thread: no lock needed
        self.left -= 1
        if not self.left:
            self.event.set()


#: requests per second each soak is sized for: a soak sends a fixed number
#: of requests, so its work (and the service's memory, which grows with
#: every value stored) does not depend on how fast the machine runs
SOAK_RATE = 5000
#: seconds of requests per soak; a run holds as many soaks as fit, each on
#: a freshly booted service
SOAK_SECONDS = 2.0
#: requests of the sampling client between two reference samples (about
#: four samples a second; sampling between soaks did not track the
#: service's speed, sampling on its thread does)
PACE_EVERY = 625


class SoakWorkload:
    name = "service-soak"

    def __init__(self) -> None:
        self.clients = max(1, os.cpu_count() or 1)

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.BenchClient, self.BenchServiceHost = soak_classes()

    def entry(self, requests: int, seed: int, pace: Optional[Pace], done):
        from repro.examplesys.harness.monitors import AckLivenessMonitor, ReplicaSafetyMonitor

        host_cls, clients = self.BenchServiceHost, self.clients

        def entry(runtime) -> None:
            runtime.register_monitor(ReplicaSafetyMonitor)
            runtime.register_monitor(AckLivenessMonitor)
            runtime.create_machine(host_cls, num_clients=clients, requests=requests,
                                   seed=seed, pace=pace, done=done, name="Service")

        return entry

    def boot(self, requests: int, seed: int, pace: Optional[Pace] = None, done=None):
        from repro.core import ProductionRuntime

        runtime = ProductionRuntime(tick_interval=0.002)
        runtime.start(self.entry(requests, seed, pace, done))
        return runtime

    @staticmethod
    def units(results) -> int:
        return len(results)

    def soak(self, index: int, tracer, pace: Pace) -> dict:
        """One soak on a fresh service: raw stamps and the checked summary."""
        requests = max(1, round(SOAK_RATE * SOAK_SECONDS / self.clients))
        seed = self.seed * 10_000 + index

        done = ClientsDone(self.clients)

        def serve(runtime) -> None:
            # Wait for the last Ack without waking: join() polls every 10 ms,
            # and each poll's hand-over of the interpreter lock to this
            # thread and back delays a request in flight, which set the p99.
            done.event.wait(30 * SOAK_SECONDS + 60)
            runtime.join(60)

        def soak():
            started = clock()
            runtime = in_span(tracer, "production.boot", self.boot, requests, seed, pace, done)
            booted = clock()
            in_span(tracer, "production.serve", serve, runtime)
            joined = clock()
            bug = in_span(tracer, "production.shutdown", runtime.shutdown)
            stopped = clock()
            return runtime, bug, started, booted, joined, stopped

        runtime, bug, started, booted, joined, stopped = in_span(tracer, "bench.soak", soak)
        clients = runtime.machines_of_type(self.BenchClient)
        first_send = min((c.sent[0] for c in clients if c.sent), default=booted)
        last_ack = max((c.acked[-1] for c in clients if c.acked), default=joined)
        return {
            "summary": summarize_soak(clients, bug, runtime.termination_reason),
            "raw_latencies": array("d", (
                ack_at - sent_at
                for client in clients
                for sent_at, ack_at in zip(client.sent, client.acked)
            )),
            "first_send": first_send,
            "last_ack": last_ack,
            "paused": sum(client.paused for client in clients),
            "events": runtime.step_count,
            "boot_s": booted - started,
            "drain_s": joined - last_ack,
            "shutdown_s": stopped - joined,
        }

    def measure(self, seconds: float, units: Optional[int] = None, tracer=None):
        """Soaks until ``seconds`` pass (at least one), or exactly ``units``."""
        results = []
        pace = Pace()
        started = clock()
        while True:
            if units is not None:
                if len(results) >= units:
                    break
            elif results and clock() - started + SOAK_SECONDS > seconds:
                break
            results.append(self.soak(len(results), tracer, pace))
            # A stopped service is cyclic garbage; collect it now, so the
            # run's peak memory is one soak's and not the soak count's.
            gc.collect()
        for result in results:
            first_send, last_ack = result["first_send"], result["last_ack"]
            factor = pace.factor(first_send, last_ack)
            result["raw_serve_s"] = last_ack - first_send - result["paused"]
            result["serve_s"] = result["raw_serve_s"] * factor
            result["latencies"] = array(
                "d", (latency * factor for latency in result["raw_latencies"])
            )
        return results, clock() - started

    @staticmethod
    def work_seconds(results) -> float:
        return sum(r["serve_s"] for r in results)

    @staticmethod
    def verify(results) -> List[str]:
        problems = []
        for index, result in enumerate(results):
            found = check_soak(result["summary"])
            result["ok"] = not found
            problems.extend(f"soak {index}: {problem}" for problem in found)
        return problems

    @staticmethod
    def metrics(results) -> Dict[str, float]:
        def figures(latency_key: str, serve_key: str, prefix: str) -> Dict[str, float]:
            latencies = [value for result in results for value in result[latency_key]]
            return {
                f"{prefix}throughput_per_s": statistics.median(
                    len(result[latency_key]) / result[serve_key] for result in results
                ),
                f"{prefix}latency_ms.p50": statistics.median(latencies) * 1000,
                # each soak's p99 (100 requests beyond it), median over the
                # soaks, so one soak's scheduling hiccups do not set the tail
                f"{prefix}latency_ms.tail": statistics.median(
                    percentile(result[latency_key], 99) for result in results
                ) * 1000,
            }

        sent = sum(result["summary"]["sent"] for result in results)
        acked = sum(result["summary"]["acked"] for result in results)
        metrics = figures("latencies", "serve_s", "")
        metrics.update(figures("raw_latencies", "raw_serve_s", "raw."))
        metrics.update({
            "success_share": acked / max(1, sent),
            "requests": acked,
            "soaks": len(results),
        })
        return metrics


def describe(result: dict) -> dict:
    """The JSON-safe figures of one unit of work, for the details file."""
    if "hunt" in result:
        return {
            **dataclasses.asdict(result["hunt"]),
            "found": result["bug"] is not None,
            "ok": result["ok"],
            "executions": result["executions"],
            "hunt_s": result["hunt_s"],
            "raw_hunt_s": result["raw_hunt_s"],
            "shrink_s": result["shrink_s"],
        }
    if "exhaust_s" in result:
        return {
            "round": result["round"], "search": result["search"],
            "exhaust_s": result["exhaust_s"], "raw_exhaust_s": result["raw_exhaust_s"],
            "ok": result["ok"], **result["summary"],
        }
    return {
        key: value for key, value in result.items()
        if key not in ("latencies", "raw_latencies")
    }


WORKLOADS = {
    HuntWorkload.name: HuntWorkload,
    ExhaustWorkload.name: ExhaustWorkload,
    SoakWorkload.name: SoakWorkload,
}


def make(name: str):
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}")
    return WORKLOADS[name]()
