"""Execution fingerprinting: stable hashing and the incremental invariant.

The load-bearing property is that the incrementally maintained global
fingerprint (updated in O(1) from the queue hooks plus one ``touch`` per
dispatched step) always equals the value recomputed from scratch by walking
every machine and monitor — checked here at *every scheduling point* of real
harness executions via a delegating strategy, on every registered scenario.
"""

import enum
import subprocess
import sys

import pytest

from repro.core import Event, Machine, TestingConfig, TestingEngine, on_event, run_test
from repro.core.fingerprint import FingerprintTracker, stable_hash
from repro.core.ids import MachineId
from repro.core.registry import all_scenarios, get_scenario
from repro.core.strategy import RandomStrategy
from repro.examplesys.harness.scenarios import build_replication_test
from repro.migratingtable.migration import PartitionState
from repro.migratingtable.table_types import ErrorCode, OpKind
from repro.vnext.harness.scenarios import build_failover_test


# ---------------------------------------------------------------------------
# stable_hash
# ---------------------------------------------------------------------------
def test_stable_hash_is_deterministic_and_discriminating():
    value, exact = stable_hash((1, "a", 2.5, b"x", None, True))
    again, _ = stable_hash((1, "a", 2.5, b"x", None, True))
    assert value == again
    assert exact
    assert stable_hash((1, "a"))[0] != stable_hash(("a", 1))[0]
    assert stable_hash(1)[0] != stable_hash("1")[0]
    assert stable_hash(True)[0] != stable_hash(1)[0]
    assert stable_hash([1, 2])[0] != stable_hash([2, 1])[0]


def test_stable_hash_canonicalizes_unordered_containers():
    a = {"x": 1, "y": 2}
    b = dict([("y", 2), ("x", 1)])
    assert stable_hash(a)[0] == stable_hash(b)[0]
    assert stable_hash({3, 1, 2})[0] == stable_hash({2, 3, 1})[0]
    # mixed-type dict keys must not raise (sorted by encoded bytes)
    stable_hash({1: "a", "b": 2, None: 3})


def test_stable_hash_handles_cycles():
    cyclic = []
    cyclic.append(cyclic)
    value, exact = stable_hash(cyclic)
    other = []
    other.append(other)
    assert exact
    assert value == stable_hash(other)[0]


def test_stable_hash_machine_id_and_objects():
    assert (
        stable_hash(MachineId(1, "M"))[0]
        == stable_hash(MachineId(1, "M"))[0]
    )
    assert stable_hash(MachineId(1, "M"))[0] != stable_hash(MachineId(2, "M"))[0]

    class Payload:
        def __init__(self, x):
            self.x = x
            self._internal = object()  # underscore attrs are excluded

    assert stable_hash(Payload(1))[0] == stable_hash(Payload(1))[0]
    assert stable_hash(Payload(1))[0] != stable_hash(Payload(2))[0]


def test_enum_members_hash_distinctly_and_exactly():
    """Enum members keep their payload in underscore attributes; they must
    still encode by class path plus member name, not collapse into one."""
    for enum_cls in (PartitionState, OpKind, ErrorCode):
        hashes = [stable_hash(member) for member in enum_cls]
        assert all(exact for _, exact in hashes)
        assert len({value for value, _ in hashes}) == len(enum_cls)
    # a str-mixin member is not its plain string value
    member = next(iter(PartitionState))
    assert stable_hash(member)[0] != stable_hash(member.value)[0]
    # the class path is part of the encoding: same member name and value,
    # different enum classes
    class Left(enum.Enum):
        SAME = 1

    class Right(enum.Enum):
        SAME = 1

    assert stable_hash(Left.SAME)[0] != stable_hash(Right.SAME)[0]


def test_stable_hash_flags_unencodable_values_inexact():
    value, exact = stable_hash(lambda: None)
    assert not exact
    # still deterministic: the marker encodes the type
    assert value == stable_hash(lambda: None)[0]
    _, exact = stable_hash({"handle": object()})
    assert not exact


def test_stable_hash_matches_across_interpreters():
    """No PYTHONHASHSEED dependence: a fresh process agrees bit-for-bit."""
    local = stable_hash(("probe", 42, frozenset({"a", "b"}), {"k": (1, 2)}))[0]
    script = (
        "from repro.core.fingerprint import stable_hash\n"
        "print(stable_hash(('probe', 42, frozenset({'a', 'b'}), {'k': (1, 2)}))[0])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": "7"},
    )
    assert int(result.stdout.strip()) == local


# ---------------------------------------------------------------------------
# incremental == from-scratch, at every scheduling point of real executions
# ---------------------------------------------------------------------------
class InvariantCheckingStrategy(RandomStrategy):
    """Random scheduling that cross-checks the tracker at every choice."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self._tracked_runtime = None
        self.checks = 0

    def attach_runtime(self, runtime):
        super().attach_runtime(runtime)
        self._tracked_runtime = runtime

    def next_machine(self, enabled, step):
        tracker = self._tracked_runtime._fingerprint
        incremental = tracker.current()
        scratch = tracker.recompute()
        assert incremental.value == scratch.value, (
            f"incremental fingerprint diverged at step {step}"
        )
        assert incremental.exact == scratch.exact
        self.checks += 1
        return super().next_machine(enabled, step)


def _run_with_invariant(entry, iterations=5, max_steps=80):
    config = TestingConfig(
        iterations=iterations,
        max_steps=max_steps,
        fingerprints=True,
        stop_at_first_bug=False,
        max_bugs=None,
    )
    strategy = InvariantCheckingStrategy(seed=11)
    engine = TestingEngine(entry, config, strategy)
    report = engine.run()
    assert strategy.checks > 100, "invariant was barely exercised"
    return report


def test_incremental_fingerprint_matches_recompute_on_failover():
    _run_with_invariant(build_failover_test(fixed=False, num_nodes=2))


def test_incremental_fingerprint_matches_recompute_on_replication():
    # examplesys exercises defer/ignore disciplines, receive and timers —
    # the queue-surgery paths the rolling hashes must track exactly.
    _run_with_invariant(build_replication_test(num_nodes=3, num_requests=2))


@pytest.mark.parametrize("name", [case.name for case in all_scenarios()])
def test_incremental_fingerprint_matches_recompute_on_every_scenario(name):
    """Value and exactness agree at every scheduling point of every case
    study — MigratingTable shares mutable tables between machines and runs
    its clients as paused coroutines, the paths the two examples above
    never take."""
    config = TestingConfig(
        iterations=3, max_steps=40, fingerprints=True, stop_at_first_bug=False, max_bugs=None
    )
    strategy = InvariantCheckingStrategy(seed=3)
    TestingEngine(get_scenario(name).build(), config, strategy).run()
    assert strategy.checks > 0


# ---------------------------------------------------------------------------
# shared mutable state
# ---------------------------------------------------------------------------
class _Append(Event):
    pass


class _Sharer(Machine):
    """Keeps references to objects another machine also keeps."""

    def on_start(self, shared, config):
        self.shared = shared
        self.config = config

    @on_event(_Append)
    def on_append(self):
        self.shared.append(self.id.value)


class _ExactnessRecorder(InvariantCheckingStrategy):
    def __init__(self, seed=0):
        super().__init__(seed)
        self.exact = []

    def next_machine(self, enabled, step):
        self.exact.append(self._tracked_runtime._fingerprint.current().exact)
        return super().next_machine(enabled, step)


def _run_sharers(append: bool):
    shared = []
    config = {"replicas": 3}

    def entry(runtime):
        first = runtime.create_machine(_Sharer, shared, config)
        runtime.create_machine(_Sharer, shared, config)
        if append:
            runtime.send_event(first, _Append())

    strategy = _ExactnessRecorder(seed=1)
    engine = TestingEngine(
        entry, TestingConfig(iterations=1, max_steps=20, fingerprints=True), strategy
    )
    engine.run()
    tracker = strategy._tracked_runtime._fingerprint
    final = tracker.current()
    assert final == tracker.recompute()
    return strategy.exact + [final.exact]


def test_shared_state_nobody_writes_keeps_components_exact():
    exact = _run_sharers(append=False)
    assert exact and all(exact)


def test_shared_state_written_by_one_machine_makes_sharers_inexact():
    """Once one machine writes a list another machine also holds, the other
    machine is re-walked (values stay equal to recompute, which the
    recording strategy checks) and both are inexact from then on."""
    exact = _run_sharers(append=True)
    assert exact[0]
    assert not exact[-1]
    assert exact == sorted(exact, reverse=True)  # exact, then inexact for good


# ---------------------------------------------------------------------------
# golden digests: the encoding is pinned byte for byte
# ---------------------------------------------------------------------------
def test_stateful_failover_fingerprint_digest_is_golden():
    """Stateful DFS over the one-node failover space at 6 steps.  The
    7-step digest is pinned by benchmarks/test_bench_stateful.py."""
    config = TestingConfig(
        iterations=2_000_000,
        max_steps=6,
        stop_at_first_bug=False,
        max_bugs=None,
        max_log_records=16,
        strategy="dfs",
        stateful=True,
    )
    report = TestingEngine(build_failover_test(fixed=False, num_nodes=1), config).run()
    assert report.state_space_exhausted
    assert report.iterations_executed == 935
    assert len(report.coverage.fingerprints) == 665
    assert report.coverage.fingerprint_digest() == (
        "fb7edd69a8e832abd842761f21ee52a8d5985e8e17c6c858793a5a29d56e25cd"
    )


def test_fingerprints_flow_into_coverage_and_report():
    config = TestingConfig(iterations=4, max_steps=60, fingerprints=True, seed=2)
    report = run_test(build_replication_test(), config)
    assert len(report.coverage.fingerprints) > 0
    assert report.coverage.summary()["fingerprints"] == len(report.coverage.fingerprints)
    # fingerprinting is strictly opt-in: the plain path records nothing
    plain = run_test(build_replication_test(), TestingConfig(iterations=2, max_steps=60))
    assert plain.coverage.fingerprints == set()


def test_tracker_wants_fingerprints_opt_in():
    """The runtime builds a tracker iff config or strategy asks for one."""
    from repro.core.runtime import TestRuntime

    entry = build_replication_test()
    strategy = RandomStrategy(seed=0)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=10))
    assert runtime.execution_fingerprint() is None
    runtime.run(entry)

    strategy = RandomStrategy(seed=0)
    strategy.prepare_iteration(0)
    runtime = TestRuntime(strategy, TestingConfig(max_steps=10, fingerprints=True))
    assert isinstance(runtime._fingerprint, FingerprintTracker)
    runtime.run(entry)
    observed = runtime.execution_fingerprint()
    assert observed is not None
    assert observed.value == runtime._fingerprint.recompute().value
