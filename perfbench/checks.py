"""Correctness checks on the benchmark's outputs, and proof that each can fail.

Every check takes a plain summary of what the program produced and returns
the list of problems it found (empty when the output is correct).  The
summaries are built by the ``summarize_*`` functions from the program's own
report objects, so :func:`self_test` can feed them deliberately wrong
reports and confirm that every check rejects them.

Run ``python3 perfbench/checks.py`` from the repository root to print the
self-test verdicts; every benchmark run also calls :func:`self_test` and
reports itself incorrect if any check could not fail.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


# ---------------------------------------------------------------------------
# summaries
# ---------------------------------------------------------------------------
def summarize_hunt(expected_kind: str, bug, shrunk_bug, replayed_bug) -> dict:
    """One hunt: the bug found (or None), its shrunk form and its replay."""
    return {
        "expected_kind": expected_kind,
        "found": bug is not None,
        "kind": bug.kind if bug is not None else None,
        "shrunk_kind": shrunk_bug.kind if shrunk_bug is not None else None,
        "shrunk_message": shrunk_bug.message if shrunk_bug is not None else None,
        "replay_message": replayed_bug.message if replayed_bug is not None else None,
    }


def summarize_search(exhausted: bool, bugs: Iterable, coverage, schedules: int) -> dict:
    """One exhaustive search (serial report or merged parallel report)."""
    return {
        "exhausted": bool(exhausted),
        "messages": sorted({bug.message for bug in bugs}),
        "digest": coverage.fingerprint_digest() if coverage.fingerprints else None,
        "distinct_states": len(coverage.fingerprints),
        "schedules": schedules,
    }


def summarize_engine_report(report) -> dict:
    return summarize_search(
        report.state_space_exhausted, report.bugs, report.coverage,
        report.iterations_executed,
    )


def summarize_parallel_report(report) -> dict:
    return summarize_search(
        report.state_space_exhausted, report.bugs, report.merged_coverage,
        report.total_iterations,
    )


def summarize_soak(clients, bug, termination_reason: Optional[str]) -> dict:
    """A soak: per-client send/Ack stamps and mismatches, the runtime's verdict."""
    sent = sum(len(client.sent) for client in clients)
    acked = sum(len(client.acked) for client in clients)
    mismatched = sum(client.mismatched for client in clients)
    return {
        "sent": sent,
        "acked": acked,
        "mismatched": mismatched,
        "bug": bug.message if bug is not None else None,
        "quiescent": termination_reason == "quiescence",
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------
def check_hunt(summary: dict) -> List[str]:
    """A found bug has the scenario's kind and its shrunk trace replays it."""
    if not summary["found"]:
        return []
    problems = []
    expected = summary["expected_kind"]
    if summary["kind"] != expected:
        problems.append(f"hunt found a {summary['kind']} bug, expected {expected}")
    if summary["shrunk_kind"] != expected:
        problems.append(f"shrunk bug is {summary['shrunk_kind']}, expected {expected}")
    if summary["replay_message"] != summary["shrunk_message"]:
        problems.append(
            f"shrunk trace replays to {summary['replay_message']!r}, "
            f"recorded {summary['shrunk_message']!r}"
        )
    return problems


def check_search(summary: dict, reference: dict, compare_digest: bool) -> List[str]:
    """The search exhausted the space and agrees with the reference search."""
    problems = []
    if not summary["exhausted"]:
        problems.append("search did not exhaust the bounded space")
    if summary["messages"] != reference["messages"]:
        problems.append(
            f"bug messages {summary['messages']} differ from the reference "
            f"{reference['messages']}"
        )
    if not summary["messages"]:
        problems.append("search found no bug in a space that has one")
    if compare_digest and summary["digest"] != reference["digest"]:
        problems.append(
            f"fingerprint digest {summary['digest']} ({summary['distinct_states']} "
            f"states) differs from the reference {reference['digest']} "
            f"({reference['distinct_states']} states)"
        )
    return problems


def check_soak(summary: dict) -> List[str]:
    """Quiescent end, no monitor violation, every request acknowledged."""
    problems = []
    if summary["bug"] is not None:
        problems.append(f"soak violated a monitor: {summary['bug']}")
    if not summary["quiescent"]:
        problems.append("soak did not end quiescent")
    if summary["acked"] != summary["sent"]:
        problems.append(f"{summary['sent'] - summary['acked']} request(s) unacknowledged")
    if summary["mismatched"]:
        problems.append(f"{summary['mismatched']} ack(s) answered another request")
    if not summary["sent"]:
        problems.append("soak sent no request")
    return problems


# ---------------------------------------------------------------------------
# every check can fail
# ---------------------------------------------------------------------------
def self_test() -> Dict[str, List[str]]:
    """Feed each check a correct and a deliberately wrong input.

    Returns, per check, the problems reported on the wrong input; a check
    with an empty list (or one that rejects the correct input) is broken.
    """
    from types import SimpleNamespace

    from repro.core.coverage import CoverageTracker
    from repro.core.engine import TestReport
    from repro.core.parallel import ClaimResult, ParallelReport, SubtreeClaim
    from repro.core.runtime import BugInfo

    verdicts: Dict[str, List[str]] = {}

    def record(name: str, good: List[str], bad: List[str]) -> None:
        # rejecting the correct input breaks a check as much as accepting
        # the wrong one
        verdicts[name] = [] if good else bad

    # a hunt report whose bug has the wrong kind
    safety = BugInfo(kind="safety", message="Safety violation: x", step=3)
    liveness = BugInfo(kind="liveness", message="Liveness violation: x", step=3)
    good = check_hunt(summarize_hunt("safety", safety, safety, safety))
    bad = check_hunt(summarize_hunt("safety", liveness, liveness, liveness))
    record("hunt-wrong-kind", good, bad)

    # a parallel report missing one fingerprint of the reference
    def parallel_with(fingerprints) -> ParallelReport:
        coverage = CoverageTracker()
        coverage.fingerprints.update(fingerprints)
        report = TestReport(strategy="dpor-lite", iterations_requested=3,
                            iterations_executed=3, bugs=[liveness], coverage=coverage,
                            state_space_exhausted=True)
        claim = ClaimResult(claim=SubtreeClaim(), report=report, worker=0,
                            exhausted=True, covered=False)
        return ParallelReport(scenario="s", strategy="dpor-lite", num_workers=2,
                              claim_iterations=1, results=[claim])

    reference = summarize_parallel_report(parallel_with({11, 22, 33}))
    good = check_search(reference, reference, compare_digest=True)
    bad = check_search(
        summarize_parallel_report(parallel_with({11, 22})), reference, compare_digest=True
    )
    record("parallel-missing-fingerprint", good, bad)

    # a soak with one unacknowledged request
    def client(sent: int, acked: int):
        return SimpleNamespace(sent=[0.0] * sent, acked=[0.0] * acked, mismatched=0)

    good = check_soak(summarize_soak([client(5, 5), client(4, 4)], None, "quiescence"))
    bad = check_soak(summarize_soak([client(5, 5), client(4, 3)], None, "quiescence"))
    record("soak-unacknowledged", good, bad)
    return verdicts


def broken_checks() -> List[str]:
    """Names of the checks that did not reject their wrong input."""
    return [name for name, problems in self_test().items() if not problems]


if __name__ == "__main__":
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    failures = 0
    for name, problems in self_test().items():
        verdict = "can fail" if problems else "BROKEN: accepted a wrong input"
        failures += not problems
        print(f"{name}: {verdict} {problems}")
    sys.exit(1 if failures else 0)
