"""Shared fixtures: two hand-built reference traces.

``five_event_trace`` mixes all three kinds of uncertainty: an interval
timestamp, a two-label activity set, and an indeterminate final event.
``six_event_trace`` has certain activities and three interval
timestamps.  Their behavior graphs are known by hand and double-checked
against the enumeration oracle, so they anchor most golden tests.
"""

from __future__ import annotations

import sys
from datetime import datetime, timedelta, timezone

import pytest

from ubgraph import BehaviorGraph, UncertainEvent, UncertainTrace, build_baseline, build_sweep

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def day(d: int) -> int:
    """Midnight UTC of 2011-12-<d>, in epoch milliseconds."""
    return (datetime(2011, 12, d, tzinfo=timezone.utc) - _EPOCH) // timedelta(
        milliseconds=1
    )


def pytest_terminal_summary(terminalreporter):
    # echo the acceptance verdict lines after the run so they stay
    # visible even when pytest swallows stdout of passing tests
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "CRITERION_LINES", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # build once with each construction before any test runs, so first-call
    # costs (lazy imports, numpy's first dispatches) stay out of the tests
    # that assert wall-clock budgets
    trace = UncertainTrace(
        case_id="warm",
        events=(
            UncertainEvent("w1", frozenset({"a"}), 0, 0),
            UncertainEvent("w2", frozenset({"b"}), 1, 3),
            UncertainEvent("w3", frozenset({"c"}), 5, 5),
        ),
    )
    assert build_baseline(trace).edges == build_sweep(trace).edges


@pytest.fixture
def five_event_trace() -> UncertainTrace:
    return UncertainTrace(
        case_id="945",
        events=(
            UncertainEvent("e1", frozenset({"a"}), day(5), day(5)),
            UncertainEvent("e2", frozenset({"b", "c"}), day(7), day(7)),
            UncertainEvent("e3", frozenset({"d"}), day(6), day(10)),
            UncertainEvent("e4", frozenset({"a", "c"}), day(9), day(9)),
            UncertainEvent("e5", frozenset({"e"}), day(11), day(11), determinate=False),
        ),
    )


@pytest.fixture
def six_event_trace() -> UncertainTrace:
    return UncertainTrace(
        case_id="872",
        events=(
            UncertainEvent("e1", frozenset({"a"}), day(5), day(5)),
            UncertainEvent("e2", frozenset({"b"}), day(7), day(7)),
            UncertainEvent("e3", frozenset({"c"}), day(6), day(10)),
            UncertainEvent("e4", frozenset({"d"}), day(8), day(11)),
            UncertainEvent("e5", frozenset({"e"}), day(9), day(9)),
            UncertainEvent("e6", frozenset({"f"}), day(12), day(13)),
        ),
    )


def reachable(graph: BehaviorGraph, source: str, target: str) -> bool:
    """True when a directed path (possibly empty) leads source -> target.

    Every vertex reaches itself.  Unknown vertices raise ValueError.
    """
    for vertex in (source, target):
        if vertex not in graph.vertices:
            raise ValueError(f"unknown vertex {vertex!r}")
    if source == target:
        return True
    successors: dict[str, list[str]] = {}
    for v, w in graph.edges:
        successors.setdefault(v, []).append(w)
    frontier = [source]
    seen = {source}
    while frontier:
        vertex = frontier.pop()
        for nxt in successors.get(vertex, ()):
            if nxt == target:
                return True
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


# behavior graph edge sets of the two fixtures, worked out by hand and
# confirmed by oracle.covering_relation in tests/test_oracle.py
FIVE_EVENT_EDGES = frozenset(
    {("e1", "e2"), ("e1", "e3"), ("e2", "e4"), ("e3", "e5"), ("e4", "e5")}
)
SIX_EVENT_EDGES = frozenset(
    {
        ("e1", "e2"),
        ("e1", "e3"),
        ("e2", "e4"),
        ("e2", "e5"),
        ("e3", "e6"),
        ("e4", "e6"),
        ("e5", "e6"),
    }
)
