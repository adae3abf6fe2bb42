from __future__ import annotations

import pickle

import pytest

from conftest import FIVE_EVENT_EDGES, SIX_EVENT_EDGES, reachable

from ubgraph import (
    BehaviorGraph,
    UncertainEvent,
    UncertainTrace,
    build_baseline,
    build_sweep,
)
from ubgraph import graph as graph_module
from ubgraph.oracle import SizeLimitError


def _event(event_id, t_min, t_max, labels=("a",)):
    return UncertainEvent(event_id, frozenset(labels), t_min, t_max)


@pytest.mark.parametrize("build", [build_baseline, build_sweep])
def test_five_event_golden(build, five_event_trace):
    graph = build(five_event_trace)
    assert graph.edges == FIVE_EVENT_EDGES
    assert graph.vertices == frozenset({"e1", "e2", "e3", "e4", "e5"})
    # labels and flags stay in the trace's columns, which the graph holds
    trace = graph.trace
    assert trace is five_event_trace
    e2, e5 = trace.event_ids.index("e2"), trace.event_ids.index("e5")
    assert (trace.activities[e2], trace.determinate[e2]) == (frozenset({"b", "c"}), True)
    assert (trace.activities[e5], trace.determinate[e5]) == (frozenset({"e"}), False)


@pytest.mark.parametrize("build", [build_baseline, build_sweep])
def test_six_event_golden(build, six_event_trace):
    assert build(six_event_trace).edges == SIX_EVENT_EDGES


@pytest.mark.parametrize("build", [build_baseline, build_sweep])
def test_certain_trace_gives_chain(build):
    trace = UncertainTrace("c", tuple(_event(f"e{i}", i * 10, i * 10) for i in range(4)))
    graph = build(trace)
    assert graph.edges == {("e0", "e1"), ("e1", "e2"), ("e2", "e3")}


@pytest.mark.parametrize("build", [build_baseline, build_sweep])
def test_fully_overlapping_intervals_give_no_edges(build):
    trace = UncertainTrace("c", tuple(_event(f"e{i}", 0, 100) for i in range(3)))
    graph = build(trace)
    assert graph.vertices == {"e0", "e1", "e2"}
    assert graph.edges == frozenset()


@pytest.mark.parametrize("build", [build_baseline, build_sweep])
@pytest.mark.parametrize("size", [0, 1])
def test_degenerate_traces(build, size):
    trace = UncertainTrace("c", tuple(_event(f"e{i}", 0, 0) for i in range(size)))
    graph = build(trace)
    assert len(graph.vertices) == size
    assert graph.edges == frozenset()


def test_tied_certain_timestamps_downstream():
    # two certain events at the same instant are unordered, yet both
    # must still be reached from an earlier event
    trace = UncertainTrace(
        "c",
        (_event("a", 0, 0), _event("x", 15, 15), _event("y", 15, 15)),
    )
    for build in (build_baseline, build_sweep):
        assert build(trace).edges == {("a", "x"), ("a", "y")}


def test_reachable(six_event_trace):
    graph = build_sweep(six_event_trace)
    assert reachable(graph, "e1", "e6")  # via e2 -> e4
    assert reachable(graph, "e1", "e1")  # zero-length path
    assert not reachable(graph, "e3", "e5")  # overlapping, unordered
    assert not reachable(graph, "e6", "e1")
    with pytest.raises(ValueError, match="unknown vertex"):
        reachable(graph, "e1", "nope")


def test_builds_are_deterministic(five_event_trace):
    assert build_sweep(five_event_trace) == build_sweep(five_event_trace)
    assert build_baseline(five_event_trace) == build_baseline(five_event_trace)


def test_graph_is_immutable_and_pickles(six_event_trace):
    graph = build_sweep(six_event_trace)
    with pytest.raises(AttributeError, match="immutable"):
        graph.src = graph.src[:1]
    with pytest.raises(ValueError, match="read-only"):
        graph.src[0] = 1
    copy = pickle.loads(pickle.dumps(graph))
    assert copy == graph and hash(copy) == hash(graph)
    assert copy.edges == SIX_EVENT_EDGES
    # equal when the traces and the edge sets are, whatever the edge order
    assert build_baseline(six_event_trace) == graph
    assert BehaviorGraph(six_event_trace, graph.src[1:], graph.dst[1:]) != graph


def test_baseline_refuses_traces_over_its_limit(monkeypatch):
    monkeypatch.setattr(graph_module, "MAX_BASELINE_EVENTS", 3)
    at_limit = UncertainTrace("c", tuple(_event(f"e{i}", i, i) for i in range(3)))
    assert len(build_baseline(at_limit).edges) == 2
    over = UncertainTrace("c", tuple(_event(f"e{i}", i, i) for i in range(4)))
    with pytest.raises(SizeLimitError, match="'c' has 4 events; .* limited to 3"):
        build_baseline(over)
    assert len(build_sweep(over).edges) == 3
