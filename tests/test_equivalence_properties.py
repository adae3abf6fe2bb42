"""Property tests tying the three routes to a behavior graph together.

The sweep construction, the baseline construction, and the brute-force
covering relation must agree on every trace.  Timestamps are drawn from
a deliberately narrow range so that ties and shared endpoints, the
hardest cases for the sweep, appear constantly.
"""

from __future__ import annotations

from conftest import reachable
from hypothesis import given, settings
from hypothesis import strategies as st

from ubgraph import (
    BehaviorGraph,
    UncertainEvent,
    UncertainTrace,
    build_baseline,
    build_sweep,
    covering_relation,
    linear_extensions,
    precedes,
)

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


@st.composite
def traces(draw, max_events: int = 12, time_range: int = 25, max_width: int | None = None):
    n = draw(st.integers(min_value=0, max_value=max_events))
    events = []
    for i in range(n):
        t_min = draw(st.integers(min_value=0, max_value=time_range))
        if draw(st.booleans()):
            t_max = t_min
        else:
            t_max = t_min + draw(st.integers(min_value=1, max_value=max_width or time_range))
        events.append(
            UncertainEvent(
                event_id=f"e{i:02d}",
                activities=frozenset(
                    draw(st.sets(st.sampled_from("abc"), min_size=1, max_size=2))
                ),
                t_min=t_min,
                t_max=t_max,
                determinate=draw(st.booleans()),
            )
        )
    return UncertainTrace(case_id="t", events=tuple(events))


@PROPERTY_SETTINGS
@given(traces(), traces(max_events=9, time_range=6, max_width=3))
def test_three_routes_agree(trace, tie_heavy):
    # the second trace packs up to 9 events into instants 0-9, so shared
    # endpoints, zero-width intervals and equal instants are the norm
    for case in (trace, tie_heavy):
        baseline = build_baseline(case)
        sweep = build_sweep(case)
        expected = covering_relation(case)
        assert sweep.edges == baseline.edges == expected


@PROPERTY_SETTINGS
@given(traces())
def test_edges_characterized_by_covering(trace):
    # an edge is a precedence pair with no event certainly in between
    graph = build_sweep(trace)
    events = {e.event_id: e for e in trace.events}
    for v, w in graph.edges:
        assert precedes(events[v], events[w])
        assert not any(
            precedes(events[v], u) and precedes(u, events[w])
            for u in trace.events
        )


@PROPERTY_SETTINGS
@given(traces())
def test_graph_is_acyclic(trace):
    graph = build_sweep(trace)
    for v, w in graph.edges:
        assert not reachable(graph, w, v)


@PROPERTY_SETTINGS
@given(traces())
def test_reachability_matches_precedence(trace):
    # paths in the reduced graph encode exactly the precedence relation
    graph = build_sweep(trace)
    events = trace.events
    for v in events:
        for w in events:
            if v.event_id == w.event_id:
                continue
            assert reachable(graph, v.event_id, w.event_id) == precedes(v, w)


@PROPERTY_SETTINGS
@given(traces())
def test_topology_ignores_labels_and_determinacy(trace):
    # only timestamps shape the graph
    relabeled = UncertainTrace(
        case_id=trace.case_id,
        events=tuple(
            UncertainEvent(e.event_id, frozenset({"z"}), e.t_min, e.t_max, True)
            for e in trace.events
        ),
    )
    assert build_sweep(trace).edges == build_sweep(relabeled).edges


@settings(max_examples=150, deadline=None)
@given(traces(max_events=6, time_range=12))
def test_every_edge_is_a_possible_direct_succession(trace):
    # soundness: each edge can be realized with w right after v
    graph = build_sweep(trace)
    sequences = linear_extensions(trace)
    for v, w in graph.edges:
        assert any(
            a == v and b == w
            for sequence in sequences
            for a, b in zip(sequence, sequence[1:])
        )


@PROPERTY_SETTINGS
@given(traces(max_events=9, time_range=6, max_width=3), st.data())
def test_edges_view_acts_as_a_frozenset(trace, data):
    # graph.edges reads the index arrays; every set operation must give
    # what the frozenset of its pairs gives, from either side
    graph = build_sweep(trace)
    edges, frozen = graph.edges, frozenset(graph.edges)
    assert len(edges) == len(frozen) == len(graph.src)
    assert sorted(edges) == sorted(frozen)
    ids = trace.event_ids or ("e00",)
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    for other in (data.draw(st.frozensets(pair)), frozen, frozen - set(sorted(frozen)[:1])):
        sides = ((edges, other, frozen, other), (other, edges, other, frozen))
        for left, right, set_left, set_right in sides:
            assert (left == right) == (set_left == set_right)
            assert (left != right) == (set_left != set_right)
            assert (left <= right) == (set_left <= set_right)
            assert left - right == set_left - set_right
            assert left | right == set_left | set_right
            assert left & right == set_left & set_right
        assert type(edges - other) is type(edges | other) is type(edges & other) is frozenset
    for candidate in data.draw(st.lists(pair, max_size=5)) + [("e00",), "ab", None]:
        assert (candidate in edges) == (candidate in frozen)
    # the same edges from the baseline's arrays, in another order
    assert build_baseline(trace).edges == edges
    if len(edges):
        assert BehaviorGraph(trace, graph.src[1:], graph.dst[1:]).edges != edges
