from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import FIVE_EVENT_EDGES, SIX_EVENT_EDGES

from ubgraph import (
    UncertainEvent,
    UncertainTrace,
    covering_relation,
    enumerate_realizations,
    linear_extensions,
    possible_immediate_successor,
    precedes,
    udfg_bounds_log,
    udfg_bounds_trace,
)
from ubgraph.oracle import MAX_REALIZATIONS, SizeLimitError


def _event(event_id, t_min, t_max, labels=("a",), determinate=True):
    return UncertainEvent(event_id, frozenset(labels), t_min, t_max, determinate)


def reference_udfg_bounds(trace):
    """Definitional UDFG bounds: min and max per pair over every realization.

    Materializes the realization set, counts each realization's adjacent
    label pairs, then scans every pair over every realization (a pair a
    realization lacks counts 0 there).  ``udfg_bounds_trace`` must agree.
    """
    per_realization = []
    for realization in enumerate_realizations(trace):
        sequence = [label for _, label in realization]
        per_realization.append(Counter(zip(sequence, sequence[1:])))
    pairs = set().union(*per_realization)
    return {
        pair: (
            min(counts[pair] for counts in per_realization),
            max(counts[pair] for counts in per_realization),
        )
        for pair in pairs
    }


@st.composite
def small_traces(draw, max_events: int = 7):
    """Tie-heavy traces for the oracle: shared endpoints, zero widths, labels a-c."""
    n = draw(st.integers(min_value=0, max_value=max_events))
    events = []
    for i in range(n):
        t_min = draw(st.integers(min_value=0, max_value=6))
        t_max = t_min + draw(st.integers(min_value=0, max_value=3))
        labels = draw(st.sets(st.sampled_from("abc"), min_size=1, max_size=3))
        events.append(_event(f"e{i}", t_min, t_max, labels, draw(st.booleans())))
    return UncertainTrace("t", tuple(events))


def brute_force_realizations(trace):
    """Realizations by brute force: every permutation of every kept subset.

    A subset is kept when it holds every determinate event; a
    permutation counts when no later event precedes an earlier one.
    """
    events = trace.events
    indeterminate = [e for e in events if not e.determinate]
    found = set()
    for k in range(len(indeterminate) + 1):
        for dropped in combinations(indeterminate, k):
            kept = [e for e in events if e not in dropped]
            for order in permutations(kept):
                if any(precedes(w, v) for i, v in enumerate(order) for w in order[i + 1:]):
                    continue
                for chosen in product(*(sorted(e.activities) for e in order)):
                    found.add(tuple((e.event_id, label) for e, label in zip(order, chosen)))
    return frozenset(found)


def test_covering_golden(five_event_trace, six_event_trace):
    assert covering_relation(five_event_trace) == FIVE_EVENT_EDGES
    assert covering_relation(six_event_trace) == SIX_EVENT_EDGES


def test_covering_empty_and_single():
    assert covering_relation(UncertainTrace("c")) == frozenset()
    assert covering_relation(UncertainTrace("c", (_event("e1", 0, 0),))) == frozenset()


def test_extensions_of_five_event_fixture(five_event_trace):
    # worked out by hand: e1 first, e5 last, e3 floats around e2 < e4
    assert linear_extensions(five_event_trace) == {
        ("e1", "e2", "e3", "e4", "e5"),
        ("e1", "e2", "e4", "e3", "e5"),
        ("e1", "e3", "e2", "e4", "e5"),
    }


def test_extensions_of_antichain():
    trace = UncertainTrace("c", tuple(_event(f"e{i}", 0, 9) for i in range(3)))
    assert len(linear_extensions(trace)) == 6


def test_extensions_of_chain():
    trace = UncertainTrace("c", tuple(_event(f"e{i}", i * 10, i * 10) for i in range(5)))
    assert linear_extensions(trace) == {("e0", "e1", "e2", "e3", "e4")}


def test_extensions_size_guard():
    trace = UncertainTrace("c", tuple(_event(f"e{i}", 0, 9) for i in range(11)))
    with pytest.raises(SizeLimitError, match="limited to 10"):
        linear_extensions(trace)


def test_realizations_of_certain_event():
    trace = UncertainTrace("c", (_event("e1", 0, 0),))
    assert enumerate_realizations(trace) == {(("e1", "a"),)}


def test_realizations_of_two_label_event():
    trace = UncertainTrace("c", (_event("e1", 0, 0, labels=("a", "b")),))
    assert enumerate_realizations(trace) == {(("e1", "a"),), (("e1", "b"),)}


def test_realizations_of_indeterminate_event():
    trace = UncertainTrace("c", (_event("e1", 0, 0, determinate=False),))
    assert enumerate_realizations(trace) == {(), (("e1", "a"),)}


def test_realization_count_of_five_event_fixture(five_event_trace):
    # 3 orders x 4 labelings, with and without the indeterminate e5
    realizations = enumerate_realizations(five_event_trace)
    assert len(realizations) == 24
    with_e5 = {r for r in realizations if any(i == "e5" for i, _ in r)}
    assert len(with_e5) == 12
    for realization in with_e5:
        assert [i for i, _ in realization][0] == "e1"
        assert [i for i, _ in realization][-1] == "e5"


def test_realizations_size_guard():
    trace = UncertainTrace("c", tuple(_event(f"e{i}", 0, 9) for i in range(9)))
    with pytest.raises(SizeLimitError, match="limited to 8"):
        enumerate_realizations(trace)


def test_realizations_budget_guard():
    # 8 mutually overlapping events -> 8! orders alone busts the budget
    trace = UncertainTrace(
        "c", tuple(_event(f"e{i}", 0, 9, labels=("a", "b")) for i in range(8))
    )
    with pytest.raises(SizeLimitError, match="realizations"):
        enumerate_realizations(trace)


def test_possible_immediate_successor(six_event_trace):
    assert possible_immediate_successor(six_event_trace, "e1", "e2")
    assert not possible_immediate_successor(six_event_trace, "e1", "e6")
    with pytest.raises(ValueError, match="unknown event id"):
        possible_immediate_successor(six_event_trace, "e1", "nope")


def test_immediate_successor_without_precedence():
    # overlap lets either event come first even though neither precedes
    trace = UncertainTrace("c", (_event("A", 0, 10), _event("B", 2, 3)))
    assert possible_immediate_successor(trace, "B", "A")
    assert possible_immediate_successor(trace, "A", "B")


def test_udfg_five_event_fixture(five_event_trace):
    bounds = udfg_bounds_trace(five_event_trace)
    assert bounds, "expected at least one reported pair"
    assert all(value == (0, 1) for value in bounds.values())


def test_udfg_certain_pair():
    trace = UncertainTrace("c", (_event("e1", 0, 0, labels=("a",)), _event("e2", 9, 9, labels=("b",))))
    assert udfg_bounds_trace(trace) == {("a", "b"): (1, 1)}


def test_udfg_single_event_empty():
    assert udfg_bounds_trace(UncertainTrace("c", (_event("e1", 0, 0),))) == {}


def test_udfg_repeated_label_pair_with_positive_minimum():
    # realizations read a a a or a a b: (a, a) occurs once or twice, never 0
    trace = UncertainTrace(
        "c", (_event("e1", 0, 0), _event("e2", 1, 1), _event("e3", 2, 2, labels=("a", "b")))
    )
    assert udfg_bounds_trace(trace) == {("a", "a"): (1, 2), ("a", "b"): (0, 1)}


@settings(max_examples=300, deadline=None)
@given(small_traces())
def test_udfg_bounds_match_reference(trace):
    # Traces admitted with a large realization count take the same path as
    # small ones and would only slow the test; refused ones stay in.
    labelings = 1
    for event in trace.events:
        labelings *= len(event.activities) * (1 if event.determinate else 2)
    count_bound = labelings * len(linear_extensions(trace))
    assume(count_bound <= 20_000 or count_bound > MAX_REALIZATIONS)
    try:
        expected = reference_udfg_bounds(trace)
    except SizeLimitError as refusal:
        with pytest.raises(SizeLimitError) as raised:
            udfg_bounds_trace(trace)
        assert str(raised.value) == str(refusal)
    else:
        assert udfg_bounds_trace(trace) == expected


@settings(max_examples=200, deadline=None)
@given(small_traces())
def test_realizations_match_brute_force(trace):
    # each kept subset's orders are the whole trace's orders restricted to
    # it; the brute force enumerates them directly.  Large realization
    # sets take the same path as small ones and would only slow the test.
    try:
        realizations = enumerate_realizations(trace)
    except SizeLimitError:
        assume(False)
    assume(len(realizations) <= 20_000)
    assert realizations == brute_force_realizations(trace)


def test_udfg_refuses_long_trace():
    trace = UncertainTrace("c", tuple(_event(f"e{i}", i, i) for i in range(9)))
    with pytest.raises(SizeLimitError, match="limited to 8"):
        udfg_bounds_trace(trace)


def test_udfg_refuses_over_budget_trace():
    # the same 8 overlapping two-label events enumerate_realizations refuses
    trace = UncertainTrace(
        "c", tuple(_event(f"e{i}", 0, 9, labels=("a", "b")) for i in range(8))
    )
    with pytest.raises(SizeLimitError, match="realizations") as raised:
        udfg_bounds_trace(trace)
    with pytest.raises(SizeLimitError) as reference:
        enumerate_realizations(trace)
    assert str(raised.value) == str(reference.value)


def test_udfg_log_sums_per_trace_bounds():
    t1 = UncertainTrace("c1", (_event("x1", 0, 0, ("a",)), _event("x2", 9, 9, ("b",))))
    t2 = UncertainTrace("c2", (_event("y1", 0, 0, ("a",)), _event("y2", 9, 9, ("b",))))
    assert udfg_bounds_log([t1, t2]) == {("a", "b"): (2, 2)}


def test_udfg_log_empty():
    assert udfg_bounds_log([]) == {}
