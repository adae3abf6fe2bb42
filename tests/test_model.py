from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubgraph import (
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    precedes,
    validate_log,
    validate_trace,
)
from ubgraph import model
from ubgraph.model import MAX_TIMESTAMP_MS, MIN_TIMESTAMP_MS, InvalidTraceError, _Memo


def _event(event_id, t_min, t_max, labels=("a",), determinate=True):
    return UncertainEvent(event_id, frozenset(labels), t_min, t_max, determinate)


def test_activities_coerced_to_frozenset():
    event = UncertainEvent("e1", {"b", "a"}, 0, 0)
    assert event.activities == frozenset({"a", "b"})
    assert isinstance(event.activities, frozenset)


def test_trace_event_order_is_canonical():
    # (t_min, event_id): a tie on t_min goes by id, not by t_max
    trace = UncertainTrace("c", (_event("b", 5, 5), _event("a", 1, 9), _event("c", 1, 3)))
    assert [e.event_id for e in trace.events] == ["a", "c", "b"]
    # equality only depends on content, not construction order
    shuffled = UncertainTrace("c", (_event("c", 1, 3), _event("b", 5, 5), _event("a", 1, 9)))
    assert trace == shuffled


def test_log_sorted_by_case():
    log = UncertainLog((UncertainTrace("z"), UncertainTrace("a")))
    assert [t.case_id for t in log.traces] == ["a", "z"]
    assert len(log) == 2


def test_validate_ok(five_event_trace):
    assert validate_trace(five_event_trace) == []


def _violations(*events):
    """The violations UncertainTrace raises for these events."""
    with pytest.raises(InvalidTraceError) as caught:
        UncertainTrace("c", events)
    assert caught.value.case_id == "c"
    return caught.value.violations


def test_validate_duplicate_id():
    assert _violations(_event("e1", 0, 0), _event("e1", 5, 5)) == [
        "duplicate event id 'e1'"
    ]


def test_validate_empty_id():
    assert _violations(_event("", 0, 0), _event("e1", 5, 5)) == ["empty event id"]


def test_validate_empty_activities():
    assert _violations(UncertainEvent("e1", frozenset(), 0, 0)) == [
        "event 'e1' has no activity labels"
    ]


def test_validate_interval_backwards():
    assert _violations(UncertainEvent("e1", frozenset({"a"}), 9, 2)) == [
        "event 'e1' has t_min 9 > t_max 2"
    ]


def test_validate_bool_timestamps():
    # bool subclasses int but is not a timestamp; violations come in the
    # caller's order, since the rules run before the sort
    assert _violations(_event("e1", True, 5), _event("e2", 0, False)) == [
        "event 'e1' has bool timestamps",
        "event 'e2' has bool timestamps",
    ]


def test_validate_numpy_integer_timestamps():
    # refused on purpose: the JSONL writer cannot format numpy integers
    assert _violations(_event("e1", np.int64(0), np.int64(5))) == [
        "event 'e1' has non-integer timestamps"
    ]


@pytest.mark.parametrize("flag", [np.bool_(False), "no", None, 1], ids=repr)
def test_validate_non_bool_determinate_flags(flag):
    # refused on purpose: the JSONL writer would write any truthy flag as true
    expected = ["event 'e2' has a non-bool determinate flag"]
    assert _violations(_event("e1", 0, 0), _event("e2", 5, 5, determinate=flag)) == expected
    with pytest.raises(InvalidTraceError) as caught:
        UncertainTrace.from_columns("c", ["e1", "e2"], [{"a"}, {"b"}], [0, 5], [0, 5], [True, flag])
    assert caught.value.violations == expected


@pytest.mark.parametrize(
    "t_min, t_max",
    [
        (MAX_TIMESTAMP_MS, MAX_TIMESTAMP_MS + 1),  # 10000-01-01T00:00:00.000Z
        (MIN_TIMESTAMP_MS - 1, 0),  # one millisecond before year 1
        (0, 2**70),  # beyond int64
    ],
    ids=["year-10000", "before-year-1", "2**70"],
)
def test_validate_timestamps_outside_the_writer_range(t_min, t_max):
    # refused on purpose: the JSONL writer formats years 1 to 9999 only
    assert _violations(_event("e1", t_min, t_max)) == [
        "event 'e1' has timestamps outside years 1 to 9999"
    ]


@pytest.mark.parametrize(
    "case_id, events, expected",
    [
        # timestamps that do not compare with the other events' ints
        ("c", [_event("a", "5", "6"), _event("b", 1, 2)], ["event 'a' has non-integer timestamps"]),
        # an id that does not compare with the str id it ties with
        ("c", [_event(None, 1, 2), _event("b", 1, 2)], ["event id None is not a string"]),
        ("c", [_event(7, 1, 2), _event("b", 3, 4)], ["event id 7 is not a string"]),
        ("c", [_event("a", 1, 2, labels=(3, "x"))],
         ["event 'a' has an activity label that is not a string"]),
        (5, [_event("a", 1, 2)], ["case id 5 is not a string"]),
        # a str is no label set: its letters must not pass for labels
        ("c", [UncertainEvent("e1", "register", 0, 0)],
         ["event 'e1' has activities that are not a set of labels"]),
        ("c", [UncertainEvent("e1", 5, 0, 0)],
         ["event 'e1' has activities that are not a set of labels"]),
        ("c", [_event("e0", 0, 0), UncertainEvent("e1", "ab", 0, 0)],
         ["event 'e1' has activities that are not a set of labels"]),
        # a lone surrogate is a str that no UTF-8 file can hold
        ("c", [_event("e\ud800", 1, 2)], ["event id 'e\\ud800' is not UTF-8 text"]),
        ("c", [_event("a", 1, 2, labels=("x", "\udfff"))],
         ["event 'a' has an activity label that is not UTF-8 text"]),
        ("c\ud800", [_event("a", 1, 2)], ["case id 'c\\ud800' is not UTF-8 text"]),
    ],
    ids=[
        "str-timestamps", "none-id", "int-id", "int-label", "int-case-id",
        "str-label-set", "int-label-set", "event-with-str-labels",
        "surrogate-id", "surrogate-label", "surrogate-case-id",
    ],
)
def test_values_that_are_not_text_or_ints_are_refused_naming_them(case_id, events, expected):
    # the writers would fail on these later: JSONL with TypeError, DOT
    # with AttributeError
    for build in (
        lambda: UncertainTrace(case_id, events),
        lambda: UncertainTrace.from_columns(case_id, *_columns(events)),
    ):
        with pytest.raises(InvalidTraceError) as caught:
            build()
        assert caught.value.violations == expected


def test_validate_range_ends_are_accepted():
    trace = UncertainTrace("c", (_event("e1", MIN_TIMESTAMP_MS, MAX_TIMESTAMP_MS),))
    assert trace.t_min.tolist() == [MIN_TIMESTAMP_MS]
    assert trace.t_max.tolist() == [MAX_TIMESTAMP_MS]


def test_validate_empty_trace_ok():
    assert validate_trace(UncertainTrace("c")) == []


def test_trace_construction_raises_with_all_violations():
    # in the caller's order: the second e1 is the duplicate
    violations = _violations(UncertainEvent("e1", frozenset(), 5, 1), _event("e1", 0, 0))
    assert violations == [
        "event 'e1' has no activity labels",
        "event 'e1' has t_min 5 > t_max 1",
        "duplicate event id 'e1'",
    ]


def _columns(events):
    return (
        [e.event_id for e in events],
        [e.activities for e in events],
        [e.t_min for e in events],
        [e.t_max for e in events],
        [e.determinate for e in events],
    )


def test_columns_are_canonical_and_typed():
    trace = UncertainTrace(
        "c", (_event("b", 5, 5), _event("a", 1, 9, ("x", "y"), False), _event("c", 1, 3))
    )
    assert trace.event_ids == ("a", "c", "b")
    assert trace.activities == (frozenset("xy"), frozenset("a"), frozenset("a"))
    assert trace.determinate == (False, True, True)
    for column, values in ((trace.t_min, [1, 1, 5]), (trace.t_max, [9, 3, 5])):
        assert column.dtype == np.int64 and column.tolist() == values
        assert not column.flags.writeable


def test_from_columns_equals_the_event_route():
    events = (_event("b", 5, 5), _event("a", 1, 9, ("x", "y"), False), _event("c", 1, 3))
    ids, activities, t_min, t_max, determinate = _columns(events)
    built = UncertainTrace.from_columns(
        "c", ids, [set(a) for a in activities], t_min, t_max, determinate
    )
    expected = UncertainTrace("c", events)
    assert built == expected and hash(built) == hash(expected)
    assert built.events == expected.events
    assert list(built) == list(expected.events) and len(built) == 3


def test_from_columns_runs_the_same_rules():
    events = (UncertainEvent("e1", frozenset(), 5, 1), _event("e1", 0, 0), _event("e2", True, 4))
    with pytest.raises(InvalidTraceError) as caught:
        UncertainTrace.from_columns("c", *_columns(events))
    assert caught.value.violations == _violations(*events)


@st.composite
def _rows(draw):
    """Rows (id, labels, t_min, t_max, determinate) with tied t_min values, ids
    out of order, and at times one value that breaks a rule."""
    ids = draw(st.lists(st.sampled_from(["a", "b", "e1", "e2", "e10", "e20", "z"]), max_size=7, unique=True))
    rows = []
    for event_id in ids:
        low = draw(st.integers(0, 3))
        labels = draw(st.frozensets(st.sampled_from("xyz"), min_size=1, max_size=2))
        rows.append([event_id, labels, low, low + draw(st.integers(0, 2)), draw(st.booleans())])
    if rows and draw(st.booleans()):
        field, value = draw(st.sampled_from([
            (0, ""), (0, 7), (0, rows[0][0]), (1, frozenset()), (1, frozenset({1})), (1, "x"),
            (2, True), (2, np.int64(1)), (3, -1), (4, 1), (4, None),
        ]))
        draw(st.sampled_from(rows))[field] = value
    return rows


def _rows_obey_the_rules(rows):
    ids = [row[0] for row in rows]
    return (
        all(type(event_id) is str and event_id for event_id in ids)
        and len(set(ids)) == len(ids)
        and all(type(labels) is frozenset and labels and {*map(type, labels)} == {str}
                for _, labels, *_ in rows)
        and all(type(low) is int and type(high) is int and low <= high for _, _, low, high, _ in rows)
        and all(type(row[4]) is bool for row in rows)
    )


@settings(max_examples=400, deadline=None)
@given(rows=_rows(), data=st.data())
def test_from_columns_is_the_same_in_any_row_order(rows, data):
    # in canonical order the constructor keeps the rows, in any other it sorts them
    orders = [
        sorted(rows, key=lambda row: (row[2], str(row[0]))),
        rows,
        rows[::-1],
        data.draw(st.permutations(rows)),
    ]
    outcomes = []
    for order in orders:
        columns = [list(column) for column in zip(*order)] or [[]] * 5
        try:
            outcomes.append(UncertainTrace.from_columns("c", *columns))
        except InvalidTraceError as err:
            # listed in the columns' order, so compared as a multiset
            outcomes.append(sorted(err.violations))
    assert all(outcome == outcomes[0] for outcome in outcomes)
    if _rows_obey_the_rules(rows):
        trace = outcomes[0]
        assert list(zip(trace.t_min.tolist(), trace.event_ids)) == sorted(
            (row[2], row[0]) for row in rows
        )
        assert trace == UncertainTrace("c", (UncertainEvent(*row) for row in rows))
    else:
        assert isinstance(outcomes[0], list) and outcomes[0]


def test_from_columns_refuses_columns_of_different_lengths():
    with pytest.raises(ValueError, match="columns of different lengths"):
        UncertainTrace.from_columns("c", ["e1", "e2"], [{"a"}], [0], [0], [True])


def test_traces_differ_by_any_column():
    base = UncertainTrace("c", (_event("e1", 0, 2),))
    assert base != UncertainTrace("d", (_event("e1", 0, 2),))
    assert base != UncertainTrace("c", (_event("e1", 0, 3),))
    assert base != UncertainTrace("c", (_event("e1", 0, 2, ("b",)),))
    assert base != UncertainTrace("c", (_event("e1", 0, 2, determinate=False),))
    assert base != UncertainTrace("c", (_event("e2", 0, 2),))


def test_trace_is_immutable_and_pickles():
    trace = UncertainTrace("c", (_event("e1", 0, 2), _event("e2", 3, 3)))
    with pytest.raises(AttributeError):
        trace.case_id = "d"
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace and copy.events == trace.events


def test_validate_log_cross_trace_duplicates():
    log = UncertainLog(
        (
            UncertainTrace("c1", (_event("e1", 0, 0),)),
            UncertainTrace("c2", (_event("e1", 0, 0),)),
        )
    )
    violations = validate_log(log)
    assert any("more than one trace" in v for v in violations)


def _columns_trace(case_id, *event_ids):
    return UncertainTrace.from_columns(
        case_id, event_ids, [{"a"}] * len(event_ids), range(len(event_ids)), range(len(event_ids)),
        [True] * len(event_ids),
    )


@pytest.fixture(params=["hash", "equal_hashes"])
def id_hash(request, monkeypatch):
    # with every id hashing alike, the exact walk runs on every log
    if request.param == "equal_hashes":
        monkeypatch.setattr(model, "hash", lambda text: 0, raising=False)
    return request.param


def test_validate_log_accepts_a_valid_log_whatever_the_id_hashes(id_hash):
    log = UncertainLog(tuple(_columns_trace(f"c{k}", f"e{k}a", f"e{k}b") for k in range(5)))
    assert validate_log(log) == []
    assert validate_log(UncertainLog()) == []


def test_validate_log_names_shared_ids_with_their_first_case(id_hash):
    log = UncertainLog(
        (
            _columns_trace("a", "x", "y"),
            _columns_trace("b", "x", "z"),
            _columns_trace("c", "z", "x", "w"),
        )
    )
    assert validate_log(log) == [
        "event id 'x' appears in more than one trace: 'a' and 'b'",
        "event id 'z' appears in more than one trace: 'b' and 'c'",
        "event id 'x' appears in more than one trace: 'a' and 'c'",
    ]


def test_validate_log_names_duplicate_case_ids(id_hash):
    log = UncertainLog(
        (_columns_trace("c", "e1"), _columns_trace("c", "e2"), _columns_trace("d", "e1"))
    )
    assert validate_log(log) == [
        "duplicate case id 'c'",
        "event id 'e1' appears in more than one trace: 'c' and 'd'",
    ]


def test_precedes_requires_strict_gap():
    a = _event("a", 0, 4)
    b = _event("b", 5, 9)
    touching = _event("c", 4, 8)
    assert precedes(a, b)
    assert not precedes(b, a)
    assert not precedes(a, touching)  # shared instant leaves the pair unordered
    assert not precedes(a, a)


def test_equal_certain_timestamps_are_unordered():
    a = _event("a", 7, 7)
    b = _event("b", 7, 7)
    assert not precedes(a, b) and not precedes(b, a)


_interval = st.tuples(st.integers(-50, 50), st.integers(0, 30)).map(
    lambda pair: (pair[0], pair[0] + pair[1])
)


@st.composite
def _events(draw, ident):
    t_min, t_max = draw(_interval)
    return UncertainEvent(ident, frozenset({"a"}), t_min, t_max)


@settings(max_examples=300, deadline=None)
@given(_events("x"), _events("y"), _events("z"))
def test_precedes_is_a_strict_partial_order(x, y, z):
    assert not precedes(x, x)
    if precedes(x, y):
        assert not precedes(y, x)
    if precedes(x, y) and precedes(y, z):
        assert precedes(x, z)


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(st.integers(0, 12), max_size=60), kept=st.none() | st.integers(1, 5))
def test_memo_makes_a_value_once_per_key_it_holds(keys, kept):
    made = []

    def make(key):
        made.append(key)
        return [key]

    table = _Memo(make, kept)
    for key in keys:
        held, calls = table.get(key), len(made)
        value = table[key]
        assert value == [key]
        # make runs once for a key the table does not hold; a key it holds
        # gives the same object
        if held is None:
            assert made[calls:] == [key]
        else:
            assert value is held and len(made) == calls
        if kept is not None:
            assert len(table) <= kept
    if kept is None:
        assert made == list(dict.fromkeys(keys))
        assert set(table) == set(keys)
