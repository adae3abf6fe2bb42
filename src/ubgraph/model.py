"""Core data model for event logs with uncertain attributes.

An event may carry more than one possible activity label, a timestamp
that is only known to lie inside a closed interval, and a flag that
records whether the event is known to have happened at all.  A trace is
an unordered collection of such events; the partial order between them
is derived from the timestamp intervals, never from storage order.

A trace holds its events as columns: ids, activity sets, determinate
flags, and the interval ends as int64 arrays.  Readers and generators
build traces straight from columns, and the graph constructions and
the oracle read the columns.  ``UncertainEvent`` objects are made only
when a caller asks for ``trace.events``, anew on each access; no code
in the package asks.

Timestamps are integer milliseconds since the Unix epoch, from year 1
to year 9999 (the range the JSONL writer formats).  A certain timestamp
is represented by a degenerate interval (t_min == t_max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from operator import attrgetter, gt, lt
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class UncertainEvent:
    """A single recorded event.

    ``activities`` is the set of labels the event may have carried (a
    singleton for a certain label), given as any collection of ``str``
    but a ``str`` itself.  ``t_min``/``t_max`` bound the true
    timestamp, in epoch milliseconds; they must be Python ``int``, not
    ``bool`` and not a numpy integer.  The id and the labels must be
    Python ``str`` and UTF-8 text (no lone surrogates).  ``determinate``
    is False when the event may not have happened at all; it must be a
    Python ``bool``.
    """

    event_id: str
    activities: frozenset[str]
    t_min: int
    t_max: int
    determinate: bool = True

    def __post_init__(self) -> None:
        # store a collection of labels as a frozenset; a str (whose letters
        # are no labels) or a non-collection is kept for a trace to refuse
        labels = self.activities
        if not isinstance(labels, (str, frozenset)) and isinstance(labels, Collection):
            object.__setattr__(self, "activities", frozenset(labels))


_EVENT_FIELDS = attrgetter("event_id", "activities", "t_min", "t_max", "determinate")

# the instants the JSONL writer can format: years 1 to 9999, UTC
MIN_TIMESTAMP_MS = -62_135_596_800_000  # 0001-01-01T00:00:00.000Z
MAX_TIMESTAMP_MS = 253_402_300_799_999  # 9999-12-31T23:59:59.999Z


class UncertainTrace:
    """All events recorded for one case, held as columns.

    The columns are in the canonical order (t_min, event_id), which is
    the order ``write_log`` writes a trace's lines in: ``event_ids``
    (tuple of str), ``activities`` (tuple of frozensets),
    ``determinate`` (tuple of bool), and ``t_min``/``t_max`` as
    read-only int64 arrays.  Storage order carries no meaning: the
    behavior of the trace is fully determined by the events' timestamp
    intervals.

    There are two ways to build one: ``UncertainTrace(case_id, events)``
    from event objects, and ``UncertainTrace.from_columns`` from one
    sequence per attribute, which never makes an event object.  The
    first takes the events' columns and runs the body of the second,
    so both check, sort and store the same way.  The columns are all a
    trace stores: ``events`` makes a new tuple of events on each access.
    Equality and hashing compare the case id and the columns.

    A trace is valid by construction: both routes run the rules of
    ``validate_trace`` and raise InvalidTraceError with every violation,
    so no consumer of a trace checks it again.
    """

    __slots__ = ("case_id", "event_ids", "activities", "determinate", "t_min", "t_max")

    def __init__(self, case_id: str, events: Iterable[UncertainEvent] = ()) -> None:
        # one tuple per field, in the order _fill takes them
        columns = tuple(zip(*map(_EVENT_FIELDS, events))) or ((),) * 5
        self._fill(case_id, *columns)

    @classmethod
    def from_columns(
        cls,
        case_id: str,
        event_ids: Sequence[str],
        activities: Sequence[Collection[str]],
        t_min: Sequence[int],
        t_max: Sequence[int],
        determinate: Sequence[bool],
    ) -> UncertainTrace:
        """The trace whose event k has the k-th entry of every column.

        The columns may come in any order; they are checked as given,
        then sorted into the canonical one.  Each label set is a
        collection of ``str`` but not a ``str``, and timestamps must be
        Python ``int``, as for ``UncertainEvent``.
        """
        trace = cls.__new__(cls)
        trace._fill(case_id, event_ids, activities, t_min, t_max, determinate)
        return trace

    def _fill(self, case_id, event_ids, activities, t_min, t_max, determinate) -> None:
        # check the columns as given, put the rows into canonical order,
        # then convert the label sets and keep them
        if not len(event_ids) == len(activities) == len(t_min) == len(t_max) == len(determinate):
            raise ValueError(f"trace {case_id!r}: columns of different lengths")
        violations = _violations(case_id, event_ids, activities, t_min, t_max, determinate)
        if violations:
            raise InvalidTraceError(case_id, violations)
        event_ids, activities, t_min, t_max, determinate = canonical_columns(
            event_ids, activities, t_min, t_max, determinate
        )
        # frozenset() of a frozenset is the same object
        activities = tuple(map(frozenset, activities))
        setter = object.__setattr__
        setter(self, "case_id", case_id)
        setter(self, "event_ids", event_ids)
        setter(self, "activities", activities)
        setter(self, "determinate", determinate)
        bounds = np.array((t_min, t_max), dtype=np.int64)
        bounds.flags.writeable = False
        setter(self, "t_min", bounds[0])
        setter(self, "t_max", bounds[1])

    @property
    def events(self) -> tuple[UncertainEvent, ...]:
        """The events in canonical order, made anew on each access."""
        return tuple(map(UncertainEvent, *self._columns()))

    def _columns(self) -> list[list]:
        """The columns as new lists, in the order ``_fill`` takes them after the case id."""
        return [
            list(self.event_ids),
            list(self.activities),
            self.t_min.tolist(),
            self.t_max.tolist(),
            list(self.determinate),
        ]

    def _key(self) -> tuple:
        return (
            self.case_id,
            self.event_ids,
            self.activities,
            self.determinate,
            self.t_min.tobytes(),
            self.t_max.tobytes(),
        )

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: UncertainTrace is immutable")

    def __reduce__(self):
        return UncertainTrace.from_columns, (self.case_id, *self._columns())

    def __repr__(self) -> str:
        return f"UncertainTrace(case_id={self.case_id!r}, events={self.events!r})"

    def __len__(self) -> int:
        return len(self.event_ids)

    def __iter__(self) -> Iterator[UncertainEvent]:
        return iter(self.events)


def canonical_columns(
    event_ids: Sequence[str],
    activities: Sequence[Collection[str]],
    t_min: Sequence[int],
    t_max: Sequence[int],
    determinate: Sequence[bool],
) -> tuple[tuple, tuple, tuple, tuple, tuple]:
    """The columns as tuples, their rows in the canonical (t_min, event id) order.

    The event ids must be unique, so rows never compare past the id.
    Columns whose t_min strictly increases are in that order already and
    are only copied, not sorted.  Every stage of ``loggen`` but the time
    one gives such columns, and so does ``read_log`` on a file that
    ``write_log`` wrote of traces without tied t_min values.
    """
    if all(map(lt, t_min, islice(t_min, 1, None))):
        return tuple(event_ids), tuple(activities), tuple(t_min), tuple(t_max), tuple(determinate)
    rows = sorted(zip(t_min, event_ids, t_max, activities, determinate))
    t_min, event_ids, t_max, activities, determinate = tuple(zip(*rows)) or ((),) * 5
    return event_ids, activities, t_min, t_max, determinate


@dataclass(frozen=True)
class UncertainLog:
    """A collection of traces, kept sorted by case id."""

    traces: tuple[UncertainTrace, ...] = field(default=())

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.traces, key=lambda t: t.case_id))
        object.__setattr__(self, "traces", ordered)

    def __len__(self) -> int:
        return len(self.traces)

    def __iter__(self) -> Iterator[UncertainTrace]:
        return iter(self.traces)


class InvalidTraceError(ValueError):
    """Raised when a trace is built from events that break its rules."""

    def __init__(self, case_id: str, violations: list[str]):
        self.case_id = case_id
        self.violations = violations
        detail = "; ".join(violations)
        super().__init__(f"invalid trace {case_id!r}: {detail}")


class SizeLimitError(ValueError):
    """Raised when a trace is too large for a size-limited computation."""


def validate_trace(trace: UncertainTrace) -> list[str]:
    """The rule every trace obeys; returns the list of violations.

    An empty list means the trace is valid.  Each violation names the
    offending event id and the rule it breaks, in the columns' order.
    Both ways of building an ``UncertainTrace`` run these rules on the
    caller's columns and raise InvalidTraceError with the whole list,
    so for any trace that exists the result is empty.

    The case id, the event ids and the activity labels must be Python
    ``str`` and UTF-8 text, since the JSONL and DOT writers write text:
    a lone surrogate such as ``"\ud800"`` is a ``str`` that no UTF-8
    file can hold, so it is refused naming its event.  A label set
    is a collection of labels but not a ``str``, whose letters would
    otherwise pass for labels.
    Timestamps must be Python ``int``.  ``bool`` is refused although it
    subclasses ``int``, and so are numpy integers, which the JSONL
    writer cannot format.  They must also lie in the range the writer
    can format, MIN_TIMESTAMP_MS to MAX_TIMESTAMP_MS (years 1 to 9999).
    The determinate flag must be a Python ``bool``: ``numpy.bool_``,
    ``None``, ``0``/``1`` and strings are refused, since the JSONL writer
    would write any truthy value as ``true``.
    """
    return _violations(trace.case_id, *trace._columns())


def _violations(
    case_id: str,
    event_ids: Sequence[str],
    activities: Sequence[Collection[str]],
    t_min: Sequence[int],
    t_max: Sequence[int],
    determinate: Sequence[bool],
) -> list[str]:
    # the rules of validate_trace, over columns in the caller's order,
    # tested on whole columns of frozenset label sets; any other trace is
    # walked, to name the events
    if (
        type(case_id) is str
        and set(map(type, event_ids)) <= {str}
        and len(ids := set(event_ids)) == len(event_ids)
        and "" not in ids
        and set(map(type, activities)) <= {frozenset}
        and all(activities)
        and set(map(type, labels := frozenset().union(*activities))) <= {str}
        and _is_text(case_id, "".join(event_ids), "".join(labels))
        and {*map(type, t_min), *map(type, t_max)} <= {int}
        and not any(map(gt, t_min, t_max))
        and (not len(t_min) or MIN_TIMESTAMP_MS <= min(t_min) and max(t_max) <= MAX_TIMESTAMP_MS)
        and set(map(type, determinate)) <= {bool}
    ):
        return []
    violations: list[str] = []
    if type(case_id) is not str:
        violations.append(f"case id {case_id!r} is not a string")
    elif not _is_text(case_id):
        violations.append(f"case id {case_id!r} is not UTF-8 text")
    seen: set[str] = set()
    for event_id, labels, low, high, flag in zip(event_ids, activities, t_min, t_max, determinate):
        if type(event_id) is not str:
            violations.append(f"event id {event_id!r} is not a string")
        elif not _is_text(event_id):
            violations.append(f"event id {event_id!r} is not UTF-8 text")
        elif not event_id:
            violations.append("empty event id")
        elif event_id in seen:
            violations.append(f"duplicate event id {event_id!r}")
        else:
            seen.add(event_id)
        if isinstance(labels, str) or not isinstance(labels, Collection):
            violations.append(f"event {event_id!r} has activities that are not a set of labels")
        elif not labels:
            violations.append(f"event {event_id!r} has no activity labels")
        elif not set(map(type, labels)) <= {str}:
            violations.append(f"event {event_id!r} has an activity label that is not a string")
        elif not _is_text(*labels):
            violations.append(f"event {event_id!r} has an activity label that is not UTF-8 text")
        kinds = {type(low), type(high)}
        if not kinds <= {int, bool}:
            violations.append(f"event {event_id!r} has non-integer timestamps")
        elif bool in kinds:
            violations.append(f"event {event_id!r} has bool timestamps")
        elif low > high:
            violations.append(f"event {event_id!r} has t_min {low} > t_max {high}")
        elif low < MIN_TIMESTAMP_MS or high > MAX_TIMESTAMP_MS:
            violations.append(f"event {event_id!r} has timestamps outside years 1 to 9999")
        if type(flag) is not bool:
            violations.append(f"event {event_id!r} has a non-bool determinate flag")
    return violations


def _is_text(*texts: str) -> bool:
    # a lone surrogate is a str but no UTF-8 text; the surrogates are the
    # only code points that UTF-8 cannot encode
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def validate_log(log: UncertainLog) -> list[str]:
    """Check the log-level rules; return a list of violations.

    Case ids must be unique and no event id may appear in more than one
    trace; a shared id is reported with the first case that holds it
    and the case that repeats it.  Each trace was already checked when
    it was built, so its ids are unique within it.

    The ids are compared by their ``hash`` first, in one sorted int64
    array of 8 bytes per id, where a set of the ids would take several
    times as much.  Only when two hashes are equal, or a case id
    repeats, are the traces walked, to name each violation in trace
    order.
    """
    hashes = np.fromiter(
        map(hash, chain.from_iterable(map(attrgetter("event_ids"), log.traces))), dtype=np.int64
    )
    hashes.sort()
    if not np.any(hashes[1:] == hashes[:-1]):
        case_ids = [trace.case_id for trace in log.traces]
        if len(set(case_ids)) == len(case_ids):
            return []
    violations: list[str] = []
    seen_cases: set[str] = set()
    seen_events: set[str] = set()
    first_case: dict[str, str] = {}
    for trace in log.traces:
        case_id, event_ids = trace.case_id, trace.event_ids
        if case_id in seen_cases:
            violations.append(f"duplicate case id {case_id!r}")
        seen_cases.add(case_id)
        if not seen_events.isdisjoint(event_ids):
            if not first_case:
                # made once, on the first shared id; built backwards, so
                # each id keeps the first case that holds it
                first_case = {e: t.case_id for t in reversed(log.traces) for e in t.event_ids}
            violations.extend(
                f"event id {event_id!r} appears in more than one trace: "
                f"{first_case[event_id]!r} and {case_id!r}"
                for event_id in event_ids
                if event_id in seen_events
            )
        seen_events.update(event_ids)
    return violations


def precedes(v: UncertainEvent, w: UncertainEvent) -> bool:
    """True when v is guaranteed to have happened strictly before w.

    This holds exactly when every timestamp v could have had is earlier
    than every timestamp w could have had.  Overlapping intervals (and
    identical certain timestamps) leave the pair unordered.
    """
    return v.t_max < w.t_min


class _Memo(dict):
    """``make(key)`` for each key looked up, made once and kept.

    The make-once table of the log reader, the writer, DOT export and
    the generator.  With ``kept`` set, a new key that finds the table
    holding that many keys clears it first, so it never holds more.  A
    cleared key's value is made again as a new object, so a table whose
    values the result keeps (label sets shared across a log) is left
    uncapped: its values are held anyway, and stay shared.
    """

    def __init__(self, make: Callable, kept: int | None = None) -> None:
        super().__init__()
        self.make = make
        self.kept = kept

    def __missing__(self, key):
        if self.kept is not None and len(self) >= self.kept:
            self.clear()
        value = self[key] = self.make(key)
        return value


# the bound of every capped _Memo
_MEMO_KEPT = 4096


# the class already accepts any iterable of events
make_trace = UncertainTrace
