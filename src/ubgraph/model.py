"""Core data model for event logs with uncertain attributes.

An event may carry more than one possible activity label, a timestamp
that is only known to lie inside a closed interval, and a flag that
records whether the event is known to have happened at all.  A trace is
an unordered collection of such events; the partial order between them
is derived from the timestamp intervals, never from storage order.

Timestamps are integer milliseconds since the Unix epoch.  A certain
timestamp is represented by a degenerate interval (t_min == t_max).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Iterable, Iterator


@dataclass(frozen=True)
class UncertainEvent:
    """A single recorded event.

    ``activities`` is the set of labels the event may have carried (a
    singleton for a certain label).  ``t_min``/``t_max`` bound the true
    timestamp, in epoch milliseconds; they must be Python ``int``, not
    ``bool`` and not a numpy integer.  ``determinate`` is False when the
    event may not have happened at all.
    """

    event_id: str
    activities: frozenset[str]
    t_min: int
    t_max: int
    determinate: bool = True

    def __post_init__(self) -> None:
        # accept any iterable of labels; store a frozenset
        if not isinstance(self.activities, frozenset):
            object.__setattr__(self, "activities", frozenset(self.activities))


_CANONICAL_ORDER = attrgetter("t_min", "t_max", "event_id")


@dataclass(frozen=True)
class UncertainTrace:
    """All events recorded for one case.

    Events are kept in the canonical order (t_min, t_max, event_id).
    Storage order carries no meaning: the behavior of the trace is fully
    determined by the events' timestamp intervals.

    A trace is valid by construction: building one that breaks a rule
    of ``validate_trace`` raises InvalidTraceError with every violation,
    so no consumer of a trace checks it again.
    """

    case_id: str
    events: tuple[UncertainEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events, key=_CANONICAL_ORDER)))
        violations = validate_trace(self)
        if violations:
            raise InvalidTraceError(self.case_id, violations)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[UncertainEvent]:
        return iter(self.events)


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


def validate_trace(trace: UncertainTrace) -> list[str]:
    """The rule every trace obeys; returns the list of violations.

    An empty list means the trace is valid.  Each violation names the
    offending event id and the rule it breaks.  ``UncertainTrace`` runs
    this when it is built and raises InvalidTraceError with the whole
    list, so for any trace that exists the result is empty.

    Timestamps must be Python ``int``.  ``bool`` is refused although it
    subclasses ``int``, and so are numpy integers, which the JSONL
    writer cannot format.
    """
    violations: list[str] = []
    seen: set[str] = set()
    for event in trace.events:
        # every trace built pays this loop, so read each field once
        event_id, t_min, t_max = event.event_id, event.t_min, event.t_max
        if not event_id:
            violations.append("empty event id")
        elif event_id in seen:
            violations.append(f"duplicate event id {event_id}")
        else:
            seen.add(event_id)
        if not event.activities:
            violations.append(f"event {event_id} has no activity labels")
        if not isinstance(t_min, int) or not isinstance(t_max, int):
            violations.append(f"event {event_id} has non-integer timestamps")
        elif isinstance(t_min, bool) or isinstance(t_max, bool):
            violations.append(f"event {event_id} has bool timestamps")
        elif t_min > t_max:
            violations.append(f"event {event_id} has t_min {t_min} > t_max {t_max}")
    return violations


def validate_log(log: UncertainLog) -> list[str]:
    """Check the log-level rules; return a list of violations.

    Case ids must be unique and no event id may appear in more than one
    trace.  Each trace was already checked when it was built.
    """
    violations: list[str] = []
    seen_cases: set[str] = set()
    seen_events: set[str] = set()
    for trace in log.traces:
        if trace.case_id in seen_cases:
            violations.append(f"duplicate case id {trace.case_id}")
        seen_cases.add(trace.case_id)
        for event in trace.events:
            if event.event_id in seen_events:
                violations.append(
                    f"event id {event.event_id} appears in more than one trace"
                )
            seen_events.add(event.event_id)
    return violations


def is_certain(event: UncertainEvent) -> bool:
    """True when the event's timestamp is a single known instant."""
    return event.t_min == event.t_max


def precedes(v: UncertainEvent, w: UncertainEvent) -> bool:
    """True when v is guaranteed to have happened strictly before w.

    This holds exactly when every timestamp v could have had is earlier
    than every timestamp w could have had.  Overlapping intervals (and
    identical certain timestamps) leave the pair unordered.
    """
    return v.t_max < w.t_min


def make_trace(case_id: str, events: Iterable[UncertainEvent]) -> UncertainTrace:
    """Convenience constructor accepting any iterable of events."""
    return UncertainTrace(case_id=case_id, events=tuple(events))
