"""Reference semantics for small traces.

``covering_relation`` evaluates the behavior graph's definition
directly, in cubic time.  Everything else enumerates: orderings,
realizations, directly-follows counts.  The implementations are
deliberately simple and kept separate from the graph kernels so the two
routes (definition vs construction) can be checked against each other.
Size guards stop the factorial blowup early; costs beyond them are not
supported.  Input is taken as it comes: an ``UncertainTrace`` is valid
by construction, so nothing here checks it again.

There is one realization walk, ``_realizations``: it applies the size
guard, then visits each (dropped subset, linear extension) once.
``enumerate_realizations`` collects the label choices over it into a
set.  ``udfg_bounds_trace`` folds each realization's pair counts into
running per-pair bounds instead, so no realization set is held in
memory; the bounds are exact.  Both refuse the same traces (more than
MAX_REALIZATION_EVENTS events, or more than MAX_REALIZATIONS
realizations by the count bound).
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from typing import Iterator

from .model import SizeLimitError, UncertainTrace

MAX_EXTENSION_EVENTS = 10
MAX_REALIZATION_EVENTS = 8
MAX_REALIZATIONS = 1_000_000

# A realization fixes one consistent reading of the trace: which events
# happened, in what order, under which label.  It is stored as a tuple
# of (event id, label) pairs in execution order.
Realization = tuple[tuple[str, str], ...]


def covering_relation(trace: UncertainTrace) -> frozenset[tuple[str, str]]:
    """Pairs (v, w) with v before w and nothing certainly in between.

    Direct evaluation of the definition, cubic in the trace length.
    This is the reference edge set of the behavior graph.
    """
    predecessors = _predecessors(trace)
    return frozenset(
        (v, w)
        for w, before in predecessors.items()
        for v in before
        if not any(v in predecessors[u] for u in before)
    )


def _predecessors(trace: UncertainTrace) -> dict[str, set[str]]:
    """Each event id w mapped to the ids v certainly before it: t_max[v] < t_min[w]."""
    ids, ends = trace.event_ids, trace.t_max.tolist()
    return {
        w: {v for v, end in zip(ids, ends) if end < start}
        for w, start in zip(ids, trace.t_min.tolist())
    }


def _extensions(trace: UncertainTrace) -> set[tuple[str, ...]]:
    """All orderings of the trace's events consistent with the precedence relation."""
    predecessors = _predecessors(trace)
    remaining = set(trace.event_ids)
    sequence: list[str] = []
    found: set[tuple[str, ...]] = set()

    def grow() -> None:
        if not remaining:
            found.add(tuple(sequence))
            return
        for event_id in sorted(remaining):
            if predecessors[event_id] & remaining:
                continue  # an unplaced event must still come first
            remaining.remove(event_id)
            sequence.append(event_id)
            grow()
            sequence.pop()
            remaining.add(event_id)

    grow()
    return found


def linear_extensions(trace: UncertainTrace) -> frozenset[tuple[str, ...]]:
    """Every total order of the trace's events that keeps their certain order.

    Refuses traces longer than MAX_EXTENSION_EVENTS events.
    """
    if len(trace) > MAX_EXTENSION_EVENTS:
        raise SizeLimitError(
            f"trace {trace.case_id!r} has {len(trace)} events; "
            f"linear extension enumeration is limited to {MAX_EXTENSION_EVENTS}"
        )
    return frozenset(_extensions(trace))


def possible_immediate_successor(trace: UncertainTrace, v: str, w: str) -> bool:
    """True when some consistent ordering places w directly after v.

    Note this is weaker than certain precedence: two events with
    overlapping intervals can each directly follow the other.
    """
    for event_id in (v, w):
        if event_id not in trace.event_ids:
            raise ValueError(f"unknown event id {event_id!r}")
    for sequence in linear_extensions(trace):
        for a, b in zip(sequence, sequence[1:]):
            if a == v and b == w:
                return True
    return False


def _realizations(trace: UncertainTrace) -> Iterator[tuple[tuple[str, ...], list[list[str]]]]:
    """Every kept id sequence of the trace, with each event's sorted labels.

    The one realization walk.  It first refuses a trace too large to
    enumerate: more than MAX_REALIZATION_EVENTS events, or a realization
    count bound (labelings x inclusion choices x orders) above
    MAX_REALIZATIONS, raises SizeLimitError on the first ``next()``.
    Then, for each subset of indeterminate events to drop and each
    linear extension of the events kept, it yields the event ids in
    execution order and, per position, that event's labels sorted.  The
    realizations are the label choices over each yielded sequence.  The
    trace's orders are enumerated once; dropping events from them gives
    the orders of the events kept (exact: the order is transitive).
    """
    if len(trace) > MAX_REALIZATION_EVENTS:
        raise SizeLimitError(
            f"trace {trace.case_id!r} has {len(trace)} events; realization "
            f"enumeration is limited to {MAX_REALIZATION_EVENTS}"
        )
    extensions_all = _extensions(trace)
    indeterminate = [i for i, flag in zip(trace.event_ids, trace.determinate) if not flag]
    bound = (
        prod(map(len, trace.activities))
        * 2 ** len(indeterminate)
        * max(len(extensions_all), 1)
    )
    if bound > MAX_REALIZATIONS:
        raise SizeLimitError(
            f"trace {trace.case_id!r} admits up to {bound} realizations; "
            f"enumeration is limited to {MAX_REALIZATIONS}"
        )
    labels = dict(zip(trace.event_ids, map(sorted, trace.activities)))
    for k in range(len(indeterminate) + 1):
        for dropped in combinations(indeterminate, k):
            if k:
                sequences = {
                    tuple(i for i in sequence if i not in dropped)
                    for sequence in extensions_all
                }
            else:
                sequences = extensions_all
            for sequence in sequences:
                yield sequence, [labels[event_id] for event_id in sequence]


def enumerate_realizations(trace: UncertainTrace) -> frozenset[Realization]:
    """Every (inclusion, order, labeling) reading the trace allows.

    Determinate events appear in every realization; indeterminate ones
    in a subset.  Refuses traces beyond MAX_REALIZATION_EVENTS events or
    whose realization count bound exceeds MAX_REALIZATIONS.
    """
    return frozenset(
        tuple(zip(sequence, chosen))
        for sequence, labels in _realizations(trace)
        for chosen in product(*labels)
    )


def udfg_bounds_trace(trace: UncertainTrace) -> dict[tuple[str, str], tuple[int, int]]:
    """Per-pair bounds on directly-follows counts over all realizations.

    For every ordered label pair (a, b) that is adjacent in at least one
    realization, reports the minimum and maximum number of adjacent
    (a, b) positions any single realization of this trace can contain.
    The bounds are exact.  They come from one streaming pass that folds
    each realization's pair counts into running maps: the highest count
    seen, the lowest count among the realizations holding the pair, and
    how many realizations hold it.  A pair missing from some realization
    has minimum 0.  Refuses the same traces as enumerate_realizations.
    """
    high: dict[tuple[str, str], int] = {}
    low: dict[tuple[str, str], int] = {}
    present: dict[tuple[str, str], int] = {}
    total = 0
    for _, labels in _realizations(trace):
        for sequence in product(*labels):
            total += 1
            counts: dict[tuple[str, str], int] = {}
            for pair in zip(sequence, sequence[1:]):
                counts[pair] = counts.get(pair, 0) + 1
            for pair, count in counts.items():
                if pair in high:
                    if count > high[pair]:
                        high[pair] = count
                    elif count < low[pair]:
                        low[pair] = count
                    present[pair] += 1
                else:
                    high[pair] = low[pair] = count
                    present[pair] = 1
    return {
        pair: (low[pair] if present[pair] == total else 0, high[pair])
        for pair in high
    }


def udfg_bounds_log(log_traces) -> dict[tuple[str, str], tuple[int, int]]:
    """Log-level bounds: the per-trace bounds summed pairwise.

    A pair absent from a trace contributes (0, 0) for that trace.
    Accepts any iterable of traces (an UncertainLog works).
    """
    totals: dict[tuple[str, str], list[int]] = {}
    for trace in log_traces:
        for pair, (low, high) in udfg_bounds_trace(trace).items():
            bucket = totals.setdefault(pair, [0, 0])
            bucket[0] += low
            bucket[1] += high
    return {pair: (low, high) for pair, (low, high) in totals.items()}
