"""Seeded synthetic log generation and uncertainty injection.

Generation happens in stages: draw a fully certain log with evenly
spaced timestamps, then inject the wanted kinds of uncertainty (time,
activity, indeterminacy, in that order) into a fixed share of each
trace's events.  All randomness flows through per-trace substreams
keyed by (seed, stage, trace index), so results are reproducible and
independent of evaluation order.  ``generate_log`` runs every stage on
a trace's columns and builds the trace once; ``generate_certain_log``
and the ``inject_*`` functions run one stage each, through the same
per-trace function, and give the same traces.  The singleton label set
of each drawn index, and the alphabet ranks of each label set the
activity stage extends, are made once per call in ``model._Memo``
tables that keep every key, so equal label sets share one frozenset.

An injection picks positions in the trace's own event order, by t_min
and then event id.  Generated traces never tie on t_min, so the
tie-break never matters to them; on a caller's log with tied t_min
values, the events that a seed picks depend on it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import UncertainLog, UncertainTrace, _Memo, canonical_columns

# the spacing of a generated trace's events, in ms
STRIDE_MS = 1000

# stage tags keep the substreams of the four randomized steps disjoint
_STAGE_GENERATE = 0
_STAGE_TIME = 1
_STAGE_ACTIVITY = 2
_STAGE_INDETERMINATE = 3


@dataclass(frozen=True)
class GenerationSpec:
    """Parameters for one synthetic log."""

    n_traces: int
    trace_length: int
    alphabet_size: int = 26
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_traces < 1:
            raise ValueError("n_traces must be at least 1")
        if self.trace_length < 1:
            raise ValueError("trace_length must be at least 1")
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


def activity_label(index: int) -> str:
    """Label of alphabet position ``index``: a..z, then act26, act27, ..."""
    if index < 26:
        return chr(ord("a") + index)
    return f"act{index}"


def _rng(seed: int, stage: int, trace_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stage, trace_index))


# an injection stage is (stage tag, p, edit): the tag keys its
# substreams, p sets how many events of each trace it edits, and edit
# changes them (see _staged_trace)
_Stage = tuple[int, float, Callable]


def _staged_trace(
    case_id: str, columns: list[list], seed: int, index: int, stages: list[_Stage]
) -> UncertainTrace:
    """The trace built once from ``columns`` after each of ``stages`` edited them in turn.

    ``columns`` are lists of event ids, activity sets, t_min, t_max and
    determinate flags, in the (t_min, event id) order, and the rows are
    put back into that order before each stage after the first.  For
    stage ``(tag, p, edit)``, the generator of ``(seed, tag, index)``
    picks floor(p * length) positions in that order (see the module
    docstring); ``edit(rng, chosen, activities, t_min, t_max,
    determinate)`` then changes the columns in place.
    """
    for k, (tag, p, edit) in enumerate(stages):
        if k:
            columns = list(map(list, canonical_columns(*columns)))
        rng = _rng(seed, tag, index)
        length = len(columns[0])
        # floor with a tiny guard against p*n landing just below an integer
        share = int(math.floor(p * length + 1e-9))
        chosen = rng.choice(length, size=share, replace=False).tolist() if share else []
        edit(rng, chosen, *columns[1:])
    return UncertainTrace.from_columns(case_id, *columns)


def _checked(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    return p


def generate_log(
    spec: GenerationSpec, p_time: float = 0.0, p_activity: float = 0.0, p_indeterminate: float = 0.0
) -> UncertainLog:
    """The certain log of ``spec`` with the three kinds of uncertainty injected.

    Equal to ``generate_certain_log(spec)`` passed through
    ``inject_time_uncertainty``, ``inject_activity_uncertainty`` (with
    ``spec.alphabet_size``) and ``inject_indeterminacy`` in that order,
    each with ``spec.seed``, but each trace is built once.  An injection
    numbers a trace by its place in case-id order, as the injections do
    on a built log, so c10 comes third.
    """
    kinds = (
        (_STAGE_TIME, p_time, lambda: _widen),
        (_STAGE_ACTIVITY, p_activity, lambda: _label_adder(spec.alphabet_size)),
        (_STAGE_INDETERMINATE, p_indeterminate, lambda: _drop),
    )
    # a stage that picks no event draws nothing and edits nothing
    stages = [(tag, _checked(p), make_edit()) for tag, p, make_edit in kinds if p]
    times = [(k + 1) * STRIDE_MS for k in range(spec.trace_length)]
    # the label set {activity_label(index)} of each index drawn
    singletons = _Memo(lambda index: frozenset({activity_label(index)}))
    traces = []
    numbered = sorted((f"c{number}", number) for number in range(spec.n_traces))
    for index, (case_id, number) in enumerate(numbered):
        picks = _rng(spec.seed, _STAGE_GENERATE, number).integers(
            0, spec.alphabet_size, size=spec.trace_length
        )
        columns = [
            [f"{case_id}#{k + 1}" for k in range(spec.trace_length)],
            list(map(singletons.__getitem__, picks.tolist())),
            times.copy(),
            times.copy(),
            [True] * spec.trace_length,
        ]
        traces.append(_staged_trace(case_id, columns, spec.seed, index, stages))
    return UncertainLog(traces=tuple(traces))


def generate_certain_log(spec: GenerationSpec) -> UncertainLog:
    """A log of ``n_traces`` traces, each with ``trace_length`` events.

    Event k of a trace (1-based) happens at exactly k * 1000 ms with a
    single activity label drawn uniformly from the alphabet, from the
    trace's own substream.  Every event is determinate.  Event ids are
    "<case>#<k>", and case ids "c<trace number>".
    """
    return generate_log(spec)


def _inject(log: UncertainLog, seed: int, stage: _Stage) -> UncertainLog:
    """``log`` with one stage run on copies of each trace's columns."""
    traces = []
    for index, trace in enumerate(log.traces):
        traces.append(_staged_trace(trace.case_id, trace._columns(), seed, index, [stage]))
    return UncertainLog(traces=tuple(traces))


# half the width of a widened interval, in ms
_HALF_WIDTH = int(1.5 * STRIDE_MS)


def _widen(rng, chosen, activities, t_min, t_max, determinate) -> None:
    for i in chosen:
        centre = t_min[i]
        t_min[i] = centre - _HALF_WIDTH
        t_max[i] = centre + _HALF_WIDTH


def inject_time_uncertainty(log: UncertainLog, p: float, seed: int) -> UncertainLog:
    """Widen the timestamps of floor(p * length) events per trace.

    A chosen event at instant t gets the interval [t - 1.5 * STRIDE_MS,
    t + 1.5 * STRIDE_MS], guaranteeing overlap with both neighbors in a
    generated trace.  Other attributes are untouched.
    """
    return _inject(log, seed, (_STAGE_TIME, _checked(p), _widen))


def _label_adder(alphabet_size: int) -> Callable:
    """The activity stage's edit: one new label per chosen event (see inject_activity_uncertainty)."""
    alphabet = [activity_label(j) for j in range(alphabet_size)]
    rank = {label: j for j, label in enumerate(alphabet)}
    # the ascending alphabet ranks of each label set's labels
    held_ranks = _Memo(lambda labels: sorted(rank[l] for l in labels if l in rank))

    def add_label(rng, chosen, activities, t_min, t_max, determinate) -> None:
        # positions in ascending order: the draws follow event order
        for i in sorted(chosen):
            labels = activities[i]
            held = held_ranks[labels]
            if len(held) < alphabet_size:
                # draw the k-th alphabet label the event lacks, with the
                # value and generator state of choice(lacking, size=1,
                # replace=False) (see the tests), then step past the held
                # ranks to its own
                j = int(rng.integers(alphabet_size - len(held)))
                for h in held:
                    if h <= j:
                        j += 1
                added = alphabet[j]
            else:
                # the first label past the alphabet that the event lacks is
                # its only choice, and a draw from one takes no random bits
                j = alphabet_size
                while activity_label(j) in labels:
                    j += 1
                added = activity_label(j)
            activities[i] = labels | {added}

    return add_label


def inject_activity_uncertainty(
    log: UncertainLog, p: float, seed: int, alphabet_size: int = 26
) -> UncertainLog:
    """Add one new label to each of floor(p * length) events per trace.

    The label is one the event did not already carry, drawn uniformly
    from the alphabet (extended past ``alphabet_size`` if the event
    already holds all of it).
    """
    return _inject(log, seed, (_STAGE_ACTIVITY, _checked(p), _label_adder(alphabet_size)))


def _drop(rng, chosen, activities, t_min, t_max, determinate) -> None:
    for i in chosen:
        determinate[i] = False


def inject_indeterminacy(log: UncertainLog, p: float, seed: int) -> UncertainLog:
    """Mark floor(p * length) events per trace as possibly unrecorded."""
    return _inject(log, seed, (_STAGE_INDETERMINATE, _checked(p), _drop))
