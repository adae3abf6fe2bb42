"""Seeded synthetic log generation and uncertainty injection.

Generation happens in two steps: build a fully certain log with evenly
spaced timestamps, then inject the wanted kinds of uncertainty into a
fixed share of each trace's events.  All randomness flows through
per-trace substreams keyed by (seed, stage, trace index), so results
are reproducible and independent of evaluation order.

An injection picks positions in the trace's own event order, by t_min
and then event id.  Generated traces never tie on t_min, so the
tie-break never matters to them; on a caller's log with tied t_min
values, the events that a seed picks depend on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import UncertainLog, UncertainTrace

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


class _Singletons(dict):
    """The label set {activity_label(index)} of each index looked up, made once."""

    def __missing__(self, index: int) -> frozenset[str]:
        labels = self[index] = frozenset({activity_label(index)})
        return labels


def _rng(seed: int, stage: int, trace_index: int) -> np.random.Generator:
    return np.random.default_rng((seed, stage, trace_index))


def generate_certain_log(spec: GenerationSpec) -> UncertainLog:
    """A log of ``n_traces`` traces, each with ``trace_length`` events.

    Event k of a trace (1-based) happens at exactly k * 1000 ms with a
    single activity label drawn uniformly from the alphabet.  Every
    event is determinate.  Event ids are "<case>#<k>".
    """
    traces = []
    times = [(k + 1) * STRIDE_MS for k in range(spec.trace_length)]
    singletons = _Singletons()
    for t in range(spec.n_traces):
        case_id = f"c{t}"
        rng = _rng(spec.seed, _STAGE_GENERATE, t)
        picks = rng.integers(0, spec.alphabet_size, size=spec.trace_length)
        traces.append(
            UncertainTrace.from_columns(
                case_id,
                [f"{case_id}#{k + 1}" for k in range(spec.trace_length)],
                list(map(singletons.__getitem__, picks.tolist())),
                times,
                times,
                [True] * spec.trace_length,
            )
        )
    return UncertainLog(traces=tuple(traces))


def _inject(log: UncertainLog, p: float, seed: int, stage: int, edit) -> UncertainLog:
    """``log`` with floor(p * length) events of each trace edited.

    For each trace, the stage's generator picks the positions, in the
    trace's (t_min, event id) order (see the module docstring), then
    ``edit(rng, chosen, activities, t_min, t_max, determinate)`` changes
    copies of the four columns in place; the trace is rebuilt from them.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0, 1]")
    traces = []
    for t, trace in enumerate(log.traces):
        rng = _rng(seed, stage, t)
        # floor with a tiny guard against p*n landing just below an integer
        share = int(math.floor(p * len(trace) + 1e-9))
        chosen = rng.choice(len(trace), size=share, replace=False).tolist() if share else []
        columns = (
            list(trace.activities),
            trace.t_min.tolist(),
            trace.t_max.tolist(),
            list(trace.determinate),
        )
        edit(rng, chosen, *columns)
        traces.append(UncertainTrace.from_columns(trace.case_id, trace.event_ids, *columns))
    return UncertainLog(traces=tuple(traces))


def inject_time_uncertainty(log: UncertainLog, p: float, seed: int) -> UncertainLog:
    """Widen the timestamps of floor(p * length) events per trace.

    A chosen event at instant t gets the interval [t - 1.5 * STRIDE_MS,
    t + 1.5 * STRIDE_MS], guaranteeing overlap with both neighbors in a
    generated trace.  Other attributes are untouched.
    """
    half_width = int(1.5 * STRIDE_MS)

    def widen(rng, chosen, activities, t_min, t_max, determinate):
        for i in chosen:
            centre = t_min[i]
            t_min[i] = centre - half_width
            t_max[i] = centre + half_width

    return _inject(log, p, seed, _STAGE_TIME, widen)


def inject_activity_uncertainty(
    log: UncertainLog, p: float, seed: int, alphabet_size: int = 26
) -> UncertainLog:
    """Add one new label to each of floor(p * length) events per trace.

    The label is one the event did not already carry, drawn uniformly
    from the alphabet (extended past ``alphabet_size`` if the event
    already holds all of it).
    """
    alphabet = [activity_label(j) for j in range(alphabet_size)]

    def add_label(rng, chosen, activities, t_min, t_max, determinate):
        # positions in ascending order: the draws follow event order
        for i in sorted(chosen):
            labels = activities[i]
            pool = [label for label in alphabet if label not in labels]
            j = alphabet_size
            while not pool:
                label = activity_label(j)
                if label not in labels:
                    pool.append(label)
                j += 1
            (added,) = rng.choice(len(pool), size=1, replace=False)
            activities[i] = labels | {pool[added]}

    return _inject(log, p, seed, _STAGE_ACTIVITY, add_label)


def inject_indeterminacy(log: UncertainLog, p: float, seed: int) -> UncertainLog:
    """Mark floor(p * length) events per trace as possibly unrecorded."""

    def drop(rng, chosen, activities, t_min, t_max, determinate):
        for i in chosen:
            determinate[i] = False

    return _inject(log, p, seed, _STAGE_INDETERMINATE, drop)
