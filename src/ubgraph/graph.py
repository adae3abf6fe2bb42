"""Behavior graph construction.

A behavior graph makes the partial order information in an uncertain
trace explicit: vertices are events, and there is an edge from v to w
exactly when v certainly precedes w and no third event certainly falls
between them.  In order-theoretic terms it is the transitive reduction
of the precedence relation, which is unique because the relation is
acyclic.

Two constructions are provided with identical output:

* ``build_baseline`` materializes the full precedence relation and then
  strips its transitive edges in one pass over the n events (cubic in
  the number of events).  It is the reference.  The relation is an
  interval order, so it is already transitive: there is no closure to
  take and no cycle to handle.
* ``build_sweep`` reads the reduced edges straight off the events in
  start order: ``v -> w`` is an edge exactly when
  ``t_max[v] < t_min[w] <= M(v)``, where ``M(v)`` is the least
  ``t_max[u]`` over the events ``u`` that start after ``v`` ends.  A
  suffix minimum and two binary searches give each event a contiguous
  range of successors, so the cost is O(n log n + |E|).

Both read the trace's columns (the ``t_min``/``t_max`` int64 arrays,
ids, activity sets and flags), never ``trace.events``, and neither
checks its input: an ``UncertainTrace`` is valid by construction.  The
array work is plain numpy.  Its matrix kernel avoids matrix products,
so no BLAS thread pool is involved and timed sections stay
single-threaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import SizeLimitError, UncertainTrace

# 16 MB per dense n x n matrix at this size; criterion 4 goes up to 2048
MAX_BASELINE_EVENTS = 4096


@dataclass(frozen=True)
class BehaviorGraph:
    """Vertices are event ids; edges point from earlier to later events.

    ``payload`` maps each event id to its (activity set, determinate
    flag) pair so the graph can be rendered without the source trace.
    """

    case_id: str
    vertices: frozenset[str]
    edges: frozenset[tuple[str, str]]
    payload: Mapping[str, tuple[frozenset[str], bool]]


def backend_name() -> str:
    """Name of the array backend the constructions run on."""
    return "numpy"


def _assemble(trace: UncertainTrace, src: np.ndarray, dst: np.ndarray) -> BehaviorGraph:
    """Graph of ``trace`` whose edges are ``event_ids[src[k]] -> event_ids[dst[k]]``."""
    ids = trace.event_ids
    get = ids.__getitem__
    return BehaviorGraph(
        case_id=trace.case_id,
        vertices=frozenset(ids),
        edges=frozenset(zip(map(get, src.tolist()), map(get, dst.tolist()))),
        payload=dict(zip(ids, zip(trace.activities, trace.determinate))),
    )


def build_baseline(trace: UncertainTrace) -> BehaviorGraph:
    """Behavior graph via the full precedence relation.

    Enumerates every ordered pair (quadratic), then strips transitive
    edges in one loop over the n events (cubic).  Serves as the
    reference the sweep is checked against.  Its n x n matrices need
    n**2 bytes each, about three at once, so a trace of more than
    MAX_BASELINE_EVENTS events raises SizeLimitError before anything is
    allocated.
    """
    if len(trace) > MAX_BASELINE_EVENTS:
        raise SizeLimitError(
            f"trace {trace.case_id!r} has {len(trace)} events; the baseline "
            f"construction is limited to {MAX_BASELINE_EVENTS}"
        )
    before = trace.t_max[:, None] < trace.t_min[None, :]
    # before is transitive (every event has t_min <= t_max), so v -> w is
    # covering unless some u has v before u before w
    between = np.zeros_like(before)
    for u in range(len(trace)):
        earlier = before[:, u]
        if earlier.any():
            between[earlier] |= before[u]
    return _assemble(trace, *np.nonzero(before & ~between))


_NO_SUCCESSOR = np.array([np.iinfo(np.int64).max], dtype=np.int64)


def build_sweep(trace: UncertainTrace) -> BehaviorGraph:
    """Behavior graph from the events in start order, by binary search.

    The trace keeps its events sorted by ``t_min``.  The successors of
    ``v`` are the events starting after ``t_max[v]`` (from index ``lo``
    on) and no later than ``M(v)``, the least ``t_max`` from ``lo`` on
    (up to index ``hi``).  Produces exactly the same graph as
    ``build_baseline`` without ever materializing the precedence
    relation.
    """
    t_min, t_max = trace.t_min, trace.t_max
    suffix_min = np.concatenate([np.minimum.accumulate(t_max[::-1])[::-1], _NO_SUCCESSOR])
    lo = np.searchsorted(t_min, t_max, side="right")
    hi = np.searchsorted(t_min, suffix_min[lo], side="right")
    counts = hi - lo
    src = np.repeat(np.arange(len(counts)), counts)
    # dst runs lo[v], lo[v] + 1, ..., hi[v] - 1 within the block of each v
    dst = np.arange(len(src)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return _assemble(trace, src, dst)


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
