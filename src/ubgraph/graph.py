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

Both read the trace's ``t_min``/``t_max`` int64 arrays, never
``trace.events``, and neither checks its input: an ``UncertainTrace``
is valid by construction.  Both return a ``BehaviorGraph`` that holds
the trace and its edges as two index arrays, so a build makes no
per-edge Python object; id pairs are made only when a caller iterates
``graph.edges``.  The array work is plain numpy.  Its matrix kernel
avoids matrix products, so no BLAS thread pool is involved and timed
sections stay single-threaded.
"""

from __future__ import annotations

from collections.abc import Iterator, Set

import numpy as np

from .model import SizeLimitError, UncertainTrace

# 16 MB per dense n x n matrix at this size; criterion 4 goes up to 2048
MAX_BASELINE_EVENTS = 4096


class BehaviorGraph:
    """The behavior graph of one trace, held as index arrays.

    Vertex k is the trace's k-th event, ``trace.event_ids[k]`` in the
    trace's canonical order, and edge k points from vertex ``src[k]`` to
    vertex ``dst[k]`` (read-only integer arrays of equal length).  The
    activity sets and determinate flags stay in the trace's columns.

    ``case_id`` and ``vertices`` (a frozenset of event ids) come from
    the trace.  ``edges`` is a read-only set view of ``(v, w)`` id
    pairs: its length is ``len(src)`` and costs nothing, and it compares,
    tests membership and combines with frozensets as a frozenset of the
    pairs would.  Two graphs are equal when their traces and their edge
    sets are.
    """

    __slots__ = ("trace", "src", "dst")

    def __init__(self, trace: UncertainTrace, src, dst) -> None:
        # views, so that making them read-only leaves the caller's arrays alone
        src = np.asarray(src, dtype=np.intp).view()
        dst = np.asarray(dst, dtype=np.intp).view()
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src and dst must be 1-d arrays of equal length")
        src.flags.writeable = dst.flags.writeable = False
        setter = object.__setattr__
        setter(self, "trace", trace)
        setter(self, "src", src)
        setter(self, "dst", dst)

    @property
    def case_id(self) -> str:
        return self.trace.case_id

    @property
    def vertices(self) -> frozenset[str]:
        return frozenset(self.trace.event_ids)

    @property
    def edges(self) -> _Edges:
        return _Edges(self.trace.event_ids, self.src, self.dst)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.trace == other.trace and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.trace, len(self.src)))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: BehaviorGraph is immutable")

    def __reduce__(self):
        return (BehaviorGraph, (self.trace, self.src, self.dst))

    def __repr__(self) -> str:
        return (
            f"BehaviorGraph(case_id={self.case_id!r}, "
            f"vertices={len(self.trace)}, edges={len(self.src)})"
        )


class _Edges(Set):
    """The ``(v, w)`` event-id pairs of ``ids[src[k]] -> ids[dst[k]]``, as a set.

    Length and iteration read the arrays.  Membership builds a frozenset
    of the pairs on the first test and keeps it, so comparing two views
    stays linear.  Set operators return frozensets.
    """

    __slots__ = ("_ids", "_src", "_dst", "_pairs")

    def __init__(self, ids: tuple[str, ...], src: np.ndarray, dst: np.ndarray) -> None:
        self._ids, self._src, self._dst = ids, src, dst
        self._pairs: frozenset[tuple[str, str]] | None = None

    def __len__(self) -> int:
        return len(self._src)

    def __iter__(self) -> Iterator[tuple[str, str]]:
        get = self._ids.__getitem__
        return zip(map(get, self._src.tolist()), map(get, self._dst.tolist()))

    def __contains__(self, pair: object) -> bool:
        if self._pairs is None:
            self._pairs = frozenset(self)
        return pair in self._pairs

    @classmethod
    def _from_iterable(cls, iterable) -> frozenset:
        return frozenset(iterable)

    def __repr__(self) -> str:
        return f"edges({sorted(self)!r})"


def backend_name() -> str:
    """Name of the array backend the constructions run on."""
    return "numpy"


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
    return BehaviorGraph(trace, *np.nonzero(before & ~between))


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
    return BehaviorGraph(trace, src, dst)

