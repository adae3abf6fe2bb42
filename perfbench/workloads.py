"""Workload inputs, the timed pipelines and the output checks.

Each pipeline mirrors one ``ubgraph`` subcommand and calls only names
exported by the ``ubgraph`` package.  A pipeline takes a ``span``
callable, ``span(name, trace_id=None)``, that returns a context
manager; untraced passes get one that records nothing.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ubgraph


@dataclass(frozen=True)
class Spec:
    """Input shape of one workload and the subcommand its pipeline mirrors."""

    kind: str  # "graph" or "udfg"
    lengths: tuple[int, ...]  # trace lengths; one block of traces per length
    traces: int  # traces per length
    p_time: float
    p_activity: float = 0.0
    p_indeterminate: float = 0.0


WORKLOADS = {
    "graph-short": Spec("graph", (50,), 2000, 0.4, 0.2, 0.1),
    "graph-long": Spec("graph", (16384,), 2, 0.4),
    "udfg-mixed": Spec("udfg", tuple(range(4, 13)), 120, 0.5, 0.3, 0.2),
}


_CPUS = sorted(os.sched_getaffinity(0))


def run_on_cpu(index: int) -> None:
    """Move this process to the ``index``-th of the CPUs it started with, round robin.

    On a shared host the speed of each vCPU switches between two levels,
    independently of the others, as other tenants load the host.  Timing
    on every CPU in turn averages over them rather than sampling one.
    """
    os.sched_setaffinity(0, {_CPUS[index % len(_CPUS)]})


def release_cpu() -> None:
    """Let this process run on every CPU it started with again."""
    os.sched_setaffinity(0, _CPUS)


class OutputMismatch(Exception):
    """A pipeline produced output that its check rejects; names the case."""


def generate(spec: Spec, seed: int) -> ubgraph.UncertainLog:
    """The workload's log, as ``ubgraph generate`` would make it per length.

    With several lengths, case and event ids get an ``n<length>-`` prefix
    so that they stay unique across the blocks.
    """
    traces = []
    for length in spec.lengths:
        block_seed = seed if len(spec.lengths) == 1 else seed * 1000 + length
        log = ubgraph.generate_certain_log(
            ubgraph.GenerationSpec(spec.traces, length, seed=block_seed)
        )
        log = ubgraph.inject_time_uncertainty(log, spec.p_time, block_seed)
        if spec.p_activity:
            log = ubgraph.inject_activity_uncertainty(log, spec.p_activity, block_seed)
        if spec.p_indeterminate:
            log = ubgraph.inject_indeterminacy(log, spec.p_indeterminate, block_seed)
        if len(spec.lengths) == 1:
            return log
        prefix = f"n{length}-"
        traces.extend(
            ubgraph.UncertainTrace(
                case_id=prefix + trace.case_id,
                events=tuple(
                    ubgraph.UncertainEvent(
                        prefix + e.event_id, e.activities, e.t_min, e.t_max, e.determinate
                    )
                    for e in trace.events
                ),
            )
            for trace in log.traces
        )
    return ubgraph.UncertainLog(traces=tuple(traces))


@dataclass
class PassResult:
    """What one pipeline pass did; small, so that passes do not pile up."""

    events: int  # events of the traces processed without failure
    ops: int  # per-trace operations attempted
    trace_ns: list[int]  # wall time of the per-trace stage, per trace
    outputs: list[Path]  # files written, in case order
    counts: dict[str, int]  # per-layer work counts
    refused: frozenset[str] = frozenset()  # udfg cases over the size limit


def _safe_name(case_id: str) -> str:
    # same file naming as ``ubgraph graph --dot``
    return re.sub(r"[^A-Za-z0-9_.-]", "_", case_id) or "case"


def run_graph(log_path: Path, out_dir: Path, span, first_id: int = 0) -> PassResult:
    """``ubgraph graph --algorithm sweep --dot``: build every graph, then write DOT."""
    clock = time.perf_counter_ns
    with span("logio.read_log"):
        log = ubgraph.read_log(log_path)
    graphs = []
    trace_ns = []
    edges = 0
    for tid, trace in enumerate(log.traces, first_id):
        start = clock()
        with span("graph.build_sweep", tid):
            graph = ubgraph.build_sweep(trace)
        with span("graph.edges", tid):
            edges += len(graph.edges)
        graphs.append(graph)
        trace_ns.append(clock() - start)
    paths = []
    dot_bytes = 0
    for index, graph in enumerate(graphs):
        start = clock()
        path = out_dir / f"{_safe_name(graph.case_id)}.dot"
        with span("logio.export_dot", first_id + index):
            dot_bytes += ubgraph.export_dot(graph, path)
        paths.append(path)
        trace_ns[index] += clock() - start
    return PassResult(
        events=sum(len(t) for t in log.traces),
        ops=len(log.traces),
        trace_ns=trace_ns,
        outputs=paths,
        counts={
            "logio.read_log.events": sum(len(t) for t in log.traces),
            "graph.build_sweep.calls": len(graphs),
            "graph.edges.count": edges,
            "logio.export_dot.bytes": dot_bytes,
        },
    )


def run_udfg(
    log_path: Path,
    out_dir: Path,
    span,
    first_id: int = 0,
    refused: frozenset[str] | None = None,
) -> PassResult:
    """``ubgraph udfg``, per trace: sum the bounds of every trace, write CSV rows.

    With ``refused`` None every trace is tried and a ``SizeLimitError``
    marks the trace refused.  Otherwise the refused traces are skipped
    and any error is a failure.  Rows are checked on the first kind of
    pass only, which is never timed.
    """
    clock = time.perf_counter_ns
    with span("logio.read_log"):
        log = ubgraph.read_log(log_path)
    trace_ns = []
    totals: dict[tuple[str, str], list[int]] = {}
    newly_refused = set()
    events = rows = attempted = 0
    for tid, trace in enumerate(log.traces, first_id):
        if refused is not None and trace.case_id in refused:
            continue
        attempted += 1
        start = clock()
        try:
            with span("oracle.udfg_bounds_trace", tid):
                bounds = ubgraph.udfg_bounds_trace(trace)
        except ubgraph.SizeLimitError:
            if refused is not None:
                raise
            newly_refused.add(trace.case_id)
            continue
        for pair, (low, high) in bounds.items():
            bucket = totals.setdefault(pair, [0, 0])
            bucket[0] += low
            bucket[1] += high
        trace_ns.append(clock() - start)
        rows += len(bounds)
        events += len(trace)
        if refused is None:
            check_udfg_rows(trace, bounds)
    with span("cli.udfg.write_csv"):
        lines = ["activity_a,activity_b,min,max"]
        for (a, b), (low, high) in sorted(totals.items()):
            lines.append(f"{a},{b},{low},{high}")
        data = ("\n".join(lines) + "\n").encode("utf-8")
        (out_dir / "udfg.csv").write_bytes(data)
    return PassResult(
        events=events,
        ops=attempted,
        trace_ns=trace_ns,
        outputs=[out_dir / "udfg.csv"],
        counts={
            "logio.read_log.events": sum(len(t) for t in log.traces),
            "oracle.udfg_bounds_trace.attempted": attempted,
            "oracle.udfg_bounds_trace.failed": len(newly_refused),
            "oracle.udfg_bounds_trace.rows": rows,
        },
        refused=frozenset(newly_refused) if refused is None else refused,
    )


PIPELINES = {"graph": run_graph, "udfg": run_udfg}


def digest(paths: list[Path]) -> str:
    """sha256 over the bytes of ``paths``, in order."""
    hasher = hashlib.sha256()
    for path in paths:
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def check_udfg_rows(trace: ubgraph.UncertainTrace, bounds: dict) -> None:
    """Bounds must be ordered, fit the trace and use only its labels."""
    labels = set().union(*(e.activities for e in trace.events))
    for (a, b), (low, high) in bounds.items():
        if not (0 <= low <= high <= len(trace) - 1 and {a, b} <= labels):
            raise OutputMismatch(
                f"case {trace.case_id!r}: udfg row {a},{b},{low},{high} is impossible"
            )


def reference_edges(trace: ubgraph.UncertainTrace) -> set[tuple[str, str]]:
    """Covering edges of the interval order, computed without ``build_sweep``.

    ``v -> w`` exactly when ``t_max[v] < t_min[w] <= M(v)``, where
    ``M(v)`` is the least ``t_max[u]`` over the events ``u`` that start
    after ``v`` ends.
    """
    events = trace.events
    n = len(events)
    if n == 0:
        return set()
    t_min = np.array([e.t_min for e in events], dtype=np.int64)
    t_max = np.array([e.t_max for e in events], dtype=np.int64)
    order = np.argsort(t_min, kind="stable")
    starts = t_min[order]
    suffix_min = np.minimum.accumulate(t_max[order][::-1])[::-1]
    lo = np.searchsorted(starts, t_max, side="right")
    bound = suffix_min[np.minimum(lo, n - 1)]
    hi = np.where(lo < n, np.searchsorted(starts, bound, side="right"), lo)
    counts = hi - lo
    src = np.repeat(np.arange(n), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    dst = order[np.repeat(lo, counts) + offsets]
    ids = [e.event_id for e in events]
    return {(ids[v], ids[w]) for v, w in zip(src.tolist(), dst.tolist())}


_DOT_EDGE = re.compile(r'  "([^"]*)" -> "([^"]*)";')


def check_graph_outputs(log_path: Path, out_dir: Path) -> None:
    """Every DOT file holds exactly the reference edges and one line per event."""
    for trace in ubgraph.read_log(log_path).traces:
        text = (out_dir / f"{_safe_name(trace.case_id)}.dot").read_text("utf-8")
        found = set(_DOT_EDGE.findall(text))
        expected = reference_edges(trace)
        if found != expected:
            raise OutputMismatch(
                f"case {trace.case_id!r}: DOT edges differ from the interval order "
                f"(extra {sorted(found - expected)[:3]}, "
                f"missing {sorted(expected - found)[:3]})"
            )
        if text.count("[label=") != len(trace):
            raise OutputMismatch(f"case {trace.case_id!r}: DOT vertex count is wrong")
