"""In-memory spans recorded around calls into the ``ubgraph`` layers."""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path

_NULL = contextlib.nullcontext()


def no_span(name: str, trace_id: int | None = None) -> contextlib.nullcontext:
    """The span callable of an untraced pass: records nothing."""
    return _NULL


class Spans:
    """Spans with name, start, end, parent and a run-wide trace id.

    Calling the object opens a span as a context manager; spans opened
    inside it become its children.  Nothing is written until ``dump``.
    """

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start_ns, end_ns, parent, trace_id]
        self._open: list[int] = []

    @contextlib.contextmanager
    def __call__(self, name: str, trace_id: int | None = None):
        parent = self._open[-1] if self._open else None
        record = [name, 0, 0, parent, trace_id]
        self._open.append(len(self.records))
        self.records.append(record)
        record[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def self_seconds(self) -> list[tuple[str, dict[str, float]]]:
        """Per root span, its name and the self seconds summed by span name.

        A span's self time is its duration minus the durations of its
        children, which never overlap in this single-threaded run.
        """
        self_ns = [end - start for _, start, end, _, _ in self.records]
        root = list(range(len(self.records)))
        for index, (_, start, end, parent, _) in enumerate(self.records):
            if parent is not None:
                self_ns[parent] -= end - start
                root[index] = root[parent]
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for index, (name, *_rest) in enumerate(self.records):
            totals[root[index]][name] += self_ns[index] / 1e9
        return [(self.records[r][0], dict(totals[r])) for r in sorted(totals)]

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans as JSON; times are ns since the first span."""
        origin = self.records[0][1] if self.records else 0
        spans = [
            {"name": name, "start_ns": start - origin, "end_ns": end - origin,
             "parent": parent, "trace": trace_id}
            for name, start, end, parent, trace_id in self.records
        ]
        path.write_text(json.dumps({"meta": meta, "spans": spans}) + "\n")
