"""Reading and writing uncertain logs, plus graph export.

Three formats:

* JSON lines, the native format.  One event per line with keys case,
  event, activities, t_min, t_max, determinate.  Timestamps are
  ISO-8601 UTC strings with millisecond precision.  Lines may appear in
  any order; events sharing a "case" value form one trace.
* CSV import for conventional logs: one certain event per row, column
  names supplied by the caller.
* DOT export of a behavior graph, byte-deterministic, with dashed
  borders marking events that may not have happened.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .graph import BehaviorGraph
from .model import InvalidTraceError, UncertainEvent, UncertainLog, UncertainTrace, validate_log

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)
_DAY_FIRST = re.compile(r"(\d{2})-(\d{2})-(\d{4})")


class LogFormatError(ValueError):
    """Raised when a file cannot be parsed into a valid log."""


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds to an ISO-8601 UTC string, e.g. 2011-12-05T00:00:00.000Z."""
    dt = _EPOCH + timedelta(milliseconds=ms)
    return f"{dt.strftime('%Y-%m-%dT%H:%M:%S')}.{dt.microsecond // 1000:03d}Z"


def parse_timestamp(text: str) -> int:
    """ISO-8601 (or DD-MM-YYYY) to epoch milliseconds.

    Date-only values mean midnight UTC; naive datetimes are taken as
    UTC.  Raises ValueError for anything unparseable.
    """
    value = text.strip()
    match = _DAY_FIRST.fullmatch(value)
    if match:
        day, month, year = (int(g) for g in match.groups())
        dt = datetime(year, month, day, tzinfo=timezone.utc)
    else:
        if value.endswith("Z"):
            value = value[:-1] + "+00:00"
        dt = datetime.fromisoformat(value)
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
    return round((dt - _EPOCH) / _MS)


def write_log(log: UncertainLog, destination: str | Path) -> int:
    """Write the log as JSON lines; returns the number of bytes written.

    Lines are ordered by (case, t_min, event id) so equal logs always
    produce identical bytes.
    """
    rows = []
    for trace in log.traces:
        for event in trace.events:
            rows.append((trace.case_id, event.t_min, event.event_id, event))
    rows.sort(key=lambda row: row[:3])
    payload = "".join(
        json.dumps(
            {
                "case": case_id,
                "event": event.event_id,
                "activities": sorted(event.activities),
                "t_min": format_timestamp(event.t_min),
                "t_max": format_timestamp(event.t_max),
                "determinate": event.determinate,
            }
        )
        + "\n"
        for case_id, _, _, event in rows
    )
    data = payload.encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def _event_from_line(line: str, number: int) -> tuple[str, UncertainEvent]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise LogFormatError(f"line {number}: not valid JSON ({err.msg})") from err
    if not isinstance(record, dict):
        raise LogFormatError(f"line {number}: expected a JSON object")
    try:
        case_id = record["case"]
        event_id = record["event"]
        activities = record["activities"]
        t_min_text = record["t_min"]
        t_max_text = record["t_max"]
        determinate = record.get("determinate", True)
    except KeyError as err:
        raise LogFormatError(f"line {number}: missing key {err.args[0]!r}") from err
    if not isinstance(case_id, str) or not isinstance(event_id, str):
        raise LogFormatError(f"line {number}: case and event must be strings")
    if not isinstance(activities, list) or not all(isinstance(a, str) for a in activities):
        raise LogFormatError(f"line {number}: activities must be a list of strings")
    if not activities:
        raise LogFormatError(f"line {number}: event {event_id} has no activity labels")
    if not isinstance(determinate, bool):
        raise LogFormatError(f"line {number}: determinate must be a boolean")
    try:
        t_min = parse_timestamp(str(t_min_text))
        t_max = parse_timestamp(str(t_max_text))
    except ValueError as err:
        raise LogFormatError(f"line {number}: bad timestamp ({err})") from err
    if t_min > t_max:
        raise LogFormatError(
            f"line {number}: event {event_id} has t_min after t_max"
        )
    return case_id, UncertainEvent(
        event_id=event_id,
        activities=frozenset(activities),
        t_min=t_min,
        t_max=t_max,
        determinate=determinate,
    )


def _assemble_log(cases: dict[str, list[UncertainEvent]]) -> UncertainLog:
    """One trace per case, checked; every violation in one LogFormatError."""
    traces: list[UncertainTrace] = []
    violations: list[str] = []
    for case_id, events in sorted(cases.items()):
        try:
            traces.append(UncertainTrace(case_id=case_id, events=tuple(events)))
        except InvalidTraceError as err:
            violations.extend(err.violations)
    log = UncertainLog(traces=tuple(traces))
    violations.extend(validate_log(log))
    if violations:
        raise LogFormatError("; ".join(violations))
    return log


def read_log(source: str | Path) -> UncertainLog:
    """Parse a JSON-lines file written by write_log (any line order)."""
    cases: dict[str, list[UncertainEvent]] = {}
    with open(source, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            case_id, event = _event_from_line(line, number)
            cases.setdefault(case_id, []).append(event)
    return _assemble_log(cases)


def import_certain_csv(
    source: str | Path,
    case_col: str,
    activity_col: str,
    time_col: str,
    id_col: str | None = None,
) -> UncertainLog:
    """Build a fully certain log from a conventional CSV event table.

    Each row is one event with a single activity and an exact
    timestamp.  Without ``id_col``, ids are generated as
    "<case>#<k>" with k counting the case's rows from 1.
    """
    cases: dict[str, list[UncertainEvent]] = {}
    counters: dict[str, int] = {}
    with open(source, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        columns = reader.fieldnames or []
        for name in [case_col, activity_col, time_col] + ([id_col] if id_col else []):
            if name not in columns:
                raise LogFormatError(f"missing column {name!r} (found {columns})")
        for number, row in enumerate(reader, start=1):
            case_id = (row[case_col] or "").strip()
            activity = (row[activity_col] or "").strip()
            if not case_id:
                raise LogFormatError(f"row {number}: empty case value")
            if not activity:
                raise LogFormatError(f"row {number}: empty activity value")
            try:
                instant = parse_timestamp(row[time_col] or "")
            except ValueError as err:
                raise LogFormatError(f"row {number}: bad timestamp ({err})") from err
            counters[case_id] = counters.get(case_id, 0) + 1
            event_id = (
                (row[id_col] or "").strip()
                if id_col
                else f"{case_id}#{counters[case_id]}"
            )
            if not event_id:
                raise LogFormatError(f"row {number}: empty event id")
            cases.setdefault(case_id, []).append(
                UncertainEvent(
                    event_id=event_id,
                    activities=frozenset({activity}),
                    t_min=instant,
                    t_max=instant,
                )
            )
    return _assemble_log(cases)


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: BehaviorGraph, destination: str | Path) -> int:
    """Render a behavior graph as a DOT digraph; returns bytes written.

    Vertex labels join the activity set with commas; events that may
    not have happened are drawn dashed.  Output is sorted, so equal
    graphs give identical bytes.
    """
    lines = ["digraph behavior_graph {"]
    for vertex in sorted(graph.vertices):
        activities, determinate = graph.payload[vertex]
        label = _dot_quote(", ".join(sorted(activities)))
        style = "" if determinate else ", style=dashed"
        lines.append(f"  {_dot_quote(vertex)} [label={label}{style}];")
    for v, w in sorted(graph.edges):
        lines.append(f"  {_dot_quote(v)} -> {_dot_quote(w)};")
    lines.append("}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)
