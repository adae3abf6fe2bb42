"""Reading and writing uncertain logs, plus graph export.

Three formats:

* JSON lines, the native format.  One event per line with keys case,
  event, activities, t_min, t_max, determinate.  Timestamps are
  ISO-8601 UTC strings with millisecond precision.  Lines may appear in
  any order; events sharing a "case" value form one trace.  Reading
  and writing go through the trace's columns and make no event
  objects.  A line in exactly the form ``write_log`` writes is read
  from one regular-expression match; any other line is decoded by
  ``json.loads``, with the same result and the same refusals.
* CSV import for conventional logs: one certain event per row, column
  names supplied by the caller.
* DOT export of a behavior graph, byte-deterministic, with dashed
  borders marking events that may not have happened, formatted from
  the graph's index arrays and its trace's columns.

What is worked out once per distinct key (an instant text's ms, a label
list's frozenset, a label set's JSON or DOT text) is kept in a
``model._Memo`` table.  The reader's label sets and the writer's label
texts, which the log holds anyway, keep every key for the call, so
equal label lists share one frozenset; the reader's instants and DOT
export's label texts, like the writer's instant texts, are cleared past
``_MEMO_KEPT`` keys.
"""

from __future__ import annotations

import csv
import json
import re
from datetime import datetime, timedelta, timezone
from itertools import groupby, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .graph import BehaviorGraph
from .model import _MEMO_KEPT, InvalidTraceError, UncertainLog, UncertainTrace, _Memo, validate_log

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MS = timedelta(milliseconds=1)
_DAY_FIRST = re.compile(r"(\d{2})-(\d{2})-(\d{4})")


class LogFormatError(ValueError):
    """Raised when a file cannot be parsed into a valid log."""


def format_timestamp(ms: int) -> str:
    """Epoch milliseconds to an ISO-8601 UTC string, e.g. 2011-12-05T00:00:00.000Z.

    The scalar formatter.  ``write_log`` formats whole columns with numpy
    instead, and its tests hold it to this function's strings.
    """
    dt = _EPOCH + timedelta(milliseconds=ms)
    return (
        f"{dt.year:04d}-{dt.month:02d}-{dt.day:02d}T"
        f"{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d}.{dt.microsecond // 1000:03d}Z"
    )


def parse_timestamp(text: str) -> int:
    """ISO-8601 (or DD-MM-YYYY) to epoch milliseconds.

    Date-only values mean midnight UTC; naive datetimes are taken as
    UTC.  Instants are rounded to the nearest millisecond, ties to
    even.  Raises ValueError for anything unparseable.
    """
    value = text.strip()
    try:
        dt = datetime.fromisoformat(value)
    except ValueError as err:
        match = _DAY_FIRST.fullmatch(value)
        if match:
            day, month, year = (int(g) for g in match.groups())
            dt = datetime(year, month, day)
        elif value.endswith("Z"):
            # fromisoformat reads no Z suffix before Python 3.11, and none
            # after a bare date; a failed retry reports the text as given
            try:
                dt = datetime.fromisoformat(value[:-1] + "+00:00")
            except ValueError:
                raise err from None
        else:
            raise
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    # in integers: a float quotient cannot hold the sub-millisecond part
    # of an instant far from 1970
    ms, rest = divmod(dt - _EPOCH, _MS)
    us = rest.microseconds
    return ms + 1 if us > 500 or (us == 500 and ms % 2) else ms


class _InstantTexts(dict):
    """The text of each epoch-ms instant written, as format_timestamp gives it less the final Z.

    Logs repeat instants (generated ones place events on whole seconds),
    so the texts of a trace whose instants were all written before are
    looked up, not made.  Any other trace is formatted whole, by one
    numpy call, and its texts are kept, about _MEMO_KEPT at a
    time.  Texts kept that served no trace before they were dropped
    stop the lookups, so a log whose instants are all distinct pays
    little more than that numpy call per trace.
    """

    def __init__(self) -> None:
        super().__init__()
        self.looking_up = True
        self.served = False

    def of(self, t_min: np.ndarray, t_max: np.ndarray) -> list[str]:
        """The texts of a trace's t_min column, then of its t_max column."""
        if self.looking_up:
            instants = t_min.tolist() + t_max.tolist()
            try:
                texts = list(map(self.__getitem__, instants))
            except KeyError:
                if len(self) > _MEMO_KEPT:
                    self.clear()
                    self.looking_up, self.served = self.served, False
            else:
                self.served = True
                return texts
        column = np.concatenate((t_min, t_max)).view("datetime64[ms]")
        texts = np.datetime_as_string(column, unit="ms").tolist()
        if self.looking_up:
            self.update(zip(instants, texts))
        return texts


def write_log(log: UncertainLog, destination: str | Path) -> int:
    """Write the log as JSON lines; returns the number of bytes written.

    Traces come in case-id order, one trace's text written at a time,
    and each trace's lines in its own (t_min, event id) order.  So equal
    logs give identical bytes: those of ``json.dumps`` with its default
    separators, one object per line.  A log that breaks a rule of
    ``validate_log`` would not read back as written, so it raises
    ValueError with every violation before anything is written.
    """
    violations = validate_log(log)
    if violations:
        raise ValueError(f"cannot write the log: {'; '.join(violations)}")
    # the JSON text of each activity set's sorted label list
    labels_text = _Memo(
        lambda labels: "[" + ", ".join(map(encode_basestring_ascii, sorted(labels))) + "]"
    )
    instant_texts = _InstantTexts()
    written = 0
    # the text is ASCII, so its characters are its bytes
    with open(destination, "w", encoding="ascii", newline="") as handle:
        for trace in log.traces:
            head = '{"case": ' + encode_basestring_ascii(trace.case_id) + ', "event": '
            texts = instant_texts.of(trace.t_min, trace.t_max)
            low, high = texts[: len(trace)], texts[len(trace) :]
            text = "".join(
                f'{head}{encode_basestring_ascii(event_id)}, "activities": {labels_text[labels]}, '
                f'"t_min": "{t_min}Z", "t_max": "{t_max}Z", '
                f'"determinate": {"true" if flag else "false"}}}\n'
                for event_id, labels, t_min, t_max, flag in zip(
                    trace.event_ids, trace.activities, low, high, trace.determinate
                )
            )
            written += handle.write(text)
    return written


def _row_from_line(
    line: str, number: int, label_sets: _Memo
) -> tuple[str, str, frozenset[str], int, int, bool]:
    """One line's (case, event id, activities, t_min, t_max, determinate), after its checks.

    ``label_sets`` makes the frozenset of each tuple of labels, so equal
    label lists share one frozenset.
    """
    _refuse_undecoded_bytes(number, line)
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise LogFormatError(f"line {number}: not valid JSON ({err.msg})") from err
    except (ValueError, RecursionError) as err:
        # an integer past Python's digit limit, or nesting past the recursion limit
        raise LogFormatError(f"line {number}: not valid JSON ({err})") from err
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
    if not isinstance(activities, list) or not all(map(isinstance, activities, repeat(str))):
        raise LogFormatError(f"line {number}: activities must be a list of strings")
    if not activities:
        raise LogFormatError(f"line {number}: event {event_id!r} has no activity labels")
    try:
        # a JSON escape can spell a lone surrogate, which no UTF-8 output can hold
        "".join((case_id, event_id, *activities)).encode("utf-8")
    except UnicodeEncodeError as err:
        raise LogFormatError(
            f"line {number}: case, event and labels must be UTF-8 text ({err.reason})"
        ) from err
    if not isinstance(determinate, bool):
        raise LogFormatError(f"line {number}: determinate must be a boolean")
    for key, text in (("t_min", t_min_text), ("t_max", t_max_text)):
        if not isinstance(text, str):
            raise LogFormatError(f"line {number}: bad timestamp ({key} is not a string)")
    try:
        t_min = parse_timestamp(t_min_text)
        t_max = parse_timestamp(t_max_text)
    except ValueError as err:
        raise LogFormatError(f"line {number}: bad timestamp ({err})") from err
    if t_min > t_max:
        raise LogFormatError(
            f"line {number}: event {event_id!r} has t_min after t_max"
        )
    return case_id, event_id, label_sets[tuple(activities)], t_min, t_max, determinate


# A line exactly as write_log writes it: its key order and separators,
# strings without escapes or control characters, at least one label,
# and canonical instants with a valid time of day, in ASCII digits (\d
# would also take other Unicode digits).  Such a line decodes to its
# match groups; read_log still checks its dates and its interval.
# _TEXT also excludes U+DC80-U+DCFF, the stand-ins of bytes that are not
# UTF-8, so a line holding one takes the json.loads route and is refused.
_TEXT = r'[^"\\\x00-\x1f\udc80-\udcff]*'
_INSTANT = r'"([0-9]{4}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3})Z"'
_CANONICAL_LINE = re.compile(
    r'\{"case": "(' + _TEXT + r')", "event": "(' + _TEXT + r')"'
    + r', "activities": \[("' + _TEXT + r'"(?:, "' + _TEXT + r'")*)\]'
    + r', "t_min": ' + _INSTANT + r', "t_max": ' + _INSTANT
    + r', "determinate": (?:(true)|false)\}\n?'
)


def _instant(text: str) -> int | None:
    """Epoch milliseconds of a canonical instant text, or None if its date does not exist."""
    try:
        return parse_timestamp(text + "Z")
    except ValueError:
        return None


# the stand-ins that errors="surrogateescape" decodes bytes 0x80-0xff to
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _refuse_undecoded_bytes(number: int, text: str) -> None:
    """Raise LogFormatError if ``text``, read from line ``number``, held a byte that is not UTF-8.

    Both readers decode with errors="surrogateescape", so such a byte
    stands in as one of U+DC80-U+DCFF; valid UTF-8 decodes to none.
    """
    bad = _ESCAPED_BYTE.search(text)
    if bad is not None:
        raise LogFormatError(f"line {number}: not UTF-8 text (byte 0x{ord(bad.group()) - 0xDC00:02x})")


# one event as read: case, event id, activity set, t_min, t_max, determinate
_Row = tuple[str, str, frozenset[str], int, int, bool]


def _log_from_rows(rows: Iterable[_Row]) -> UncertainLog:
    """The log of the rows, one trace per case; every violation in one LogFormatError.

    Rows of one case that come one after another form a run, and a
    run's trace is built as soon as the next run starts, so rows that
    keep each case together are held one case at a time beside the
    traces.  Once a case comes back after another case, its trace goes
    back to columns that the new run joins, and no further case is built
    early, so each case is built at most twice.  A case whose early
    build fails keeps its columns and is built again once the rows run
    out, with every case not built yet, in case-id order.  The message
    lists those builds' violations, each as ``invalid trace '<case>':
    ...``, then ``validate_log``'s.  A refusal raised by ``rows`` itself
    comes first, as it stops the rows.
    """
    built: dict[str, UncertainTrace] = {}
    # the columns of the cases not built, or whose build failed
    cases: dict[str, list[list]] = {}
    building = True
    for case_id, run in groupby(rows, itemgetter(0)):
        trace = built.pop(case_id, None)
        if trace is not None:
            cases[case_id] = trace._columns()
        columns = cases.get(case_id)
        if columns is None:
            columns = cases[case_id] = [[], [], [], [], []]
        else:
            building = False  # the case comes back
        event_ids, activities, t_min, t_max, flags = columns
        for _, event_id, labels, low, high, determinate in run:
            event_ids.append(event_id)
            activities.append(labels)
            t_min.append(low)
            t_max.append(high)
            flags.append(determinate)
        if building:
            try:
                built[case_id] = UncertainTrace.from_columns(case_id, *columns)
            except InvalidTraceError:
                continue  # built again at the end, for its message
            del cases[case_id]
    traces = list(built.values())
    violations: list[str] = []
    for case_id in sorted(cases):
        try:
            traces.append(UncertainTrace.from_columns(case_id, *cases.pop(case_id)))
        except InvalidTraceError as err:
            violations.append(str(err))
    log = UncertainLog(traces=tuple(traces))
    violations.extend(validate_log(log))
    if violations:
        raise LogFormatError("; ".join(violations))
    return log


def _jsonl_rows(handle: TextIO) -> Iterator[_Row]:
    """The row of each line of an open JSON-lines file that is not blank (see read_log)."""
    # logs repeat instants (generated ones place events on whole seconds)
    # and label lists, and the rows share one value per distinct text
    instants = _Memo(_instant, _MEMO_KEPT)
    label_sets = _Memo(lambda text: frozenset(text[1:-1].split('", "')))
    json_label_sets = _Memo(frozenset)
    match = _CANONICAL_LINE.fullmatch
    for number, line in enumerate(handle, start=1):
        found = match(line)
        if found is not None:
            case_id, event_id, labels_text, low, high, true = found.groups()
            low, high = instants[low], instants[high]
            if low is not None and high is not None and low <= high:
                yield case_id, event_id, label_sets[labels_text], low, high, true is not None
                continue
        if line.strip(" \t\r\n"):
            yield _row_from_line(line, number, json_label_sets)


def read_log(source: str | Path) -> UncertainLog:
    """Parse a JSON-lines file written by write_log (any line order).

    The file is decoded once, as UTF-8 past one leading byte order
    mark, and each line is read on its own, in file order: an object
    spread over several lines is refused, and the first bad line is
    the one named.  A line of JSON whitespace alone (spaces, tabs, line
    ends) is skipped.  A line in write_log's exact form (see
    ``_CANONICAL_LINE``) whose dates exist and whose t_min is not after
    its t_max is taken from its match groups; every other line is
    decoded by ``json.loads`` and checked key by key, which gives the
    same row for a valid line and the message, with its line number,
    for a bad one (a byte that is not UTF-8 first).  No event object is
    made.

    The rows become the log in ``_log_from_rows``, as the rows of
    ``import_certain_csv`` do: a file that keeps each case's lines
    together, as write_log's files do, holds one case's rows at a time
    beside the traces, a file in any line order builds each case at
    most twice, and the trace violations come in case-id order, then
    the log-level ones.
    """
    with open(source, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
        return _log_from_rows(_jsonl_rows(handle))


def _csv_records(handle: TextIO) -> Iterator[tuple[int, list[str]]]:
    """Each CSV record of an open file, with the line it starts on.

    The file is opened with errors="surrogateescape", as ``read_log``
    opens its own, so a byte that is not UTF-8 stands in as a surrogate
    until its record is read; then it, or text the csv module refuses (a
    field longer than its limit), raises LogFormatError naming the
    record's first line.
    """
    reader = csv.reader(handle)
    number = 1
    while True:
        try:
            fields = next(reader)
        except StopIteration:
            return
        except csv.Error as err:
            raise LogFormatError(f"line {number}: {err}") from err
        _refuse_undecoded_bytes(number, "".join(fields))
        yield number, fields
        number = reader.line_num + 1


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
    "<case>#<k>" with k counting the case's rows from 1.  The file is
    decoded once, as UTF-8 with one leading byte order mark skipped (as
    a spreadsheet's "CSV UTF-8" export begins).  A bad row, a byte that
    is not UTF-8, or text the csv module refuses raises LogFormatError
    as ``line N: ...``, N being the line of the file on which the record
    starts (the header is line 1; a quoted field may hold line breaks,
    so a record may span lines).  A header that lacks a named column,
    or holds one more than once, is refused as ``line 1: ...``.  The
    rows become the log in ``_log_from_rows``, as ``read_log``'s do, and
    the events of one activity share one label set.
    """

    def rows(records: Iterator[tuple[int, list[str]]], header: list[str]) -> Iterator[_Row]:
        # the rows read of each case, for its "<case>#<k>" ids
        counts: dict[str, int] = {}
        singletons = _Memo(lambda activity: frozenset((activity,)))
        for number, fields in records:
            if not fields:
                continue  # a blank line
            # a short row leaves its last columns empty
            row = dict(zip(header, fields))
            case_id = row.get(case_col, "").strip()
            activity = row.get(activity_col, "").strip()
            if not case_id:
                raise LogFormatError(f"line {number}: empty case value")
            if not activity:
                raise LogFormatError(f"line {number}: empty activity value")
            try:
                instant = parse_timestamp(row.get(time_col, ""))
            except ValueError as err:
                raise LogFormatError(f"line {number}: bad timestamp ({err})") from err
            count = counts[case_id] = counts.get(case_id, 0) + 1
            event_id = row.get(id_col, "").strip() if id_col else f"{case_id}#{count}"
            if not event_id:
                raise LogFormatError(f"line {number}: empty event id")
            yield case_id, event_id, singletons[activity], instant, instant, True

    with open(source, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as handle:
        records = _csv_records(handle)
        _, header = next(records, (1, []))
        for name in [case_col, activity_col, time_col] + ([id_col] if id_col else []):
            if name not in header:
                raise LogFormatError(f"line 1: missing column {name!r} (found {header})")
            if header.count(name) > 1:
                raise LogFormatError(f"line 1: column {name!r} appears {header.count(name)} times")
        return _log_from_rows(rows(records, header))


def _dot_escape(text: str) -> str:
    """The text as it goes between the double quotes of a DOT id."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


# The ``[label="..."`` text of each activity set's vertex.  Graphs repeat
# label sets, so the texts are kept across calls, up to _MEMO_KEPT sets.
# export_dot takes one graph per call, so the one table lives in the
# module; each text depends on its set alone, so a call can see another
# only in its speed.
_DOT_LABEL_TEXTS = _Memo(
    lambda labels: '[label="' + _dot_escape(", ".join(sorted(labels))) + '"', _MEMO_KEPT
)


def export_dot(graph: BehaviorGraph, destination: str | Path) -> int:
    """Render a behavior graph as a DOT digraph; returns bytes written.

    Vertex labels join the activity set with commas; events that may
    not have happened are drawn dashed.  Vertices come in event-id
    order and edges in (id, id) order, so equal graphs give identical
    bytes.  The ids are escaped only when one of them holds a ``"`` or
    a ``\\``, and a vertex's label text is looked up by its activity set;
    the edge order comes from one argsort of the ends' ranks, and the
    flags from the trace's columns.
    """
    trace = graph.trace
    ids, activities, determinate = trace.event_ids, trace.activities, trace.determinate
    count = len(ids)
    order = sorted(range(count), key=ids.__getitem__)
    joined = "".join(ids)
    if '"' in joined or "\\" in joined:
        ids = list(map(_dot_escape, ids))
    labels = _DOT_LABEL_TEXTS
    vertices = "".join(
        [
            f'  "{ids[i]}" {labels[activities[i]]}{"];" if determinate[i] else ", style=dashed];"}\n'
            for i in order
        ]
    )
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(count)
    src, dst = graph.src, graph.dst
    by_ids = (rank[src] * count + rank[dst]).argsort()
    edges = "".join(
        [f'  "{ids[v]}" -> "{ids[w]}";\n' for v, w in zip(src[by_ids].tolist(), dst[by_ids].tolist())]
    )
    data = f"digraph behavior_graph {{\n{vertices}{edges}}}\n".encode("utf-8")
    with open(destination, "wb") as handle:
        handle.write(data)
    return len(data)
