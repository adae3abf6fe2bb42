from __future__ import annotations

import csv
import json
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from itertools import repeat
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubgraph import (
    GenerationSpec,
    InvalidTraceError,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    build_baseline,
    build_sweep,
    covering_relation,
    enumerate_realizations,
    export_dot,
    generate_certain_log,
    import_certain_csv,
    inject_activity_uncertainty,
    inject_indeterminacy,
    inject_time_uncertainty,
    linear_extensions,
    read_log,
    udfg_bounds_trace,
    validate_log,
    write_log,
)
from ubgraph import logio
from ubgraph.logio import LogFormatError, _InstantTexts, format_timestamp, parse_timestamp
from ubgraph.model import _MEMO_KEPT, MAX_TIMESTAMP_MS, MIN_TIMESTAMP_MS, _Memo

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_US = timedelta(microseconds=1)
_DAY_FIRST = re.compile(r"(\d{2})-(\d{2})-(\d{4})")


def reference_parse_timestamp(text: str) -> int:
    """Definitional timestamp parser: DD-MM-YYYY first, then ISO-8601 with Z as +00:00.

    A refusal's message quotes the text as given.  The millisecond is
    rounded from an exact fraction, ties to even, since a float quotient
    cannot hold the sub-millisecond part of an instant far from 1970.
    """
    value = text.strip()
    match = _DAY_FIRST.fullmatch(value)
    if match:
        day, month, year = (int(g) for g in match.groups())
        dt = datetime(year, month, day, tzinfo=timezone.utc)
    else:
        try:
            dt = datetime.fromisoformat(value[:-1] + "+00:00" if value.endswith("Z") else value)
        except ValueError:
            # the error quotes the text as given, not its rewrite
            datetime.fromisoformat(value)
            raise
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
    return round(Fraction((dt - _EPOCH) // _US, 1000))


def _reference_event(line: str, number: int) -> tuple[str, UncertainEvent]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as err:
        raise LogFormatError(f"line {number}: not valid JSON ({err.msg})") from err
    except (ValueError, RecursionError) as err:
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
    if not isinstance(activities, list) or not all(isinstance(a, str) for a in activities):
        raise LogFormatError(f"line {number}: activities must be a list of strings")
    if not activities:
        raise LogFormatError(f"line {number}: event {event_id!r} has no activity labels")
    # the surrogates are the only code points that UTF-8 cannot encode
    if any("\ud800" <= char <= "\udfff" for text in (case_id, event_id, *activities) for char in text):
        raise LogFormatError(
            f"line {number}: case, event and labels must be UTF-8 text (surrogates not allowed)"
        )
    if not isinstance(determinate, bool):
        raise LogFormatError(f"line {number}: determinate must be a boolean")
    for key, text in (("t_min", t_min_text), ("t_max", t_max_text)):
        if not isinstance(text, str):
            raise LogFormatError(f"line {number}: bad timestamp ({key} is not a string)")
    try:
        t_min = reference_parse_timestamp(t_min_text)
        t_max = reference_parse_timestamp(t_max_text)
    except ValueError as err:
        raise LogFormatError(f"line {number}: bad timestamp ({err})") from err
    if t_min > t_max:
        raise LogFormatError(f"line {number}: event {event_id!r} has t_min after t_max")
    return case_id, UncertainEvent(event_id, frozenset(activities), t_min, t_max, determinate)


def reference_read_log(path) -> UncertainLog:
    """Definitional JSONL reader: one UncertainEvent per line, one trace per case.

    The per-line reader that builds event objects and groups them in a
    dict, checking every trace and the log as a whole.  ``read_log``
    must give an equal log, or raise LogFormatError with the same
    message.
    """
    cases: dict[str, list[UncertainEvent]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            # only JSON's whitespace makes a blank line
            if not line.strip(" \t\r\n"):
                continue
            case_id, event = _reference_event(line, number)
            cases.setdefault(case_id, []).append(event)
    traces: list[UncertainTrace] = []
    violations: list[str] = []
    for case_id, events in sorted(cases.items()):
        try:
            traces.append(UncertainTrace(case_id=case_id, events=tuple(events)))
        except InvalidTraceError as err:
            violations.append(str(err))
    log = UncertainLog(traces=tuple(traces))
    violations.extend(validate_log(log))
    if violations:
        raise LogFormatError("; ".join(violations))
    return log


def reference_write_log(log: UncertainLog, destination) -> int:
    """Definitional JSONL writer: one ``json.dumps`` per event, one global sort.

    Rows are sorted by (case, t_min, event id) and timestamps go through
    the scalar ``format_timestamp``.  ``write_log`` must write the same
    bytes for every valid log.
    """
    rows = []
    for trace in log.traces:
        rows.extend(
            zip(
                repeat(trace.case_id),
                trace.t_min.tolist(),
                trace.event_ids,
                trace.activities,
                trace.t_max.tolist(),
                trace.determinate,
            )
        )
    rows.sort(key=lambda row: row[:3])
    payload = "".join(
        json.dumps(
            {
                "case": case_id,
                "event": event_id,
                "activities": sorted(activities),
                "t_min": format_timestamp(t_min),
                "t_max": format_timestamp(t_max),
                "determinate": determinate,
            }
        )
        + "\n"
        for case_id, t_min, event_id, activities, t_max, determinate in rows
    )
    data = payload.encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


def _random_log(seed):
    spec = GenerationSpec(n_traces=3, trace_length=6, seed=seed)
    log = inject_time_uncertainty(generate_certain_log(spec), 0.5, seed)
    return inject_indeterminacy(log, 0.3, seed)


def test_timestamp_round_trip():
    for ms in [0, 1, -1, -500, 1322006400000, 1322006400123]:
        assert parse_timestamp(format_timestamp(ms)) == ms


def test_timestamp_parsing_variants():
    assert parse_timestamp("05-12-2011") == parse_timestamp("2011-12-05")
    assert parse_timestamp("2011-12-05T00:00:00Z") == parse_timestamp("05-12-2011")
    assert parse_timestamp("2011-12-05T01:00:00+01:00") == parse_timestamp("05-12-2011")
    with pytest.raises(ValueError):
        parse_timestamp("not a date")


def test_write_log_lines(tmp_path, five_event_trace):
    path = tmp_path / "log.jsonl"
    size = write_log(UncertainLog((five_event_trace,)), path)
    assert size == path.stat().st_size > 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["event"] for line in lines] == ["e1", "e3", "e2", "e4", "e5"]
    by_id = {line["event"]: line for line in lines}
    assert by_id["e2"]["activities"] == ["b", "c"]
    assert by_id["e3"]["t_min"] == "2011-12-06T00:00:00.000Z"
    assert by_id["e3"]["t_max"] == "2011-12-10T00:00:00.000Z"
    assert by_id["e5"]["determinate"] is False


def test_write_log_follows_the_trace_order_on_a_t_min_tie(tmp_path):
    # at t_min 1000 the id order (a, b) and the t_max order (b, a) disagree
    trace = UncertainTrace(
        "c",
        (
            UncertainEvent("b", frozenset("x"), 1000, 2000),
            UncertainEvent("a", frozenset("y"), 1000, 5000),
            UncertainEvent("c", frozenset("z"), 0, 0),
        ),
    )
    assert trace.event_ids == ("c", "a", "b")
    log = UncertainLog((trace,))
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    assert [json.loads(line)["event"] for line in lines] == list(trace.event_ids)
    assert read_log(path) == log


def test_write_log_holds_one_trace_at_a_time(tmp_path):
    # a writer that builds the whole file's text first peaks at several
    # times the file's size
    spec = GenerationSpec(n_traces=200, trace_length=50, seed=1)
    log = inject_time_uncertainty(generate_certain_log(spec), 0.4, 1)
    path = tmp_path / "log.jsonl"
    tracemalloc.start()
    try:
        write_log(log, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_write_empty_log(tmp_path):
    assert write_log(UncertainLog(), tmp_path / "empty.jsonl") == 0


def test_round_trip_identity(tmp_path, five_event_trace, six_event_trace):
    # the fixtures reuse event ids, so each goes in its own log
    for name, trace in [("five", five_event_trace), ("six", six_event_trace)]:
        log = UncertainLog((trace,))
        path = tmp_path / f"{name}.jsonl"
        write_log(log, path)
        assert read_log(path) == log


def test_round_trip_random_logs(tmp_path):
    for seed in range(20):
        log = _random_log(seed)
        path = tmp_path / f"log{seed}.jsonl"
        write_log(log, path)
        assert read_log(path) == log


def test_write_is_byte_deterministic(tmp_path):
    log = _random_log(3)
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_log(log, first)
    write_log(log, second)
    assert first.read_bytes() == second.read_bytes()


def test_read_accepts_shuffled_lines(tmp_path, five_event_trace):
    log = UncertainLog((five_event_trace,))
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(reversed(lines)) + "\n")
    assert read_log(shuffled) == log


def test_read_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = '{"case": "c", "event": "e1", "activities": ["a"], "t_min": "2011-12-05T00:00:00Z", "t_max": "2011-12-05T00:00:00Z", "determinate": true}'
    path.write_text(good + "\n{broken\n")
    with pytest.raises(LogFormatError, match="line 2"):
        read_log(path)


def test_read_rejects_backwards_interval(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": ["a"],
        "t_min": "2011-12-09T00:00:00Z",
        "t_max": "2011-12-05T00:00:00Z",
        "determinate": True,
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(LogFormatError, match="e1"):
        read_log(path)


def test_read_rejects_empty_activities(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": [],
        "t_min": "2011-12-05T00:00:00Z",
        "t_max": "2011-12-05T00:00:00Z",
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(LogFormatError, match="line 1"):
        read_log(path)


def test_read_rejects_duplicate_event_ids(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": ["a"],
        "t_min": "2011-12-05T00:00:00Z",
        "t_max": "2011-12-05T00:00:00Z",
    }
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(LogFormatError, match="duplicate event id 'e1'"):
        read_log(path)


def test_read_reports_every_violation_in_one_error(tmp_path):
    # two invalid cases, plus an event id shared by two valid ones
    path = tmp_path / "bad.jsonl"
    lines = [
        {
            "case": case_id,
            "event": event_id,
            "activities": ["a"],
            "t_min": "2011-12-05T00:00:00Z",
            "t_max": "2011-12-05T00:00:00Z",
        }
        for case_id, event_id in [
            ("c1", "x"), ("c1", "x"), ("c2", "y"), ("c2", "y"), ("c3", "z"), ("c4", "z")
        ]
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == (
        "invalid trace 'c1': duplicate event id 'x'; invalid trace 'c2': duplicate event id 'y'; "
        "event id 'z' appears in more than one trace: 'c3' and 'c4'"
    )


def test_read_reports_the_violations_of_one_case_in_line_order(tmp_path):
    # the trace checks its columns before it sorts them, so an empty id on
    # line 2 comes before the duplicate of line 1's id on line 3, although
    # line 3's event is the earliest
    path = tmp_path / "bad.jsonl"
    lines = [
        {
            "case": "c",
            "event": event_id,
            "activities": ["a"],
            "t_min": f"2011-12-0{day}T00:00:00Z",
            "t_max": f"2011-12-0{day}T00:00:00Z",
        }
        for event_id, day in [("b", 5), ("", 9), ("b", 1)]
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == "invalid trace 'c': empty event id; duplicate event id 'b'"


def test_read_reports_every_violation_in_one_error_when_cases_interleave(tmp_path):
    # the lines of the test above, with every case but c3 split in two, so
    # that cases built early come back to be built again
    path = tmp_path / "bad.jsonl"
    lines = [
        {
            "case": case_id,
            "event": event_id,
            "activities": ["a"],
            "t_min": "2011-12-05T00:00:00Z",
            "t_max": "2011-12-05T00:00:00Z",
        }
        for case_id, event_id in [
            ("c1", "x"), ("c2", "y"), ("c3", "z"), ("c1", "x"), ("c2", "y"), ("c4", "z")
        ]
    ]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == (
        "invalid trace 'c1': duplicate event id 'x'; invalid trace 'c2': duplicate event id 'y'; "
        "event id 'z' appears in more than one trace: 'c3' and 'c4'"
    )


def _case_blocks(path: Path) -> list[list[bytes]]:
    """The lines of a file write_log wrote, one list per case, in file order."""
    blocks: dict[str, list[bytes]] = {}
    for line in path.read_bytes().splitlines(keepends=True):
        blocks.setdefault(json.loads(line)["case"], []).append(line)
    return list(blocks.values())


def _reordered(blocks: list[list[bytes]], order: str) -> list[bytes]:
    if order == "grouped":
        return [line for block in blocks for line in block]
    if order == "reversed":
        return [line for block in blocks for line in block][::-1]
    if order == "round_robin":
        longest = max(map(len, blocks), default=0)
        return [block[k] for k in range(longest) for block in blocks if k < len(block)]
    # "split": the first case's first half leads the file, its other half ends it
    first, rest = blocks[0], blocks[1:]
    half = len(first) // 2
    return first[:half] + [line for block in rest for line in block] + first[half:]


def _written(log: UncertainLog, path: Path, reader: str, order: str = "grouped"):
    """Write ``log`` with its cases' rows in ``order``; return the call that reads it back.

    As JSON lines for ``read_log``, or, for ``import_certain_csv``, as
    CSV rows of a certain log of single labels, whose generated ids are
    those the import gives.
    """
    if reader == "jsonl":
        write_log(log, path)
        path.write_bytes(b"".join(_reordered(_case_blocks(path), order)))
        return lambda: read_log(path)
    blocks = [
        [
            f"{trace.case_id},{min(labels)},{format_timestamp(instant)}\n"
            for labels, instant in zip(trace.activities, trace.t_min.tolist())
        ]
        for trace in log.traces
    ]
    path.write_text("case,activity,time\n" + "".join(_reordered(blocks, order)))
    return lambda: import_certain_csv(path, "case", "activity", "time")


@pytest.mark.parametrize("reader", ["jsonl", "csv"])
def test_read_log_builds_each_case_at_most_twice(tmp_path, reader):
    spec = GenerationSpec(n_traces=3, trace_length=6, seed=5)
    log = _random_log(5) if reader == "jsonl" else generate_certain_log(spec)
    read = _written(log, tmp_path / f"log.{reader}", reader, "round_robin")
    built = []
    from_columns = UncertainTrace.from_columns

    def counting_from_columns(case_id, *columns):
        built.append(case_id)
        return from_columns(case_id, *columns)

    with patch.object(UncertainTrace, "from_columns", counting_from_columns):
        assert read() == log
    # once the first case comes back, no case is built early, so each is
    # built at most once early and once at the end
    assert len(built) <= 2 * len(log)
    assert sorted(set(built)) == [trace.case_id for trace in log.traces]


@pytest.mark.parametrize(
    "traces, length, bound", [(2000, 50, 1.25), (1, 50_000, 2.5)], ids=["2000x50", "1x50000"]
)
@pytest.mark.parametrize("reader", ["jsonl", "csv"])
def test_read_log_peaks_near_the_size_of_the_log(tmp_path, reader, traces, length, bound):
    # all of a case's rows are built into its trace once the next case
    # starts, and the cross-trace id check holds no set of the ids; a
    # case's rows are held as one list per column, beside its trace
    log = generate_certain_log(GenerationSpec(n_traces=traces, trace_length=length, seed=1))
    if reader == "jsonl":
        log = inject_time_uncertainty(log, 0.4, 1)
    read = _written(log, tmp_path / f"log.{reader}", reader)
    del log
    tracemalloc.start()
    try:
        log = read()
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(log) == traces
    assert peak <= bound * size


@pytest.mark.parametrize(
    "line", ["\x1c", "\x0b\x0c", "\x85", "\u2028", "\u3000"], ids=["x1c", "vt-ff", "nel", "u2028", "u3000"]
)
def test_read_refuses_a_line_of_whitespace_that_json_refuses(tmp_path, line):
    # str.strip() takes these for whitespace; JSON does not
    path = tmp_path / "bad.jsonl"
    write_log(_random_log(1), path)
    first = path.read_text().splitlines()[0]
    path.write_text(first + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == "line 2: not valid JSON (Expecting value)"


def test_read_skips_lines_of_json_whitespace(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _random_log(4)
    write_log(log, path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join([" \t \n", lines[0], "\n", "\t\r\n", *lines[1:], "  "]))
    assert read_log(path) == log


def test_import_csv(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text(
        "case,activity,timestamp\n"
        "945,register,05-12-2011\n"
        "946,register,2011-12-06T08:00:00Z\n"
        "945,decide,07-12-2011\n"
    )
    log = import_certain_csv(path, "case", "activity", "timestamp")
    assert [t.case_id for t in log.traces] == ["945", "946"]
    first = log.traces[0]
    assert [e.event_id for e in first.events] == ["945#1", "945#2"]
    assert all(e.t_min == e.t_max and e.determinate for e in first.events)
    assert {next(iter(e.activities)) for e in first.events} == {"register", "decide"}


def test_import_csv_shares_one_label_set_per_activity(tmp_path):
    path = tmp_path / "events.csv"
    rows = [f"c{k % 7},a{k % 3},2011-12-05T00:00:{k:02d}Z\n" for k in range(40)]
    path.write_text("case,activity,timestamp\n" + "".join(rows))
    log = import_certain_csv(path, "case", "activity", "timestamp")
    label_sets = [labels for trace in log.traces for labels in trace.activities]
    assert len(label_sets) == 40
    assert len(set(map(id, label_sets))) == 3


def test_import_csv_skips_a_leading_byte_order_mark(tmp_path):
    # as a spreadsheet's "CSV UTF-8" export begins
    path = tmp_path / "events.csv"
    path.write_bytes("\ufeffcase,activity,timestamp\r\n945,register,05-12-2011\r\n".encode())
    log = import_certain_csv(path, "case", "activity", "timestamp")
    assert [(t.case_id, len(t)) for t in log.traces] == [("945", 1)]


def test_import_csv_with_id_column(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity,timestamp,id\nc1,a,05-12-2011,ev9\n")
    log = import_certain_csv(path, "case", "activity", "timestamp", id_col="id")
    assert log.traces[0].events[0].event_id == "ev9"


def test_import_csv_rejects_repeated_id_column_value(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity,timestamp,id\nc1,a,05-12-2011,ev9\nc1,b,06-12-2011,ev9\n")
    with pytest.raises(LogFormatError, match="duplicate event id 'ev9'"):
        import_certain_csv(path, "case", "activity", "timestamp", id_col="id")


def test_import_csv_reports_row_numbers(tmp_path):
    # a refusal names the file line its record starts on; after the header, the
    # first record below spans lines 2 and 3, so the next one starts on line 4,
    # whichever check refuses it and whichever of its lines is bad
    path = tmp_path / "events.csv"
    limit = csv.field_size_limit()
    head = b'case,activity,timestamp\nc1,"a\nb",05-12-2011\n'
    for text, message in [
        (b"case,activity,timestamp\nc1,a,05-12-2011\nc1,b,not-a-date\n",
         "line 3: bad timestamp (Invalid isoformat string: 'not-a-date')"),
        (head + b"c1,b,not-a-date\n",
         "line 4: bad timestamp (Invalid isoformat string: 'not-a-date')"),
        (head + b"c1,,06-12-2011\n", "line 4: empty activity value"),
        (head + b" ,b,06-12-2011\n", "line 4: empty case value"),
        (head + b"c1,b\xff,06-12-2011\n", "line 4: not UTF-8 text (byte 0xff)"),
        (head + b'c1,"b\n\xff",06-12-2011\n', "line 4: not UTF-8 text (byte 0xff)"),
        (head + b'c1,"b\n' + b"b" * limit + b'",06-12-2011\n',
         f"line 4: field larger than field limit ({limit})"),
    ]:
        path.write_bytes(text + b"c1,c,07-12-2011\n")
        with pytest.raises(LogFormatError) as caught:
            import_certain_csv(path, "case", "activity", "timestamp")
        assert str(caught.value) == message


def test_import_csv_missing_column(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity\nc1,a\n")
    with pytest.raises(LogFormatError, match="missing column 'timestamp'"):
        import_certain_csv(path, "case", "activity", "timestamp")


@pytest.mark.parametrize(
    "header, id_col, message",
    [
        ("case,activity,time,case", None, "line 1: column 'case' appears 2 times"),
        ("time,case,activity,time,time", None, "line 1: column 'time' appears 3 times"),
        ("case,id,activity,time,id", "id", "line 1: column 'id' appears 2 times"),
    ],
)
def test_import_csv_refuses_a_named_column_given_twice(tmp_path, header, id_col, message):
    # before, the last of the two columns was read and the first lost
    path = tmp_path / "events.csv"
    width = header.count(",") + 1
    path.write_text(f"{header}\n" + ",".join(["x"] * width) + "\n")
    with pytest.raises(LogFormatError) as caught:
        import_certain_csv(path, "case", "activity", "time", id_col=id_col)
    assert str(caught.value) == message


def test_import_csv_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes(b"case,activity,timestamp\nc1,a,05-12-2011\nc1,b\xff,06-12-2011\n")
    with pytest.raises(LogFormatError) as caught:
        import_certain_csv(path, "case", "activity", "timestamp")
    assert str(caught.value) == "line 3: not UTF-8 text (byte 0xff)"


def test_import_csv_names_the_line_of_a_field_past_the_csv_limit(tmp_path):
    path = tmp_path / "events.csv"
    limit = csv.field_size_limit()
    path.write_text(
        f"case,activity,timestamp\nc1,a,05-12-2011\nc1,{'b' * (limit + 1)},06-12-2011\n"
    )
    with pytest.raises(LogFormatError) as caught:
        import_certain_csv(path, "case", "activity", "timestamp")
    assert str(caught.value) == f"line 3: field larger than field limit ({limit})"


_NODE = re.compile(r'^\s*"(?P<id>(?:[^"\\]|\\.)*)" \[label="(?:[^"\\]|\\.)*"(?P<dashed>, style=dashed)?\];$')
_EDGE = re.compile(r'^\s*"(?P<v>(?:[^"\\]|\\.)*)" -> "(?P<w>(?:[^"\\]|\\.)*)";$')


def _parse_dot(text: str):
    # minimal reader for the subset of DOT this package emits
    lines = text.splitlines()
    assert lines[0] == "digraph behavior_graph {"
    assert lines[-1] == "}"
    nodes, dashed, edges = set(), set(), set()
    for line in lines[1:-1]:
        node = _NODE.match(line)
        edge = _EDGE.match(line)
        assert node or edge, f"unparseable DOT line: {line!r}"
        if node:
            nodes.add(node.group("id"))
            if node.group("dashed"):
                dashed.add(node.group("id"))
        else:
            edges.add((edge.group("v"), edge.group("w")))
    return nodes, dashed, edges


def test_export_dot_five_event(tmp_path, five_event_trace):
    graph = build_sweep(five_event_trace)
    path = tmp_path / "graph.dot"
    size = export_dot(graph, path)
    assert size == path.stat().st_size
    text = path.read_text()
    nodes, dashed, edges = _parse_dot(text)
    assert nodes == graph.vertices
    assert dashed == {"e5"}
    assert edges == set(graph.edges)
    assert 'label="b, c"' in text


def test_export_dot_six_event_no_dash(tmp_path, six_event_trace):
    graph = build_sweep(six_event_trace)
    path = tmp_path / "graph.dot"
    export_dot(graph, path)
    nodes, dashed, edges = _parse_dot(path.read_text())
    assert len(nodes) == 6 and len(edges) == 7 and not dashed


def test_export_dot_single_vertex(tmp_path):
    trace = UncertainTrace("c", (UncertainEvent("only", frozenset({"a"}), 0, 0),))
    path = tmp_path / "one.dot"
    export_dot(build_sweep(trace), path)
    nodes, dashed, edges = _parse_dot(path.read_text())
    assert nodes == {"only"} and not edges


def test_export_dot_deterministic(tmp_path, five_event_trace):
    graph = build_sweep(five_event_trace)
    a, b = tmp_path / "a.dot", tmp_path / "b.dot"
    export_dot(graph, a)
    export_dot(graph, b)
    assert a.read_bytes() == b.read_bytes()


def test_export_dot_escapes_quotes(tmp_path):
    trace = UncertainTrace("c", (UncertainEvent('say "hi"', frozenset({"a"}), 0, 0),))
    path = tmp_path / "esc.dot"
    export_dot(build_sweep(trace), path)
    nodes, _, _ = _parse_dot(path.read_text())
    assert nodes == {'say \\"hi\\"'}


def _reference_dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def reference_export_dot(graph, destination) -> int:
    """Definitional DOT writer: sorts the vertex ids and the id pairs as strings.

    Each vertex's label and flag are looked up by its id.  ``export_dot``
    must write the same bytes for every graph.
    """
    trace = graph.trace
    payload = dict(zip(trace.event_ids, zip(trace.activities, trace.determinate)))
    lines = ["digraph behavior_graph {"]
    for vertex in sorted(graph.vertices):
        activities, determinate = payload[vertex]
        label = _reference_dot_quote(", ".join(sorted(activities)))
        style = "" if determinate else ", style=dashed"
        lines.append(f"  {_reference_dot_quote(vertex)} [label={label}{style}];")
    for v, w in sorted(graph.edges):
        lines.append(f"  {_reference_dot_quote(v)} -> {_reference_dot_quote(w)};")
    lines.append("}")
    data = ("\n".join(lines) + "\n").encode("utf-8")
    Path(destination).write_bytes(data)
    return len(data)


# ids whose string order differs from the trace's canonical order (e10 < e2),
# and ids and labels that DOT quoting must escape
_DOT_IDS = st.one_of(
    st.sampled_from(["e1", "e2", "e10", "e9", "E2", 'a"b', "a\\b", "\\", '"', "é", "e 1"]),
    st.text(alphabet='e0129"\\ ,', min_size=1, max_size=4),
)
_DOT_LABELS = st.sampled_from(["a", "b", "x,y", "x, y", 'say "hi"', "back\\slash", "é"])


@st.composite
def _dot_traces(draw):
    """Tie-heavy traces (instants 0-6, widths 0-3) with awkward ids and labels."""
    ids = draw(st.lists(_DOT_IDS, max_size=9, unique=True))
    t_min = [draw(st.integers(0, 6)) for _ in ids]
    return UncertainTrace.from_columns(
        draw(st.sampled_from(["c", 'q"1'])),
        ids,
        [draw(st.frozensets(_DOT_LABELS, min_size=1, max_size=3)) for _ in ids],
        t_min,
        [low + draw(st.integers(0, 3)) for low in t_min],
        [draw(st.booleans()) for _ in ids],
    )


@settings(max_examples=300, deadline=None)
@given(trace=_dot_traces())
def test_export_dot_matches_reference_writer(tmp_path_factory, trace):
    folder = tmp_path_factory.mktemp("dot")
    for build in (build_sweep, build_baseline):
        graph = build(trace)
        size = export_dot(graph, folder / "graph.dot")
        expected_size = reference_export_dot(graph, folder / "reference.dot")
        assert (folder / "graph.dot").read_bytes() == (folder / "reference.dot").read_bytes()
        assert size == expected_size


@settings(max_examples=150, deadline=None)
@given(trace=_dot_traces())
def test_export_dot_with_a_small_label_cache_matches_reference_writer(tmp_path_factory, trace):
    folder = tmp_path_factory.mktemp("dot")
    graph = build_sweep(trace)
    # the table is made at import, so its own bound is patched; two stale
    # sets fill it, so the trace's first set clears it
    texts, stale = logio._DOT_LABEL_TEXTS, [frozenset({"\x00stale"}), frozenset({"\x01stale"})]
    with patch.object(texts, "kept", 2):
        texts.clear()
        texts.update(dict.fromkeys(stale, ""))
        size = export_dot(graph, folder / "graph.dot")
        assert len(texts) <= 2
        if len(trace):
            assert not set(stale) & set(texts)
    assert size == reference_export_dot(graph, folder / "reference.dot")
    assert (folder / "graph.dot").read_bytes() == (folder / "reference.dot").read_bytes()


def test_export_dot_escapes_ids_when_one_needs_it(tmp_path):
    # one id holds a quote and another a backslash; 'a"' comes before 'a#'
    # as written, but after it once escaped, so the order is the ids'
    ids = ['a"', "a#", "b\\c", "plain"]
    trace = UncertainTrace.from_columns(
        "c", ids, [{"x"}, {'y"'}, {"x"}, {"z\\"}], [0, 1, 2, 3], [0, 1, 2, 3], [True, False, True, True]
    )
    graph = build_sweep(trace)
    size = export_dot(graph, tmp_path / "graph.dot")
    assert size == reference_export_dot(graph, tmp_path / "reference.dot")
    text = (tmp_path / "graph.dot").read_text()
    assert text == (tmp_path / "reference.dot").read_text()
    assert text.index('"a\\""') < text.index('"a#"')
    assert '  "b\\\\c" [label="x"];' in text


def test_timestamp_range_ends_round_trip(tmp_path):
    # years below 1000 are written with four digits, so they read back
    assert format_timestamp(MIN_TIMESTAMP_MS) == "0001-01-01T00:00:00.000Z"
    assert format_timestamp(MAX_TIMESTAMP_MS) == "9999-12-31T23:59:59.999Z"
    assert format_timestamp(-60_000_000_000_000) == "0068-09-03T13:20:00.000Z"
    trace = UncertainTrace(
        "c",
        (
            UncertainEvent("e1", frozenset("a"), MIN_TIMESTAMP_MS, MIN_TIMESTAMP_MS),
            UncertainEvent("e2", frozenset("b"), -60_000_000_000_000, MAX_TIMESTAMP_MS),
        ),
    )
    path = tmp_path / "log.jsonl"
    write_log(UncertainLog((trace,)), path)
    assert read_log(path) == UncertainLog((trace,))


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_read_names_the_first_line_that_is_not_utf8(tmp_path, ending):
    # far enough in that the decoder meets the byte in a later chunk; the
    # line count follows the reader's line ends
    path = tmp_path / "bad.jsonl"
    write_log(_random_log(1), path)
    lines = path.read_bytes().splitlines() * 300
    lines[2999] = lines[2999].replace(b'"', b'"\xc3', 1)
    lines[3999] = lines[3999].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(line + ending.encode() for line in lines))
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == "line 3000: not UTF-8 text (byte 0xc3)"


@pytest.mark.parametrize("between", [1, 200])
@pytest.mark.parametrize(
    "first, second, message",
    [
        (b"not json", b'{"case": "c\xff"}', "line 1: not valid JSON (Expecting value)"),
        (b'{"case": "c\xff"}', b"not json", "line 1: not UTF-8 text (byte 0xff)"),
    ],
    ids=["json-first", "byte-first"],
)
def test_read_names_the_first_bad_line_in_file_order(tmp_path, between, first, second, message):
    # a byte that is not UTF-8 once took precedence over any earlier bad
    # line that shared its decoder chunk
    path = tmp_path / "bad.jsonl"
    write_log(_random_log(1), path)
    valid = (path.read_bytes().splitlines() * between)[:between]
    path.write_bytes(b"\n".join([first, *valid, second]) + b"\n")
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == message


def test_read_skips_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "log.jsonl"
    log = _random_log(2)
    write_log(log, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_log(path) == log


def test_read_refuses_instants_outside_the_writer_range(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": ["a"],
        "t_min": "0001-01-01T00:30:00+01:00",
        "t_max": "2011-12-05T00:00:00Z",
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == "invalid trace 'c': event 'e1' has timestamps outside years 1 to 9999"


def test_bad_timestamp_quotes_the_text_in_the_file(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": ["a"],
        "t_min": "2011-12-05T00:00:00.000Z",
        "t_max": "10000-01-01T00:00:00.000Z",
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == (
        "line 1: bad timestamp (Invalid isoformat string: '10000-01-01T00:00:00.000Z')"
    )


@pytest.mark.parametrize("key", ["t_min", "t_max"])
@pytest.mark.parametrize("value", [20111205, 0, 1.5e12, True, None, ["2011-12-05"], {"t": "2011"}])
def test_read_refuses_timestamps_that_are_not_json_strings(tmp_path, key, value):
    # a JSON number such as 20111205 once read as the date 2011-12-05
    path = tmp_path / "log.jsonl"
    record = {
        "case": "c",
        "event": "e1",
        "activities": ["a"],
        "t_min": "2011-12-05T00:00:00.000Z",
        "t_max": "2011-12-06T00:00:00.000Z",
    }
    path.write_text(json.dumps(record) + "\n" + json.dumps({**record, "event": "e2", key: value}))
    with pytest.raises(LogFormatError) as caught:
        read_log(path)
    assert str(caught.value) == f"line 2: bad timestamp ({key} is not a string)"


_TIMESTAMP_TEXT = st.one_of(
    st.sampled_from(
        [
            "2011-12-05T00:00:00.000Z", "2011-12-05T00:00:00.0005Z", "2011-12-05T00:00:00.0015Z",
            "2011-12-05T01:00:00+01:00", "2011-12-05T00:00:00", "2011-12-05", "05-12-2011",
            "31-02-2011", "2011-12-05Z", "9999-12-31T23:59:59.9995Z", "0001-01-01T00:30:00+01:00",
            " 05-12-2011 ", "not a date", "", "9999-12-31T23:59:58.000501Z",
            "9000-06-01T12:00:00.002501Z", "0001-01-01T00:00:00.000501Z",
        ]
    ),
    st.text(alphabet="0123456789-:TZ+. ", max_size=26),
)


@settings(max_examples=500, deadline=None)
@given(_TIMESTAMP_TEXT)
def test_parse_timestamp_matches_reference(text):
    try:
        expected = ("ok", reference_parse_timestamp(text))
    except ValueError as err:
        expected = ("error", str(err))
    try:
        found = ("ok", parse_timestamp(text))
    except ValueError as err:
        found = ("error", str(err))
    assert found == expected


_KEYS = ["case", "event", "activities", "t_min", "t_max", "determinate"]
_ODD_TIMESTAMPS = [
    "2011-12-05T01:00:00+01:00", "2011-12-05T00:00:00", "05-12-2011", "2011-12-05",
    "not a date", "31-02-2011", "", 5, None, "9999-12-31T23:59:59.9999Z",
    "0001-01-01T00:30:00+01:00", "1970-01-01T00:00:01.000Z",
]
# in write_log's form, but no instant
_NO_INSTANTS = [
    "2011-02-30T00:00:00.000Z", "2011-13-05T00:00:00.000Z", "2011-12-05T24:00:00.000Z",
    "0000-12-05T00:00:00.000Z", "٢٠١١-12-05T00:00:00.000Z", "2011-12-05T00:00:00.00٠Z",
]
_MUTATIONS = [
    "delete_key", "bad_timestamp", "non_string_label", "empty_activities", "backwards",
    "duplicate_within", "duplicate_across", "blank", "not_json", "odd_value", "no_instant",
    "escaped", "reshaped",
]
# lines json.loads refuses with an error other than JSONDecodeError
_UNDECODABLE = ["[" * 200_000, '{"case": ' + "1" * 5001 + "}"]


@st.composite
def _jsonl_logs(draw):
    """JSONL lines of a tie-heavy log, then up to three mutations, maybe shuffled."""
    records = []
    for case in range(draw(st.integers(1, 4))):
        case_id = draw(st.sampled_from(["c", "d", "a b", 'q"'])) + str(case)
        for k in range(draw(st.integers(1, 5))):
            start = 1_322_006_400_000 + 1000 * draw(st.integers(0, 5))
            record = {
                "case": case_id,
                "event": f"{case_id}#{k}",
                "activities": draw(
                    st.lists(st.sampled_from(["a", "b", "x,y", 'say "hi"']), min_size=1, max_size=3)
                ),
                "t_min": format_timestamp(start),
                "t_max": format_timestamp(start + 1000 * draw(st.integers(0, 3))),
            }
            if draw(st.booleans()):
                record["determinate"] = draw(st.booleans())
            records.append(record)
    lines = [json.dumps(record) for record in records]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(_MUTATIONS))
        index = draw(st.integers(0, len(records) - 1))
        record = dict(records[index])
        if kind == "delete_key":
            record.pop(draw(st.sampled_from(_KEYS)), None)
        elif kind == "bad_timestamp":
            record[draw(st.sampled_from(["t_min", "t_max"]))] = draw(st.sampled_from(_ODD_TIMESTAMPS))
        elif kind == "non_string_label":
            record["activities"] = ["a", draw(st.sampled_from([3, None, ["b"], True]))]
        elif kind == "empty_activities":
            record["activities"] = []
        elif kind == "backwards":
            record["t_min"], record["t_max"] = record["t_max"], "2011-11-22T00:00:00.000Z"
        elif kind == "duplicate_within":
            lines.append(json.dumps({**record, "t_min": "2011-11-23T00:00:00.000Z"}))
        elif kind == "duplicate_across":
            lines.append(json.dumps({**record, "case": "other"}))
        elif kind == "blank":
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
        elif kind == "not_json":
            lines[index] = draw(
                st.sampled_from(["{broken", "[1, 2]", '"text"', "{}", "{} {}", *_UNDECODABLE])
            )
        elif kind == "no_instant":
            # in write_log's form, so that the line reaches the canonical path
            record.setdefault("determinate", True)
            keys = draw(st.sampled_from([("t_min",), ("t_max",), ("t_min", "t_max")]))
            record.update(dict.fromkeys(keys, draw(st.sampled_from(_NO_INSTANTS))))
            lines[index] = json.dumps(record, ensure_ascii=False)
        elif kind == "escaped":
            # JSON escapes, or a raw non-ASCII character, in an id or a label
            record.setdefault("determinate", True)
            char = draw(st.sampled_from(['"', "\\", "é", "\ud800"]))
            key = draw(st.sampled_from(["case", "event", "activities"]))
            if key == "activities":
                record[key] = [*record[key], "x" + char]
            else:
                record[key] += char
            # a lone surrogate cannot be written raw to a UTF-8 file
            ascii_only = char == "\ud800" or draw(st.booleans())
            lines[index] = json.dumps(record, ensure_ascii=ascii_only)
        elif kind == "reshaped":
            # write_log's line, but not in its exact form
            record.setdefault("determinate", True)
            text = json.dumps(record)
            form = draw(st.sampled_from(["duplicate_key", "swapped_keys", "extra_key", "spaces"]))
            if form == "duplicate_key":
                text = text[:-1] + ', "case": "dup"}'
            elif form == "swapped_keys":
                items = list(record.items())
                items[3], items[4] = items[4], items[3]
                text = json.dumps(dict(items))
            elif form == "extra_key":
                text = json.dumps({**record, "extra": 1})
            else:
                lead, trail = draw(st.sampled_from([(" ", ""), ("", " "), ("  ", "\t")]))
                text = lead + text + trail
            lines[index] = text
        else:
            key = draw(st.sampled_from(["case", "event", "determinate", "activities"]))
            record[key] = draw(st.sampled_from([7, None, "yes", "", ["a"], 1]))
        if kind in ("delete_key", "bad_timestamp", "non_string_label", "empty_activities",
                    "backwards", "odd_value"):
            lines[index] = json.dumps(record)
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "".join(line + "\n" for line in lines)


def _outcome(reader, path):
    try:
        return ("log", reader(path))
    except LogFormatError as err:
        return ("error", str(err))


@settings(max_examples=400, deadline=None)
@given(text=_jsonl_logs())
def test_read_log_matches_reference_reader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("jsonl") / "log.jsonl"
    path.write_text(text, encoding="utf-8")
    assert _outcome(read_log, path) == _outcome(reference_read_log, path)


@pytest.mark.parametrize("instant", _NO_INSTANTS)
@pytest.mark.parametrize("keys", [("t_min",), ("t_max",), ("t_min", "t_max")])
def test_canonical_line_without_an_instant_reads_as_the_reference(tmp_path, instant, keys):
    record = {
        "case": "c",
        "event": "e",
        "activities": ["a"],
        "t_min": "2011-11-23T00:00:00.000Z",
        "t_max": "2011-11-23T00:00:01.000Z",
        "determinate": True,
    }
    record.update(dict.fromkeys(keys, instant))
    path = tmp_path / "log.jsonl"
    path.write_text(json.dumps(record, ensure_ascii=False) + "\n", encoding="utf-8")
    assert _outcome(read_log, path) == _outcome(reference_read_log, path)


def test_canonical_lines_skip_the_json_decoder(tmp_path, monkeypatch):
    log = inject_activity_uncertainty(_random_log(11), 0.4, 11)
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    lines = path.read_text().splitlines()
    compact = tmp_path / "compact.jsonl"
    compact.write_text(
        "".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines)
    )
    calls = []
    decode = logio._row_from_line

    def counting_row_from_line(line, number, label_sets):
        calls.append(number)
        return decode(line, number, label_sets)

    monkeypatch.setattr(logio, "_row_from_line", counting_row_from_line)
    assert read_log(path) == log
    assert calls == []
    assert read_log(compact) == log
    assert calls == list(range(1, len(lines) + 1))


def test_read_log_forgets_instants_past_its_cache(tmp_path, monkeypatch):
    log = _random_log(12)
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    tables = []

    class Recorded(_Memo):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(logio, "_Memo", Recorded)
    monkeypatch.setattr(logio, "_MEMO_KEPT", 1)
    assert read_log(path) == log
    # the one capped table is the instants'; it read many and holds one
    (instants,) = [table for table in tables if table.kept is not None]
    assert len({t for trace in log.traces for t in trace.t_min.tolist()}) > 1
    assert len(instants) == 1


def _label_list_log(distinct: int, length: int = 40) -> UncertainLog:
    """Events cycling through ``distinct`` two-label sets, twice over, in traces of ``length``."""
    count = 2 * distinct
    traces = []
    for start in range(0, count, length):
        rows = range(start, min(start + length, count))
        traces.append(
            UncertainTrace.from_columns(
                f"c{start}",
                [f"e{k}" for k in rows],
                [{f"a{k % distinct}", f"b{k % distinct}"} for k in rows],
                [1000 * k for k in rows],
                [1000 * k for k in rows],
                [True] * len(rows),
            )
        )
    return UncertainLog(tuple(traces))


def test_read_log_shares_one_label_set_per_list_past_the_memo_bound(tmp_path):
    # more distinct label lists than a capped table keeps, cycled across
    # traces: a table cleared at the bound would make a list's set again
    distinct = _MEMO_KEPT + _MEMO_KEPT // 4
    log = _label_list_log(distinct)
    canonical, compact = tmp_path / "log.jsonl", tmp_path / "compact.jsonl"
    write_log(log, canonical)
    with open(canonical) as lines:
        compact.write_text(
            "".join(json.dumps(json.loads(line), separators=(",", ":")) + "\n" for line in lines)
        )
    for path in (canonical, compact):
        read = read_log(path)
        assert read == log
        shared = {}
        for trace in read.traces:
            for labels in trace.activities:
                assert shared.setdefault(labels, labels) is labels
        assert len(shared) == distinct


def test_graph_path_makes_no_event_objects(tmp_path, monkeypatch):
    log = inject_activity_uncertainty(_random_log(7), 0.3, 7)
    path = tmp_path / "log.jsonl"
    write_log(log, path)
    made = []
    original_init = UncertainEvent.__init__

    def counting_init(self, *args, **kwargs):
        made.append(args[0] if args else kwargs["event_id"])
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(UncertainEvent, "__init__", counting_init)
    read = read_log(path)
    for trace in read.traces:
        export_dot(build_sweep(trace), tmp_path / f"{trace.case_id}.dot")
        # the oracle reads the same columns
        udfg_bounds_trace(trace)
        covering_relation(trace)
        linear_extensions(trace)
        enumerate_realizations(trace)
    assert made == []
    # built on demand afterwards, one object per event, they are the
    # events the reference reader makes
    events = [t.events for t in read.traces]
    assert len(made) == sum(len(trace) for trace in read.traces)
    assert events == [t.events for t in reference_read_log(path).traces]


# characters that JSON must escape or that ensure_ascii writes as \\u escapes
_AWKWARD_CHARACTERS = st.one_of(
    st.sampled_from(['"', "\\", ",", " ", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "名", "\U0001f600"]),
    st.characters(codec="utf-8"),
)
_AWKWARD_TEXT = st.text(_AWKWARD_CHARACTERS, max_size=6)
_INSTANTS = st.one_of(
    st.sampled_from([MIN_TIMESTAMP_MS, MAX_TIMESTAMP_MS, -1, 0, 1, -60_000_000_000_000]),
    st.integers(MIN_TIMESTAMP_MS, MAX_TIMESTAMP_MS),
    # tie-heavy: a handful of instants a second apart, before and after the epoch
    st.integers(-3, 3).map(lambda k: 1000 * k),
)


@st.composite
def _valid_logs(draw):
    """Valid logs: unique case ids, event ids unique across the log, awkward text."""
    case_ids = draw(st.lists(_AWKWARD_TEXT, max_size=4, unique=True))
    event_ids = iter(
        draw(st.lists(st.text(_AWKWARD_CHARACTERS, min_size=1, max_size=6), min_size=12, max_size=12, unique=True))
    )
    traces = []
    for case_id in case_ids:
        size = draw(st.integers(0, 3))
        t_min, t_max = [], []
        for _ in range(size):
            low = draw(_INSTANTS)
            high = draw(
                st.one_of(
                    st.just(low),
                    _INSTANTS.map(lambda v, low=low: max(v, low)),
                    st.integers(0, 2000).map(lambda w, low=low: min(low + w, MAX_TIMESTAMP_MS)),
                )
            )
            t_min.append(low)
            t_max.append(high)
        traces.append(
            UncertainTrace.from_columns(
                case_id,
                [next(event_ids) for _ in range(size)],
                [draw(st.frozensets(_AWKWARD_TEXT, min_size=1, max_size=3)) for _ in range(size)],
                t_min,
                t_max,
                [draw(st.booleans()) for _ in range(size)],
            )
        )
    return UncertainLog(traces=tuple(traces))


@settings(max_examples=250, deadline=None)
@given(log=_valid_logs())
def test_write_log_matches_reference_writer(tmp_path_factory, log):
    folder = tmp_path_factory.mktemp("written")
    size = write_log(log, folder / "log.jsonl")
    expected_size = reference_write_log(log, folder / "reference.jsonl")
    assert (folder / "log.jsonl").read_bytes() == (folder / "reference.jsonl").read_bytes()
    assert size == expected_size
    assert read_log(folder / "log.jsonl") == UncertainLog(tuple(t for t in log.traces if len(t)))


@settings(max_examples=150, deadline=None)
@given(log=_valid_logs(), order=st.sampled_from(["grouped", "reversed", "round_robin", "split"]))
def test_read_log_reads_reordered_cases_back(tmp_path_factory, log, order):
    folder = tmp_path_factory.mktemp("reordered")
    write_log(log, folder / "log.jsonl")
    blocks = _case_blocks(folder / "log.jsonl")
    (folder / "reordered.jsonl").write_bytes(b"".join(_reordered(blocks, order)) if blocks else b"")
    expected = UncertainLog(tuple(t for t in log.traces if len(t)))
    assert read_log(folder / "reordered.jsonl") == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(_INSTANTS, _INSTANTS), max_size=25), max_size=6), st.integers(0, 60))
def test_column_timestamps_match_format_timestamp(traces, kept):
    # one writer's cache over several traces, kept small enough to be
    # cleared, so that texts are both looked up and made
    texts, largest = _InstantTexts(), 0
    with patch.object(logio, "_MEMO_KEPT", kept):
        for pairs in traces:
            low, high = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
            made = texts.of(np.array(low, dtype=np.int64), np.array(high, dtype=np.int64))
            assert [text + "Z" for text in made] == list(map(format_timestamp, low + high))
            largest = max(largest, len(made))
            assert len(texts) <= kept + largest


def test_instant_texts_stop_looking_up_only_when_no_trace_was_served():
    distinct, repeated = _InstantTexts(), _InstantTexts()
    with patch.object(logio, "_MEMO_KEPT", 10):
        for start in range(0, 400, 8):
            distinct.of(np.arange(start, start + 4), np.arange(start + 4, start + 8))
            repeated.of(np.arange(start % 16, start % 16 + 4), np.arange(4, 8))
    assert not distinct.looking_up and len(distinct) == 0
    assert repeated.looking_up


@settings(max_examples=150, deadline=None)
@given(log=_valid_logs(), kept=st.integers(0, 8))
def test_write_log_with_a_small_instant_cache_matches_reference_writer(
    tmp_path_factory, log, kept
):
    folder = tmp_path_factory.mktemp("written")
    tables = []

    class Recorded(_InstantTexts):
        def __init__(self):
            super().__init__()
            tables.append(self)

    with patch.object(logio, "_MEMO_KEPT", kept), patch.object(logio, "_InstantTexts", Recorded):
        write_log(log, folder / "log.jsonl")
    # the texts kept are cleared past the bound, bar one trace's
    (texts,) = tables
    assert len(texts) <= kept + 2 * max(map(len, log.traces), default=0)
    reference_write_log(log, folder / "reference.jsonl")
    assert (folder / "log.jsonl").read_bytes() == (folder / "reference.jsonl").read_bytes()


def test_write_refuses_duplicate_case_ids(tmp_path):
    log = UncertainLog(
        (
            UncertainTrace.from_columns("c", ["e1"], [{"a"}], [0], [0], [True]),
            UncertainTrace.from_columns("c", ["e2"], [{"b"}], [5], [5], [True]),
        )
    )
    path = tmp_path / "log.jsonl"
    path.write_text("untouched\n")
    with pytest.raises(ValueError) as caught:
        write_log(log, path)
    assert str(caught.value) == "cannot write the log: duplicate case id 'c'"
    assert path.read_text() == "untouched\n"


def test_write_refuses_an_event_id_in_two_traces(tmp_path):
    log = UncertainLog(
        (
            UncertainTrace.from_columns("c", ["e1", "e2"], [{"a"}, {"b"}], [0, 1], [0, 1], [True, True]),
            UncertainTrace.from_columns("d", ["e2", "e1"], [{"a"}, {"b"}], [0, 1], [0, 1], [True, True]),
        )
    )
    path = tmp_path / "log.jsonl"
    with pytest.raises(ValueError) as caught:
        write_log(log, path)
    assert str(caught.value) == (
        "cannot write the log: event id 'e2' appears in more than one trace: 'c' and 'd'; "
        "event id 'e1' appears in more than one trace: 'c' and 'd'"
    )
    assert not path.exists()
