from __future__ import annotations

import json
import re

import pytest

from ubgraph import (
    GenerationSpec,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    build_sweep,
    export_dot,
    generate_certain_log,
    import_certain_csv,
    inject_indeterminacy,
    inject_time_uncertainty,
    read_log,
    write_log,
)
from ubgraph.logio import LogFormatError, format_timestamp, parse_timestamp


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
    with pytest.raises(LogFormatError, match="duplicate event id e1"):
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
        "duplicate event id x; duplicate event id y; "
        "event id z appears in more than one trace"
    )


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


def test_import_csv_with_id_column(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity,timestamp,id\nc1,a,05-12-2011,ev9\n")
    log = import_certain_csv(path, "case", "activity", "timestamp", id_col="id")
    assert log.traces[0].events[0].event_id == "ev9"


def test_import_csv_rejects_repeated_id_column_value(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity,timestamp,id\nc1,a,05-12-2011,ev9\nc1,b,06-12-2011,ev9\n")
    with pytest.raises(LogFormatError, match="duplicate event id ev9"):
        import_certain_csv(path, "case", "activity", "timestamp", id_col="id")


def test_import_csv_reports_row_numbers(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity,timestamp\nc1,a,05-12-2011\nc1,b,not-a-date\n")
    with pytest.raises(LogFormatError, match="row 2"):
        import_certain_csv(path, "case", "activity", "timestamp")


def test_import_csv_missing_column(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("case,activity\nc1,a\n")
    with pytest.raises(LogFormatError, match="missing column 'timestamp'"):
        import_certain_csv(path, "case", "activity", "timestamp")


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
