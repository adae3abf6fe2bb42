from __future__ import annotations

import csv
import functools
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_acceptance import CRITERION_4, CRITERION_5, CRITERION_6

from ubgraph import (
    BehaviorGraph,
    UncertainEvent,
    UncertainLog,
    UncertainTrace,
    bench,
    build_sweep,
    cli,
    write_log,
)
from ubgraph.bench import BenchmarkResult
from ubgraph.cli import run


def _write(tmp_path, *traces):
    path = tmp_path / "log.jsonl"
    write_log(UncertainLog(traces), path)
    return path


def _trace(case_id, *labels):
    # one certain event per label set, 1 s apart
    return UncertainTrace(
        case_id,
        tuple(
            UncertainEvent(f"{case_id}/{k}", frozenset(names), k * 1000, k * 1000)
            for k, names in enumerate(labels)
        ),
    )


def _generate(tmp_path, **overrides):
    path = tmp_path / "log.jsonl"
    args = {
        "--traces": "10",
        "--length": "5",
        "--p-time": "0.4",
        "--seed": "1",
        "--out": str(path),
    }
    args.update(overrides)
    argv = ["generate"]
    for flag, value in args.items():
        argv.extend([flag, value])
    assert run(argv) == 0
    return path


def test_generate_then_graph_dot(tmp_path, capsys):
    log_path = _generate(tmp_path)
    out_dir = tmp_path / "out"
    assert run(["graph", "--in", str(log_path), "--algorithm", "sweep", "--dot", str(out_dir)]) == 0
    dot_files = sorted(out_dir.glob("*.dot"))
    assert len(dot_files) == 10
    assert dot_files[0].read_text().startswith("digraph behavior_graph {")


def test_graph_prints_summary_without_dot(tmp_path, capsys):
    log_path = _generate(tmp_path, **{"--traces": "2"})
    assert run(["graph", "--in", str(log_path), "--algorithm", "baseline"]) == 0
    out = capsys.readouterr().out
    assert "c0: 5 vertices" in out and "c1: 5 vertices" in out


def test_graph_dot_is_stable_across_runs(tmp_path):
    log_path = _generate(tmp_path, **{"--traces": "3"})
    first, second = tmp_path / "a", tmp_path / "b"
    run(["graph", "--in", str(log_path), "--algorithm", "sweep", "--dot", str(first)])
    run(["graph", "--in", str(log_path), "--algorithm", "sweep", "--dot", str(second)])
    for name in ("c0.dot", "c1.dot", "c2.dot"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_graph_dot_name_clash_exits_one_before_writing(tmp_path, capsys):
    log_path = _write(tmp_path, _trace("a b", {"x"}), _trace("a_b", {"x"}))
    out_dir = tmp_path / "out"
    assert run(["graph", "--in", str(log_path), "--algorithm", "sweep", "--dot", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "'a b'" in err and "'a_b'" in err and "a_b.dot" in err
    assert not out_dir.exists()


def test_generate_is_deterministic(tmp_path):
    a = _generate(tmp_path)
    data = a.read_bytes()
    b = _generate(tmp_path)
    assert b.read_bytes() == data


def test_check_reports_equivalence(tmp_path, capsys):
    log_path = _generate(tmp_path, **{"--p-indeterminate": "0.2", "--p-activity": "0.3"})
    assert run(["check", "--in", str(log_path), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "all 10 traces equivalent" in out
    assert "oracle checked 10 of 10 traces" in out


def test_check_oracle_respects_size_budget(tmp_path, capsys):
    log_path = _generate(tmp_path, **{"--length": "9", "--traces": "4"})
    assert run(["check", "--in", str(log_path), "--oracle"]) == 0
    assert "oracle checked 0 of 4 traces" in capsys.readouterr().out


def test_check_without_oracle_quiet(tmp_path, capsys):
    log_path = _generate(tmp_path)
    capsys.readouterr()
    assert run(["check", "--in", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "all 10 traces equivalent" in out
    assert "oracle checked" not in out


def test_check_disagreement_exits_two_naming_the_case(tmp_path, capsys, monkeypatch):
    log_path = _generate(tmp_path, **{"--traces": "2"})

    def drop_one_edge(trace):
        graph = build_sweep(trace)
        if trace.case_id != "c1":
            return graph
        return BehaviorGraph(trace, graph.src[1:], graph.dst[1:])

    monkeypatch.setattr(cli, "build_sweep", drop_one_edge)
    assert run(["check", "--in", str(log_path)]) == 2
    err = capsys.readouterr().err
    assert "constructions disagree on case 'c1'" in err
    assert "c0" not in err


def test_check_oracle_disagreement_exits_two_naming_the_case(tmp_path, capsys, monkeypatch):
    log_path = _generate(tmp_path, **{"--traces": "2"})
    monkeypatch.setattr(cli, "covering_relation", lambda trace: frozenset())
    assert run(["check", "--in", str(log_path), "--oracle"]) == 2
    err = capsys.readouterr().err
    assert err == "error: case 'c0': constructions disagree with covering_relation\n"


def test_missing_input_file_is_validation_error(tmp_path, capsys):
    code = run(["graph", "--in", str(tmp_path / "absent.jsonl"), "--algorithm", "sweep"])
    assert code == 1
    assert "absent.jsonl" in capsys.readouterr().err


def test_malformed_log_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope\n")
    assert run(["check", "--in", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_bad_flags_exit_one(capsys):
    assert run(["graph", "--algorithm", "sweep"]) == 1  # --in missing
    assert run(["generate", "--traces", "1"]) == 1
    assert run(["nonsense"]) == 1


def test_negative_generation_parameters_exit_one(tmp_path, capsys):
    code = run([
        "generate", "--traces", "0", "--length", "5",
        "--p-time", "0.4", "--seed", "1", "--out", str(tmp_path / "x.jsonl"),
    ])
    assert code == 1
    assert "n_traces" in capsys.readouterr().err


def test_udfg_csv(tmp_path, capsys):
    source = tmp_path / "events.csv"
    source.write_text(
        "case,activity,timestamp\n"
        "c1,a,05-12-2011\nc1,b,06-12-2011\n"
        "c2,a,05-12-2011\nc2,b,06-12-2011\n"
    )
    log_path = tmp_path / "log.jsonl"
    assert run(["import-csv", "--in", str(source), "--case-col", "case",
                "--activity-col", "activity", "--time-col", "timestamp",
                "--out", str(log_path)]) == 0
    out_csv = tmp_path / "udfg.csv"
    assert run(["udfg", "--in", str(log_path), "--out", str(out_csv)]) == 0
    assert out_csv.read_text().splitlines() == [
        "activity_a,activity_b,min,max",
        "a,b,2,2",
    ]


def test_udfg_csv_quotes_labels_with_commas(tmp_path, capsys):
    log_path = _write(tmp_path, _trace("c", {"y,z"}, {"q"}))
    out_csv = tmp_path / "udfg.csv"
    assert run(["udfg", "--in", str(log_path), "--out", str(out_csv)]) == 0
    assert out_csv.read_text() == 'activity_a,activity_b,min,max\n"y,z",q,1,1\n'
    with open(out_csv, newline="") as handle:
        assert list(csv.reader(handle))[1] == ["y,z", "q", "1", "1"]


def test_udfg_too_large_trace_exits_one(tmp_path, capsys):
    log_path = _generate(tmp_path, **{"--length": "9", "--traces": "1"})
    assert run(["udfg", "--in", str(log_path), "--out", str(tmp_path / "u.csv")]) == 1
    assert "limited to 8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["graph", "--algorithm", "baseline"], ["check"]], ids=["graph-baseline", "check"]
)
def test_baseline_over_its_event_limit_exits_one(tmp_path, capsys, argv):
    log_path = _generate(tmp_path, **{"--traces": "1", "--length": "4097"})
    capsys.readouterr()
    assert run([*argv, "--in", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: trace 'c0' has 4097 events; the baseline construction is limited to 4096\n"
    )
    assert run(["graph", "--in", str(log_path), "--algorithm", "sweep"]) == 0


def _drop_key(records):
    del records[0]["t_max"]


def _month_13(records):
    records[0]["t_min"] = records[0]["t_min"].replace("-01-", "-13-", 1)


def _id_in_two_cases(records):
    other = next(record for record in records if record["case"] != records[0]["case"])
    other["event"] = records[0]["event"]


def _comma_quote_label(records):
    records[0]["activities"] = ['x,"y']


def _colliding_case_names(records):
    names = {"c0": "a/b", "c1": "a:b"}
    for record in records:
        record["case"] = names.get(record["case"], record["case"])


def _year_10000(records):
    records[0]["t_max"] = "10000-01-01T00:00:00.000Z"


def _determinate_yes(records):
    records[0]["determinate"] = "yes"


def _id_repeated_in_case(records):
    other = next(record for record in records[1:] if record["case"] == records[0]["case"])
    other["event"] = records[0]["event"]


def _before_year_1(records):
    # the first half hour of year 1 in UTC+1 is still year 0 in UTC
    records[0]["t_min"] = "0001-01-01T00:30:00+01:00"


def _byte_0xff(records):
    # written with errors="surrogateescape", which turns \udcff into the byte 0xff
    records[0]["activities"] = ["\udcff"]


def _long_case_id(records):
    # its DOT file name is 304 characters long, past the 255 most file systems take
    for record in records:
        if record["case"] == "c2":
            record["case"] = "x" * 300


_LOG_MUTATIONS = {
    "generated": None,
    "missing-key": _drop_key,
    "month-13": _month_13,
    "id-in-two-cases": _id_in_two_cases,
    "comma-quote-label": _comma_quote_label,
    "colliding-case-names": _colliding_case_names,
    "year-10000": _year_10000,
    "determinate-yes": _determinate_yes,
    "id-repeated-in-case": _id_repeated_in_case,
    "before-year-1": _before_year_1,
    "byte-0xff": _byte_0xff,
    "long-case-id": _long_case_id,
}

_SUBCOMMANDS = {
    "graph-sweep-dot": ["graph", "--algorithm", "sweep", "--dot", "{tmp}/dot"],
    "graph-baseline": ["graph", "--algorithm", "baseline"],
    "check-oracle": ["check", "--oracle"],
    "udfg": ["udfg", "--out", "{tmp}/udfg.csv"],
}


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
@pytest.mark.parametrize("mutation", list(_LOG_MUTATIONS))
def test_exit_contract_on_generated_and_broken_logs(tmp_path, capsys, mutation, command):
    # every subcommand succeeds, or exits 1 with one "error: " line that
    # names a line of the log or quotes one of its case ids
    log_path = _generate(
        tmp_path, **{"--traces": "3", "--p-activity": "0.4", "--p-indeterminate": "0.2"}
    )
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    if _LOG_MUTATIONS[mutation]:
        _LOG_MUTATIONS[mutation](records)
        text = "".join(json.dumps(record, ensure_ascii=False) + "\n" for record in records)
        log_path.write_bytes(text.encode("utf-8", "surrogateescape"))
    capsys.readouterr()
    argv = [part.format(tmp=tmp_path) for part in _SUBCOMMANDS[command]]
    code = run([*argv, "--in", str(log_path)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != 0:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n")
        cases = {record["case"] for record in records}
        assert re.search(r"\bline [0-9]+: ", err) or any(f"'{case}'" in err for case in cases)


_KEYS = ["case", "event", "activities", "t_min", "t_max", "determinate"]
# stands in for a raw JSON token that json.dumps cannot write
_RAW = "\x00raw\x00"


@functools.cache
def _generated_lines(traces: int, length: int, seed: int) -> tuple[str, ...]:
    # a small log in write_log's exact form, with all three kinds of uncertainty
    with tempfile.TemporaryDirectory() as directory:
        path = _generate(Path(directory), **{
            "--traces": str(traces), "--length": str(length), "--seed": str(seed),
            "--p-activity": "0.4", "--p-indeterminate": "0.2",
        })
        return tuple(path.read_text().splitlines())


@st.composite
def _mutated_logs(draw):
    """The lines of a small generated log with one drawn mutation, and its case ids."""
    sizes = (st.integers(2, 4), st.integers(2, 5), st.integers(0, 3))
    lines = _generated_lines(*map(draw, sizes))
    records = [json.loads(line) for line in lines]
    cases = sorted({record["case"] for record in records})
    position = draw(st.integers(0, len(records) - 1))
    record = records[position]
    raw = ""
    kind = draw(st.sampled_from(
        ["deleted-key", "bad-timestamp", "non-string-timestamp", "repeated-id",
         "awkward-labels", "colliding-case-names", "deep-nesting", "long-integer"]
    ))
    refusal = None
    if kind == "deleted-key":
        del record[draw(st.sampled_from(_KEYS))]
    elif kind == "bad-timestamp":
        record[draw(st.sampled_from(["t_min", "t_max"]))] = draw(st.one_of(
            st.sampled_from([
                "", "not a date", "2011-13-05T00:00:00.000Z", "2011-02-30T00:00:00.000Z",
                "10000-01-01T00:00:00.000Z", "0001-01-01T00:30:00+01:00", "00-00-0000",
                "9999-12-31T23:59:59.999-01:00", "2011-12-05T00:00:00.000",
            ]),
            st.text(max_size=30),
        ))
    elif kind == "non-string-timestamp":
        # any JSON value but a string, which every subcommand refuses; the
        # dates in ISO basic form once read as those dates
        record[draw(st.sampled_from(["t_min", "t_max"]))] = draw(st.one_of(
            st.sampled_from([20111205, 19700101, 20000229, 99991231]),
            st.sampled_from([2011, 0, -1, 1.5e12, True, False, None, [], {}]),
            st.integers(-10**20, 10**20), st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.just("2011-12-05T00:00:00.000Z"), min_size=1, max_size=2),
        ))
        refusal = f"error: line {position + 1}: bad timestamp ("
    elif kind == "repeated-id":
        # one drawn id for two events, of the same case or of two cases
        other = records[(position + draw(st.integers(1, len(records) - 1))) % len(records)]
        ids = st.text("a\n\r\x85\u2028 '\"\\é", min_size=1, max_size=4)
        record["event"] = other["event"] = draw(ids)
    elif kind == "awkward-labels":
        label = st.lists(st.sampled_from([",", '"', "\ud800", "a", " ", "\\"]), max_size=4)
        record["activities"] = draw(st.lists(label.map("".join), min_size=1, max_size=3))
    elif kind == "colliding-case-names":
        # _safe_name turns each of these characters into "_"
        stem = draw(st.text("ab_.", max_size=3))
        unsafe = st.sampled_from(" :/@'\\\né")
        first, second = draw(st.lists(unsafe, min_size=2, max_size=2, unique=True))
        renamed = {cases[0]: stem + first, cases[1]: stem + second}
        for each in records:
            each["case"] = renamed.get(each["case"], each["case"])
        cases = sorted({each["case"] for each in records})
    else:
        key = draw(st.sampled_from(_KEYS))
        record[key] = _RAW
        if kind == "deep-nesting":
            depth = draw(st.one_of(st.integers(1, 3000), st.just(200_000)))
            raw = "[" * depth + ("]" * depth if draw(st.booleans()) else "")
        else:
            raw = draw(st.sampled_from(["", "-"])) + "1" * 5001
    text = "".join(
        json.dumps(each).replace(json.dumps(_RAW), raw) + "\n" for each in records
    )
    return text, cases, refusal


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_mutated_logs())
def test_exit_contract_on_drawn_mutations(tmp_path, capsys, drawn):
    # every subcommand succeeds, or exits 1 with one "error: " line that
    # names a line of the log or quotes one of its case ids; a mutation
    # that every reader must refuse gives the start of that line
    text, cases, refusal = drawn
    with tempfile.TemporaryDirectory(dir=tmp_path) as directory:
        log_path = Path(directory) / "log.jsonl"
        log_path.write_text(text, encoding="ascii")
        for command in sorted(_SUBCOMMANDS):
            capsys.readouterr()
            argv = [part.format(tmp=directory) for part in _SUBCOMMANDS[command]]
            code = run([*argv, "--in", str(log_path)])
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if refusal is not None:
                assert code == 1 and err.startswith(refusal)
            if code != 0:
                assert code == 1
                assert len(err.splitlines()) == 1
                assert err.startswith("error: ") and err.endswith("\n")
                assert re.search(r"\bline [0-9]+: ", err) or any(repr(case) in err for case in cases)


@pytest.mark.parametrize(
    "line",
    ["[" * 200_000, '{"case": ' + "1" * 5001 + "}"],
    ids=["nested-200000-deep", "integer-of-5001-digits"],
)
def test_undecodable_line_exits_one_naming_the_line(tmp_path, capsys, line):
    log_path = _generate(tmp_path, **{"--traces": "1", "--length": "2"})
    log_path.write_text(log_path.read_text() + line + "\n")
    capsys.readouterr()
    assert run(["graph", "--algorithm", "sweep", "--in", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: line 3: not valid JSON (") and err.endswith(")\n")


@pytest.mark.parametrize("command", ["graph-sweep-dot", "udfg", "check-oracle"])
def test_lone_surrogate_label_exits_one_naming_the_line(tmp_path, capsys, command):
    # a JSON escape spells the surrogate; no DOT, CSV or terminal output
    # could encode it, so the reader refuses it before anything is written
    log_path = _generate(tmp_path, **{"--traces": "3"})
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    number = next(k for k, record in enumerate(records, start=1) if record["case"] == "c2")
    records[number - 1]["activities"] = ["\ud800"]
    log_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    argv = [part.format(tmp=tmp_path) for part in _SUBCOMMANDS[command]]
    assert run([*argv, "--in", str(log_path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        f"error: line {number}: case, event and labels must be UTF-8 text "
        "(surrogates not allowed)\n"
    )
    assert not (tmp_path / "dot").exists()


def test_long_dot_file_name_exits_one_before_any_file_is_written(tmp_path, capsys):
    log_path = _generate(tmp_path, **{"--traces": "3"})
    records = [json.loads(line) for line in log_path.read_text().splitlines()]
    _long_case_id(records)
    log_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    dot = tmp_path / "dot"
    dot.mkdir()
    capsys.readouterr()
    assert run(["graph", "--algorithm", "sweep", "--dot", str(dot), "--in", str(log_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: case '{'x' * 300}' maps to a DOT file name of 304 characters, "
        "over the limit of 255\n"
    )
    assert list(dot.iterdir()) == []


def test_import_csv_round_trip(tmp_path, capsys):
    source = tmp_path / "events.csv"
    source.write_text("case,activity,timestamp\n945,a,05-12-2011\n945,b,07-12-2011\n")
    out = tmp_path / "imported.jsonl"
    assert run(["import-csv", "--in", str(source), "--case-col", "case",
                "--activity-col", "activity", "--time-col", "timestamp",
                "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert [line["event"] for line in lines] == ["945#1", "945#2"]
    assert "imported 2 events" in capsys.readouterr().out


def test_import_csv_bad_row_exits_one(tmp_path, capsys):
    source = tmp_path / "events.csv"
    source.write_text("case,activity,timestamp\nc1,a,tomorrow\n")
    assert run(["import-csv", "--in", str(source), "--case-col", "case",
                "--activity-col", "activity", "--time-col", "timestamp",
                "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "line 2: bad timestamp" in capsys.readouterr().err


_WRITERS = {
    # each command that writes one file, and the function that starts its work
    "generate": (["generate", "--traces", "2000", "--length", "50", "--p-time", "0.4",
                  "--seed", "1", "--out"], cli, "generate_log"),
    "bench": (["bench", "traces", "--points", "10,20,40", "--reps", "1", "--seed", "0",
               "--report"], bench, "run_experiment"),
    "udfg": (["udfg", "--in", "log.jsonl", "--out"], cli, "read_log"),
    "import-csv": (["import-csv", "--in", "events.csv", "--case-col", "case",
                    "--activity-col", "activity", "--time-col", "timestamp", "--out"],
                   cli, "import_certain_csv"),
}


@pytest.mark.parametrize("command", sorted(_WRITERS))
def test_missing_output_directory_exits_one_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    argv, module, name = _WRITERS[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(module, name, no_work)
    out = tmp_path / "nodir" / "out.csv"
    assert run([*argv, str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write {str(out)!r}: directory {str(out.parent)!r} does not exist\n"
    )
    assert run([*argv, str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {str(tmp_path)!r}: it is a directory\n"
    assert list(tmp_path.iterdir()) == []


def test_failed_write_leaves_no_new_file(tmp_path, capsys, monkeypatch):
    def write_then_fail(log, destination):
        Path(destination).write_text("partial")
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "write_log", write_then_fail)
    out = tmp_path / "log.jsonl"

    def generate(traces):
        return run(["generate", "--traces", traces, "--length", "3", "--p-time", "0.4",
                    "--seed", "1", "--out", str(out)])

    assert generate("2") == 1
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert list(tmp_path.iterdir()) == []
    # a file that was there before is not removed by a run that fails before writing
    out.write_text("kept")
    assert generate("0") == 1
    assert out.read_text() == "kept"


def test_bench_writes_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run(["bench", "length", "--points", "4,6,8", "--traces", "2",
                "--reps", "1", "--seed", "3", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "param,value,algorithm,seconds"
    assert len(lines) == 7  # 3 points x 2 algorithms
    out = capsys.readouterr().out
    assert "fitted exponent" in out


@pytest.mark.parametrize(
    "mode, criterion",
    [("length", CRITERION_4), ("traces", CRITERION_5), ("uncertainty", CRITERION_6)],
    ids=["length", "traces", "uncertainty"],
)
def test_bench_defaults_are_the_criteria_settings(tmp_path, monkeypatch, mode, criterion):
    calls = []

    def fake_experiment(parameter, values=None, **settings):
        calls.append((parameter, values, settings))
        values = tuple(float(v) for v in values)
        return BenchmarkResult(parameter, values, {"sweep": values}, 5, 0)

    monkeypatch.setattr(bench, "run_experiment", fake_experiment)
    assert run(["bench", mode, "--seed", "0", "--report", str(tmp_path / "r.csv")]) == 0
    [(parameter, values, settings)] = calls
    # the table's points, and no fixed setting of the CLI's own
    assert parameter == mode and list(values) == list(criterion["values"])
    assert settings == {"traces": None, "length": None, "p_time": None,
                        "repetitions": 5, "seed": 0}
    row = bench.EXPERIMENTS[mode]
    fixed = {name: value for name, value in criterion.items() if name != "values"}
    assert {name: row[name] for name in fixed} == fixed


def test_bench_uncertainty_mode(tmp_path, capsys):
    report = tmp_path / "report.csv"
    assert run(["bench", "uncertainty", "--points", "0,0.5", "--traces", "2",
                "--length", "6", "--reps", "1", "--seed", "3",
                "--report", str(report)]) == 0
    assert "uncertainty=0.5" in capsys.readouterr().out


def test_bench_bad_points_exit_one(tmp_path, capsys):
    assert run(["bench", "length", "--points", "a,b", "--seed", "1",
                "--report", str(tmp_path / "r.csv")]) == 1
    assert "--points" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, options, message",
    [
        ("traces", ["--points", "2,4,8", "--traces", "999"], "bench traces varies --traces"),
        ("length", ["--length", "77"], "bench length varies --length"),
        ("uncertainty", ["--p-time", "0.5"], "bench uncertainty varies --p-time"),
        ("length", ["--points", "4.7,6,8"], "bench length takes integers"),
        ("traces", ["--points", "2,4.5"], "bench traces takes integers"),
        # a fit would refuse these points, so the experiment must not run first
        ("length", ["--points", "8,4,16", "--traces", "2", "--reps", "1"],
         "exponent fit needs strictly increasing positive values"),
        ("traces", ["--points", "0,250,500"],
         "exponent fit needs strictly increasing positive values"),
    ],
)
def test_bench_refuses_options_it_would_ignore(tmp_path, capsys, monkeypatch, mode, options, message):
    def no_experiment(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(bench, "run_experiment", no_experiment)
    report = tmp_path / "r.csv"
    assert run(["bench", mode, *options, "--seed", "1", "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not report.exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert run(["generate", "--help"]) == 0
