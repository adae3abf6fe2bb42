"""Golden bytes: a small committed log and the DOT files it must give.

``tests/golden/log.jsonl`` is tie-heavy (equal instants, shared
endpoints, zero-width intervals, an instant before the epoch) and holds
multi-label and indeterminate events, a label with a quote, one with a
comma, one with ", " inside it, a non-ASCII label and an event id with a
quote.  Each ``<case>.dot`` beside it is the expected export of that
case's behavior graph.  Any change to parsing, construction or
rendering that moves a byte shows here.
"""

from __future__ import annotations

from pathlib import Path

from ubgraph import build_sweep, export_dot, read_log, write_log

GOLDEN = Path(__file__).parent / "golden"


def test_golden_log_gives_golden_dot_bytes(tmp_path):
    log = read_log(GOLDEN / "log.jsonl")
    assert [trace.case_id for trace in log.traces] == ["labels", "one", "ties"]
    for trace in log.traces:
        path = tmp_path / f"{trace.case_id}.dot"
        export_dot(build_sweep(trace), path)
        assert path.read_bytes() == (GOLDEN / f"{trace.case_id}.dot").read_bytes()


def test_golden_log_rewrites_to_the_same_bytes(tmp_path):
    path = tmp_path / "log.jsonl"
    write_log(read_log(GOLDEN / "log.jsonl"), path)
    assert path.read_bytes() == (GOLDEN / "log.jsonl").read_bytes()
