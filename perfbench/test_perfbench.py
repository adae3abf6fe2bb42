"""Tests of the benchmark's own failure counting and edge reference.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ubgraph  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_trace_over_udfg_limit_is_counted_and_run_exits_zero(monkeypatch, tmp_path, capsys):
    # one trace of 4 events and one of 9, which the enumeration refuses
    tiny = dict(workloads.WORKLOADS, **{"udfg-tiny": workloads.Spec("udfg", (4, 9), 1, 0.5, 0.3, 0.2)})
    monkeypatch.setattr(workloads, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0)
    args = ["--workload", "udfg-tiny", "--seed", "3", "--seconds", "0.1"]

    assert run.main(args + ["--trace", "0"]) == 0
    result = _result(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_share"]["value"] == 0.5

    assert run.main(args + ["--trace", "1"]) == 0
    metrics = _result(capsys)["metrics"]
    assert metrics["oracle.udfg_bounds_trace.attempted"]["value"] == 2
    assert metrics["oracle.udfg_bounds_trace.failed"]["value"] == 1
    assert (tmp_path / "spans-udfg-tiny-seed3.json").is_file()


def test_reference_edges_match_covering_relation_on_tie_heavy_traces():
    rng = random.Random(7)
    for case in range(400):
        events = []
        for k in range(rng.randint(0, 9)):
            start = rng.randint(0, 6)
            events.append(ubgraph.UncertainEvent(f"e{k}", {"a"}, start, start + rng.randint(0, 3)))
        trace = ubgraph.make_trace(f"c{case}", events)
        assert workloads.reference_edges(trace) == ubgraph.covering_relation(trace), case
