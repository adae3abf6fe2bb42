"""The summary that tools/bench_pairs.py writes, on canned run.py output."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

DECLARED = [
    {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _stdout(events_per_s: float, setup_s: float, sha: str = "abc", passes: int = 7) -> str:
    run = {"run": {"workload": "w", "seed": 1, "output_sha256": sha, "backend": "numpy",
                   "python": "3.11.7", "numpy": "2.4.6", "cpu_count": 2, "timed_passes": passes}}
    metrics = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
        "events_per_s": {"value": events_per_s, "unit": "events/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }}
    return "\n".join([json.dumps(run), json.dumps(metrics)]) + "\n"


def _side(events_per_s, setup_s, sha="abc", passes=7):
    record, metrics = bench_pairs.parse_run(_stdout(events_per_s, setup_s, sha, passes))
    return {"record": record, "metrics": metrics}


def test_parse_run_reads_the_record_and_the_metric_values():
    record, metrics = bench_pairs.parse_run("noise\n" + _stdout(100.0, 2.5))
    assert record["output_sha256"] == "abc"
    assert metrics == {"events_per_s": 100.0, "setup_s": 2.5}
    with pytest.raises(ValueError):
        bench_pairs.parse_run("no json here\n")


def test_summarise_counts_wins_ties_and_spreads():
    pairs = [
        {"seed": 1, "parent": _side(100, 4.0), "change": _side(120, 2.0)},
        {"seed": 2, "parent": _side(110, 3.0), "change": _side(110, 3.5)},
        {"seed": 3, "parent": _side(90, 5.0), "change": _side(80, 1.0)},
        {"seed": 4, "parent": _side(130, 4.5), "change": _side(140, 2.5, passes=9)},
    ]
    entry = bench_pairs.summarise(pairs, DECLARED)
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["timed_passes"] == {"parent": [7, 7, 7, 7], "change": [7, 7, 7, 9]}
    assert entry["pairs"] == 4 and entry["failed_runs"] == 0
    assert entry["output_sha256_equal_per_seed"] is True
    rate = entry["metrics"]["events_per_s"]
    assert (rate["change_wins"], rate["ties"]) == (2, 1)
    # linear percentiles of [90, 100, 110, 130]: the same as numpy's default
    assert rate["parent"] == {"median": 105.0, "q1": 97.5, "q3": 115.0}
    assert rate["change"]["median"] == 115.0
    assert rate["change_over_parent"] == round(115 / 105, 4)
    assert rate["parent_runs"] == [100, 110, 90, 130]
    setup = entry["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["ties"]) == (3, 0)
    assert setup["better"] == "lower" and setup["bound"] == 0.25


def test_summarise_leaves_failed_runs_out_of_the_pairs():
    pairs = [
        {"seed": 1, "parent": _side(100, 4.0), "change": None},
        {"seed": 2, "parent": _side(100, 4.0), "change": _side(90, 3.0, "other")},
    ]
    entry = bench_pairs.summarise(pairs, DECLARED)
    assert entry["failed_runs"] == 1
    assert entry["timed_passes"] == {"parent": [7, 7], "change": [7]}
    assert entry["output_sha256_equal_per_seed"] is False
    rate = entry["metrics"]["events_per_s"]
    assert (rate["change_wins"], rate["ties"]) == (0, 0)
    assert rate["parent_runs"] == [100, 100] and rate["change_runs"] == [90]


def test_summarise_finds_no_equal_outputs_when_no_pair_completed():
    pairs = [
        {"seed": 1, "parent": None, "change": None},
        {"seed": 2, "parent": _side(100, 4.0), "change": None},
    ]
    entry = bench_pairs.summarise(pairs, DECLARED)
    assert entry["failed_runs"] == 3
    assert entry["output_sha256_equal_per_seed"] is False
    rate = entry["metrics"]["events_per_s"]
    assert (rate["change_wins"], rate["ties"]) == (0, 0)
    assert "change_over_parent" not in rate


def _pairs(parent_rates, change_rates):
    return [
        {"seed": seed, "parent": _side(before, 4.0), "change": _side(after, 4.0)}
        for seed, (before, after) in enumerate(zip(parent_rates, change_rates))
    ]


@pytest.mark.parametrize(
    "parent_rates, change_rates, expected",
    [
        # nine wins of ten, and medians 10 apart against a parent IQR of 4.5
        (range(100, 110), [*range(110, 119), 100], "gain"),
        # nine wins of ten, but the medians differ by less than the parent's IQR
        (range(100, 110), [*range(101, 110), 99], "within_bound"),
        # eight wins of ten, however far apart the medians
        (range(100, 110), [*range(200, 208), 100, 100], "within_bound"),
        # the change's median is 30% below the parent's
        ([100] * 10, [70] * 10, "worse"),
        # the parent's IQR is 50% of its median, wider than the 25% bound
        ([50, 50, 50, 100, 100, 100, 100, 150, 150, 150], [100] * 10, "unresolved"),
        # as wide, but every change run reads better than every parent run
        ([50, 50, 50, 100, 100, 100, 100, 150, 150, 150], [151] * 10, "within_bound"),
        # the same runs as the parent's
        ([100, 102, 98, 101, 99] * 2, [100, 102, 98, 101, 99] * 2, "within_bound"),
    ],
    ids=["gain", "wins-inside-iqr", "eight-wins", "worse", "unresolved", "all-better", "same"],
)
def test_summarise_gives_each_metric_a_verdict(parent_rates, change_rates, expected):
    entry = bench_pairs.summarise(_pairs(parent_rates, change_rates), DECLARED)
    assert entry["metrics"]["events_per_s"]["verdict"] == expected
    # equal setup times on every pair: no wins, no spread
    assert entry["metrics"]["setup_s"]["verdict"] == "within_bound"


def test_verdict_reads_a_lower_is_better_metric_the_other_way():
    parent = [4.0] * 10
    assert bench_pairs.verdict(False, 0.25, 10, 10, parent, [3.0] * 10) == "gain"
    assert bench_pairs.verdict(False, 0.25, 0, 10, parent, [5.5] * 10) == "worse"
    assert bench_pairs.verdict(False, 0.25, 0, 10, parent, [4.5] * 10) == "within_bound"


def test_a_metric_with_no_run_on_one_side_is_unresolved():
    pairs = [{"seed": 1, "parent": _side(100, 4.0), "change": None}]
    entry = bench_pairs.summarise(pairs, DECLARED)
    assert entry["metrics"]["events_per_s"]["verdict"] == "unresolved"
