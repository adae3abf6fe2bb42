"""Acceptance gate: eight numbered criteria, one test and one verdict line each.

Criteria 1-3 and 7-8 are exact (golden edge sets, oracle equivalence,
serialization round trips).  Criteria 4-6 measure wall-clock scaling with
fixed seeds and assert bracket tolerances; they are sensitive to machine
load, so each prints its measured values alongside the verdict.  The
verdict lines are echoed after the run via the terminal summary hook in
conftest.py.

Criterion 4 checks the paper's scaling claims on trace lengths 512, 1024
and 2048.  The baseline's cubic term only carries its time from about 512
events up: below that, the per-iteration overhead of its interpreted
reduction loop dominates and a fit measures the interpreter, not the
algorithm.  The sweep is promised to be at most quadratic and near
linear when intervals overlap only locally, as they do in the generated
logs, so the criterion asks for no lower bound on its exponent; it asks
instead that the sweep grow at least one order below the baseline.  The
pass condition is a pure function of the measurements,
``length_scaling_verdict``, so the synthetic tests at the end of this
module can check it without timing anything.
"""

from __future__ import annotations

import time

import pytest
from conftest import FIVE_EVENT_EDGES, SIX_EVENT_EDGES
from ubgraph.bench import BenchmarkResult, fit_scaling_exponent, run_experiment
from ubgraph.graph import backend_name, build_baseline, build_sweep
from ubgraph.loggen import (
    GenerationSpec,
    generate_certain_log,
    inject_activity_uncertainty,
    inject_indeterminacy,
    inject_time_uncertainty,
)
from ubgraph.logio import export_dot, read_log, write_log
from ubgraph.oracle import covering_relation, possible_immediate_successor, udfg_bounds_trace

CRITERION_LINES: list[str] = []

# the settings of criteria 4-6: the points of the parameter each one
# varies, and the settings it holds fixed; `ubgraph bench length`,
# `bench traces` and `bench uncertainty` default to them
CRITERION_4 = {"values": (512, 1024, 2048), "traces": 2, "p_time": 0.4}
CRITERION_5 = {"values": (250, 500, 1000, 2000), "length": 50, "p_time": 0.4}
CRITERION_6 = {"values": (0.0, 0.4, 0.8), "traces": 100, "length": 100}


def _verdict(number: int, name: str, passed: bool, detail: str) -> str:
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {name} ({detail})"
    CRITERION_LINES.append(line)
    print(line)
    return line


def test_criterion_1_golden_graphs(five_event_trace, six_event_trace):
    start = time.perf_counter()
    matches = all(
        build(trace).edges == expected
        for build in (build_baseline, build_sweep)
        for trace, expected in (
            (five_event_trace, FIVE_EVENT_EDGES),
            (six_event_trace, SIX_EVENT_EDGES),
        )
    )
    elapsed = time.perf_counter() - start
    passed = matches and elapsed < 1.0
    line = _verdict(
        1,
        "golden edge sets",
        passed,
        f"both fixtures, both algorithms, {elapsed:.3f}s of 1s budget",
    )
    assert passed, line


def test_criterion_2_three_way_equivalence():
    start = time.perf_counter()
    checked = mismatched = 0
    for p in (0.0, 0.25, 0.5, 1.0):
        for length in range(1, 9):
            seed = 1000 * int(p * 100) + length
            spec = GenerationSpec(n_traces=32, trace_length=length, seed=seed)
            log = inject_time_uncertainty(generate_certain_log(spec), p, seed)
            for trace in log.traces:
                checked += 1
                oracle = covering_relation(trace)
                if not (build_baseline(trace).edges == build_sweep(trace).edges == oracle):
                    mismatched += 1
    elapsed = time.perf_counter() - start
    passed = checked >= 1000 and mismatched == 0 and elapsed < 30.0
    line = _verdict(
        2,
        "sweep = baseline = covering oracle",
        passed,
        f"{checked} traces, {mismatched} mismatches, {elapsed:.1f}s of 30s budget",
    )
    assert passed, line


def test_criterion_3_edge_soundness():
    start = time.perf_counter()
    traces = edges = unsound = 0
    for p in (0.5, 1.0):
        for length in (3, 4, 5, 6):
            seed = 100 * int(p * 10) + length
            spec = GenerationSpec(n_traces=30, trace_length=length, seed=seed)
            log = inject_time_uncertainty(generate_certain_log(spec), p, seed)
            for trace in log.traces:
                traces += 1
                for v, w in build_sweep(trace).edges:
                    edges += 1
                    if not possible_immediate_successor(trace, v, w):
                        unsound += 1
    elapsed = time.perf_counter() - start
    passed = traces >= 200 and unsound == 0 and elapsed < 30.0
    line = _verdict(
        3,
        "every edge admits an immediate succession",
        passed,
        f"{traces} traces, {edges} edges, {unsound} unsound, {elapsed:.1f}s of 30s budget",
    )
    assert passed, line


def length_scaling_verdict(result: BenchmarkResult) -> tuple[bool, str]:
    """Criterion 4's pass condition and its measured values, from a length experiment.

    The baseline's fitted exponent must lie in [2.4, 3.6], the sweep's must
    be at most 2.5 and at least 1.0 below the baseline's, and at the longest
    length the sweep must take at most 10% of the baseline's time.
    """
    baseline = fit_scaling_exponent(result, "baseline").exponent
    sweep = fit_scaling_exponent(result, "sweep").exponent
    gap = baseline - sweep
    ratio = result.times["sweep"][-1] / result.times["baseline"][-1]
    passed = 2.4 <= baseline <= 3.6 and sweep <= 2.5 and gap >= 1.0 and ratio <= 0.10
    detail = (
        f"baseline exponent {baseline:.2f} vs [2.4, 3.6], sweep exponent {sweep:.2f} "
        f"vs <=2.5, gap {gap:.2f} vs >=1.0, "
        f"sweep/baseline at l={result.values[-1]:g} {ratio:.1%} vs <=10%"
    )
    return passed, detail


def test_criterion_4_length_scaling():
    lengths, n_traces = CRITERION_4["values"], CRITERION_4["traces"]
    start = time.perf_counter()
    result = run_experiment("length", **CRITERION_4, repetitions=5, seed=0)
    scaling_ok, measured = length_scaling_verdict(result)
    elapsed = time.perf_counter() - start
    passed = scaling_ok and elapsed < 300.0
    line = _verdict(
        4,
        "length scaling exponents and crossover",
        passed,
        f"{backend_name()} backend, lengths {'/'.join(map(str, lengths))} x {n_traces} "
        f"traces: {measured}, {elapsed:.0f}s of 300s budget",
    )
    assert passed, line


def test_criterion_5_trace_count_linearity():
    # a median of 11 keeps one speed switch of a shared host's CPU from
    # moving the ratio; each sample repeats the whole-log build for at
    # least bench.MIN_SAMPLE_SECONDS
    repetitions = 11
    start = time.perf_counter()
    result = run_experiment("traces", **CRITERION_5, repetitions=repetitions, seed=0)
    at_500 = result.values.index(500.0)
    at_2000 = result.values.index(2000.0)
    ratios = {
        name: result.times[name][at_2000] / result.times[name][at_500]
        for name in sorted(result.times)
    }
    elapsed = time.perf_counter() - start
    passed = all(2.8 <= r <= 5.2 for r in ratios.values()) and elapsed < 300.0
    shown = ", ".join(f"{name} {r:.2f}" for name, r in ratios.items())
    line = _verdict(
        5,
        "time(n=2000)/time(n=500) in [2.8, 5.2]",
        passed,
        f"{backend_name()} backend, median of {repetitions}: {shown}, "
        f"{elapsed:.0f}s of 300s budget",
    )
    assert passed, line


def test_criterion_6_uncertainty_sensitivity():
    # a median of 15, as in criterion 5: at 7 the drift and spread clauses
    # each crossed their limits now and then on a shared host
    repetitions = 15
    start = time.perf_counter()
    result = run_experiment("uncertainty", **CRITERION_6, repetitions=repetitions, seed=0)
    sweep = result.times["sweep"]
    baseline = result.times["baseline"]
    spread = max(sweep) / min(sweep)
    faster_everywhere = all(s < b for s, b in zip(sweep, baseline))
    drift = max(baseline) / baseline[0]
    non_increasing = drift <= 1.10
    elapsed = time.perf_counter() - start
    passed = spread <= 2.0 and faster_everywhere and non_increasing and elapsed < 300.0
    line = _verdict(
        6,
        "uncertainty share sensitivity",
        passed,
        f"{backend_name()} backend, median of {repetitions}: "
        f"sweep max/min {spread:.2f} vs <=2, sweep faster at every p: {faster_everywhere}, "
        f"baseline worst/p=0 {drift:.2f} vs <=1.10, "
        f"{elapsed:.0f}s of 300s budget",
    )
    assert passed, line


def test_criterion_7_udfg_bounds_golden(five_event_trace):
    start = time.perf_counter()
    bounds = udfg_bounds_trace(five_event_trace)
    elapsed = time.perf_counter() - start
    passed = (
        len(bounds) == 15
        and all(value == (0, 1) for value in bounds.values())
        and elapsed < 5.0
    )
    line = _verdict(
        7,
        "five-event UDFG bounds all (0, 1)",
        passed,
        f"{len(bounds)} activity pairs, {elapsed:.3f}s of 5s budget",
    )
    assert passed, line


def test_criterion_8_round_trip_determinism(tmp_path, five_event_trace):
    start = time.perf_counter()
    combos = ((0.3, 0.0, 0.0), (0.7, 0.5, 0.0), (1.0, 0.0, 0.6), (0.5, 0.5, 0.5))

    def make_log(seed, p_time, p_activity, p_indeterminate):
        spec = GenerationSpec(n_traces=3, trace_length=(seed % 8) + 1, seed=seed)
        log = inject_time_uncertainty(generate_certain_log(spec), p_time, seed)
        if p_activity:
            log = inject_activity_uncertainty(log, p_activity, seed)
        if p_indeterminate:
            log = inject_indeterminacy(log, p_indeterminate, seed)
        return log

    round_trips = failures = 0
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    for seed in range(25):
        for combo in combos:
            round_trips += 1
            log = make_log(seed, *combo)
            write_log(log, first)
            recovered = read_log(first)
            write_log(recovered, second)
            if recovered != log or first.read_bytes() != second.read_bytes():
                failures += 1

    write_log(make_log(7, *combos[3]), first)
    write_log(make_log(7, *combos[3]), second)
    regenerated_identical = first.read_bytes() == second.read_bytes()

    graph = build_sweep(five_event_trace)
    dot_a, dot_b = tmp_path / "a.dot", tmp_path / "b.dot"
    export_dot(graph, dot_a)
    export_dot(graph, dot_b)
    dot_identical = dot_a.read_bytes() == dot_b.read_bytes()

    elapsed = time.perf_counter() - start
    passed = (
        round_trips >= 100
        and failures == 0
        and regenerated_identical
        and dot_identical
        and elapsed < 30.0
    )
    line = _verdict(
        8,
        "round trip and byte determinism",
        passed,
        f"{round_trips} round trips, {failures} failures, regeneration identical: "
        f"{regenerated_identical}, DOT identical: {dot_identical}, "
        f"{elapsed:.1f}s of 30s budget",
    )
    assert passed, line


def _length_result(baseline_exponent, sweep_exponent, ratio):
    """Synthetic length experiment: power laws whose ratio at 2048 is ``ratio``."""
    values = (512.0, 1024.0, 2048.0)
    return BenchmarkResult(
        parameter="length",
        values=values,
        times={
            "baseline": tuple(2.5 * (v / 2048) ** baseline_exponent for v in values),
            "sweep": tuple(2.5 * ratio * (v / 2048) ** sweep_exponent for v in values),
        },
        repetitions=1,
        seed=0,
    )


@pytest.mark.parametrize(
    ("baseline_exponent", "sweep_exponent", "ratio", "expected"),
    [
        pytest.param(3.0, 1.0, 0.01, True, id="cubic-baseline-linear-sweep"),
        pytest.param(3.0, 0.9, 0.01, True, id="no-floor-on-sweep"),
        pytest.param(2.0, 0.5, 0.01, False, id="quadratic-baseline"),
        pytest.param(3.0, 2.2, 0.01, False, id="sweep-within-gap"),
        pytest.param(3.0, 1.0, 0.20, False, id="ratio-over-limit"),
    ],
)
def test_length_scaling_verdict(baseline_exponent, sweep_exponent, ratio, expected):
    passed, detail = length_scaling_verdict(
        _length_result(baseline_exponent, sweep_exponent, ratio)
    )
    assert passed is expected, detail
    assert f"baseline exponent {baseline_exponent:.2f}" in detail
    assert f"sweep exponent {sweep_exponent:.2f}" in detail
    assert f"at l=2048 {ratio:.1%}" in detail
