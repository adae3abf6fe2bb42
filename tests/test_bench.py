from __future__ import annotations

import time

import pytest

from ubgraph import BenchmarkResult, UncertainTrace, bench, build_sweep, fit_scaling_exponent
from ubgraph.bench import (
    EquivalenceError,
    _check_equivalent,
    emit_report,
    format_summary,
    run_experiment,
)
from ubgraph.graph import BehaviorGraph


def _synthetic(parameter, values, law):
    return BenchmarkResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        times={"alg": tuple(law(v) for v in values)},
        repetitions=1,
        seed=0,
    )


def test_fit_recovers_cubic_exactly():
    result = _synthetic("length", [8, 16, 32, 64], lambda v: 2.5e-7 * v**3)
    fit = fit_scaling_exponent(result, "alg")
    assert abs(fit.exponent - 3.0) < 1e-9
    assert fit.residual < 1e-18


def test_fit_recovers_quadratic_exactly():
    result = _synthetic("length", [8, 16, 32], lambda v: 1e-6 * v**2)
    assert abs(fit_scaling_exponent(result, "alg").exponent - 2.0) < 1e-9


def test_fit_needs_three_points():
    result = _synthetic("length", [8, 16], lambda v: float(v))
    with pytest.raises(ValueError, match="at least 3"):
        fit_scaling_exponent(result, "alg")


def test_fit_needs_increasing_values():
    result = _synthetic("length", [8, 8, 16], lambda v: float(v))
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_scaling_exponent(result, "alg")


def test_fit_unknown_algorithm():
    result = _synthetic("length", [8, 16, 32], lambda v: float(v))
    with pytest.raises(ValueError, match="no measurements"):
        fit_scaling_exponent(result, "other")


def test_experiments_validate_parameters():
    with pytest.raises(ValueError, match="no traces values"):
        run_experiment("traces", [])
    with pytest.raises(ValueError, match="repetitions"):
        run_experiment("length", [4, 8], repetitions=0)
    with pytest.raises(ValueError, match="unknown experiment 'width'"):
        run_experiment("width", [4, 8])
    with pytest.raises(ValueError, match="the uncertainty experiment varies p_time"):
        run_experiment("uncertainty", [0.0, 0.5], p_time=0.5)


def test_length_experiment_smoke():
    result = run_experiment("length", [4, 6, 8], traces=2, repetitions=1, seed=5)
    assert result.parameter == "length"
    assert result.values == (4.0, 6.0, 8.0)
    assert set(result.times) == {"baseline", "sweep"}
    assert all(len(ts) == 3 for ts in result.times.values())
    assert all(t > 0 for ts in result.times.values() for t in ts)


def test_uncertainty_experiment_smoke():
    result = run_experiment("uncertainty", [0.0, 0.5], traces=2, length=5, repetitions=1, seed=5)
    assert result.values == (0.0, 0.5)


def test_experiments_take_unset_settings_from_the_table(monkeypatch):
    class Generated(Exception):
        pass

    def record(spec, p_time):
        raise Generated(spec.n_traces, spec.trace_length, p_time)

    monkeypatch.setattr(bench, "generate_log", record)
    first_logs = {
        "length": (2, 512, 0.4),
        "traces": (250, 50, 0.4),
        "uncertainty": (100, 100, 0.0),
    }
    for parameter, settings in first_logs.items():
        with pytest.raises(Generated) as generated:
            run_experiment(parameter)
        assert generated.value.args == settings
    with pytest.raises(Generated) as generated:
        run_experiment("traces", [7], length=9, p_time=0.5)
    assert generated.value.args == (7, 9, 0.5)


def test_samples_repeat_the_build_and_report_seconds_per_build(monkeypatch):
    builds = []

    def slow_sweep(trace):
        builds.append(trace.case_id)
        time.sleep(0.001)
        return build_sweep(trace)

    monkeypatch.setitem(bench.ALGORITHMS, "sweep", slow_sweep)
    monkeypatch.setattr(bench, "MIN_SAMPLE_SECONDS", 0.05)
    result = run_experiment("length", [4], traces=2, repetitions=3, seed=5)
    # one warm-up build of the two-trace log, then 3 samples of equal repeats
    timed = len(builds) // 2 - 1
    assert timed % 3 == 0 and timed // 3 >= 5
    # seconds per build of the log (2 traces of at least 1 ms each),
    # not per sample (at least 50 ms)
    assert 0.002 <= result.times["sweep"][0] < 0.025


def _tiny_graph(with_edge):
    # events a then b, with the edge a -> b or none
    trace = UncertainTrace.from_columns(
        "c", ["a", "b"], [{"x"}, {"y"}], [0, 5], [0, 5], [True, True]
    )
    return BehaviorGraph(trace, [0] if with_edge else [], [1] if with_edge else [])


def test_equivalence_gate_trips_on_mismatch():
    left = [_tiny_graph(True)]
    right = [_tiny_graph(False)]
    with pytest.raises(EquivalenceError, match="disagree"):
        _check_equivalent(left, right)
    _check_equivalent(left, left)  # agreement passes silently


def test_report_csv_and_summary(tmp_path, capsys):
    result = _synthetic("length", [8, 16, 32], lambda v: 1e-6 * v**2)
    fits = [fit_scaling_exponent(result, "alg")]
    path = tmp_path / "report.csv"
    size = emit_report(result, fits, path)
    assert size == path.stat().st_size
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,algorithm,seconds"
    assert len(lines) == 4
    assert lines[1].startswith("length,8,alg,")
    assert "fitted exponent 2.00" in capsys.readouterr().out


def test_report_empty_result(tmp_path):
    result = BenchmarkResult("length", (), {"baseline": (), "sweep": ()}, 1, 0)
    path = tmp_path / "empty.csv"
    emit_report(result, [], path)
    assert path.read_text().splitlines() == ["param,value,algorithm,seconds"]


def test_summary_mentions_every_point():
    result = _synthetic("traces", [10, 20, 40], lambda v: v * 1e-3)
    text = format_summary(result, [])
    for value in (10, 20, 40):
        assert f"traces={value}" in text
