from __future__ import annotations

import io

import pytest

from ubgraph import BenchmarkResult, UncertainTrace, fit_scaling_exponent
from ubgraph.bench import (
    EquivalenceError,
    _check_equivalent,
    emit_report,
    format_summary,
    run_length_experiment,
    run_traces_experiment,
    run_uncertainty_experiment,
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
        run_traces_experiment([])
    with pytest.raises(ValueError, match="repetitions"):
        run_length_experiment([4, 8], repetitions=0)


def test_length_experiment_smoke():
    result = run_length_experiment([4, 6, 8], n_traces=2, repetitions=1, seed=5)
    assert result.parameter == "length"
    assert result.values == (4.0, 6.0, 8.0)
    assert set(result.times) == {"baseline", "sweep"}
    assert all(len(ts) == 3 for ts in result.times.values())
    assert all(t > 0 for ts in result.times.values() for t in ts)


def test_uncertainty_experiment_smoke():
    result = run_uncertainty_experiment([0.0, 0.5], n_traces=2, trace_length=5, repetitions=1, seed=5)
    assert result.values == (0.0, 0.5)


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


def test_report_csv_and_summary(tmp_path):
    result = _synthetic("length", [8, 16, 32], lambda v: 1e-6 * v**2)
    fits = [fit_scaling_exponent(result, "alg")]
    stream = io.StringIO()
    path = tmp_path / "report.csv"
    size = emit_report(result, fits, path, summary_stream=stream)
    assert size == path.stat().st_size
    lines = path.read_text().splitlines()
    assert lines[0] == "param,value,algorithm,seconds"
    assert len(lines) == 4
    assert lines[1].startswith("length,8,alg,")
    summary = stream.getvalue()
    assert "fitted exponent 2.00" in summary


def test_report_empty_result(tmp_path):
    result = BenchmarkResult("length", (), {"baseline": (), "sweep": ()}, 1, 0)
    path = tmp_path / "empty.csv"
    emit_report(result, [], path, summary_stream=io.StringIO())
    assert path.read_text().splitlines() == ["param,value,algorithm,seconds"]


def test_summary_mentions_every_point():
    result = _synthetic("traces", [10, 20, 40], lambda v: v * 1e-3)
    text = format_summary(result, [])
    for value in (10, 20, 40):
        assert f"traces={value}" in text
