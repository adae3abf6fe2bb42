"""Scaling experiments over the two graph constructions.

Each experiment varies one parameter (trace length, trace count, or the
share of uncertain timestamps), generates a fresh seeded log per point,
and times whole-log graph construction for both algorithms.  Per point
the median of r repetitions is kept, after one untimed warm-up run that
sets how often each sample repeats the build: a sample lasts at least
MIN_SAMPLE_SECONDS and records seconds per build.  Repetitions are
interleaved across points so machine-speed drift does not bias the
points measured last.  Log generation is never inside a timer, and every
timed run ends with an edge-set comparison between the two algorithms; a
mismatch aborts the experiment.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable, Mapping, Sequence

import numpy as np

from .graph import BehaviorGraph, build_baseline, build_sweep
from .loggen import GenerationSpec, UncertainLog, generate_log

ALGORITHMS: dict[str, Callable] = {
    "baseline": build_baseline,
    "sweep": build_sweep,
}

# "varies" names the setting the points set; the defaults are the
# settings of acceptance criteria 4, 5 and 6
EXPERIMENTS: dict[str, dict] = {
    # criterion 4's window: below about 512 events the baseline's time is
    # the numpy kernel's per-iteration overhead, not its cubic term
    "length": {"varies": "length", "points": (512, 1024, 2048), "traces": 2, "p_time": 0.4},
    "traces": {"varies": "traces", "points": (250, 500, 1000, 2000), "length": 50, "p_time": 0.4},
    "uncertainty": {"varies": "p_time", "points": (0.0, 0.4, 0.8), "traces": 100, "length": 100},
}

# a timed sample shorter than this is at the mercy of one scheduler
# tick or CPU speed switch on a shared host
MIN_SAMPLE_SECONDS = 0.25


class EquivalenceError(AssertionError):
    """The two constructions disagreed on a benchmark log."""


@dataclass(frozen=True)
class BenchmarkResult:
    """Median seconds per (parameter value, algorithm)."""

    parameter: str
    values: tuple[float, ...]
    times: Mapping[str, tuple[float, ...]]
    repetitions: int
    seed: int


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log(time) against log(parameter value)."""

    algorithm: str
    exponent: float
    residual: float


def _check_equivalent(
    baseline: Sequence[BehaviorGraph], sweep: Sequence[BehaviorGraph]
) -> None:
    for left, right in zip(baseline, sweep):
        if left.edges != right.edges:
            only_left = sorted(left.edges - right.edges)
            only_right = sorted(right.edges - left.edges)
            raise EquivalenceError(
                f"constructions disagree on case {left.case_id!r}: baseline-only "
                f"{only_left[:5]}, sweep-only {only_right[:5]}"
            )


def _timed_build(
    log: UncertainLog, build: Callable, repeats: int
) -> tuple[float, list[BehaviorGraph]]:
    # collector pauses would otherwise land on arbitrary runs and swamp
    # the fast algorithm's measurements; start from a collected heap,
    # then keep the collector off while the clock runs
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeats):
            graphs = [build(trace) for trace in log.traces]
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return elapsed / repeats, graphs


def run_experiment(
    parameter: str,
    values: Sequence[float] | None = None,
    *,
    traces: int | None = None,
    length: int | None = None,
    p_time: float | None = None,
    repetitions: int = 5,
    seed: int = 0,
) -> BenchmarkResult:
    """Construction time as one parameter of the generated log grows.

    ``parameter`` names a row of EXPERIMENTS.  ``values`` are the points
    of the parameter it varies; ``traces``, ``length`` and ``p_time``
    fix the others.  Whatever is left as None comes from the row.
    """
    if parameter not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {parameter!r}; choose from {sorted(EXPERIMENTS)}")
    row = EXPERIMENTS[parameter]
    varies = row["varies"]
    given = {"traces": traces, "length": length, "p_time": p_time}
    if given.pop(varies) is not None:
        raise ValueError(f"the {parameter} experiment varies {varies}; give its values as points")
    fixed = {name: row[name] if value is None else value for name, value in given.items()}

    def make_log(value: float) -> UncertainLog:
        settings = {**fixed, varies: value}
        spec = GenerationSpec(int(settings["traces"]), int(settings["length"]), seed=seed)
        return generate_log(spec, p_time=settings["p_time"])

    values = row["points"] if values is None else values
    if not values:
        raise ValueError(f"no {parameter} values given")
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    logs = [make_log(value) for value in values]
    # untimed warm-up, also gating equivalence before any timing starts
    # and setting each sample's repeat count; released right away so
    # timed runs see a similar heap at every point
    repeats: dict[str, list[int]] = {name: [] for name in ALGORITHMS}
    for log in logs:
        warm = {}
        for name, build in ALGORITHMS.items():
            seconds, warm[name] = _timed_build(log, build, 1)
            repeats[name].append(math.ceil(MIN_SAMPLE_SECONDS / seconds))
        _check_equivalent(warm["baseline"], warm["sweep"])
        del warm
    samples: dict[str, list[list[float]]] = {
        name: [[] for _ in values] for name in ALGORITHMS
    }
    # repetitions are interleaved across the points so slow drift in
    # machine speed spreads over all of them instead of biasing the
    # points measured last; cross-point ratios are what gets reported
    for _ in range(repetitions):
        for index, log in enumerate(logs):
            run: dict[str, list[BehaviorGraph]] = {}
            for name, build in ALGORITHMS.items():
                seconds, run[name] = _timed_build(log, build, repeats[name][index])
                samples[name][index].append(seconds)
            _check_equivalent(run["baseline"], run["sweep"])
    return BenchmarkResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        times={
            name: tuple(median(point) for point in per_point)
            for name, per_point in samples.items()
        },
        repetitions=repetitions,
        seed=seed,
    )


def check_fit_values(values: Sequence[float]) -> None:
    """Raise ValueError unless ``values`` can carry an exponent fit.

    A fit needs at least three strictly increasing positive values.
    The CLI checks its points with this before an experiment runs.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        raise ValueError("exponent fit needs at least 3 points")
    if not (np.all(values > 0) and np.all(np.diff(values) > 0)):
        raise ValueError("exponent fit needs strictly increasing positive values")


def fit_scaling_exponent(result: BenchmarkResult, algorithm: str) -> ScalingFit:
    """Fit time ~ value**exponent for one algorithm's measurements.

    Needs at least three strictly increasing positive parameter values.
    The residual is the sum of squared errors in log-log space.
    """
    if algorithm not in result.times:
        raise ValueError(f"no measurements for algorithm {algorithm!r}")
    check_fit_values(result.values)
    values = np.asarray(result.values, dtype=float)
    seconds = np.asarray(result.times[algorithm], dtype=float)
    if not np.all(seconds > 0):
        raise ValueError("exponent fit needs positive timings")
    coefficients, residuals, *_ = np.polyfit(
        np.log(values), np.log(seconds), 1, full=True
    )
    residual = float(residuals[0]) if residuals.size else 0.0
    return ScalingFit(algorithm=algorithm, exponent=float(coefficients[0]), residual=residual)


def format_summary(result: BenchmarkResult, fits: Sequence[ScalingFit]) -> str:
    """Human-readable experiment summary with fitted exponents."""
    lines = [
        f"{result.parameter} experiment, median of {result.repetitions} "
        f"repetitions, seed {result.seed}"
    ]
    for i, value in enumerate(result.values):
        per_algorithm = ", ".join(
            f"{name} {result.times[name][i]:.6f}s" for name in sorted(result.times)
        )
        lines.append(f"  {result.parameter}={value:g}: {per_algorithm}")
    for fit in fits:
        lines.append(
            f"  {fit.algorithm}: fitted exponent {fit.exponent:.2f} "
            f"(residual {fit.residual:.3g})"
        )
    return "\n".join(lines)


def emit_report(
    result: BenchmarkResult,
    fits: Sequence[ScalingFit],
    destination: str | Path,
) -> int:
    """Write the per-point CSV and print the summary; returns CSV bytes."""
    rows = ["param,value,algorithm,seconds"]
    for name in sorted(result.times):
        for value, seconds in zip(result.values, result.times[name]):
            rows.append(f"{result.parameter},{value:g},{name},{seconds!r}")
    data = ("\n".join(rows) + "\n").encode("utf-8")
    Path(destination).write_bytes(data)
    print(format_summary(result, fits))
    return len(data)
