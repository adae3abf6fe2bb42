"""The ubgraph benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload graph-short --seed 1 --seconds 45 --trace 0

Set-up generates the workload's log from the seed and writes it, in a
separate process.  The pipeline then runs once untimed, and that pass's
outputs are checked.  Timed passes follow for ``--seconds`` and their
outputs must match the checked pass byte for byte.  With ``--trace 0``
the result holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` untraced and traced passes alternate, and the result holds
the per-layer metrics, with the spans written as JSON under
``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEFAULT_SEED = 1
SETUP_REPS = 3  # at least, and for at least SETUP_SECONDS
SETUP_SECONDS = 6
MIN_PASSES = 3


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _rate(passes) -> float:
    """Events of all passes over their summed wall seconds.

    A total rather than a median of per-pass rates: the machine's speed
    switches between two levels, and a median jumps between them.
    """
    return sum(r.events for _, r in passes) / sum(wall for wall, _ in passes)


def _setup(spec, seed: int, log_path: Path) -> dict:
    """Generate and write the log repeatedly in a child process."""
    command = [
        sys.executable, str(HERE / "make_input.py"),
        "--spec", json.dumps(dataclasses.asdict(spec)),
        "--seed", str(seed), "--reps", str(SETUP_REPS),
        "--min-seconds", str(SETUP_SECONDS), "--out", str(log_path),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
    return json.loads(done.stdout.splitlines()[-1])


def _check_fingerprint(name: str, seed: int, digest: str) -> None:
    import workloads

    recorded = json.loads((HERE / "fingerprints.json").read_text())
    if seed == recorded["seed"] and name in recorded["sha256"]:
        if digest != recorded["sha256"][name]:
            raise workloads.OutputMismatch(
                f"{name}: output bytes differ from the fingerprint recorded "
                f"for seed {seed} ({digest})"
            )


def measure(name: str, spec, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Run one workload; returns (metric values, run record)."""
    import numpy
    import ubgraph
    import workloads
    from spans import Spans, no_span

    work = OUT / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log_path = work / "log.jsonl"
    try:
        setup = _setup(spec, seed, log_path)
        pipeline = workloads.PIPELINES[spec.kind]

        # untimed: fills caches, finds the udfg traces over the size limit,
        # and its outputs get the full checks
        first = pipeline(log_path, work, no_span)
        if spec.kind == "graph":
            workloads.check_graph_outputs(log_path, work)
        expected = workloads.digest(first.outputs)
        _check_fingerprint(name, seed, expected)
        extra = {"refused": first.refused} if spec.kind == "udfg" else {}

        recorder = Spans()
        modes = {False: no_span, True: recorder} if traced else {False: no_span}
        passes = {is_traced: [] for is_traced in modes}
        next_id = first.ops
        start = time.perf_counter()
        rounds = 0
        while (min(len(p) for p in passes.values()) < MIN_PASSES
               or time.perf_counter() - start < seconds):
            # both kinds of pass of a round run on the same CPU
            workloads.run_on_cpu(rounds)
            rounds += 1
            for is_traced, span in modes.items():
                began = time.perf_counter_ns()
                with span("pipeline"):
                    result = pipeline(log_path, work, span, next_id, **extra)
                wall = (time.perf_counter_ns() - began) / 1e9
                next_id += result.ops
                if workloads.digest(result.outputs) != expected:
                    raise workloads.OutputMismatch(
                        f"{name}: a timed pass wrote other bytes than the checked pass"
                    )
                passes[is_traced].append((wall, result))
        plain = passes[False]
        attempted = sum(result.ops for _, result in plain)
        plain_rate = _rate(plain)
        trace_ns = [ns for _, r in plain for ns in r.trace_ns]
        metrics = {
            "events_per_s": plain_rate,
            "trace_p50_us": _median(trace_ns) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": (first.ops - len(first.refused)) / first.ops,
            "setup_s": _median([a + b for a, b in zip(setup["loggen_s"], setup["write_log_s"])]),
        }
        if traced:
            attempted += sum(r.ops for _, r in passes[True])
            log = ubgraph.read_log(log_path)
            for _ in range(MIN_PASSES):
                with recorder("model.validate_log"):
                    ubgraph.validate_log(log)
                with recorder("model.validate_trace"):
                    for trace in log.traces:
                        ubgraph.validate_trace(trace)
            del log
            metrics = _per_layer(
                recorder, passes[True], first, setup, log_path,
                trace_ns, plain_rate,
            )
            spans_file = OUT / f"spans-{name}-seed{seed}.json"
        record = {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(traced),
            "timed_passes": len(plain),
            "traced_passes": len(passes.get(True, [])),
            "setup_reps": len(setup["loggen_s"]),
            "backend": _backend_name(ubgraph),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "output_dir": os.path.relpath(work, ROOT),
            "output_sha256": expected,
            "attempted": attempted,
        }
        if traced:
            recorder.dump(spans_file, record)
            record["spans_file"] = os.path.relpath(spans_file, ROOT)
        return metrics, record
    finally:
        workloads.release_cpu()
        shutil.rmtree(work, ignore_errors=True)


def _per_layer(recorder, traced_passes, first, setup, log_path, trace_ns, plain_rate) -> dict:
    roots = recorder.self_seconds()

    def self_s(root_name: str, span_name: str) -> float:
        return _median([t.get(span_name, 0.0) for r, t in roots if r == root_name])

    def layer(span_name: str) -> float:
        return self_s("pipeline", span_name)

    counts = {**traced_passes[-1][1].counts}
    for key in ("oracle.udfg_bounds_trace.attempted", "oracle.udfg_bounds_trace.failed"):
        counts[key] = first.counts.get(key, 0)
    calls = counts.get("graph.build_sweep.calls", 0)
    traced_rate = _rate(traced_passes)
    p99 = statistics.quantiles(trace_ns, n=100)[98] if len(trace_ns) > 1 else trace_ns[0]
    return {
        "loggen.s": _median(setup["loggen_s"]),
        "logio.write_log.s": _median(setup["write_log_s"]),
        "logio.write_log.bytes": setup["bytes"],
        "logio.read_log.s": layer("logio.read_log"),
        "logio.read_log.bytes": log_path.stat().st_size,
        "logio.read_log.events": counts["logio.read_log.events"],
        "model.validate_log.s": self_s("model.validate_log", "model.validate_log"),
        "model.validate_trace.s": self_s("model.validate_trace", "model.validate_trace"),
        "graph.build_sweep.s": layer("graph.build_sweep"),
        "graph.build_sweep.calls": calls,
        "graph.build_sweep.us_per_call": layer("graph.build_sweep") / calls * 1e6 if calls else 0.0,
        "graph.edges.s": layer("graph.edges"),
        "graph.edges.count": counts.get("graph.edges.count", 0),
        "logio.export_dot.s": layer("logio.export_dot"),
        "logio.export_dot.bytes": counts.get("logio.export_dot.bytes", 0),
        "oracle.udfg_bounds_trace.s": layer("oracle.udfg_bounds_trace"),
        "oracle.udfg_bounds_trace.attempted": counts.get("oracle.udfg_bounds_trace.attempted", 0),
        "oracle.udfg_bounds_trace.failed": counts.get("oracle.udfg_bounds_trace.failed", 0),
        "oracle.udfg_bounds_trace.rows": counts.get("oracle.udfg_bounds_trace.rows", 0),
        "cli.udfg.write_csv.s": layer("cli.udfg.write_csv"),
        "pipeline.wall.s": _median([wall for wall, _ in traced_passes]),
        "pipeline.uncovered.s": layer("pipeline"),
        "trace_p99_us": p99 / 1e3,
        "tracing.overhead_share": 1 - traced_rate / plain_rate,
    }


def _backend_name(ubgraph) -> str:
    name = getattr(ubgraph, "backend_name", None)
    return name() if callable(name) else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ubgraph" / "__init__.py").is_file():
        print(f"error: no ubgraph package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    try:
        values, record = measure(
            args.workload, workloads.WORKLOADS[args.workload], args.seed,
            args.seconds, bool(args.trace),
        )
    except (workloads.OutputMismatch, RuntimeError) as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for metric, value in values.items():
        print(f"{args.workload} {metric} = {value:.6g} {units[metric]}", file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": 0,
        "metrics": {m: {"value": float(values[m]), "unit": units[m]} for m in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
