"""Command line interface.

Subcommands: generate, graph, check, udfg, bench, import-csv.  Data goes
to stdout or the requested files; diagnostics go to stderr.  A command
that writes one file refuses a path it cannot make before any work, and
removes the file it made if it then fails.  Exit codes:
0 success, 1 validation or parse errors, 2 internal errors (including a
failed equivalence check).
"""

from __future__ import annotations

import argparse
import csv
import re
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Iterator, Sequence

from . import bench as bench_mod
from .bench import EquivalenceError, fit_scaling_exponent
from .graph import build_baseline, build_sweep
from .loggen import GenerationSpec, generate_log
from .logio import export_dot, import_certain_csv, read_log, write_log
from .oracle import covering_relation, udfg_bounds_log

# check --oracle runs covering_relation only on traces of at most this
# many events, bounding its cubic cost
_ORACLE_MAX_EVENTS = 8


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ubgraph",
        description="Behavior graphs for event logs with uncertain event data.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="write a synthetic uncertain log")
    generate.add_argument("--traces", type=int, required=True)
    generate.add_argument("--length", type=int, required=True)
    generate.add_argument("--p-time", type=float, required=True)
    generate.add_argument("--p-activity", type=float, default=0.0)
    generate.add_argument("--p-indeterminate", type=float, default=0.0)
    generate.add_argument("--alphabet", type=int, default=26)
    generate.add_argument("--seed", type=int, required=True)
    generate.add_argument("--out", required=True)
    generate.set_defaults(handler=_cmd_generate)

    graph = commands.add_parser("graph", help="build behavior graphs from a log")
    graph.add_argument("--in", dest="input", required=True)
    graph.add_argument("--algorithm", choices=sorted(bench_mod.ALGORITHMS), required=True)
    graph.add_argument("--dot", help="directory for one DOT file per trace")
    graph.set_defaults(handler=_cmd_graph)

    check = commands.add_parser("check", help="verify the two constructions agree")
    check.add_argument("--in", dest="input", required=True)
    check.add_argument("--oracle", action="store_true",
                       help="also compare against covering_relation, which evaluates "
                       "the definition directly in cubic time, on the traces of at "
                       f"most {_ORACLE_MAX_EVENTS} events")
    check.set_defaults(handler=_cmd_check)

    udfg = commands.add_parser("udfg", help="directly-follows bounds of a log")
    udfg.add_argument("--in", dest="input", required=True)
    udfg.add_argument("--out", required=True)
    udfg.set_defaults(handler=_cmd_udfg)

    bench = commands.add_parser("bench", help="run a scaling experiment")
    bench.add_argument("mode", choices=sorted(bench_mod.EXPERIMENTS))
    bench.add_argument("--points", help="comma-separated parameter values")
    bench.add_argument("--traces", type=int)
    bench.add_argument("--length", type=int)
    bench.add_argument("--p-time", type=float)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--report", required=True)
    bench.set_defaults(handler=_cmd_bench)

    importer = commands.add_parser("import-csv", help="convert a certain CSV log")
    importer.add_argument("--in", dest="input", required=True)
    importer.add_argument("--case-col", required=True)
    importer.add_argument("--activity-col", required=True)
    importer.add_argument("--time-col", required=True)
    importer.add_argument("--id-col")
    importer.add_argument("--out", required=True)
    importer.set_defaults(handler=_cmd_import_csv)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GenerationSpec(
        n_traces=args.traces,
        trace_length=args.length,
        alphabet_size=args.alphabet,
        seed=args.seed,
    )
    log = generate_log(spec, args.p_time, args.p_activity, args.p_indeterminate)
    size = write_log(log, args.out)
    print(f"wrote {len(log)} traces ({size} bytes) to {args.out}")
    return 0


def _safe_name(case_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", case_id) or "case"


# the longest file name most file systems take, in bytes; _safe_name
# gives ASCII, so a name's characters are its bytes
_MAX_NAME = 255


def _dot_names(case_ids: Sequence[str]) -> list[str]:
    """One DOT file name per case; ValueError when two cases share one or one is too long."""
    names: dict[str, str] = {}
    for case_id in case_ids:
        name = f"{_safe_name(case_id)}.dot"
        if len(name) > _MAX_NAME:
            raise ValueError(
                f"case {case_id!r} maps to a DOT file name of {len(name)} characters, "
                f"over the limit of {_MAX_NAME}"
            )
        if name in names:
            raise ValueError(
                f"cases {names[name]!r} and {case_id!r} both map to DOT file {name}"
            )
        names[name] = case_id
    return list(names)


def _cmd_graph(args: argparse.Namespace) -> int:
    log = read_log(args.input)
    build = bench_mod.ALGORITHMS[args.algorithm]
    graphs = [build(trace) for trace in log.traces]
    if args.dot:
        names = _dot_names([graph.case_id for graph in graphs])
        directory = Path(args.dot)
        directory.mkdir(parents=True, exist_ok=True)
        for graph, name in zip(graphs, names):
            export_dot(graph, directory / name)
        print(f"wrote {len(graphs)} DOT files to {directory}")
    else:
        for graph in graphs:
            print(
                f"{graph.case_id}: {len(graph.trace)} vertices, "
                f"{len(graph.edges)} edges"
            )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    log = read_log(args.input)
    oracle_checked = 0
    for trace in log.traces:
        baseline = build_baseline(trace)
        bench_mod._check_equivalent([baseline], [build_sweep(trace)])
        if args.oracle and len(trace) <= _ORACLE_MAX_EVENTS:
            expected = covering_relation(trace)
            if baseline.edges != expected:
                raise EquivalenceError(
                    f"case {trace.case_id!r}: constructions disagree with covering_relation"
                )
            oracle_checked += 1
    print(f"all {len(log)} traces equivalent")
    if args.oracle:
        print(f"oracle checked {oracle_checked} of {len(log)} traces")
    return 0


def _cmd_udfg(args: argparse.Namespace) -> int:
    log = read_log(args.input)
    bounds = udfg_bounds_log(log)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["activity_a", "activity_b", "min", "max"])
        writer.writerows((a, b, low, high) for (a, b), (low, high) in sorted(bounds.items()))
    print(f"wrote {len(bounds)} activity pairs to {args.out}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    experiment = bench_mod.EXPERIMENTS[args.mode]
    if getattr(args, experiment["varies"]) is not None:
        option = "--" + experiment["varies"].replace("_", "-")
        raise ValueError(f"bench {args.mode} varies {option}; give its values with --points")
    points = experiment["points"]
    if args.points is not None:
        parse = float if args.mode == "uncertainty" else int
        try:
            points = [parse(part) for part in args.points.split(",") if part.strip()]
        except ValueError:
            kind = "numbers" if parse is float else "integers"
            raise ValueError(
                f"bad --points value {args.points!r}: bench {args.mode} takes {kind}"
            ) from None
    fit = len(points) >= 3 and args.mode != "uncertainty"
    if fit:
        bench_mod.check_fit_values(points)
    result = bench_mod.run_experiment(
        args.mode, points, traces=args.traces, length=args.length, p_time=args.p_time,
        repetitions=args.reps, seed=args.seed,
    )
    fits = [fit_scaling_exponent(result, name) for name in sorted(result.times)] if fit else []
    bench_mod.emit_report(result, fits, args.report)
    return 0


def _cmd_import_csv(args: argparse.Namespace) -> int:
    log = import_certain_csv(
        args.input,
        case_col=args.case_col,
        activity_col=args.activity_col,
        time_col=args.time_col,
        id_col=args.id_col,
    )
    size = write_log(log, args.out)
    events = sum(len(trace) for trace in log.traces)
    print(f"imported {events} events in {len(log)} traces to {args.out} ({size} bytes)")
    return 0


# the option that names each command's output file
_OUTPUT_OPTION = {"generate": "out", "udfg": "out", "import-csv": "out", "bench": "report"}


@contextmanager
def _output_file(path: str) -> Iterator[None]:
    """Refuses an output file that cannot be made, before any work.

    Entered before a command runs: ValueError names ``path`` when its
    directory does not exist or when it is a directory.  If the command
    then fails, a file it made at ``path`` is removed, so a refused or
    failed run leaves no new file.
    """
    out = Path(path)
    if not out.parent.is_dir():
        raise ValueError(f"cannot write {path!r}: directory {str(out.parent)!r} does not exist")
    if out.is_dir():
        raise ValueError(f"cannot write {path!r}: it is a directory")
    existed = out.exists()
    try:
        yield
    except BaseException:
        if not existed:
            out.unlink(missing_ok=True)
        raise


def run(argv: Sequence[str] | None = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 1
    option = _OUTPUT_OPTION.get(args.command)
    output = nullcontext() if option is None else _output_file(getattr(args, option))
    try:
        with output:
            return args.handler(args)
    except EquivalenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
