"""Alternating before/after runs of the benchmark, summarised as a BENCH record.

    python3 tools/bench_pairs.py --parent ../parent-checkout --workload graph-short \
        --seeds 71-80 --seconds 45 --out BENCH_topic.json

Pair k runs ``perfbench/run.py --workload W --seed <k-th seed> --seconds S
--trace 0`` once in the parent checkout and once in this working tree,
the parent first when k is even and the change first when k is odd.
Each run's own end-to-end metrics are kept.  The workload's entry in
``--out`` is then (re)written with each run's timed pass count (a run's
``peak_rss_mb`` grows with it) and, per metric, each side's median and
quartiles, the change's wins and ties over the pairs, and every run;
other workloads already in the file are kept.  Each metric also gets a
``verdict`` (see ``verdict``): ``gain``, ``worse``, ``unresolved`` or
``within_bound``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The run record and the metric values that one run.py run printed."""
    record, metrics = None, None
    for line in stdout.splitlines():
        if not line.startswith("{"):
            continue
        data = json.loads(line)
        if "run" in data:
            record = data["run"]
        elif "metrics" in data:
            metrics = {name: entry["value"] for name, entry in data["metrics"].items()}
    if record is None or metrics is None:
        raise ValueError("run.py printed no run record and metrics")
    return record, metrics


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    # numpy's default (linear) percentiles 25 and 75
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _spread(values: list[float]) -> dict:
    q1, q3 = _quartiles(values)
    return {"median": round(statistics.median(values), 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(
    higher: bool, bound: float, wins: int, pairs: int, parent: list[float], change: list[float]
) -> str:
    """One metric's reading over the pairs run.

    ``gain``: the change wins at least nine tenths of the pairs, ties
    counting for neither, and its median is better than the parent's by
    more than the distance between the parent's quartiles.  ``worse``:
    its median is worse than the parent's by more than ``bound``, a share
    of the parent's median.  ``unresolved``: the distance between the
    parent's quartiles is more than that share and not every change run
    is better than every parent run.  ``within_bound``: none of these.
    """
    sign = 1 if higher else -1
    base = statistics.median(parent)
    q1, q3 = _quartiles(parent)
    gap = sign * (statistics.median(change) - base)
    allowed = bound * abs(base)
    if 10 * wins >= 9 * pairs and gap > q3 - q1:
        return "gain"
    if -gap > allowed:
        return "worse"
    if q3 - q1 > allowed and min(sign * v for v in change) <= max(sign * v for v in parent):
        return "unresolved"
    return "within_bound"


def summarise(pairs: list[dict], declared: list[dict]) -> dict:
    """One workload's entry from its pairs.

    Each pair is ``{"seed", "parent", "change"}``, where a side is
    ``{"record", "metrics"}`` of a run, or None if the run failed.
    ``declared`` is BENCHMARK.json's ``end_to_end`` list.  Wins and ties
    count only pairs in which both runs succeeded.
    """
    complete = [pair for pair in pairs if pair["parent"] and pair["change"]]
    entry = {
        "seeds": [pair["seed"] for pair in pairs],
        "pairs": len(pairs),
        "failed_runs": sum(pair[side] is None for pair in pairs for side in SIDES),
        # no complete pair compared no outputs
        "output_sha256_equal_per_seed": bool(complete) and all(
            pair["parent"]["record"]["output_sha256"] == pair["change"]["record"]["output_sha256"]
            for pair in complete
        ),
        "order": "alternating: parent first in pairs 0, 2, 4, ...; change first in 1, 3, 5, ...",
        "timed_passes": {
            side: [pair[side]["record"]["timed_passes"] for pair in pairs if pair[side]]
            for side in SIDES
        },
        "metrics": {},
    }
    for metric in declared:
        name, higher = metric["name"], metric["better"] == "higher"
        runs = {
            side: [pair[side]["metrics"][name] for pair in pairs if pair[side]] for side in SIDES
        }
        wins = ties = 0
        for pair in complete:
            before, after = pair["parent"]["metrics"][name], pair["change"]["metrics"][name]
            if before == after:
                ties += 1
            elif (after > before) == higher:
                wins += 1
        summary = {key: metric[key] for key in ("unit", "better", "bound")}
        # with no run on one side, nothing tells the sides apart
        summary["verdict"] = "unresolved"
        if runs["parent"] and runs["change"]:
            summary.update({side: _spread(runs[side]) for side in SIDES})
            base = summary["parent"]["median"]
            summary["change_over_parent"] = round(summary["change"]["median"] / base, 4) if base else None
            summary["verdict"] = verdict(
                higher, metric["bound"], wins, len(pairs), runs["parent"], runs["change"]
            )
        summary.update(change_wins=wins, ties=ties)
        summary.update({f"{side}_runs": [round(v, 4) for v in runs[side]] for side in SIDES})
        entry["metrics"][name] = summary
    return entry


def _run(directory: Path, workload: str, seed: int, seconds: float) -> dict | None:
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=directory, capture_output=True, text=True)
    if done.returncode != 0:
        print(f"  run failed in {directory}: {done.stderr.strip()}", file=sys.stderr)
        return None
    record, metrics = parse_run(done.stdout)
    return {"record": record, "metrics": metrics}


def _seeds(text: str) -> list[int]:
    """'71-80' or '1,3,5' as a list of seeds."""
    if "-" in text:
        low, high = map(int, text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=_seeds, help="e.g. 71-80 or 1,3,5")
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    directories = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for k, seed in enumerate(args.seeds):
        pair = {"seed": seed}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            pair[side] = _run(directories[side], args.workload, seed, args.seconds)
            values = pair[side]["metrics"] if pair[side] else "failed"
            passes = pair[side]["record"]["timed_passes"] if pair[side] else 0
            print(f"pair {k} seed {seed} {side}: {passes} passes, {values}", file=sys.stderr)
        pairs.append(pair)

    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    some_run = next(
        (pair[side]["record"] for pair in pairs for side in SIDES if pair[side]), None
    )
    if some_run:
        for key in ("backend", "python", "numpy", "cpu_count"):
            result[key] = some_run[key]
    result["command"] = "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0"
    result["repetitions"] = (
        f"one {args.seconds:g} s run per side per pair; each run reports the benchmark's own "
        "aggregate over its timed passes; quartiles are linear percentiles 25/75 over the "
        "runs of one side"
    )
    result.setdefault("workloads", {})[args.workload] = summarise(pairs, declared)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
