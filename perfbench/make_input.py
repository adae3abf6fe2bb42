"""Set-up of one benchmark run: generate a workload's log and write it.

Runs in its own process, so that the generated log does not count in
the peak memory of the process that runs the pipeline.  Generates and
writes at least ``--reps`` times and for at least ``--min-seconds``, and
prints the per-repetition seconds as JSON.

    python3 perfbench/make_input.py --spec '<Spec as JSON>' --seed 1 --reps 3 --min-seconds 6 --out log.jsonl
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import ubgraph  # noqa: E402
from workloads import Spec, generate, run_on_cpu  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    parser.add_argument("--min-seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    fields = json.loads(args.spec)
    spec = Spec(**{**fields, "lengths": tuple(fields["lengths"])})
    loggen_s, write_s = [], []
    began = time.perf_counter()
    while len(loggen_s) < args.reps or time.perf_counter() - began < args.min_seconds:
        run_on_cpu(len(loggen_s))
        start = time.perf_counter()
        log = generate(spec, args.seed)
        generated = time.perf_counter()
        size = ubgraph.write_log(log, args.out)
        loggen_s.append(generated - start)
        write_s.append(time.perf_counter() - generated)
        del log
    # flush the log now, so that its write-back does not run during the timed passes
    with open(args.out, "rb") as handle:
        os.fsync(handle.fileno())
    print(json.dumps({"loggen_s": loggen_s, "write_log_s": write_s, "bytes": size}))


if __name__ == "__main__":
    main()
