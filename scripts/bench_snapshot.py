#!/usr/bin/env python3
"""Run every benchmark workload over fixed seeds and write one BENCH_<n>.json.

    python3 scripts/bench_snapshot.py BENCH_7.json
    python3 scripts/bench_snapshot.py BENCH_7.json --baseline ../metricgeom-parent

Each run is `python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0` from the root of a checkout, for the workloads and the run
length that BENCHMARK.json declares and for seeds 1, 2 and 3.  With
--baseline, every (workload, seed) also runs in a second checkout (say a
`git clone` of the parent commit), the two sides alternating which goes
first, so both meet the same machine conditions.  The file holds each
run's metrics, operation counts and minor page faults (those of the run's
process and of every process it waited for), the median of every metric
per workload and side, the Python and numpy versions, the CPU count and
each checkout's git revision.  Expect about 25 s per run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)


def revision(root: str) -> dict:
    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", root, *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        return {"revision": git("rev-parse", "HEAD"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"revision": None, "dirty": None}


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"], "minor_faults": faults,
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def medians(runs: list[dict]) -> dict:
    return {name: statistics.median(r["metrics"][name] for r in runs)
            for name in runs[0]["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out", help="file to write, named BENCH_<n>.json")
    parser.add_argument("--baseline", help="root of a second checkout to run alongside")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    roots = {"change": ROOT}
    if args.baseline:
        roots["baseline"] = os.path.abspath(args.baseline)

    runs: dict[str, dict[str, list]] = {side: {w: [] for w in workloads} for side in roots}
    turn = 0
    for workload in workloads:
        for seed in SEEDS:
            order = list(roots) if turn % 2 == 0 else list(roots)[::-1]
            turn += 1
            for side in order:
                r = run(roots[side], workload, seed, seconds)
                runs[side][workload].append(r)
                print(f"{side:8} {workload:15} seed {seed}: "
                      + ", ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items())
                      + f", failed {r['failed']}/{r['attempted']}"
                      + f", minor faults {r['minor_faults']}", file=sys.stderr)

    snapshot = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "seeds": list(SEEDS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "sides": {side: {**revision(roots[side]),
                         "medians": {w: medians(rs) for w, rs in runs[side].items()},
                         "runs": runs[side]}
                  for side in roots},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
