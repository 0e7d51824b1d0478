#!/usr/bin/env python3
"""Run one metricgeom benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload koch_fractal --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ./src.  One
closed-loop client in this process sends each operation after the
previous one returns, cycling round-robin through the workload's fixed
list of operations in whole rounds.  With --trace 0 the last line holds
the end-to-end metrics, with --trace 1 the per-layer metrics (see
README.md).  Every duration is scaled to the machine's reference speed by
the speed probes run just before and after it; stderr shows raw figures.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 7
# workload -> (in-process builder or None for the CLI, probe kind of its operations)
WORKLOADS = {
    "cli_oneshot": (None, "proc"),
    "koch_fractal": (workloads.koch_fractal, "pairs"),
    "sampled_curves": (workloads.sampled_curves, "pairs"),
    "geodesic_relax": (workloads.geodesic_relax, "calls"),
}

# Functions timed in a traced in-process run: (module, name) under metricgeom.
TRACED = [
    ("metrics", "distance"), ("metrics", "check_metric_axioms"),
    ("curves", "length"), ("curves", "lipschitz_estimate"),
    ("reparam", "unit_speed_reparam"),
    ("holder", "fit_holder"), ("holder", "hausdorff_covering_sum"), ("holder", "koch_generator"),
    ("geodesic", "solve"),
]

PER_LAYER = {
    "cli.import_s": "s", "cli.load_curve_s": "s", "cli.dumps_s": "s",
    "cli.stdout_bytes": "bytes", "cli.kernel_s": "s",
    "metrics.distance.ns_per_pair": "ns", "metrics.check_metric_axioms_s": "s",
    "curves.lipschitz_estimate_s": "s", "curves.lipschitz_estimate.ns_per_pair": "ns",
    "curves.length_s": "s", "reparam.unit_speed_reparam_s": "s",
    "holder.fit_holder_s": "s", "holder.fit_holder.ns_per_pair": "ns",
    "holder.hausdorff_covering_sum_s": "s", "holder.koch_generator_s": "s",
    "geodesic.solve_s": "s", "geodesic.solve.sweeps": "count",
    "geodesic.solve.us_per_point_update": "us", "geodesic.solve.gap_rel": "ratio",
    "trace.op_p50_s": "s",
}


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


# --- speed probes -------------------------------------------------------------------
# The machine's speed swings by up to 2x within a minute, in CPU time as
# much as in wall time, and unevenly across kinds of work.  A probe is
# fixed work owned by the benchmark and shaped like one workload's
# operations, so its duration tracks the machine and never the program.
# A measured duration d is reported as d * PROBE_NOMINAL / (mean of the
# probes run just before and just after it).

_PX = np.linspace(-1.0, 1.0, 24).reshape(8, 3)
_LAM = np.array([0.25, 0.5, 1.0])
_PD = np.linspace(-1.0, 1.0, 3 * 512).reshape(512, 3)


def probe_calls() -> float:
    """Small numpy calls from a Python loop, like one geodesic relaxation sweep."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1000):
        a, b = _PX[i % 8], _PX[(i + 3) % 8]
        c = a + _LAM[:, None] * (b - a)
        v = np.maximum(np.sqrt(((c - a) ** 2).sum(-1)), np.abs(c - b).sum(-1))
        acc += float(v[int(np.argmin(v))])
    return time.perf_counter() - t0


def probe_pairs() -> float:
    """Blocked pairwise lp distances, like the pair scans of fit_holder and covering sums."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        D = _PD[:128, None, :] - _PD[None, :, :]
        acc += float((np.abs(D) ** 1.5).sum(-1).max())
    return time.perf_counter() - t0


def probe_proc() -> float:
    """A fresh interpreter importing numpy, like the start of a CLI call."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=child_env(), check=True)
    return time.perf_counter() - t0


PROBES = {"calls": probe_calls, "pairs": probe_pairs, "proc": probe_proc}
# Median probe durations on the reference machine (README, "Reference figures").
PROBE_NOMINAL = {"calls": 0.015, "pairs": 0.020, "proc": 0.150}
PROBE_EVERY = {"calls": 0.5, "pairs": 0.5, "proc": 1.5}  # seconds of operations between probes


def scaled(durations, before, probes, kind: str) -> list[float]:
    """Scale each duration by the probes that bracket it (indices before[i], before[i] + 1)."""
    return [d * 2.0 * PROBE_NOMINAL[kind] / (probes[b] + probes[b + 1])
            for d, b in zip(durations, before)]


# --- set-up ---------------------------------------------------------------------------

def fresh_import() -> float:
    """Import metricgeom in a fresh interpreter; returns the import time it measured."""
    code = ("import time; t0 = time.perf_counter(); import metricgeom; "
            "print(repr(time.perf_counter() - t0))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(), check=True,
                         capture_output=True, text=True)
    return float(out.stdout)


def cli_runner(tracer: spans.Tracer | None):
    """A function that runs one CLI call and returns the finished process."""
    env = child_env()
    if tracer is None:
        prefix = [sys.executable, "-c", workloads.CLI_ENTRY]
    else:
        span_file = os.path.join(OUT, f"cli-spans-{os.getpid()}.json")
        prefix = [sys.executable, os.path.join(HERE, "traced_cli.py"), span_file]

    def run(argv: list[str]) -> subprocess.CompletedProcess:
        proc = subprocess.run(prefix + argv, env=env, capture_output=True)
        if tracer is not None:
            with open(span_file, encoding="utf-8") as fh:
                tracer.extend(json.load(fh)["spans"], parent=-1)
            os.remove(span_file)
        return proc

    return run


def set_up(workload: str, seed: int, tracer):
    """Build the workload SETUP_REPS times, each bracketed by proc probes.

    In-process: a fresh-interpreter import plus building the inputs.
    CLI: writing the input files plus one warm-up call.
    Returns the ops, the set-up durations, the probes and the child import times.
    """
    build = WORKLOADS[workload][0]
    workdir = os.path.join(OUT, f"work-{seed}")
    times, imports, probes = [], [], [probe_proc()]
    for _ in range(SETUP_REPS):
        ops = None  # let the previous inputs go before building new ones
        t0 = time.perf_counter()
        if build is None:
            ops = workloads.cli_oneshot(seed, workdir, cli_runner(None))
            proc = ops[0].call()
            if proc.returncode != 0:
                raise RuntimeError(f"warm-up call failed: {proc.stderr.decode(errors='replace')}")
        else:
            imports.append(fresh_import())
            import metricgeom
            ops = build(metricgeom, seed)
        times.append(time.perf_counter() - t0)
        probes.append(probe_proc())
    if build is None and tracer is not None:
        ops = workloads.cli_oneshot(seed, workdir, cli_runner(tracer))
    return ops, times, probes, imports


# --- the timed loop ------------------------------------------------------------------

class Tally:
    """Verdicts of the operations run, and the counters their results carry."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.stats: dict[str, list[float]] = {}
        self.pairs: dict[str, int] = {}

    def add(self, op, out, err) -> None:
        """An op fails if it raised or its check refused the result; only the latter is wrong."""
        self.attempted += 1
        for k, v in op.pairs.items():
            self.pairs[k] = self.pairs.get(k, 0) + v
        if err is None:
            try:
                reason = op.check(out)
            except Exception as exc:  # malformed output the check could not read
                reason = f"{type(exc).__name__}: {exc}"
            if reason is not None:
                self.wrong += 1
                err = "wrong result: " + reason
        if err is not None:
            self.failed += 1
            print(f"FAILED {op.name}: {err}", file=sys.stderr)
        elif op.stats is not None:
            for k, v in op.stats(out).items():
                self.stats.setdefault(k, []).append(float(v))


def measure(ops, seconds: float, kind: str, min_rounds: int, tracer, tally: Tally):
    """Whole rounds of ``ops`` until the next round would pass ``seconds`` of operations.

    Each result is checked and dropped right after its op, outside the
    timing.  Returns raw op durations, the index of the probe before each
    op, the probes and the number of rounds.
    """
    probe = PROBES[kind]
    times, before, probes = [], [], [probe()]
    busy = since_probe = round_time = 0.0
    rounds = 0
    while rounds < min_rounds or busy + round_time <= seconds:
        start = busy
        for op in ops:
            if tracer is not None:
                tracer.op = len(times)
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # an operation that raises counts as failed
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.add(op.name, t0, t1)
            times.append(t1 - t0)
            before.append(len(probes) - 1)
            tally.add(op, out, err)
            busy += t1 - t0
            since_probe += t1 - t0
            if since_probe >= PROBE_EVERY[kind]:
                probes.append(probe())
                since_probe = 0.0
        rounds += 1
        round_time = busy - start
    probes.append(probe())
    return times, before, probes, rounds


# --- per-layer metrics ---------------------------------------------------------------

def layer_metrics(workload, tracer, tally, op_scaled, op_factor, setup_factor, imports):
    """Per-layer figures from the spans, each span scaled like the op it belongs to."""
    rows = [[s[0], 0.0, (s[2] - s[1]) * (op_factor[s[4]] if s[4] >= 0 else setup_factor),
             s[3], s[4]] for s in tracer.spans]
    tot = spans.totals(rows)

    def per_call(name):
        n, own = tot.get(name, (0, 0.0))
        return own / n if n else 0.0

    def per_unit(name, units, scale):
        own = tot.get(name, (0, 0.0))[1]
        return own / units * scale if units else 0.0

    pairs, stats = tally.pairs, tally.stats
    out = {
        "trace.op_p50_s": statistics.median(op_scaled),
        "metrics.distance.ns_per_pair": per_unit(
            "metrics.distance", pairs.get("metrics.distance"), 1e9),
        "curves.lipschitz_estimate.ns_per_pair": per_unit(
            "curves.lipschitz_estimate", pairs.get("curves.lipschitz_estimate"), 1e9),
        "holder.fit_holder.ns_per_pair": per_unit(
            "holder.fit_holder", pairs.get("holder.fit_holder"), 1e9),
        "geodesic.solve.sweeps": statistics.mean(stats.get("sweeps", [0.0])),
        "geodesic.solve.us_per_point_update": per_unit(
            "geodesic.solve", sum(stats.get("point_updates", [])), 1e6),
        "geodesic.solve.gap_rel": statistics.mean(stats.get("gap_rel", [0.0])),
    }
    for name in ("metrics.check_metric_axioms", "curves.lipschitz_estimate", "curves.length",
                 "reparam.unit_speed_reparam", "holder.fit_holder",
                 "holder.hausdorff_covering_sum", "holder.koch_generator", "geodesic.solve",
                 "cli.load_curve", "cli.dumps"):
        out[name + "_s"] = per_call(name)
    if workload == "cli_oneshot":
        calls = tot.get("cli.main", (0, 0.0))[0]
        # library calls made directly by the CLI's own functions
        kernel = sum(r[2] for r in rows if r[3] >= 0 and not r[0].startswith("cli.")
                     and rows[r[3]][0].startswith("cli."))
        out["cli.import_s"] = statistics.median(r[2] for r in rows if r[0] == "cli.import")
        out["cli.stdout_bytes"] = statistics.mean(stats["stdout_bytes"])
        out["cli.kernel_s"] = kernel / calls if calls else 0.0
    else:
        out["cli.import_s"] = statistics.median(imports) * setup_factor
        out["cli.stdout_bytes"] = out["cli.kernel_s"] = 0.0
    return {k: out[k] for k in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "metricgeom", "__init__.py")):
        print(f"error: no metricgeom package under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)

    build, kind = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if build is not None:
        import metricgeom
        if tracer is not None:
            for mod, name in TRACED:
                tracer.wrap(getattr(metricgeom, mod), name)

    ops, setup_times, setup_probes, imports = set_up(args.workload, args.seed, tracer)
    tally = Tally()
    op_times, before, probes, rounds = measure(
        ops, args.seconds, kind, 1 if build is not None else 2, tracer, tally)
    who = resource.RUSAGE_SELF if build is not None else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    setup_scaled = scaled(setup_times, range(SETUP_REPS), setup_probes, "proc")
    op_scaled = scaled(op_times, before, probes, kind)
    print(json.dumps({
        "raw": {"setup_s": statistics.median(setup_times), "op_p50_s": statistics.median(op_times),
                "ops_per_s": len(op_times) / sum(op_times)},
        "rounds": rounds, "probe_kind": kind,
        "probe_ms": [round(p * 1e3, 2) for p in probes],
        "setup_probe_ms": [round(p * 1e3, 2) for p in setup_probes]}), file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "op_p50_s": (statistics.median(op_scaled), "s"),
            "ops_per_s": (len(op_scaled) / sum(op_scaled), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        op_factor = [s / d for s, d in zip(op_scaled, op_times)]
        setup_factor = statistics.median(s / d for s, d in zip(setup_scaled, setup_times))
        values = layer_metrics(args.workload, tracer, tally, op_scaled, op_factor,
                               setup_factor, imports)
        metrics = {k: (v, PER_LAYER[k]) for k, v in values.items()}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    line = json.dumps(result)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
