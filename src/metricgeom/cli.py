"""Command-line surface: deterministic JSON reports over curve files.

Exit codes: 0 success, 1 property violation found, 2 parse error,
3 dimension or count mismatch, 4 numeric precondition failure.  A flag
whose text cannot be read as its type exits 2; a value read that the
library refuses exits 4.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .curves import Polyline, length, lipschitz_estimate
from .geodesic import GeodesicProblem, solve
from .holder import covering_resolution, fit_holder, hausdorff_covering_sum
from .metrics import Metric, check_metric_axioms, norm_metric, snowflake
from .norms import (
    DimensionMismatch,
    NormSpec,
    check_norm_axioms,
    check_unit_ball_convexity,
    eval_norm,
)
from .reparam import SampledC1Curve, SpeedFloorError, unit_speed_reparam
from .reporting import AxiomReport

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_NUMERIC = 4


class MetricSpecError(ValueError):
    """A metric spec string failed to parse."""


class CurveFormatError(ValueError):
    """A curve file failed to parse or validate."""


def parse_metric_spec(spec: str) -> Metric:
    """Parse 'lp:<p>[:snow:<beta>]...' into a Metric.

    p is a real >= 1 or 'inf'; each snow suffix applies a snowflake
    exponent in (0, 1].  Errors carry the offending token position.
    """
    tokens = spec.split(":")
    if len(tokens) < 2 or tokens[0] != "lp":
        raise MetricSpecError(f"metric spec {spec!r}: token 0: expected 'lp:<p>'")
    try:
        p = float(tokens[1])
    except ValueError:
        raise MetricSpecError(
            f"metric spec {spec!r}: token 1: {tokens[1]!r} is not a number or 'inf'"
        ) from None
    try:
        m = norm_metric(NormSpec(p))
    except ValueError as exc:
        raise MetricSpecError(f"metric spec {spec!r}: token 1: {exc}") from None
    i = 2
    while i < len(tokens):
        if tokens[i] != "snow" or i + 1 >= len(tokens):
            raise MetricSpecError(
                f"metric spec {spec!r}: token {i}: expected 'snow:<beta>'"
            )
        try:
            beta = float(tokens[i + 1])
        except ValueError:
            raise MetricSpecError(
                f"metric spec {spec!r}: token {i + 1}: {tokens[i + 1]!r} is not a number"
            ) from None
        try:
            m = snowflake(m, beta)
        except ValueError as exc:
            raise MetricSpecError(f"metric spec {spec!r}: token {i + 1}: {exc}") from None
        i += 2
    return m


def _fmt_float(x: float) -> str:
    # 17 significant digits round-trip IEEE doubles exactly
    if math.isnan(x) or math.isinf(x):
        return "null"
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize to JSON with deterministic float formatting."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, list) and all(type(v) is float for v in obj):
        return "[" + ", ".join(map(_fmt_float, obj)) + "]"  # the general path's text, faster
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def curve_to_dict(c: Polyline, derivs: np.ndarray | None = None) -> dict:
    out: dict = {"params": c.params.tolist(), "points": c.points.tolist()}
    if derivs is not None:
        out["derivs"] = np.asarray(derivs).tolist()
    return out


def load_curve(path: str) -> tuple[Polyline, np.ndarray | None]:
    """Read a curve from a JSON file, a CSV file, or stdin ('-', JSON only).

    JSON schema: {"params": [...], "points": [[...]], "derivs": [[...]]?}.
    CSV rows are t, x1, ..., xn with no header; lines of only whitespace
    are skipped, and a cell may be quoted.  ``Polyline`` and
    ``SampledC1Curve`` check the values.  Every fault raises
    ``CurveFormatError`` prefixed with the file's label.
    """
    label = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        if path.endswith(".csv"):
            lines = [line for line in text.splitlines() if line.strip()]
            if not lines:
                raise ValueError("empty curve file")
            rows = np.loadtxt(lines, delimiter=",", ndmin=2, comments=None, quotechar='"')
            return Polyline(rows[:, 0], rows[:, 1:]), None
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("expected a JSON object")
        curve = Polyline(data["params"], data["points"])
        derivs = data.get("derivs")
        return curve, None if derivs is None else SampledC1Curve(curve, derivs).derivs
    except KeyError as exc:
        raise CurveFormatError(f"{label}: field {exc}: missing") from None
    except (OSError, OverflowError, TypeError, ValueError) as exc:
        raise CurveFormatError(f"{label}: {exc}") from None


def _comma_list(kind: type):
    """An argparse type for comma-separated values of ``kind``; argparse
    exits 2 on text it cannot read, and the library checks the values."""
    def parse(text: str) -> list:
        return [kind(v) for v in text.split(",")]
    parse.__name__ = f"comma-separated {kind.__name__}"
    return parse


def _emit(obj) -> None:
    sys.stdout.write(dumps(obj) + "\n")


def cmd_length(args) -> int:
    curve, _ = load_curve(args.curve)
    metric = parse_metric_spec(args.metric)
    a, b = curve.interval
    # single-point curves have length 0 and estimate 0 by convention
    estimate = lipschitz_estimate(curve, metric) if len(curve) > 1 else 0.0
    _emit({
        "length": length(curve, metric),
        "lipschitz_estimate": estimate,
        "interval": [a, b],
    })
    return EXIT_OK


def cmd_geodesic(args) -> int:
    metric = parse_metric_spec(args.metric)
    prob = GeodesicProblem(
        metric=metric,
        start=args.start,
        end=args.end,
        segment_count=args.segments,
        tolerance=args.tol,
        max_iters=args.max_iters,
    )
    res = solve(prob)
    _emit({
        "converged": res.converged,
        "k": res.k,
        "lower_bound": res.lower_bound,
        "gap": res.gap,
        "iterations": res.iterations,
        "path": curve_to_dict(res.path),
    })
    return EXIT_OK


def cmd_reparam(args) -> int:
    curve, derivs = load_curve(args.curve)
    metric = parse_metric_spec(args.metric)
    if metric.beta != 1.0:
        raise MetricSpecError("reparam requires a plain norm metric (no snow suffix)")
    if derivs is None:
        raise CurveFormatError(f"{args.curve}: field 'derivs': required for reparam")
    c1 = SampledC1Curve(curve, derivs)
    out = unit_speed_reparam(c1, metric.norm, speed_floor=args.speed_floor)
    speeds = np.atleast_1d(eval_norm(metric.norm, derivs))
    _emit(curve_to_dict(out, derivs / speeds[:, None]))
    return EXIT_OK


def cmd_holder(args) -> int:
    dom, _ = load_curve(args.domain)
    rng_curve, _ = load_curve(args.range)
    d1 = parse_metric_spec(args.d1)
    d2 = parse_metric_spec(args.d2)
    fit = fit_holder(
        dom.points, rng_curve.points, d1, d2, alpha=args.alpha, seed=args.seed
    )
    _emit({
        "holder": fit.is_holder,
        "C": fit.C,
        "alpha": fit.alpha,
        "residual": fit.residual,
        "witness": list(fit.witness),
        "log_C": fit.log_C,
        "pairs_scanned": fit.pairs_scanned,
        "regression_pairs": fit.regression_pairs,
        "subsampled": fit.subsampled,
    })
    return EXIT_OK


def cmd_check(args) -> int:
    metric = parse_metric_spec(args.metric)
    reports: list[tuple[str, AxiomReport]] = [
        ("norm_axioms", check_norm_axioms(
            metric.norm, args.samples, args.seed, dim=args.dim, tol=args.tol)),
        ("unit_ball_convexity", check_unit_ball_convexity(
            metric.norm, args.samples, args.seed, dim=args.dim, tol=args.tol)),
        ("metric_axioms", check_metric_axioms(
            metric, args.samples, args.seed, dim=args.dim, tol=args.tol)),
    ]
    passed = all(r.passed for _, r in reports)
    _emit({
        "metric": args.metric,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "passed": passed,
        "suites": [
            {
                "suite": name,
                "checks": [
                    {
                        "name": c.name,
                        "violations": c.violations,
                        "worst_margin": c.worst_margin,
                        "tolerance": c.tolerance,
                    }
                    for c in rep.checks
                ],
            }
            for name, rep in reports
        ],
    })
    return EXIT_OK if passed else EXIT_VIOLATION


def cmd_covering(args) -> int:
    curve, _ = load_curve(args.curve)
    metric = parse_metric_spec(args.metric)
    sums = hausdorff_covering_sum(curve, metric, args.alpha, args.scales)
    counts = covering_resolution(curve, args.scales)
    _emit({
        "alpha": args.alpha,
        "sums": [{"scale": s, "sum": v} for s, v in sums],
        # per scale, in the order of sums: blocks, and blocks with 2 or more samples
        "blocks": [blocks for _, blocks, _ in counts],
        "resolved_blocks": [resolved for _, _, resolved in counts],
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricgeom",
        description="Geometry of curves in normed and snowflaked metric spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("length", help="partition-sum length and Lipschitz estimate")
    p.add_argument("curve", help="curve file (JSON, .csv, or - for stdin)")
    p.add_argument("--metric", required=True, help="metric spec, e.g. lp:2 or lp:1:snow:0.5")
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("geodesic", help="minimal-Lipschitz-constant path between points")
    p.add_argument("--start", required=True, type=_comma_list(float),
                   help="comma-separated coordinates")
    p.add_argument("--end", required=True, type=_comma_list(float),
                   help="comma-separated coordinates")
    p.add_argument("--metric", required=True)
    p.add_argument("--segments", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest relative optimality gap (k - bound) / bound to certify")
    p.add_argument("--max-iters", type=int, default=10_000, dest="max_iters")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("reparam", help="unit-speed reparameterization of a curve with derivs")
    p.add_argument("curve")
    p.add_argument("--metric", required=True, help="norm spec, snowflakes not allowed")
    p.add_argument("--speed-floor", type=float, default=1e-9, dest="speed_floor")
    p.set_defaults(func=cmd_reparam)

    p = sub.add_parser("holder", help="fit d2 <= C * d1^alpha between two sample files")
    p.add_argument("domain")
    p.add_argument("range")
    p.add_argument("--d1", required=True, help="domain metric spec")
    p.add_argument("--d2", required=True, help="range metric spec")
    p.add_argument("--alpha", type=float, default=None, help="fix the order; fit it if omitted")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_holder)

    p = sub.add_parser("check", help="norm and metric axiom suites on random samples")
    p.add_argument("--metric", required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("covering", help="finite-scale covering sums of a curve")
    p.add_argument("curve")
    p.add_argument("--metric", required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--scales", required=True, type=_comma_list(int),
                   help="comma-separated block counts")
    p.set_defaults(func=cmd_covering)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on syntax errors, 0 on --help
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (MetricSpecError, CurveFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimensionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION
    except (SpeedFloorError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
