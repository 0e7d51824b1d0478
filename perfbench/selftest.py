#!/usr/bin/env python3
"""Fast self-test of the benchmark's checks: python3 perfbench/selftest.py

Every check must accept a genuine metricgeom result on a small input and
refuse the same result deliberately perturbed.  Prints one line per case
and exits 1 if any case goes the wrong way.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import metricgeom as mg  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

L1 = mg.norm_metric(mg.NormSpec(1))
L2 = mg.norm_metric(mg.NormSpec(2))
SNOW = mg.snowflake(L2, 0.5)
RESULTS: list[bool] = []


def case(name: str, genuine, perturbed) -> None:
    ok = genuine is None and perturbed is not None
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: genuine -> {genuine}; perturbed -> {perturbed}")


def main() -> int:
    rng = np.random.default_rng(0)
    dim = checks.KOCH_DIM

    # covering sums: closed form at 4^j (l2), bracket [r, 2r] per block (l1)
    k5 = mg.koch_generator(5)
    sums = mg.hausdorff_covering_sum(k5, L2, dim, [4, 16, 64])
    case("covering closed form, sum * (1 + 1e-6)",
         checks.check_covering_closed_form(sums, [4, 16, 64], 1.0),
         checks.check_covering_closed_form([(s, v * (1 + 1e-6)) for s, v in sums], [4, 16, 64], 1.0))
    sums = mg.hausdorff_covering_sum(k5, L1, dim, [3, 9, 27])
    for factor in (3.0, 0.3):
        case(f"covering bracket, sum * {factor}",
             checks.check_covering_bracket(sums, [3, 9, 27], k5.points, 1.0, 1.0, dim),
             checks.check_covering_bracket([(s, v * factor) for s, v in sums], [3, 9, 27],
                                           k5.points, 1.0, 1.0, dim))

    # geodesics: a k below the bound, a moved point, a rising history
    x, y, segs = np.array([0.0, 0.0]), np.array([1.0, 2.0]), 8
    grid = np.linspace(0.0, 1.0, segs + 1)
    P = x + grid[:, None] * (y - x)
    P[1:-1] += 0.05 * rng.normal(size=(segs - 1, 2))
    res = mg.solve(mg.GeodesicProblem(SNOW, x, y, segment_count=segs,
                                      initial_path=mg.Polyline(grid, P)))
    good = checks.check_geodesic(res.k, res.k_history, res.path.points, x, y, segs, 2.0, 0.5)
    low = checks.geodesic_lower_bound(x, y, segs, 2.0, 0.5) * (1 - 1e-6)
    case("geodesic, k below the lower bound", good,
         checks.check_geodesic(low, res.k_history, res.path.points, x, y, segs, 2.0, 0.5))
    moved = res.path.points.copy()
    moved[3] += 1e-3
    case("geodesic, path point moved", good,
         checks.check_geodesic(res.k, res.k_history, moved, x, y, segs, 2.0, 0.5))
    case("geodesic, k_history rises", good,
         checks.check_geodesic(res.k, (res.k, res.k * 1.1, res.k), res.path.points, x, y, segs, 2.0, 0.5))

    # Holder fits: a wrong witness, a C some pair exceeds, sqrt's C off 1, the Koch order
    X = rng.uniform(size=(200, 2))
    Y = np.column_stack([np.sin(3 * X[:, 0]), X[:, 1] ** 2])
    fit = mg.fit_holder(X, Y, L2, SNOW, alpha=0.5)
    args = (X, Y, 2.0, 1.0, 2.0, 0.5)
    good = checks.check_witness(fit.C, fit.alpha, fit.witness, *args, rng=np.random.default_rng(1))
    i, j = fit.witness
    case("witness, wrong pair", good,
         checks.check_witness(fit.C, fit.alpha, (i, (j + 1) % len(X)), *args))
    ratios = checks.dist(Y[1:], Y[0], 2.0, 0.5) / checks.dist(X[1:], X[0], 2.0) ** 0.5
    mid = int(np.argsort(ratios)[len(ratios) // 2]) + 1
    case("witness, C that sampled pairs exceed", good,
         checks.check_witness(float(ratios[mid - 1]), 0.5, (0, mid), *args,
                              rng=np.random.default_rng(1)))
    xs = workloads._sqrt_grid(rng, 100)
    fit = mg.fit_holder(xs, np.sqrt(xs), L1, L1, alpha=0.5)
    case("sqrt fit, C = 1 + 1e-9", checks.check_sqrt_fit(fit.C, fit.alpha, fit.witness, xs),
         checks.check_sqrt_fit(fit.C + 1e-9, fit.alpha, fit.witness, xs))
    fit = mg.fit_holder(k5.params, k5.points, L1, L2)
    case("Koch order, alpha + 0.05", checks.check_koch_order(fit.alpha),
         checks.check_koch_order(fit.alpha + 0.05))

    # curves and metrics
    t, W = workloads._walk(rng, 200, 3)
    c = mg.Polyline(t, W)
    est = mg.lipschitz_estimate(c, SNOW)
    case("lipschitz, estimate * (1 + 1e-9)", checks.check_lipschitz(est, t, W, 2.0, 0.5),
         checks.check_lipschitz(est * (1 + 1e-9), t, W, 2.0, 0.5))
    k4 = mg.koch_generator(4)
    length = mg.length(k4, L2)
    case("Koch length, closed form (4/3)^4 * (1 + 1e-9)",
         checks.check_length(length, k4.points, 2.0, 1.0, closed_form=(4 / 3) ** 4),
         checks.check_length(length, k4.points, 2.0, 1.0, closed_form=(4 / 3) ** 4 * (1 + 1e-9)))
    A, B = rng.normal(size=(50, 3)), rng.normal(size=(50, 3))
    d = mg.distance(SNOW, A, B)
    bad = d.copy()
    bad[7] *= 1 + 1e-9
    case("distance, one entry * (1 + 1e-9)", checks.check_distances(d, A, B, 2.0, 0.5),
         checks.check_distances(bad, A, B, 2.0, 0.5))
    rep = mg.check_metric_axioms(SNOW, 500, 0, dim=3)
    broken = mg.AxiomReport(rep.checks[:2] + (dataclasses.replace(rep.checks[2], violations=1),))
    case("axioms, one triangle violation", checks.check_axiom_report(rep, 500),
         checks.check_axiom_report(broken, 500))
    t, P, D = workloads._parabola(rng, 300, 2, 2.0)
    out = mg.unit_speed_reparam(mg.SampledC1Curve(mg.Polyline(t, P), D), mg.NormSpec(2))
    params = out.params.copy()
    params[100] += 1e-6
    case("parabola reparam, one param + 1e-6",
         checks.check_parabola_reparam(out.params, out.points, t, P),
         checks.check_parabola_reparam(params, out.points, t, P))

    # CLI output
    line = b'{"k": 1.0}\n'
    case("CLI stdout, two JSON lines", None if checks.parse_stdout(line) else "refused",
         None if checks.parse_stdout(line + line) else "refused")
    case("CLI stdout, changed byte", checks.check_same_bytes(line, line),
         checks.check_same_bytes(b'{"k": 1.5}\n', line))

    print(f"{sum(RESULTS)}/{len(RESULTS)} cases behave")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
