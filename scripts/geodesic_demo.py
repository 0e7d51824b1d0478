#!/usr/bin/env python3
"""Minimal-constant paths between (0,0) and (1,1) under a family of metrics.

Each solve starts from the affine path with every interior point moved
by Gaussian noise of scale 0.2 |y - x| / s (seed 0), since the affine
path itself is already optimal and would need no sweep.  Prints the
solved constant k against the lower bound s^(1-beta) d(x, y) that no
grid path can beat, the relative gap between them, the sweeps of
red-black over-relaxation toward the neighbours' midpoints run (about
3.4 per segment), whether the solved path is metrically straight, and
how far it sits from the affine segment.  The affine segment attains the bound for
every metric here: under strictly convex norms it is the unique
optimum, under l1 and the max norm merely one of many, and under
snowflakes k grows with the grid.
"""

import argparse
import math

import numpy as np

from metricgeom import (
    GeodesicProblem,
    NormSpec,
    Polyline,
    norm_metric,
    snowflake,
    solve,
    straightness_check,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--segments", type=int, default=32)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    start, end = [0.0, 0.0], [1.0, 1.0]
    cases = [
        ("l1", norm_metric(NormSpec(1))),
        ("l1.5", norm_metric(NormSpec(1.5))),
        ("l2", norm_metric(NormSpec(2))),
        ("l3", norm_metric(NormSpec(3))),
        ("linf", norm_metric(NormSpec(math.inf))),
        ("l2 snow 0.5", snowflake(norm_metric(NormSpec(2)), 0.5)),
    ]

    grid = np.linspace(0.0, 1.0, args.segments + 1)
    affine = np.column_stack([grid, grid])
    initial = affine.copy()
    rng = np.random.default_rng(0)
    initial[1:-1] += (0.2 * math.sqrt(2.0) / args.segments
                      * rng.normal(size=(args.segments - 1, 2)))

    print(f"{args.segments} segments, tolerance {args.tol:g}")
    print(f"{'metric':>12}  {'k':>10}  {'bound':>10}  {'gap':>9}  {'sweeps':>6}  "
          f"{'straight':>8}  {'|path-affine|':>13}")
    for name, metric in cases:
        res = solve(GeodesicProblem(metric, start, end,
                                    segment_count=args.segments, tolerance=args.tol,
                                    initial_path=Polyline(grid, initial)))
        straight = straightness_check(res.path, metric, 1e-9)
        dev = float(np.max(np.abs(res.path.points - affine)))
        print(f"{name:>12}  {res.k:>10.6f}  {res.lower_bound:>10.6f}  {res.gap:>9.1e}  "
              f"{res.iterations:>6}  {str(straight):>8}  {dev:>13.2e}")

    print(
        "\nnote: for the snowflaked metric the discrete optimum is still the "
        "equispaced straight path, but k = s^(1-beta) d(x,y) grows with the "
        "segment count s; no order-1 Lipschitz curve joins distinct points "
        "in that geometry."
    )


if __name__ == "__main__":
    main()
