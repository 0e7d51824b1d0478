"""End-to-end acceptance gates for the toolkit.

Each test prints one machine-greppable verdict line; run with

    pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np
import pytest

from metricgeom import (
    GeodesicProblem,
    NormSpec,
    Polyline,
    check_metric_axioms,
    distance,
    eval_norm,
    fit_holder,
    hausdorff_covering_sum,
    koch_generator,
    length,
    linfty_geodesic_family,
    lip_compose,
    lip_scale,
    lip_sum,
    lipschitz_estimate,
    norm_metric,
    snowflake,
    solve,
)
from metricgeom.holder import LipBound

INF = math.inf
REL_TOL = 1e-9


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_norm_inequality_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    dims = (1, 2, 3, 10, 100)
    per_dim = 20_000  # 1e5 vectors across the dimension set
    ps = (1.0, 1.5, 2.0, 3.0, INF)
    violations = 0
    for n in dims:
        X = rng.standard_normal((per_dim, n)) * 10.0 ** rng.uniform(-3, 3, (per_dim, 1))
        norms = {p: np.asarray(eval_norm(NormSpec(p), X)) for p in ps}
        n1, n2, ninf = norms[1.0], norms[2.0], norms[INF]
        checks = [
            ninf <= n2 * (1 + REL_TOL),
            n2 <= n1 * (1 + REL_TOL),
            n1 <= n * ninf * (1 + REL_TOL),
            n2 <= math.sqrt(n) * ninf * (1 + REL_TOL),
            n1 <= math.sqrt(n) * n2 * (1 + REL_TOL),
        ]
        for i, p in enumerate(ps):
            for q in ps[i + 1 :]:
                checks.append(norms[q] <= norms[p] * (1 + REL_TOL))
                checks.append(ninf <= norms[p] * (1 + REL_TOL))
        violations += int(sum(np.count_nonzero(~c) for c in checks))
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 10.0
    verdict(1, ok, f"{len(dims) * per_dim} vectors, {violations} violations, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 10.0


def test_criterion_2_metric_axiom_suite():
    rng = np.random.default_rng(2)
    triples = 100_000
    n = 3
    violations = 0
    for p in (1.0, 2.0, 3.0, INF):
        for beta in (1.0, 0.5, 0.25):
            m = snowflake(norm_metric(NormSpec(p)), beta)
            X = rng.standard_normal((triples, n)) * 10.0 ** rng.uniform(-2, 2, (triples, 1))
            Y = rng.standard_normal((triples, n)) * 10.0 ** rng.uniform(-2, 2, (triples, 1))
            Z = rng.standard_normal((triples, n)) * 10.0 ** rng.uniform(-2, 2, (triples, 1))
            lhs = distance(m, X, Z)
            rhs = distance(m, X, Y) + distance(m, Y, Z)
            violations += int(np.count_nonzero(lhs > rhs * (1 + REL_TOL)))

    # exponent 2 breaks the triangle inequality; only a raw callable can express it
    pseudo = lambda A, B: np.abs(np.asarray(A)[..., 0] - np.asarray(B)[..., 0]) ** 2
    one = np.array([[0.0]]), np.array([[1.0]]), np.array([[2.0]])
    d02 = float(pseudo(one[0], one[2])[0])
    d01_12 = float(pseudo(one[0], one[1])[0] + pseudo(one[1], one[2])[0])
    counterexample_exact = d02 == 4.0 and d01_12 == 2.0 and d02 > d01_12
    flagged = not check_metric_axioms(pseudo, 2000, seed=3, dim=1).passed

    ok = violations == 0 and counterexample_exact and flagged
    verdict(2, ok, f"12 metrics x {triples} triples, {violations} violations; "
                   f"beta=2 counterexample 4 > 2 reproduced={counterexample_exact}")
    assert violations == 0
    assert counterexample_exact
    assert flagged


def test_criterion_3_geodesic_optimality_strictly_convex():
    results = []
    for p in (2.0, 3.0):
        metric = norm_metric(NormSpec(p))
        target = distance(metric, [0.0, 0.0], [1.0, 1.0])
        for segments in (16, 64):
            started = time.perf_counter()
            res = solve(GeodesicProblem(metric, [0.0, 0.0], [1.0, 1.0],
                                        segment_count=segments))
            elapsed = time.perf_counter() - started
            grid = np.linspace(0.0, 1.0, segments + 1)
            affine = np.column_stack([grid, grid])
            deviation = float(
                np.max(distance(metric, res.path.points, affine))
            )
            results.append((p, segments, abs(res.k - target), deviation, elapsed))
    ok = all(dk <= 1e-3 and dev <= 1e-2 and dt < 5.0 for _, _, dk, dev, dt in results)
    worst = max(r[2] for r in results)
    verdict(3, ok, f"4 instances, worst |k - d(endpoints)| = {worst:.2e}")
    for p, segments, dk, dev, dt in results:
        assert dk <= 1e-3, (p, segments)
        assert dev <= 1e-2, (p, segments)
        assert dt < 5.0, (p, segments)


def test_criterion_10_geodesic_perturbed_starts():
    # 32 segments from (0, 0) to (1, 1), each interior point moved by
    # Gaussian noise of scale 0.2 |y - x| / s; the optimum is
    # k* = s^(1 - beta) * |y - x|_p^beta, computed here from the lp formula
    segments = 32
    x, y = np.zeros(2), np.ones(2)
    grid = np.linspace(0.0, 1.0, segments + 1)
    points = x + grid[:, None] * (y - x)
    rng = np.random.default_rng(0)
    points[1:-1] += (0.2 * math.sqrt(2.0) / segments
                     * rng.normal(size=(segments - 1, 2)))
    start = Polyline(grid, points)
    results = []
    for name, metric, p, beta in (
        ("l2", norm_metric(NormSpec(2)), 2.0, 1.0),
        ("l1", norm_metric(NormSpec(1)), 1.0, 1.0),
        ("l2^0.5", snowflake(norm_metric(NormSpec(2)), 0.5), 2.0, 0.5),
    ):
        k_star = segments ** (1.0 - beta) * float(np.sum(np.abs(y - x) ** p) ** (1.0 / p)) ** beta
        started = time.perf_counter()
        res = solve(GeodesicProblem(metric, x, y, segment_count=segments,
                                    initial_path=start))
        elapsed = time.perf_counter() - started
        short = solve(GeodesicProblem(metric, x, y, segment_count=segments,
                                      max_iters=50, initial_path=start))
        results.append((name, res.converged, (res.k - k_star) / k_star, elapsed,
                        short.converged, (short.k - k_star) / k_star))
    ok = all(conv and gap <= 1e-9 and dt < 2.0 and not short_conv and short_gap > 1e-9
             for _, conv, gap, dt, short_conv, short_gap in results)
    worst = max(r[2] for r in results)
    verdict(10, ok, f"3 perturbed starts, worst gap = {worst:.2e}")
    for name, conv, gap, dt, short_conv, short_gap in results:
        assert conv, name
        assert gap <= 1e-9, name
        assert dt < 2.0, name
        assert not short_conv, name
        assert short_gap > 1e-9, name


def test_criterion_4_nonuniqueness_witnesses():
    l1 = norm_metric(NormSpec(1))
    stair = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    t = np.linspace(0.0, 1.0, 17)
    diag = Polyline(t, np.column_stack([t, t]))
    endpoint_rate = distance(l1, [0.0, 0.0], [1.0, 1.0])
    lengths_exact = (
        length(stair, l1) == 2.0 and length(diag, l1) == 2.0 and endpoint_rate == 2.0
    )

    linf = norm_metric(NormSpec(INF))
    grid = np.linspace(0.0, 1.0, 65)
    estimates = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        phi = np.zeros_like(grid)
        for _ in range(int(rng.integers(2, 6))):
            center = rng.uniform(0.15, 0.85)
            height = rng.uniform(0.0, min(center, 1.0 - center))
            phi = np.maximum(phi, np.maximum(0.0, height - np.abs(grid - center)))
        curve = linfty_geodesic_family(phi)
        estimates.append(lipschitz_estimate(curve, linf))
    family_ok = all(e <= 1.0 + 1e-12 for e in estimates)

    ok = lengths_exact and family_ok
    verdict(4, ok, f"staircase/diagonal lengths exact={lengths_exact}; "
                   f"10 max-norm graphs, max estimate {max(estimates):.15f}")
    assert lengths_exact
    assert family_ok


def test_criterion_5_reparameterization_parabola():
    from metricgeom import SampledC1Curve, unit_speed_reparam

    t = np.linspace(0.1, 1.0, 10_000)
    base = Polyline(t, np.column_stack([t * t / 2.0, np.zeros_like(t)]))
    curve = SampledC1Curve(base, np.column_stack([t, np.zeros_like(t)]))
    out = unit_speed_reparam(curve, NormSpec(2))
    closed_form = (t * t - 0.01) / 2.0
    param_err = float(np.max(np.abs(out.params - closed_form)))
    estimate = lipschitz_estimate(out, norm_metric(NormSpec(2)))
    ok = param_err <= 1e-6 and 1.0 - 1e-4 <= estimate <= 1.0 + 1e-4
    verdict(5, ok, f"profile error {param_err:.2e}, output estimate {estimate:.8f}")
    assert param_err <= 1e-6
    assert 1.0 - 1e-4 <= estimate <= 1.0 + 1e-4


def test_criterion_6_length_bound():
    rng = np.random.default_rng(6)
    metrics = [
        norm_metric(NormSpec(1)),
        norm_metric(NormSpec(1.5)),
        norm_metric(NormSpec(2)),
        norm_metric(NormSpec(3)),
        norm_metric(NormSpec(INF)),
        snowflake(norm_metric(NormSpec(2)), 0.5),
    ]
    violations = 0
    for i in range(1000):
        n = int(rng.integers(2, 30))
        dim = int(rng.integers(1, 4))
        params = np.cumsum(rng.uniform(0.01, 1.0, n)) + rng.uniform(-5, 5)
        points = rng.standard_normal((n, dim)) * 10.0 ** rng.uniform(-1, 2)
        c = Polyline(params, points)
        m = metrics[i % len(metrics)]
        span = c.interval[1] - c.interval[0]
        if length(c, m) > lipschitz_estimate(c, m) * span * (1 + REL_TOL) + 1e-12:
            violations += 1
    ok = violations == 0
    verdict(6, ok, f"1000 random polylines, {violations} violations")
    assert violations == 0


def test_criterion_7_holder_fitting():
    started = time.perf_counter()
    l1 = norm_metric(NormSpec(1))
    l2 = norm_metric(NormSpec(2))

    xs = np.linspace(0.0, 1.0, 1000)[:, None]
    sqrt_fit = fit_holder(xs, np.sqrt(xs), l1, l1, alpha=0.5)
    sqrt_ok = abs(sqrt_fit.C - 1.0) <= 1e-6

    koch = koch_generator(6)
    koch_fit = fit_holder(koch.params[:, None], koch.points, l1, l2)
    target = math.log(3.0) / math.log(4.0)
    koch_ok = abs(koch_fit.alpha - target) <= 0.03

    elapsed = time.perf_counter() - started
    ok = sqrt_ok and koch_ok and elapsed < 30.0
    verdict(7, ok, f"sqrt C = {sqrt_fit.C:.9f}; Koch alpha = {koch_fit.alpha:.4f} "
                   f"(target {target:.4f}); {elapsed:.2f}s")
    assert sqrt_ok
    assert koch_ok
    assert elapsed < 30.0


def test_criterion_8_hausdorff_covering_proxy():
    l2 = norm_metric(NormSpec(2))
    koch = koch_generator(8)
    alpha = math.log(4.0) / math.log(3.0)
    sums = [v for _, v in hausdorff_covering_sum(koch, l2, alpha, [3, 9, 27, 81])]
    ratio = max(sums) / min(sums)
    koch_ok = ratio <= 3.0

    t = np.linspace(0.0, 1.0, 325)  # 324 segments, divisible by every scale
    segment = Polyline(t, np.column_stack([t, np.zeros_like(t)]))
    seg_sums = [v for _, v in hausdorff_covering_sum(segment, l2, 1.0, [3, 9, 27, 81])]
    seg_ok = all(abs(v - 1.0) <= 1e-9 for v in seg_sums)

    ok = koch_ok and seg_ok
    verdict(8, ok, f"Koch sums spread factor {ratio:.3f} (<= 3); "
                   f"segment sums off by {max(abs(v - 1.0) for v in seg_sums):.1e}")
    assert koch_ok
    assert seg_ok


def test_criterion_9_lip_calculus_identities():
    # 32 x 32 grid of (C, alpha); witnesses are piecewise-linear with nodes
    # C * x^alpha at 100 sample points, genuinely (C, alpha)-Holder on [0, 1]
    xs = np.linspace(0.0, 1.0, 100)
    ii, jj = np.triu_indices(len(xs), k=1)
    gaps = xs[jj] - xs[ii]
    Cs = np.logspace(-2.0, 2.0, 32)
    alphas = np.linspace(0.1, 1.0, 32)
    slack = 1 + 1e-9
    violations = 0
    pairs = 0
    for C1 in Cs:
        for a in alphas:
            pairs += 1
            C2 = 2.0 * C1
            f = C1 * xs ** a
            g = C2 * (1.0 - xs) ** a

            bound = lip_sum(LipBound(C1, a), LipBound(C2, a))
            h = f + g
            if np.any(np.abs(h[jj] - h[ii]) > bound.C * gaps ** bound.alpha * slack + 1e-12):
                violations += 1

            bound = lip_scale(LipBound(C1, a), -2.5)
            h = -2.5 * f
            if np.any(np.abs(h[jj] - h[ii]) > bound.C * gaps ** bound.alpha * slack + 1e-12):
                violations += 1

            # outer C1 u^a applied after inner x^0.5 (a (1, 0.5) map on [0, 1])
            bound = lip_compose(LipBound(C1, a), LipBound(1.0, 0.5))
            h = C1 * np.sqrt(xs) ** a
            if np.any(np.abs(h[jj] - h[ii]) > bound.C * gaps ** bound.alpha * slack + 1e-12):
                violations += 1
    ok = violations == 0
    verdict(9, ok, f"{pairs} (C, alpha) grid points x 3 identities, {violations} violations")
    assert violations == 0


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
