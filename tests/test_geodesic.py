import math

import numpy as np
import pytest

from metricgeom import (
    GeodesicProblem,
    NormSpec,
    Polyline,
    distance,
    eval_norm,
    lipschitz_estimate,
    linfty_geodesic_family,
    norm_metric,
    snowflake,
    solve,
    straightness_check,
)

INF = math.inf
L1 = norm_metric(NormSpec(1))
L2 = norm_metric(NormSpec(2))
LINF = norm_metric(NormSpec(INF))


def affine_points(start, end, segments):
    grid = np.linspace(0.0, 1.0, segments + 1)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    return start[None, :] + grid[:, None] * (end - start)[None, :]


class TestSolve:
    def test_euclidean_diagonal(self):
        res = solve(GeodesicProblem(L2, [0.0, 0.0], [1.0, 1.0], segment_count=16))
        assert res.converged
        assert res.k == pytest.approx(math.sqrt(2.0), abs=1e-3)
        affine = affine_points([0, 0], [1, 1], 16)
        assert np.max(np.abs(res.path.points - affine)) <= 1e-3

    def test_coincident_endpoints(self):
        res = solve(GeodesicProblem(L1, [2.0, 3.0], [2.0, 3.0], segment_count=8))
        assert res.k == 0.0
        assert np.all(res.path.points == np.array([2.0, 3.0]))

    def test_l1_attains_endpoint_distance(self):
        res = solve(GeodesicProblem(L1, [0.0, 0.0], [1.0, 1.0], segment_count=16))
        assert res.k == pytest.approx(2.0, abs=1e-3)

    def test_endpoints_pinned_exactly(self):
        res = solve(GeodesicProblem(L2, [0.3, -1.0], [2.0, 0.5], segment_count=5))
        assert np.array_equal(res.path.points[0], [0.3, -1.0])
        assert np.array_equal(res.path.points[-1], [2.0, 0.5])
        assert np.array_equal(res.path.params, np.linspace(0.0, 1.0, 6))

    def test_relaxation_recovers_straight_segment(self):
        n = 8
        grid = np.linspace(0.0, 1.0, n + 1)
        base = np.column_stack([grid, grid])
        offsets = np.zeros_like(base)
        offsets[1:-1, 1] = 0.3 * (-1.0) ** np.arange(1, n)
        zigzag = Polyline(grid, base + offsets)
        prob = GeodesicProblem(
            L2, [0.0, 0.0], [1.0, 1.0],
            segment_count=n, tolerance=1e-13, max_iters=5000, initial_path=zigzag,
        )
        res = solve(prob)
        assert res.k == pytest.approx(math.sqrt(2.0), abs=1e-6)
        assert np.max(np.abs(res.path.points - base)) <= 1e-6

    def test_k_history_monotone_nonincreasing(self):
        n = 6
        grid = np.linspace(0.0, 1.0, n + 1)
        base = np.column_stack([grid, np.zeros(n + 1)])
        base[1:-1, 1] = [0.4, -0.2, 0.5, -0.1, 0.3]
        prob = GeodesicProblem(
            L2, [0.0, 0.0], [1.0, 0.0],
            segment_count=n, tolerance=1e-12, max_iters=2000,
            initial_path=Polyline(grid, base),
        )
        res = solve(prob)
        hist = np.array(res.k_history)
        assert np.all(np.diff(hist) <= 1e-12)

    @pytest.mark.parametrize(
        "metric", [L1, L2, LINF, norm_metric(NormSpec(3)), snowflake(L2, 0.5)]
    )
    def test_lower_bound_by_endpoint_distance(self, metric):
        start, end = [0.2, -0.4], [1.5, 2.0]
        res = solve(GeodesicProblem(metric, start, end, segment_count=12))
        assert res.k >= distance(metric, start, end) * (1 - 1e-12)

    def test_snowflake_constant_matches_straight_path_rate(self):
        # equispaced straight line is still minimax; each step costs (N(v)/s)^beta
        beta = 0.5
        m = snowflake(L2, beta)
        s = 16
        res = solve(GeodesicProblem(m, [0.0, 0.0], [1.0, 1.0], segment_count=s))
        expected = s ** (1.0 - beta) * math.sqrt(2.0) ** beta
        assert res.k == pytest.approx(expected, rel=1e-9)

    def test_doubling_segments_does_not_worsen_k(self):
        for metric in (L1, L2, norm_metric(NormSpec(3))):
            k16 = solve(
                GeodesicProblem(metric, [0.0, 0.0], [1.0, 1.0], segment_count=16)
            ).k
            k32 = solve(
                GeodesicProblem(metric, [0.0, 0.0], [1.0, 1.0], segment_count=32)
            ).k
            assert k32 <= k16 + 1e-9

    def test_strictly_convex_solution_is_straight(self):
        for p in (1.5, 2.0, 3.0):
            m = norm_metric(NormSpec(p))
            res = solve(GeodesicProblem(m, [0.0, 0.0], [1.0, 1.0], segment_count=16))
            assert straightness_check(res.path, m, 1e-9)
            affine = affine_points([0, 0], [1, 1], 16)
            assert np.max(np.abs(res.path.points - affine)) <= 1e-6

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            GeodesicProblem(L2, [0.0], [1.0], segment_count=0)
        with pytest.raises(ValueError):
            GeodesicProblem(L2, [0.0], [1.0], tolerance=0.0)
        # an infinite tolerance would certify any path
        for tol in (math.inf, math.nan):
            with pytest.raises(ValueError, match="tolerance"):
                GeodesicProblem(L2, [0.0], [1.0], tolerance=tol)
        bad = Polyline(np.linspace(0.0, 1.0, 4), np.zeros((4, 1)))
        with pytest.raises(ValueError):
            GeodesicProblem(L2, [0.0], [1.0], segment_count=3, initial_path=bad)

    @pytest.mark.parametrize("field", ["segment_count", "max_iters"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, 0, -3])
    def test_counts_must_be_integers(self, field, value):
        # a nan max_iters would run no sweep, and a fractional
        # segment_count cannot size the grid
        with pytest.raises(ValueError, match=field):
            GeodesicProblem(L2, [0.0], [1.0], **{field: value})

    def test_integral_counts_are_ints(self):
        # 4.0 and numpy ints pass the rule, as in covering sums' scales
        prob = GeodesicProblem(L2, [0.0, 0.0], [1.0, 1.0], segment_count=4.0,
                               max_iters=np.int64(50))
        assert type(prob.segment_count) is int and type(prob.max_iters) is int
        assert solve(prob).path == solve(GeodesicProblem(L2, [0.0, 0.0], [1.0, 1.0],
                                                         segment_count=4, max_iters=50)).path


def perturbed_start(start, end, segments, seed=0):
    grid = np.linspace(0.0, 1.0, segments + 1)
    points = affine_points(start, end, segments)
    points[-1] = end
    scale = 0.2 * float(np.linalg.norm(np.subtract(end, start))) / segments
    rng = np.random.default_rng(seed)
    points[1:-1] += scale * rng.normal(size=(segments - 1, len(start)))
    return Polyline(grid, points)


W3 = norm_metric(NormSpec(3, weights=(1.0, 0.5, 2.0)))
RED_BLACK_CASES = [
    (L2, [0.0, 0.0], [1.0, 1.0], 1),
    (L2, [0.0, 0.0], [1.0, 1.0], 2),  # no even interior point
    (L1, [0.3, -1.0], [2.0, 0.5], 3),
    (W3, [0.1, 0.2, 0.3], [1.0, -1.0, 0.5], 9),
    (snowflake(L2, 0.5), [0.0, 0.0], [1.0, 2.0], 10),
    (snowflake(W3, 0.3), [0.0, 0.0, 0.0], [-1.0, 0.5, 2.0], 7),
]


def reference_sweeps(metric, points, sweeps):
    """Red-black SOR sweeps written one point and one candidate at a time."""
    P = np.array(points, dtype=float)
    segments = len(P) - 1
    omega = 2.0 / (1.0 + math.sin(math.pi / segments))

    def local(c, a, b):
        return max(distance(metric, c, a), distance(metric, c, b))

    for _ in range(sweeps):
        for first in (1, 2):
            for i in range(first, segments, 2):
                a, b, cur = P[i - 1], P[i + 1], P[i].copy()
                mid = 0.5 * (a + b)
                incumbent = local(cur, a, b)
                sor = cur + omega * (mid - cur)
                if local(sor, a, b) < incumbent:
                    P[i] = sor
                elif local(mid, a, b) < incumbent:
                    P[i] = mid
    return P


class TestRedBlack:
    @pytest.mark.parametrize("metric, start, end, segments", RED_BLACK_CASES)
    def test_batched_sweeps_match_pointwise_reference(self, metric, start, end, segments):
        initial = perturbed_start(start, end, segments, seed=3)
        for sweeps in (1, 4):
            res = solve(GeodesicProblem(metric, start, end, segment_count=segments,
                                        max_iters=sweeps, initial_path=initial))
            expected = reference_sweeps(metric, initial.points, res.iterations)
            assert np.array_equal(res.path.points, expected)

    @pytest.mark.parametrize("metric, start, end, segments", RED_BLACK_CASES)
    def test_perturbed_start_is_monotone_and_pinned(self, metric, start, end, segments):
        prob = GeodesicProblem(metric, start, end, segment_count=segments,
                               initial_path=perturbed_start(start, end, segments))
        res = solve(prob)
        assert np.all(np.diff(res.k_history) <= 0.0)
        assert res.k_history[-1] == res.k
        assert len(res.k_history) == res.iterations + 1
        assert np.array_equal(res.path.points[0], start)
        assert np.array_equal(res.path.points[-1], end)
        assert res.converged
        assert res.gap <= prob.tolerance

    @pytest.mark.parametrize("metric, start, end, segments", RED_BLACK_CASES)
    def test_affine_start_is_certified_without_a_sweep(self, metric, start, end, segments):
        prob = GeodesicProblem(metric, start, end, segment_count=segments)
        res = solve(prob)
        expected = affine_points(start, end, segments)
        expected[-1] = end
        assert np.array_equal(res.path.points, expected)
        assert res.iterations == 0
        assert res.converged
        assert res.gap <= prob.tolerance
        assert res.k_history == (res.k,)

    @pytest.mark.parametrize("metric, start, end, segments", RED_BLACK_CASES)
    def test_lower_bound_and_gap(self, metric, start, end, segments):
        res = solve(GeodesicProblem(metric, start, end, segment_count=segments))
        bound = segments ** (1.0 - metric.beta) * distance(metric, start, end)
        assert res.lower_bound == pytest.approx(bound, rel=1e-15)
        assert res.gap == (res.k - res.lower_bound) / res.lower_bound

    def test_coincident_endpoints_perturbed_start_is_not_certified(self):
        # k shrinks toward 0 but never reaches it; the solver stops when a
        # whole sweep moves no point, well before its sweep budget
        start = perturbed_start([0.0, 0.0], [1.0, 1.0], 4).points.copy()
        start[-1] = start[0]
        prob = GeodesicProblem(L2, [0.0, 0.0], [0.0, 0.0], segment_count=4,
                               initial_path=Polyline(np.linspace(0, 1, 5), start))
        res = solve(prob)
        assert res.iterations < prob.max_iters
        assert res.k_history[-1] == res.k_history[-2]
        assert res.lower_bound == 0.0
        assert res.k > 0.0
        assert res.gap == math.inf
        assert not res.converged

    def test_budget_exhausted_is_not_converged(self):
        start, end = [0.0, 0.0], [1.0, 1.0]
        prob = GeodesicProblem(L2, start, end, segment_count=16, max_iters=5,
                               initial_path=perturbed_start(start, end, 16))
        res = solve(prob)
        assert res.iterations == 5
        assert not res.converged
        assert res.gap > prob.tolerance

    @pytest.mark.parametrize("metric, start, end, segments", RED_BLACK_CASES)
    def test_midpoint_is_the_exact_local_minimiser(self, metric, start, end, segments):
        # N(c - a) + N(b - c) >= N(b - a) bounds max(d(a, c), d(c, b)) below by
        # (N(b - a) / 2)^beta, which the midpoint attains
        rng = np.random.default_rng(segments)
        dim = len(start)
        for _ in range(20):
            a, b = rng.normal(size=(2, dim))
            mid = 0.5 * (a + b)
            optimum = (eval_norm(metric.norm, b - a) / 2.0) ** metric.beta
            at_mid = max(distance(metric, mid, a), distance(metric, mid, b))
            assert at_mid == pytest.approx(optimum, rel=1e-14)
            near = mid + 1e-3 * float(np.linalg.norm(b - a)) * rng.normal(size=(200, dim))
            vals = np.maximum(distance(metric, near, a), distance(metric, near, b))
            assert np.all(vals >= at_mid * (1.0 - 1e-14))

    @pytest.mark.parametrize("metric, start, end", [
        (L2, [0.0, 0.0], [1.0, 1.0]),
        (L1, [0.3, -1.0], [2.0, 0.5]),
        (W3, [0.1, 0.2, 0.3], [1.0, -1.0, 0.5]),
    ])
    @pytest.mark.parametrize("segments", [64, 256])
    def test_sweeps_grow_linearly_with_segments(self, metric, start, end, segments):
        # over-relaxation converges in O(s) sweeps; plain midpoint relaxation
        # needs O(s^2), about 6100 sweeps at 64 segments
        prob = GeodesicProblem(metric, start, end, segment_count=segments,
                               initial_path=perturbed_start(start, end, segments))
        res = solve(prob)
        assert res.converged
        assert res.gap <= prob.tolerance
        assert np.all(np.diff(res.k_history) <= 0.0)
        assert res.iterations <= 4 * segments


class TestStraightness:
    def test_euclidean_segment_samples(self):
        c = Polyline(np.linspace(0, 1, 9), affine_points([0, 0], [2, 1], 8))
        assert straightness_check(c, L2, 1e-9)

    def test_staircase_is_l1_straight(self):
        stair = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert straightness_check(stair, L1, 1e-9)

    def test_staircase_is_not_l2_straight(self):
        stair = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert not straightness_check(stair, L2, 1e-9)

    def test_needs_three_samples(self):
        with pytest.raises(ValueError):
            straightness_check(Polyline([0.0, 1.0], [[0.0], [1.0]]), L2, 1e-9)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # a detour through (5, 5) is far from straight; an infinite tolerance would pass it
        detour = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [5.0, 5.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            straightness_check(detour, L2, tol)


class TestMaxNormFamily:
    def test_flat_graph_is_the_segment(self):
        c = linfty_geodesic_family(np.zeros(9))
        assert np.allclose(c.points[:, 1], 0.0)
        assert lipschitz_estimate(c, LINF) == pytest.approx(1.0)

    def test_tent_graph_has_estimate_one(self):
        t = np.linspace(0.0, 1.0, 33)
        tent = np.minimum(t, 1.0 - t)
        c = linfty_geodesic_family(tent)
        assert lipschitz_estimate(c, LINF) <= 1.0 + 1e-12
        assert np.array_equal(c.points[0], [0.0, 0.0])
        assert np.array_equal(c.points[-1], [1.0, 0.0])

    def test_steep_slope_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        phi = 1.5 * np.minimum(t, 1.0 - t)  # secant slope 1.5
        with pytest.raises(ValueError):
            linfty_geodesic_family(phi)

    def test_nonzero_ends_rejected(self):
        with pytest.raises(ValueError):
            linfty_geodesic_family([0.0, 0.1, 0.2])

    def test_multiple_optima_under_l1(self):
        # the diagonal and the staircase both realize the l1 endpoint distance
        from metricgeom import length

        stair = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        t = np.linspace(0.0, 1.0, 17)
        diag = Polyline(t, np.column_stack([t, t]))
        assert length(stair, L1) == 2.0
        assert length(diag, L1) == 2.0
        assert distance(L1, [0.0, 0.0], [1.0, 1.0]) == 2.0
