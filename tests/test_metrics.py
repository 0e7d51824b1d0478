import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metricgeom import (
    DimensionMismatch,
    Metric,
    NormSpec,
    Polyline,
    ball_containment_check,
    check_metric_axioms,
    distance,
    eval_norm,
    fit_holder,
    hausdorff_covering_sum,
    length,
    norm_metric,
    lipschitz_estimate,
    snowflake,
    snowflake_order_transfer,
)
from metricgeom.metrics import _dist
from metricgeom.norms import _CHUNK_ROWS

INF = math.inf
L1 = norm_metric(NormSpec(1))
L2 = norm_metric(NormSpec(2))

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def point_triples(dim=3):
    return st.tuples(*(arrays(np.float64, dim, elements=coords) for _ in range(3)))


class TestDistance:
    def test_euclidean(self):
        assert distance(L2, [0, 0], [1, 1]) == pytest.approx(math.sqrt(2.0))

    def test_snowflake_on_the_line(self):
        m = snowflake(norm_metric(NormSpec(1)), 0.5)
        assert distance(m, [0.0], [4.0]) == 2.0

    def test_double_snowflake_composes(self):
        twice = snowflake(snowflake(L2, 0.5), 0.5)
        assert twice.beta == 0.25
        rng = np.random.default_rng(0)
        for _ in range(50):
            x, y = rng.standard_normal((2, 3)) * 10.0 ** rng.uniform(-2, 2)
            direct = (distance(L2, x, y) ** 0.5) ** 0.5
            assert distance(twice, x, y) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            distance(L2, [0, 0], [1, 1, 1])

    @pytest.mark.parametrize("m", [L1, L2, norm_metric(NormSpec(INF))])
    def test_points_need_a_coordinate(self, m):
        # empty points must stop before the norm kernel, which raises IndexError under l1
        with pytest.raises(ValueError, match="at least one coordinate"):
            distance(m, [], [])

    def test_overflowing_difference_raises(self):
        # 2e308 overflows; the norm used to come back as nan without warning
        for m in (L1, L2, snowflake(L2, 0.5), norm_metric(NormSpec(INF))):
            with pytest.raises(ValueError, match="overflows"):
                distance(m, [1e308, 0.0], [-1e308, 0.0])
        with pytest.raises(ValueError, match="overflows"):
            distance(L2, [[0.0, 0.0], [1e308, 0.0]], [[1.0, 1.0], [-1e308, 0.0]])
        assert distance(L2, [1e308, 0.0], [0.0, 0.0]) == 1e308

    @given(arrays(np.float64, 3, elements=coords), arrays(np.float64, 3, elements=coords))
    def test_symmetry_is_exact(self, x, y):
        for m in (L1, L2, snowflake(L2, 0.5)):
            assert distance(m, x, y) == distance(m, y, x)

    def test_self_distance_is_exactly_zero(self):
        x = np.array([1.7, -2.3, 0.1])
        for m in (L1, snowflake(L2, 0.25)):
            assert distance(m, x, x) == 0.0


class TestSnowflakeConstruction:
    def test_rejects_beta_above_one(self):
        with pytest.raises(ValueError):
            snowflake(L2, 2.0)
        with pytest.raises(ValueError):
            Metric(NormSpec(2), 1.5)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            snowflake(L2, 0.0)

    def test_identity_snowflake_allowed(self):
        m = snowflake(L2, 1.0)
        assert m.beta == 1.0

    def test_accepts_norm_spec_directly(self):
        m = snowflake(NormSpec(1), 0.5)
        assert m.beta == 0.5


class TestMetricAxioms:
    def test_snowflaked_absolute_value(self):
        m = snowflake(norm_metric(NormSpec(1)), 0.5)
        report = check_metric_axioms(m, 2000, seed=0, dim=1)
        assert report.passed

    def test_l1_metric(self):
        report = check_metric_axioms(L1, 1000, seed=1, dim=3)
        assert report.passed

    def test_beta_2_pseudo_snowflake_fails(self):
        # not constructible as a Metric; only via the raw-callable escape hatch
        pseudo = lambda X, Y: np.abs(np.asarray(X)[..., 0] - np.asarray(Y)[..., 0]) ** 2
        assert pseudo(np.array([[0.0]]), np.array([[2.0]]))[0] == 4.0
        legs = pseudo(np.array([[0.0]]), np.array([[1.0]]))[0] + pseudo(
            np.array([[1.0]]), np.array([[2.0]])
        )[0]
        assert legs == 2.0
        assert 4.0 > legs  # the exact counterexample
        report = check_metric_axioms(pseudo, 2000, seed=2, dim=1)
        assert not report.passed
        assert report["triangle"].violations > 0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        # no margin exceeds a nan tolerance, so this non-metric would pass
        squared = lambda A, B: ((A - B) ** 2).sum(-1)  # noqa: E731
        with pytest.raises(ValueError, match="tolerance"):
            check_metric_axioms(squared, 200, dim=2, tol=tol)

    def test_nan_distances_are_violations(self):
        # nan on every other distinct pair: no nan margin exceeds the
        # tolerance, and each must still count as a violation
        def every_other_nan(A, B):
            d = np.sqrt(((A - B) ** 2).sum(-1))
            d[1::2] = np.where(d[1::2] > 0.0, math.nan, 0.0)
            return d

        report = check_metric_axioms(every_other_nan, 100, seed=0, dim=2)
        assert not report.passed
        assert [c.violations for c in report] == [50, 50, 50]

    def test_callable_requires_dim(self):
        with pytest.raises(ValueError):
            check_metric_axioms(lambda X, Y: np.zeros(len(X)), 10, seed=0)

    @given(point_triples(), st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(deadline=None, max_examples=60)
    def test_snowflake_triangle_inequality(self, xyz, beta):
        x, y, z = xyz
        m = snowflake(L2, beta)
        dxz = distance(m, x, z)
        legs = distance(m, x, y) + distance(m, y, z)
        assert dxz <= legs + 1e-9 * max(1.0, legs)


class TestBallContainment:
    def test_same_center_identity_case(self):
        report = ball_containment_check(L2, [1.0, 2.0], [1.0, 2.0], 1.5, 500, seed=0)
        assert report.passed

    def test_l1_shifted_center(self):
        report = ball_containment_check(L1, [0.0, 0.0], [1.0, 0.0], 1.0, 1000, seed=1)
        assert report.passed

    def test_snowflaked_l2_shifted_center(self):
        m = snowflake(L2, 0.5)
        report = ball_containment_check(m, [0.0, 0.0], [1.0, 0.0], 1.0, 1000, seed=2)
        assert report.passed

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            ball_containment_check(L2, [0.0], [1.0], 0.0)

    @pytest.mark.parametrize("r", [INF, math.nan])
    def test_rejects_non_finite_radius(self, r):
        # an infinite radius makes every margin nan
        with pytest.raises(ValueError, match="radius"):
            ball_containment_check(L2, [0.0, 0.0], [1.0, 1.0], r, 100)

    def test_radius_beyond_the_float_range_raises(self):
        # r^(1/beta) = 1e600 is beyond the float range
        with pytest.raises(ValueError, match="radius"):
            ball_containment_check(snowflake(L2, 0.5), [0.0, 0.0], [1.0, 1.0], 1e300, 100)

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    def test_overflowing_margins_raise(self, p):
        # d(q, z) overflows: its nan margin would be a false violation
        m = norm_metric(NormSpec(p))
        with pytest.raises(ValueError, match="overflows the float range"):
            ball_containment_check(m, [0.0, 0.0], [-1e308, 0.0], 1.7e308, 100)

    def test_bounded_set_transport(self):
        # sampled z with d(p, z) <= r always satisfies d(q, z) <= r + d(p, q)
        rng = np.random.default_rng(5)
        m = snowflake(L1, 0.75)
        p = np.array([0.5, -1.0])
        q = np.array([2.0, 3.0])
        r = 2.0
        report = ball_containment_check(m, p, q, r, 2000, seed=6)
        assert report["closed_ball_transport"].violations == 0
        assert report["open_ball_transport"].violations == 0


class TestOrderTransfer:
    def test_domain_mode(self):
        assert snowflake_order_transfer(1.0, 0.5, "domain") == 2.0

    def test_identity_beta(self):
        assert snowflake_order_transfer(1.0, 1.0, "domain") == 1.0
        assert snowflake_order_transfer(1.0, 1.0, "range") == 1.0

    def test_range_mode(self):
        assert snowflake_order_transfer(0.5, 0.5, "range") == 0.25

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            snowflake_order_transfer(0.0, 0.5)
        with pytest.raises(ValueError):
            snowflake_order_transfer(1.0, 1.5)
        with pytest.raises(ValueError):
            snowflake_order_transfer(1.0, 0.5, "sideways")

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, -math.inf])
    def test_rejects_non_finite_order(self, alpha):
        for mode in ("domain", "range"):
            with pytest.raises(ValueError, match="alpha"):
                snowflake_order_transfer(alpha, 0.5, mode)


class TestSnowflakeMonotonicity:
    @given(
        arrays(np.float64, 2, elements=coords),
        arrays(np.float64, 2, elements=coords),
    )
    @settings(max_examples=60)
    def test_direction_set_by_unit_distance(self, x, y):
        # t^beta is increasing in beta for t > 1 and decreasing for t < 1
        d = distance(L2, x, y)
        betas = [0.25, 0.5, 1.0]
        vals = [distance(snowflake(L2, b), x, y) for b in betas]
        if d > 1.0:
            assert vals[0] <= vals[1] <= vals[2]
        elif d < 1.0:
            assert vals[0] >= vals[1] >= vals[2]


class TestOneKernel:
    """Every entry point that reports d(x, y) of one pair rounds it alike.

    A caller that evaluates the norm on a path of its own (another
    reduction order, or the exponent applied elsewhere) fails here.
    """

    @pytest.mark.parametrize("beta", [1.0, 0.5])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_same_bits_everywhere(self, dim, p, weighted, beta):
        rng = np.random.default_rng(1000 * dim + 10 * int(weighted) + int(beta == 1.0))
        spec = NormSpec(p, tuple(rng.uniform(0.25, 4.0, dim)) if weighted else None)
        m = snowflake(norm_metric(spec), beta)
        for _ in range(4):
            x, y = rng.normal(size=(2, dim)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, dim))
            d = distance(m, x, y)
            assert length(Polyline([0.0, 1.0], [x, y]), m).hex() == d.hex()
            assert fit_holder([0.0, 1.0], [x, y], L1, m, alpha=1.0).C.hex() == d.hex()
            if 1.0 < p < INF:
                [(_, total)] = hausdorff_covering_sum(Polyline([0.0, 1.0], [x, y]), m,
                                                      1.0 / beta, [1])
                assert total.hex() == eval_norm(spec, x - y).hex()  # (N^beta)^(1/beta)


CHUNK_SIZES = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5]


def _unchunked(m, D):
    """d over the rows of D in one kernel call on a C-contiguous copy."""
    D = np.asarray(D)
    return _dist(m, np.ascontiguousarray(D.reshape(-1, D.shape[-1]).T)).reshape(D.shape[:-1])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowFront:
    """Row-major entry points, fed a chunk of rows at a time, keep the bits
    of one unchunked kernel call."""

    METRICS = [snowflake(norm_metric(NormSpec(p, w)), beta)
               for p in (1.0, 1.5, 2.0, 3.0, INF) for w in (None, (0.5, 2.0, 3.0))
               for beta in (1.0, 0.5)]

    @pytest.mark.parametrize("m", METRICS, ids=repr)
    @pytest.mark.parametrize("count", CHUNK_SIZES)
    def test_distance_length_and_lipschitz(self, count, m):
        rng = np.random.default_rng(count)
        X, Y = rng.normal(size=(2, 2, count, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, 2, count, 1))
        x = X[0, 0]
        assert same_bits(distance(m, X, Y), _unchunked(m, X - Y))
        assert same_bits(distance(m, X[1], Y[1]), _unchunked(m, X[1] - Y[1]))
        assert same_bits(distance(m, x, Y), _unchunked(m, x - Y))
        assert same_bits(distance(m, Y, x), _unchunked(m, Y - x))
        t = np.cumsum(rng.uniform(0.5, 1.5, count + 1))
        P = np.vstack([x, X[1]])
        steps = _unchunked(m, P[1:] - P[:-1])
        c = Polyline(t, P)
        assert length(c, m) == float(np.sum(steps))
        assert lipschitz_estimate(c, m) == float((steps / np.diff(t)).max())

    @pytest.mark.parametrize("m", METRICS, ids=repr)
    @pytest.mark.parametrize("count", CHUNK_SIZES)
    def test_check_metric_axioms(self, count, m):
        raw = lambda A, B: _unchunked(m, A - B)  # noqa: E731
        assert check_metric_axioms(m, count, seed=count, dim=3) == check_metric_axioms(
            raw, count, seed=count, dim=3)

    @pytest.mark.parametrize("m", [L2, norm_metric(NormSpec(INF)), snowflake(L2, 0.5)], ids=repr)
    def test_overflow_in_the_last_chunk_raises_without_a_warning(self, m):
        rng = np.random.default_rng(0)
        count = 20_000
        assert count > 2 * _CHUNK_ROWS
        X, Y = rng.normal(size=(2, count, 2))
        X[-1], Y[-1] = [1e308, 0.0], [-1e308, 0.0]
        P = np.vstack([Y[:-1], Y[-1], X[-1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                distance(m, X, Y)
            with pytest.raises(ValueError, match="overflows"):
                length(Polyline(np.arange(count + 1.0), P), m)
