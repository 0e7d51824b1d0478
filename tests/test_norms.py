import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metricgeom import (
    DimensionMismatch,
    GeodesicProblem,
    NormSpec,
    Polyline,
    SampledC1Curve,
    ball_containment_check,
    basis,
    check_norm_axioms,
    check_order_gt1_constant,
    check_unit_ball_convexity,
    distance,
    eval_norm,
    fit_holder,
    hausdorff_covering_sum,
    is_strictly_convex,
    length,
    lipschitz_estimate,
    norm_metric,
    straightness_check,
)
from metricgeom.norms import _CHUNK_ROWS, _norm

INF = math.inf

finite_coords = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)


def vectors(min_dim=1, max_dim=6):
    return st.integers(min_dim, max_dim).flatmap(
        lambda n: arrays(np.float64, n, elements=finite_coords)
    )


def reference_lp(x, p):
    # plain textbook formula, independent of the max-factored evaluation path
    x = np.asarray(x, dtype=float)
    if p == INF:
        return np.max(np.abs(x))
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


class TestEvalNorm:
    def test_l1_345(self):
        assert eval_norm(NormSpec(1), [3, 4]) == 7.0

    def test_l2_345(self):
        assert eval_norm(NormSpec(2), [3, 4]) == 5.0

    def test_symmetric_vector_saturates_comparisons(self):
        x = [1, 1, 1, 1]
        assert eval_norm(NormSpec(INF), x) == 1.0
        assert eval_norm(NormSpec(1), x) == 4.0
        assert eval_norm(NormSpec(2), x) == 2.0

    def test_zero_iff_zero(self):
        assert eval_norm(NormSpec(3), [0.0, 0.0]) == 0.0
        assert eval_norm(NormSpec(3), [0.0, 1e-300]) > 0.0

    @pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
    def test_matches_reference_formula(self, p):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.standard_normal(5) * 10.0 ** rng.uniform(-3, 3)
            got = eval_norm(NormSpec(p), x)
            want = reference_lp(x, p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_batch_evaluation(self):
        X = np.array([[3.0, 4.0], [0.0, 1.0]])
        out = eval_norm(NormSpec(2), X)
        assert out.shape == (2,)
        assert list(out) == [5.0, 1.0]

    def test_weighted_norm(self):
        spec = NormSpec(2, weights=(2.0, 3.0))
        assert eval_norm(spec, [1, 1]) == pytest.approx(math.sqrt(13.0))

    def test_weighted_1d_is_scaled_absolute_value(self):
        # on the line every member of the family collapses to a|x|
        for p in (1.0, 2.0, 5.0, INF):
            assert eval_norm(NormSpec(p, weights=(3.0,)), [-2.0]) == 6.0

    def test_large_p_does_not_overflow(self):
        got = eval_norm(NormSpec(300), [1e200, 1e200])
        assert math.isfinite(got)
        assert got == pytest.approx(1e200 * 2.0 ** (1.0 / 300.0), rel=1e-12)

    def test_dimension_mismatch_with_weights(self):
        with pytest.raises(DimensionMismatch):
            eval_norm(NormSpec(2, weights=(1.0, 1.0)), [1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            eval_norm(NormSpec(2), [1.0, math.nan])

    def test_overflowing_norm_raises(self):
        with pytest.raises(ValueError, match="overflows"):
            eval_norm(NormSpec(1), [1e308, 1e308])
        with pytest.raises(ValueError, match="overflows"):
            eval_norm(NormSpec(2, weights=(10.0, 1.0)), [[1.0, 0.0], [1e308, 0.0]])
        assert eval_norm(NormSpec(2), [1e308, 1e308]) == pytest.approx(1e308 * math.sqrt(2.0))


class TestNormSpecValidation:
    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan])
    def test_rejects_bad_exponent(self, p):
        with pytest.raises(ValueError):
            NormSpec(p)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            NormSpec(2, weights=(1.0, 0.0))

    def test_infinity_is_distinguished(self):
        assert NormSpec(INF).p == INF
        assert NormSpec(1e9).p == 1e9  # large finite p stays a genuine p-norm


class TestBasis:
    def test_basis_vector(self):
        assert list(basis(3, 1)) == [0.0, 1.0, 0.0]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            basis(3, 3)

    def test_basis_bound(self):
        # N(x) <= max_j N(e_j) * ||x||_1 for every norm in the family
        rng = np.random.default_rng(3)
        specs = [NormSpec(p) for p in (1, 1.5, 2, 3, INF)]
        specs.append(NormSpec(2, weights=(0.5, 2.0, 1.0, 3.0)))
        for spec in specs:
            for _ in range(100):
                x = rng.standard_normal(4) * 10.0 ** rng.uniform(-2, 2)
                cap = max(eval_norm(spec, basis(4, j)) for j in range(4))
                assert eval_norm(spec, x) <= cap * eval_norm(NormSpec(1), x) * (1 + 1e-12)


class TestAxiomChecks:
    def test_l2_is_a_norm(self):
        report = check_norm_axioms(NormSpec(2), 1000, seed=0, dim=3)
        assert report.passed
        assert report.worst_margin <= 1e-12

    def test_p_between_one_and_two(self):
        report = check_norm_axioms(NormSpec(1.5), 1000, seed=1, dim=4)
        assert report.passed

    @pytest.mark.parametrize("p", [1, 2, 3, INF])
    def test_unit_ball_convex(self, p):
        report = check_unit_ball_convexity(NormSpec(p), 1000, seed=2, dim=3)
        assert report.passed

    def test_weighted_norm_axioms(self):
        report = check_norm_axioms(NormSpec(3, weights=(0.5, 4.0)), 500, seed=3)
        assert report.passed

    def test_requires_dimension_when_unweighted(self):
        with pytest.raises(ValueError):
            check_norm_axioms(NormSpec(2), 10, seed=0)

    def test_report_structure(self):
        report = check_norm_axioms(NormSpec(1), 64, seed=5, dim=2)
        assert [c.name for c in report.checks] == [
            "positivity",
            "homogeneity",
            "subadditivity",
        ]
        assert report["subadditivity"].samples == 64


class TestStrictConvexity:
    def test_euclidean_is_strictly_convex(self):
        assert is_strictly_convex(NormSpec(2), 2)

    def test_l1_linf_are_not_in_higher_dims(self):
        assert not is_strictly_convex(NormSpec(1), 2)
        assert not is_strictly_convex(NormSpec(INF), 3)

    def test_dimension_one_special_case(self):
        # every norm on the line is a multiple of |x|, which is strictly convex
        assert is_strictly_convex(NormSpec(INF), 1)
        assert is_strictly_convex(NormSpec(1), 1)

    def test_open_range_of_p(self):
        assert is_strictly_convex(NormSpec(1.0001), 5)
        assert is_strictly_convex(NormSpec(1000.0), 5)

    def test_weights_do_not_change_the_answer(self):
        assert is_strictly_convex(NormSpec(2, weights=(1.0, 5.0)))
        assert not is_strictly_convex(NormSpec(1, weights=(1.0, 5.0)))


class TestInequalityProperties:
    @given(vectors())
    def test_chain(self, x):
        ninf = eval_norm(NormSpec(INF), x)
        n2 = eval_norm(NormSpec(2), x)
        n1 = eval_norm(NormSpec(1), x)
        tol = 1e-12 * max(1.0, n1)
        assert ninf <= n2 + tol
        assert n2 <= n1 + tol

    @given(vectors())
    def test_dimension_comparisons(self, x):
        n = len(x)
        ninf = eval_norm(NormSpec(INF), x)
        n2 = eval_norm(NormSpec(2), x)
        n1 = eval_norm(NormSpec(1), x)
        tol = 1e-12 * max(1.0, n1)
        assert n1 <= n * ninf + tol
        assert n2 <= math.sqrt(n) * ninf + tol
        assert n1 <= math.sqrt(n) * n2 + tol

    @given(vectors())
    @settings(deadline=None)
    def test_monotone_in_p(self, x):
        ps = [1.0, 1.5, 2.0, 3.0, INF]
        norms = [eval_norm(NormSpec(p), x) for p in ps]
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                # p <= q forces ||x||_q <= ||x||_p
                assert norms[j] <= norms[i] * (1 + 1e-12) + 1e-300

    @given(
        vectors(),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        st.sampled_from([1.0, 1.5, 2.0, 3.0, INF]),
    )
    def test_homogeneity(self, x, r, p):
        spec = NormSpec(p)
        lhs = eval_norm(spec, r * np.asarray(x, dtype=float))
        rhs = abs(r) * eval_norm(spec, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def _cols_cases(dim: int, rng) -> list[np.ndarray]:
    """Coordinate-major arrays over several batch shapes and magnitudes."""
    cases = []
    for batch in [(), (1,), (5,), (3, 4), (2, 16, 16), (9000,)]:
        for mag in (-300, -150, -10, 0, 10, 150, 300):
            shape = (dim,) + batch
            D = rng.normal(size=shape) * 10.0 ** (mag + rng.uniform(-6.0, 6.0, shape))
            zero = rng.uniform(size=batch) < 0.1
            D[:, zero] = 0.0  # whole zero vectors
            D[rng.uniform(size=D.shape) < 0.2] = 0.0  # and zero coordinates
            cases.append(D)
    return cases


def _rows_lp(spec: NormSpec, V: np.ndarray, exact: bool = False) -> np.ndarray:
    """The weighted lp norm over the last axis, written apart from the library.

    Max-factored as the library is.  Below 8 coordinates numpy 2.4's
    sum() adds a row in order and einsum() adds the even and the odd
    squares apart, the order the kernel fixes for every dimension; with
    ``exact`` every sum is math.fsum's instead.  A single point is taken
    as a batch of one, as the kernel takes it: numpy's power of a scalar
    may round apart from its power of an array.
    """
    A = np.abs(V) if spec.weights is None else np.abs(V) * np.asarray(spec.weights)
    A = A.reshape(-1, A.shape[-1])

    def add(T):
        return np.array([math.fsum(r) for r in T]) if exact else T.sum(axis=-1)

    if spec.p == INF:
        out = A.max(axis=-1)
    elif spec.p == 1.0:
        out = add(A)
    else:
        top = A.max(axis=-1)
        unit = A / np.where(top > 0.0, top, 1.0)[:, None]
        if spec.p == 2.0 and not exact:
            power_sum = np.einsum("ij,ij->i", unit, unit)
        else:
            power_sum = add(unit * unit if spec.p == 2.0 else unit ** spec.p)
        out = top * power_sum ** (1.0 / spec.p)
    return out.reshape(V.shape[:-1])


class TestNormOracle:
    """The coordinate-major kernel against row-major references.

    Below 8 coordinates it equals ``_rows_lp`` bit for bit; from 8 on
    numpy sums a row pairwise in eight lanes, while the kernel keeps its
    fixed order, so there it is held to 4 ulp of the exact power sums.
    """

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("dim", range(1, 10))
    def test_matches_a_row_major_reference(self, dim, p, weighted):
        rng = np.random.default_rng(dim * 100 + int(weighted))
        spec = NormSpec(p, tuple(rng.uniform(0.25, 4.0, dim)) if weighted else None)
        with np.errstate(over="ignore", under="ignore"):
            for D in _cols_cases(dim, rng):
                V = np.ascontiguousarray(np.moveaxis(D, 0, -1))
                got = np.asarray(_norm(spec, D))
                want = _rows_lp(spec, V, exact=dim >= 8)
                assert got.shape == want.shape
                if dim < 8:
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # bit for bit
                else:
                    assert np.all((got == 0.0) == (want == 0.0))
                    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4  # ulp


CHUNK_SIZES = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestRowFront:
    """Row-major batches reach the kernel a chunk of rows at a time, and
    get the bits of one unchunked call on a C-contiguous coordinate-major
    copy, whatever the layout the caller holds."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    @pytest.mark.parametrize("count", CHUNK_SIZES)
    def test_eval_norm_matches_one_unchunked_call(self, count, p, weighted):
        rng = np.random.default_rng(count)
        spec = NormSpec(p, (0.5, 2.0, 3.0) if weighted else None)
        V = rng.normal(size=(2, count, 3)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, count, 1))
        want = _norm(spec, np.ascontiguousarray(V.reshape(-1, 3).T)).reshape(2, count)
        assert same_bits(eval_norm(spec, V), want)
        assert same_bits(eval_norm(spec, V[1]), want[1])

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, INF])
    def test_strided_view_gets_the_bits_of_its_c_copy(self, p, weighted):
        rng = np.random.default_rng(7)
        spec = NormSpec(p, (0.5, 2.0, 3.0) if weighted else None)
        W = rng.normal(size=(3 * _CHUNK_ROWS + 5, 6)) * 10.0 ** rng.uniform(-3.0, 3.0, (1, 6))
        for D in (W[:, :3].T, W[:, ::2].T, W[::3, 1:4].T):
            assert not D.flags.c_contiguous
            assert same_bits(_norm(spec, D), _norm(spec, np.ascontiguousarray(D)))


W3 = norm_metric(NormSpec(2, weights=(1.0, 2.0, 3.0)))
L2 = norm_metric(NormSpec(2))
X = np.linspace(0.0, 1.0, 5)
PLANE = np.column_stack([X, X])
CURVE = Polyline(X, PLANE)


class TestOneGate:
    """Every entry point checks points and dimensions with the same two rules."""

    # a weighted metric of dimension 3 against points of the plane
    @pytest.mark.parametrize("call", [
        lambda: eval_norm(W3.norm, [1.0, 2.0]),
        lambda: distance(W3, [0.0, 0.0], [1.0, 1.0]),
        lambda: ball_containment_check(W3, [0.0, 0.0], [1.0, 1.0], 1.0),
        lambda: GeodesicProblem(W3, [0.0, 0.0], [1.0, 1.0]),
        lambda: length(CURVE, W3),
        lambda: lipschitz_estimate(CURVE, W3),
        lambda: hausdorff_covering_sum(CURVE, W3, 1.0, [2]),
        # these four must check before the norm kernel, which fails with a reshape error
        lambda: fit_holder(PLANE, PLANE, W3, L2),
        lambda: fit_holder(PLANE, PLANE, L2, W3, alpha=1.0),
        lambda: check_order_gt1_constant(X, PLANE, W3, 2.0, 1.0),
        lambda: straightness_check(CURVE, W3, 1e-9),
        # a start path in R^3 between endpoints in the plane
        lambda: GeodesicProblem(L2, [0.0, 0.0], [1.0, 1.0], segment_count=4,
                                initial_path=Polyline(X, np.column_stack([X, X, X]))),
    ], ids=["eval_norm", "distance", "ball_containment_check", "GeodesicProblem", "length",
            "lipschitz_estimate", "hausdorff_covering_sum", "fit_holder_d1", "fit_holder_d2",
            "check_order_gt1_constant", "straightness_check", "initial_path"])
    def test_metric_of_the_wrong_dimension(self, call):
        with pytest.raises(DimensionMismatch):
            call()

    @pytest.mark.parametrize("bad", [
        np.array([[0.0, 0.0], [1.0, math.nan], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [2.0, -INF], [3.0, 0.0], [4.0, 0.0]]),
        np.zeros((5, 0)),
        np.zeros((5, 2, 1)),
    ], ids=["nan", "inf", "no coordinates", "3-d"])
    @pytest.mark.parametrize("call", [
        lambda P: Polyline(X, P),
        lambda P: SampledC1Curve(CURVE, P),
        lambda P: fit_holder(P, PLANE, L2, L2, alpha=1.0),
        lambda P: fit_holder(PLANE, P, L2, L2, alpha=1.0),
        lambda P: check_order_gt1_constant(X, P, L2, 2.0, 1.0),
    ], ids=["Polyline", "SampledC1Curve", "fit_holder_domain", "fit_holder_range",
            "check_order_gt1_constant"])
    def test_points_must_be_finite_with_coordinates(self, call, bad):
        with pytest.raises(ValueError) as info:
            call(bad)
        assert not isinstance(info.value, DimensionMismatch)
