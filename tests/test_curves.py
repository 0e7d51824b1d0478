import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgeom import (
    DimensionMismatch,
    NormSpec,
    Polyline,
    distance,
    eval_norm,
    glue,
    length,
    lipschitz_estimate,
    norm_metric,
    remove_constant_pieces,
    rescale,
    snowflake,
)

INF = math.inf
L1 = norm_metric(NormSpec(1))
L2 = norm_metric(NormSpec(2))
LINF = norm_metric(NormSpec(INF))

STAIRCASE = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])


@st.composite
def polylines(draw, max_samples=12, max_dim=3):
    n = draw(st.integers(2, max_samples))
    dim = draw(st.integers(1, max_dim))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=5.0, allow_nan=False),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    t0 = draw(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    params = np.concatenate([[t0], t0 + np.cumsum(gaps)])
    pts = draw(
        st.lists(
            st.lists(
                st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
                min_size=dim,
                max_size=dim,
            ),
            min_size=n,
            max_size=n,
        )
    )
    return Polyline(params, np.asarray(pts))


metrics_strategy = st.sampled_from(
    [L1, L2, LINF, norm_metric(NormSpec(1.5)), snowflake(L2, 0.5), snowflake(L1, 0.25)]
)


class TestPolyline:
    def test_validation(self):
        with pytest.raises(ValueError):
            Polyline([0.0, 1.0], [[0.0]])
        with pytest.raises(ValueError):
            Polyline([0.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            Polyline([1.0, 0.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            Polyline([0.0, math.inf], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            Polyline([], [])

    def test_scalar_points_promote_to_one_dim(self):
        c = Polyline([0.0, 1.0], [0.0, 4.0])
        assert c.dim == 1
        assert c.points.shape == (2, 1)

    def test_immutable(self):
        c = Polyline([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            c.points[0, 0] = 5.0

    def test_writable_inputs_are_copied(self):
        t, P = np.array([0.0, 1.0]), np.array([[0.0], [1.0]])
        c = Polyline(t, P)
        t[1], P[1, 0] = 3.0, 7.0
        assert c.params[1] == 1.0 and c.points[1, 0] == 1.0

    def test_read_only_owned_arrays_are_shared(self):
        c = Polyline([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        d = Polyline(c.params, c.points[::-1])  # a reversed view is copied
        assert d.params is c.params
        assert not np.shares_memory(d.points, c.points) and d.points.flags.c_contiguous
        F = np.asfortranarray(np.arange(6.0).reshape(3, 2))
        F.setflags(write=False)
        assert Polyline(c.params, F).points.flags.c_contiguous

    def test_equality(self):
        a = Polyline([0.0, 1.0], [[0.0], [1.0]])
        b = Polyline([0.0, 1.0], [[0.0], [1.0]])
        c = Polyline([0.0, 2.0], [[0.0], [1.0]])
        assert a == b
        assert a != c


class TestLength:
    def test_staircase_l1(self):
        assert length(STAIRCASE, L1) == 2.0

    def test_diagonal_l2(self):
        diag = Polyline([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        assert length(diag, L2) == pytest.approx(math.sqrt(2.0))

    def test_single_point(self):
        assert length(Polyline([0.0], [[3.0, 4.0]]), L2) == 0.0

    def test_overflowing_length_raises(self):
        # each coordinate is finite, their difference is not
        c = Polyline([0.0, 1.0], [[-1e308, 0.0], [1e308, 0.0]])
        with pytest.raises(ValueError, match="overflows the float range"):
            length(c, L2)

    def test_refinement_leaves_affine_length_unchanged(self):
        # inserting the geodesic midpoint of a segment preserves the sum
        c = Polyline([0.0, 1.0], [[0.0, 0.0], [2.0, 4.0]])
        refined = Polyline([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        for m in (L1, L2, LINF):
            assert length(refined, m) == pytest.approx(length(c, m), rel=1e-12)


def _oracle_curve(dim: int, rng, fast: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Non-uniform parameters; a walk with repeated points and a constant-speed run.

    With ``fast`` set, step ``fast`` of 60 (or the whole run, if it holds that
    step) is the longest and quickest, so the largest secant ratio sits there.
    """
    steps = rng.standard_normal((60, dim)) * rng.uniform(0.1, 3.0, (60, 1))
    steps[rng.random(60) < 0.2] = 0.0  # the sample repeats its predecessor
    gaps = rng.uniform(0.05, 1.0, 60)
    run = slice(20, 30)  # collinear, constant speed: its long secants tie its steps
    steps[run], gaps[run] = steps[20], gaps[20]
    if fast is not None:
        hot = run if 20 <= fast < 30 else fast
        steps[hot], gaps[hot] = 10.0, 0.01
    P = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    return np.concatenate([[0.0], np.cumsum(gaps)]), P


def _all_pairs_lipschitz(t, P, p, weights, beta) -> float:
    """Largest secant ratio over every sample pair, straight from the definitions."""
    w = np.ones(P.shape[1]) if weights is None else np.asarray(weights)
    ii, jj = np.triu_indices(len(t), k=1)
    A = np.abs(P[jj] - P[ii]) * w
    d = A.max(axis=1) if p == INF else (A ** p).sum(axis=1) ** (1.0 / p)
    return float((d ** beta / (t[jj] - t[ii])).max())


class TestLipschitzEstimate:
    @pytest.mark.parametrize(
        "spec",
        [NormSpec(1), NormSpec(2), NormSpec(INF), NormSpec(2, weights=(2.0, 0.5))],
    )
    def test_affine_samples_give_velocity_norm(self, spec):
        u = np.array([1.0, -2.0])
        v = np.array([3.0, 0.5])
        t = np.linspace(-1.0, 2.0, 13)
        c = Polyline(t, u[None, :] + t[:, None] * v[None, :])
        got = lipschitz_estimate(c, norm_metric(spec))
        assert got == pytest.approx(eval_norm(spec, v), rel=1e-12)

    def test_constant_curve_is_zero(self):
        c = Polyline([0.0, 1.0, 2.0], [[1.0, 1.0]] * 3)
        assert lipschitz_estimate(c, L2) == 0.0

    def test_staircase_brute_force(self):
        # independent oracle: scan the three pairs by hand
        pts = STAIRCASE.points
        t = STAIRCASE.params
        expected = max(
            distance(L1, pts[j], pts[k]) / (t[k] - t[j])
            for j in range(3)
            for k in range(j + 1, 3)
        )
        assert expected == 1.0
        assert lipschitz_estimate(STAIRCASE, L1) == expected

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            lipschitz_estimate(Polyline([0.0], [[0.0]]), L2)

    def test_overflowing_estimate_raises(self):
        c = Polyline([0.0, 1.0], [[-1e308, 0.0], [1e308, 0.0]])
        with pytest.raises(ValueError, match="overflows the float range"):
            lipschitz_estimate(c, L2)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, INF])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_estimate_matches_all_pairs_oracle(self, dim, p, weighted):
        rng = np.random.default_rng(dim)
        weights = tuple(rng.uniform(0.25, 4.0, dim)) if weighted else None
        spec = NormSpec(p, weights)
        for fast in (None, 0, 25, 59):
            t, P = _oracle_curve(dim, rng, fast)
            c = Polyline(t, P)
            for beta in (1.0, 0.5, 0.3):
                want = _all_pairs_lipschitz(t, P, p, weights, beta)
                got = lipschitz_estimate(c, snowflake(norm_metric(spec), beta))
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @given(polylines(), metrics_strategy)
    @settings(deadline=None, max_examples=60)
    def test_ball_image_property(self, c, m):
        # every sample lies in the closed ball of radius C|t - s| about any other
        C = lipschitz_estimate(c, m)
        t = c.params
        P = c.points
        for s_idx in range(0, len(c), max(1, len(c) // 4)):
            d = distance(m, P, P[s_idx])
            bound = C * np.abs(t - t[s_idx])
            assert np.all(d <= bound * (1 + 1e-9) + 1e-12)


class TestLengthBound:
    @given(polylines(), metrics_strategy)
    @settings(deadline=None, max_examples=80)
    def test_length_at_most_constant_times_interval(self, c, m):
        a, b = c.interval
        assert length(c, m) <= lipschitz_estimate(c, m) * (b - a) * (1 + 1e-9) + 1e-12

    @given(polylines(), metrics_strategy)
    @settings(deadline=None, max_examples=60)
    def test_constant_at_least_endpoint_rate(self, c, m):
        a, b = c.interval
        rate = distance(m, c.points[0], c.points[-1]) / (b - a)
        assert lipschitz_estimate(c, m) >= rate * (1 - 1e-12)


class TestGlue:
    def test_concatenates_on_shared_junction(self):
        c1 = Polyline([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        c2 = Polyline([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])
        out = glue(c1, c2)
        assert out == STAIRCASE

    def test_single_point_junction_is_identity(self):
        c1 = Polyline([0.0, 1.0], [[0.0], [2.0]])
        assert glue(c1, Polyline([1.0], [[2.0]])) == c1
        assert glue(Polyline([0.0], [[0.0]]), c1) == c1

    def test_mismatched_junction_rejected(self):
        c1 = Polyline([0.0, 1.0], [[0.0], [2.0]])
        c2 = Polyline([1.0, 2.0], [[2.0 + 1e-9], [3.0]])
        with pytest.raises(ValueError):
            glue(c1, c2)

    def test_snap_tolerance_uses_first_curve_endpoint(self):
        c1 = Polyline([0.0, 1.0], [[0.0], [2.0]])
        c2 = Polyline([1.0, 2.0], [[2.0 + 1e-9], [3.0]])
        out = glue(c1, c2, snap_tol=1e-6)
        assert out.points[1, 0] == 2.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-6])
    def test_rejects_non_finite_or_negative_snap_tol(self, tol):
        # a nan tolerance used to pass every comparison and glue any mismatch
        c1 = Polyline([0.0, 1.0], [[0.0], [2.0]])
        c2 = Polyline([1.0, 2.0], [[5.0], [6.0]])
        with pytest.raises(ValueError, match="snap_tol"):
            glue(c1, c2, snap_tol=tol)

    def test_dimension_mismatch(self):
        c1 = Polyline([0.0, 1.0], [[0.0], [2.0]])
        c2 = Polyline([1.0, 2.0], [[2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(DimensionMismatch):
            glue(c1, c2)

    def test_unit_speed_pieces_glue_to_staircase(self):
        # two affine segments at speed 1 under l1; brute-force pair scan agrees
        c1 = Polyline([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        c2 = Polyline([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])
        out = glue(c1, c2)
        e1 = lipschitz_estimate(c1, L1)
        e2 = lipschitz_estimate(c2, L1)
        assert lipschitz_estimate(out, L1) == max(e1, e2) == 1.0


class TestRescale:
    def test_doubling_interval_halves_estimate(self):
        c = Polyline([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        out = rescale(c, 0.0, 2.0)
        assert out.interval == (0.0, 2.0)
        assert lipschitz_estimate(out, L2) == pytest.approx(
            lipschitz_estimate(c, L2) / 2.0, rel=1e-12
        )

    def test_identity_rescale(self):
        c = Polyline([0.0, 0.25, 1.0], [[0.0], [1.0], [2.0]])
        assert rescale(c, 0.0, 1.0) == c

    def test_translation_keeps_estimate(self):
        c = Polyline([0.0, 0.3, 1.0], [[0.0], [1.0], [2.0]])
        out = rescale(c, 5.0, 6.0)
        assert lipschitz_estimate(out, L1) == pytest.approx(
            lipschitz_estimate(c, L1), rel=1e-9
        )

    def test_rejects_empty_interval(self):
        c = Polyline([0.0, 1.0], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            rescale(c, 1.0, 1.0)

    def test_single_sample_goes_to_left_end(self):
        out = rescale(Polyline([3.0], [[1.0]]), 0.0, 2.0)
        assert out.params[0] == 0.0

    @given(polylines(), st.floats(-5.0, 5.0), st.floats(0.1, 8.0))
    @settings(deadline=None, max_examples=60)
    def test_product_of_estimate_and_interval_invariant(self, c, a, width):
        m = L2
        out = rescale(c, a, a + width)
        before = lipschitz_estimate(c, m) * (c.interval[1] - c.interval[0])
        after = lipschitz_estimate(out, m) * width
        assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


class TestRemoveConstantPieces:
    def test_interior_plateau_is_excised(self):
        t = np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.7, 1.0])
        P = np.array([[0.0], [0.1], [0.3], [0.3], [0.3], [0.5], [0.8]])
        out = remove_constant_pieces(Polyline(t, P))
        assert out.interval == (0.0, pytest.approx(0.8))
        assert np.allclose(out.params, [0.0, 0.1, 0.3, 0.5, 0.8], atol=1e-15)
        assert len(out) == 5

    def test_injective_curve_unchanged(self):
        c = Polyline([0.0, 1.0, 2.0], [[0.0], [1.0], [3.0]])
        assert remove_constant_pieces(c) == c

    def test_fully_constant_collapses_to_point(self):
        c = Polyline([0.0, 1.0, 5.0], [[2.0, 2.0]] * 3)
        out = remove_constant_pieces(c)
        assert len(out) == 1
        assert out.params[0] == 0.0

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError):
            remove_constant_pieces(STAIRCASE, tol=math.nan)

    def test_estimate_does_not_increase_on_exact_duplicates(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = rng.integers(3, 10)
            t = np.cumsum(rng.uniform(0.1, 1.0, n))
            P = rng.standard_normal((n, 2))
            dup = rng.integers(1, n)
            t_dup = np.insert(t, dup, (t[dup - 1] + t[dup]) / 2.0)
            P_dup = np.insert(P, dup, P[dup - 1], axis=0)
            c = Polyline(t_dup, P_dup)
            out = remove_constant_pieces(c)
            for m in (L1, L2):
                assert lipschitz_estimate(out, m) <= lipschitz_estimate(c, m) * (
                    1 + 1e-12
                )

    def test_length_invariant_under_glue(self):
        c1 = Polyline([0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        c2 = Polyline([1.0, 2.0], [[1.0, 0.0], [1.0, 1.0]])
        out = glue(c1, c2)
        assert length(out, L2) == pytest.approx(length(c1, L2) + length(c2, L2))
