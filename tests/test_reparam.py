import math

import numpy as np
import pytest

from metricgeom import (
    NormSpec,
    Polyline,
    SampledC1Curve,
    SpeedFloorError,
    arclength_profile,
    central_difference_derivs,
    length,
    lipschitz_estimate,
    norm_metric,
    resample_uniform,
    unit_speed_reparam,
)

L2SPEC = NormSpec(2)
L2 = norm_metric(L2SPEC)


def line_curve(speed, t):
    pts = np.column_stack([speed * t, np.zeros_like(t)])
    derivs = np.column_stack([np.full_like(t, speed), np.zeros_like(t)])
    return SampledC1Curve(Polyline(t, pts), derivs)


def parabola_curve(t):
    # p(t) = (t^2/2, 0), speed |p'| = t
    pts = np.column_stack([t * t / 2.0, np.zeros_like(t)])
    derivs = np.column_stack([t, np.zeros_like(t)])
    return SampledC1Curve(Polyline(t, pts), derivs)


class TestArclengthProfile:
    def test_unit_speed_line(self):
        t = np.linspace(0.0, 1.0, 11)
        phi = arclength_profile(line_curve(1.0, t), L2SPEC)
        assert np.allclose(phi, t, atol=1e-15)

    def test_speed_two_line(self):
        t = np.linspace(0.0, 1.0, 11)
        phi = arclength_profile(line_curve(2.0, t), L2SPEC)
        assert phi[-1] == pytest.approx(2.0)

    def test_parabola_against_closed_form(self):
        # integral of t over [0, 1] is exactly 1/2; trapezoid is exact for it
        t = np.linspace(0.0, 1.0, 10_000)
        phi = arclength_profile(parabola_curve(t), L2SPEC)
        assert phi[-1] == pytest.approx(0.5, abs=1e-6)

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        t = np.cumsum(rng.uniform(0.01, 0.5, 20))
        pts = rng.standard_normal((20, 2))
        derivs = rng.standard_normal((20, 2))
        phi = arclength_profile(SampledC1Curve(Polyline(t, pts), derivs), L2SPEC)
        assert phi[0] == 0.0
        assert np.all(np.diff(phi) >= 0.0)

    def test_needs_two_samples(self):
        c = SampledC1Curve(Polyline([0.0], [[0.0, 0.0]]), [[1.0, 0.0]])
        with pytest.raises(ValueError):
            arclength_profile(c, L2SPEC)


class TestUnitSpeedReparam:
    def test_circle_arc_already_unit_speed(self):
        t = np.linspace(0.0, math.pi / 2.0, 200)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        derivs = np.column_stack([-np.sin(t), np.cos(t)])
        q = unit_speed_reparam(SampledC1Curve(Polyline(t, pts), derivs), L2SPEC)
        # constant speed 1 makes the quadrature exact up to roundoff
        assert np.max(np.abs(q.params - t)) < 1e-12
        assert q.interval[1] == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_constant_speed_two_rescales(self):
        t = np.linspace(0.0, 1.0, 101)
        q = unit_speed_reparam(line_curve(2.0, t), L2SPEC)
        assert q.interval == (0.0, pytest.approx(2.0))
        assert np.allclose(q.points[:, 0], q.params, atol=1e-12)

    def test_parabola_matches_closed_form_inverse(self):
        eps = 0.1
        t = np.linspace(eps, 1.0, 1000)
        q = unit_speed_reparam(parabola_curve(t), L2SPEC)
        # phi(t) = (t^2 - eps^2)/2, so the inverse is t = sqrt(2 r + eps^2)
        assert np.max(np.abs(np.sqrt(2.0 * q.params + eps * eps) - t)) < 1e-5
        # and the output is q(r) = (r + eps^2/2, 0)
        assert np.max(np.abs(q.points[:, 0] - (q.params + eps * eps / 2.0))) < 1e-5

    def test_point_set_and_length_preserved(self):
        t = np.linspace(0.1, 1.0, 500)
        c = parabola_curve(t)
        q = unit_speed_reparam(c, L2SPEC)
        assert np.array_equal(q.points, c.base.points)
        assert length(q, L2) == length(c.base, L2)

    def test_speed_floor_violation(self):
        t = np.linspace(0.0, 1.0, 50)  # parabola speed vanishes at t = 0
        with pytest.raises(SpeedFloorError):
            unit_speed_reparam(parabola_curve(t), L2SPEC)

    @pytest.mark.parametrize("floor", [math.nan, -1.0])
    def test_nan_or_negative_floor_rejected(self, floor):
        # such a floor would switch the speed check off, and the vanishing
        # speed would surface later as a misleading "too coarse" failure
        t = np.linspace(0.0, 1.0, 50)
        with pytest.raises(ValueError, match="speed_floor") as info:
            unit_speed_reparam(parabola_curve(t), L2SPEC, speed_floor=floor)
        assert not isinstance(info.value, SpeedFloorError)

    def test_zero_floor_accepted(self):
        t = np.linspace(0.1, 1.0, 500)
        q = unit_speed_reparam(parabola_curve(t), L2SPEC, speed_floor=0.0)
        assert q.params[0] == 0.0

    @pytest.mark.parametrize("floor", [0.0, 1e-9])
    def test_zero_speed_rejected_whatever_the_floor(self, floor):
        t = np.linspace(0.0, 1.0, 50)  # parabola speed is exactly 0 at t = 0
        with pytest.raises(SpeedFloorError, match="speed is 0"):
            unit_speed_reparam(parabola_curve(t), L2SPEC, speed_floor=floor)

    def test_zero_speed_rejected_in_every_norm(self):
        t = np.linspace(0.0, 1.0, 50)
        pts = np.column_stack([t, t * t])
        derivs = np.column_stack([np.ones_like(t), 2.0 * t])
        derivs[25] = 0.0  # one interior sample at rest
        c = SampledC1Curve(Polyline(t, pts), derivs)
        for p in (1.0, 1.5, 2.0, math.inf):
            with pytest.raises(SpeedFloorError, match="speed is 0"):
                unit_speed_reparam(c, NormSpec(p), speed_floor=0.0)

    def test_coarse_sampling_fails_secant_check(self):
        t = np.linspace(0.0, math.pi / 2.0, 5)
        pts = np.column_stack([np.cos(t), np.sin(t)])
        derivs = np.column_stack([-np.sin(t), np.cos(t)])
        with pytest.raises(ValueError, match="too coarse"):
            unit_speed_reparam(SampledC1Curve(Polyline(t, pts), derivs), L2SPEC)

    def test_output_estimate_near_one(self):
        t = np.linspace(0.1, 1.0, 2000)
        q = unit_speed_reparam(parabola_curve(t), L2SPEC)
        est = lipschitz_estimate(q, L2)
        assert 1.0 - 1e-6 <= est <= 1.0 + 1e-6


class TestSpeedBounds:
    def test_speed_bound_gives_lipschitz_bound(self):
        # max sampled speed k forces the estimate below k plus quadrature slack
        rng = np.random.default_rng(1)
        t = np.linspace(0.0, 2.0, 400)
        freq = rng.uniform(0.5, 2.0)
        pts = np.column_stack([np.sin(freq * t), np.cos(freq * t)])
        derivs = freq * np.column_stack([np.cos(freq * t), -np.sin(freq * t)])
        c = SampledC1Curve(Polyline(t, pts), derivs)
        k = float(np.max([np.linalg.norm(d) for d in derivs]))
        assert lipschitz_estimate(c.base, L2) <= k + 1e-6

    def test_length_bounded_by_profile(self):
        t = np.linspace(0.1, 1.0, 300)
        c = parabola_curve(t)
        phi = arclength_profile(c, L2SPEC)
        assert length(c.base, L2) <= phi[-1] + 1e-9


class TestHelpers:
    def test_central_differences_recover_smooth_derivs(self):
        t = np.linspace(0.0, 1.0, 800)
        pts = np.column_stack([t * t, t])
        approx = central_difference_derivs(Polyline(t, pts))
        true = np.column_stack([2.0 * t, np.ones_like(t)])
        assert np.max(np.abs(approx.derivs[1:-1] - true[1:-1])) < 1e-5

    def test_resample_uniform_on_line(self):
        c = Polyline([0.0, 0.2, 1.0], [[0.0, 0.0], [0.2, 0.4], [1.0, 2.0]])
        out = resample_uniform(c, 6)
        assert np.allclose(np.diff(out.params), 0.2)
        assert np.allclose(out.points[:, 1], 2.0 * out.points[:, 0], atol=1e-12)

    def test_deriv_shape_validation(self):
        with pytest.raises(ValueError):
            SampledC1Curve(Polyline([0.0, 1.0], [[0.0], [1.0]]), [[1.0, 0.0], [1.0, 0.0]])
