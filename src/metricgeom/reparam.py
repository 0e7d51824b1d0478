"""Arc-length (unit-speed) reparameterization of finely sampled smooth curves.

The cumulative speed integral is computed by the composite trapezoid rule
on the caller's grid (error O(h^2) for C^2 speed); no resampling of user
data happens behind the caller's back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import Polyline
from .norms import NormSpec, _by_rows, _finite_result, _norm, _points, eval_norm


# Adjacent secant speeds of the unit-speed output must lie within this
# relative distance of 1.
_SECANT_TOL = 1e-3


class SpeedFloorError(ValueError):
    """A derivative sample fell below the required speed floor."""


@dataclass(frozen=True, eq=False)
class SampledC1Curve:
    """A polyline together with sampled first derivatives at its parameters."""

    base: Polyline
    derivs: np.ndarray

    def __post_init__(self):
        d = _points(self.derivs, "derivs")
        if d.shape != self.base.points.shape:
            raise ValueError(
                f"derivs shape {d.shape} does not match points shape "
                f"{self.base.points.shape}"
            )
        d = d.copy()
        d.setflags(write=False)
        object.__setattr__(self, "derivs", d)


def arclength_profile(c: SampledC1Curve, spec: NormSpec) -> np.ndarray:
    """Cumulative arc length phi(t_j) of N(p'(u)) by trapezoidal quadrature.

    phi starts at 0 and is nondecreasing; with all speeds above a
    positive floor it is strictly increasing.
    """
    if len(c.base) < 2:
        raise ValueError("arclength_profile needs at least 2 samples")
    speeds = np.asarray(eval_norm(spec, c.derivs), dtype=float)
    dt = np.diff(c.base.params)
    increments = dt * 0.5 * (speeds[1:] + speeds[:-1])
    return np.concatenate([[0.0], np.cumsum(increments)])


def unit_speed_reparam(
    c: SampledC1Curve,
    spec: NormSpec,
    speed_floor: float = 1e-9,
) -> Polyline:
    """Reparameterize to unit speed: same points, parameters phi(t_j).

    Requires every sampled speed N(p'(t_j)) to be at least ``speed_floor``
    (the numerical proxy for a nowhere-vanishing derivative); a nan or
    negative floor would switch that check off and is rejected.  A speed
    of exactly 0 raises ``SpeedFloorError`` whatever the floor: such a
    sample has no unit tangent.  The output lives on [0, phi(b)].
    Adjacent secant speeds of the output are verified to lie in
    [1 - 1e-3, 1 + 1e-3]; a failure means the sampling is too coarse for
    the quadrature to represent the curve.
    """
    if len(c.base) < 2:
        raise ValueError("unit_speed_reparam needs at least 2 samples")
    if not speed_floor >= 0.0:
        raise ValueError(f"speed_floor must be nonnegative, got {speed_floor:g}")
    speeds = np.asarray(eval_norm(spec, c.derivs), dtype=float)
    worst = float(speeds.min())
    if worst == 0.0:
        raise SpeedFloorError("a sampled speed is 0, where the curve has no unit tangent")
    if worst < speed_floor:
        raise SpeedFloorError(
            f"minimum sampled speed {worst:g} is below the floor {speed_floor:g}"
        )
    phi = arclength_profile(c, spec)
    out = Polyline(phi, c.base.points)
    chords = _finite_result(_by_rows(partial(_norm, spec), out.points[1:], out.points[:-1]), "norm")
    secants = chords / np.diff(phi)
    if secants.max() > 1.0 + _SECANT_TOL or secants.min() < 1.0 - _SECANT_TOL:
        raise ValueError(
            "unit-speed output fails the secant check "
            f"(range [{secants.min():g}, {secants.max():g}]); "
            "the sampling is too coarse for this curve"
        )
    return out


def central_difference_derivs(c: Polyline) -> SampledC1Curve:
    """Approximate derivative samples from the polyline itself.

    Central differences at interior samples, one-sided at the ends.  This
    is a convenience for data that lacks true derivatives; the result is
    approximate and inherits the grid's resolution.
    """
    if len(c) < 2:
        raise ValueError("need at least 2 samples to difference")
    t = c.params
    P = c.points
    d = np.empty_like(P)
    d[0] = (P[1] - P[0]) / (t[1] - t[0])
    d[-1] = (P[-1] - P[-2]) / (t[-1] - t[-2])
    if len(c) > 2:
        d[1:-1] = (P[2:] - P[:-2]) / (t[2:] - t[:-2])[:, None]
    return SampledC1Curve(c, d)


def resample_uniform(c: Polyline, count: int) -> Polyline:
    """Resample onto a uniform parameter grid by monotone linear interpolation."""
    if count < 2:
        raise ValueError("count must be at least 2")
    if len(c) < 2:
        raise ValueError("need at least 2 samples to resample")
    s = np.linspace(c.params[0], c.params[-1], count)
    cols = [np.interp(s, c.params, c.points[:, k]) for k in range(c.dim)]
    return Polyline(s, np.column_stack(cols))
