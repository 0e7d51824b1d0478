"""Sampled (polygonal) curves: partition-sum length, Lipschitz estimates,
gluing, interval rescaling and removal of constant pieces."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .metrics import Metric, _dist
from .norms import _by_rows, _check_dim, _finite_result, _points, _vector


@dataclass(frozen=True, eq=False)
class Polyline:
    """A sampled curve: strictly increasing parameters paired with points.

    ``points`` is an (m, n) array; a 1-d input is promoted to a curve in
    R^1.  Values are immutable after construction: inputs are copied,
    except a read-only C-contiguous array that owns its memory (another
    curve's, say), which is shared.
    """

    params: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        t = _vector("params", self.params)
        P = _points(self.points)
        if len(t) != len(P):
            raise ValueError(f"need equally many params and points, got {len(t)} and {len(P)}")
        if len(t) > 1 and not np.all(np.diff(t) > 0.0):
            raise ValueError("params must be strictly increasing")
        t = _owned(t)
        P = _owned(P)
        t.setflags(write=False)
        P.setflags(write=False)
        object.__setattr__(self, "params", t)
        object.__setattr__(self, "points", P)

    def __len__(self) -> int:
        return len(self.params)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polyline):
            return NotImplemented
        return np.array_equal(self.params, other.params) and np.array_equal(
            self.points, other.points
        )

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def interval(self) -> tuple[float, float]:
        return float(self.params[0]), float(self.params[-1])


def _owned(x: np.ndarray) -> np.ndarray:
    """x itself if it is read-only, C-contiguous and owns its memory, else a copy."""
    f = x.flags
    return x if f.owndata and f.c_contiguous and not f.writeable else x.copy()


def length(c: Polyline, m: Metric) -> float:
    """Partition-sum length: the sum of distances between adjacent samples.

    A single-point curve has length 0 (empty sum).  A length beyond the
    float range raises ``ValueError``.
    """
    _check_dim(m.dim, c.dim)
    if len(c) < 2:
        return 0.0
    return _finite_result(float(np.sum(_steps(m, c.points))), "length")


def lipschitz_estimate(c: Polyline, m: Metric) -> float:
    """Largest secant ratio d(p_j, p_k) / (t_k - t_j) over sample pairs.

    This lower-bounds the Lipschitz constant of any interpolant of the
    samples and equals it for geodesic interpolation.  Only adjacent
    samples are scanned, and that loses nothing: by the triangle
    inequality, d(p_j, p_k) <= sum of d(p_i, p_{i+1}) over j <= i < k
    <= (max adjacent ratio) * (t_k - t_j), so no longer secant can beat
    the largest adjacent ratio (up to rounding in the distances).  An
    estimate beyond the float range raises ``ValueError``.
    """
    _check_dim(m.dim, c.dim)
    if len(c) < 2:
        raise ValueError("lipschitz_estimate needs at least 2 samples")
    ratio = float((_steps(m, c.points) / np.diff(c.params)).max())
    return _finite_result(ratio, "Lipschitz estimate")


def _steps(m: Metric, P: np.ndarray) -> np.ndarray:
    """The distances d(P[i + 1], P[i]).

    A step whose difference overflows comes back inf or nan without a
    warning; callers check their results instead.
    """
    return _by_rows(partial(_dist, m), P[1:], P[:-1])


def glue(c1: Polyline, c2: Polyline, snap_tol: float | None = None) -> Polyline:
    """Concatenate two curves meeting at a shared junction sample.

    Requires the last sample of ``c1`` to equal the first of ``c2``
    exactly (parameter and point).  With ``snap_tol`` set (a finite
    nonnegative real), mismatches up to that size are allowed and the junction is snapped to c1's
    endpoint; the default refuses rather than silently corrupting curves.
    """
    _check_dim(c1.dim, c2.dim)
    if snap_tol is not None and not (math.isfinite(snap_tol) and snap_tol >= 0.0):
        raise ValueError(f"snap_tol must be a finite nonnegative real, got {snap_tol!r}")
    t_gap = abs(c2.params[0] - c1.params[-1])
    p_gap = float(np.max(np.abs(c2.points[0] - c1.points[-1])))
    if snap_tol is None:
        if t_gap != 0.0:
            raise ValueError("junction parameters differ; pass snap_tol to snap")
        if p_gap != 0.0:
            raise ValueError("junction points differ; pass snap_tol to snap")
    elif t_gap > snap_tol or p_gap > snap_tol:
        raise ValueError(
            f"junction mismatch (param gap {t_gap:g}, point gap {p_gap:g}) "
            f"exceeds snap_tol {snap_tol:g}"
        )
    params = np.concatenate([c1.params, c2.params[1:]])
    points = np.vstack([c1.points, c2.points[1:]])
    return Polyline(params, points)


def rescale(c: Polyline, a: float, b: float) -> Polyline:
    """Affinely map the parameter interval onto [a, b], points unchanged.

    The product of the Lipschitz estimate and the interval length is
    invariant.  A single-sample curve is placed at ``a``.
    """
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    t = c.params
    if len(c) == 1:
        return Polyline(np.array([float(a)]), c.points)
    span = t[-1] - t[0]
    s = a + (t - t[0]) * ((b - a) / span)
    s = s.copy()
    s[0] = a
    s[-1] = b
    return Polyline(s, c.points)


def remove_constant_pieces(c: Polyline, tol: float = 0.0) -> Polyline:
    """Collapse runs where the curve does not move and close the parameter gaps.

    A maximal run of consecutive points within ``tol`` (max coordinate
    difference) of the run's first point is replaced by that first point,
    and all later parameters shift left by the removed run's width.  With
    ``tol = 0`` the Lipschitz estimate never increases; positive
    tolerances may let it grow on the order of tol over the smallest
    surviving parameter gap.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol!r}")
    t = c.params
    P = c.points
    keep: list[int] = []
    new_t: list[float] = []
    shift = 0.0
    i = 0
    count = len(c)
    while i < count:
        j = i
        while j + 1 < count and np.max(np.abs(P[j + 1] - P[i])) <= tol:
            j += 1
        keep.append(i)
        new_t.append(float(t[i] - shift))
        shift += float(t[j] - t[i])
        i = j + 1
    return Polyline(np.array(new_t), P[keep])
