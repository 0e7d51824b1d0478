"""Metrics induced by norms, and their snowflake transforms d^beta."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .norms import (
    NormSpec,
    _by_rows,
    _check_dim,
    _finite_result,
    _norm,
    _resolve_dim,
    _sample_points,
    as_vector,
)
from .reporting import AxiomReport, CheckReport, margin_report


@dataclass(frozen=True)
class Metric:
    """A metric on R^n: d(x, y) = N(x - y)^beta.

    ``beta`` is the accumulated snowflake exponent in (0, 1]; 1 means
    the plain norm-induced metric.  Snowflaking composes multiplicatively
    in the exponent, so a single exponent represents any tower of
    snowflakes.  Exponents above 1 are rejected: they break the triangle
    inequality and the type should not admit non-metrics.
    """

    norm: NormSpec
    beta: float = 1.0

    def __post_init__(self):
        b = float(self.beta)
        object.__setattr__(self, "beta", b)
        if not (0.0 < b <= 1.0) or math.isnan(b):
            raise ValueError(f"snowflake exponent must lie in (0, 1], got {b}")

    @property
    def dim(self) -> int | None:
        return self.norm.dim


def norm_metric(spec: NormSpec) -> Metric:
    """The metric d(x, y) = N(x - y) of a norm."""
    return Metric(spec, 1.0)


def snowflake(base: Metric | NormSpec, beta: float) -> Metric:
    """Raise a metric to the power ``beta`` in (0, 1].

    Applied to an already snowflaked metric the exponents multiply,
    so the result is always representable with a single exponent.
    """
    b = float(beta)
    if not (0.0 < b <= 1.0) or math.isnan(b):
        raise ValueError(f"snowflake exponent must lie in (0, 1], got {b}")
    if isinstance(base, NormSpec):
        base = norm_metric(base)
    return Metric(base.norm, base.beta * b)


def _dist(m: Metric, D: np.ndarray) -> np.ndarray:
    """d over axis 0 of coordinate-major differences D = x - y."""
    d = _norm(m.norm, D)
    return d ** m.beta if m.beta != 1.0 else d


def distance(m: Metric, x, y) -> float | np.ndarray:
    """Metric distance between points (or broadcast batches of points).

    Raises:
        DimensionMismatch: the coordinate counts disagree.
        ValueError: non-finite coordinates, or a distance beyond the float
            range.
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim == 0 or yv.ndim == 0 or xv.shape[-1] == 0:
        raise ValueError("points must have at least one coordinate")
    _check_dim(xv.shape[-1], yv.shape[-1])
    _check_dim(m.dim, xv.shape[-1])
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValueError("points have non-finite coordinates")
    shape = np.broadcast_shapes(xv.shape, yv.shape)
    X, Y = (np.broadcast_to(v, shape).reshape(-1, shape[-1]) for v in (xv, yv))
    return _finite_result(_by_rows(partial(_dist, m), X, Y).reshape(shape[:-1]), "distance")


def snowflake_order_transfer(alpha: float, beta: float, mode: str = "domain") -> float:
    """How a Holder exponent rewrites when one side's metric is snowflaked.

    ``domain`` mode: a map of order alpha against d1 has order alpha/beta
    against d1^beta.  ``range`` mode: order alpha against d2 becomes order
    alpha*beta against d2^beta.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"order alpha must be a positive finite real, got {alpha!r}")
    if not (0.0 < beta <= 1.0):
        raise ValueError("snowflake exponent must lie in (0, 1]")
    if mode == "domain":
        return alpha / beta
    if mode == "range":
        return alpha * beta
    raise ValueError(f"mode must be 'domain' or 'range', got {mode!r}")


def check_metric_axioms(
    m,
    sample_count: int = 1000,
    seed: int = 0,
    *,
    dim: int | None = None,
    tol: float = 1e-9,
) -> AxiomReport:
    """Verify symmetry, identity of indiscernibles and the triangle inequality.

    ``m`` is a Metric, or, as an escape hatch for testing candidate
    distance functions that may NOT be metrics, any callable ``d(X, Y)``
    vectorized over leading axes (then ``dim`` is required).

    Identity of indiscernibles is checked at sampled coincident pairs plus
    the exact-equality short circuit d(x, x); floating point cannot
    certify the universal statement.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if isinstance(m, Metric):
        n = _resolve_dim(m.norm, dim)
        dist = partial(_by_rows, partial(_dist, m))
    elif callable(m):
        if dim is None:
            raise ValueError("dimension required for a raw distance function")
        n = dim
        dist = m
    else:
        raise TypeError("m must be a Metric or a callable distance function")

    rng = np.random.default_rng(seed)
    X = _sample_points(rng, sample_count, n)
    Y = _sample_points(rng, sample_count, n)
    Z = _sample_points(rng, sample_count, n)

    dxy = np.asarray(dist(X, Y), dtype=float)
    dyx = np.asarray(dist(Y, X), dtype=float)
    dxz = np.asarray(dist(X, Z), dtype=float)
    dyz = np.asarray(dist(Y, Z), dtype=float)
    dxx = np.asarray(dist(X, X), dtype=float)

    sym_margin = np.abs(dxy - dyx) / np.maximum(1.0, np.abs(dxy))
    symmetry = margin_report("symmetry", sym_margin, tol)

    distinct = np.any(X != Y, axis=1)
    # ~(dxy > 0), not dxy <= 0: a nan distance is a violation
    id_viol = int(np.count_nonzero((dxx != 0.0) | (distinct & ~(dxy > 0.0))))
    id_worst = float(np.max(np.maximum(np.abs(dxx), np.where(distinct, -dxy, -np.inf))))
    identity = CheckReport("identity", sample_count, id_viol, id_worst, tol)

    tri_margin = (dxz - dxy - dyz) / np.maximum(1.0, dxy + dyz)
    triangle = margin_report("triangle", tri_margin, tol)

    return AxiomReport((symmetry, identity, triangle))


def ball_containment_check(
    m: Metric,
    p,
    q,
    r: float,
    sample_count: int = 1000,
    seed: int = 0,
    *,
    tol: float = 1e-9,
) -> AxiomReport:
    """Sample points of the ball B(p, r) and verify they lie in B(q, r + d(p, q)).

    Checks the transport of both open and closed balls; the closed-ball
    sample set deliberately includes exact boundary points d(p, z) = r.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"radius must be positive and finite, got {r!r}")
    pv = as_vector(p, dim=m.dim)
    qv = as_vector(q, dim=pv.size)
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")

    rng = np.random.default_rng(seed)
    n = pv.size
    dirs = rng.standard_normal((sample_count, n))
    base_norm = _by_rows(partial(_norm, m.norm), dirs)
    base_norm = np.where(base_norm > 0.0, base_norm, 1.0)
    dirs = dirs / base_norm[:, None]
    # radius r in the metric means radius r^(1/beta) in the underlying norm
    try:
        r_base = float(r) ** (1.0 / m.beta)
    except OverflowError:
        raise ValueError(f"radius {r!r} is beyond the float range in the norm") from None
    u_open = rng.uniform(0.0, 1.0, sample_count)  # in [0, 1): strictly inside
    u_closed = u_open.copy()
    u_closed[: max(1, sample_count // 8)] = 1.0

    checks = []
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        bound = r + float(_dist(m, pv - qv))
        for name, u in (("closed_ball_transport", u_closed), ("open_ball_transport", u_open)):
            z = pv + (r_base * u)[:, None] * dirs
            margin = (_by_rows(partial(_dist, m), z, qv) - bound) / max(1.0, bound)
            checks.append(margin_report(name, _finite_result(margin, "transport margin"), tol))
    return AxiomReport(tuple(checks))
