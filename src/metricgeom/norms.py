"""Weighted lp norms on R^n with sample-based axiom checking.

The whole norm family implemented here is N(x) = ||(w_1 x_1, ..., w_n x_n)||_p
for an exponent 1 <= p <= inf and positive weights (all ones by default).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .reporting import AxiomReport, CheckReport, margin_report


class DimensionMismatch(ValueError):
    """Operands live in different dimensions."""


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Validate a point of R^n (or any nonempty list of reals) and return
    it as a float array.

    Rejects empty, non-1-d and non-finite input, and (when ``dim`` is
    given) wrong-length input with ``DimensionMismatch``.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-d list of reals, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("expected finite reals, got a nan or inf")
    _check_dim(dim, v.size)
    return v


def _vector(name: str, x, dim: int | None = None) -> np.ndarray:
    """``as_vector(x, dim)``, its errors prefixed with the argument's name."""
    try:
        return as_vector(x, dim=dim)
    except ValueError as exc:  # DimensionMismatch too, whose type is kept
        raise type(exc)(f"{name}: {exc}") from None


def _points(pts, name: str = "points") -> np.ndarray:
    """Validate m points of R^n as an (m, n) float array, n >= 1.

    A 1-d input is m points of R^1.  Rejects other shapes and non-finite
    coordinates; the errors call the input ``name``.
    """
    P = np.asarray(pts, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError(f"expected {name} as an (m, n) list with n >= 1, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise ValueError(f"{name} must be finite")
    return P


def _check_dim(dim: int | None, n: int) -> None:
    """Raise ``DimensionMismatch`` unless ``dim`` is None or equals ``n``."""
    if dim is not None and dim != n:
        raise DimensionMismatch(f"expected dimension {dim}, got {n}")


def basis(n: int, j: int) -> np.ndarray:
    """Standard basis vector e_j of R^n, 0-based index."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0 <= j < n:
        raise ValueError(f"basis index {j} out of range for dimension {n}")
    e = np.zeros(n)
    e[j] = 1.0
    return e


@dataclass(frozen=True)
class NormSpec:
    """A weighted lp norm.

    ``p`` is a real exponent >= 1, or ``math.inf`` for the max norm.
    Infinity is a distinguished value that is branched on explicitly; a
    merely large finite p is evaluated as a genuine p-norm.  ``weights``
    optionally pins positive per-coordinate scales (and with them the
    dimension); in one dimension the weighted norm is exactly a |x|.
    """

    p: float
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        p = float(self.p)
        object.__setattr__(self, "p", p)
        if math.isnan(p) or p < 1.0:
            raise ValueError(f"norm exponent must satisfy p >= 1 (or p = inf), got {p}")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            object.__setattr__(self, "weights", w)
            if len(w) == 0 or any(not math.isfinite(v) or v <= 0.0 for v in w):
                raise ValueError("weights must be positive finite reals")

    @property
    def dim(self) -> int | None:
        """Dimension pinned by the weights, if any."""
        return None if self.weights is None else len(self.weights)


def _norm(spec: NormSpec, D: np.ndarray) -> np.ndarray:
    """Norm over axis 0 of a coordinate-major (dim, ...) array; the one
    norm kernel of the library (hot path, no input validation).

    Its working copy is C-contiguous whatever the layout of D, so each
    step is a whole-row vector operation over contiguous memory, and a
    strided D gets the bits of its C copy.  The rows are added in a
    fixed order: in order for p = 1 and every p outside {1, 2, inf}; for
    p = 2 the even squares, then the odd ones, then both.  Row-major
    batches go through ``_by_rows``.
    """
    if D.ndim == 1:  # a batch of one: numpy's power of a scalar may round apart
        return _norm(spec, D[:, None]).reshape(())
    dim = D.shape[0]
    a = np.abs(D, order="C")
    if spec.weights is not None:
        a *= np.asarray(spec.weights).reshape((dim,) + (1,) * (D.ndim - 1))
    p = spec.p
    if p == math.inf:
        return a.max(axis=0)
    if p == 1.0:
        return _sum_rows(a, range(dim))
    # max-factored form keeps |x_j|^p inside [0, 1]: large p cannot overflow
    # and tiny coordinates cannot underflow (squares do below ~1e-154)
    m = a.max(axis=0)
    a /= np.where(m > 0.0, m, 1.0)
    if p == 2.0:
        a *= a
        s = _sum_rows(a, range(0, dim, 2))
        if dim > 1:
            s += _sum_rows(a, range(1, dim, 2))
    else:
        s = _sum_rows(a ** p, range(dim))
    return m * s ** (1.0 / p)


def _sum_rows(a: np.ndarray, rows: range) -> np.ndarray:
    """a[rows[0]] + a[rows[1]] + ..., added in order into a new array."""
    s = a[rows[0]].copy()
    for k in rows[1:]:
        s += a[k]
    return s


# Rows per kernel call in _by_rows: small enough that every temporary is
# reused from the heap instead of being mapped and page-faulted afresh.
_CHUNK_ROWS = 1 << 13


def _by_rows(kernel, X: np.ndarray, Y: np.ndarray | None = None) -> np.ndarray:
    """kernel((X - Y)[a:b].T) for the rows of an (m, n) array X, a chunk
    of rows at a time; Y is None (X itself), one point or an (m, n) array.

    The one way in to ``_norm`` for row-major batches.  A row whose
    result overflows comes back inf or nan without a warning; callers
    check their results instead.
    """
    out = np.empty(len(X))
    with np.errstate(over="ignore", invalid="ignore"):
        for a in range(0, len(X), _CHUNK_ROWS):
            D = X[a : a + _CHUNK_ROWS]
            if Y is not None:
                D = D - (Y if Y.ndim == 1 else Y[a : a + _CHUNK_ROWS])
            out[a : a + _CHUNK_ROWS] = kernel(D.T)
    return out


def eval_norm(spec: NormSpec, x) -> float | np.ndarray:
    """Evaluate the weighted lp norm of ``x``.

    ``x`` may carry leading batch axes; the norm is taken over the last
    axis.  Returns a float for a single point and an array for batches.

    Raises:
        DimensionMismatch: coordinate count disagrees with the weights.
        ValueError: non-finite coordinates, or a norm beyond the float range.
    """
    v = np.asarray(x, dtype=float)
    if v.ndim == 0 or v.shape[-1] == 0:
        raise ValueError("expected at least one coordinate")
    _check_dim(spec.dim, v.shape[-1])
    if not np.all(np.isfinite(v)):
        raise ValueError("point has non-finite coordinates")
    out = _by_rows(partial(_norm, spec), v.reshape(-1, v.shape[-1]))
    return _finite_result(out.reshape(v.shape[:-1]), "norm")


def _finite_result(out, what: str) -> float | np.ndarray:
    """Unbatch ``out``; finite input whose result overflows raises, never nan or inf."""
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{what} of finite input overflows the float range")
    return float(out) if np.ndim(out) == 0 else out


def is_strictly_convex(spec: NormSpec, dim: int | None = None) -> bool:
    """Classify strict convexity of the norm's unit ball.

    True exactly when 1 < p < inf, with the one-dimensional special case:
    on R every member of the family is a positive multiple of |x|, which
    is strictly convex, so n = 1 always answers True.  Answered by
    classification because sampling cannot certify a strict inequality.
    """
    n = _resolve_dim(spec, dim)
    if n == 1:
        return True
    return 1.0 < spec.p < math.inf


def check_norm_axioms(
    spec: NormSpec,
    sample_count: int = 1000,
    seed: int = 0,
    *,
    dim: int | None = None,
    tol: float = 1e-9,
) -> AxiomReport:
    """Verify positivity, homogeneity and subadditivity on random samples.

    Draws ``sample_count`` vector pairs and scalars from a seeded
    generator (mixed magnitudes across six decades) and measures the
    relative violation margin of each defining property.

    Returns:
        AxiomReport with one CheckReport per property.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    n = _resolve_dim(spec, dim)
    rng = np.random.default_rng(seed)
    X = _sample_points(rng, sample_count, n)
    Y = _sample_points(rng, sample_count, n)
    R = rng.uniform(-10.0, 10.0, sample_count)
    X[0] = 0.0  # pin one exact zero vector so N(0) = 0 is exercised

    norm = partial(_norm, spec)
    nx = _by_rows(norm, X)
    ny = _by_rows(norm, Y)
    nonzero = np.any(X != 0.0, axis=1)

    # ~(nx > 0), not nx <= 0: a nan norm is a violation
    pos_viol = int(np.count_nonzero((nonzero & ~(nx > 0.0)) | (~nonzero & (nx != 0.0))))
    pos_worst = float(np.max(np.where(nonzero, -nx, np.abs(nx))))
    positivity = CheckReport("positivity", sample_count, pos_viol, pos_worst, tol)

    hom = np.abs(_by_rows(norm, R[:, None] * X) - np.abs(R) * nx)
    hom_margin = hom / np.maximum(1.0, np.abs(R) * nx)
    homogeneity = margin_report("homogeneity", hom_margin, tol)

    sub = _by_rows(norm, X + Y) - (nx + ny)
    sub_margin = sub / np.maximum(1.0, nx + ny)
    subadditivity = margin_report("subadditivity", sub_margin, tol)

    return AxiomReport((positivity, homogeneity, subadditivity))


def check_unit_ball_convexity(
    spec: NormSpec,
    sample_count: int = 1000,
    seed: int = 0,
    *,
    dim: int | None = None,
    tol: float = 1e-9,
) -> AxiomReport:
    """Sample the closed unit ball and verify it is closed under mixing.

    Draws x, y with N <= 1 and t in [0, 1] and checks
    N(t x + (1 - t) y) <= 1, the ball-convexity form of subadditivity.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    n = _resolve_dim(spec, dim)
    rng = np.random.default_rng(seed)
    X = _unit_ball_points(spec, rng, sample_count, n)
    Y = _unit_ball_points(spec, rng, sample_count, n)
    T = rng.uniform(0.0, 1.0, sample_count)
    mixed = T[:, None] * X + (1.0 - T)[:, None] * Y
    margin = _by_rows(partial(_norm, spec), mixed) - 1.0
    return AxiomReport((margin_report("unit_ball_convexity", margin, tol),))


def _resolve_dim(spec: NormSpec, dim: int | None) -> int:
    if spec.dim is not None:
        _check_dim(dim, spec.dim)
        return spec.dim
    if dim is None:
        raise ValueError("dimension required for an unweighted norm")
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    return dim


def _sample_points(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    scale = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    return rng.standard_normal((count, dim)) * scale


def _unit_ball_points(
    spec: NormSpec, rng: np.random.Generator, count: int, dim: int
) -> np.ndarray:
    Z = rng.standard_normal((count, dim))
    nz = _by_rows(partial(_norm, spec), Z)
    nz = np.where(nz > 0.0, nz, 1.0)
    u = rng.uniform(0.0, 1.0, count)
    return Z * (u / nz)[:, None]
