"""Lipschitz and Holder calculus: bound arithmetic, empirical (C, alpha)
fitting, order-above-1 collapse, finite-scale covering sums and a Koch
test-curve generator."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import Polyline, _check_dim
from .metrics import Metric, _dist_raw
from .norms import DimensionMismatch, NormSpec, _norm_raw


@dataclass(frozen=True)
class LipBound:
    """A Holder bound: d2(f(x), f(y)) <= C * d1(x, y)^alpha."""

    C: float
    alpha: float

    def __post_init__(self):
        if not self.C >= 0.0:
            raise ValueError("constant C must be nonnegative")
        if not self.alpha > 0.0:
            raise ValueError("order alpha must be positive")


@dataclass(frozen=True)
class HolderFit:
    """Fitted Holder data for a sampled map.

    ``C`` is the tight constant over all sample pairs at ``alpha`` and the
    ``witness`` pair attains it exactly.  ``residual`` is the RMS spread of
    log d2 - (log C + alpha log d1) over usable pairs.  A pair of
    coincident domain points with distinct images makes the data
    non-Holder: then C and residual are inf and the witness is the
    offending pair.
    """

    C: float
    alpha: float
    residual: float
    witness: tuple[int, int]

    @property
    def is_holder(self) -> bool:
        return math.isfinite(self.C)


def lip_sum(b1: LipBound, b2: LipBound) -> LipBound:
    """Bound for f + g: constants add at equal order."""
    _require_equal_alpha(b1, b2, "sum")
    return LipBound(b1.C + b2.C, b1.alpha)


def lip_scale(b: LipBound, a: float) -> LipBound:
    """Bound for a * f: the constant scales by |a|."""
    return LipBound(abs(a) * b.C, b.alpha)


def lip_product(b1: LipBound, b2: LipBound, sup1: float, sup2: float) -> LipBound:
    """Bound for f * g given sup bounds |f| <= sup1, |g| <= sup2."""
    _require_equal_alpha(b1, b2, "product")
    for name, s in (("sup1", sup1), ("sup2", sup2)):
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"{name} must be a finite nonnegative sup bound")
    return LipBound(b1.C * sup2 + b2.C * sup1, b1.alpha)


def lip_compose(outer: LipBound, inner: LipBound) -> LipBound:
    """Bound for outer ∘ inner: (C1 * C2^a1, a1 * a2).

    At order 1 on both sides this is the plain product of constants; the
    general rule follows by feeding the inner bound through the outer
    one.
    """
    return LipBound(outer.C * inner.C ** outer.alpha, outer.alpha * inner.alpha)


def _require_equal_alpha(b1: LipBound, b2: LipBound, op: str) -> None:
    if b1.alpha != b2.alpha:
        raise ValueError(f"{op} requires equal orders, got {b1.alpha} and {b2.alpha}")


_PAIR_BLOCK = 512
_TINY = np.finfo(float).tiny


def fit_holder(
    domain_pts,
    range_pts,
    d1: Metric,
    d2: Metric,
    alpha: float | None = None,
    *,
    max_regression_pairs: int = 200_000,
    seed: int = 0,
) -> HolderFit:
    """Fit d2(f(x), f(y)) <= C * d1(x, y)^alpha to sampled points.

    With ``alpha`` given, C is the exact maximum of d2 / d1^alpha over all
    pairs (the tight constant, with the attaining pair as witness).  With
    ``alpha`` None, the order is estimated first as the least-squares
    slope of log d2 against log d1, then C is tightened at that order.
    The regression uses every pair up to ``max_regression_pairs`` and a
    seeded uniform subsample beyond that; the constant always scans all
    pairs.  Coincident domain pairs are excluded from the regression; if
    such a pair has distinct images the data is not Holder of any order
    and the fit reports C = inf with that pair as witness.
    """
    X = _as_points(domain_pts)
    Y = _as_points(range_pts)
    if len(X) != len(Y):
        raise DimensionMismatch(f"got {len(X)} domain and {len(Y)} range points")
    count = len(X)
    if count < 2:
        raise ValueError("need at least 2 samples to fit")

    if alpha is None:
        alpha = _regress_alpha(X, Y, d1, d2, max_regression_pairs, seed)
    else:
        alpha = float(alpha)
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")

    best = -1.0
    witness = (0, 1)
    bad_pair: tuple[int, int] | None = None
    # count, mean and summed squared deviation of g = log d2 - alpha log d1,
    # merged block by block (Chan et al.) so the residual suffers no cancellation
    n_res = 0
    mean_g = 0.0
    m2_g = 0.0
    for i0 in range(0, count - 1, _PAIR_BLOCK):
        i1 = min(i0 + _PAIR_BLOCK, count - 1)
        D1 = _dist_raw(d1, X[i0:i1, None, :], X[None, i0 + 1 :, :])
        D2 = _dist_raw(d2, Y[i0:i1, None, :], Y[None, i0 + 1 :, :])
        rows = np.arange(i0, i1)[:, None]
        cols = np.arange(i0 + 1, count)[None, :]
        valid = cols > rows
        zero_d1 = valid & (D1 == 0.0)
        if bad_pair is None and np.any(zero_d1 & (D2 > 0.0)):
            r, c = np.nonzero(zero_d1 & (D2 > 0.0))
            bad_pair = (int(rows[r[0], 0]), int(cols[0, c[0]]))
        usable = valid & (D1 > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
            scale = np.where(usable, D1, 1.0) ** alpha
            # where d1^alpha leaves the normal range, take the ratio from logarithms
            low = usable & (scale < _TINY)
            ratios = np.divide(D2, scale, out=scale)
            if low.any():
                ratios[low] = np.exp(np.log(D2[low]) - alpha * np.log(D1[low]))
        ratios[~usable] = -np.inf
        flat = int(np.argmax(ratios))
        if ratios.flat[flat] > best:
            best = float(ratios.flat[flat])
            r, c = np.unravel_index(flat, ratios.shape)
            witness = (int(rows[r, 0]), int(cols[0, c]))
        pos = usable & (D2 > 0.0)
        g = np.log(D2[pos]) - alpha * np.log(D1[pos])
        if g.size:
            g_mean = float(g.mean())
            delta = g_mean - mean_g
            total = n_res + g.size
            m2_g += float(np.sum((g - g_mean) ** 2)) + delta * delta * n_res * g.size / total
            mean_g += delta * g.size / total
            n_res = total

    if bad_pair is not None:
        return HolderFit(math.inf, alpha, math.inf, bad_pair)
    if best < 0.0:  # every domain pair coincident, all images equal
        return HolderFit(0.0, alpha, 0.0, (0, 1))
    C = max(best, 0.0)
    if C > 0.0 and n_res > 0:
        residual = math.sqrt(m2_g / n_res + (mean_g - math.log(C)) ** 2)
    else:
        residual = 0.0
    return HolderFit(C, alpha, residual, witness)


def _regress_alpha(
    X: np.ndarray,
    Y: np.ndarray,
    d1: Metric,
    d2: Metric,
    max_pairs: int,
    seed: int,
) -> float:
    count = len(X)
    total = count * (count - 1) // 2
    if total <= max_pairs:
        ii, jj = np.triu_indices(count, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = np.empty(0, dtype=int)
        jj = np.empty(0, dtype=int)
        while len(ii) < max_pairs:
            a = rng.integers(0, count, max_pairs)
            b = rng.integers(0, count, max_pairs)
            keep = a != b
            ii = np.concatenate([ii, np.minimum(a[keep], b[keep])])
            jj = np.concatenate([jj, np.maximum(a[keep], b[keep])])
        ii = ii[:max_pairs]
        jj = jj[:max_pairs]
    D1 = _dist_raw(d1, X[ii], X[jj])
    D2 = _dist_raw(d2, Y[ii], Y[jj])
    ok = (D1 > 0.0) & (D2 > 0.0)
    if np.count_nonzero(ok) < 2:
        raise ValueError("not enough distinct pairs to fit an order")
    slope, _ = np.polyfit(np.log(D1[ok]), np.log(D2[ok]), 1)
    return float(slope)


@dataclass(frozen=True)
class OrderCollapseReport:
    """Outcome of the order-above-1 collapse check.

    ``precondition_ok`` records whether the samples actually satisfy the
    claimed (C, alpha) bound pairwise; a violated bound is reported here
    rather than raised.  ``collapses`` is the verdict: the maximal range
    spread fits under C * h^(alpha - 1) * L, the chained bound that drives
    the spread to zero as the mesh h shrinks.
    """

    precondition_ok: bool
    collapses: bool
    max_range_spread: float
    collapse_bound: float
    worst_precondition_margin: float


def check_order_gt1_constant(
    domain_pts,
    range_pts,
    d2: Metric,
    alpha: float,
    C: float,
    *,
    tol: float = 1e-9,
) -> OrderCollapseReport:
    """Check that (C, alpha > 1)-Holder samples on an interval collapse.

    ``domain_pts`` are reals; they are sorted internally (range points
    follow).  Chaining the bound through consecutive samples gives
    max pairwise d2 <= C * (max gap)^(alpha - 1) * (interval length),
    which tends to 0 with the mesh, the discrete shadow of 'order above 1
    forces a constant map'.
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError("this check requires a finite alpha > 1")
    if not 0.0 <= C < math.inf:
        raise ValueError(f"C must be a nonnegative finite real, got {C!r}")
    x = np.asarray(domain_pts, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("domain_pts must be a 1-d list of at least 2 reals")
    Y = _as_points(range_pts)
    if len(Y) != len(x):
        raise DimensionMismatch(f"got {len(x)} domain and {len(Y)} range points")
    order = np.argsort(x, kind="stable")
    x = x[order]
    Y = Y[order]

    ii, jj = np.triu_indices(len(x), k=1)
    dx = x[jj] - x[ii]
    D2 = _dist_raw(d2, Y[ii], Y[jj])
    margins = (D2 - C * dx ** alpha) / np.maximum(1.0, C * dx ** alpha)
    worst = float(margins.max())
    precondition_ok = worst <= tol

    h = float(np.max(np.diff(x)))
    span = float(x[-1] - x[0])
    bound = C * h ** (alpha - 1.0) * span
    spread = float(D2.max())
    collapses = spread <= bound + tol * max(1.0, bound)
    return OrderCollapseReport(precondition_ok, collapses, spread, bound, worst)


def hausdorff_covering_sum(
    c: Polyline, m: Metric, alpha: float, scales
) -> list[tuple[int, float]]:
    """Finite-scale covering sums: sum over parameter blocks of diameter^alpha.

    For each scale s the parameter interval is split into s uniform
    closed blocks (boundary samples belong to both neighbors, mirroring a
    cover by closed subintervals) and the block image diameters under
    ``m`` are raised to ``alpha`` and summed.  Blocks holding fewer than
    2 samples add 0.  Bounded sums across scales indicate finite
    alpha-dimensional content of the curve's image.

    The diameters are exact, not estimates.  Under l1, the max norm, or
    in one dimension the norm is the largest |f(v)| over finitely many
    linear functionals f, so a block's diameter is the largest
    max - min of some f over the block.  Under any other norm the
    distance is convex in each argument, so the diameter is attained
    at a pair of the block's convex hull vertices.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")
    scale_list = [int(s) for s in scales]
    if not scale_list or any(s < 1 for s in scale_list):
        raise ValueError("scales must be a nonempty list of positive ints")
    _check_dim(c, m)
    if len(c) < 2:
        return [(s, 0.0) for s in scale_list]
    t = c.params
    a, b = float(t[0]), float(t[-1])
    eps = (b - a) * 1e-12
    P = np.ascontiguousarray(c.points.T)
    out: list[tuple[int, float]] = []
    for s in scale_list:
        edges = np.linspace(a, b, s + 1)
        lo = np.searchsorted(t, edges[:-1] - eps, side="left")
        hi = np.searchsorted(t, edges[1:] + eps, side="right")
        diam = _block_diameters(P, lo, hi, m.norm)
        out.append((s, float(np.sum(diam ** (m.beta * alpha)))))
    return out


# Blocks of up to this many samples skip the hull: the lag scan over all
# of them costs less than one Qhull call per block.
_LAG_SCAN_MAX = 48
# l1 needs 2^(n-1) sign functionals; above this dimension the hull and
# lag-scan branch is cheaper.
_L1_FUNCTIONAL_MAX_DIM = 8
# Qhull's cost grows steeply with the dimension; above this one a full
# pair scan of a long block is cheaper than its hull.
_HULL_MAX_DIM = 4
# Blocks are gathered about this many samples at a time: the copies stay
# small and in cache, which also makes the passes over them faster.
_CHUNK = 1 << 15


def _block_diameters(
    P: np.ndarray, lo: np.ndarray, hi: np.ndarray, norm: NormSpec
) -> np.ndarray:
    """Diameters under ``norm`` of the blocks P[:, lo[k]:hi[k]], all at once.

    ``P`` holds the samples as columns of a C-contiguous (dim, m) array,
    so a norm over the coordinates runs as a few whole-row vector
    operations (about four times faster than over rows of a (m, dim)
    array).  Blocks may share samples.  A block with fewer than 2
    samples has diameter 0.
    """
    diam = np.zeros(len(lo))
    count = hi - lo
    W = _functionals(norm, P.shape[0])
    hull = (count > _LAG_SCAN_MAX) & (W is None) & (P.shape[0] <= _HULL_MAX_DIM)
    rest = np.flatnonzero((count >= 2) & ~hull)
    for part in np.split(rest, np.flatnonzero(np.diff(np.cumsum(count[rest]) // _CHUNK)) + 1):
        if part.size == 0:
            continue
        if W is not None:
            diam[part] = _functional_spread(P, lo[part], count[part], W)
        else:
            part = part[np.argsort(-count[part], kind="stable")]
            Q = P.take(_concat_ranges(lo[part], count[part]), axis=1)
            diam[part] = _lag_scan(Q, count[part], norm)
    blocks = np.flatnonzero(hull)
    if blocks.size:
        cand = [a + _hull_candidates(P[:, a:b].T) for a, b in zip(lo[blocks], hi[blocks])]
        sizes = np.array([len(v) for v in cand])
        order = np.argsort(-sizes, kind="stable")
        Q = P.take(np.concatenate([cand[i] for i in order]), axis=1)
        diam[blocks[order]] = _lag_scan(Q, sizes[order], norm)
    return diam


def _functionals(norm: NormSpec, dim: int) -> np.ndarray | None:
    """Rows f with N(v) = max_f |f . v|, or None if no short list exists."""
    w = np.ones(dim) if norm.weights is None else np.asarray(norm.weights)
    if dim == 1 or norm.p == math.inf:
        return np.diag(w)
    if norm.p == 1.0 and dim <= _L1_FUNCTIONAL_MAX_DIM:
        signs = itertools.product((1.0, -1.0), repeat=dim - 1)
        return np.array([(1.0, *s) for s in signs]) * w
    return None


def _functional_spread(
    P: np.ndarray, lo: np.ndarray, count: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """Largest max - min of the functionals W over each block P[:, lo:lo+count].

    Each block is centred on its first sample, so the rounding error is
    relative to the block's own extent, not to its distance from 0.
    """
    Q = P.take(_concat_ranges(lo, count), axis=1)
    Q -= np.repeat(P[:, lo], count, axis=1)
    starts = np.cumsum(count) - count
    best = np.zeros(len(lo))
    for f in W:  # one pass per functional keeps memory at one row of Q
        v = f @ Q
        np.maximum(best, np.maximum.reduceat(v, starts) - np.minimum.reduceat(v, starts), out=best)
    return best


def _lag_scan(Q: np.ndarray, count: np.ndarray, norm: NormSpec) -> np.ndarray:
    """Pair-scan diameters of blocks stored back to back in Q's columns, longest first.

    Pass L takes every pair (i, i + L) inside a block.  The blocks longer
    than L form a prefix of Q, so one norm call covers their pairs and
    one reduceat splits the maxima by block.
    """
    starts = np.cumsum(count) - count
    best = np.zeros(len(count))
    for lag in range(1, int(count[0])):
        active = int(np.count_nonzero(count > lag))
        first = starts[:active]
        stop = first + count[:active] - lag  # pairs start in [first, stop)
        d = _norm_raw(norm, (Q[:, lag : stop[-1] + lag] - Q[:, : stop[-1]]).T)
        # even slots reduce one block's pairs; odd slots span the gaps and
        # are dropped (the last block runs to the end of d)
        bounds = np.column_stack([first, stop]).ravel()[:-1]
        np.maximum(best[:active], np.maximum.reduceat(d, bounds)[::2], out=best[:active])
    return best


def _concat_ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices lo[k], ..., lo[k] + count[k] - 1 of every block, back to back."""
    starts = np.cumsum(count) - count
    return np.arange(int(starts[-1] + count[-1])) + np.repeat(lo - starts, count)


def _hull_candidates(B: np.ndarray) -> np.ndarray:
    """Indices into B of its convex hull's vertices, or of every point if
    the block is flat or too small for Qhull."""
    from scipy.spatial import ConvexHull, QhullError  # slow to import: load on first use

    try:
        return ConvexHull(B - B[0]).vertices  # centred: Qhull's roundoff scales with |B|
    except QhullError:
        return np.arange(len(B))


def koch_generator(level: int) -> Polyline:
    """The level-n Koch curve from (0, 0) to (1, 0) on 4^n + 1 uniform parameters.

    Each refinement replaces every segment by four of a third the length,
    so the level-n curve has 4^n segments of Euclidean length 3^(-n) and
    total length (4/3)^n.
    """
    if not 0 <= level <= 12:
        raise ValueError("level must lie in [0, 12]")
    z = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    bump = complex(0.5, math.sqrt(3.0) / 2.0)  # rotation by 60 degrees
    for _ in range(level):
        a = z[:-1]
        third = (z[1:] - a) / 3.0
        new = np.empty(4 * len(a) + 1, dtype=complex)
        new[0::4][:-1] = a
        new[1::4] = a + third
        new[2::4] = a + third + third * bump
        new[3::4] = a + 2.0 * third
        new[-1] = z[-1]
        z = new
    params = np.linspace(0.0, 1.0, len(z))
    return Polyline(params, np.column_stack([z.real, z.imag]))


def _as_points(pts) -> np.ndarray:
    P = np.asarray(pts, dtype=float)
    if P.ndim == 1:
        P = P[:, None]
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError("expected a list of points (m, n)")
    if not np.all(np.isfinite(P)):
        raise ValueError("points must be finite")
    return P
