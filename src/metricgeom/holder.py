"""Lipschitz and Holder calculus: bound arithmetic, empirical (C, alpha)
fitting, order-above-1 collapse, finite-scale covering sums and a Koch
test-curve generator."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .curves import _STEP_CHUNK, Polyline, _check_dim, _steps
from .metrics import Metric
from .norms import DimensionMismatch, NormSpec, _finite_result, _norm_cols, _norm_raw


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
    ``witness`` pair attains it exactly; among several such pairs it is
    the lexicographically smallest (i, j), i < j.  ``log_C`` is log C,
    also where C itself overflows to inf (then it comes from the
    logarithms of the witness distances).  ``residual`` is the RMS of
    log d2 - (log C + alpha log d1) over the ``regression_pairs`` pairs
    with finite positive d1 and d2 that the order regression uses: all pairs, or a seeded
    subsample when ``subsampled``.  ``pairs_scanned`` counts the pairs
    whose ratio the branch-and-bound evaluated exactly, for instance 13%
    of all pairs on the level-6 Koch curve at its fitted order, and 47%
    on the 1500 scattered points of the ``sampled_curves`` benchmark fit.

    A pair of coincident domain points with distinct images makes the
    data non-Holder: then C, log_C and residual are inf and the witness
    is the offending pair.
    """

    C: float
    alpha: float
    residual: float
    witness: tuple[int, int]
    log_C: float
    pairs_scanned: int
    regression_pairs: int
    subsampled: bool

    @property
    def is_holder(self) -> bool:
        return self.log_C < math.inf


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


# Level-l blocks hold _LEAF * _FANOUT**l consecutive samples; leaf pairs
# are scanned exactly.
_LEAF = 16
_FANOUT = 16
# Block pairs per batch: a leaf batch scans 2^16 sample pairs, and every
# temporary stays near 1 MB.
_BATCH = 256
# Relative padding of the block-pair bounds.  It is far above the rounding
# of any distance, so rounding can never prune the pair that attains C.
_SLACK = 1e-9
_TINY = np.finfo(float).tiny
# Above this many pairs the order regression and the residual use a seeded
# subsample of this size (200 000 pairs: 632 samples).
_MAX_REGRESSION_PAIRS = 200_000


def fit_holder(
    domain_pts,
    range_pts,
    d1: Metric,
    d2: Metric,
    alpha: float | None = None,
    *,
    seed: int = 0,
) -> HolderFit:
    """Fit d2(f(x), f(y)) <= C * d1(x, y)^alpha to sampled points.

    With ``alpha`` given, C is the exact maximum of d2 / d1^alpha over all
    pairs (the tight constant, with the attaining pair as witness).  With
    ``alpha`` None, the order is estimated first as the least-squares
    slope of log d2 against log d1, then C is tightened at that order.
    A fitted order that is not a positive finite real, or regression
    pairs that all have the same d1, raise ``ValueError``; pass ``alpha``
    to fix the order instead.

    The regression pairs are all pairs where there are at most 200 000
    (632 samples), else a seeded uniform subsample of 200 000; the
    residual is taken over the same pairs.  Pairs with d1 or d2 zero or
    beyond the float range are left out of both.  C is exact all the
    same: a branch-and-bound over spatial blocks of the domain (a k-d
    order of the samples) bounds the ratio of every pair of blocks by
    the triangle inequality of the base norms, which holds for every
    ``Metric``, and scans exactly only the block pairs whose bound
    reaches the best ratio found.  Curves and scattered domains alike
    prune, and the sample order changes neither C nor the witness.

    If a pair of coincident domain points has distinct images, the data
    is not Holder of any order and the fit reports C = inf with that pair
    as witness.
    """
    X = _as_points(domain_pts)
    Y = _as_points(range_pts)
    if len(X) != len(Y):
        raise DimensionMismatch(f"got {len(X)} domain and {len(Y)} range points")
    count = len(X)
    if count < 2:
        raise ValueError("need at least 2 samples to fit")
    if alpha is not None:
        alpha = float(alpha)
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")

    log_d1, log_d2, subsampled = _regression_logs(X, Y, d1, d2, seed)
    if alpha is None:
        if len(log_d1) < 2:
            raise ValueError("not enough distinct pairs to fit an order")
        if np.all(log_d1 == log_d1[0]):
            raise ValueError("cannot fit an order: every regression pair has the same "
                             "domain distance; pass alpha= to fix the order")
        alpha = float(np.polyfit(log_d1, log_d2, 1)[0])
        if not 0.0 < alpha < math.inf:
            raise ValueError(f"fitted order {alpha!r} is not a positive finite real; "
                             "pass alpha= to fix the order")

    scan = _MaxRatioScan(X, Y, d1, d2, alpha)
    scan.run()
    stats = dict(pairs_scanned=scan.pairs_scanned, regression_pairs=len(log_d1),
                 subsampled=subsampled)
    if scan.bad_key is not None:
        return HolderFit(math.inf, alpha, math.inf, divmod(scan.bad_key, count),
                         math.inf, **stats)
    if scan.best < 0.0:  # every domain pair coincident, all images equal
        return HolderFit(0.0, alpha, 0.0, (0, 1), -math.inf, **stats)
    C = scan.best
    log_C = scan.best_log if C == math.inf else math.log(C) if C > 0.0 else -math.inf
    residual = 0.0
    if math.isfinite(log_C) and len(log_d1):
        g = log_d2 - alpha * log_d1
        mean = float(g.mean())
        residual = math.sqrt(float(np.sum((g - mean) ** 2)) / g.size + (mean - log_C) ** 2)
    return HolderFit(C, alpha, residual, divmod(scan.key, count), log_C, **stats)


def _regression_logs(
    X: np.ndarray,
    Y: np.ndarray,
    d1: Metric,
    d2: Metric,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """log d1 and log d2 over the regression pairs where both are finite,
    and whether those pairs are a subsample."""
    count = len(X)
    total = count * (count - 1) // 2
    if total <= _MAX_REGRESSION_PAIRS:
        ii, jj = np.triu_indices(count, k=1)
    else:
        rng = np.random.default_rng(seed)
        ii = np.empty(0, dtype=int)
        jj = np.empty(0, dtype=int)
        while len(ii) < _MAX_REGRESSION_PAIRS:
            a = rng.integers(0, count, _MAX_REGRESSION_PAIRS)
            b = rng.integers(0, count, _MAX_REGRESSION_PAIRS)
            keep = a != b
            ii = np.concatenate([ii, np.minimum(a[keep], b[keep])])
            jj = np.concatenate([jj, np.maximum(a[keep], b[keep])])
        ii = ii[:_MAX_REGRESSION_PAIRS]
        jj = jj[:_MAX_REGRESSION_PAIRS]
    XT = np.ascontiguousarray(X.T)
    YT = np.ascontiguousarray(Y.T)
    logs1, logs2 = [], []
    for a in range(0, len(ii), _STEP_CHUNK):  # chunks keep every temporary in cache
        i, j = ii[a : a + _STEP_CHUNK], jj[a : a + _STEP_CHUNK]
        D1 = _dist_cols(d1, _diffs(XT, i, j))
        D2 = _dist_cols(d2, _diffs(YT, i, j))
        ok = (0.0 < D1) & (D1 < math.inf) & (0.0 < D2) & (D2 < math.inf)
        logs1.append(np.log(D1[ok]))
        logs2.append(np.log(D2[ok]))
    return np.concatenate(logs1), np.concatenate(logs2), total > _MAX_REGRESSION_PAIRS


def _diffs(PT: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The differences of the columns i and j of PT, coordinate-major.

    ``take`` keeps the coordinates as rows; ``PT[:, i]`` would store them
    innermost, and every norm step over its rows would run about five
    times slower.
    """
    return PT.take(i, axis=1) - PT.take(j, axis=1)


def _dist_cols(d: Metric, D: np.ndarray) -> np.ndarray:
    """d over axis 0 of coordinate-major differences, as ``_dist_raw`` rounds it."""
    out = _norm_cols(d.norm, D)
    return out ** d.beta if d.beta != 1.0 else out


class _MaxRatioScan:
    """Branch-and-bound for the largest d2 / d1^alpha over the pairs i < j.

    The samples are first put in a k-d order (``_spatial_order``), so
    that every block below is a spatially compact cell of the domain.
    They are then split into blocks of consecutive samples on levels:
    leaves of ``_LEAF`` samples, and each level's blocks gather
    ``_FANOUT`` blocks of the level below.  Each block has an anchor
    sample a and radii r1, r2, the largest base-norm distances N1, N2
    from a to its samples (d = N^beta).  For i in block I and j in block J
    the triangle inequality of the norms gives

        N2(y_i - y_j) <= N2(a_I - a_J) + r2_I + r2_J,
        N1(x_i - x_j) >= N1(a_I - a_J) - r1_I - r1_J,

    and N^beta is increasing, so raising the first to beta2 and the
    second to beta1 * alpha gives U and L with U / L bounding every ratio
    of the block pair (infinite when L <= 0, which covers every
    coincident pair).  Taking the norms before the powers keeps the bound
    tight under a snowflake, where a sum of beta-powers is not.  U is
    padded by ``_SLACK`` after its power, so the margin against rounding
    does not shrink with beta2, and L is padded before its power.

    Starting from the one root pair, block pairs are split depth first,
    highest bound first, in batches, and dropped once their bound is
    below the best ratio found.  A block pair whose bound equals the best
    is kept, so every pair that attains the maximum is scanned, and
    ``key`` is the lexicographically smallest of them (as i * count + j,
    in the caller's sample indices), as a row-major scan of all pairs
    would return.

    The exact ratio is d2 / d1^alpha, taken from logarithms where d1^alpha
    leaves the normal range.  Where the ratio overflows, ``best`` is inf
    and ``best_log`` holds the largest log ratio.  ``bad_key`` is the
    smallest pair with d1 = 0 < d2, if any.
    """

    def __init__(self, X, Y, d1: Metric, d2: Metric, alpha: float):
        self.count = count = len(X)
        self.d1, self.d2, self.alpha = d1, d2, alpha
        self.order = _spatial_order(X)
        XT = np.ascontiguousarray(X[self.order].T)
        YT = np.ascontiguousarray(Y[self.order].T)
        self.levels = []
        size = _LEAF
        while True:
            self.levels.append(_block_anchors(XT, d1.norm, size)
                               + _block_anchors(YT, d2.norm, size))
            if size >= count:
                break
            size *= _FANOUT
        rows = np.minimum(np.arange(len(self.levels[0][1]) * _LEAF), count - 1)
        self.XL = XT.take(rows, axis=1).reshape(len(XT), -1, _LEAF)
        self.YL = YT.take(rows, axis=1).reshape(len(YT), -1, _LEAF)
        self.best = -1.0
        self.best_log = -math.inf
        self.key = 0
        self.bad_key = None
        self.pairs_scanned = 0

    def run(self) -> None:
        root = np.zeros(1, dtype=np.intp)
        stack = [(len(self.levels) - 1, root, root, np.full(1, math.inf))]
        while stack:
            level, I, J, bound = stack.pop()
            keep = bound >= self.best
            if not keep.any():
                continue
            I, J = I[keep], J[keep]
            if level == 0:
                self._scan_leaves(I, J)
                continue
            level -= 1
            I, J = _child_pairs(I, J, len(self.levels[level][1]))
            bound = self._bounds(level, I, J)
            order = np.argsort(-bound, kind="stable")
            order = order[: np.count_nonzero(bound >= self.best)]
            for s in range((len(order) - 1) // _BATCH * _BATCH, -1, -_BATCH):
                part = order[s : s + _BATCH]
                stack.append((level, I[part], J[part], bound[part]))

    def _bounds(self, level: int, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        AX, R1, AY, R2 = self.levels[level]
        with np.errstate(all="ignore"):
            upper = _norm_cols(self.d2.norm, _diffs(AY, I, J)) + R2[I] + R2[J]
            upper = upper ** self.d2.beta * (1.0 + _SLACK)
            gap = _norm_cols(self.d1.norm, _diffs(AX, I, J))
            reach = R1[I] + R1[J]
            lower = np.maximum(gap - reach - _SLACK * (gap + reach), 0.0)
            lower = lower ** (self.d1.beta * self.alpha)
            return np.where(lower >= _TINY, upper / lower, math.inf)

    def _scan_leaves(self, I: np.ndarray, J: np.ndarray) -> None:
        XI, XJ = self.XL.take(I, axis=1), self.XL.take(J, axis=1)
        YI, YJ = self.YL.take(I, axis=1), self.YL.take(J, axis=1)
        D1 = _dist_cols(self.d1, XI[..., :, None] - XJ[..., None, :])
        D2 = _dist_cols(self.d2, YI[..., :, None] - YJ[..., None, :])
        offset = np.arange(_LEAF)
        rows = (I * _LEAF)[:, None, None] + offset[None, :, None]
        cols = (J * _LEAF)[:, None, None] + offset[None, None, :]
        valid = (rows < cols) & (cols < self.count)
        self.pairs_scanned += int(np.count_nonzero(valid))

        def smallest(mask) -> int:  # in the caller's sample indices
            k, r, c = np.unravel_index(np.flatnonzero(mask), mask.shape)
            a = self.order[I[k] * _LEAF + r]
            b = self.order[J[k] * _LEAF + c]
            return int(np.min(np.minimum(a, b) * self.count + np.maximum(a, b)))

        bad = valid & (D1 == 0.0) & (D2 > 0.0)
        if bad.any():
            key = smallest(bad)
            self.bad_key = key if self.bad_key is None else min(self.bad_key, key)
            self.best = math.inf  # only block pairs that may hold coincident pairs remain
            return
        usable = valid & (D1 > 0.0) & (D1 < math.inf)  # d1 = inf only where x - y overflows
        alpha = self.alpha
        with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
            scale = np.where(usable, D1, 1.0) ** alpha
            # where d1^alpha leaves the normal range, take the ratio from logarithms
            low = usable & (scale < _TINY)
            ratios = np.divide(D2, scale, out=scale)
            if low.any():
                ratios[low] = np.exp(np.log(D2[low]) - alpha * np.log(D1[low]))
        ratios[~usable] = -np.inf
        top = float(ratios.max())
        if top < self.best or top < 0.0:
            return
        at_top = ratios == top
        if top == math.inf:  # overflow: compare the log ratios instead
            g = np.full(ratios.shape, -np.inf)
            g[at_top] = np.log(D2[at_top]) - alpha * np.log(D1[at_top])
            top_log = float(g.max())
            if self.best == math.inf and top_log < self.best_log:
                return
            at_top = g == top_log
            tie = self.best == math.inf and top_log == self.best_log
            self.best_log = top_log
        else:
            tie = top == self.best
        key = smallest(at_top)
        self.key = min(self.key, key) if tie else key
        self.best = top


def _spatial_order(X: np.ndarray) -> np.ndarray:
    """A k-d order of the samples: every aligned block is a compact cell.

    One coordinate: a stable sort, the identity on sorted samples.  More:
    split the samples recursively along the coordinate of widest extent,
    the lower part taking ``_LEAF`` * 2^j samples, 2^j the largest power
    of two below the part's leaf count.  The lower part is then a full
    binary tree of leaves, so every aligned run of ``_LEAF`` * 2^k
    samples, and with it every block of every level, is one cell.
    """
    if X.shape[1] == 1:
        return np.argsort(X[:, 0], kind="stable")
    order = np.arange(len(X))
    stack = [(0, len(X))]
    while stack:
        lo, hi = stack.pop()
        leaves = -(-(hi - lo) // _LEAF)
        if leaves < 2:
            continue
        P = X[order[lo:hi]]
        axis = int(np.argmax(P.max(axis=0) - P.min(axis=0)))
        order[lo:hi] = order[lo:hi][np.argsort(P[:, axis], kind="stable")]
        mid = lo + _LEAF * (1 << ((leaves - 1).bit_length() - 1))
        stack += [(lo, mid), (mid, hi)]
    return order


def _block_anchors(PT: np.ndarray, norm: NormSpec, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Anchors (each block's middle sample, as columns) and radii under
    ``norm`` of the blocks of ``size`` consecutive columns of ``PT``."""
    count = PT.shape[1]
    starts = np.arange(0, count, size)
    anchors = np.minimum(starts + size // 2, count - 1)
    owner = np.repeat(anchors, np.diff(np.append(starts, count)))
    radii = np.maximum.reduceat(_norm_cols(norm, PT - PT.take(owner, axis=1)), starts)
    return PT.take(anchors, axis=1), radii


def _child_pairs(I: np.ndarray, J: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i <= j < blocks, of child blocks of the block pairs (I, J), I <= J."""
    a = np.repeat(np.arange(_FANOUT), _FANOUT)
    b = np.tile(np.arange(_FANOUT), _FANOUT)
    ci = ((I * _FANOUT)[:, None] + a).ravel()
    cj = ((J * _FANOUT)[:, None] + b).ravel()
    keep = (ci <= cj) & (cj < blocks)
    return ci[keep], cj[keep]


@dataclass(frozen=True)
class OrderCollapseReport:
    """Outcome of the order-above-1 collapse check.

    ``precondition_ok`` records whether the samples satisfy the claimed
    (C, alpha) bound; a violated bound is reported here rather than
    raised.  For alpha >= 1 the tight constant over all pairs is the
    largest adjacent ratio, so only adjacent samples (in sorted domain
    order) are checked, and ``worst_precondition_margin`` is the largest
    margin (d2 - C h^alpha) / max(1, C h^alpha) over adjacent pairs, at
    most the largest over all pairs.  A margin up to the tolerance still
    passes, so a long pair can exceed C * dx^alpha by at most the sum of
    the slacks tol * max(1, C h^alpha) of the adjacent pairs it spans.
    ``collapses`` is the verdict: the range diameter
    ``max_range_spread`` fits under ``collapse_bound`` =
    C * h^(alpha - 1) * L, the chained bound that drives the spread to
    zero as the mesh h shrinks.  Where C h^alpha exceeds the float range
    a pair's margin is its limit -1, and ``collapse_bound`` may be inf.
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

    ``domain_pts`` are finite reals; they are sorted internally (range
    points follow).  The precondition is checked on adjacent samples
    only, and that loses nothing: for alpha >= 1,
    sum h_i^alpha <= (sum h_i)^alpha, so with the triangle inequality
    d2(y_j, y_k) <= sum of the steps d2(y_i, y_{i+1}), j <= i < k,
    <= K * sum h_i^alpha <= K * (x_k - x_j)^alpha, where K is the largest
    adjacent ratio step / h_i^alpha.  The tight constant over all pairs
    is therefore the largest adjacent ratio.  Chaining the bound through
    consecutive samples also gives max pairwise d2 <= C * (max gap)^(alpha
    - 1) * (interval length), which tends to 0 with the mesh, the
    discrete shadow of 'order above 1 forces a constant map'.  The range
    diameter is exact, from the covering-sum diameter kernel, and memory
    stays O(m).
    """
    if not 1.0 < alpha < math.inf:
        raise ValueError("this check requires a finite alpha > 1")
    if not 0.0 <= C < math.inf:
        raise ValueError(f"C must be a nonnegative finite real, got {C!r}")
    x = np.asarray(domain_pts, dtype=float)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("domain_pts must be a 1-d list of at least 2 reals")
    if not np.all(np.isfinite(x)):
        raise ValueError("domain_pts must be finite")
    Y = _as_points(range_pts)
    if len(Y) != len(x):
        raise DimensionMismatch(f"got {len(x)} domain and {len(Y)} range points")
    order = np.argsort(x, kind="stable")
    x = x[order]
    Y = Y[order]
    span = _finite_result(float(x[-1]) - float(x[0]), "domain span")

    h = np.diff(x)
    cap = np.zeros(len(h))
    if C > 0.0:
        with np.errstate(over="ignore"):
            cap = C * h ** alpha
            big = cap == math.inf  # h^alpha may overflow where C h^alpha does not
            cap[big] = np.exp(math.log(C) + alpha * np.log(h[big]))
    with np.errstate(invalid="ignore"):  # where C h^alpha overflows, the margin's limit is -1
        margins = np.where(cap < math.inf, (_steps(d2, Y) - cap) / np.maximum(1.0, cap), -1.0)
    worst = float(margins.max())
    precondition_ok = worst <= tol

    bound = _collapse_bound(C, float(h.max()), alpha - 1.0, span)
    P = np.ascontiguousarray(Y.T)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        diam = _block_diameters(P, np.zeros(1, dtype=np.intp), np.full(1, len(Y)), d2.norm)
    spread = _finite_result(float(diam[0]) ** d2.beta, "range diameter")
    collapses = spread <= bound + tol * max(1.0, bound)
    return OrderCollapseReport(precondition_ok, collapses, spread, bound, worst)


def _collapse_bound(C: float, h: float, e: float, span: float) -> float:
    """C * h^e * span, from logarithms where h^e alone overflows."""
    if C == 0.0:
        return 0.0
    try:
        return C * h ** e * span
    except OverflowError:
        with np.errstate(over="ignore"):
            return float(np.exp(math.log(C) + e * math.log(h) + math.log(span)))


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
    at a pair of the block's convex hull vertices.  A sum beyond the
    float range raises ``ValueError``.
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
        with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
            diam = _block_diameters(P, lo, hi, m.norm)
            total = float(np.sum(diam ** (m.beta * alpha)))
        out.append((s, _finite_result(total, "covering sum")))
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
