"""Lipschitz and Holder calculus: bound arithmetic, empirical (C, alpha)
fitting, order-above-1 collapse, finite-scale covering sums and a Koch
test-curve generator."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .curves import Polyline, _steps
from .metrics import Metric, _dist
from .norms import (_CHUNK_ROWS, DimensionMismatch, NormSpec, _check_dim, _finite_result, _norm,
                    _points, as_vector)


@dataclass(frozen=True)
class LipBound:
    """A Holder bound: d2(f(x), f(y)) <= C * d1(x, y)^alpha."""

    C: float
    alpha: float

    def __post_init__(self):
        # an overflowing bound arrives here as C = inf and is refused
        if not 0.0 <= self.C < math.inf:
            raise ValueError(f"constant C must be a finite nonnegative real, got {self.C!r}")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"order alpha must be a positive finite real, got {self.alpha!r}")


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
    whose ratio the branch-and-bound evaluated exactly, for instance 9%
    of all pairs on the level-6 Koch curve at its fitted order (l1
    domain, l2 range), and 26-29% on the 1500 scattered points of the
    ``sampled_curves`` benchmark fit.  The count depends on the search as
    well as the data: its block radii are exact distances only on leaves
    of 16 samples, and above them are bounds built from the children's
    radii; its block boxes are exact on every level.

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
    try:
        C = outer.C * inner.C ** outer.alpha
    except OverflowError:
        C = math.inf  # refused by LipBound, like any other overflow
    return LipBound(C, outer.alpha * inner.alpha)


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
    X = _points(domain_pts)
    Y = _points(range_pts)
    if len(X) != len(Y):
        raise DimensionMismatch(f"got {len(X)} domain and {len(Y)} range points")
    _check_dim(d1.dim, X.shape[1])
    _check_dim(d2.dim, Y.shape[1])
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
        # in place in the logs this call owns: g = log d2 - alpha log d1, then (g - mean)^2
        log_d1 *= alpha
        g = np.subtract(log_d2, log_d1, out=log_d2)
        mean = float(g.mean())
        g -= mean
        g *= g
        residual = math.sqrt(float(np.sum(g)) / g.size + (mean - log_C) ** 2)
    return HolderFit(C, alpha, residual, divmod(scan.key, count), log_C, **stats)


def _regression_logs(
    X: np.ndarray,
    Y: np.ndarray,
    d1: Metric,
    d2: Metric,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """log d1 and log d2 over the regression pairs where both are finite
    and positive, and whether those pairs are a subsample.

    The pairs are streamed from ``_regression_pairs``: each chunk is
    measured and its logs are written into two arrays allocated once.
    Beyond those two arrays the memory is O(chunk) and the pair indices:
    ``triu_indices`` for all pairs, or one round's first indices of the
    subsample (int32, half a log array).
    """
    count = len(X)
    total = count * (count - 1) // 2
    subsampled = total > _MAX_REGRESSION_PAIRS
    size = min(total, _MAX_REGRESSION_PAIRS)
    logs1, logs2 = np.empty(size), np.empty(size)
    XT = np.ascontiguousarray(X.T)
    YT = np.ascontiguousarray(Y.T)
    n = 0
    for i, j in _regression_pairs(count, seed, subsampled):
        with np.errstate(over="ignore", invalid="ignore"):  # such pairs are left out below
            D1 = _dist(d1, _diffs(XT, i, j))
            D2 = _dist(d2, _diffs(YT, i, j))
        ok = (0.0 < D1) & (D1 < math.inf) & (0.0 < D2) & (D2 < math.inf)
        k = n + np.count_nonzero(ok)
        np.log(D1[ok], out=logs1[n:k])
        np.log(D2[ok], out=logs2[n:k])
        n = k
    return logs1[:n], logs2[:n], subsampled


def _regression_pairs(count: int, seed: int,
                      subsampled: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The regression pairs (i, j), i < j, in chunks of at most
    ``_CHUNK_ROWS``: every pair in row-major order, or a seeded subsample
    of ``_MAX_REGRESSION_PAIRS`` pairs.

    The subsample is drawn in rounds of ``_MAX_REGRESSION_PAIRS`` first
    and second indices, coincident pairs dropped, until enough pairs are
    kept.  A round draws its first indices whole, then its second ones a
    chunk at a time from the same generator; numpy's bounded draws
    continue one stream across calls, so the pairs are those of drawing
    each round's two index arrays whole.  Below 2^31 samples, which no
    fit reaches, int32 draws take the values of int64 ones.
    """
    if not subsampled:
        ii, jj = np.triu_indices(count, k=1)
        for a in range(0, len(ii), _CHUNK_ROWS):  # chunks keep every temporary in cache
            yield ii[a : a + _CHUNK_ROWS], jj[a : a + _CHUNK_ROWS]
        return
    rng = np.random.default_rng(seed)
    need = _MAX_REGRESSION_PAIRS
    while need:
        first = rng.integers(0, count, _MAX_REGRESSION_PAIRS, dtype=np.int32)
        for a in range(0, _MAX_REGRESSION_PAIRS, _CHUNK_ROWS):
            i = first[a : a + _CHUNK_ROWS]
            j = rng.integers(0, count, len(i), dtype=np.int32)
            keep = i != j
            i, j = i[keep][:need], j[keep][:need]
            need -= len(i)
            yield np.minimum(i, j), np.maximum(i, j)
            if not need:
                return


def _diffs(PT: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The differences of the columns i and j of PT, coordinate-major.

    ``take`` keeps the coordinates as rows; ``PT[:, i]`` would store them
    innermost, and every norm step over its rows would run about five
    times slower.
    """
    return PT.take(i, axis=1) - PT.take(j, axis=1)


class _PairSearch:
    """Branch-and-bound over the pairs of samples inside each of many blocks.

    The block pair search of Har-Peled (SoCG 2001), shared by the Holder
    fit (one block, all samples) and the covering diameters (many
    blocks, possibly overlapping).  The samples of block k are the
    columns lo[k], ..., lo[k] + count[k] - 1 of ``P``, count[k] >= 1.

    The leaves are runs of ``_LEAF`` samples.  Level 0 holds, block
    after block, every aligned run P[:, 16 n : 16 n + 16] that meets the
    block, its slots clipped to the block's first and last sample.  A
    run that needs no clipping is row n of a reshape of P, shared by
    every block that holds it; only the clipped runs are gathered.  So a
    fit's last leaf repeats its last sample.  ``leaves`` holds the
    shared rows, then the clipped runs, and ``leaf[n]`` is the leaf of
    node n on level 0.

    Nodes form levels: level 0, and parents of up to ``_FANOUT``
    consecutive nodes of one block on the level below, until every
    block is one node.  A leaf's anchor is its slot ``_LEAF`` // 2.  A
    parent's anchor is the first slot of its child ``_FANOUT`` // 2, or
    the last slot of its last leaf if it has fewer children, so it is a
    sample of the node; for a block that starts at a multiple of
    ``_LEAF`` this is the slot start + w // 2 of the node's slot range,
    w = _LEAF * _FANOUT^level, clipped to the range's last slot.
    The rows of ``P`` may hold several spaces, each a slice of rows with
    its norm N (a fit's domain and range), and per space a node's radius
    r bounds N(p - a) over its samples: a leaf's is the largest such
    norm, a parent's is max N(a_child - a) + r_child over its children,
    padded by ``_SLACK``, so only the leaves touch the samples.  Then
    for i in node I and j in node J,

        N(a_I - a_J) - r_I - r_J <= N(p_i - p_j) <= N(a_I - a_J) + r_I + r_J.

    ``levels[l]`` holds the anchors (columns), the radii (one row per
    space), each node's block, and the (first, kids) of its children on
    level l - 1: node n's are first[n], ..., first[n] + kids[n] - 1.

    Starting from every block's root pair, node pairs (I, J), I <= J,
    of one block are split depth first, highest bound first, in batches
    of ``_BATCH``.  Subclasses define the three steps that differ: the
    bound of node pairs (``_bounds``), the test that keeps a pair
    (``_live``) and the exact scan of leaf pairs (``_scan_leaves``).
    """

    def __init__(self, P: np.ndarray, lo: np.ndarray, count: np.ndarray, spaces) -> None:
        hi = lo + count
        nodes = (hi - 1) // _LEAF - lo // _LEAF + 1
        block = np.repeat(np.arange(len(count)), nodes)
        self.leaf = leaf = _concat_ranges(lo // _LEAF, nodes)  # level 0: each block's aligned runs
        clipped = np.flatnonzero((leaf * _LEAF < lo[block]) | (leaf * _LEAF + _LEAF > hi[block]))
        slots = np.clip(leaf[clipped, None] * _LEAF + np.arange(_LEAF),
                        lo[block[clipped], None], hi[block[clipped], None] - 1)
        whole = P.shape[1] // _LEAF
        self.leaves = L = np.concatenate([
            P[:, : whole * _LEAF].reshape(len(P), whole, _LEAF),
            P.take(slots.ravel(), axis=1).reshape(len(P), len(slots), _LEAF)], axis=1)
        leaf[clipped] = whole + np.arange(len(clipped))
        A0 = np.ascontiguousarray(L[:, :, _LEAF // 2])
        R0 = np.array([_norm(N, L[rows] - A0[rows, :, None]).max(axis=1) for rows, N in spaces])
        A, R = A0.take(leaf, axis=1), R0.take(leaf, axis=1)
        self.levels = [(A, R, block, None)]
        flat = L.reshape(len(L), -1)
        lead = last = leaf  # each node's first and last leaf
        while nodes.max() > 1:
            parents = -(-nodes // _FANOUT)
            k = _concat_ranges(np.zeros_like(parents), parents)  # parent k of its block
            first = np.repeat(np.cumsum(nodes) - nodes, parents) + k * _FANOUT
            kids = np.minimum(_FANOUT, np.repeat(nodes, parents) - k * _FANOUT)
            mid = lead[np.minimum(first + _FANOUT // 2, len(lead) - 1)]
            lead, last = lead[first], last[first + kids - 1]
            AP = flat.take(np.where(kids > _FANOUT // 2, mid * _LEAF, last * _LEAF + _LEAF - 1),
                           axis=1)
            D = A - AP.take(np.repeat(np.arange(len(first)), kids), axis=1)
            reach = np.array([_norm(N, D[rows]) for rows, N in spaces]) + R
            R = np.maximum.reduceat(reach, first, axis=1) * (1.0 + _SLACK)
            A, block, nodes = AP, block[first], parents
            self.levels.append((A, R, block, (first, kids)))

    def run(self):
        """Search every block; returns ``best``."""
        top = len(self.levels) - 1
        roots = np.arange(len(self.levels[top][2]))  # on the top level, node k is block k
        stack = [(top, roots, roots, np.full(len(roots), math.inf))]
        while stack:
            level, I, J, bound = stack.pop()
            _, _, block, children = self.levels[level]
            keep = self._live(bound, block[I])
            if not keep.any():
                continue
            I, J = I[keep], J[keep]
            if level == 0:
                self._scan_leaves(I, J)
                continue
            I, J = _child_pairs(I, J, *children)
            level -= 1
            bound = self._bounds(level, I, J)
            live = np.flatnonzero(self._live(bound, self.levels[level][2][I]))
            order = live[np.argsort(-bound[live], kind="stable")]
            for s in range((len(order) - 1) // _BATCH * _BATCH, -1, -_BATCH):
                part = order[s : s + _BATCH]
                stack.append((level, I[part], J[part], bound[part]))
        return self.best

    def _leaf_diffs(self, I: np.ndarray, J: np.ndarray, rows=slice(None)) -> np.ndarray:
        """p_i - p_j on ``rows`` for every slot i of leaf I[k] and j of
        leaf J[k], as a (rows, k, _LEAF, _LEAF) array."""
        L = self.leaves[rows]
        I, J = self.leaf[I], self.leaf[J]
        return L.take(I, axis=1)[..., :, None] - L.take(J, axis=1)[..., None, :]


class _MaxRatioScan(_PairSearch):
    """Branch-and-bound for the largest d2 / d1^alpha over the pairs i < j.

    The samples are first put in a k-d order (``_spatial_order``), so
    that every node of the one-block ``_PairSearch`` is a spatially
    compact cell of the domain.  Its spaces are the domain under the
    base norm N1 and the range under N2 (d = N^beta), with radii r1 and
    r2: exact at the leaves, bounds built from the children above them.
    Each node also has a box, the least and greatest of each coordinate
    over its samples (``boxes[level]``, exact on every level).  A
    weighted lp norm grows with the absolute value of each coordinate,
    so over i in I and j in J, with gaps g = max(0, lo_J - hi_I,
    lo_I - hi_J) and spans s = max(hi_J - lo_I, hi_I - lo_J) taken per
    coordinate,

        N1(g) <= N1(x_i - x_j),  N2(y_i - y_j) <= N2(s).

    The search's bound on N1 is the larger of N1(g) and the anchor
    bound N1(a_I - a_J) - r1_I - r1_J, each padded by ``_SLACK``; its
    bound on N2 is the smaller of N2(s) and N2(a_I - a_J) + r2_I + r2_J.
    The box bounds are the tighter ones for most leaf pairs of the
    benchmark fits, scattered and curve alike.  ``np.maximum`` and
    ``np.minimum`` pass a nan on, so a nan from either bound (a
    difference beyond the float range) keeps the pair, and a box gap
    whose norm overflows pads to nan (inf - inf), not to a bound that
    prunes.  N^beta is increasing, so raising the upper bound on N2 to
    beta2 and the lower bound on N1 to beta1 * alpha gives U and L with
    U / L bounding every ratio of the node pair (infinite when L <= 0,
    which covers every coincident pair).  Taking the norms before the
    powers keeps the bound tight under a snowflake, where a sum of
    beta-powers is not.  U is padded by ``_SLACK`` after its power, so
    the margin against rounding does not shrink with beta2, and L is
    padded before its power.

    A node pair is dropped once its bound is below the best ratio found.
    A pair whose bound equals the best is kept, so every pair that
    attains the maximum is scanned, and ``key`` is the lexicographically
    smallest of them (as i * count + j, in the caller's sample indices),
    as a row-major scan of all pairs would return.  A nan bound is kept
    too, so a pair whose range distance overflows is always scanned.

    The exact ratio is d2 / d1^alpha, taken from logarithms where d1^alpha
    leaves the normal range.  Where the ratio overflows, ``best`` is inf
    and ``best_log`` holds the largest log ratio.  ``bad_key`` is the
    smallest pair with d1 = 0 < d2, if any.  A pair with 0 < d1 < inf
    whose d2 overflows raises ``ValueError``; pairs whose d1 overflows
    are left out.
    """

    def __init__(self, X, Y, d1: Metric, d2: Metric, alpha: float):
        self.count = count = len(X)
        self.xs, self.ys = slice(X.shape[1]), slice(X.shape[1], None)  # rows of each space
        self.d1, self.d2, self.alpha = d1, d2, alpha
        self.order = _spatial_order(X)
        with np.errstate(over="ignore", invalid="ignore"):  # radii of inf are never pruned
            super().__init__(np.hstack([X, Y])[self.order].T, np.zeros(1, dtype=np.intp),
                             np.array([count]), [(self.xs, d1.norm), (self.ys, d2.norm)])
        # each node's box: the per-coordinate least and greatest of its samples
        lo = self.leaves.min(axis=2).take(self.leaf, axis=1)
        hi = self.leaves.max(axis=2).take(self.leaf, axis=1)
        self.boxes = [(lo, hi)]
        for _, _, _, (first, _) in self.levels[1:]:
            lo, hi = np.minimum.reduceat(lo, first, axis=1), np.maximum.reduceat(hi, first, axis=1)
            self.boxes.append((lo, hi))
        self.best = -1.0
        self.best_log = -math.inf
        self.key = 0
        self.bad_key = None
        self.pairs_scanned = 0

    def _live(self, bound: np.ndarray, owner: np.ndarray) -> np.ndarray:
        return ~(bound < self.best)

    def _bounds(self, level: int, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        A, (R1, R2), _, _ = self.levels[level]
        lo, hi = self.boxes[level]
        xs, ys = self.xs, self.ys
        with np.errstate(all="ignore"):
            D = _diffs(A, I, J)
            span = _norm(self.d2.norm, np.maximum(*_box_diffs(lo[ys], hi[ys], I, J)))
            upper = np.minimum(_norm(self.d2.norm, D[ys]) + R2[I] + R2[J], span)
            upper = upper ** self.d2.beta * (1.0 + _SLACK)
            gap = _norm(self.d1.norm, D[xs])
            reach = R1[I] + R1[J]
            apart = np.maximum(-np.minimum(*_box_diffs(lo[xs], hi[xs], I, J)), 0.0)
            apart = _norm(self.d1.norm, apart)
            lower = np.maximum(gap - reach - _SLACK * (gap + reach), apart - _SLACK * apart)
            # at the smallest positive power: were beta1 * alpha to underflow to
            # 0, 0 ** 0 = 1 would bound the pairs of coincident domain points
            lower = lower ** max(self.d1.beta * self.alpha, math.ulp(0.0))
            return np.where(lower >= _TINY, upper / lower, math.inf)

    def _scan_leaves(self, I: np.ndarray, J: np.ndarray) -> None:
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is handled below
            D1 = _dist(self.d1, self._leaf_diffs(I, J, self.xs))
            D2 = _dist(self.d2, self._leaf_diffs(I, J, self.ys))
        offset = np.arange(_LEAF)  # node n of the one block is leaf n, slots 16 n, ...
        rows = (I * _LEAF)[:, None, None] + offset[None, :, None]
        cols = (J * _LEAF)[:, None, None] + offset[None, None, :]
        valid = (rows < cols) & (cols < self.count)
        self.pairs_scanned += int(np.count_nonzero(valid))
        usable = valid & (D1 > 0.0) & (D1 < math.inf)  # d1 = inf only where x - y overflows
        # the max clears most batches in one pass
        if not (D2.max() < math.inf or np.all(D2[usable] < math.inf)):
            raise ValueError("range distance of finite input overflows the float range")

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


def _box_diffs(lo: np.ndarray, hi: np.ndarray, I: np.ndarray, J: np.ndarray):
    """hi_J - lo_I and hi_I - lo_J, per coordinate row, for the box pairs (I, J).

    Their larger is the span of the two boxes; minus their smaller is the
    gap between them, since lo_J - hi_I = -(hi_I - lo_J) exactly.
    """
    return hi.take(J, axis=1) - lo.take(I, axis=1), hi.take(I, axis=1) - lo.take(J, axis=1)


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


def _child_pairs(
    I: np.ndarray, J: np.ndarray, first: np.ndarray, kids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j), i <= j, of children of the block pairs (I, J), I <= J,
    where block n's children are first[n], ..., first[n] + kids[n] - 1."""
    a = np.repeat(np.arange(_FANOUT), _FANOUT)
    b = np.tile(np.arange(_FANOUT), _FANOUT)
    ci = (first[I][:, None] + a).ravel()
    cj = (first[J][:, None] + b).ravel()
    keep = ((a < kids[I][:, None]) & (b < kids[J][:, None])).ravel() & (ci <= cj)
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
    if not math.isfinite(tol):  # a nan or infinite tolerance would decide the verdicts alone
        raise ValueError(f"tol must be finite, got {tol!r}")
    x = as_vector(domain_pts)
    if len(x) < 2:
        raise ValueError("domain_pts must hold at least 2 reals")
    Y = _points(range_pts)
    if len(Y) != len(x):
        raise DimensionMismatch(f"got {len(x)} domain and {len(Y)} range points")
    _check_dim(d2.dim, Y.shape[1])
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
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        diam = _block_diameters(Y.T, np.zeros(1, dtype=np.intp), np.full(1, len(Y)), d2.norm)
    spread = _finite_result(float((diam ** d2.beta)[0]), "range diameter")
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
    2 samples add 0; ``covering_resolution`` counts, per scale, the
    blocks that hold at least 2.  Bounded sums across scales indicate
    finite alpha-dimensional content of the curve's image.

    The diameters are exact, not estimates, and the blocks of every
    scale go to one diameter call.  Under l1, the max norm, or in one
    dimension the norm is the largest |f(v)| over finitely many linear
    functionals f, so a block's diameter is the largest max - min of
    some f over the block, taken from slices of the samples.  Under any
    other norm, blocks of up to 35 samples scan all their pairs, and
    longer ones, of all scales together, take the largest pair distance
    by a branch-and-bound over nested runs of samples, which bounds each
    pair of runs by the triangle inequality and scans exactly only the
    runs whose bound reaches the block's best distance found.  Its runs
    of 16 samples aligned to the curve are built once and shared by
    every scale.  A sum beyond the float range raises ``ValueError``.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be a positive finite real, got {alpha!r}")
    scale_list = _scale_list(scales)
    _check_dim(m.dim, c.dim)
    if len(c) < 2:
        return [(s, 0.0) for s in scale_list]
    lo, hi = (np.concatenate(ends) for ends in zip(*(_block_bounds(c.params, s) for s in scale_list)))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        diam = _block_diameters(c.points.T, lo, hi, m.norm)
        totals = [float(np.sum(d ** (m.beta * alpha)))
                  for d in np.split(diam, np.cumsum(scale_list)[:-1])]
    return [(s, _finite_result(total, "covering sum")) for s, total in zip(scale_list, totals)]


def covering_resolution(c: Polyline, scales) -> list[tuple[int, int, int]]:
    """(scale, blocks, resolved_blocks) for each scale of a covering sum.

    ``blocks`` is the number of parameter blocks of
    ``hausdorff_covering_sum`` at that scale, and ``resolved_blocks``
    the number that hold at least 2 samples; the others add 0 to the
    sum.  Fewer resolved blocks than blocks means the sampling is
    coarser than the scale, so the sum there says nothing of the
    curve: ``koch_generator(1)`` (5 samples) has 4 resolved blocks of 4
    at scale 4, but 0 of 1000 at scale 1000, where its covering sum is
    exactly 0.  The counts depend only on the parameters, and cost two
    binary searches per block.
    """
    t = c.params
    out = []
    for s in _scale_list(scales):
        lo, hi = _block_bounds(t, s)
        out.append((s, s, int(np.count_nonzero(hi - lo >= 2))))
    return out


def _scale_list(scales) -> list[int]:
    scale_list = list(scales)
    # s % 1 == 0 refuses 2.5, nan and inf; 4.0 and numpy ints pass
    if not scale_list or not all(s >= 1 and s % 1 == 0 for s in scale_list):
        raise ValueError("scales must be a nonempty list of positive integers")
    return [int(s) for s in scale_list]


def _block_bounds(t: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end sample of each of the s closed uniform
    parameter blocks of the sorted parameters t."""
    a, b = float(t[0]), float(t[-1])
    eps = (b - a) * 1e-12
    edges = np.linspace(a, b, s + 1)
    lo = np.searchsorted(t, edges[:-1] - eps, side="left")
    hi = np.searchsorted(t, edges[1:] + eps, side="right")
    return lo, hi


# Blocks of up to this many samples get a lag scan of all their pairs; it
# measured faster there than the branch-and-bound, and slower above (on
# Koch level 10 under l2 the two are level at 35- and 36-sample blocks).
_LAG_SCAN_MAX = 35
# l1 needs 2^(n-1) sign functionals; above this dimension the pair
# searches are cheaper.
_L1_FUNCTIONAL_MAX_DIM = 8
# The lag scan gathers short blocks, and the functional spread centres
# slices of the samples, about this many samples at a time: the copies
# stay small and in cache, which also makes the passes over them faster.
_CHUNK = 1 << 15


def _block_diameters(
    P: np.ndarray, lo: np.ndarray, hi: np.ndarray, norm: NormSpec
) -> np.ndarray:
    """Diameters under ``norm`` of the blocks P[:, lo[k]:hi[k]], all at once.

    ``P`` holds the samples as the columns of a (dim, m) array, such as
    the transpose of a row-major point array; the pair scans make it
    C-contiguous and hand their differences to ``norms._norm`` in that
    layout.  Callers set ``np.errstate`` for overflow and report a
    non-finite diameter themselves.  Blocks may share samples and may
    come from many scales; all blocks longer than ``_LAG_SCAN_MAX``
    samples go to one pair search.  A block with fewer than 2 samples
    has diameter 0.
    """
    diam = np.zeros(len(lo))
    count = hi - lo
    if _has_functionals(norm, len(P)):
        some = np.flatnonzero(count >= 2)
        if some.size:
            diam[some] = _functional_spread(P, lo[some], count[some], norm)
        return diam
    P = np.ascontiguousarray(P)
    short = np.flatnonzero((count >= 2) & (count <= _LAG_SCAN_MAX))
    for part in np.split(short, np.flatnonzero(np.diff(np.cumsum(count[short]) // _CHUNK)) + 1):
        if part.size == 0:
            continue
        part = part[np.argsort(-count[part], kind="stable")]
        Q = P.take(_concat_ranges(lo[part], count[part]), axis=1)
        diam[part] = _lag_scan(Q, count[part], norm)
    long = np.flatnonzero(count > _LAG_SCAN_MAX)
    if long.size:
        diam[long] = _DiameterScan(P, lo[long], count[long], norm).run()
    return diam


class _DiameterScan(_PairSearch):
    """Branch-and-bound for the largest N(p_i - p_j) inside each of many blocks.

    A ``_PairSearch`` over the blocks with one space, whose clipped
    slots change no diameter; a node pair's bound is the search's upper
    bound, padded by ``_SLACK``.  The anchors are samples, so every
    N(a_I - a_J) is a real pair distance of the block and raises its
    best value.  A node pair is dropped once its bound is at most its
    block's best value: only the value is wanted, not a witness, so a
    tie cannot change it, and a block of one repeated sample prunes at
    once.  A nan bound is never dropped, so a pair whose difference
    overflows is scanned and its nan or inf reaches the result; a block
    whose best value is nan is done.  Leaf pairs are scanned exactly,
    with ``norms._norm``, so every finite diameter has the bits of a
    scan of all its block's pairs.
    """

    def __init__(self, P: np.ndarray, lo: np.ndarray, count: np.ndarray, norm: NormSpec):
        self.norm = norm
        self.best = np.full(len(count), -np.inf)
        super().__init__(P, lo, count, [(slice(None), norm)])

    def _live(self, bound: np.ndarray, owner: np.ndarray) -> np.ndarray:
        best = self.best[owner]
        return ~(bound <= best) & ~np.isnan(best)

    def _bounds(self, level: int, I: np.ndarray, J: np.ndarray) -> np.ndarray:
        A, (R,), block, _ = self.levels[level]
        gap = _norm(self.norm, _diffs(A, I, J))
        np.maximum.at(self.best, block[I], gap)
        return (gap + R[I] + R[J]) * (1.0 + _SLACK)

    def _scan_leaves(self, I: np.ndarray, J: np.ndarray) -> None:
        D = _norm(self.norm, self._leaf_diffs(I, J))
        np.maximum.at(self.best, self.levels[0][2][I], D.reshape(len(I), -1).max(axis=1))


def _has_functionals(norm: NormSpec, dim: int) -> bool:
    """Whether N(v) = max_f |f . v| over a short list of functionals f."""
    return dim == 1 or norm.p == math.inf or (norm.p == 1.0 and dim <= _L1_FUNCTIONAL_MAX_DIM)


def _functional_values(norm: NormSpec, Q: np.ndarray):
    """f . v over the columns v of Q, one array per functional f of ``norm``.

    The functionals are w_c e_c for the max norm and in one dimension,
    and (w_0, +-w_1, ..., +-w_{n-1}) for l1, with the weights w of
    ``norm``.  Each is evaluated elementwise, the terms f_c v_c added in
    coordinate order, so a column's value does not depend on the other
    columns.  The l1 sums share their prefixes: depth first, each
    partial sum is formed once.
    """
    if norm.weights is not None:
        Q = Q * np.asarray(norm.weights)[:, None]
    if len(Q) == 1 or norm.p == math.inf:
        yield from Q
        return
    stack = [(1, Q[0])]
    while stack:
        c, v = stack.pop()
        if c == len(Q):
            yield v
        else:
            stack += [(c + 1, v - Q[c]), (c + 1, v + Q[c])]


def _functional_spread(
    P: np.ndarray, lo: np.ndarray, count: np.ndarray, norm: NormSpec
) -> np.ndarray:
    """Largest max - min of the functionals of ``norm`` over each block
    P[:, lo:lo+count], count >= 2.

    Each sample is centred on its block's first sample, so the rounding
    error is relative to the block's own extent, not to its distance
    from 0.  The blocks are cut into near-equal pieces of at most
    ``_CHUNK`` samples, and runs of pieces that follow one another in P
    are centred straight from slices of P, about ``_CHUNK`` samples at a
    time.  A sample that two pieces share, as neighbouring blocks of a
    closed cover do, is read once, by the earlier piece; every piece's
    extremes then take in 0.0, the exact value of its block's first
    sample.
    """
    cuts = -(-count // _CHUNK)
    owner = np.repeat(np.arange(len(lo)), cuts)
    k = _concat_ranges(np.zeros_like(cuts), cuts)
    start = lo[owner] + count[owner] * k // cuts[owner]
    stop = lo[owner] + count[owner] * (k + 1) // cuts[owner]
    start[1:] += start[1:] == stop[:-1] - 1  # a shared sample is read by the earlier piece
    ends = np.flatnonzero((start[1:] != stop[:-1])
                          | (np.diff(np.cumsum(stop - start) // _CHUNK) != 0)) + 1
    centre = P[:, lo[owner]]
    tops, bottoms = [], []  # per run, one row per functional
    for i, j in zip(np.append(0, ends), np.append(ends, len(start))):
        Q = np.repeat(centre[:, i:j], (stop - start)[i:j], axis=1)
        np.subtract(P[:, start[i] : stop[j - 1]], Q, out=Q)
        at = start[i:j] - start[i]
        tops.append([])
        bottoms.append([])
        for v in _functional_values(norm, Q):
            tops[-1].append(np.maximum.reduceat(v, at))
            bottoms[-1].append(np.minimum.reduceat(v, at))
    # 0.0 is the exact value of every block's first sample, whichever piece reads it
    top, bottom = np.maximum(np.hstack(tops), 0.0), np.minimum(np.hstack(bottoms), 0.0)
    first = np.cumsum(cuts) - cuts
    spread = np.maximum.reduceat(top, first, axis=1) - np.minimum.reduceat(bottom, first, axis=1)
    best = np.zeros(len(lo))
    for row in spread:
        np.maximum(best, row, out=best)
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
        d = _norm(norm, Q[:, lag : stop[-1] + lag] - Q[:, : stop[-1]])
        # even slots reduce one block's pairs; odd slots span the gaps and
        # are dropped (the last block runs to the end of d)
        bounds = np.column_stack([first, stop]).ravel()[:-1]
        np.maximum(best[:active], np.maximum.reduceat(d, bounds)[::2], out=best[:active])
    return best


def _concat_ranges(lo: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The indices lo[k], ..., lo[k] + count[k] - 1 of every block, back to back."""
    starts = np.cumsum(count) - count
    return np.arange(int(starts[-1] + count[-1])) + np.repeat(lo - starts, count)


def koch_generator(level: int) -> Polyline:
    """The level-n Koch curve from (0, 0) to (1, 0) on 4^n + 1 uniform parameters.

    Each refinement replaces every segment by four of a third the length,
    so the level-n curve has 4^n segments of Euclidean length 3^(-n) and
    total length (4/3)^n.
    """
    if not 0 <= level <= 12:
        raise ValueError("level must lie in [0, 12]")
    # Every level is refined in place in the (x, y) array of the final
    # size, seen as complex numbers, the level-k samples at stride
    # 4^(level - k); the curve keeps that array, so no whole-curve
    # temporary is made and dropped.
    m = 4**level
    P = np.empty((m + 1, 2))
    z = P.view(complex)[:, 0]
    z[0], z[m] = 0.0, 1.0
    bump = complex(0.5, math.sqrt(3.0) / 2.0)  # rotation by 60 degrees
    for k in range(level):
        s = 4 ** (level - k)
        a = z[:m:s]
        third = (z[s::s] - a) / 3.0
        z[s // 4 :: s] = a + third
        z[s // 2 :: s] = a + third + third * bump
        z[3 * s // 4 :: s] = a + 2.0 * third
    t = np.linspace(0.0, 1.0, m + 1)
    t.setflags(write=False)
    P.setflags(write=False)
    return Polyline(t, P)
