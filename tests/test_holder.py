import functools
import itertools
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

from metricgeom import (
    DimensionMismatch,
    LipBound,
    NormSpec,
    check_order_gt1_constant,
    covering_resolution,
    fit_holder,
    hausdorff_covering_sum,
    koch_generator,
    length,
    lip_compose,
    lip_product,
    lip_scale,
    lip_sum,
    norm_metric,
    snowflake,
)
from metricgeom import holder
from metricgeom.curves import Polyline
from metricgeom.holder import (
    _CHUNK,
    _L1_FUNCTIONAL_MAX_DIM,
    _LAG_SCAN_MAX,
    _FANOUT,
    _LEAF,
    _DiameterScan,
    _MaxRatioScan,
    _block_diameters,
    _lag_scan,
    _regression_logs,
    _regression_pairs,
    _spatial_order,
)
from metricgeom.metrics import distance

L1 = norm_metric(NormSpec(1))
L2 = norm_metric(NormSpec(2))

KOCH_DIM = math.log(4.0) / math.log(3.0)

# numpy's power and log run SIMD code where AVX512_SKX is on and libm
# elsewhere, and the two round some arguments apart; bits that depend on
# them are pinned per path.  NPY_ENABLE_CPU_FEATURES without the AVX-512
# features selects the second path on any host.
AVX512_SKX = bool(__cpu_features__.get("AVX512_SKX"))


class TestLipCalculus:
    def test_sum_adds_constants(self):
        assert lip_sum(LipBound(3.0, 1.0), LipBound(4.0, 1.0)) == LipBound(7.0, 1.0)

    def test_sum_requires_equal_order(self):
        with pytest.raises(ValueError):
            lip_sum(LipBound(1.0, 1.0), LipBound(1.0, 0.5))

    def test_scale(self):
        assert lip_scale(LipBound(2.0, 0.5), -3.0) == LipBound(6.0, 0.5)
        assert lip_scale(LipBound(2.0, 0.5), 0.0) == LipBound(0.0, 0.5)

    def test_compose_order_one(self):
        assert lip_compose(LipBound(3.0, 1.0), LipBound(5.0, 1.0)) == LipBound(15.0, 1.0)

    def test_compose_general_orders(self):
        got = lip_compose(LipBound(2.0, 0.5), LipBound(9.0, 1.0))
        assert got.C == pytest.approx(2.0 * 3.0)
        assert got.alpha == 0.5

    def test_compose_associative_at_order_one(self):
        a, b, c = LipBound(2.0, 1.0), LipBound(3.0, 1.0), LipBound(5.0, 1.0)
        left = lip_compose(lip_compose(a, b), c)
        right = lip_compose(a, lip_compose(b, c))
        assert left == right == LipBound(30.0, 1.0)

    def test_product_rule(self):
        got = lip_product(LipBound(2.0, 1.0), LipBound(3.0, 1.0), sup1=4.0, sup2=5.0)
        assert got == LipBound(2.0 * 5.0 + 3.0 * 4.0, 1.0)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            LipBound(-1.0, 1.0)
        with pytest.raises(ValueError):
            LipBound(1.0, 0.0)

    @pytest.mark.parametrize("C, alpha", [
        (math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan),
        (math.inf, math.inf),
    ])
    def test_bound_must_be_finite(self, C, alpha):
        with pytest.raises(ValueError, match="finite"):
            LipBound(C, alpha)

    @pytest.mark.parametrize("op", [
        lambda: lip_sum(LipBound(1e308, 1.0), LipBound(1e308, 1.0)),
        lambda: lip_scale(LipBound(1e308, 1.0), 10.0),
        lambda: lip_product(LipBound(1e308, 1.0), LipBound(1.0, 1.0), 1.0, 10.0),
        lambda: lip_compose(LipBound(1.0, 2.0), LipBound(1e200, 1.0)),
    ], ids=["sum", "scale", "product", "compose"])
    def test_overflowing_bound_raises(self, op):
        # an overflowing constant raises ValueError, never C = inf or OverflowError
        with pytest.raises(ValueError, match="constant C must be a finite"):
            op()


class TestFitHolder:
    def test_identity_map(self):
        xs = np.linspace(0.0, 2.0, 40)[:, None]
        fit = fit_holder(xs, xs, L1, L1, alpha=1.0)
        assert fit.C == 1.0
        assert fit.is_holder

    def test_sqrt_fixture_tight_constant(self):
        xs = np.linspace(0.0, 1.0, 1000)[:, None]
        ys = np.sqrt(xs)
        fit = fit_holder(xs, ys, L1, L1, alpha=0.5)
        assert fit.C == pytest.approx(1.0, abs=1e-9)
        # independent exhaustive oracle over all pairs
        flat = xs[:, 0]
        num = np.abs(np.sqrt(flat)[:, None] - np.sqrt(flat)[None, :])
        den = np.abs(flat[:, None] - flat[None, :]) ** 0.5
        mask = den > 0
        oracle = float(np.max(num[mask] / den[mask]))
        assert fit.C == pytest.approx(oracle, rel=1e-12)
        # the witness pair attains the constant
        i, j = fit.witness
        d1 = abs(flat[i] - flat[j]) ** 0.5
        d2 = abs(math.sqrt(flat[i]) - math.sqrt(flat[j]))
        assert fit.C == pytest.approx(d2 / d1, rel=1e-12)

    def test_fitted_order_on_exactly_snowflaked_distances(self):
        # with d2 = d1^0.6 the log-log regression is exact
        xs = np.linspace(0.0, 1.0, 300)[:, None]
        fit = fit_holder(xs, xs, L1, snowflake(L1, 0.6))
        assert fit.alpha == pytest.approx(0.6, abs=1e-12)
        assert fit.C == pytest.approx(1.0, rel=1e-12)
        assert fit.residual < 1e-12

    def test_koch_level_6_dimension(self):
        curve = koch_generator(6)
        fit = fit_holder(curve.params[:, None], curve.points, L1, L2)
        assert fit.alpha == pytest.approx(math.log(3.0) / math.log(4.0), abs=0.03)
        # independent regression oracle on a seeded subsample of pairs
        rng = np.random.default_rng(123)
        i = rng.integers(0, len(curve), 60_000)
        j = rng.integers(0, len(curve), 60_000)
        keep = i != j
        i, j = i[keep], j[keep]
        d1 = np.abs(curve.params[i] - curve.params[j])
        d2 = np.linalg.norm(curve.points[i] - curve.points[j], axis=1)
        slope = np.polyfit(np.log(d1), np.log(d2), 1)[0]
        assert fit.alpha == pytest.approx(slope, abs=0.02)

    def test_snowflaked_domain_rescales_order_not_constant(self):
        # order a against d1 equals order a/b against d1^b, with the same C
        xs = np.linspace(0.0, 1.0, 400)[:, None]
        ys = np.sqrt(xs)
        plain = fit_holder(xs, ys, L1, L1, alpha=0.5)
        snowed = fit_holder(xs, ys, snowflake(L1, 0.25), L1, alpha=2.0)
        assert snowed.C == pytest.approx(plain.C, rel=1e-9)

    def test_coincident_domain_distinct_images_reported_non_holder(self):
        xs = np.array([[0.0], [1.0], [1.0]])
        ys = np.array([[0.0], [2.0], [3.0]])
        fit = fit_holder(xs, ys, L1, L1, alpha=1.0)
        assert not fit.is_holder
        assert fit.C == math.inf
        assert fit.witness == (1, 2)

    def test_duplicates_with_equal_images_tolerated(self):
        xs = np.array([[0.0], [1.0], [1.0]])
        ys = np.array([[0.0], [2.0], [2.0]])
        fit = fit_holder(xs, ys, L1, L1, alpha=1.0)
        assert fit.is_holder
        assert fit.C == 2.0

    def test_constant_map_has_zero_constant(self):
        xs = np.linspace(0.0, 1.0, 10)[:, None]
        ys = np.ones_like(xs)
        fit = fit_holder(xs, ys, L1, L1, alpha=1.0)
        assert fit.C == 0.0

    def test_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fit_holder(np.zeros((3, 1)), np.zeros((4, 1)), L1, L1, alpha=1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, 0.0, -1.0])
    def test_given_order_must_be_positive_and_finite(self, alpha):
        xs = np.linspace(0.0, 1.0, 10)[:, None]
        with pytest.raises(ValueError):
            fit_holder(xs, xs, L1, L1, alpha=alpha)

    def test_no_sampled_pair_violates_the_fit(self):
        rng = np.random.default_rng(9)
        xs = np.sort(rng.uniform(0.0, 2.0, 120))[:, None]
        ys = np.column_stack([np.sin(3.0 * xs[:, 0]), np.cos(xs[:, 0])])
        for alpha in (0.5, 1.0):
            fit = fit_holder(xs, ys, L1, L2, alpha=alpha)
            d1 = np.abs(xs[:, 0][:, None] - xs[:, 0][None, :])
            d2 = np.linalg.norm(ys[:, None, :] - ys[None, :, :], axis=-1)
            mask = d1 > 0
            assert np.all(d2[mask] <= fit.C * d1[mask] ** alpha * (1 + 1e-12))

    def test_underflowing_order_power_keeps_a_finite_constant(self):
        # d1^alpha = 1e-400 underflows; the ratio 1e-300 / 1e-400 is 1e100
        with np.errstate(all="raise"):
            fit = fit_holder([0.0, 1e-200, 1.0], [0.0, 1e-300, 1.0], L1, L1, alpha=2.0)
        assert fit.is_holder
        assert fit.C == pytest.approx(1e100, rel=1e-12)
        assert fit.witness == (0, 1)
        assert math.isfinite(fit.residual)
        # a pair with equal images and an underflowing d1^alpha has ratio 0
        with np.errstate(all="raise"):
            fit = fit_holder([0.0, 1e-200, 1.0], [0.0, 0.0, 1.0], L1, L1, alpha=2.0)
        assert fit.C == 1.0

    def test_equal_domain_distances_cannot_fit_an_order(self):
        # every regression pair has d1 = 1: pair (0, 2) has equal images
        with pytest.raises(ValueError, match="same domain distance.*alpha="):
            fit_holder([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], L1, L1)

    def test_negative_fitted_order_is_rejected(self):
        # the regression slope is about -0.28
        with pytest.raises(ValueError, match="not a positive finite real.*alpha="):
            fit_holder([0.0, 1.0, 3.0], [0.0, 5.0, 5.5], L1, L1)

    @pytest.mark.parametrize("slope", [3.0, 1e6, 1e-6])
    def test_exactly_linear_data_has_no_residual(self, slope):
        # every pair has the same log ratio up to the rounding of slope * x
        for seed in range(20):
            xs = np.sort(np.random.default_rng(seed).uniform(size=300))
            fit = fit_holder(xs, slope * xs, L1, L1, alpha=1.0)
            assert fit.C == pytest.approx(slope, rel=1e-9)
            assert fit.residual < 1e-9


def _oracle_lp(V, p, beta=1.0, weights=None):
    """Weighted lp distances over the last axis, written apart from the library.

    The max-factored form, and einsum for the sum of squares (numpy's sum
    rounds differently), are the library's, so that both round alike and
    the constants can be compared bit for bit.
    """
    A = np.abs(V) if weights is None else np.abs(V) * np.asarray(weights)
    if p == math.inf:
        d = A.max(axis=-1)
    elif p == 1.0:
        d = A.sum(axis=-1)
    else:
        top = A.max(axis=-1)
        unit = A / np.where(top > 0.0, top, 1.0)[..., None]
        if p == 2.0:
            power_sum = np.einsum("...i,...i->...", unit, unit)
        else:
            power_sum = np.sum(unit ** p, axis=-1)
        d = top * power_sum ** (1.0 / p)
    return d ** beta if beta != 1.0 else d


def _oracle_fit(X, Y, alpha, d1, d2):
    """(C, witness) by a row-major scan of every pair i < j.

    ``d1`` and ``d2`` are (p, beta, weights).  A coincident domain pair
    with distinct images wins outright; otherwise the first pair of the
    largest ratio d2 / d1^alpha, which is the lexicographically smallest.
    """
    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    ii, jj = np.triu_indices(len(X), k=1)
    D1 = _oracle_lp(X[ii] - X[jj], *d1)
    D2 = _oracle_lp(Y[ii] - Y[jj], *d2)
    bad = np.flatnonzero((D1 == 0.0) & (D2 > 0.0))
    if bad.size:
        return math.inf, (int(ii[bad[0]]), int(jj[bad[0]]))
    usable = D1 > 0.0
    if not usable.any():
        return 0.0, (0, 1)
    with np.errstate(all="ignore"):
        scale = np.where(usable, D1, 1.0) ** alpha
        ratio = D2 / scale
        low = usable & (scale < np.finfo(float).tiny)
        ratio[low] = np.exp(np.log(D2[low]) - alpha * np.log(D1[low]))
    ratio[~usable] = -np.inf
    k = int(np.argmax(ratio))
    return float(ratio[k]), (int(ii[k]), int(jj[k]))


def _metric_of(p, beta=1.0, weights=None):
    m = norm_metric(NormSpec(p, weights))
    return snowflake(m, beta) if beta != 1.0 else m


def _random_oracle_cases():
    rng = np.random.default_rng(31)
    cases = []
    for k in range(24):
        m = int(rng.choice([2, 16, 17, 257, 300, 600]))
        n1, n2 = (int(v) for v in rng.integers(1, 4, 2))
        if k % 2:  # a curve: index blocks are compact, so most block pairs are pruned
            t = np.sort(rng.uniform(0.0, 1.0, m))
            X = np.column_stack([t] + [np.sin((j + 2) * t) for j in range(n1 - 1)])
            Y = np.cumsum(rng.normal(0.0, 0.05, (m, n2)), axis=0)
        else:  # scattered: index blocks are spread out, so few are pruned
            X = rng.normal(size=(m, n1))
            Y = np.sin(X @ rng.normal(size=(n1, n2)))
        d1 = (float(rng.choice([1.0, 1.5, 2.0, math.inf])), float(rng.choice([1.0, 0.5])),
              tuple(rng.uniform(0.5, 2.0, n1)) if k % 3 == 0 else None)
        d2 = (float(rng.choice([1.0, 1.5, 2.0, math.inf])), float(rng.choice([1.0, 0.6])), None)
        alpha = float(rng.choice([0.3, 0.5, 0.8, 1.0, 2.0]))
        cases.append(pytest.param(X, Y, alpha, d1, d2, id=f"rand{k}-m{m}"))
    return cases


def _special_oracle_cases():
    cases = []
    t = np.linspace(0.0, 1.0, 600)
    X = np.column_stack([np.cos(6.0 * t), np.sin(6.0 * t)])
    Y = np.column_stack([t, t * t])
    dup = X.copy()
    dup[[100, 101, 450]] = dup[[99, 99, 20]]  # repeats with equal images below
    dup_images = Y.copy()
    dup_images[[100, 101, 450]] = dup_images[[99, 99, 20]]
    cases.append(pytest.param(dup, dup_images, 0.5, (2.0, 1.0, None), (1.0, 1.0, None),
                              id="duplicates"))
    far = X.copy()
    far[[595, 201]] = far[[190, 200]]  # distinct images; (200, 201) is met first
    cases.append(pytest.param(far, Y, 1.0, (2.0, 1.0, None), (2.0, 1.0, None),
                              id="coincident-far-apart"))
    # scattered: most block pairs have infinite bounds, so the smaller pair
    # (5, 600) is scanned in a later batch than (100, 101)
    rng = np.random.default_rng(3)
    scattered = rng.normal(size=(800, 2))
    scattered[[101, 600]] = scattered[[100, 5]]
    cases.append(pytest.param(scattered, rng.normal(size=(800, 1)), 0.5, (2.0, 1.0, None),
                              (1.0, 1.0, None), id="coincident-scattered"))
    const = X.copy()
    const[1] = const[0]  # (0, 1) is coincident, so the first usable pair is (0, 2)
    cases.append(pytest.param(const, np.ones((600, 1)), 1.0, (2.0, 1.0, None),
                              (1.0, 1.0, None), id="constant-map"))
    for seed in range(4):
        # opposite spikes: the largest ratio sits between blocks at a moderate
        # lag, where only a correct lower bound on d1 keeps its block pair
        rng = np.random.default_rng(seed)
        spikes = np.zeros(600)
        spikes[rng.integers(0, 600, 12)] = rng.uniform(-1.0, 1.0, 12)
        cases.append(pytest.param(np.arange(600.0), spikes, float(rng.choice([0.1, 0.3])),
                                  (1.0, 1.0, None), (1.0, 1.0, None), id=f"spikes{seed}"))
    for level in (4, 5):
        c = koch_generator(level)
        for p2 in (1.0, 2.0, math.inf):
            for alpha in (KOCH_DIM ** -1, 0.8, 1.0):
                cases.append(pytest.param(c.params, c.points, alpha, (1.0, 1.0, None),
                                          (p2, 1.0, None),
                                          id=f"koch{level}-l{p2:g}-a{alpha:.3f}"))
    return cases


def _spatial_oracle_cases():
    rng = np.random.default_rng(17)
    cases = []
    for dim, d1, d2, alpha in [(2, (2.0, 1.0, None), (2.0, 0.5, None), 0.5),
                               (2, (1.0, 0.5, (2.0, 0.5)), (math.inf, 1.0, None), 0.8),
                               (3, (2.0, 1.0, None), (1.5, 0.6, None), 0.4),
                               (3, (math.inf, 0.7, None), (2.0, 0.5, None), 1.0)]:
        X = rng.uniform(-1.0, 1.0, (700, dim)) * rng.uniform(0.1, 10.0, dim)
        Y = np.column_stack([np.sin(2.0 * X @ rng.normal(size=dim)), np.cos(X[:, 0])])
        cases.append(pytest.param(X, Y, alpha, d1, d2,
                                  id=f"scattered{dim}d-l{d1[0]:g}-snow{d2[1]:g}"))
    # a near-linear map under a snowflaked domain: the ratio N^(1/2) peaks at
    # the farthest pairs, where the lower bounds must be raised to beta1 * alpha
    X = rng.uniform(-100.0, 100.0, (700, 2))
    Y = X @ rng.normal(size=(2, 2)) + rng.normal(0.0, 0.1, (700, 2))
    cases.append(pytest.param(X, Y, 1.0, (2.0, 0.5, None), (2.0, 1.0, None), id="far-pairs"))
    t = np.sort(rng.uniform(0.0, 1.0, 600))
    for k, (p2, beta) in enumerate([(1.0, 1.0), (2.0, 0.5)]):
        perm = rng.permutation(600)
        walk = np.cumsum(rng.normal(size=(600, 2)), axis=0)
        cases.append(pytest.param(t[perm], walk[perm], 0.5, (1.0, 1.0, None), (p2, beta, None),
                                  id=f"shuffled1d-{k}"))
    return cases


class TestFitHolderBranchAndBound:
    """The block branch-and-bound against a scan of every pair."""

    @pytest.mark.parametrize("X, Y, alpha, d1, d2", _random_oracle_cases()
                             + _special_oracle_cases() + _spatial_oracle_cases())
    def test_constant_and_witness_match_the_all_pairs_oracle(self, X, Y, alpha, d1, d2):
        fit = fit_holder(X, Y, _metric_of(*d1), _metric_of(*d2), alpha=alpha)
        C, witness = _oracle_fit(X, Y, alpha, d1, d2)
        assert fit.C == C  # bit for bit
        assert fit.witness == witness
        assert fit.is_holder == (C < math.inf)
        assert fit.pairs_scanned <= len(X) * (len(X) - 1) // 2

    def test_block_pair_closer_than_its_anchors_is_kept(self):
        # Opposite spikes at 94 and 114 give the largest ratio 2 / 20^0.1, from
        # leaf blocks whose anchors lie 32 apart.  A decoy pair (300, 301) of
        # ratio 1.46 is met first, above 2 / 24^0.1, so the pair survives only
        # if the lower bound on d1 subtracts both blocks' full radii.
        y = np.zeros(4096)
        y[[94, 114, 300, 301]] = [-1.0, 1.0, 0.73, -0.73]
        fit = fit_holder(np.arange(4096.0), y, L1, L1, alpha=0.1)
        assert fit.witness == (94, 114)
        assert fit.C == pytest.approx(2.0 / 20.0 ** 0.1, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_coincident_pair_under_an_underflowing_order_power(self, seed):
        # beta1 * alpha = 5e-324 * 0.5 underflows to 0: a lower bound of 0 on
        # d1 raised to it is 1, not 0, and could prune the coincident pair
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(500, 2))
        X[7] = X[300]
        Y = rng.normal(size=(500, 1))
        Y[7] = Y[300] + 1e-3
        fit = fit_holder(X, Y, snowflake(L2, 5e-324), L1, alpha=0.5)
        assert (fit.C, fit.witness, fit.is_holder) == (math.inf, (7, 300), False)

    def test_koch_ties_are_exact(self):
        # self-similarity gives several pairs of exactly the largest ratio;
        # the witness must still be the smallest of them
        c = koch_generator(4)
        ii, jj = np.triu_indices(len(c), k=1)
        ratio = _oracle_lp(c.points[ii] - c.points[jj], 2.0) / (c.params[jj] - c.params[ii]) ** 0.8
        assert np.count_nonzero(ratio == ratio.max()) == (17 if AVX512_SKX else 16)
        fit = fit_holder(c.params, c.points, L1, L2, alpha=0.8)
        assert fit.witness == (90, 91)

    # (C, alpha) where AVX512_SKX is on, then where it is off: the logarithms
    # of the regression move alpha by 1 ulp, and C follows it
    @pytest.mark.parametrize("p2, bits, witness", [
        (1.0, [("0x1.628b4cf9eafcep+0", "0x1.896263a9b6732p-1"),
               ("0x1.628b4cf9eafccp+0", "0x1.896263a9b6731p-1")], (8184, 13312)),
        (2.0, [("0x1.0c224fbe0bae5p+0", "0x1.98319a01195b9p-1"),
               ("0x1.0c224fbe0baeap+0", "0x1.98319a01195bap-1")], (11814, 11815)),
    ])
    def test_koch_level_7_fit(self, p2, bits, witness):
        # 134M pairs: an all-pairs scan takes over 10 s here
        C_hex, alpha_hex = bits[0] if AVX512_SKX else bits[1]
        c = koch_generator(7)
        started = time.perf_counter()
        fit = fit_holder(c.params[:, None], c.points, L1, _metric_of(p2))
        elapsed = time.perf_counter() - started
        assert fit.alpha == float.fromhex(alpha_hex)
        assert fit.C == float.fromhex(C_hex)
        assert fit.witness == witness
        assert fit.subsampled and fit.regression_pairs == 200_000
        assert fit.pairs_scanned < len(c) * (len(c) - 1) // 20
        assert elapsed < 5.0

    @pytest.mark.parametrize("count, d2, alpha, residual_hex", [
        (513, L2, None, "0x1.4a0473b1693acp+2"),
        (513, snowflake(L2, 0.5), 0.3, "0x1.f541d083a1a56p+0"),
        (300, L1, 0.5, "0x1.875c11f38aaafp+1"),
    ])
    def test_residual_over_all_pairs_is_pinned(self, count, d2, alpha, residual_hex):
        # up to 632 samples the regression pairs are all pairs; these bits are
        # the all-pairs residual of the row-block scan this fit replaced
        rng = np.random.default_rng(7)
        t = np.sort(rng.uniform(size=513))[:count]
        walk = np.cumsum(rng.normal(size=(513, 2)), axis=0)[:count]
        fit = fit_holder(t, walk, L1, d2, alpha=alpha)
        assert not fit.subsampled
        assert fit.regression_pairs == count * (count - 1) // 2
        assert fit.residual == float.fromhex(residual_hex)

    def test_overflowing_constant_keeps_the_holder_verdict(self):
        # the tight constant is 1 / (1e-200)^2 = 1e400, beyond the float range
        fit = fit_holder([0.0, 1e-200, 1.0], [0.0, 1.0, 2.0], L1, L1, alpha=2.0)
        assert fit.is_holder
        assert fit.C == math.inf
        assert fit.log_C == pytest.approx(400.0 * math.log(10.0), rel=1e-12)
        assert fit.witness == (0, 1)
        assert math.isfinite(fit.residual)

    def test_overflowing_distances_are_left_out(self):
        # d1(0, 2) and d2(0, 2) overflow to inf; the other pairs have ratio 1
        pts = [-1e308, 0.0, 1e308]
        with np.errstate(over="ignore"):
            fit = fit_holder(pts, pts, L1, L1, alpha=1.0)
        assert (fit.C, fit.witness) == (1.0, (0, 1))
        assert fit.regression_pairs == 2
        assert fit.residual == 0.0

    @pytest.mark.parametrize("d2", [L1, L2])
    def test_overflowing_range_distance_raises(self, d2):
        # d2(3, 8) is 3.4e308 under both norms while d1(3, 8) = 5 is finite:
        # no finite constant exists, yet the data is not shown non-Holder
        Y = np.zeros((100, 2))
        Y[3], Y[8] = (1.7e308, 0.0), (-1.7e308, 0.0)
        with pytest.raises(ValueError, match="overflows the float range"):
            fit_holder(np.arange(100.0), Y, L1, d2, alpha=1.0)

    def test_log_constant_of_finite_and_degenerate_fits(self):
        xs = np.linspace(0.0, 1.0, 50)
        fit = fit_holder(xs, 3.0 * xs, L1, L1, alpha=1.0)
        assert fit.log_C == math.log(fit.C)
        assert fit_holder(xs, np.ones(50), L1, L1, alpha=1.0).log_C == -math.inf
        bad = fit_holder([0.0, 1.0, 1.0], [0.0, 2.0, 3.0], L1, L1, alpha=1.0)
        assert bad.log_C == math.inf and not bad.is_holder


def _oracle_subsample(count, seed, size):
    """The subsample drawn whole: rounds of two int64 index arrays of
    ``size`` draws each, coincident pairs dropped, joined and cut to
    ``size`` pairs; also the number of rounds."""
    rng = np.random.default_rng(seed)
    firsts, seconds, need = [], [], size
    while need:
        a = rng.integers(0, count, size)
        b = rng.integers(0, count, size)
        keep = a != b
        firsts.append(a[keep][:need])
        seconds.append(b[keep][:need])
        need -= len(firsts[-1])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    return np.minimum(a, b), np.maximum(a, b), len(firsts)


def _scattered_with_repeats(count, seed):
    """Scattered 2-D samples, some repeated, so that some drawn pairs have
    d1 = 0 and are left out of the logs."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (count, 2))
    X[1::7] = X[::7][: len(X[1::7])]
    Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2, np.cos(2.0 * X[:, 1])])
    return X, Y


class TestRegressionPairs:
    """The streamed regression pairs against the subsample drawn whole."""

    def _check_against_oracle(self, count, seed):
        X, Y = _scattered_with_repeats(count, seed)
        d2 = snowflake(L2, 0.5)
        ii, jj, rounds = _oracle_subsample(count, seed, holder._MAX_REGRESSION_PAIRS)
        chunks = list(_regression_pairs(count, seed, True))
        assert all(len(i) <= holder._CHUNK_ROWS for i, _ in chunks)
        assert np.array_equal(np.concatenate([i for i, _ in chunks]), ii)
        assert np.array_equal(np.concatenate([j for _, j in chunks]), jj)
        D1, D2 = distance(L2, X[ii], X[jj]), distance(d2, Y[ii], Y[jj])
        ok = (D1 > 0.0) & (D2 > 0.0)
        log_d1, log_d2, subsampled = _regression_logs(X, Y, L2, d2, seed)
        assert subsampled and 0 < len(log_d1) < len(ii)
        assert log_d1.tobytes() == np.log(D1[ok]).tobytes()
        assert log_d2.tobytes() == np.log(D2[ok]).tobytes()
        return rounds

    @pytest.mark.parametrize("count", [633, 1025, 1500, 4097])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_streamed_pairs_are_the_whole_draw(self, count, seed):
        self._check_against_oracle(count, seed)

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_rounds_ending_inside_a_chunk(self, monkeypatch, chunk):
        # 1000 pairs of 50 samples: about 20 draws per round are coincident,
        # so the first round ends short of the need, inside its last chunk
        # when 1000 is not a multiple of the chunk, and a second round fills it
        monkeypatch.setattr(holder, "_MAX_REGRESSION_PAIRS", 1000)
        monkeypatch.setattr(holder, "_CHUNK_ROWS", chunk)
        rounds = [self._check_against_oracle(50, seed) for seed in range(5)]
        assert max(rounds) > 1

    def test_subsampled_call_memory_is_the_two_log_arrays(self):
        # the two log arrays take 3.2 MB and one round's first indices 0.8 MB;
        # drawing whole and joining per-chunk logs peaked at 17.9 MB
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 1.0, (1500, 2))
        Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2, np.cos(2.0 * X[:, 1])])
        d2 = snowflake(L2, 0.5)
        _regression_logs(X, Y, L2, d2, 0)
        tracemalloc.start()
        try:
            log_d1, _, subsampled = _regression_logs(X, Y, L2, d2, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert subsampled and len(log_d1) == 200_000
        assert peak < 6e6


class TestFitHolderSpatialOrder:
    """The k-d sample order: ties, coincident pairs and pruning."""

    def test_grid_ties_return_the_smallest_original_pair(self):
        # a shuffled integer grid whose images take three values: hundreds of
        # pairs tie for the largest ratio, in leaves all over the domain
        g = np.stack(np.meshgrid(np.arange(24.0), np.arange(24.0)), axis=-1).reshape(-1, 2)
        perm = np.random.default_rng(4).permutation(len(g))
        X, Y = g[perm], (g[perm] % 3.0)[:, :1]
        ii, jj = np.triu_indices(len(X), k=1)
        ratio = np.abs(Y[ii, 0] - Y[jj, 0]) / np.abs(X[ii] - X[jj]).sum(axis=1)
        top = np.flatnonzero(ratio == ratio.max())
        assert len(top) > 100
        fit = fit_holder(X, Y, L1, L1, alpha=1.0)
        assert fit.witness == (int(ii[top[0]]), int(jj[top[0]]))

    @pytest.mark.parametrize("images_equal", [False, True])
    def test_coincident_pairs_in_different_leaves(self, images_equal):
        # 40 copies of one point fill more than two leaves, so some
        # coincident pairs are split between leaves
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 2))
        copies = rng.choice(np.arange(1, 500), 40, replace=False)
        X[copies] = X[0]
        Y = rng.normal(size=(500, 1))
        if images_equal:
            Y[copies] = Y[0]
        position = np.argsort(_spatial_order(X))
        assert len(set(position[np.append(copies, 0)] // _LEAF)) >= 3
        fit = fit_holder(X, Y, L2, L1, alpha=0.5)
        C, witness = _oracle_fit(X, Y, 0.5, (2.0, 1.0, None), (1.0, 1.0, None))
        assert (fit.C, fit.witness) == (C, witness)
        assert fit.is_holder == images_equal

    def test_scattered_fit_prunes(self):
        # the scattered fit of the benchmark: index blocks scanned every pair
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 1.0, (1500, 2))
        Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2, np.cos(2.0 * X[:, 1])])
        fit = fit_holder(X, Y, L2, snowflake(L2, 0.5), alpha=0.5)
        assert fit.pairs_scanned < 0.6 * (1500 * 1499 // 2)
        assert fit.C == float.fromhex("0x1.ec3b20efafe28p+0")
        assert fit.witness == (466, 1489)

    def test_sorted_one_dimensional_fits_scan_the_same_pairs(self):
        # a stable sort is the identity on sorted samples, so shuffled samples
        # scan the pairs that sorted ones do
        c = koch_generator(5)
        assert fit_holder(c.params, c.points, L1, L1).pairs_scanned == 130880
        assert fit_holder(c.params, c.points, L1, L2).pairs_scanned == 171552
        x = np.concatenate([[0.0], np.sort(np.random.default_rng(0).uniform(0.0, 1.0, 1999))])
        assert fit_holder(x, np.sqrt(x), L1, L1, alpha=0.5).pairs_scanned == 55960
        perm = np.random.default_rng(1).permutation(2000)
        shuffled = fit_holder(x[perm], np.sqrt(x[perm]), L1, L1, alpha=0.5)
        assert shuffled.pairs_scanned == 55960
        oracle = _oracle_fit(x[perm], np.sqrt(x[perm]), 0.5, (1.0, 1.0, None), (1.0, 1.0, None))
        assert (shuffled.C, shuffled.witness) == oracle

    def test_scattered_two_dimensional_fit_scans_a_pinned_count(self):
        # square roots and divisions round correctly on every CPU, so the
        # count is the same on every numpy dispatch path
        rng = np.random.default_rng(5)
        X = rng.uniform(-1.0, 1.0, (900, 2))
        Y = np.column_stack([np.abs(X[:, 0]) ** 0.5, X[:, 0] * X[:, 1]])
        fit = fit_holder(X, Y, L2, L1, alpha=0.5)
        assert fit.pairs_scanned == 82502
        assert (fit.C, fit.witness) == _oracle_fit(X, Y, 0.5, (2.0, 1.0, None), (1.0, 1.0, None))


def _oracle_collapse(x, Y, alpha, C, d2, tol=1e-9):
    """The collapse check over every pair i < j of the sorted samples.

    ``d2`` is (p, beta, weights).  Besides the verdicts, the spread and the
    bound, it returns the largest margin over all pairs and over adjacent
    ones, and the largest excess d2 - C dx^alpha over the sum of the
    slacks tol * max(1, C h^alpha) of the adjacent pairs a pair spans,
    less a rounding allowance of 1e-12 relative.
    """
    order = np.argsort(x, kind="stable")
    x = np.asarray(x, dtype=float)[order]
    Y = np.asarray(Y, dtype=float).reshape(len(x), -1)[order]
    ii, jj = np.triu_indices(len(x), k=1)
    dx = x[jj] - x[ii]
    D2 = _oracle_lp(Y[ii] - Y[jj], *d2)
    cap = C * dx ** alpha
    margins = (D2 - cap) / np.maximum(1.0, cap)
    h = np.diff(x)
    slack = np.concatenate([[0.0], np.cumsum(tol * np.maximum(1.0, C * h ** alpha))])
    bound = C * float(h.max()) ** (alpha - 1.0) * float(x[-1] - x[0])
    spread = float(D2.max())
    return {
        "precondition_ok": bool(margins.max() <= tol),
        "collapses": spread <= bound + tol * max(1.0, bound),
        "max_range_spread": spread,
        "collapse_bound": bound,
        "worst": float(margins.max()),
        "worst_adjacent": float(margins[jj == ii + 1].max()),
        "excess": float(np.max(D2 - cap - (slack[jj] - slack[ii]) - 1e-12 * (D2 + cap))),
    }


def _collapse_case(k: int):
    """Seeded inputs for the collapse check, shuffled, some with repeated
    domain points; a third have random ranges, the rest are chained from
    steps of u * C h^alpha with u in [0, 1), one step per fifth case at 1.5."""
    rng = np.random.default_rng(k)
    m = int(rng.choice([2, 3, 17, 60, 200]))
    dim = int(rng.integers(1, 4))
    d2 = (float(rng.choice([1.0, 1.5, 2.0, math.inf])), float(rng.choice([1.0, 0.7, 0.5])),
          tuple(rng.uniform(0.5, 2.0, dim)) if k % 3 == 0 else None)
    alpha = float(rng.choice([1.1, 1.5, 2.0, 3.0]))
    C = float(rng.choice([0.0, 0.1, 1.0, 10.0]))
    x = np.sort(rng.uniform(-1.0, 2.0, m))
    if k % 4 == 0:
        x[rng.integers(0, m, m // 3 + 1)] = x[m // 2]
        x.sort()
    if k % 3 == 0:
        Y = rng.normal(size=(m, dim)) * float(rng.choice([1.0, 1e-3, 0.0]))
    else:
        u = rng.uniform(0.0, 1.0, m - 1)
        if k % 5 == 1:
            u[rng.integers(0, m - 1)] = 1.5
        v = rng.normal(size=(m - 1, dim))
        size = (u * C * np.diff(x) ** alpha) ** (1.0 / d2[1])
        steps = v / _oracle_lp(v, d2[0], 1.0, d2[2])[:, None] * size[:, None]
        Y = np.vstack([np.zeros((1, dim)), np.cumsum(steps, axis=0)])
    perm = rng.permutation(m)
    return x[perm], Y[perm], alpha, C, d2


class TestOrderAboveOneCollapse:
    def test_constant_range_collapses(self):
        xs = np.linspace(0.0, 1.0, 50)
        ys = np.full((50, 1), 3.0)
        rep = check_order_gt1_constant(xs, ys, L1, alpha=1.5, C=1.0)
        assert rep.precondition_ok
        assert rep.collapses
        assert rep.max_range_spread == 0.0

    def test_linear_map_fails_the_claimed_bound(self):
        xs = np.linspace(0.0, 1.0, 11)  # spacing 0.1 < 1
        rep = check_order_gt1_constant(xs, xs[:, None], L1, alpha=2.0, C=1.0)
        assert not rep.precondition_ok
        assert rep.worst_precondition_margin > 0.0

    def test_synthetic_order_three_halves_data(self):
        h = 1e-3
        xs = np.arange(0.0, 1.0 + h / 2, h)
        bumps = 0.5 * h ** 1.5 * (np.arange(len(xs)) % 2)
        rep = check_order_gt1_constant(xs, bumps[:, None], L1, alpha=1.5, C=1.0)
        assert rep.precondition_ok
        assert rep.collapses
        # chained oracle: n steps of C h^alpha each
        assert rep.collapse_bound == pytest.approx((len(xs) - 1) * 1.0 * h ** 1.5, rel=0.01)
        assert rep.max_range_spread <= 0.032

    def test_adjacent_pass_matches_the_all_pairs_oracle(self):
        verdicts = set()
        for k in range(240):
            x, Y, alpha, C, d2 = _collapse_case(k)
            rep = check_order_gt1_constant(x, Y, _metric_of(*d2), alpha, C)
            want = _oracle_collapse(x, Y, alpha, C, d2)
            assert rep.precondition_ok == want["precondition_ok"], k
            assert rep.collapses == want["collapses"], k
            assert rep.collapse_bound == want["collapse_bound"], k
            assert rep.max_range_spread == pytest.approx(want["max_range_spread"],
                                                         rel=1e-12, abs=0.0), k
            assert rep.worst_precondition_margin == want["worst_adjacent"], k
            assert rep.worst_precondition_margin <= want["worst"], k
            if rep.precondition_ok:
                assert want["excess"] <= 0.0, k
            verdicts.add((rep.precondition_ok, rep.collapses))
        assert verdicts == {(True, True), (False, True), (False, False)}

    def test_long_pairs_may_exceed_the_bound_by_their_slacks(self):
        # three coincident domain points, steps of exactly tol: each adjacent
        # margin is tol, so the check passes, while the long pair's margin is
        # 2 tol, the sum of the two slacks it spans
        tol = 2.0 ** -30
        ys = np.array([[0.0], [tol], [2.0 * tol]])
        rep = check_order_gt1_constant(np.zeros(3), ys, L1, alpha=2.0, C=1.0, tol=tol)
        assert rep.precondition_ok
        assert rep.worst_precondition_margin == tol
        want = _oracle_collapse(np.zeros(3), ys, 2.0, 1.0, (1.0, 1.0, None), tol)
        assert want["worst"] == 2.0 * tol

    def test_hundred_thousand_samples_in_linear_memory(self):
        # the all-pairs check would hold five arrays of 5e9 pairs each
        m = 100_000
        x = np.linspace(0.0, 1.0, m)
        bumps = 0.5 * (1.0 / (m - 1)) ** 1.5 * (np.arange(m) % 2)
        perm = np.random.default_rng(5).permutation(m)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            rep = check_order_gt1_constant(x[perm], bumps[perm, None], L1, alpha=1.5, C=1.0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.precondition_ok and rep.collapses
        assert rep.max_range_spread == bumps.max()
        assert elapsed < 1.0
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_hundred_thousand_sample_arc_under_a_second(self, p):
        # every sample of a convex arc is a hull vertex: a scan of all hull
        # vertex pairs took 89 s here, the branch-and-bound far under 1 s
        m = 100_000
        x = np.linspace(0.0, 1.0, m)
        arc = np.column_stack([np.cos(np.pi * x), np.sin(np.pi * x)])
        start = time.perf_counter()
        rep = check_order_gt1_constant(x, arc, norm_metric(NormSpec(p)), alpha=1.5, C=10.0)
        elapsed = time.perf_counter() - start
        assert rep.max_range_spread == _lag_scan(np.ascontiguousarray(arc[[0, -1]].T),
                                                 np.array([2]), NormSpec(p))[0]
        assert elapsed < 1.0

    def test_hundred_thousand_repeats_of_one_point_under_a_second(self):
        # every block pair ties the best value 0, and a tie cannot raise it
        m = 100_000
        start = time.perf_counter()
        rep = check_order_gt1_constant(np.linspace(0.0, 1.0, m), np.tile([0.3, 0.7], (m, 1)),
                                       L2, alpha=1.5, C=1.0)
        assert time.perf_counter() - start < 1.0
        assert rep.max_range_spread == 0.0 and rep.collapses

    def test_overflow_inside_a_long_range_raises(self):
        # the pair (x3, x8) overflows, so leaf 0's radius is nan: a nan bound
        # must never prune, or the diameter would come out as 1.7e308
        with pytest.raises(ValueError, match="range diameter .* overflows the float range"):
            check_order_gt1_constant(np.arange(100.0), _overflow_block(), L2, 2.0, 1.0)

    def test_overflowing_cap_has_margin_minus_one(self):
        # C h^2 = 1e400 overflows; the step 1 lies far below it, so the
        # margin is its limit -1, and no warning is raised
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_order_gt1_constant([0.0, 1e200], [[0.0], [1.0]], L1, alpha=2.0, C=1.0)
            assert rep.precondition_ok and rep.worst_precondition_margin == -1.0
            assert rep.collapses and rep.collapse_bound == math.inf
            rep = check_order_gt1_constant([0.0, 1e200], [[0.0], [1.0]], L1, alpha=3.0, C=1.0)
            assert rep.precondition_ok and rep.worst_precondition_margin == -1.0

    @pytest.mark.parametrize("alpha, margin, bound", [(2.0, 1e180, 1e20), (3.0, 1e20, 1e180)])
    def test_small_constant_times_overflowing_power(self, alpha, margin, bound):
        # h^alpha and h^(alpha - 1) may overflow where C times them does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = check_order_gt1_constant([0.0, 1e160], [[0.0], [1e200]], L1, alpha, C=1e-300)
        assert not rep.precondition_ok
        assert rep.worst_precondition_margin == pytest.approx(margin, rel=1e-12)
        assert rep.collapse_bound == pytest.approx(bound, rel=1e-12)
        assert not rep.collapses

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_domain_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            check_order_gt1_constant([0.0, 0.5, bad], np.zeros((3, 1)), L1, 2.0, 1.0)

    def test_overflowing_span_or_diameter_raises(self):
        with pytest.raises(ValueError, match="domain span .* overflows the float range"):
            check_order_gt1_constant([-1e308, 1e308], np.zeros((2, 1)), L1, 2.0, 0.0)
        with pytest.raises(ValueError, match="range diameter .* overflows the float range"):
            check_order_gt1_constant([0.0, 1.0], [[-1e308, 0.0], [1e308, 0.0]], L2, 2.0, 1.0)

    def test_requires_alpha_above_one(self):
        with pytest.raises(ValueError):
            check_order_gt1_constant(np.array([0.0, 1.0]), np.zeros((2, 1)), L1, 1.0, 1.0)
        with pytest.raises(ValueError):
            check_order_gt1_constant(np.array([0.0, 2.0]), np.zeros((2, 1)), L1, math.inf, 1.0)

    @pytest.mark.parametrize("C", [math.inf, math.nan])
    def test_constant_must_be_finite(self, C):
        with pytest.raises(ValueError):
            check_order_gt1_constant(np.array([0.0, 1.0]), np.zeros((2, 1)), L1, 2.0, C)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_tolerance_must_be_finite(self, tol):
        # on x -> (x, x) at alpha 2 and C 0.1 both verdicts are False; an
        # infinite tolerance turned both True
        x = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError, match="tol must be finite"):
            check_order_gt1_constant(x, np.column_stack([x, x]), L2, alpha=2.0, C=0.1, tol=tol)


class TestCoveringSums:
    def test_unit_segment_alpha_one(self):
        t = np.linspace(0.0, 1.0, 65)
        seg = Polyline(t, np.column_stack([t, np.zeros_like(t)]))
        sums = hausdorff_covering_sum(seg, L2, 1.0, [4, 16, 64])
        for _, v in sums:
            assert v == pytest.approx(1.0, abs=1e-9)

    def test_unit_segment_alpha_two_decays(self):
        t = np.linspace(0.0, 1.0, 65)
        seg = Polyline(t, np.column_stack([t, np.zeros_like(t)]))
        sums = dict(hausdorff_covering_sum(seg, L2, 2.0, [4, 16, 64]))
        assert sums[4] == pytest.approx(0.25, abs=1e-9)
        assert sums[16] == pytest.approx(1.0 / 16.0, abs=1e-9)
        assert sums[64] == pytest.approx(1.0 / 64.0, abs=1e-9)

    def test_koch_self_similar_scales_are_flat(self):
        curve = koch_generator(6)
        sums = hausdorff_covering_sum(curve, L2, KOCH_DIM, [4, 16, 64])
        vals = [v for _, v in sums]
        assert max(vals) / min(vals) < 1.5

    @pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0])
    def test_order_must_be_positive_and_finite(self, alpha):
        with pytest.raises(ValueError):
            hausdorff_covering_sum(koch_generator(1), L2, alpha, [4])

    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            hausdorff_covering_sum(koch_generator(1), L2, 1.0, [])

    @pytest.mark.parametrize("scales", [[2.5, 4.9], [2.5], [4, math.nan], [math.inf]])
    def test_non_integer_scales_rejected(self, scales):
        # a non-integer scale is refused, never truncated
        with pytest.raises(ValueError, match="positive integers"):
            hausdorff_covering_sum(koch_generator(3), L2, 1.0, scales)
        with pytest.raises(ValueError, match="positive integers"):
            covering_resolution(koch_generator(3), scales)

    def test_integer_valued_scales_accepted(self):
        c = koch_generator(3)
        scales = [4.0, np.int64(16), np.float64(3.0)]
        assert hausdorff_covering_sum(c, L2, 1.0, scales) == \
            hausdorff_covering_sum(c, L2, 1.0, [4, 16, 3])
        assert covering_resolution(c, scales) == covering_resolution(c, [4, 16, 3])

    def test_single_point_curve(self):
        sums = hausdorff_covering_sum(Polyline([0.0], [[0.0, 0.0]]), L2, 1.0, [2])
        assert sums == [(2, 0.0)]

    @pytest.mark.parametrize("level, scales", [(7, [4, 16, 64, 256]), (6, [256, 1024])])
    def test_koch_closed_form_at_powers_of_four(self, level, scales):
        # each block at scale 4^j is a copy of the curve rotated by a multiple
        # of 60 degrees, so under l2 every block has diameter 3^-j exactly;
        # blocks run from 65537 samples down to 2, across every size cut-off
        sums = hausdorff_covering_sum(koch_generator(level), L2, KOCH_DIM, scales)
        assert [s for s, _ in sums] == scales
        for _, v in sums:
            assert v == pytest.approx(1.0, rel=1e-9)

    def test_scales_finer_than_sampling_add_zero(self):
        c = koch_generator(1)  # 5 samples: at most 4 blocks hold 2 samples
        sums = dict(hausdorff_covering_sum(c, L2, 1.0, [4, 1000]))
        assert sums[4] == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert sums[1000] == 0.0

    def test_overflowing_sum_raises(self):
        c = Polyline([0.0, 1.0], [[-1e308, 0.0], [1e308, 0.0]])
        with pytest.raises(ValueError, match="overflows the float range"):
            hausdorff_covering_sum(c, L2, 1.0, [1])

    def test_overflow_inside_a_long_block_raises(self):
        c = Polyline(np.arange(100.0), _overflow_block())
        with pytest.raises(ValueError, match="overflows the float range"):
            hausdorff_covering_sum(c, L2, 1.0, [1])

    def test_resolution_counts_blocks_with_two_samples(self):
        c = koch_generator(1)  # 5 samples, 1/4 apart: no block of width 1/1000 holds 2
        assert covering_resolution(c, [1, 4, 1000]) == [(1, 1, 1), (4, 4, 4), (1000, 1000, 0)]
        assert dict(hausdorff_covering_sum(c, L2, 1.0, [1000])) == {1000: 0.0}
        assert covering_resolution(Polyline([0.0], [[0.0, 0.0]]), [2]) == [(2, 2, 0)]
        with pytest.raises(ValueError):
            covering_resolution(c, [0])

    def test_resolution_matches_the_oracle_blocks(self):
        c = _oracle_curve(2, np.random.default_rng(0))
        scales = TestBlockDiameterOracle.SCALES
        want = [(s, s, sum(len(b) >= 2 for b in _oracle_blocks(c.params, s))) for s in scales]
        assert covering_resolution(c, scales) == want

    def test_dimension_mismatch(self):
        m = norm_metric(NormSpec(2, (1.0, 2.0, 3.0)))
        with pytest.raises(DimensionMismatch):
            hausdorff_covering_sum(koch_generator(2), m, 1.0, [4])


def _overflow_block() -> np.ndarray:
    """100 samples in the plane whose samples 3 and 8 differ beyond the float range."""
    P = np.zeros((100, 2))
    P[3] = (1.7e308, 0.0)
    P[8] = (-1.7e308, 0.0)
    return P


def _engine_points(case: str, dim: int) -> np.ndarray:
    """1200 samples: a walk, a convex arc (also scaled into the subnormal
    range), or a walk with long runs of repeats."""
    rng = np.random.default_rng(dim)
    if case == "arc":  # every sample is a vertex of the convex hull
        t = np.linspace(0.0, np.pi, 1200)
        return np.column_stack([np.cos(t), np.sin(t), np.zeros((1200, dim - 2))])
    if case == "subnormal arc":  # distances of a few hundred subnormal units
        return _engine_points("arc", dim) * 1e-321
    walk = np.cumsum(rng.normal(0.0, 1.0, (1200, dim)), axis=0)
    if case == "repeats":  # zero radii: whole leaves and nodes of one point
        walk = np.repeat(walk[:40], rng.multinomial(1160, np.ones(40) / 40) + 1, axis=0)
        walk[300:700] = walk[300]
    return walk


def _oracle_curve(dim: int, rng) -> Polyline:
    """A walk on fixed non-uniform parameters, with a collinear run and repeated points."""
    walk = np.cumsum(rng.normal(0.0, 1.0, (450, 3)), axis=0)
    line = walk[-1] + np.linspace(0.0, 1.0, 250)[:, None] * rng.normal(0.0, 30.0, 3)
    stuck = np.repeat(line[-1:], 100, axis=0)  # one point, repeated
    wiggle = stuck[-1] + np.cumsum(rng.normal(0.0, 1.0, (200, 3)), axis=0)
    P = np.vstack([walk, line, stuck, wiggle])[:, :dim] + 100.0
    t = np.cumsum(np.random.default_rng(0).uniform(0.2, 1.8, len(P)))
    return Polyline(t, P)


def _oracle_blocks(t: np.ndarray, s: int):
    """Closed uniform parameter blocks, boundary samples in both neighbours."""
    edges = np.linspace(t[0], t[-1], s + 1)
    eps = (t[-1] - t[0]) * 1e-12
    inside = (t >= edges[:-1, None] - eps) & (t <= edges[1:, None] + eps)
    return [np.flatnonzero(row) for row in inside]


def _oracle_distances(P: np.ndarray, spec: NormSpec) -> np.ndarray:
    """Norm distance of every pair of samples, straight from the definition."""
    w = np.ones(P.shape[1]) if spec.weights is None else np.asarray(spec.weights)
    A = np.abs(P[:, None, :] - P[None, :, :]) * w
    if spec.p == math.inf:
        return A.max(axis=-1)
    top = max(float(A.max()), 1e-300)  # scaled powers cannot overflow
    return top * ((A / top) ** spec.p).sum(axis=-1) ** (1.0 / spec.p)


def _oracle_diameters(D: np.ndarray, blocks) -> np.ndarray:
    return np.array([D[b[0] : b[-1] + 1, b[0] : b[-1] + 1].max() if b.size else 0.0
                     for b in blocks])


class TestBlockDiameterOracle:
    """Every block diameter against an all-pairs scan, on every kernel branch."""

    SCALES = [1, 2, 5, 9, 20, 28, 60, 170, 500, 999, 3000]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_blocks_match_all_pairs(self, dim, p, weighted):
        rng = np.random.default_rng(dim)
        c = _oracle_curve(dim, rng)
        spec = NormSpec(p, tuple(rng.uniform(0.5, 2.0, dim)) if weighted else None)
        PT = np.ascontiguousarray(c.points.T)
        D = _oracle_distances(c.points, spec)
        for s in self.SCALES:
            blocks = _oracle_blocks(c.params, s)
            want = _oracle_diameters(D, blocks)
            lo = np.array([b[0] if b.size else 0 for b in blocks])
            hi = np.array([b[-1] + 1 if b.size else 0 for b in blocks])
            got = _block_diameters(PT, lo, hi, spec)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0, err_msg=f"scale {s}")
            for beta in (1.0, 0.5):
                m = snowflake(norm_metric(spec), beta)
                [(_, total)] = hausdorff_covering_sum(c, m, 1.0, [s])
                assert total == pytest.approx(float(np.sum(want ** beta)), rel=1e-12, abs=0.0)

    def test_block_lengths_cover_both_sides_of_the_cut_offs(self):
        # the oracle curve's parameters, and so its blocks, are the same in every case
        c = _oracle_curve(2, np.random.default_rng(0))
        lengths = {len(b) for s in self.SCALES for b in _oracle_blocks(c.params, s)}
        assert {0, 1, 2, _LAG_SCAN_MAX, _LAG_SCAN_MAX + 1, 1000} <= lengths
        assert max(lengths) == 1000

    @pytest.mark.parametrize("dim", [_L1_FUNCTIONAL_MAX_DIM, _L1_FUNCTIONAL_MAX_DIM + 1])
    def test_l1_on_both_sides_of_the_functional_dimension_cut_off(self, dim):
        rng = np.random.default_rng(dim)
        P = np.cumsum(rng.normal(0.0, 1.0, (300, dim)), axis=0)
        c = Polyline(np.arange(300.0), P)
        spec = NormSpec(1.0)
        D = _oracle_distances(P, spec)
        for s in (3, 10, 299):  # 100-, 30- and 2-sample blocks
            want = float(np.sum(_oracle_diameters(D, _oracle_blocks(c.params, s))))
            [(_, total)] = hausdorff_covering_sum(c, norm_metric(spec), 1.0, [s])
            assert total == pytest.approx(want, rel=1e-12, abs=0.0)

    # blocks on both sides of the leaf (16 samples) and fanout (256) edges,
    # past the lag-scan cut-off (49), overlapping, and the whole curve
    ENGINE_BLOCKS = [(0, 2), (5, 16), (40, 17), (100, 49), (200, 256), (300, 257),
                     (310, 600), (0, 1200)]

    @pytest.mark.parametrize("case, dim", [("walk", 5), ("arc", 2), ("arc", 3),
                                           ("repeats", 2), ("subnormal arc", 2)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_branch_and_bound_equals_the_whole_block_lag_scan(self, case, dim, p, weighted):
        P = np.ascontiguousarray(_engine_points(case, dim).T)
        spec = NormSpec(p, tuple(np.linspace(0.5, 2.0, dim)) if weighted else None)
        lo = np.array([a for a, _ in self.ENGINE_BLOCKS])
        count = np.array([k for _, k in self.ENGINE_BLOCKS])
        want = np.array([_lag_scan(np.ascontiguousarray(P[:, a : a + k]), np.array([k]), spec)[0]
                         for a, k in self.ENGINE_BLOCKS])
        assert want[-1] > 0.0
        np.testing.assert_array_equal(_DiameterScan(P, lo, count, spec).run(), want)
        np.testing.assert_array_equal(_block_diameters(P, lo, lo + count, spec), want)

    @pytest.mark.parametrize("count", [4096, 4097])
    def test_branch_and_bound_on_both_sides_of_the_second_fanout_edge(self, count):
        t = np.linspace(0.0, 3.0, count)
        P = np.ascontiguousarray(np.vstack([np.cos(t), np.sin(t), t]))
        want = _lag_scan(P, np.array([count]), NormSpec(2.0))
        got = _DiameterScan(P, np.zeros(1, dtype=np.intp), np.array([count]), NormSpec(2.0)).run()
        np.testing.assert_array_equal(got, want)



@st.composite
def _fit_inputs(draw, wide=False):
    """(X, Y, alpha, d1, d2) for the pair search, d = (p, beta, weights).

    2 to 600 samples, on both sides of one leaf (_LEAF) and one level-1
    node (_LEAF * _FANOUT); 1 to 3 coordinates per side; scattered, curve
    or integer-grid domains, some points repeated, with or without equal
    images; each side scaled by 10^e, e from about -300 to 300.  With
    ``wide``, a side may instead reach 1.7e308, so that differences and
    box gaps overflow.
    """
    m = draw(st.one_of(st.integers(2, 3 * _LEAF), st.integers(_LEAF * _FANOUT - 60, 600)))
    n1, n2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["scattered", "curve", "grid"]))
    if kind == "scattered":
        X = rng.normal(size=(m, n1))
    elif kind == "curve":
        t = np.sort(rng.uniform(0.0, 1.0, m))
        X = np.column_stack([t] + [np.sin((k + 2) * t) for k in range(n1 - 1)])
    else:  # coincident points and ties
        X = rng.integers(0, 5, (m, n1)).astype(float)
    Y = rng.normal(size=(m, n2))
    if draw(st.booleans()):
        Y = np.cumsum(Y, axis=0)
    repeats = draw(st.integers(0, m // 4))
    src, dst = rng.integers(0, m, repeats), rng.integers(0, m, repeats)
    X[dst] = X[src]
    if draw(st.booleans()):  # equal images: the data stays Holder
        Y[dst] = Y[src]
    for P in (X, Y):
        P *= 10.0 ** (draw(st.integers(-300, 300)) + rng.uniform(-2.0, 2.0, P.shape[1]))
        if wide and draw(st.booleans()) and np.abs(P).max() > 0.0:
            P /= np.abs(P).max()  # coincident points stay coincident
            P *= 1.7e308

    def metric(n):
        weights = tuple(rng.uniform(0.5, 2.0, n)) if draw(st.booleans()) else None
        return (draw(st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])),
                draw(st.floats(0.0, 1.0, exclude_min=True)), weights)

    alpha = draw(st.floats(0.01, 4.0))
    return X, Y, alpha, metric(n1), metric(n2)


class TestPairSearchProperties:
    """The fit and its node-pair bounds on drawn inputs, against all pairs."""

    @given(_fit_inputs())
    @settings(deadline=None, max_examples=40)
    def test_fit_matches_the_all_pairs_oracle(self, case):
        X, Y, alpha, d1, d2 = case
        fit = fit_holder(X, Y, _metric_of(*d1), _metric_of(*d2), alpha=alpha)
        C, witness = _oracle_fit(X, Y, alpha, d1, d2)
        assert fit.pairs_scanned <= len(X) * (len(X) - 1) // 2
        if C == math.inf and np.any(X[witness[0]] != X[witness[1]]):
            # the largest ratio overflows: its pair is chosen by logarithms
            assert fit.C == math.inf and fit.is_holder
        else:
            assert (fit.C, fit.witness) == (C, witness)  # bit for bit
            assert fit.is_holder == (C < math.inf)

    @given(_fit_inputs(wide=True))
    @settings(deadline=None, max_examples=40)
    def test_node_pair_bounds_cover_every_ratio_inside(self, case):
        X, Y, alpha, d1, d2 = case
        scan = _MaxRatioScan(X, Y, _metric_of(*d1), _metric_of(*d2), alpha)
        X, Y, m = X[scan.order], Y[scan.order], len(X)
        # every ratio of the pairs i != j, in the scan's sample order: inf where
        # d2 overflows (the scan raises) or for coincident domain points with
        # distinct images, -inf where it leaves the pair out (d1 overflows, or
        # d1 = d2 = 0)
        with np.errstate(all="ignore"):
            D1 = _oracle_lp(X[:, None] - X[None, :], *d1)
            D2 = _oracle_lp(Y[:, None] - Y[None, :], *d2)
            scale = D1 ** alpha
            ratio = D2 / scale
            low = scale < np.finfo(float).tiny
            ratio[low] = np.exp(np.log(D2[low]) - alpha * np.log(D1[low]))
        ratio[~(D2 < math.inf)] = math.inf  # a nan norm is an overflow too
        ratio[D1 == 0.0] = np.where(D2[D1 == 0.0] > 0.0, math.inf, -math.inf)
        ratio[~(D1 < math.inf) | np.eye(m, dtype=bool)] = -math.inf
        rng = np.random.default_rng(m)
        start = np.arange(len(scan.levels[0][2]))  # each node's leaves
        stop = start + 1
        for level, (_, _, _, children) in enumerate(scan.levels):
            if children is not None:
                first, kids = children
                start, stop = start[first], stop[first + kids - 1]
            I, J = np.sort(rng.integers(0, len(start), (2, 10)), axis=0)
            for i, j, bound in zip(I, J, scan._bounds(level, I, J)):
                inside = ratio[start[i] * _LEAF : stop[i] * _LEAF,
                               start[j] * _LEAF : stop[j] * _LEAF].max()
                assert np.isnan(bound) or bound >= inside, (level, i, j)


def _leaf_runs(lo: int, count: int) -> list[np.ndarray]:
    """The slots of a block's leaves: every aligned run of _LEAF samples
    that meets the block, each slot clipped to the block's first and last
    sample."""
    last = lo + count - 1
    return [np.array([min(max(i, lo), last) for i in range(a, a + _LEAF)])
            for a in range(lo - lo % _LEAF, last + 1, _LEAF)]


class TestPairSearchTree:
    """The node tree of the pair search, on a multi-block layout."""

    # back to back, so most start off a multiple of _LEAF; then blocks
    # that overlap them, as the blocks of several scales do
    BLOCKS = [1, 2, 16, 17, 256, 257, 4097]
    OVERLAPPING = [(0, 4646), (32, 300), (7, 1000), (40, 9)]

    @pytest.mark.parametrize("p, weights", [(1.5, (0.5, 2.0, 1.25)), (2.0, None), (3.0, None),
                                            (2.0, (3.0, 0.25, 1.0)), (3.0, (1.0, 1.5, 0.75))])
    def test_radii_cover_every_sample_and_children_tile_parents(self, p, weights):
        count = np.array(self.BLOCKS + [k for _, k in self.OVERLAPPING])
        lo = np.cumsum(self.BLOCKS) - self.BLOCKS
        lo = np.append(lo, [a for a, _ in self.OVERLAPPING])
        P = np.cumsum(np.random.default_rng(6).normal(size=(3, sum(self.BLOCKS))), axis=1)
        scan = _DiameterScan(P, lo, count, NormSpec(p, weights))
        # each block's leaves, back to back: one leaf per aligned run of
        # _LEAF samples, those at either end clipped to the block
        runs = [_leaf_runs(a, k) for a, k in zip(lo, count)]
        slot_of = np.concatenate([np.concatenate(r) for r in runs])
        G = P[:, slot_of]
        np.testing.assert_array_equal(scan.leaves.take(scan.leaf, axis=1).reshape(3, -1), G)
        # an aligned run is the one leaf of P that every block holding it shares
        whole = np.array([r[-1] - r[0] == _LEAF - 1 for rs in runs for r in rs])
        np.testing.assert_array_equal(scan.leaf[whole], slot_of[::_LEAF][whole] // _LEAF)
        assert scan.leaves.shape[1] == P.shape[1] // _LEAF + np.count_nonzero(~whole)
        block_of = np.repeat(np.arange(len(count)), [_LEAF * len(r) for r in runs])
        start = np.arange(0, G.shape[1], _LEAF)  # each node's slot range in G
        stop = start + _LEAF
        below = None
        for A, R, block, children in scan.levels:
            if below is None:
                assert children is None
            else:
                first, kids = children
                assert np.all((1 <= kids) & (kids <= _FANOUT))
                np.testing.assert_array_equal(first, np.cumsum(kids) - kids)
                assert kids.sum() == len(below)
                assert np.all(below[first] == block) and np.all(below[first + kids - 1] == block)
                start, stop = start[first], stop[first + kids - 1]
            assert A.shape == (3, len(block))
            assert np.all(block_of[start] == block) and np.all(block_of[stop - 1] == block)
            owner = np.repeat(np.arange(len(block)), stop - start)
            slots = np.concatenate([np.arange(a, b) for a, b in zip(start, stop)])
            heads = np.cumsum(stop - start) - (stop - start)
            at_anchor = np.all(G[:, slots] == A[:, owner], axis=0)
            assert np.logical_or.reduceat(at_anchor, heads).all()
            reach = _oracle_lp((G[:, slots] - A[:, owner]).T, p, 1.0, weights)
            assert np.all(R >= np.maximum.reduceat(reach, heads))
            below = block
        np.testing.assert_array_equal(below, np.arange(len(count)))  # one root per block


def _block_ends(blocks) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end sample of each block of sample indices (0, 0 if empty)."""
    lo = np.array([b[0] if b.size else 0 for b in blocks])
    hi = np.array([b[-1] + 1 if b.size else 0 for b in blocks])
    return lo, hi


class TestSharedLeaves:
    """The blocks of every scale in one pair search, sharing its aligned leaves."""

    # 4^j blocks start on multiples of _LEAF, 3^j blocks mostly off them;
    # every block is longer than the lag-scan cut-off
    SCALES = [4, 16, 3, 9, 27]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_all_scales_at_once_equal_each_scale_alone_and_the_lag_scan(self, p):
        n = 4 ** 5 + 1
        P = np.cumsum(np.random.default_rng(17).normal(size=(3, n)), axis=1)
        t = np.linspace(0.0, 1.0, n)
        spec = NormSpec(p)
        ends = [_block_ends(_oracle_blocks(t, s)) for s in self.SCALES]
        lo, hi = (np.concatenate(x) for x in zip(*ends))
        assert np.all(hi - lo > _LAG_SCAN_MAX)
        assert np.any(lo % _LEAF == 0) and np.any(lo % _LEAF != 0)
        want = np.array([_lag_scan(np.ascontiguousarray(P[:, a:b]), np.array([b - a]), spec)[0]
                         for a, b in zip(lo, hi)])
        np.testing.assert_array_equal(_block_diameters(P, lo, hi, spec), want)
        alone = np.concatenate([_block_diameters(P, a, b, spec) for a, b in ends])
        np.testing.assert_array_equal(alone, want)
        # the covering sums, also under a snowflake: every scale at once
        # has the bits of each scale alone
        c = Polyline(t, P.T)
        for m in (norm_metric(spec), snowflake(norm_metric(spec), 0.5)):
            sums = hausdorff_covering_sum(c, m, 1.3, self.SCALES)
            assert sums == [hausdorff_covering_sum(c, m, 1.3, [s])[0] for s in self.SCALES]
            parts = np.split(want, np.cumsum(self.SCALES)[:-1])
            assert [v for _, v in sums] == [float(np.sum(d ** (m.beta * 1.3))) for d in parts]


def _oracle_functionals(spec: NormSpec, dim: int) -> np.ndarray:
    """Rows f with N(v) = max_f |f . v|: the weighted coordinates for the
    max norm and in one dimension, the weighted sign vectors with a first
    sign + for l1."""
    w = np.ones(dim) if spec.weights is None else np.asarray(spec.weights)
    if dim == 1 or spec.p == math.inf:
        return np.diag(w)
    return np.array([(1.0, *s) for s in itertools.product((1.0, -1.0), repeat=dim - 1)]) * w


def _oracle_spread(P: np.ndarray, blocks, spec: NormSpec) -> np.ndarray:
    """Block by block: centre on the block's first sample, take each term
    f_c v_c elementwise and add the terms in coordinate order; the largest
    max - min over the functionals (16 at a time, to bound the memory)."""
    F = _oracle_functionals(spec, len(P))
    out = np.zeros(len(blocks))
    for k, b in enumerate(blocks):
        if b.size < 2:
            continue
        Q = P[:, b] - P[:, b[:1]]
        for G in np.split(F, range(16, len(F), 16)):
            V = G[:, :1] * Q[0]
            for c in range(1, len(P)):
                V = V + G[:, c : c + 1] * Q[c]
            out[k] = max(out[k], float((V.max(axis=1) - V.min(axis=1)).max()))
    return out


@functools.lru_cache(maxsize=None)
def _uniform_blocks(n: int, s: int):
    return _oracle_blocks(np.linspace(0.0, 1.0, n), s)


class TestFunctionalSpread:
    """Covering diameters under l1, the max norm and in one dimension,
    against a block-by-block oracle, bit for bit."""

    @staticmethod
    def _spec(kind: str, dim: int) -> NormSpec:
        weights = tuple(np.random.default_rng(dim).uniform(0.5, 2.0, dim))
        return {"l1": NormSpec(1.0), "weighted l1": NormSpec(1.0, weights),
                "max": NormSpec(math.inf, weights)}[kind]

    # on 4^6 + 1 uniform samples, neighbours at 4^j scales share a sample and
    # at 3^j scales share none, and scale 5000 has empty and one-sample
    # blocks; on 4^8 + 1, scales 1 and 2 have blocks longer than _CHUNK
    LAYOUTS = {"small": (4 ** 6 + 1, [4, 16, 64, 256, 1024, 3, 9, 27, 81, 243, 729, 5000]),
               "long": (4 ** 8 + 1, [1, 2, 3])}

    @pytest.mark.parametrize("layout", ["small", "long"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 8])
    @pytest.mark.parametrize("kind", ["l1", "weighted l1", "max"])
    def test_every_scale_at_once_matches_the_oracle(self, layout, dim, kind):
        n, scales = self.LAYOUTS[layout]
        P = np.cumsum(np.random.default_rng(dim).normal(size=(dim, n)), axis=1)
        spec = self._spec(kind, dim)
        blocks = [b for s in scales for b in _uniform_blocks(n, s)]
        lo, hi = _block_ends(blocks)
        np.testing.assert_array_equal(_block_diameters(P, lo, hi, spec),
                                      _oracle_spread(P, blocks, spec))

    def test_layouts_cover_shared_samples_short_and_long_blocks(self):
        n, scales = self.LAYOUTS["small"]
        for s, shared in ((4, True), (1024, True), (3, False), (729, False)):
            lo, hi = _block_ends(_uniform_blocks(n, s))
            assert np.all(lo[1:] == hi[:-1] - 1) == shared
            assert np.all(lo[1:] == hi[:-1]) != shared
        assert {b.size for b in _uniform_blocks(n, 5000)} == {0, 1}
        n, scales = self.LAYOUTS["long"]
        assert {b.size for b in _uniform_blocks(n, 2)} == {_CHUNK + 1}

    def test_a_spike_next_to_the_cut_of_a_long_block_counts(self):
        # a block just over _CHUNK samples is cut in two near its middle:
        # a spike at every offset around the middle reaches its diameter
        n = _CHUNK + 2
        P = np.zeros((1, 2 * n))
        P[0, n] = 1.0
        lo = n - n // 2 + np.arange(-40, 41)
        np.testing.assert_array_equal(_block_diameters(P, lo, lo + n, NormSpec(1.0)),
                                      np.ones(len(lo)))

    @pytest.mark.parametrize("dim, weighted", [(2, True), (3, True), (8, True), (8, False)])
    def test_a_block_alone_has_the_bits_it_has_with_its_scale(self, dim, weighted):
        # a product f @ Q rounds a column by the offset and length of its
        # slice; elementwise functionals do not
        rng = np.random.default_rng(0)
        P = np.cumsum(rng.normal(size=(dim, 20_001)), axis=1)
        weights = ((0.7, 1.9) if dim == 2 else tuple(rng.uniform(0.5, 2.0, dim))) if weighted else None
        spec = NormSpec(1.0, weights)
        for s in (7, 50, 333):
            lo, hi = _block_ends(_uniform_blocks(20_001, s))
            alone = [_block_diameters(P, lo[k : k + 1], hi[k : k + 1], spec)[0] for k in range(s)]
            np.testing.assert_array_equal(_block_diameters(P, lo, hi, spec), alone)


class TestKochGenerator:
    def test_level_zero_is_unit_segment(self):
        c = koch_generator(0)
        assert len(c) == 2
        assert length(c, L2) == 1.0

    def test_level_one_structure(self):
        c = koch_generator(1)
        assert len(c) == 5
        assert length(c, L2) == pytest.approx(4.0 / 3.0, rel=1e-12)
        steps = np.linalg.norm(np.diff(c.points, axis=0), axis=1)
        assert np.allclose(steps, 1.0 / 3.0, rtol=1e-12)

    @pytest.mark.parametrize("level", range(7))
    def test_length_grows_geometrically(self, level):
        c = koch_generator(level)
        assert len(c) == 4 ** level + 1
        assert length(c, L2) == pytest.approx((4.0 / 3.0) ** level, rel=1e-9)

    def test_endpoints_and_params(self):
        c = koch_generator(3)
        assert np.array_equal(c.points[0], [0.0, 0.0])
        assert np.array_equal(c.points[-1], [1.0, 0.0])
        assert np.allclose(c.params, np.linspace(0.0, 1.0, len(c)))

    def test_level_guard(self):
        with pytest.raises(ValueError):
            koch_generator(13)
        with pytest.raises(ValueError):
            koch_generator(-1)
