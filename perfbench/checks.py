"""Independent correctness checks for the benchmark's operations.

Every check recomputes what it needs with plain numpy (never with
metricgeom), or tests a property the method must have.  A check returns
``None`` when the result is right and a one-line reason when it is not,
so the runner can count the operation as failed and say why.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL = 1e-12          # recomputation of the same quantity in another order
COVER_REL = 1e-9     # closed-form covering sums (block-by-block rounding)
ORDER_TOL = 0.03     # fitted Koch order against log 3 / log 4
WITNESS_PROBES = 20000  # random pairs that must not exceed a fitted C
BRACKET_CHUNK = 1 << 16  # samples per step of the covering bracket
KOCH_ORDER = math.log(3.0) / math.log(4.0)
KOCH_DIM = math.log(4.0) / math.log(3.0)


def lp_norm(V, p: float) -> np.ndarray:
    """The lp norm over the last axis, written directly from its definition."""
    A = np.abs(np.asarray(V, dtype=float))
    if p == math.inf:
        return A.max(axis=-1)
    if p == 1.0:
        return A.sum(axis=-1)
    if p == 2.0:
        return np.sqrt((A * A).sum(axis=-1))
    return (A ** p).sum(axis=-1) ** (1.0 / p)


def dist(X, Y, p: float, beta: float = 1.0) -> np.ndarray:
    """d(x, y) = N_p(x - y)^beta, broadcast over leading axes."""
    d = lp_norm(np.asarray(X, dtype=float) - np.asarray(Y, dtype=float), p)
    return d ** beta if beta != 1.0 else d


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# --- curves ---------------------------------------------------------------

def adjacent_secant_max(t, P, p: float, beta: float) -> float:
    """Largest adjacent secant ratio d(p_i, p_i+1) / (t_i+1 - t_i)."""
    P = np.asarray(P, dtype=float)
    return float((dist(P[1:], P[:-1], p, beta) / np.diff(t)).max())


def check_lipschitz(value: float, t, P, p: float, beta: float):
    """For a metric the all-pairs maximum equals the adjacent maximum."""
    want = adjacent_secant_max(t, P, p, beta)
    if not _close(float(value), want, REL):
        return f"lipschitz estimate {value!r}, adjacent-secant maximum {want!r}"
    return None


def check_length(value: float, P, p: float, beta: float, closed_form=None):
    """Partition-sum length against numpy and, if given, a closed form."""
    want = float(dist(np.asarray(P)[1:], np.asarray(P)[:-1], p, beta).sum())
    if not _close(float(value), want, REL):
        return f"length {value!r}, numpy sum {want!r}"
    if closed_form is not None and not _close(float(value), closed_form, REL):
        return f"length {value!r}, closed form {closed_form!r}"
    return None


def check_distances(values, X, Y, p: float, beta: float):
    want = dist(X, Y, p, beta)
    got = np.asarray(values, dtype=float)
    if got.shape != want.shape:
        return f"distance shape {got.shape}, expected {want.shape}"
    bad = np.abs(got - want) > REL * np.maximum(np.abs(got), np.abs(want))
    if bad.any():
        i = int(np.argmax(bad))
        return f"distance {float(got.flat[i])!r} at {i}, numpy {float(want.flat[i])!r}"
    return None


def check_axiom_report(report, sample_count: int):
    """A genuine metric passes symmetry, identity and triangle on every sample."""
    names = [c.name for c in report.checks]
    if names != ["symmetry", "identity", "triangle"]:
        return f"axiom suite ran {names}"
    for c in report.checks:
        if c.samples != sample_count or c.violations != 0:
            return f"{c.name}: {c.violations} violations in {c.samples} samples"
    if not report.passed:
        return "axiom report says failed"
    return None


# --- reparameterization -------------------------------------------------------

def check_parabola_reparam(params, points, t, P):
    """Speed N(p'(t)) = t makes the unit-speed parameter (t^2 - t0^2) / 2."""
    t = np.asarray(t, dtype=float)
    want = (t * t - t[0] * t[0]) / 2.0
    got = np.asarray(params, dtype=float)
    if got.shape != want.shape:
        return f"reparam returned {got.shape} params for {want.shape} samples"
    err = float(np.max(np.abs(got - want)))
    if err > 1e-9 * float(want[-1]):
        return f"reparam params off the closed form by {err:.3e}"
    if not np.array_equal(np.asarray(points, dtype=float), np.asarray(P, dtype=float)):
        return "reparam moved the points"
    return None


# --- geodesics ---------------------------------------------------------------

def geodesic_lower_bound(start, end, segments: int, p: float, beta: float) -> float:
    """k >= s^(1-beta) N(y - x)^beta: the segments' norms sum to at least N(y - x)."""
    return segments ** (1.0 - beta) * float(lp_norm(np.asarray(end) - np.asarray(start), p)) ** beta


def check_geodesic(k, k_history, path_points, start, end, segments: int,
                   p: float, beta: float, optimal: bool = False):
    """Bound, recomputed k, monotone history and fixed endpoints.

    With ``optimal`` (the affine start) k must also equal the bound.
    """
    k = float(k)
    bound = geodesic_lower_bound(start, end, segments, p, beta)
    if k < bound * (1.0 - REL):
        return f"k = {k!r} is below the lower bound {bound!r}"
    if optimal and not _close(k, bound, 1e-9):
        return f"affine path k = {k!r}, optimum {bound!r}"
    P = np.asarray(path_points, dtype=float)
    if P.shape != (segments + 1, len(start)):
        return f"path shape {P.shape}"
    if not (np.array_equal(P[0], start) and np.array_equal(P[-1], end)):
        return "path endpoints moved"
    k_np = segments * float(dist(P[1:], P[:-1], p, beta).max())
    if not _close(k, k_np, REL):
        return f"k = {k!r}, recomputed from the path {k_np!r}"
    hist = np.asarray(k_history, dtype=float)
    if hist.size and (np.any(np.diff(hist) > 0.0) or hist[-1] != k):
        return "k_history is not nonincreasing down to k"
    return None


def gap_rel(k: float, start, end, segments: int, p: float, beta: float) -> float:
    bound = geodesic_lower_bound(start, end, segments, p, beta)
    return (float(k) - bound) / bound


# --- Holder fits and covering sums ----------------------------------------------

def check_witness(C, alpha, witness, X, Y, p1, b1, p2, b2, rng=None):
    """The witness pair attains C, and no sampled pair exceeds it."""
    X = np.asarray(X, dtype=float).reshape(len(X), -1)
    Y = np.asarray(Y, dtype=float).reshape(len(Y), -1)
    i, j = (int(w) for w in witness)
    if not (0 <= i < len(X) and 0 <= j < len(X)) or i == j:
        return f"witness {witness} is not a pair of samples"
    d1 = float(dist(X[i], X[j], p1, b1))
    d2 = float(dist(Y[i], Y[j], p2, b2))
    ratio = d2 / d1 ** alpha if d1 > 0.0 else math.inf
    if not _close(ratio, float(C), REL):
        return f"witness {witness} gives {ratio!r}, C = {C!r}"
    if rng is not None:
        a = rng.integers(0, len(X), WITNESS_PROBES)
        b = rng.integers(0, len(X), WITNESS_PROBES)
        keep = a != b
        r = dist(Y[a[keep]], Y[b[keep]], p2, b2) / dist(X[a[keep]], X[b[keep]], p1, b1) ** alpha
        if float(r.max()) > float(C) * (1.0 + REL):
            return f"a sampled pair reaches {float(r.max())!r} above C = {C!r}"
    return None


def check_sqrt_fit(C, alpha, witness, x):
    """sqrt on a grid containing 0 at alpha = 1/2: C = 1, attained by a pair with 0."""
    x = np.asarray(x, dtype=float)
    if alpha != 0.5:
        return f"fixed order came back as {alpha!r}"
    if not _close(float(C), 1.0, REL):
        return f"sqrt fit C = {C!r}, expected 1"
    return check_witness(C, alpha, witness, x, np.sqrt(x), 1.0, 1.0, 1.0, 1.0)


def check_koch_order(alpha):
    if not abs(float(alpha) - KOCH_ORDER) <= ORDER_TOL:
        return f"fitted Koch order {alpha!r}, expected {KOCH_ORDER:.6f} +- {ORDER_TOL}"
    return None


def check_covering_closed_form(sums, scales, expected: float):
    """At scales 4^j each block is a 3^-j copy: the sum is diam^alpha exactly."""
    got_scales = [int(s) for s, _ in sums]
    if got_scales != list(scales):
        return f"covering returned scales {got_scales}, asked for {list(scales)}"
    for s, v in sums:
        if not _close(float(v), expected, COVER_REL):
            return f"covering sum at scale {s} is {v!r}, closed form {expected!r}"
    return None


def check_covering_bracket(sums, scales, P, p: float, beta: float, alpha: float):
    """Each block's diameter lies in [r, 2r], r the farthest sample from its first.

    Blocks are the closed uniform parameter blocks of a uniform grid of
    len(P) samples, found here by integer arithmetic.  Samples go through
    in chunks so the check's own memory stays small.
    """
    P = np.asarray(P, dtype=float)
    N = len(P) - 1
    got_scales = [int(s) for s, _ in sums]
    if got_scales != list(scales):
        return f"covering returned scales {got_scales}, asked for {list(scales)}"
    for s, v in sums:
        first = -((-np.arange(s) * N) // s)  # first sample of each closed block
        r_max = np.zeros(s)
        for a in range(0, N + 1, BRACKET_CHUNK):
            idx = np.arange(a, min(a + BRACKET_CHUNK, N + 1))
            block = np.minimum(idx * s // N, s - 1)  # the right end joins the last block
            np.maximum.at(r_max, block, dist(P[idx], P[first[block]], p, beta))
            # a sample on an inner block edge also belongs to the block on its left
            edge = idx[((idx * s) % N == 0) & (idx > 0) & (idx < N)]
            left = edge * s // N - 1
            np.maximum.at(r_max, left, dist(P[edge], P[first[left]], p, beta))
        low = float((r_max ** alpha).sum())
        high = float(((2.0 * r_max) ** alpha).sum())
        if not low * (1.0 - REL) <= float(v) <= high * (1.0 + REL):
            return f"covering sum at scale {s} is {v!r}, outside [{low!r}, {high!r}]"
    return None


# --- CLI output ------------------------------------------------------------------

def parse_stdout(raw: bytes):
    """Parse one CLI JSON line; None marks output that is not a single JSON object."""
    try:
        text = raw.decode("utf-8")
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not text.endswith("\n") or text.count("\n") != 1 or not isinstance(obj, dict):
        return None
    return obj


def check_same_bytes(raw: bytes, first: bytes):
    if raw != first:
        return "stdout differs from an identical earlier call"
    return None
