"""Discrete minimal-Lipschitz-constant paths between fixed endpoints.

A path is represented on the uniform grid of [0, 1] with s segments,
and its constant is

    k = max_i d(p_i, p_{i+1}) * s.

For every admissible metric d = N(x - y)^beta the steps' norms sum to at
least N(y - x), so the largest step is at least N(y - x) / s and

    k >= s^(1 - beta) * d(x, y),

which the equispaced affine path attains: the affine path is optimal
for every such metric, strictly convex or not, and this lower bound
certifies any path the solver returns.

The local step is exact.  For a point c between fixed neighbours a and
b, N(c - a) + N(b - c) >= N(b - a), so

    max(d(a, c), d(c, b)) >= (N(b - a) / 2)^beta,

and the midpoint (a + b) / 2 attains it: for every admissible metric the
midpoint minimises the local objective.  Moving every point to its
neighbours' midpoint is Gauss-Seidel on the 1-D Laplacian, so the solver
over-relaxes it (red-black SOR) with Young's optimal factor

    omega = 2 / (1 + sin(pi / s))

for s segments (Briggs, Henson and McCormick, A Multigrid Tutorial,
ch. 2), which cuts the sweeps needed from O(s^2) to O(s).

The interior points are relaxed in red-black order: all odd points, then
all even ones.  A point's local objective involves only points of the
other colour, so each half-sweep updates every point of one colour at
once.  Each point takes the over-relaxed point c + omega (mid - c) when
its local objective is strictly below the incumbent's, else the midpoint
when that is, else it stays.  Points of one colour share no segment, so
k never increases across sweeps.  Everything is metric-only: no
gradients, so snowflaked metrics work unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import Polyline
from .metrics import Metric, _dist
from .norms import _by_rows, _check_dim, _vector, as_vector

@dataclass(frozen=True, eq=False)
class GeodesicProblem:
    """Fixed-endpoint minimax path problem on the unit parameter interval.

    ``tolerance`` bounds the relative optimality gap that ``solve`` must
    certify before it reports convergence.  ``initial_path`` optionally
    replaces the default affine initialization; it must live on the same
    uniform grid and share the endpoints.
    """

    metric: Metric
    start: np.ndarray
    end: np.ndarray
    segment_count: int = 16
    tolerance: float = 1e-9
    max_iters: int = 10_000
    initial_path: Polyline | None = None

    def __post_init__(self):
        s = _vector("start", self.start, self.metric.dim)
        e = _vector("end", self.end, s.size)
        object.__setattr__(self, "start", s)
        object.__setattr__(self, "end", e)
        for name in ("segment_count", "max_iters"):
            count = getattr(self, name)
            # count % 1 == 0 refuses 2.5, nan and inf; 4.0 and numpy ints pass
            if not (count >= 1 and count % 1 == 0):
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
            object.__setattr__(self, name, int(count))
        if not 0.0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        if self.initial_path is not None:
            p = self.initial_path
            _check_dim(s.size, p.dim)
            if len(p) != self.segment_count + 1:
                raise ValueError("initial_path does not match the grid")
            grid = np.linspace(0.0, 1.0, self.segment_count + 1)
            if not np.allclose(p.params, grid, atol=1e-12):
                raise ValueError("initial_path must use the uniform grid on [0, 1]")
            if not (np.allclose(p.points[0], s, atol=1e-12)
                    and np.allclose(p.points[-1], e, atol=1e-12)):
                raise ValueError("initial_path endpoints must equal start and end")


@dataclass(frozen=True, eq=False)
class GeodesicResult:
    """Solved path with its constant, optimality certificate and diagnostics.

    ``lower_bound`` is s^(1 - beta) * d(start, end), below which no path
    on the grid can go, and ``gap`` is the relative optimality gap
    (k - lower_bound) / lower_bound: 0 when the endpoints coincide and k
    is 0, inf when they coincide and k is not.  ``converged`` means
    ``gap <= tolerance``.  ``k_history`` holds k after initialization
    and after every sweep; it is nonincreasing by construction.
    """

    path: Polyline
    k: float
    lower_bound: float
    gap: float
    iterations: int
    converged: bool
    k_history: tuple[float, ...]


def _relative_gap(k: float, lower_bound: float) -> float:
    if lower_bound > 0.0:
        return (k - lower_bound) / lower_bound
    return 0.0 if k == 0.0 else math.inf


def solve(prob: GeodesicProblem) -> GeodesicResult:
    """Relax the path until its constant is certified optimal.

    Each sweep is two half-sweeps, odd interior points then even ones.
    In a half-sweep every point c of that colour, with neighbours a and
    b and midpoint mid = (a + b) / 2, moves to c + omega (mid - c) when
    that strictly lowers max(d(a, c), d(c, b)), else to mid when that
    does, where omega = 2 / (1 + sin(pi / s)) is fixed by the segment
    count s.  The midpoint is an exact local minimiser, so a point stays
    only when it is already locally optimal.  The solver stops with
    ``converged=True`` as soon as ``gap <= tolerance`` (the affine
    default start meets it before any sweep, unless ``tolerance`` is
    below the rounding error of k), and with ``converged=False`` when
    ``max_iters`` sweeps run out or a whole sweep moves no point.
    """
    m = prob.metric
    segs = prob.segment_count
    grid = np.linspace(0.0, 1.0, segs + 1)
    # the path is kept coordinate-major: column i is the point p_i
    if prob.initial_path is not None:
        P = prob.initial_path.points.T.copy()
        P[:, 0] = prob.start
        P[:, -1] = prob.end
    else:
        P = prob.start[:, None] + grid[None, :] * (prob.end - prob.start)[:, None]
        P[:, -1] = prob.end

    def path_k(points: np.ndarray) -> float:
        return float(np.max(_dist(m, points[:, 1:] - points[:, :-1])) * segs)

    k = path_k(P)
    history = [k]
    lower_bound = float(segs ** (1.0 - m.beta) * _dist(m, prob.start - prob.end))
    # Young's optimal over-relaxation factor for the 1-D Laplacian on s segments
    omega = 2.0 / (1.0 + math.sin(math.pi / segs))
    # per colour: the points' left neighbours, the points, their right neighbours
    colours = [np.stack([idx - 1, idx, idx + 1]) for idx in
               (np.arange(1, segs, 2), np.arange(2, segs, 2))]
    iterations = 0

    while _relative_gap(k, lower_bound) > prob.tolerance and iterations < prob.max_iters:
        iterations += 1
        moved = False
        for near in colours:
            Q = P[:, near]  # (dim, 3, points): a, c, b
            a, cur, b = Q[:, :1], Q[:, 1:2], Q[:, 2:]
            mid = 0.5 * (a + b)
            # candidates: the incumbent, the over-relaxed point, the midpoint
            cands = np.concatenate([cur, cur + omega * (mid - cur), mid], axis=1)
            # max(d(c, a), d(c, b)) of every candidate c, in one call
            vals = _dist(m, cands[:, None] - Q[:, ::2, None]).max(axis=0)
            beats = vals[1:] < vals[:1]
            # the over-relaxed point when it beats the incumbent, else the midpoint
            j = np.where(beats[0], 1, np.where(beats[1], 2, 0))
            better = j > 0
            if better.any():
                moved = True
                P[:, near[1, better]] = cands[:, j[better], better]
        k = path_k(P)
        history.append(k)
        if not moved:
            break

    gap = _relative_gap(k, lower_bound)
    return GeodesicResult(
        path=Polyline(grid, P.T),
        k=k,
        lower_bound=lower_bound,
        gap=gap,
        iterations=iterations,
        converged=gap <= prob.tolerance,
        k_history=tuple(history),
    )


def straightness_check(path: Polyline, m: Metric, tol: float) -> bool:
    """Is every interior sample metrically between the endpoints?

    True iff d(start, p_i) + d(p_i, end) <= d(start, end) + tol for all
    interior i.  Under a strictly convex norm that forces the samples
    onto the affine segment; under l1 or max norms many non-affine paths
    legitimately pass.
    """
    if len(path) < 3:
        raise ValueError("straightness_check needs at least 3 samples")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    _check_dim(m.dim, path.dim)
    x = path.points[0]
    y = path.points[-1]
    interior = path.points[1:-1]
    dist = partial(_dist, m)
    total = _by_rows(dist, interior, x) + _by_rows(dist, interior, y)
    return bool(np.all(total <= float(_dist(m, x - y)) + tol))


def linfty_geodesic_family(phi_samples) -> Polyline:
    """Graph curve t -> (t, phi(t)) on the uniform grid of [0, 1].

    ``phi_samples`` must start and end at exactly 0 and have secant
    slopes of magnitude at most 1 (up to roundoff).  Every such graph
    connects (0, 0) to (1, 0) with max-norm Lipschitz estimate 1, giving
    a large family of distinct minimizers for the max norm.
    """
    phi = as_vector(phi_samples)
    if len(phi) < 2:
        raise ValueError("need at least 2 samples of phi")
    if phi[0] != 0.0 or phi[-1] != 0.0:
        raise ValueError("phi must vanish at both ends")
    t = np.linspace(0.0, 1.0, len(phi))
    slopes = np.abs(np.diff(phi)) / np.diff(t)
    worst = float(slopes.max())
    if worst > 1.0 + 1e-12:
        raise ValueError(f"phi has a secant slope of {worst:g}, above 1")
    return Polyline(t, np.column_stack([t, phi]))
