"""The benchmark's workloads: inputs made from a seed, and the operations on them.

Each builder returns a list of ``Op``.  A run cycles through the list
round-robin; right after each call, outside the timing, ``op.check``
compares the result with something computed apart from metricgeom (see
checks.py).
In-process operations look functions up through metricgeom's submodules
at call time, so a traced run can rebind them (see spans.py).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks

# The console script `metricgeom` is exactly this entry point.
CLI_ENTRY = "import sys; from metricgeom.cli import main; sys.exit(main())"


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    pairs: dict[str, int] = field(default_factory=dict)  # computed from input sizes
    stats: Callable[[Any], dict[str, float]] | None = None


def _metric(mg, p: float, beta: float = 1.0):
    m = mg.metrics.norm_metric(mg.norms.NormSpec(p))
    return mg.metrics.snowflake(m, beta) if beta != 1.0 else m


def _all_pairs(m: int) -> int:
    return m * (m - 1) // 2


def _walk(rng, m: int, dim: int):
    """A random walk on a non-uniform increasing parameter grid."""
    t = np.cumsum(rng.uniform(0.5, 1.5, m)) / m
    P = np.cumsum(rng.normal(0.0, 0.01, (m, dim)), axis=0)
    return t, P


def _parabola(rng, m: int, dim: int, p: float):
    """p(t) = u t^2 / 2 with N_p(u) = 1, so the speed is t on [t0, t1]."""
    u = rng.normal(size=dim)
    u /= checks.lp_norm(u, p)
    t0 = 0.1
    t = np.concatenate([[t0], np.sort(rng.uniform(t0, 1.0, m - 2)), [1.0]])
    return t, np.outer(t * t / 2.0, u), np.outer(t, u)


def _sqrt_grid(rng, m: int):
    """A scattered grid on [0, 2^e] that contains 0."""
    top = 2.0 ** int(rng.integers(-2, 3))
    return np.concatenate([[0.0], np.sort(rng.uniform(0.0, top, m - 1))])


def _isometry(rng, P):
    """Swap and flip coordinates, scale by a power of two, translate.

    Coordinate swaps, sign flips and power-of-two scalings change no lp
    distance except by the scale, so closed forms carry over exactly.
    """
    scale = 2.0 ** int(rng.integers(-2, 3))
    P = P[:, rng.permutation(P.shape[1])] * rng.choice([-1.0, 1.0], P.shape[1])
    return scale * P + rng.uniform(-1.0, 1.0, P.shape[1]), scale


# --- koch_fractal -----------------------------------------------------------------

def koch_fractal(mg, seed: int) -> list[Op]:
    """Holder fits and covering sums on Koch curves of levels 5 to 10."""
    rng = np.random.default_rng(seed)
    holder = mg.holder
    curves = {}
    for level in (5, 6, 7, 8, 9, 10):
        c = holder.koch_generator(level)
        P, scale = _isometry(rng, c.points)
        curves[level] = (mg.curves.Polyline(c.params, P), scale)

    def fit(level, p2):
        c, _ = curves[level]
        X = c.params[:, None] * 2.0 ** int(rng.integers(-2, 3))
        Y = c.points
        d1, d2 = _metric(mg, 1), _metric(mg, p2)

        def check(f):
            return checks.check_koch_order(f.alpha) or checks.check_witness(
                f.C, f.alpha, f.witness, X, Y, 1.0, 1.0, p2, 1.0,
                rng=np.random.default_rng(seed))

        return Op(f"fit_holder koch{level} l{p2}",
                  lambda: holder.fit_holder(X, Y, d1, d2, seed=seed), check,
                  pairs={"holder.fit_holder": _all_pairs(len(X))})

    def cover(level, p, beta, alpha, scales, closed_form):
        c, scale = curves[level]
        d = _metric(mg, p, beta)
        if closed_form:  # l2 is rotation invariant: every block has diameter scale * 3^-j
            def check(sums):
                return checks.check_covering_closed_form(sums, scales, scale ** (beta * alpha))
        else:
            def check(sums):
                return checks.check_covering_bracket(sums, scales, c.points, p, beta, alpha)
        return Op(f"covering koch{level} lp:{p:g}:snow:{beta:g} {scales[0]}..{scales[-1]}",
                  lambda: holder.hausdorff_covering_sum(c, d, alpha, scales), check)

    # Three calls under 0.25 s and three above 1 s: the median operation is
    # the level-7 covering sum between them.
    dim = checks.KOCH_DIM
    return [
        fit(6, 2),
        cover(9, 2, 1.0, dim, [4, 16, 64, 256], True),          # hull blocks
        cover(8, 2, 1.0, dim, [81, 243], False),                # 243: pair-scanned blocks
        fit(5, 1),
        fit(5, 2),
        cover(10, 1, 1.0, dim, [3 ** j for j in range(1, 8)], False),  # hull blocks
        cover(7, 2, 0.5, 2.0 * dim, [4, 16, 64, 256], True),    # 256: pair-scanned blocks
    ]


# --- sampled_curves ---------------------------------------------------------------

def sampled_curves(mg, seed: int) -> list[Op]:
    """The curves, holder and metrics kernels on non-uniform, scattered, 3-D data."""
    rng = np.random.default_rng(seed)
    curves, holder, metrics, reparam = mg.curves, mg.holder, mg.metrics, mg.reparam
    ops = []

    def lipschitz(m, dim, p, beta):
        t, P = _walk(rng, m, dim)
        c, d = curves.Polyline(t, P), _metric(mg, p, beta)
        ops.append(Op(f"lipschitz_estimate m={m} lp:{p:g}:snow:{beta:g}",
                      lambda: curves.lipschitz_estimate(c, d),
                      lambda v: checks.check_lipschitz(v, t, P, p, beta),
                      pairs={"curves.lipschitz_estimate": _all_pairs(m)}))

    def length(m, dim, p, beta):
        t, P = _walk(rng, m, dim)
        c, d = curves.Polyline(t, P), _metric(mg, p, beta)
        ops.append(Op(f"length m={m} lp:{p:g}:snow:{beta:g}", lambda: curves.length(c, d),
                      lambda v: checks.check_length(v, P, p, beta)))

    def distance(count, dim, p, beta):
        X = rng.normal(size=(count, dim))
        Y = rng.normal(size=(count, dim))
        d = _metric(mg, p, beta)
        ops.append(Op(f"distance x{count} lp:{p:g}:snow:{beta:g}", lambda: metrics.distance(d, X, Y),
                      lambda v: checks.check_distances(v, X, Y, p, beta),
                      pairs={"metrics.distance": count}))

    def axioms(samples, dim, p, beta):
        d = _metric(mg, p, beta)
        ops.append(Op(f"check_metric_axioms lp:{p:g}:snow:{beta:g} dim={dim}",
                      lambda: metrics.check_metric_axioms(d, samples, seed, dim=dim),
                      lambda r: checks.check_axiom_report(r, samples)))

    def unit_speed(m, dim, p):
        t, P, D = _parabola(rng, m, dim, p)
        c1 = reparam.SampledC1Curve(curves.Polyline(t, P), D)
        spec = mg.norms.NormSpec(p)
        ops.append(Op(f"unit_speed_reparam m={m} n={dim} lp:{p:g}",
                      lambda: reparam.unit_speed_reparam(c1, spec),
                      lambda out: checks.check_parabola_reparam(out.params, out.points, t, P)))

    def fit_scattered(m, alpha):
        X = rng.uniform(0.0, 1.0, (m, 2))
        Y = np.column_stack([np.sin(3.0 * X[:, 0]) + X[:, 1] ** 2, np.cos(2.0 * X[:, 1])])
        d1, d2 = _metric(mg, 2), _metric(mg, 2, 0.5)
        ops.append(Op(f"fit_holder scattered m={m} alpha={alpha}",
                      lambda: holder.fit_holder(X, Y, d1, d2, alpha=alpha),
                      lambda f: checks.check_witness(f.C, f.alpha, f.witness, X, Y, 2.0, 1.0,
                                                     2.0, 0.5, rng=np.random.default_rng(seed)),
                      pairs={"holder.fit_holder": _all_pairs(m)}))

    def fit_sqrt(m):
        x = _sqrt_grid(rng, m)
        d = _metric(mg, 1)
        ops.append(Op(f"fit_holder sqrt m={m}",
                      lambda: holder.fit_holder(x, np.sqrt(x), d, d, alpha=0.5),
                      lambda f: checks.check_sqrt_fit(f.C, f.alpha, f.witness, x),
                      pairs={"holder.fit_holder": _all_pairs(m)}))

    # five calls under 20 ms, three distance batches of 20-35 ms, five above 0.1 s:
    # the median operation is the middle distance batch
    lipschitz(3000, 3, 2.0, 0.5)
    length(60000, 3, 3.0, 1.0)
    fit_scattered(1500, 0.5)
    distance(200000, 3, 3.0, 1.0)
    unit_speed(5000, 3, 3.0)
    lipschitz(2000, 2, 1.0, 1.0)
    axioms(20000, 3, 2.0, 0.5)
    fit_sqrt(2000)
    length(20000, 2, 2.0, 0.5)
    distance(200000, 2, 2.0, 0.5)
    unit_speed(5000, 2, 2.0)
    lipschitz(1500, 2, 2.0, 0.5)
    distance(200000, 3, 2.0, 0.5)
    return ops


# --- geodesic_relax ---------------------------------------------------------------

# (segments, dimension, p, beta, starts).  Nine 16-segment solves sit
# between four smaller and two larger ones, so the median operation lies
# inside a group of like solves, not on the edge between two groups.
GEODESIC_CASES = [
    (16, 2, 2.0, 1.0, 3),
    (12, 3, 2.0, 0.5, 2),
    (20, 3, 3.0, 1.0, 1),
    (16, 3, 2.0, 1.0, 3),
    (12, 2, 1.0, 1.0, 2),
    (24, 2, 2.0, 0.5, 1),
    (16, 2, 2.0, 0.5, 3),
]


def geodesic_relax(mg, seed: int) -> list[Op]:
    """solve from perturbed starts: each interior point moved 0.2 |y - x| / s in a random direction."""
    rng = np.random.default_rng(seed)
    geodesic = mg.geodesic
    ops = []
    for start in range(3):
        for segs, dim, p, beta, starts in GEODESIC_CASES:
            if start >= starts:
                continue
            x = rng.uniform(-1.0, 1.0, dim)
            y = x + rng.normal(size=dim)
            grid = np.linspace(0.0, 1.0, segs + 1)
            P = x + grid[:, None] * (y - x)
            P[-1] = y
            step = rng.normal(size=(segs - 1, dim))
            step /= np.linalg.norm(step, axis=1)[:, None]
            P[1:-1] += 0.2 * float(np.linalg.norm(y - x)) / segs * step
            prob = geodesic.GeodesicProblem(_metric(mg, p, beta), x, y, segment_count=segs,
                                            initial_path=mg.curves.Polyline(grid, P))

            def check(r, x=x, y=y, segs=segs, p=p, beta=beta):
                return checks.check_geodesic(r.k, r.k_history, r.path.points, x, y, segs, p, beta)

            def stats(r, x=x, y=y, segs=segs, p=p, beta=beta):
                return {"sweeps": r.iterations, "point_updates": r.iterations * (segs - 1),
                        "gap_rel": checks.gap_rel(r.k, x, y, segs, p, beta)}

            ops.append(Op(f"solve s={segs} n={dim} lp:{p:g}:snow:{beta:g}",
                          lambda prob=prob: geodesic.solve(prob), check, stats=stats))
    return ops


# --- cli_oneshot ------------------------------------------------------------------

def _koch_points(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-n Koch curve from (0, 0) to (1, 0), built here for the CLI's input files."""
    z = np.array([0.0, 1.0], dtype=complex)
    bump = complex(0.5, math.sqrt(3.0) / 2.0)
    for _ in range(level):
        a, third = z[:-1], (z[1:] - z[:-1]) / 3.0
        new = np.empty(4 * len(a) + 1, dtype=complex)
        new[0:-1:4], new[1::4] = a, a + third
        new[2::4], new[3::4] = a + third + third * bump, a + 2.0 * third
        new[-1] = z[-1]
        z = new
    return np.linspace(0.0, 1.0, len(z)), np.column_stack([z.real, z.imag])


def _write_json(path: str, t, P, derivs=None) -> None:
    obj = {"params": np.asarray(t).tolist(), "points": np.asarray(P).reshape(len(t), -1).tolist()}
    if derivs is not None:
        obj["derivs"] = np.asarray(derivs).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _write_csv(path: str, t, P) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ti, row in zip(t.tolist(), P.tolist()):
            fh.write(",".join(repr(v) for v in [ti, *row]) + "\n")


def _coords(v) -> str:
    return ",".join(repr(float(c)) for c in v)


class CliOp(Op):
    """One `metricgeom <cmd>` call; its check also demands byte-identical repeats."""

    def __init__(self, name, argv, check, run):
        first: list[bytes] = []

        def check_call(proc):
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}"
            obj = checks.parse_stdout(proc.stdout)
            if obj is None:
                return "stdout is not one JSON object on one line"
            if not first:
                first.append(proc.stdout)
            return check(obj) or checks.check_same_bytes(proc.stdout, first[0])

        super().__init__(name, lambda: run(argv), check_call,
                         stats=lambda proc: {"stdout_bytes": len(proc.stdout)})


def cli_oneshot(seed: int, workdir: str, run: Callable[[list[str]], Any]) -> list[Op]:
    """Sequential CLI calls over all six commands; ``run(argv)`` spawns one call."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    f = lambda name: os.path.join(workdir, name)  # noqa: E731
    ops = []

    # length: Koch level 5 under l2, closed form (4/3)^5; a 3-D walk from CSV
    t5, K5 = _koch_points(5)
    K5, s5 = _isometry(rng, K5)
    _write_json(f("koch5.json"), t5, K5)

    def length_koch(o):
        return (checks.check_length(o["length"], K5, 2.0, 1.0, closed_form=s5 * (4.0 / 3.0) ** 5)
                or checks.check_lipschitz(o["lipschitz_estimate"], t5, K5, 2.0, 1.0))
    ops.append(CliOp("length koch5 lp:2", ["length", f("koch5.json"), "--metric", "lp:2"],
                     length_koch, run))

    tw, W = _walk(rng, 1500, 3)
    _write_csv(f("walk.csv"), tw, W)

    def length_walk(o):
        return (checks.check_length(o["length"], W, 1.0, 0.5)
                or checks.check_lipschitz(o["lipschitz_estimate"], tw, W, 1.0, 0.5))
    ops.append(CliOp("length walk.csv lp:1:snow:0.5",
                     ["length", f("walk.csv"), "--metric", "lp:1:snow:0.5"], length_walk, run))

    # geodesic: the default affine start is optimal, so k equals the lower bound
    for segs, dim, spec, p, beta in ((24, 2, "lp:3", 3.0, 1.0), (16, 3, "lp:2:snow:0.5", 2.0, 0.5)):
        x = rng.uniform(-1.0, 1.0, dim)
        y = x + rng.normal(size=dim)

        def geo(o, x=x, y=y, segs=segs, p=p, beta=beta):
            return checks.check_geodesic(o["k"], [], o["path"]["points"], x, y, segs, p, beta,
                                         optimal=True)
        ops.append(CliOp(f"geodesic s={segs} {spec}",
                         ["geodesic", f"--start={_coords(x)}", f"--end={_coords(y)}",
                          "--metric", spec, "--segments", str(segs)], geo, run))

    # reparam: a parabola with speed t, a few thousand samples
    tp, Pp, Dp = _parabola(rng, 4000, 2, 2.0)
    _write_json(f("parabola.json"), tp, Pp, Dp)

    def reparam(o):
        unit = np.abs(checks.lp_norm(o["derivs"], 2.0) - 1.0).max()
        if unit > checks.REL:
            return f"reparam derivs are off unit speed by {unit:.3e}"
        return checks.check_parabola_reparam(o["params"], o["points"], tp, Pp)
    ops.append(CliOp("reparam parabola m=4000", ["reparam", f("parabola.json"), "--metric", "lp:2"],
                     reparam, run))

    # holder: sqrt at alpha = 1/2, and the fitted Koch order
    xs = _sqrt_grid(rng, 600)
    _write_json(f("sqrt_dom.json"), np.arange(len(xs)), xs)
    _write_json(f("sqrt_rng.json"), np.arange(len(xs)), np.sqrt(xs))

    def holder_sqrt(o):
        if o["holder"] is not True:
            return "sqrt reported as not Holder"
        return checks.check_sqrt_fit(o["C"], o["alpha"], o["witness"], xs)
    ops.append(CliOp("holder sqrt m=600", ["holder", f("sqrt_dom.json"), f("sqrt_rng.json"),
                                           "--d1", "lp:1", "--d2", "lp:1", "--alpha", "0.5"],
                     holder_sqrt, run))

    _write_json(f("koch5_dom.json"), t5, t5)

    def holder_koch(o):
        return checks.check_koch_order(o["alpha"]) or checks.check_witness(
            o["C"], o["alpha"], o["witness"], t5, K5, 1.0, 1.0, 2.0, 1.0)
    ops.append(CliOp("holder koch5 fitted", ["holder", f("koch5_dom.json"), f("koch5.json"),
                                             "--d1", "lp:1", "--d2", "lp:2", "--seed", str(seed)],
                     holder_koch, run))

    # check: axiom suites pass for a genuine metric (exit 0)
    def axioms(o):
        bad = [c["name"] for s in o["suites"] for c in s["checks"] if c["violations"] != 0]
        if o["passed"] is not True or len(o["suites"]) != 3 or bad:
            return f"axiom suites failed: {bad}"
        return None
    ops.append(CliOp("check lp:3 dim=3", ["check", "--metric", "lp:3", "--dim", "3",
                                          "--samples", "2000", "--seed", str(seed)], axioms, run))

    # covering: Koch level 6 from CSV at scales 4^j, closed form scale^alpha under l2
    t6, K6 = _koch_points(6)
    K6, s6 = _isometry(rng, K6)
    _write_csv(f("koch6.csv"), t6, K6)
    scales = [4, 16, 64, 256]

    def covering(o):
        return checks.check_covering_closed_form(
            [(e["scale"], e["sum"]) for e in o["sums"]], scales, s6 ** checks.KOCH_DIM)
    ops.append(CliOp("covering koch6.csv 4^j", ["covering", f("koch6.csv"), "--metric", "lp:2",
                                                 "--alpha", repr(checks.KOCH_DIM),
                                                 "--scales", ",".join(map(str, scales))],
                     covering, run))
    return ops
