import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from metricgeom.cli import (
    EXIT_DIMENSION,
    EXIT_NUMERIC,
    EXIT_PARSE,
    EXIT_VIOLATION,
    dumps,
    load_curve,
    main,
    parse_metric_spec,
)
from metricgeom.holder import koch_generator


def write_curve(path, params, points, derivs=None):
    data = {"params": list(params), "points": [list(p) for p in points]}
    if derivs is not None:
        data["derivs"] = [list(d) for d in derivs]
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestMetricSpecGrammar:
    def test_plain_and_snowflaked(self):
        assert parse_metric_spec("lp:2").beta == 1.0
        assert parse_metric_spec("lp:inf").norm.p == math.inf
        assert parse_metric_spec("lp:2:snow:0.5").beta == 0.5
        assert parse_metric_spec("lp:2:snow:0.5:snow:0.5").beta == 0.25

    @pytest.mark.parametrize(
        "bad", ["lp", "l2:2", "lp:0.7", "lp:abc", "lp:2:snow", "lp:2:snow:1.5", "lp:2:ice:0.5"]
    )
    def test_rejects_bad_specs(self, bad):
        from metricgeom.cli import MetricSpecError

        with pytest.raises(MetricSpecError):
            parse_metric_spec(bad)

    def test_errors_carry_token_position(self):
        from metricgeom.cli import MetricSpecError

        with pytest.raises(MetricSpecError, match="token 3"):
            parse_metric_spec("lp:2:snow:oops")


class TestLengthCommand:
    def test_staircase_l1(self, tmp_path, capsys):
        f = write_curve(tmp_path / "c.json", [0, 1, 2], [[0, 0], [1, 0], [1, 1]])
        code, out = run(capsys, ["length", f, "--metric", "lp:1"])
        assert code == 0
        assert out["length"] == 2.0
        assert out["lipschitz_estimate"] == 1.0
        assert out["interval"] == [0.0, 2.0]

    def test_single_point(self, tmp_path, capsys):
        f = write_curve(tmp_path / "c.json", [0], [[1, 2]])
        code, out = run(capsys, ["length", f, "--metric", "lp:2"])
        assert code == 0
        assert out["length"] == 0.0
        assert out["lipschitz_estimate"] == 0.0

    def test_diagonal_l2(self, tmp_path, capsys):
        f = write_curve(tmp_path / "c.json", [0, 1], [[0, 0], [1, 1]])
        code, out = run(capsys, ["length", f, "--metric", "lp:2"])
        assert code == 0
        assert out["length"] == pytest.approx(math.sqrt(2.0))

    def test_csv_input(self, tmp_path, capsys):
        f = tmp_path / "c.csv"
        f.write_text("0,0,0\n1,1,0\n2,1,1\n")
        code, out = run(capsys, ["length", str(f), "--metric", "lp:1"])
        assert code == 0
        assert out["length"] == 2.0

    def test_long_random_walk_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(20)
        t = np.cumsum(rng.uniform(0.01, 1.0, 20_000))
        P = np.cumsum(rng.standard_normal((20_000, 3)), axis=0)
        f = tmp_path / "walk.csv"
        f.write_text("".join(",".join(repr(float(v)) for v in row) + "\n"
                             for row in np.column_stack([t, P])))
        code, out = run(capsys, ["length", str(f), "--metric", "lp:1:snow:0.5"])
        assert code == 0
        steps = np.sqrt(np.abs(np.diff(P, axis=0)).sum(axis=1))
        assert out["length"] == pytest.approx(steps.sum(), rel=1e-12)
        assert out["lipschitz_estimate"] == pytest.approx((steps / np.diff(t)).max(), rel=1e-12)
        assert out["interval"] == [t[0], t[-1]]

    def test_bad_csv_reports_line(self, tmp_path, capsys):
        f = tmp_path / "c.csv"
        f.write_text("0,0\noops,1\n")
        code = main(["length", str(f), "--metric", "lp:1"])
        assert code == EXIT_PARSE

    def test_overflowing_length_exit_code(self, tmp_path, capsys):
        f = write_curve(tmp_path / "c.json", [0, 1], [[-1e308, 0], [1e308, 0]])
        assert main(["length", f, "--metric", "lp:2"]) == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflows the float range" in captured.err

    def test_malformed_json(self, tmp_path, capsys):
        f = tmp_path / "c.json"
        f.write_text("{nope")
        assert main(["length", str(f), "--metric", "lp:1"]) == EXIT_PARSE

    def test_invalid_curve_fields(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(json.dumps({"params": [1, 0], "points": [[0], [1]]}))
        assert main(["length", str(f), "--metric", "lp:1"]) == EXIT_PARSE


STAIRCASE = ([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
HUGE_INT = "1" + "0" * 400  # beyond the float range: float() overflows

# (file name, content, parsed (params, points) or None for a file that exits 2)
CURVE_FILES = {
    "blank lines": ("c.csv", b"0,0,0\n\n1,1,0\n\n2,1,1\n", STAIRCASE),
    "whitespace-only lines": ("c.csv", b"0,0,0\n   \n\t\n1,1,0\n2,1,1\n", STAIRCASE),
    "spaces around cells": ("c.csv", b" 0 , 0 ,0\n1,  1,0 \n2 ,1,1\n", STAIRCASE),
    "CRLF line endings": ("c.csv", b"0,0,0\r\n1,1,0\r\n2,1,1\r\n", STAIRCASE),
    "quoted cells": ("c.csv", b'"0","0",0\n1,"1",0\n2,1,"1"\n', STAIRCASE),
    "trailing blank lines": ("c.csv", b"0,0,0\n1,1,0\n2,1,1\n\n \n\n", STAIRCASE),
    "json": ("c.json", json.dumps({"params": STAIRCASE[0], "points": STAIRCASE[1]}).encode(),
             STAIRCASE),
    "csv non-numeric cell": ("c.csv", b"0,0\noops,1\n", None),
    "csv empty cell": ("c.csv", b"0,0,0\n1,,1\n", None),
    "csv ragged rows": ("c.csv", b"0,0,0\n1,1\n", None),
    "csv row with no coordinate": ("c.csv", b"0\n1\n", None),
    "csv empty file": ("c.csv", b"", None),
    "csv only blank lines": ("c.csv", b" \n\n", None),
    "csv nan": ("c.csv", b"0,0\n1,nan\n", None),
    "csv decreasing t": ("c.csv", b"1,0\n0,1\n", None),
    "csv digit-group underscores": ("c.csv", b"0,0\n1_000,1\n", None),
    "csv not utf-8": ("c.csv", b"0,0\n\xff,1\n", None),
    "json not an object": ("c.json", b"[[0, 0], [1, 1]]", None),
    "json missing params": ("c.json", b'{"points": [[0], [1]]}', None),
    "json missing points": ("c.json", b'{"params": [0, 1]}', None),
    "json params not an array": ("c.json", b'{"params": 5, "points": [[0], [1]]}', None),
    "json points not an array": ("c.json", b'{"params": [0, 1], "points": "ab"}', None),
    "json ragged points": ("c.json", b'{"params": [0, 1], "points": [[0], [1, 2]]}', None),
    "json nan": ("c.json", b'{"params": [0, 1], "points": [[0], [NaN]]}', None),
    "json decreasing t": ("c.json", b'{"params": [1, 0], "points": [[0], [1]]}', None),
    "json integer beyond floats": (
        "c.json", f'{{"params": [0, {HUGE_INT}], "points": [[0], [1]]}}'.encode(), None),
    "json derivs wrong shape": (
        "c.json", b'{"params": [0, 1], "points": [[0], [1]], "derivs": [[1]]}', None),
    "json derivs not finite": (
        "c.json", b'{"params": [0, 1], "points": [[0], [1]], "derivs": [[1], [NaN]]}', None),
    "json decode error": ("c.json", b"{nope", None),
    "json not utf-8": ("c.json", b'{"params": [0, 1], "points": [[0], [1\xff]]}', None),
    "stdin decode error": ("-", b"{nope", None),
    "stdin not an object": ("-", b"null", None),
    "missing file": ("absent.json", None, None),
}


class TestCurveReader:
    """The curve file contract, through `main`: what is read, and what exits 2
    with the file's label on stderr."""

    @pytest.mark.parametrize("case", list(CURVE_FILES))
    def test_curve_file(self, case, tmp_path, capsys, monkeypatch):
        name, content, parsed = CURVE_FILES[case]
        if name == "-":
            monkeypatch.setattr(sys, "stdin", io.StringIO(content.decode()))
            path, label = "-", "<stdin>"
        else:
            path = label = str(tmp_path / name)
            if content is not None:
                (tmp_path / name).write_bytes(content)
        code = main(["length", path, "--metric", "lp:1"])
        captured = capsys.readouterr()
        if parsed is None:
            assert code == EXIT_PARSE
            assert captured.out == ""
            assert captured.err.startswith(f"error: {label}: ")
            return
        assert code == 0, captured.err
        curve, derivs = load_curve(path)
        assert curve.params.tolist() == parsed[0]
        assert curve.points.tolist() == parsed[1]
        assert derivs is None
        assert json.loads(captured.out)["length"] == 2.0


class TestGeodesicCommand:
    def test_euclidean_diagonal(self, capsys):
        code, out = run(
            capsys,
            ["geodesic", "--start", "0,0", "--end", "1,1", "--metric", "lp:2",
             "--segments", "16"],
        )
        assert code == 0
        assert out["converged"] is True
        assert out["k"] == pytest.approx(1.41421, abs=1e-3)
        assert len(out["path"]["params"]) == 17

    def test_coincident_endpoints(self, capsys):
        code, out = run(
            capsys, ["geodesic", "--start", "1,2", "--end", "1,2", "--metric", "lp:2"]
        )
        assert code == 0
        assert out["k"] == 0.0
        assert out["lower_bound"] == 0.0
        assert out["gap"] == 0.0
        assert out["converged"] is True

    def test_l1_diagonal(self, capsys):
        code, out = run(
            capsys,
            ["geodesic", "--start", "0,0", "--end", "1,1", "--metric", "lp:1",
             "--segments", "16"],
        )
        assert code == 0
        assert out["k"] == pytest.approx(2.0, abs=1e-3)

    def test_certificate_fields(self, capsys):
        code, out = run(
            capsys,
            ["geodesic", "--start", "0,0", "--end", "3,4", "--metric", "lp:2:snow:0.5",
             "--segments", "16"],
        )
        assert code == 0
        # the affine start is optimal: certified before any sweep
        assert out["lower_bound"] == pytest.approx(16 ** 0.5 * 5.0 ** 0.5, rel=1e-12)
        assert out["gap"] <= 1e-9
        assert out["iterations"] == 0
        assert out["converged"] is True

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_tolerance_exit_code(self, capsys, tol):
        code = main(["geodesic", "--start", "0,0", "--end", "1,1", "--metric", "lp:2",
                     f"--tol={tol}"])
        assert code == EXIT_NUMERIC
        assert "tolerance" in capsys.readouterr().err

    def test_report_fields(self, capsys):
        code, out = run(capsys, ["geodesic", "--start", "0,0", "--end", "1,1",
                                 "--metric", "lp:2", "--segments", "4"])
        assert code == 0
        assert list(out) == ["converged", "k", "lower_bound", "gap", "iterations", "path"]

    def test_dimension_mismatch_exit_code(self, capsys):
        code = main(["geodesic", "--start", "0,0", "--end", "1,1,1", "--metric", "lp:2"])
        assert code == EXIT_DIMENSION
        assert "error: end: expected dimension 2, got 3" in capsys.readouterr().err

    def test_nan_coordinate_is_refused(self):
        code = main(["geodesic", "--start", "nan,0", "--end", "1,1", "--metric", "lp:2"])
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("flag, value", [("start", "0,nan"), ("end", "inf,1")])
    def test_non_finite_point_error_names_its_flag(self, capsys, flag, value):
        points = {"start": "0,0", "end": "1,1", flag: value}
        code = main(["geodesic", "--start", points["start"], "--end", points["end"],
                     "--metric", "lp:2"])
        assert code == EXIT_NUMERIC
        assert f"error: {flag}: expected finite reals" in capsys.readouterr().err

    def test_zero_segments_is_refused(self):
        code = main(["geodesic", "--start", "0,0", "--end", "1,1", "--metric", "lp:2",
                     "--segments", "0"])
        assert code == EXIT_NUMERIC

    def test_unreadable_coordinate_is_a_parse_error(self):
        code = main(["geodesic", "--start", "x,0", "--end", "1,1", "--metric", "lp:2"])
        assert code == EXIT_PARSE

    def test_path_roundtrips_through_length(self, tmp_path, capsys):
        code, out = run(
            capsys,
            ["geodesic", "--start", "0,0", "--end", "3,4", "--metric", "lp:2",
             "--segments", "8"],
        )
        assert code == 0
        f = tmp_path / "path.json"
        f.write_text(json.dumps(out["path"]))
        code2, out2 = run(capsys, ["length", str(f), "--metric", "lp:2"])
        assert code2 == 0
        assert out2["length"] == pytest.approx(5.0, abs=1e-6)

    def test_output_bytes_stable(self, capsys):
        argv = ["geodesic", "--start", "0,0", "--end", "1,1", "--metric", "lp:3",
                "--segments", "8"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second


class TestReparamCommand:
    def test_constant_speed_two_doubles_interval(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 51)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([2.0 * t, np.zeros_like(t)]),
            np.column_stack([np.full_like(t, 2.0), np.zeros_like(t)]),
        )
        code, out = run(capsys, ["reparam", f, "--metric", "lp:2"])
        assert code == 0
        assert out["params"][-1] == pytest.approx(2.0)
        # emitted derivatives are normalized to unit speed
        assert out["derivs"][0] == [1.0, 0.0]

    def test_quarter_circle_interval(self, tmp_path, capsys):
        t = np.linspace(0.0, math.pi / 2.0, 200)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([np.cos(t), np.sin(t)]),
            np.column_stack([-np.sin(t), np.cos(t)]),
        )
        code, out = run(capsys, ["reparam", f, "--metric", "lp:2"])
        assert code == 0
        assert out["params"][-1] == pytest.approx(math.pi / 2.0, abs=1e-9)

    def test_missing_derivs_is_a_parse_error(self, tmp_path):
        f = write_curve(tmp_path / "c.json", [0, 1], [[0, 0], [1, 0]])
        assert main(["reparam", f, "--metric", "lp:2"]) == EXIT_PARSE

    def test_speed_floor_violation_exit_code(self, tmp_path):
        t = np.linspace(0.0, 1.0, 20)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([t * t / 2.0, np.zeros_like(t)]),
            np.column_stack([t, np.zeros_like(t)]),  # speed vanishes at t = 0
        )
        assert main(["reparam", f, "--metric", "lp:2"]) == EXIT_NUMERIC

    @pytest.mark.parametrize("floor", ["nan", "-1"])
    def test_nan_or_negative_speed_floor_exit_code(self, tmp_path, capsys, floor):
        t = np.linspace(0.0, 1.0, 20)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([t * t / 2.0, np.zeros_like(t)]),
            np.column_stack([t, np.zeros_like(t)]),
        )
        assert main(["reparam", f, "--metric", "lp:2", f"--speed-floor={floor}"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "speed_floor must be nonnegative" in err
        assert "too coarse" not in err

    def test_zero_speed_with_zero_floor_exit_code(self, tmp_path, capsys):
        # a zero floor admits every positive speed, never a zero one: that
        # sample has no unit tangent, and its derivative would print as null
        t = np.linspace(0.0, 1.0, 20)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([t * t / 2.0, np.zeros_like(t)]),
            np.column_stack([t, np.zeros_like(t)]),  # speed vanishes at t = 0
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["reparam", f, "--metric", "lp:2", "--speed-floor", "0"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert "speed is 0" in captured.err

    def test_snowflake_metric_rejected(self, tmp_path):
        t = np.linspace(0.0, 1.0, 5)
        f = write_curve(
            tmp_path / "c.json", t,
            np.column_stack([t, np.zeros_like(t)]),
            np.column_stack([np.ones_like(t), np.zeros_like(t)]),
        )
        assert main(["reparam", f, "--metric", "lp:2:snow:0.5"]) == EXIT_PARSE


class TestHolderCommand:
    def test_sqrt_fixture(self, tmp_path, capsys):
        xs = np.linspace(0.0, 1.0, 400)
        dom = write_curve(tmp_path / "d.json", xs, xs[:, None])
        rng = write_curve(tmp_path / "r.json", xs, np.sqrt(xs)[:, None])
        code, out = run(
            capsys, ["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:1", "--alpha", "0.5"]
        )
        assert code == 0
        assert out["holder"] is True
        assert out["C"] == pytest.approx(1.0, abs=1e-9)

    def test_identity_fixture(self, tmp_path, capsys):
        xs = np.linspace(0.0, 1.0, 50)
        dom = write_curve(tmp_path / "d.json", xs, xs[:, None])
        code, out = run(
            capsys, ["holder", dom, dom, "--d1", "lp:1", "--d2", "lp:1", "--alpha", "1"]
        )
        assert code == 0
        assert out["C"] == 1.0

    def test_fit_mode_on_koch(self, tmp_path, capsys):
        from metricgeom import koch_generator

        c = koch_generator(5)
        dom = write_curve(tmp_path / "d.json", c.params, c.params[:, None])
        rng = write_curve(tmp_path / "r.json", c.params, c.points)
        code, out = run(capsys, ["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:2"])
        assert code == 0
        assert out["alpha"] == pytest.approx(math.log(3.0) / math.log(4.0), abs=0.05)
        assert out["subsampled"] is True
        assert out["regression_pairs"] == 200_000
        assert 0 < out["pairs_scanned"] < len(c) * (len(c) - 1) // 2

    def test_overflowing_constant_reports_its_logarithm(self, tmp_path, capsys):
        # C = 1 / (1e-200)^2 = 1e400 overflows, but the data is Holder
        dom = write_curve(tmp_path / "d.json", [0, 1, 2], [[0.0], [1e-200], [1.0]])
        rng = write_curve(tmp_path / "r.json", [0, 1, 2], [[0.0], [1.0], [2.0]])
        code, out = run(
            capsys, ["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:1", "--alpha", "2"]
        )
        assert code == 0
        assert list(out) == ["holder", "C", "alpha", "residual", "witness", "log_C",
                             "pairs_scanned", "regression_pairs", "subsampled"]
        assert out["holder"] is True
        assert out["C"] is None
        assert out["log_C"] == pytest.approx(400.0 * math.log(10.0), rel=1e-12)
        assert out["witness"] == [0, 1]
        assert math.isfinite(out["residual"])
        assert (out["pairs_scanned"], out["regression_pairs"], out["subsampled"]) == (3, 3, False)

    def test_coincident_domain_pair_is_not_holder(self, tmp_path, capsys):
        dom = write_curve(tmp_path / "d.json", [0, 1, 2], [[0.0], [1.0], [1.0]])
        rng = write_curve(tmp_path / "r.json", [0, 1, 2], [[0.0], [2.0], [3.0]])
        code, out = run(
            capsys, ["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:1", "--alpha", "1"]
        )
        assert code == 0
        assert out["holder"] is False
        assert out["C"] is None and out["residual"] is None and out["log_C"] is None
        assert out["witness"] == [1, 2]

    @pytest.mark.parametrize("d2", ["lp:1", "lp:2"])
    def test_overflowing_range_distance_exit_code(self, tmp_path, capsys, d2):
        # d2 between samples 3 and 8 is 3.4e308; no verdict is printed
        xs = np.arange(100.0)
        ys = np.zeros((100, 2))
        ys[3], ys[8] = (1.7e308, 0.0), (-1.7e308, 0.0)
        dom = write_curve(tmp_path / "d.json", xs, xs[:, None])
        rng = write_curve(tmp_path / "r.json", xs, ys)
        code = main(["holder", dom, rng, "--d1", "lp:1", "--d2", d2, "--alpha", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERIC
        assert captured.out == ""
        assert "overflows the float range" in captured.err

    @pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1"])
    def test_non_positive_or_non_finite_order_exit_code(self, tmp_path, alpha):
        xs = np.linspace(0.0, 1.0, 20)
        dom = write_curve(tmp_path / "d.json", xs, xs[:, None])
        argv = ["holder", dom, dom, "--d1", "lp:1", "--d2", "lp:1", "--alpha", alpha]
        assert main(argv) == EXIT_NUMERIC

    @pytest.mark.parametrize("xs, ys, cause", [
        ([0, 1, 2], [0, 1, 0], "same domain distance"),
        ([0, 1, 3], [0, 5, 5.5], "not a positive finite real"),
    ])
    def test_unfittable_order_exit_code(self, tmp_path, capsys, xs, ys, cause):
        dom = write_curve(tmp_path / "d.json", xs, [[v] for v in xs])
        rng = write_curve(tmp_path / "r.json", xs, [[v] for v in ys])
        assert main(["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:1"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert cause in err and "alpha=" in err

    def test_count_mismatch_exit_code(self, tmp_path):
        dom = write_curve(tmp_path / "d.json", [0, 1], [[0], [1]])
        rng = write_curve(tmp_path / "r.json", [0, 1, 2], [[0], [1], [2]])
        assert main(
            ["holder", dom, rng, "--d1", "lp:1", "--d2", "lp:1", "--alpha", "1"]
        ) == EXIT_DIMENSION

    def test_bad_metric_spec_precedes_count_mismatch(self, tmp_path):
        # the sample counts are compared by fit_holder, after both specs parse
        dom = write_curve(tmp_path / "d.json", [0, 1], [[0], [1]])
        rng = write_curve(tmp_path / "r.json", [0, 1, 2], [[0], [1], [2]])
        assert main(["holder", dom, rng, "--d1", "lp:0.5", "--d2", "lp:1"]) == EXIT_PARSE


class TestCheckCommand:
    def test_snowflaked_euclidean_passes(self, capsys):
        code, out = run(
            capsys, ["check", "--metric", "lp:2:snow:0.5", "--samples", "500"]
        )
        assert code == 0
        assert out["passed"] is True
        assert {s["suite"] for s in out["suites"]} == {
            "norm_axioms", "unit_ball_convexity", "metric_axioms"
        }

    def test_p3_passes(self, capsys):
        code, out = run(capsys, ["check", "--metric", "lp:3", "--samples", "500"])
        assert code == 0
        assert out["passed"] is True

    @pytest.mark.parametrize("flag", ["--dim", "--samples"])
    def test_zero_count_is_refused(self, flag):
        assert main(["check", "--metric", "lp:2", flag, "0"]) == EXIT_NUMERIC

    def test_sub_one_exponent_rejected_at_parse(self, capsys):
        assert main(["check", "--metric", "lp:0.7", "--samples", "10"]) == EXIT_PARSE

    def test_absurd_tolerance_reports_violations(self, capsys):
        # a negative tolerance flags ordinary roundoff, driving the exit code
        code, out = run(
            capsys, ["check", "--metric", "lp:2", "--samples", "100", "--tol", "-1"]
        )
        assert code == EXIT_VIOLATION
        assert out["passed"] is False

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exit_code(self, tol, capsys):
        argv = ["check", "--metric", "lp:2", "--samples", "100", "--tol", tol]
        assert main(argv) == EXIT_NUMERIC
        assert capsys.readouterr().out == ""


class TestCoveringCommand:
    def test_unit_segment(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 65)
        f = write_curve(tmp_path / "c.json", t, np.column_stack([t, np.zeros_like(t)]))
        code, out = run(
            capsys,
            ["covering", f, "--metric", "lp:2", "--alpha", "1", "--scales", "4,16"],
        )
        assert code == 0
        assert out["sums"][0] == {"scale": 4, "sum": pytest.approx(1.0)}

    def test_infinite_order_exit_code(self, tmp_path):
        f = write_curve(tmp_path / "c.json", [0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        argv = ["covering", f, "--metric", "lp:2", "--alpha", "inf", "--scales", "4"]
        assert main(argv) == EXIT_NUMERIC

    def test_overflowing_sum_exit_code(self, tmp_path):
        f = write_curve(tmp_path / "c.json", [0, 1], [[-1e308, 0], [1e308, 0]])
        argv = ["covering", f, "--metric", "lp:2", "--alpha", "1", "--scales", "1"]
        assert main(argv) == EXIT_NUMERIC

    def test_blocks_and_resolved_blocks_per_scale(self, tmp_path, capsys):
        # Koch level 1: 5 samples, so no block of width 1/1000 holds 2 of them
        c = koch_generator(1)
        f = write_curve(tmp_path / "k1.json", c.params, c.points)
        code, out = run(capsys, ["covering", f, "--metric", "lp:2", "--alpha", "1",
                                 "--scales", "4,1000"])
        assert code == 0
        assert [e["scale"] for e in out["sums"]] == [4, 1000]
        assert out["sums"][1]["sum"] == 0.0
        assert out["blocks"] == [4, 1000]
        assert out["resolved_blocks"] == [4, 0]

    @pytest.mark.parametrize("scales, code", [("0", EXIT_NUMERIC), ("4,-3", EXIT_NUMERIC),
                                              ("2.5", EXIT_PARSE), ("4,x", EXIT_PARSE)])
    def test_unreadable_scale_is_a_parse_error_and_nonpositive_refused(self, tmp_path, scales,
                                                                       code):
        f = write_curve(tmp_path / "c.json", [0.0, 1.0], [[0.0, 0.0], [1.0, 0.0]])
        argv = ["covering", f, "--metric", "lp:2", "--alpha", "1", "--scales", scales]
        assert main(argv) == code


class TestSerialization:
    def test_seventeen_digit_floats_roundtrip(self):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-300, 123456789.123456789]
        text = dumps({"values": values})
        parsed = json.loads(text)["values"]
        assert parsed == values

    def test_float_lists_match_the_general_path(self):
        # tuples take the general path item by item; lists of only floats a
        # shortcut, which must give the same text
        def as_tuples(v):
            return tuple(map(as_tuples, v)) if isinstance(v, list) else v

        nested = [[0.1, math.nan, math.inf], [-math.inf, -0.0, 0.0, 1e-300], [],
                  [1, 2.5, True], [False, 0.5], [np.float64(0.1), 0.1], [[2.0], [3, 4.0]],
                  [np.int64(3), 1.0], 7.0]
        text = dumps(nested)
        assert text == dumps(as_tuples(nested))
        assert text.startswith("[[0.10000000000000001, null, null], [null, -0, 0, 1e-300], [], "
                               "[1, 2.5, true], [false, 0.5], [0.10000000000000001, ")

    def test_emitted_curves_reparse_identically(self, tmp_path):
        from metricgeom import GeodesicProblem, NormSpec, norm_metric, solve
        from metricgeom.cli import curve_to_dict, load_curve

        res = solve(GeodesicProblem(norm_metric(NormSpec(3)), [0.1, 0.2], [2.0, 1.0],
                                    segment_count=7))
        f = tmp_path / "path.json"
        f.write_text(dumps(curve_to_dict(res.path)))
        reparsed, _ = load_curve(str(f))
        assert reparsed == res.path  # bitwise equality of params and points

    def test_stdin_input(self, tmp_path):
        payload = json.dumps({"params": [0, 1], "points": [[0, 0], [1, 1]]})
        proc = subprocess.run(
            [sys.executable, "-m", "metricgeom.cli", "length", "-", "--metric", "lp:2"],
            input=payload, capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["length"] == pytest.approx(math.sqrt(2.0))

    def test_import_leaves_scipy_unloaded(self):
        # scipy.spatial takes most of the import time and only long covering
        # blocks need it, so it loads on first use
        import metricgeom

        src = os.path.dirname(os.path.dirname(metricgeom.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); import metricgeom.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_long_covering_blocks_leave_scipy_unloaded(self, tmp_path):
        # blocks of 200 and 100 samples, past the lag-scan cut-off, take the
        # branch-and-bound; nothing on the way imports scipy
        import metricgeom

        t = np.linspace(0.0, 1.0, 200)
        f = write_curve(tmp_path / "arc.json", t,
                        np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t)]))
        src = os.path.dirname(os.path.dirname(metricgeom.__file__))
        argv = ["covering", f, "--metric", "lp:2", "--alpha", "1", "--scales", "1,2"]
        code = (f"import sys; sys.path.insert(0, {src!r}); from metricgeom.cli import main; "
                f"code = main({argv!r}); "
                "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert json.loads(lines[0])["sums"][0]["sum"] == 2.0
        assert lines[-1] == "0 []"

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
