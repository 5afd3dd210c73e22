"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mixmono import Measurement, eval_point, inclusion, load_bundled, write_measurements
from mixmono.cli import _DOWN, _UP, _fmt, main

CUBIC3 = (
    "x1*x2*x3 + x1^2*x2 + x2^2*x3 + x3^2*x1 + x1^2*x3 + x3^2*x2"
    " + x2^2*x1 + x1^3 + x2^3 + x3^3"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRange:
    def test_expr_with_methods(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1^3 - 0.1*x1", "--domain", "[-1,3]",
            "--methods", "natural,remainder",
        )
        assert code == 0
        # each end rounded outward at 6 digits: natural's lower end is
        # -1.3000000000000003 and its upper end above 27.1
        assert out == "natural         [-1.30001, 27.1001]\nremainder       [-1.30001, 27.1]\n"

    def test_cubic_natural_anchor(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", CUBIC3, "--domain", "[-2,2]^3",
            "--methods", "natural",
        )
        assert code == 0
        assert "[-80, 80]" in out

    def test_bounds_flag_adds_error_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1^3 - 0.1*x1", "--domain", "[-1,3]",
            "--methods", "remainder", "--bounds", "--seed", "7",
        )
        assert code == 0
        assert "q_upper_hat=0.4" in out
        assert "sampled range" in out

    def test_bounds_print_once_after_every_method(self, capsys):
        # the error bounds belong to the remainder form and the box, so they
        # print once, whatever the methods
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1^2 + x2", "--domain", "[[-1,1],[0,2]]",
            "--methods", "natural,remainder,best", "--bounds", "--samples", "100",
        )
        assert code == 0
        assert out == (
            "natural         [0, 3]\n"
            "remainder       [-3, 7]\n"
            "best            [0, 3]\n"
            "                row 1: q_lower_est=4 q_upper=4 q_upper_hat=4\n"
            "sampled range   [0.0123457, 3]\n"
        )

    def test_crossed_inner_ends_print_exactly(self, capsys):
        # 0.1234566 rounds inward to [0.123457, 0.123456]; its float ends
        # state a true inner range instead
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1", "--domain", "[[0.1234566,0.1234566]]",
            "--methods", "natural", "--bounds", "--samples", "10",
        )
        assert code == 0
        assert out.splitlines()[-1] == "sampled range   [0.1234566, 0.1234566]"

    def test_subdivide_reports_cells_and_hull(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1^2", "--domain", "[-1,1]",
            "--methods", "natural", "--subdivide", "4", "--bounds",
        )
        assert code == 0
        assert "hull over 4 cells" in out
        assert "per-cell max error" in out

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_subdivide_below_one_is_validation_error(self, capsys, k):
        code, out, err = run(
            capsys, "range", "--expr", "x1", "--domain", "[0,1]", "--subdivide", k,
        )
        assert code == 2
        assert out == "" and "--subdivide" in err

    def test_seed_determinism(self, capsys):
        argv = (
            "range", "--expr", "sin(x1)*x1", "--domain", "[-2,2]",
            "--methods", "best", "--bounds", "--seed", "3",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_expr_without_domain_is_validation_error(self, capsys):
        code, _, err = run(capsys, "range", "--expr", "x1")
        assert code == 2

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        # as the tube writers do: a typed error and exit 2, no traceback
        dest = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "range", "--expr", "x1", "--domain", "[[0,1]]",
                             "--out", str(dest))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {dest}: ")
        assert not dest.exists()

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "range", "--expr", "x1 +", "--domain", "[0,1]")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("domain", ["[1,2,3]", "[2,1]", "[[0,1],[1,2,3]]"])
    def test_malformed_domain_is_validation_error(self, capsys, domain):
        # a row of three numbers is not cut to two, and an inverted row is bad
        # input (exit 2), not a computation error (exit 3)
        code, out, err = run(capsys, "range", "--expr", "x1", "--domain", domain)
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_overflowing_slope_sum_saturates(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", "1e298*x1 + 1e298*x2 + abs(x3)",
            "--domain", "[[0,1e10],[0,1e10],[-1,1]]",
        )
        # the slope sum past the largest float rounds outward, to inf
        assert code == 0
        assert "[0, inf]" in out

    def test_image_past_the_largest_float(self, capsys):
        # exp(0.5e299) is past the largest float: every upper end is inf,
        # where a clamp to the largest float scaled by 0.716 lay below the
        # image, and best_of found the enclosures disjoint
        code, out, _ = run(
            capsys,
            "range", "--expr", "0.716*exp(0.5*x1)", "--domain", "[[1e299,2e299]]",
            "--methods", "natural,remainder,best",
        )
        assert code == 0
        rows = out.splitlines()
        assert [row.split()[0] for row in rows] == ["natural", "remainder", "best"]
        assert all(row.endswith(", inf]") for row in rows)

    def test_centered_forms_hold_an_image_whose_slope_passes_the_largest_float(self, capsys):
        # d/dx2 = 1e300*x1 = 1e309 over x1 = 1e9 is past the largest float,
        # so its bound's upper end is inf and both centered forms refuse the
        # box; a slope clamped to the largest float printed
        # [1.41012e+09, 1.58988e+09] for both, inside the image [1e9, 2e9]
        code, out, err = run(
            capsys,
            "range", "--expr", "x1*x2*1e300", "--domain", "[[1e9,1e9],[1e-300,2e-300]]",
            "--methods", "centered,mixed_centered",
        )
        for row in out.splitlines():
            lo, hi = map(float, row.split(None, 1)[1].strip("[]").split(","))
            assert lo <= 1e9 and 2e9 <= hi, row
        assert code == 3 and "two-sided finite bounds" in err

    def test_a_refusing_method_hides_no_other_box(self, capsys):
        # natural's computed ends lie one and three ULPs outside [1e9, 2e9]
        code, out, err = run(
            capsys,
            "range", "--expr", "x1*x2*1e300", "--domain", "[[1e9,1e9],[1e-300,2e-300]]",
            "--methods", "natural,centered,remainder,best",
        )
        assert code == 0 and err == ""
        assert out == ("natural         [9.99999e+08, 2.00001e+09]\n"
                       "centered        refused: InfiniteJacobianEntry\n"
                       "remainder       [1e+09, 2e+09]\n"
                       "best            [1e+09, 2e+09]\n")

    def test_refusing_error_bounds_hide_no_box(self, capsys):
        # the slope of sqrt(abs(x1)) is unbounded on both sides at 0, so the
        # error bounds refuse as remainder does, and natural's box still prints
        code, out, err = run(
            capsys,
            "range", "--expr", "sqrt(abs(x1))", "--domain", "[[-1,1]]",
            "--methods", "natural,remainder", "--bounds", "--samples", "10",
        )
        assert code == 0 and err == ""
        assert out.splitlines()[:3] == ["natural         [0, 1]",
                                        "remainder       refused: UnboundedBothSides",
                                        "                row 1: refused: UnboundedBothSides"]
        assert out.splitlines()[3].startswith("sampled range   ")

    def test_best_raises_an_error_that_is_no_refusal(self, capsys):
        code, out, err = run(
            capsys, "range", "--expr", "sqrt(x1)", "--domain", "[[-1,1]]", "--methods", "best",
        )
        assert code == 3 and out == ""
        assert err == "computation error: sqrt of interval with negative lower bound: [-1, 1]\n"

    def test_best_runs_each_engine_once(self, capsys, monkeypatch):
        # best is best_of over every engine; no probe runs them beforehand
        calls, enclose = Counter(), inclusion._enclose

        def counting(kind, *args):
            calls[kind] += 1
            return enclose(kind, *args)

        monkeypatch.setattr(inclusion, "_enclose", counting)
        code, out, _ = run(
            capsys, "range", "--expr", "sin(x1)*x1", "--domain", "[-2,2]", "--methods", "best",
        )
        assert code == 0 and out.startswith("best ")
        assert calls == dict.fromkeys(inclusion.METHOD_NAMES, 1)

    def test_printed_ends_hold_the_computed_box(self, capsys):
        # 0.1234566 rounded to nearest printed 0.123457, above the image's minimum
        code, out, _ = run(
            capsys, "range", "--expr", "x1", "--domain", "[[0.1234566,0.2]]",
            "--methods", "natural",
        )
        assert code == 0
        assert out == "natural         [0.123456, 0.200001]\n"

    @pytest.mark.parametrize("samples", ["-5", "100000000000"])
    def test_sample_count_out_of_range_is_validation_error(self, capsys, samples):
        # rejected before any array is made: numpy raised on a negative
        # count, and ran out of memory on the huge one
        code, out, err = run(
            capsys, "range", "--expr", "x1^2", "--domain", "[[0,1]]", "--bounds",
            "--samples", samples,
        )
        assert code == 2 and out == ""
        assert err == f"error: the sample count must be from 0 to 10000000, got {samples}\n"

    def test_infinite_width_with_bounds_is_validation_error(self, capsys):
        # --bounds samples the box, whose width 2e308 overflows
        code, out, err = run(
            capsys, "range", "--expr", "x1", "--domain", "[[-1e308,1e308]]", "--bounds"
        )
        assert code == 2
        assert out == "" and err.startswith("error:")


def test_printed_numbers_bound_the_value():
    # seeded doubles of every magnitude: random bit patterns, 6-digit
    # decimals, subnormals and the largest floats
    rng = np.random.default_rng(26)
    values = [x for x in rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64).tolist()
              if math.isfinite(x)]
    values += [float(f"{m}e{e}") for m, e in zip(rng.integers(1, 10**6, 2000).tolist(),
                                                 rng.integers(-330, 309, 2000).tolist())]
    values += [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e9, 2e9, 0.1234566]
    for x in values:
        lo, hi = _fmt(x, _DOWN), _fmt(x, _UP)
        assert Decimal(lo) <= Decimal(x) <= Decimal(hi), (x, lo, hi)
        nearest = f"{x:.6g}"  # the old text, kept wherever it is on the safe side
        assert nearest == (lo if Decimal(nearest) <= Decimal(x) else hi), (x, lo, hi)
        assert nearest == (hi if Decimal(nearest) >= Decimal(x) else lo), (x, lo, hi)
    assert [_fmt(x) for x in (math.inf, -math.inf)] == ["inf", "-inf"]


class TestReach:
    def test_best_answers_past_a_refusing_engine(self, capsys):
        # tight_vertex refuses vanderpol's step 7; the probe-chosen best stopped there
        code, out, _ = run(
            capsys, "reach", "--model", "vanderpol", "--method", "best", "--steps", "40",
        )
        assert code == 0 and out.startswith("best            t=4 ")

    def test_csv_output(self, capsys, tmp_path):
        p = tmp_path / "tube.csv"
        code, out, _ = run(
            capsys,
            "reach", "--model", "vanderpol", "--steps", "5",
            "--method", "remainder", "--out", str(p), "--format", "csv",
        )
        assert code == 0
        assert p.read_text().startswith("t,x1_lo,x1_hi")

    def test_horizon_instead_of_steps(self, capsys):
        code, out, _ = run(
            capsys,
            "reach", "--model", "vanderpol", "--horizon", "0.5",
            "--method", "natural",
        )
        assert code == 0
        assert "t=0.5" in out

    def test_plot_output(self, capsys, tmp_path):
        p = tmp_path / "tube.svg"
        code, _, _ = run(
            capsys,
            "reach", "--model", "scott_example", "--steps", "10",
            "--method", "remainder", "--plot", str(p),
        )
        assert code == 0
        assert "<svg" in p.read_text()

    def test_plot_of_a_tube_with_infinite_ends(self, capsys, tmp_path):
        # natural's vanderpol tube blows up to infinite ends: each panel is
        # scaled by its finite ends, and every step has a point in it
        p = tmp_path / "v.svg"
        code, _, _ = run(
            capsys,
            "reach", "--model", "vanderpol", "--steps", "30",
            "--method", "natural", "--plot", str(p),
        )
        assert code == 0
        body = p.read_text()
        assert "nan" not in body
        lines = [line.split('points="')[1].split('"')[0] for line in body.splitlines()
                 if line.startswith("<polyline")]
        assert len(lines) == 4  # lo and hi of two states
        for k, points in enumerate(lines):
            top = 24 + 220 * (k // 2)  # the state's panel, below the legend
            ys = [float(pt.split(",")[1]) for pt in points.split()]
            assert len(ys) == 31 and all(top + 30 <= y <= top + 190 for y in ys)

    @pytest.mark.parametrize("command", ["reach", "compare"])
    @pytest.mark.parametrize("horizon", ["inf", "nan"])
    def test_non_finite_horizon_is_validation_error(self, capsys, command, horizon):
        code, out, err = run(
            capsys, command, "--model", "vanderpol", "--horizon", horizon
        )
        assert code == 2
        assert out == "" and "--horizon" in err

    def test_refine_without_constraints(self, capsys):
        code, _, err = run(
            capsys, "reach", "--model", "vanderpol", "--steps", "3", "--refine"
        )
        assert code == 2

    def test_unknown_model(self, capsys):
        code, _, err = run(capsys, "reach", "--model", "nope", "--steps", "3")
        assert code == 2
        assert "nope" in err


class TestInvert:
    def test_sum_fixture(self, capsys):
        code, out, _ = run(
            capsys,
            "invert", "--expr", "x1 + x2", "--prior", "[0,1]^2",
            "--ylo", "1.5", "--yhi", "2.0",
        )
        assert code == 0
        nums = [float(tok) for tok in out.replace("[", " ").replace("]", " ")
                .replace(",", " ").split()]
        assert nums[0] == pytest.approx(0.5, abs=2e-3)
        assert nums[1] == pytest.approx(1.0, abs=2e-3)

    def test_expr_without_prior_is_validation_error(self, capsys):
        code, _, err = run(
            capsys, "invert", "--expr", "x1+x2", "--ylo", "1", "--yhi", "2"
        )
        assert code == 2
        assert "--prior" in err

    @pytest.mark.parametrize("arg", ["--epsilon", "--ylo", "--yhi"])
    def test_nan_argument_is_validation_error(self, capsys, arg):
        argv = {"--epsilon": "0.001", "--ylo": "0.2", "--yhi": "0.3", arg: "nan"}
        code, out, err = run(
            capsys, "invert", "--expr", "x1", "--prior", "[0,1]",
            *(tok for item in argv.items() for tok in item),
        )
        assert code == 2
        assert out == "" and err.startswith("error:")

    @pytest.mark.parametrize("command", ["invert", "observe"])
    def test_a_method_list_is_validation_error(self, capsys, tmp_path, command):
        # one method runs there; natural,remainder ran natural alone
        p = tmp_path / "meas.csv"
        p.write_text("t,y1\n0.0,1.0\n")
        argv = {"invert": ["--expr", "x1 + x2", "--prior", "[0,1]^2", "--ylo", "1.5",
                           "--yhi", "2.0"],
                "observe": ["--model", "scott_example", "--measurements", str(p)]}[command]
        code, out, err = run(capsys, command, *argv, "--method", "natural,remainder")
        assert code == 2 and out == ""
        assert err == "error: give one method, got 'natural,remainder'\n"

    def test_empty_solution_is_reported_not_fatal(self, capsys):
        code, out, _ = run(
            capsys,
            "invert", "--expr", "x1", "--prior", "[0,1]",
            "--ylo", "5", "--yhi", "6",
        )
        assert code == 0
        assert "EMPTY" in out


class TestObserveAndCompare:
    def test_observe_writes_updated_columns(self, capsys, tmp_path):
        model = load_bundled("scott_example")
        rng = np.random.default_rng(0)
        x = np.array(model.init.midpoint())
        ms = []
        for k in range(11):
            v = rng.uniform(model.observation.noise.lo, model.observation.noise.hi)
            y = np.array(
                [eval_point(e, x) for e in model.observation.exprs]
            ) + np.asarray(model.observation.V) @ v
            ms.append(Measurement(t=k * model.dt, y=tuple(y)))
            w = rng.uniform(model.disturbance.lo, model.disturbance.hi)
            x = np.array(
                [eval_point(e, np.concatenate([x, w])) for e in model.dynamics]
            )
        mpath = tmp_path / "meas.csv"
        write_measurements(ms, mpath)
        out_path = tmp_path / "tube.csv"
        code, _, _ = run(
            capsys,
            "observe", "--model", "scott_example", "--measurements", str(mpath),
            "--method", "remainder", "--out", str(out_path),
        )
        assert code == 0
        header = out_path.read_text().splitlines()[0]
        assert "x1_lo_upd" in header

    def test_observe_malformed_csv(self, capsys, tmp_path):
        p = tmp_path / "meas.csv"
        p.write_text("t,y1\n0.0,ok?\n")
        code, _, err = run(
            capsys, "observe", "--model", "scott_example",
            "--measurements", str(p),
        )
        assert code == 2
        assert "2" in err

    @pytest.mark.parametrize("row", ["inf,2,0.5,2,-0.5", "nan,2,0.5,2,-0.5",
                                     "0.0,2,-inf,2,-0.5", "0.0,2,0.5,nan,-0.5"])
    def test_observe_rejects_non_finite_measurements(self, capsys, tmp_path, row):
        p = tmp_path / "meas.csv"
        p.write_text(f"t,y1,y2,y3,y4\n{row}\n")
        code, _, err = run(
            capsys, "observe", "--model", "unicycle", "--measurements", str(p),
        )
        assert code == 2
        assert "finite" in err

    def test_compare_orders_methods(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--model", "vanderpol", "--steps", "10"
        )
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        table = {}
        for line in lines[1:]:
            parts = line.split()
            if len(parts) >= 3:
                try:
                    table[parts[0]] = float(parts[1])
                except ValueError:
                    continue
        assert table["remainder"] <= table["jacobian_sign"] + 1e-12

    def test_seed_is_only_a_range_option(self, capsys):
        # nothing in compare samples, so it takes no --seed
        code, _, err = run(
            capsys, "compare", "--model", "vanderpol", "--steps", "1", "--seed", "1"
        )
        assert code == 2
        assert "--seed" in err


@pytest.mark.parametrize("args", [
    ["--expr", "x1^99999999999999999999", "--domain", "[[0,1]]"],
    ["--expr", "x1^10000000", "--domain", "[[0.5,0.75]]", "--subdivide", "4"],
])
def test_huge_integer_powers_finish(args):
    # a power of 0 or 1 stays exact under every product, and the lanes ran
    # one product per unit of the exponent for every base
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-m", "mixmono", "range", *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "remainder" in done.stdout


@pytest.mark.parametrize("call", [
    "pass",
    "cli.main(['reach', '--model', 'vanderpol', '--steps', '3'])",
    "cli.main(['range', '--expr', 'x1*x2', '--domain', '[[0,1],[1,2]]'])",
], ids=["import", "reach", "range"])
def test_numpy_loads_only_where_arrays_are_built(call):
    # a fresh interpreter, since this one has numpy loaded already
    code = ("import contextlib, io, sys\nfrom mixmono import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    {call}\n"
            "print('numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_python_dash_m_runs_the_cli_from_a_checkout():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "mixmono", "range", "--expr", "x1^2", "--domain", "[-1,2]",
         "--methods", "natural"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "natural" in done.stdout and "[0, 4]" in done.stdout
    done = subprocess.run([sys.executable, "-m", "mixmono", "range", "--expr", "x1"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 2
