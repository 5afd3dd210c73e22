"""Command-line interface behavior and exit codes."""

from __future__ import annotations

import json

import numpy as np
import pytest

from mixmono import Measurement, eval_point, load_bundled, write_measurements
from mixmono.cli import main

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
        assert "natural" in out and "remainder" in out
        assert "[-1.3, 27.1]" in out

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

    def test_subdivide_reports_cells_and_hull(self, capsys):
        code, out, _ = run(
            capsys,
            "range", "--expr", "x1^2", "--domain", "[-1,1]",
            "--methods", "natural", "--subdivide", "4", "--bounds",
        )
        assert code == 0
        assert "hull over 4 cells" in out
        assert "per-cell max error" in out

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

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "range", "--expr", "x1 +", "--domain", "[0,1]")
        assert code == 2
        assert "error" in err


class TestReach:
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
