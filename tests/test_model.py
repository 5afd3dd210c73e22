"""Model-file parsing, canonical printing, and tube/measurement IO."""

from __future__ import annotations

import json
import math

import pytest

from mixmono import (
    REMAINDER,
    Measurement,
    load_bundled,
    load_measurements,
    load_model,
    model_to_text,
    parse_model,
    reach_tube,
    read_tube_json,
    write_measurements,
    write_plot,
    write_tube,
)
from mixmono.reach import ReachTube, TimeSemantics
from mixmono.errors import IoError, ModelSyntaxError, ValidationError
from mixmono.cli import main
from mixmono.model import bundled_models

MINIMAL = """
system "demo" {
  time: discrete(dt=0.1);
  state: a, b;
  disturbance: w in [[-0.1, 0.1]];
  dynamics {
    a' = a + 0.1*b;
    b' = b - 0.1*a + w;
  }
  init: [[0, 1], [0, 1]];
}
"""


class TestParseModel:
    def test_minimal_model(self):
        m = parse_model(MINIMAL)
        assert m.name == "demo"
        assert m.semantics is TimeSemantics.DISCRETE
        assert m.dt == pytest.approx(0.1)
        assert m.state_names == ("a", "b")
        assert m.dist_names == ("w",)
        assert m.n_x == 2 and m.n_w == 1
        assert m.observation is None
        assert m.constraints == ()

    @pytest.mark.parametrize("dt", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="dt"):
            parse_model(MINIMAL.replace("dt=0.1", f"dt={dt}"))

    def test_comments_are_ignored(self):
        m = parse_model(MINIMAL.replace("state: a, b;", "state: a, b; # names"))
        assert m.state_names == ("a", "b")

    def test_missing_section_rejected(self):
        broken = MINIMAL.replace("init: [[0, 1], [0, 1]];", "")
        with pytest.raises(ValidationError) as exc:
            parse_model(broken)
        assert "init" in str(exc.value)

    def test_bad_dynamics_expression_reports_line(self):
        broken = MINIMAL.replace("a' = a + 0.1*b;", "a' = a + * b;")
        with pytest.raises(ModelSyntaxError) as exc:
            parse_model(broken)
        assert exc.value.line is not None

    def test_unknown_state_in_dynamics_reports_line(self):
        broken = MINIMAL.replace("a' = a + 0.1*b;", "a' = a + c;")
        with pytest.raises(ValidationError) as exc:
            parse_model(broken)
        assert "line" in str(exc.value)

    def test_dimension_mismatch_in_init(self):
        broken = MINIMAL.replace("[[0, 1], [0, 1]]", "[[0, 1]]")
        with pytest.raises((ModelSyntaxError, ValidationError)):
            parse_model(broken)

    def test_jacobian_override_with_infinity(self):
        text = MINIMAL.replace(
            "init: [[0, 1], [0, 1]];",
            "init: [[0, 1], [0, 1]];\n  jac_override { f_1/d_2 in [0.05, inf]; }",
        )
        m = parse_model(text)
        assert m.jacobian_overrides
        ((key, entry),) = m.jacobian_overrides.items()
        assert key == (0, 1)
        assert entry.lo == 0.05 and math.isinf(entry.hi)

    @pytest.mark.parametrize("block", [
        "constraint { a in [nan, 1]; }",
        "constraint { a in [2, 1]; }",
        "jac_override { f_1/d_2 in [nan, 1]; }",
        "jac_override { f_1/d_2 in [2, 1]; }",
    ])
    def test_nan_or_inverted_bounds_rejected_with_line(self, block):
        text = MINIMAL.replace(
            "init: [[0, 1], [0, 1]];", f"init: [[0, 1], [0, 1]];\n  {block}"
        )
        with pytest.raises(ValidationError, match="line 11"):
            parse_model(text)


    @pytest.mark.parametrize("init, message, line", [
        ("init: [[0, 1], [0, 1]];\n  jac_overide { f_1/d_1 in [0.5, 0.5]; }",
         "unknown section 'jac_overide'", 11),
        ("init: [[0, 1], [0, 1]];\n  constraints { a in [0, 0.2]; }",
         "unknown section 'constraints'", 11),
        ("init: [[0, 1], [0, 1]];\n  init: [[5, 6], [5, 6]];", "duplicate section 'init'", 11),
        ("init: [[0, 1], [0, 1]];\n  dynamics { a' = a; b' = b; }",
         "duplicate section 'dynamics'", 11),
        ("init: [[0, 1], [0, 1]];\n  constraint: a in [0, 1];",
         "section 'constraint' must open with '{'", 11),
        ("init { [[0, 1], [0, 1]] }", "section 'init' must open with ':'", 10),
    ], ids=["unknown-block", "unknown-plural", "duplicate-line", "duplicate-block",
            "block-opened-with-colon", "line-opened-with-brace"])
    def test_unknown_duplicate_or_misopened_section_rejected(self, init, message, line):
        text = MINIMAL.replace("init: [[0, 1], [0, 1]];", init)
        with pytest.raises(ModelSyntaxError, match=message) as exc:
            parse_model(text)
        assert exc.value.line == line

    def test_jacobian_override_round_trip_keeps_inf_and_negative_zero(self):
        text = MINIMAL.replace(
            "init: [[0, 1], [0, 1]];",
            "init: [[0, 1], [0, 1]];\n"
            "  jac_override { f_1/d_2 in [-0, inf]; f_2/d_3 in [-inf, 0.5]; }",
        )
        m = parse_model(text)
        again = parse_model(model_to_text(m))
        assert model_to_text(again) == model_to_text(m)
        assert "f_1/d_2 in [-0,inf];" in model_to_text(m)
        assert again.jacobian_overrides == m.jacobian_overrides
        entry = again.jacobian_overrides[(0, 1)]
        assert math.copysign(1.0, entry.lo) == -1.0 and entry.hi == math.inf
        assert again.jacobian_overrides[(1, 2)].lo == -math.inf

    def test_nan_noise_gain_rejected_with_line(self, tmp_path, capsys):
        text = model_to_text(load_bundled("unicycle")).replace(
            "noisematrix: [[1", "noisematrix: [[nan")
        with pytest.raises(ValidationError, match=r"NaN \(line \d+\)"):
            parse_model(text)
        path = tmp_path / "nan_gain.mm"
        path.write_text(text)
        assert main(["reach", "--model", str(path), "--steps", "1"]) == 2
        assert "NaN" in capsys.readouterr().err


class TestBundledModels:
    def test_catalog(self):
        assert set(bundled_models()) == {
            "ct_abate",
            "jaulin_2_11",
            "scott_example",
            "scott_redundant",
            "unicycle",
            "vanderpol",
        }

    @pytest.mark.parametrize("name", sorted(
        ["ct_abate", "jaulin_2_11", "scott_example",
         "scott_redundant", "unicycle", "vanderpol"]
    ))
    def test_round_trip_through_canonical_text(self, name):
        m = load_bundled(name)
        again = parse_model(model_to_text(m))
        assert model_to_text(again) == model_to_text(m)
        assert again.state_names == m.state_names
        assert again.init == m.init

    def test_load_model_from_path(self, tmp_path):
        p = tmp_path / "demo.mm"
        p.write_text(MINIMAL)
        m = load_model(p)
        assert m.name == "demo"

    def test_load_model_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_model(tmp_path / "nope.mm")

    def test_load_model_non_text_file_names_the_path(self, tmp_path, capsys):
        p = tmp_path / "latin1.mm"
        p.write_bytes(MINIMAL.replace("demo", "d\xe9mo").encode("latin-1"))
        with pytest.raises(ValidationError, match="latin1.mm"):
            load_model(p)
        assert main(["reach", "--model", str(p), "--steps", "1"]) == 2
        assert "latin1.mm" in capsys.readouterr().err


class TestTubeIo:
    def setup_method(self):
        self.model = load_bundled("vanderpol")
        self.tube = reach_tube(self.model, REMAINDER, 5)

    def test_csv_round_trippable_header(self, tmp_path):
        p = tmp_path / "tube.csv"
        write_tube(self.tube, "csv", p, self.model.state_names)
        lines = p.read_text().strip().splitlines()
        assert lines[0] == "t,x1_lo,x1_hi,x2_lo,x2_hi"
        assert len(lines) == 7
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(self.model.init[0].lo)

    def test_json_round_trip(self, tmp_path):
        p = tmp_path / "tube.json"
        write_tube(self.tube, "json", p, self.model.state_names)
        again = read_tube_json(p)
        assert len(again) == len(self.tube)
        for a, b in zip(again, self.tube):
            assert a.t == b.t
            assert a.propagated == b.propagated
            assert a.updated is None

    def test_json_schema_fields(self, tmp_path):
        p = tmp_path / "tube.json"
        write_tube(self.tube, "json", p, self.model.state_names)
        payload = json.loads(p.read_text())
        assert payload["states"] == ["x1", "x2"]
        assert {"t", "propagated", "updated"} <= set(payload["steps"][0])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValidationError):
            write_tube(self.tube, "yaml", tmp_path / "t.yaml")

    @pytest.mark.parametrize("text", [
        "{not json", "[1, 2]", '{"states": []}', '{"steps": 3}',
        '{"steps": [{"t": 0, "propagated": [[0, 1]]}]}',
        '{"steps": [{"t": 0, "propagated": [[0]], "updated": null}]}',
        '{"steps": [{"t": 0, "propagated": [[0, 1, 2]], "updated": null}]}',
        '{"steps": [{"t": 0, "propagated": [[1, 0]], "updated": null}]}',
        b'\xff\xfe',
    ])
    def test_malformed_json_is_validation_error(self, tmp_path, text):
        p = tmp_path / "tube.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ValidationError):
            read_tube_json(p)

    @pytest.mark.parametrize("write, message", [
        (lambda path: write_tube(ReachTube(), "csv", path), "cannot serialize an empty tube"),
        (lambda path: write_tube(ReachTube(), "json", path), "cannot serialize an empty tube"),
        (lambda path: write_plot({"remainder": ReachTube()}, path), "cannot plot an empty tube"),
        (lambda path: write_plot({}, path), "no tubes to plot"),
    ])
    def test_empty_tube_is_validation_error(self, tmp_path, write, message):
        path = tmp_path / "out"
        with pytest.raises(ValidationError, match=message):
            write(path)
        assert not path.exists()

    def test_svg_plot(self, tmp_path):
        p = tmp_path / "plot.svg"
        write_plot({"remainder": self.tube}, p, self.model.state_names)
        body = p.read_text()
        assert body.startswith("<svg") or "<svg" in body
        assert "polyline" in body
        assert "remainder" in body


class TestMeasurementIo:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.csv"
        ms = [Measurement(0.0, (1.0, 2.0)), Measurement(0.1, (1.1, 1.9))]
        write_measurements(ms, p)
        again = load_measurements(p)
        assert again == ms

    def test_malformed_row_reports_number(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("t,y1\n0.0,1.0\n0.1,oops\n")
        with pytest.raises(ValidationError) as exc:
            load_measurements(p)
        assert "3" in str(exc.value)

    def test_headerless_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0.0,1.0\n0.1,2.0\n")
        ms = load_measurements(p)
        assert len(ms) == 2 and ms[1].y == (2.0,)
