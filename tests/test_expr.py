"""Expression parsing, printing, evaluation, and derivative bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmono import (
    Box,
    Interval,
    clarke_jacobian_bounds,
    eval_interval,
    eval_point,
    eval_vec,
    parse_expr,
    to_string,
)
from mixmono.errors import (
    DimensionMismatch,
    ExprSyntaxError,
    UnboundedBothSides,
    UnknownIdentifier,
)

from conftest import rand_instance

XY = ["x1", "x2"]


class TestParser:
    def test_precedence(self):
        e = parse_expr("1 + 2*x1^2", XY)
        assert eval_point(e, [3.0, 0.0]) == 19.0

    def test_unary_minus_binds_to_base(self):
        e = parse_expr("-x1^2", XY)
        assert eval_point(e, [2.0, 0.0]) == 4.0
        e = parse_expr("-(x1^2)", XY)
        assert eval_point(e, [2.0, 0.0]) == -4.0

    def test_power_not_chainable(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1^2^3", XY)

    def test_exponent_must_be_integer(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("x1^0.5", XY)

    def test_functions_and_nesting(self):
        e = parse_expr("min(abs(x1 - x2), max(x1, 0.5)) + sin(cos(x2))", XY)
        x1, x2 = 0.3, -0.8
        expected = min(abs(x1 - x2), max(x1, 0.5)) + math.sin(math.cos(x2))
        assert abs(eval_point(e, [x1, x2]) - expected) < 1e-15

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_expr("x1 + y", XY)

    def test_syntax_error_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("x1 + * 2", XY)
        assert exc.value.offset == 5

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("sin(x1", XY)

    @pytest.mark.parametrize(
        "text",
        [
            "x1^3 - 0.1*x1",
            "min(x1, 2 - x1) + 0.3*x1",
            "abs(x1)*exp(x2) - x2^2/(1 + x1^2)",
            "sqrt(x1 + 5) + arctan(x2)",
        ],
    )
    def test_print_parse_round_trip(self, text):
        e = parse_expr(text, XY)
        again = parse_expr(to_string(e, XY), XY)
        assert to_string(again, XY) == to_string(e, XY)
        for pt in [(0.5, -0.3), (1.5, 0.7), (2.9, -1.0)]:
            assert eval_point(again, pt) == eval_point(e, pt)

    def test_negated_power_round_trip(self):
        e = parse_expr("-(x1^2)", XY)
        printed = to_string(e, XY)
        again = parse_expr(printed, XY)
        assert eval_point(again, [2.0, 0.0]) == -4.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_round_trip(self, seed):
        inst = rand_instance(np.random.default_rng(seed))
        n = len(inst.box)
        variables = [f"x{j + 1}" for j in range(n)]
        again = parse_expr(to_string(inst.expr, variables), variables)
        assert to_string(again, variables) == to_string(inst.expr, variables)


class TestEvaluation:
    def test_vectorized_matches_scalar(self):
        e = parse_expr("x1*x2 + abs(x1) - sin(x2)", XY)
        rng = np.random.default_rng(7)
        cols = rng.uniform(-3, 3, size=(2, 100))
        vec = eval_vec(e, cols)
        for k in range(100):
            assert abs(vec[k] - eval_point(e, cols[:, k])) < 1e-12

    def test_interval_eval_is_sound(self):
        e = parse_expr("x1^2 - x1*x2", XY)
        box = Box.from_pairs([(-1, 2), (0, 1)])
        enc = eval_interval(e, box)
        rng = np.random.default_rng(3)
        pts = rng.uniform(box.lo, box.hi, size=(500, 2))
        vals = pts[:, 0] ** 2 - pts[:, 0] * pts[:, 1]
        assert enc.lo <= vals.min() and vals.max() <= enc.hi

    def test_trig_of_saturated_box(self):
        e = parse_expr("sin(x1) + cos(x2)", XY)
        fmax = 1.7976931348623157e308
        inf = math.inf
        for box in (Box.from_pairs([(-fmax, fmax), (-fmax, -fmax)]),
                    Box.from_pairs([(-fmax, 0.0), (fmax, fmax)]),
                    Box.from_pairs([(-inf, inf), (-inf, -fmax)]),
                    Box.from_pairs([(0.0, inf), (fmax, inf)])):
            enc = eval_interval(e, box)
            assert -2.0 <= enc.lo <= enc.hi <= 2.0

    def test_exp_past_the_largest_float(self):
        # exp(710) is past the largest float, and so is half of it: both the
        # natural value and the Clarke partial reach inf
        e = parse_expr("0.5*exp(x1)", ["x1"])
        box = Box.from_pairs([(709.5, 710.0)])
        assert eval_interval(e, box).hi == math.inf
        assert clarke_jacobian_bounds([e], box)[0, 0].hi == math.inf

    def test_too_few_variables_is_dimension_mismatch(self):
        # as eval_interval does
        e = parse_expr("x1 + x2", XY)
        with pytest.raises(DimensionMismatch):
            eval_point(e, [1.0])
        with pytest.raises(DimensionMismatch):
            eval_vec(e, np.zeros((1, 3)))

    def test_overflow_yields_signed_infinity_not_error(self):
        e = parse_expr("exp(x1)^3", ["x1"])
        v = eval_point(e, [1e5])
        assert math.isinf(v) and v > 0


class TestClarkeBounds:
    def test_polynomial_anchor(self):
        e = parse_expr("x1^3 - 0.1*x1", ["x1"])
        jb = clarke_jacobian_bounds([e], Box.from_pairs([(-1, 3)]))
        entry = jb[(0, 0)]
        assert entry.lo == pytest.approx(-0.1)
        assert entry.hi == pytest.approx(26.9)

    def test_abs_straddle_gives_symmetric_bound(self):
        e = parse_expr("abs(x1)", ["x1"])
        entry = clarke_jacobian_bounds([e], Box.from_pairs([(-1, 2)]))[(0, 0)]
        assert entry.lo == -1.0 and entry.hi == 1.0

    def test_abs_sign_stable_when_positive(self):
        e = parse_expr("abs(x1)", ["x1"])
        entry = clarke_jacobian_bounds([e], Box.from_pairs([(1, 2)]))[(0, 0)]
        assert entry.lo == entry.hi == 1.0

    def test_min_branch_resolution(self):
        e = parse_expr("min(x1, 2 - x1)", ["x1"])
        entry = clarke_jacobian_bounds([e], Box.from_pairs([(3, 4)]))[(0, 0)]
        assert entry.lo == entry.hi == -1.0
        entry = clarke_jacobian_bounds([e], Box.from_pairs([(0, 3)]))[(0, 0)]
        assert entry.lo == -1.0 and entry.hi == 1.0

    def test_sqrt_one_sided_at_zero(self):
        e = parse_expr("sqrt(x1)", ["x1"])
        entry = clarke_jacobian_bounds([e], Box.from_pairs([(0, 4)]))[(0, 0)]
        assert entry.lo == 0.25
        assert not math.isfinite(entry.hi)
        assert entry.finite_both is False

    @pytest.mark.parametrize("text", ["x1 + x2", "sin(x2)", "x1*x2"])
    def test_box_too_narrow_raises(self, text):
        # as eval_interval does; x1 + x2 used to drop its x2 partial
        with pytest.raises(DimensionMismatch):
            clarke_jacobian_bounds([parse_expr(text, XY)], Box.from_pairs([(0, 1)]))

    def test_unbounded_both_sides_raises(self):
        e = parse_expr("sqrt(abs(x1))", ["x1"])
        with pytest.raises(UnboundedBothSides):
            clarke_jacobian_bounds([e], Box.from_pairs([(-1, 1)]))

    def test_quotient_past_the_largest_float_is_a_lower_end(self):
        # d/dx1 sqrt(1e300*x1) is 1e300 / [0, 2e-9]: its lower end 5e308
        # overflows and rounds to MAXF, where [inf, inf] has no real point
        e = parse_expr("sqrt(1e300*x1)", ["x1"])
        box = Box.from_pairs([(0.0, 1e-318)])
        assert clarke_jacobian_bounds([e], box)[0, 0] == Interval(1.7976931348623157e308, math.inf)

    def test_override_rescues_unbounded_entry(self):
        e = parse_expr("sqrt(abs(x1))", ["x1"])
        jb = clarke_jacobian_bounds(
            [e],
            Box.from_pairs([(-1, 1)]),
            overrides={(0, 0): Interval(-10.0, 10.0)},
        )
        assert jb[(0, 0)].lo == -10.0 and jb[(0, 0)].hi == 10.0

    def test_ten_term_cubic_rows(self):
        text = (
            "x1*x2*x3 + x1^2*x2 + x2^2*x3 + x3^2*x1 + x1^2*x3 + x3^2*x2"
            " + x2^2*x1 + x1^3 + x2^3 + x3^3"
        )
        e = parse_expr(text, ["x1", "x2", "x3"])
        jb = clarke_jacobian_bounds([e], Box.from_pairs([(-2, 2)] * 3))
        for j in range(3):
            assert jb[(0, j)].lo == pytest.approx(-20.0)
            assert jb[(0, j)].hi == pytest.approx(40.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_bounds_cover_finite_difference_slopes(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=2)
        try:
            jb = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        n = len(inst.box)
        pts = rng.uniform(inst.box.lo, inst.box.hi, size=(50, n))
        h = 1e-6
        for j in range(n):
            lo, hi = inst.box[j].lo, inst.box[j].hi
            for p in pts:
                a = p.copy()
                a[j] = min(max(a[j], lo + h), hi - h)
                b = a.copy()
                a[j] -= h
                b[j] += h
                slope = (eval_point(inst.expr, b) - eval_point(inst.expr, a)) / (2 * h)
                entry = jb[(0, j)]
                assert entry.lo - 1e-4 * (1 + abs(slope)) <= slope
                assert slope <= entry.hi + 1e-4 * (1 + abs(slope))


class TestClarkeInterval:
    def test_contains_and_flags(self):
        c = Interval(-1.0, math.inf)
        assert c.contains(100.0)
        assert not c.finite_both
        assert not c.unbounded_both
        assert Interval(-math.inf, math.inf).unbounded_both
