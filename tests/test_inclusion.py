"""Competing inclusion methods, error bounds, and subdivision."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmono import (
    CENTERED,
    JACOBIAN_SIGN,
    MIXED_CENTERED,
    NATURAL,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    Interval,
    MethodId,
    apply_method,
    best_of,
    best_of_method,
    clarke_jacobian_bounds,
    default_jac_provider,
    error_bounds,
    hausdorff_q,
    parse_expr,
    sampled_range,
    subdivide_apply,
    t_c_inclusion,
    t_m_inclusion,
    t_n_inclusion,
)
from mixmono import decomp
from mixmono.inclusion import subdivide_box
from mixmono.errors import (
    CellBudgetExceeded,
    EmptyIntersection,
    InfiniteJacobianEntry,
    ValidationError,
)

from conftest import applicable_methods, box_subset, rand_instance, sample_points

X = ["x1"]
CUBIC = parse_expr("x1^3 - 0.1*x1", X)
CUBIC_BOX = Box.from_pairs([(-1, 3)])


class TestIndividualMethods:
    def test_natural_cubic(self):
        enc = t_n_inclusion([CUBIC], CUBIC_BOX)
        assert enc[0].lo == pytest.approx(-1.3)
        assert enc[0].hi == pytest.approx(27.1)

    def test_centered_cubic(self):
        jac = clarke_jacobian_bounds([CUBIC], CUBIC_BOX)
        enc = t_c_inclusion([CUBIC], jac, CUBIC_BOX)
        assert enc[0].lo == pytest.approx(-52.9)
        assert enc[0].hi == pytest.approx(54.7)

    def test_mixed_centered_refines_centered_in_2d(self):
        exprs = [parse_expr("x1*x2 + x1^2", ["x1", "x2"])]
        box = Box.from_pairs([(-1, 1), (0, 2)])
        jac_c = clarke_jacobian_bounds(exprs, box)
        tc = t_c_inclusion(exprs, jac_c, box)
        tm = t_m_inclusion(exprs, default_jac_provider(exprs), box)
        oracle = sampled_range(exprs, box, np.random.default_rng(0), n_samples=20_000)
        assert box_subset(oracle, tm, slack=1e-9)
        assert tm[0].width <= tc[0].width + 1e-12

    def test_mixed_centered_shares_only_bit_identical_sub_boxes(self):
        # x2 = [-0, -0] is its midpoint, so sub-box 1 is sub-box 0; x3 =
        # [0, -0] has the midpoint 0.0, whose sign differs from its upper
        # end, and x4 = [2, 2] is its midpoint again
        exprs = [parse_expr("x1*x2 + x3*x4 + x1*x3", ["x1", "x2", "x3", "x4"])]
        box = Box.from_pairs([(-1, 1), (-0.0, -0.0), (0.0, -0.0), (2, 2)])
        seen = []

        def provider(sub):
            seen.append(tuple((d.lo, d.hi, math.copysign(1.0, d.hi)) for d in sub))
            return clarke_jacobian_bounds(exprs, sub)

        t_m_inclusion(exprs, provider, box)
        assert seen == [((-1.0, 1.0, 1.0), (-0.0, -0.0, -1.0), (0.0, 0.0, 1.0), (2.0, 2.0, 1.0)),
                        ((-1.0, 1.0, 1.0), (-0.0, -0.0, -1.0), (0.0, -0.0, -1.0), (2.0, 2.0, 1.0))]

    def test_centered_nan_midpoint_value_gives_the_whole_line(self):
        # the slope bounds are finite, but both products are past the
        # largest float at the midpoint, where inf - inf is NaN
        e = parse_expr("1e300*x1*x1 - 1e300*x1*x1", X)
        box = Box.from_pairs([(1e5, 2e5)])
        jac = clarke_jacobian_bounds([e], box)
        assert jac[0, 0].finite_both
        assert t_c_inclusion([e], jac, box)[0] == Interval(-math.inf, math.inf)

    def test_centered_needs_finite_jacobian(self):
        e = parse_expr("sqrt(x1)", X)
        box = Box.from_pairs([(0, 4)])
        jac = clarke_jacobian_bounds([e], box)
        with pytest.raises(InfiniteJacobianEntry):
            t_c_inclusion([e], jac, box)


class TestApplyMethodAndBestOf:
    def test_method_names_are_stable(self):
        assert NATURAL.kind == "natural"
        assert REMAINDER.kind == "remainder"
        assert TIGHT_VERTEX.kind == "tight_vertex"

    def test_best_of_requires_members(self):
        with pytest.raises(ValueError):
            MethodId("best_of", ())
        with pytest.raises(ValueError):
            MethodId("best_of", (best_of_method([NATURAL]),))

    def test_best_of_intersects_componentwise(self):
        a = Box.from_pairs([(0, 3), (0, 5)])
        b = Box.from_pairs([(1, 4), (-1, 2)])
        assert best_of([a, b]) == Box.from_pairs([(1, 3), (0, 2)])

    def test_best_of_disjoint_raises(self):
        with pytest.raises(EmptyIntersection):
            best_of([Box.from_pairs([(0, 1)]), Box.from_pairs([(2, 3)])])

    def test_best_of_method_tighter_than_members(self):
        method = best_of_method([NATURAL, CENTERED, REMAINDER])
        combined = apply_method(method, [CUBIC], CUBIC_BOX)
        for member in (NATURAL, CENTERED, REMAINDER):
            enc = apply_method(member, [CUBIC], CUBIC_BOX)
            assert box_subset(combined, enc, slack=1e-12)

    def test_best_of_members_share_each_jacobian(self):
        f = [parse_expr("x1*x2 - abs(x1)^2", ["x1", "x2"])]
        box = Box.from_pairs([(-1, 2), (0, 1)])
        provider = default_jac_provider(f)
        boxes = []

        def counting(b):
            boxes.append(b)
            return provider(b)

        members = [CENTERED, MIXED_CENTERED, JACOBIAN_SIGN, REMAINDER]
        combined = apply_method(best_of_method(members), f, box, counting)
        # one Jacobian per distinct box: the full box, and the sub-box of
        # mixed_centered that pins x2 at its midpoint
        assert len(boxes) == len(set(boxes)) == 2
        assert combined == best_of([apply_method(m, f, box) for m in members])

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_all_methods_sound_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng)
        results = applicable_methods([inst.expr], inst.box)
        assert any(name == "natural" for name, _, _ in results)
        cols = sample_points(rng, inst.box, 2_000)
        from mixmono import eval_vec

        vals = eval_vec(inst.expr, cols)
        lo, hi = float(vals.min()), float(vals.max())
        for name, _, enc in results:
            assert enc[0].lo <= lo + 1e-9 * (1 + abs(lo)), name
            assert hi - 1e-9 * (1 + abs(hi)) <= enc[0].hi, name

    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_inclusion_monotone_in_the_domain(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=2)
        # shrink each dimension toward the middle
        inner = Box.from_bounds(
            [d.lo + 0.25 * d.width for d in inst.box],
            [d.hi - 0.25 * d.width for d in inst.box],
        )
        for name, method, enc in applicable_methods([inst.expr], inst.box):
            if name == "tight_vertex":
                continue  # sign stability may not transfer between the boxes
            try:
                enc_inner = apply_method(method, [inst.expr], inner)
            except Exception:
                continue
            assert box_subset(enc_inner, enc, slack=1e-9), name


class TestErrorBounds:
    def test_cubic_anchor_all_bounds(self):
        jac = clarke_jacobian_bounds([CUBIC], CUBIC_BOX)
        oracle = sampled_range([CUBIC], CUBIC_BOX, np.random.default_rng(0))
        eb = error_bounds(CUBIC, jac.row(0), CUBIC_BOX, oracle[0])
        assert eb.q_upper_hat == pytest.approx(0.4)
        assert eb.q_upper == pytest.approx(0.4)
        assert eb.q_lower_estimate == pytest.approx(0.4, abs=1e-2)

    def test_chain_holds(self):
        jac = clarke_jacobian_bounds([CUBIC], CUBIC_BOX)
        oracle = sampled_range([CUBIC], CUBIC_BOX, np.random.default_rng(0))
        eb = error_bounds(CUBIC, jac.row(0), CUBIC_BOX, oracle[0])
        assert eb.q_lower_estimate <= eb.q_upper + 1e-12
        assert eb.q_upper <= eb.q_upper_hat + 1e-12

    def test_one_candidate_build(self, monkeypatch):
        # the bounds and the remainder-form estimate share one build of the
        # row's candidates
        builds = []

        class Counted(decomp.RowCandidates):
            def __init__(self, choices, *args, **kwargs):
                builds.append(choices)
                super().__init__(choices, *args, **kwargs)

        monkeypatch.setattr(decomp, "RowCandidates", Counted)
        jac = clarke_jacobian_bounds([CUBIC], CUBIC_BOX)
        oracle = sampled_range([CUBIC], CUBIC_BOX, np.random.default_rng(0))
        error_bounds(CUBIC, jac.row(0), CUBIC_BOX, oracle[0])
        assert len(builds) == 1

    def test_overflowing_slope_sum(self):
        # the candidates with slope 1e298 in x1 and x2 sum to more than the
        # largest float; the abs(x3) candidates still give a finite gap of 2
        f = parse_expr("1e298*x1 + 1e298*x2 + abs(x3)", ["x1", "x2", "x3"])
        box = Box.from_pairs([(0, 1e10), (0, 1e10), (-1, 1)])
        eb = error_bounds(f, clarke_jacobian_bounds([f], box).row(0), box)
        assert eb.q_upper_hat == eb.q_upper == 2.0

    def test_estimate_past_the_largest_float(self):
        # the enclosure [0, inf] reaches inf like the oracle, and equal
        # infinite ends are 0 apart, so the estimate compares lower
        # endpoints and stays below q_upper
        f = parse_expr("1e298*x1 + 1e298*x2 + abs(x3)", ["x1", "x2", "x3"])
        box = Box.from_pairs([(0, 1e10), (0, 1e10), (-1, 1)])
        oracle = Interval(0.5, math.inf)
        eb = error_bounds(f, clarke_jacobian_bounds([f], box).row(0), box, oracle)
        assert eb.q_lower_estimate == 0.5
        assert eb.q_lower_estimate <= eb.q_upper == 2.0


class TestSampledRange:
    def test_inner_estimate_inside_truth(self):
        e = parse_expr("sin(x1) + 0.5*x1", X)
        box = Box.from_pairs([(-2, 2)])
        inner = sampled_range([e], box, np.random.default_rng(1), n_samples=50_000)
        enc = t_n_inclusion([e], box)
        assert box_subset(inner, enc, slack=1e-9)

    def test_deterministic_under_seed(self):
        e = parse_expr("x1^2", X)
        box = Box.from_pairs([(-1, 2)])
        a = sampled_range([e], box, np.random.default_rng(42))
        b = sampled_range([e], box, np.random.default_rng(42))
        assert a == b

    def test_infinite_width_is_validation_error(self):
        # each endpoint is finite, the width 2e308 is not
        with pytest.raises(ValidationError):
            sampled_range([parse_expr("x1", X)], Box.from_pairs([(-1e308, 1e308)]))

    def test_samples_past_the_largest_float_are_skipped(self):
        # exp overflows above 709.78: those samples are no real inner point
        e = parse_expr("exp(x1)", X)
        inner = sampled_range([e], Box.from_pairs([(700, 800)]), n_samples=1000)[0]
        assert math.exp(700) <= inner.lo <= inner.hi < math.inf
        with pytest.raises(ValidationError):
            sampled_range([e], Box.from_pairs([(800, 900)]), n_samples=1000)
        # inf - inf is NaN at every sample
        with pytest.raises(ValidationError):
            sampled_range([parse_expr("exp(x1) - exp(x1)", X)], Box.from_pairs([(800, 900)]))


class TestSubdivision:
    def test_cell_count_and_hull(self):
        cells, encs, hull = subdivide_apply(
            REMAINDER, [CUBIC], default_jac_provider([CUBIC]), CUBIC_BOX, k=4
        )
        assert len(cells) == 4
        assert len(encs) == 4
        for enc in encs:
            assert box_subset(enc, hull)

    def test_subdivision_tightens_the_hull(self):
        provider = default_jac_provider([CUBIC])
        _, _, hull1 = subdivide_apply(REMAINDER, [CUBIC], provider, CUBIC_BOX, k=1)
        _, _, hull8 = subdivide_apply(REMAINDER, [CUBIC], provider, CUBIC_BOX, k=8)
        assert box_subset(hull8, hull1, slack=1e-12)
        oracle = sampled_range([CUBIC], CUBIC_BOX, np.random.default_rng(0))
        assert hausdorff_q(hull8, oracle) < hausdorff_q(hull1, oracle)

    def test_huge_box_edges(self):
        # the width 2.5e308 overflows; the edges do not
        cells = subdivide_box(Box.from_pairs([(-1e308, 1.5e308)]), 4)
        edges = [c[0].lo for c in cells] + [cells[-1][0].hi]
        assert edges == pytest.approx([-1e308, -3.75e307, 2.5e307, 8.75e307, 1.5e308], rel=1e-15)
        assert edges[0] == -1e308 and edges[-1] == 1.5e308 and edges == sorted(edges)

    @pytest.mark.parametrize("pairs", [[(0.0, math.inf)], [(-math.inf, 0.0), (0, 1)]])
    def test_unbounded_box_is_validation_error(self, pairs):
        with pytest.raises(ValidationError):
            subdivide_box(Box.from_pairs(pairs), 2)

    def test_cell_budget(self):
        exprs = [parse_expr("x1 + x2 + x3", ["x1", "x2", "x3"])]
        box = Box.from_pairs([(0, 1)] * 3)
        with pytest.raises(CellBudgetExceeded):
            subdivide_apply(NATURAL, exprs, None, box, k=101)
