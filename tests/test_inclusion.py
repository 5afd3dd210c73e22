"""Competing inclusion methods, error bounds, and subdivision."""

from __future__ import annotations

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
from mixmono.decomp import TimeSemantics
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
        eb = error_bounds(
            CUBIC, jac.row(0), CUBIC_BOX, TimeSemantics.DISCRETE, oracle[0], 0
        )
        assert eb.q_upper_hat == pytest.approx(0.4)
        assert eb.q_upper == pytest.approx(0.4)
        assert eb.q_lower_estimate == pytest.approx(0.4, abs=1e-2)

    def test_chain_holds(self):
        jac = clarke_jacobian_bounds([CUBIC], CUBIC_BOX)
        oracle = sampled_range([CUBIC], CUBIC_BOX, np.random.default_rng(0))
        eb = error_bounds(
            CUBIC, jac.row(0), CUBIC_BOX, TimeSemantics.DISCRETE, oracle[0], 0
        )
        assert eb.q_lower_estimate <= eb.q_upper + 1e-12
        assert eb.q_upper <= eb.q_upper_hat + 1e-12


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

    def test_cell_budget(self):
        exprs = [parse_expr("x1 + x2 + x3", ["x1", "x2", "x3"])]
        box = Box.from_pairs([(0, 1)] * 3)
        with pytest.raises(CellBudgetExceeded):
            subdivide_apply(NATURAL, exprs, None, box, k=101)
