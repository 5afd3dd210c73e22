"""Supporting vectors, corner selection, and decomposition enclosures."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmono import (
    Box,
    Branch,
    JacobianBounds,
    SupportingVector,
    TimeSemantics,
    clarke_jacobian_bounds,
    eval_point,
    parse_expr,
    supporting_vectors,
    t_l_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from mixmono.decomp import CANDIDATE_CAP, corner_points
from mixmono.errors import (
    CandidateExplosion,
    InvertedBounds,
    MissingDiagonalValue,
    NotSignStable,
    UnboundedBothSides,
)
from mixmono.expr import ClarkeInterval

from conftest import box_subset, rand_instance


def decomposition_value(f_i, candidates, x, xhat, semantics, i,
                        diagonal_value=None) -> float:
    """min over candidates of the two-argument decomposition at (x, xhat).

    With x = box.hi and xhat = box.lo this is the row's upper bound; with the
    arguments swapped it is the lower bound up to the min/max dual.
    """
    best = math.inf
    for cand in candidates:
        zp, zm = corner_points(cand, x, xhat, semantics, i, diagonal_value)
        val = eval_point(f_i, zp) + math.fsum(
            m * (a - b) for m, a, b in zip(cand.m, zm, zp)
        )
        best = min(best, val)
    return best


class TestSupportingVectors:
    def test_sign_stable_entry_gives_two_branches(self):
        row = (ClarkeInterval(1.0, 3.0),)
        cands = supporting_vectors(row, TimeSemantics.DISCRETE, 0)
        values = sorted(c.m[0] for c in cands)
        assert values == [0.0, 3.0]

    def test_straddling_entry(self):
        row = (ClarkeInterval(-2.0, 5.0),)
        cands = supporting_vectors(row, TimeSemantics.DISCRETE, 0)
        assert sorted(c.m[0] for c in cands) == [-2.0, 5.0]

    def test_one_sided_infinite_entry_drops_that_branch(self):
        row = (ClarkeInterval(0.25, math.inf),)
        cands = supporting_vectors(row, TimeSemantics.DISCRETE, 0)
        assert [c.m[0] for c in cands] == [0.0]

    def test_two_sided_infinite_entry_rejected(self):
        row = (ClarkeInterval(-math.inf, math.inf),)
        with pytest.raises(UnboundedBothSides):
            supporting_vectors(row, TimeSemantics.DISCRETE, 0)

    def test_continuous_diagonal_is_pinned(self):
        row = (ClarkeInterval(-1.0, 1.0), ClarkeInterval(2.0, 3.0))
        cands = supporting_vectors(row, TimeSemantics.CONTINUOUS, 0)
        assert all(c.branches[0] is Branch.DIAGONAL for c in cands)
        assert len(cands) == 2

    def test_candidate_cap(self):
        row = tuple(ClarkeInterval(-1.0, 1.0) for _ in range(17))
        with pytest.raises(CandidateExplosion):
            supporting_vectors(row, TimeSemantics.DISCRETE, 0, cap=2**16)

    def test_cap_constant(self):
        assert CANDIDATE_CAP == 2**16


class TestCornerPoints:
    def test_branch_to_corner_mapping(self):
        cand = SupportingVector((2.0, -1.0), (Branch.UPPER, Branch.LOWER))
        a, b = (1.0, 1.0), (0.0, 0.0)
        zp, zm = corner_points(cand, a, b, TimeSemantics.DISCRETE, 0)
        assert zp == (0.0, 1.0)
        assert zm == (1.0, 0.0)

    def test_continuous_requires_diagonal_value(self):
        cand = SupportingVector((0.0,), (Branch.DIAGONAL,))
        with pytest.raises(MissingDiagonalValue):
            corner_points(cand, (1.0,), (0.0,), TimeSemantics.CONTINUOUS, 0)


class TestScalarAnchors:
    """Hand-checked cubic over an asymmetric domain."""

    def setup_method(self):
        self.expr = parse_expr("x1^3 - 0.1*x1", ["x1"])
        self.box = Box.from_pairs([(-1, 3)])
        self.jac = clarke_jacobian_bounds([self.expr], self.box)

    def test_remainder_enclosure(self):
        enc = t_r_inclusion([self.expr], self.jac, self.box)
        assert enc[0].lo == pytest.approx(-1.3)
        assert enc[0].hi == pytest.approx(27.1)

    def test_sign_selected_enclosure_matches_here(self):
        enc = t_l_inclusion([self.expr], self.jac, self.box)
        assert enc[0].lo == pytest.approx(-1.3)
        assert enc[0].hi == pytest.approx(27.1)

    def test_vertex_requires_sign_stability(self):
        with pytest.raises(NotSignStable) as exc:
            t_o_vertex_inclusion([self.expr], self.jac, self.box)
        assert exc.value.entries == [(0, 0)]

    def test_vertex_exact_on_sign_stable_subdomain(self):
        box = Box.from_pairs([(1, 3)])
        jac = clarke_jacobian_bounds([self.expr], box)
        enc = t_o_vertex_inclusion([self.expr], jac, box)
        assert enc[0].lo == pytest.approx(0.9)
        assert enc[0].hi == pytest.approx(26.7)

    def test_unsound_jacobian_raises_inverted_bounds(self):
        # d/dx1 of x1 is 1, not 0: the corners come out swapped
        jac = JacobianBounds(((ClarkeInterval(0.0, 0.0),),))
        with pytest.raises(InvertedBounds):
            t_r_inclusion([parse_expr("x1", ["x1"])], jac, Box.from_pairs([(0, 1)]))


class TestDecompositionFunction:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_diagonal_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=3)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        cands = supporting_vectors(jac.row(0), TimeSemantics.DISCRETE, 0)
        z = tuple(rng.uniform(inst.box.lo, inst.box.hi))
        d = decomposition_value(inst.expr, cands, z, z, TimeSemantics.DISCRETE, 0)
        assert d == pytest.approx(eval_point(inst.expr, z), abs=1e-12, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mixed_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=3)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        cands = supporting_vectors(jac.row(0), TimeSemantics.DISCRETE, 0)
        n = len(inst.box)
        lo, hi = np.asarray(inst.box.lo), np.asarray(inst.box.hi)
        for _ in range(25):
            xhat = rng.uniform(lo, hi)
            x = rng.uniform(xhat, hi)
            base = decomposition_value(
                inst.expr, cands, tuple(x), tuple(xhat), TimeSemantics.DISCRETE, 0
            )
            x_up = np.minimum(x + rng.uniform(0, 1, n) * (hi - x), hi)
            up = decomposition_value(
                inst.expr, cands, tuple(x_up), tuple(xhat), TimeSemantics.DISCRETE, 0
            )
            assert up >= base - 1e-9 * (1 + abs(base))
            xhat_up = np.minimum(xhat + rng.uniform(0, 1, n) * (x - xhat), x)
            down = decomposition_value(
                inst.expr, cands, tuple(x), tuple(xhat_up), TimeSemantics.DISCRETE, 0
            )
            assert down <= base + 1e-9 * (1 + abs(base))


class TestEnclosureOrdering:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_full_family_inside_sign_selected(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        tr = t_r_inclusion([inst.expr], jac, inst.box)
        tl = t_l_inclusion([inst.expr], jac, inst.box)
        assert box_subset(tr, tl, slack=1e-12)

    def test_vertex_inside_full_family_when_sign_stable(self):
        expr = parse_expr("x1^3 + 2*x1 + exp(0.5*x2)", ["x1", "x2"])
        box = Box.from_pairs([(0.5, 2), (-1, 1)])
        jac = clarke_jacobian_bounds([expr], box)
        to = t_o_vertex_inclusion([expr], jac, box)
        tr = t_r_inclusion([expr], jac, box)
        tl = t_l_inclusion([expr], jac, box)
        assert box_subset(to, tr)
        assert box_subset(tr, tl)
