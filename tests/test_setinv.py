"""Decomposition-based interval set inversion."""

from __future__ import annotations

import numpy as np
import pytest

from mixmono import (
    Box,
    InversionConfig,
    clarke_jacobian_bounds,
    eval_vec,
    parse_expr,
    set_invert,
)
from mixmono.errors import DimensionMismatch, EmptySolution, ValidationError

from conftest import box_subset


def invert(texts, variables, prior, y_lo, y_hi, **kw):
    exprs = [parse_expr(t, variables) for t in texts]
    jac = clarke_jacobian_bounds(exprs, prior)
    return set_invert(exprs, jac, prior, y_lo, y_hi, InversionConfig(**kw))


class TestFixtures:
    def test_identity_map(self):
        out = invert(["x1"], ["x1"], Box.from_pairs([(0, 10)]), [2.0], [3.0])
        assert out[0].lo == pytest.approx(2.0, abs=2e-3)
        assert out[0].hi == pytest.approx(3.0, abs=2e-3)

    def test_sum_map(self):
        out = invert(
            ["x1 + x2"],
            ["x1", "x2"],
            Box.from_pairs([(0, 1), (0, 1)]),
            [1.5],
            [2.0],
        )
        for i in range(2):
            assert out[i].lo == pytest.approx(0.5, abs=2e-3)
            assert out[i].hi == pytest.approx(1.0, abs=2e-3)

    def test_empty_solution(self):
        with pytest.raises(EmptySolution):
            invert(["x1"], ["x1"], Box.from_pairs([(0, 1)]), [5.0], [6.0])

    def test_interior_set_cannot_shrink_edges(self):
        # the unit circle touches no face-slab exclusively, so edge bisection
        # soundly returns the full prior
        out = invert(
            ["x1^2 + x2^2"],
            ["x1", "x2"],
            Box.from_pairs([(-2, 2), (-2, 2)]),
            [1.0],
            [1.0],
        )
        assert out == Box.from_pairs([(-2, 2), (-2, 2)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValidationError):
            InversionConfig(epsilon=0.0)
        with pytest.raises(ValidationError):
            InversionConfig(passes=0)

    def test_bound_length_mismatch(self):
        e = [parse_expr("x1", ["x1"])]
        prior = Box.from_pairs([(0, 1)])
        jac = clarke_jacobian_bounds(e, prior)
        with pytest.raises(DimensionMismatch):
            set_invert(e, jac, prior, [0.0, 1.0], [1.0])

    def test_inverted_constraint_bounds(self):
        with pytest.raises(ValidationError):
            invert(["x1"], ["x1"], Box.from_pairs([(0, 1)]), [1.0], [0.0])

    def test_more_passes_never_looser(self):
        prior = Box.from_pairs([(-2, 2), (-2, 2)])
        one = invert(
            ["x1 + x2", "x1 - x2"], ["x1", "x2"], prior, [0.0, 0.0], [0.5, 0.5],
            passes=1,
        )
        three = invert(
            ["x1 + x2", "x1 - x2"], ["x1", "x2"], prior, [0.0, 0.0], [0.5, 0.5],
            passes=3,
        )
        assert box_subset(three, one, slack=1e-12)

    def test_tiny_epsilon_terminates(self):
        # requested resolution below float spacing must not loop forever
        out = invert(
            ["x1"], ["x1"], Box.from_pairs([(1e12, 3e12)]),
            [1.5e12], [2.5e12], epsilon=1e-9,
        )
        assert out[0].lo <= 1.5e12 <= 2.5e12 <= out[0].hi


class TestSandwich:
    def test_output_keeps_all_consistent_grid_points(self, rng):
        texts = ["sin(x1) + x2^2", "x1 - abs(x2)"]
        prior = Box.from_pairs([(-2, 2), (-1.5, 1.5)])
        y_lo, y_hi = [0.0, -1.0], [1.0, 1.0]
        out = invert(texts, ["x1", "x2"], prior, y_lo, y_hi)
        assert box_subset(out, prior)
        g1 = np.linspace(prior[0].lo, prior[0].hi, 60)
        g2 = np.linspace(prior[1].lo, prior[1].hi, 60)
        pts = np.array(np.meshgrid(g1, g2)).reshape(2, -1)
        exprs = [parse_expr(t, ["x1", "x2"]) for t in texts]
        vals = np.stack([eval_vec(e, pts) for e in exprs])
        ok = np.all(
            (vals >= np.asarray(y_lo)[:, None]) & (vals <= np.asarray(y_hi)[:, None]),
            axis=0,
        )
        assert ok.any()
        lo = np.asarray(out.lo)[:, None] - 1e-9
        hi = np.asarray(out.hi)[:, None] + 1e-9
        inside = np.all((pts >= lo) & (pts <= hi), axis=0)
        assert np.all(inside[ok])
