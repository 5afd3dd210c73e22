"""Decomposition-based interval set inversion."""

from __future__ import annotations

import numpy as np
import pytest

import mixmono.setinv
from mixmono import (
    NATURAL,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    Interval,
    InversionConfig,
    apply_method,
    best_of_method,
    clarke_jacobian_bounds,
    eval_vec,
    parse_expr,
    set_invert,
)
from mixmono.errors import (
    DimensionMismatch,
    DomainError,
    EmptySolution,
    InvertedBounds,
    ValidationError,
)
from mixmono.expr import Const

from conftest import ALL_METHODS, box_subset


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
        with pytest.raises(ValidationError):
            InversionConfig(passes=1.5)
        assert InversionConfig(passes=np.int64(2)).passes == 2

    def test_shape_mismatch_is_dimension_mismatch(self):
        e = [parse_expr("x1 + x2", ["x1", "x2"])]
        prior = Box.from_pairs([(0, 1), (0, 1)])
        jac = clarke_jacobian_bounds(e, prior)
        # a prior with fewer dimensions than the constraint reads
        with pytest.raises(DimensionMismatch):
            set_invert(e, jac, Box.from_pairs([(0, 1)]), [0.5], [1.0])
        # Jacobian bounds with fewer rows than outputs, or other columns
        two = e + [parse_expr("x1", ["x1", "x2"])]
        with pytest.raises(DimensionMismatch):
            set_invert(two, jac, prior, [0.5, 0.0], [1.0, 1.0])
        wide = clarke_jacobian_bounds(e, Box.from_pairs([(0, 1)] * 3))
        with pytest.raises(DimensionMismatch):
            set_invert(e, wide, prior, [0.5], [1.0])

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


def reference_invert(nu, jac, prior, y_lo, y_hi, cfg):
    """set_invert with every probe a Box through apply_method, the sweep as
    it was before it bisected on float ends."""
    provider = lambda _box: jac

    def ruled_out(box):
        enc = apply_method(cfg.method, nu, box, provider)
        return any(enc[r].hi < y_lo[r] or enc[r].lo > y_hi[r] for r in range(len(nu)))

    if ruled_out(prior):
        raise EmptySolution("the full prior box is inconsistent with the constraint")
    current = prior
    for _ in range(cfg.passes):
        for i in range(len(prior)):
            d = current[i]
            a, b = d.lo, d.hi
            while b - a > cfg.epsilon:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break
                if ruled_out(current.replace(i, Interval(a, m))):
                    a = m
                else:
                    b = m
            new_lo = a
            a, b = new_lo, d.hi
            while b - a > cfg.epsilon:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break
                if ruled_out(current.replace(i, Interval(m, b))):
                    b = m
                else:
                    a = m
            current = current.replace(i, Interval(new_lo, b))
    return current


def outcome(fn, *args):
    """The box's ends as hex strings, or the error's type and message."""
    try:
        box = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return [x.hex() for d in box for x in (d.lo, d.hi)]


X2 = ["x1", "x2"]
PROBLEMS = [
    # a kinked two-output map that no engine makes sign-stable
    (["sin(x1) + x2^2", "x1 - abs(x2)"], [(-2, 2), (-1.5, 1.5)], [0.0, -1.0], [1.0, 1.0], {}),
    # sign-stable rows, so every engine applies and the edges move
    (["x1 + 2*x2", "exp(x1) - x2"], [(0, 1), (0.5, 2)], [1.5, 0.2], [2.5, 1.5], {}),
    # not monotone: a probe's image depends on both of its ends
    (["sin(3*x1)", "x2*x2"], [(0, 3), (-1, 1)], [0.9, 0.0], [1.0, 0.25], {}),
    # a degenerate dimension, and one narrower than epsilon
    (["x1*x2 + x2"], [(0.25, 0.25), (0.5, 2)], [0.7], [0.9], {}),
    (["x1 + x2"], [(0.1, 0.1004), (0, 3)], [1.0], [2.0], {}),
    # no point of the prior meets the target: EmptySolution
    (["x1 + x2"], [(0, 1), (0, 1)], [5.0], [6.0], {}),
    # an unsound override (d/dx1 of x1 is 1, not 0): InvertedBounds
    (["x1 + 0*x2"], [(0, 1), (0, 1)], [0.2], [0.4], {(0, 0): Interval(0.0, 0.0)}),
    # a corner that divides by zero: DomainError
    (["1/x1 + x2"], [(0, 1), (0, 1)], [1.5], [3.0], {}),
]


@pytest.mark.parametrize("passes", [1, 2])
@pytest.mark.parametrize("method", [m for _, m in ALL_METHODS]
                         + [best_of_method([REMAINDER, NATURAL])], ids=str)
@pytest.mark.parametrize("problem", range(len(PROBLEMS)))
def test_float_probes_match_box_probes(problem, method, passes):
    texts, pairs, y_lo, y_hi, overrides = PROBLEMS[problem]
    nu = [parse_expr(t, X2) for t in texts]
    prior = Box.from_pairs(pairs)
    jac = clarke_jacobian_bounds(nu, prior, overrides)
    cfg = InversionConfig(epsilon=1e-3, passes=passes, method=method)
    args = (nu, jac, prior, y_lo, y_hi, cfg)
    assert outcome(set_invert, *args) == outcome(reference_invert, *args)


def test_expected_outcomes_of_the_probe_problems():
    # the error cases above raise what they are there for
    kinds = []
    for texts, pairs, y_lo, y_hi, overrides in PROBLEMS[-3:]:
        nu = [parse_expr(t, X2) for t in texts]
        prior = Box.from_pairs(pairs)
        jac = clarke_jacobian_bounds(nu, prior, overrides)
        got = outcome(set_invert, nu, jac, prior, y_lo, y_hi, InversionConfig())
        kinds.append(got[0])
    assert kinds == [EmptySolution, InvertedBounds, DomainError]


def test_decomposition_probes_bypass_apply_method(monkeypatch):
    calls = []
    real = mixmono.setinv.apply_method
    monkeypatch.setattr(mixmono.setinv, "apply_method",
                        lambda *args: calls.append(args[0]) or real(*args))
    prior = Box.from_pairs([(-2, 2), (-1.5, 1.5)])
    for method in (REMAINDER, NATURAL):
        invert(["sin(x1) + x2^2"], X2, prior, [0.0], [1.0], method=method)
    assert calls and set(calls) == {NATURAL}


def test_zero_dimensional_prior():
    nu, prior = [Const(2.5)], Box([])
    jac = clarke_jacobian_bounds(nu, prior)
    assert apply_method(REMAINDER, nu, prior) == Box.from_pairs([(2.5, 2.5)])
    for method in (REMAINDER, TIGHT_VERTEX, NATURAL):
        cfg = InversionConfig(method=method)
        assert set_invert(nu, jac, prior, [2.0], [3.0], cfg) == prior
        with pytest.raises(EmptySolution):
            set_invert(nu, jac, prior, [3.0], [4.0], cfg)
