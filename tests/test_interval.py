"""Interval and Box arithmetic."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmono import Box, Interval, hausdorff_q
from mixmono.errors import DimensionMismatch, DivisionByZeroInterval, DomainError
from mixmono.interval import (
    hausdorff_q_interval,
    iabs,
    iarctan,
    icos,
    iexp,
    imax,
    imin,
    ipow,
    isin,
    isqrt,
    saturate,
)

FMAX = sys.float_info.max

finite = st.floats(
    min_value=-1e8, max_value=1e8, allow_nan=False, allow_infinity=False
)


def ivl(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


class TestIntervalBasics:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            Interval(math.nan, 1.0)

    def test_infinite_endpoints_saturate(self):
        v = Interval(-math.inf, math.inf)
        assert v.lo == -FMAX and v.hi == FMAX

    def test_saturate_helper(self):
        assert saturate(math.inf, upper=True) == FMAX
        assert saturate(-math.inf, upper=False) == -FMAX
        assert saturate(3.5, upper=True) == 3.5

    def test_width_and_midpoint(self):
        v = Interval(-1.0, 3.0)
        assert v.width == 4.0
        assert v.mid == 1.0

    def test_contains(self):
        assert Interval(1.0, 3.0).contains(2.0)
        assert not Interval(1.0, 3.0).contains(0.5)
        assert Interval(1.0, 3.0).contains(3.001, tol=0.01)


class TestIntervalArithmetic:
    @given(finite, finite, finite, finite)
    @settings(max_examples=200, deadline=None)
    def test_add_sound(self, a, b, c, d):
        u, v = ivl(a, b), ivl(c, d)
        s = u + v
        assert s.lo <= a + c <= s.hi
        assert s.lo <= b + d <= s.hi

    @given(finite, finite, finite, finite, st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_mul_sound(self, a, b, c, d, ta, tb):
        u, v = ivl(a, b), ivl(c, d)
        # the interpolation can round to a point just outside its interval
        x = min(max(u.lo + ta * (u.hi - u.lo), u.lo), u.hi)
        y = min(max(v.lo + tb * (v.hi - v.lo), v.lo), v.hi)
        p = u * v
        assert p.lo <= x * y <= p.hi

    def test_sub_and_neg(self):
        u = Interval(1.0, 2.0)
        v = Interval(-1.0, 4.0)
        assert (u - v) == Interval(-3.0, 3.0)
        assert -u == Interval(-2.0, -1.0)

    def test_division_by_zero_interval(self):
        with pytest.raises(DivisionByZeroInterval):
            Interval(1.0, 2.0) / Interval(-1.0, 1.0)

    def test_division(self):
        q = Interval(1.0, 2.0) / Interval(2.0, 4.0)
        assert q.lo == 0.25 and q.hi == 1.0


class TestElementary:
    def test_even_power_spanning_zero_starts_at_zero(self):
        assert ipow(Interval(-2.0, 3.0), 2) == Interval(0.0, 9.0)

    def test_odd_power_monotone(self):
        assert ipow(Interval(-2.0, 3.0), 3) == Interval(-8.0, 27.0)

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            isqrt(Interval(-1.0, 1.0))
        v = isqrt(Interval(4.0, 9.0))
        assert v.lo == 2.0 and v.hi == 3.0

    def test_exp_overflow_saturates(self):
        v = iexp(Interval(0.0, 1e6))
        assert v.hi == FMAX

    def test_arctan_anchor(self):
        v = iarctan(Interval(4.0, 8.0))
        assert abs(v.lo - 1.32582) < 1e-5
        assert abs(v.hi - 1.44644) < 1e-5

    def test_abs_spanning(self):
        assert iabs(Interval(-3.0, 2.0)) == Interval(0.0, 3.0)

    def test_min_max(self):
        u, v = Interval(0.0, 2.0), Interval(1.0, 3.0)
        assert imin(u, v) == Interval(0.0, 2.0)
        assert imax(u, v) == Interval(1.0, 3.0)

    def test_sin_crest_detection(self):
        v = isin(Interval(0.0, math.pi))
        assert v.hi == 1.0
        assert abs(v.lo) < 1e-15

    def test_cos_full_period(self):
        v = icos(Interval(0.0, 7.0))
        assert v == Interval(-1.0, 1.0)

    @given(finite.filter(lambda x: abs(x) < 50), finite.filter(lambda x: abs(x) < 50),
           st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_sin_sound(self, a, b, t):
        u = ivl(a, b)
        x = u.lo + t * (u.hi - u.lo)
        v = isin(u)
        assert v.lo - 1e-12 <= math.sin(x) <= v.hi + 1e-12


class TestBox:
    def test_from_bounds_and_accessors(self):
        b = Box.from_bounds([0.0, -1.0], [1.0, 2.0])
        assert b.lo == (0.0, -1.0)
        assert b.hi == (1.0, 2.0)
        assert b.widths() == (1.0, 3.0)
        assert b.midpoint() == (0.5, 0.5)

    def test_mismatched_bounds(self):
        with pytest.raises(DimensionMismatch):
            Box.from_bounds([0.0], [1.0, 2.0])

    def test_concat(self):
        b = Box.from_pairs([(0, 1)]).concat(Box.from_pairs([(2, 3)]))
        assert len(b) == 2
        assert b[1] == Interval(2.0, 3.0)

    def test_contains(self):
        b = Box.from_pairs([(0, 1), (0, 1)])
        assert b.contains_point((0.5, 1.0))
        assert not b.contains_point((0.5, 1.5))
        assert b.contains_box(Box.from_pairs([(0.2, 0.8), (0.0, 1.0)]))

    def test_intersect_hull(self):
        a = Box.from_pairs([(0, 2)])
        b = Box.from_pairs([(1, 3)])
        assert a.intersect(b) == Box.from_pairs([(1, 2)])
        assert a.hull(b) == Box.from_pairs([(0, 3)])

    def test_bisect(self):
        left, right = Box.from_pairs([(0, 4), (0, 1)]).bisect(0)
        assert left[0] == Interval(0.0, 2.0)
        assert right[0] == Interval(2.0, 4.0)
        assert left[1] == right[1] == Interval(0.0, 1.0)

    def test_vertices(self):
        vs = list(Box.from_pairs([(0, 1), (2, 3)]).vertices())
        assert len(vs) == 4
        assert (0.0, 2.0) in vs and (1.0, 3.0) in vs

    def test_point_box(self):
        b = Box.point([1.0, 2.0])
        assert b.widths() == (0.0, 0.0)


class TestHausdorff:
    def test_interval_metric(self):
        assert hausdorff_q_interval(Interval(0, 2), Interval(0, 2)) == 0.0
        assert hausdorff_q_interval(Interval(0, 3), Interval(1, 2)) == 1.0

    def test_box_metric_is_max_over_dims(self):
        a = Box.from_pairs([(0, 3), (0, 2)])
        b = Box.from_pairs([(1, 2), (0, 2)])
        assert hausdorff_q(a, b) == 1.0

    @given(st.lists(finite, min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, vals):
        a = Box([ivl(vals[0], vals[1])])
        b = Box([ivl(vals[2], vals[3])])
        c = Box([ivl(vals[0], vals[3])])
        assert hausdorff_q(a, a) == 0.0
        assert hausdorff_q(a, b) == hausdorff_q(b, a) >= 0.0
        lhs = hausdorff_q(a, b)
        assert lhs <= hausdorff_q(a, c) + hausdorff_q(c, b) + 1e-9
