"""Interval and Box arithmetic."""

from __future__ import annotations

import copy
import hashlib
import itertools
import math
import operator
import pickle
import struct
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixmono import NATURAL, Box, Interval, hausdorff_q, load_bundled, reach_tube
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
    outward,
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
        # ends lie in the extended reals and stay as they are
        v = Interval(-math.inf, math.inf)
        assert v.lo == -math.inf and v.hi == math.inf
        assert v.unbounded_both and not v.finite_both
        assert Interval(-FMAX, FMAX).finite_both

    @pytest.mark.parametrize("lo,hi", [(math.inf, math.inf), (-math.inf, -math.inf),
                                       (math.nan, math.inf), (-math.inf, math.nan),
                                       (1.0, math.nan), (2.0, 1.0)])
    def test_empty_and_nan_rejected(self, lo, hi):
        with pytest.raises(DomainError) as caught:
            Interval(lo, hi)
        assert str(caught.value) == f"interval ends are NaN, inverted or empty: [{lo}, {hi}]"

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_point_rejects_what_the_constructor_rejects(self, x):
        with pytest.raises(DomainError) as caught:
            Interval.point(x)
        assert str(caught.value) == f"interval ends are NaN, inverted or empty: [{x}, {x}]"

    def test_frozen_equality_hash_and_repr(self):
        v = Interval(-0.0, 2.5)
        with pytest.raises(FrozenInstanceError):
            v.lo = 1.0
        assert v == Interval(0.0, 2.5) and v != Interval(0.0, 3.0) and v != (0.0, 2.5)
        assert hash(v) == hash(Interval(0.0, 2.5)) == hash((0.0, 2.5))
        assert repr(v) == "[-0, 2.5]" and repr(Interval.point(1e300)) == "[1e+300, 1e+300]"

    def test_slotted(self):
        # an interval holds its two ends and no instance dict
        assert Interval.__slots__ == ("lo", "hi") and not hasattr(Interval(1.0, 2.0), "__dict__")

    def test_overflow_rule(self):
        # a finite overflow rounds outward; an end on its own side stays
        inf = math.inf
        assert outward(inf, inf) == (FMAX, inf)
        assert outward(-inf, -inf) == (-inf, -FMAX)
        assert outward(-inf, inf) == (-inf, inf)
        assert outward(-FMAX, FMAX) == (-FMAX, FMAX)
        assert outward(1.5, 2.5) == (1.5, 2.5)

    @pytest.mark.parametrize("lo,hi,mid", [
        (-1.0, 3.0, 1.0), (1e308, 1.5e308, 1.25e308), (-1.5e308, -1e308, -1.25e308),
        (-FMAX, FMAX, 0.0), (-math.inf, math.inf, 0.0), (-math.inf, 5.0, -FMAX),
        (5.0, math.inf, FMAX), (FMAX, math.inf, FMAX),
    ])
    def test_midpoint_never_overflows(self, lo, hi, mid):
        v = Interval(lo, hi)
        assert v.mid == mid and v.contains(v.mid)
        left, right = Box([v]).bisect(0)
        assert left[0].lo == lo and left[0].hi == right[0].lo and right[0].hi == hi

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

    def test_zero_times_the_whole_line_is_zero(self):
        # IEEE 1788's set-based model: [0, 0] * [-inf, inf] = [0, 0]
        line = Interval(-math.inf, math.inf)
        for zero in (Interval(0.0, 0.0), Interval(-0.0, -0.0)):
            assert zero * line == line * zero == Interval(0.0, 0.0)
        assert Interval(0.0, 1.0) * Interval(2.0, math.inf) == Interval(0.0, math.inf)
        assert line.scale(0.0) == Interval(0.0, 0.0)
        # with a finite other operand a zero keeps its sign
        v = Interval(-0.0, -0.0) * Interval(2.0, 3.0)
        assert (v.lo.hex(), v.hi.hex()) == ("-0x0.0p+0", "-0x0.0p+0")

    def test_unbounded_operands(self):
        inf = math.inf
        assert Interval(1.0, inf) + Interval(-inf, 2.0) == Interval(-inf, inf)
        assert Interval(1.0, 2.0) / Interval(4.0, inf) == Interval(0.0, 0.5)
        assert ipow(Interval(-inf, -2.0), 2) == Interval(4.0, inf)
        assert isqrt(Interval(4.0, inf)) == Interval(2.0, inf)
        # a finite overflow rounds outward: to inf above and to MAXF below
        assert Interval(1e308, 1e308) + Interval(1e308, 1e308) == Interval(FMAX, inf)
        assert Interval(-1e308, -1e308) * Interval(1e300, 1e300) == Interval(-inf, -FMAX)


class TestElementary:
    def test_even_power_spanning_zero_starts_at_zero(self):
        assert ipow(Interval(-2.0, 3.0), 2) == Interval(0.0, 9.0)

    def test_odd_power_monotone(self):
        assert ipow(Interval(-2.0, 3.0), 3) == Interval(-8.0, 27.0)

    def test_huge_powers_of_zero_and_one(self):
        # 0 and +-1 stay exact under every product: parity decides the sign,
        # and -0.0 keeps its signed zero
        n = 10**20
        assert ipow(Interval(0.0, 1.0), n) == Interval(0.0, 1.0)
        for k, ends in ((n + 1, ("-0x1.0000000000000p+0", "-0x0.0p+0")),
                        (n, ("0x0.0p+0", "0x1.0000000000000p+0"))):
            v = ipow(Interval(-1.0, -0.0), k)
            assert (v.lo.hex(), v.hi.hex()) == ends

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            isqrt(Interval(-1.0, 1.0))
        v = isqrt(Interval(4.0, 9.0))
        assert v.lo == 2.0 and v.hi == 3.0

    def test_exp_overflow_saturates(self):
        v = iexp(Interval(0.0, 1e6))
        assert v.hi == math.inf
        # exp(710) is past the largest float, and so is half of it, which a
        # clamp to the largest float would halve
        v = iexp(Interval(709.5, 710.0))
        assert v.hi == math.inf and (v * Interval(0.5, 0.5)).hi == math.inf
        v = iexp(Interval(-math.inf, 0.0))
        assert v.lo == 0.0 and 1.0 <= v.hi < 1.0 + 1e-15

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

    @pytest.mark.parametrize("fn", [isin, icos])
    @pytest.mark.parametrize("lo,hi", [(-FMAX, FMAX), (-FMAX, -FMAX), (-FMAX, 0.0),
                                       (FMAX, FMAX), (0.0, FMAX), (-math.inf, math.inf),
                                       (-math.inf, -FMAX), (-math.inf, 0.0), (FMAX, math.inf),
                                       (0.0, math.inf)])
    def test_trig_of_saturated_interval(self, fn, lo, hi):
        # a blown-up propagation reaches +-FMAX or +-inf and must stay
        # propagatable; an unbounded interval holds whole periods
        v = fn(Interval(lo, hi))
        assert -1.0 <= v.lo <= v.hi <= 1.0
        if math.isinf(lo) or math.isinf(hi):
            assert v == Interval(-1.0, 1.0)

    @given(finite.filter(lambda x: abs(x) < 50), finite.filter(lambda x: abs(x) < 50),
           st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_sin_sound(self, a, b, t):
        u = ivl(a, b)
        x = u.lo + t * (u.hi - u.lo)
        v = isin(u)
        assert v.lo - 1e-12 <= math.sin(x) <= v.hi + 1e-12


# ends that probe every special case of the extended reals: infinities, the
# largest float, a product that overflows, small integers, the smallest
# normal and subnormal floats and both zeros
GRID_ENDS = [s * x for x in (math.inf, FMAX, 1e300, 3.0, 1.0, 0.5,
                             2.2250738585072014e-308, 5e-324, 0.0) for s in (1.0, -1.0)]
GRID = [Interval(lo, hi) for lo in GRID_ENDS for hi in GRID_ENDS
        if -math.inf < hi >= lo < math.inf]
GRID_UNARY = [operator.neg, isqrt, iexp, iarctan, iabs, isin, icos,
              *(lambda x, n=n: ipow(x, n) for n in range(-3, 6))]
GRID_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
               Interval.hull, Interval.intersect, imin, imax]
# sha256 of every grid result, recorded before the operators built their
# results without the constructor's check
GRID_DIGEST = "8700a3e07fc25c62e5b1fff0de10995ef85e32fb9de38b61f512e12974a02698"


def _grid_results():
    def run(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the error class is part of the result
            return exc
    yield from (run(Interval.point, x) for x in GRID_ENDS + [math.nan])
    for x in GRID:
        yield from (run(fn, x) for fn in GRID_UNARY)
        yield from (run(x.scale, a) for a in GRID_ENDS + [math.nan])
    for x, y in itertools.product(GRID, repeat=2):
        yield from (run(fn, x, y) for fn in GRID_BINARY)


class TestSpecialValueGrid:
    def test_every_operator_result_is_a_valid_interval(self):
        assert len(GRID) == 170
        h, count, invalid = hashlib.sha256(), 0, []
        for r in _grid_results():
            count += 1
            if isinstance(r, Interval):
                if not -math.inf < r.hi >= r.lo < math.inf:
                    invalid.append((r.lo, r.hi))
                h.update(struct.pack("<2d", r.lo, r.hi))
            else:
                h.update(b"None" if r is None else type(r).__name__.encode())
        assert count == 237169
        assert invalid == []
        assert h.hexdigest() == GRID_DIGEST


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

    @pytest.mark.parametrize("call", [
        lambda b: b.bisect(-1),
        lambda b: b.bisect(2),
        lambda b: b.contains_point((0.5,)),
        lambda b: b.contains_point((0.5, 0.5, 0.5)),
        lambda b: hausdorff_q(b, Box.from_pairs([(0, 1)])),
        lambda b: hausdorff_q(Box.from_pairs([(0, 1)] * 3), b),
    ], ids=["bisect-1", "bisect2", "point1", "point3", "hausdorff1", "hausdorff3"])
    def test_dimension_errors(self, call):
        with pytest.raises(DimensionMismatch):
            call(Box.from_pairs([(0, 1), (0, 1)]))

    def test_vertices(self):
        vs = list(Box.from_pairs([(0, 1), (2, 3)]).vertices())
        assert len(vs) == 4
        assert (0.0, 2.0) in vs and (1.0, 3.0) in vs

    def test_point_box(self):
        b = Box.point([1.0, 2.0])
        assert b.widths() == (0.0, 0.0)

    def test_pickle_and_copy(self):
        model = load_bundled("unicycle")
        box = Box.from_pairs([(-0.0, 1), (-math.inf, 3)])
        for clone in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
            for x in (box, Interval(1.0, 2.0), model):
                y = clone(x)
                assert y == x and type(y) is type(x)
            assert math.copysign(1.0, clone(box)[0].lo) == -1.0
            with pytest.raises(AttributeError):
                clone(box).dims = ()
        copied = copy.deepcopy(model)
        assert reach_tube(copied, NATURAL, 1).final == reach_tube(model, NATURAL, 1).final


class TestHausdorff:
    def test_interval_metric(self):
        assert hausdorff_q_interval(Interval(0, 2), Interval(0, 2)) == 0.0
        assert hausdorff_q_interval(Interval(0, 3), Interval(1, 2)) == 1.0

    def test_equal_infinite_ends_are_zero_apart(self):
        inf = math.inf
        assert hausdorff_q_interval(Interval(0, inf), Interval(0, inf)) == 0.0
        assert hausdorff_q_interval(Interval(-inf, 1), Interval(-inf, 3)) == 2.0
        assert hausdorff_q_interval(Interval(0, inf), Interval(0, 1)) == inf

    def test_box_metric_is_max_over_dims(self):
        a = Box.from_pairs([(0, 3), (0, 2)])
        b = Box.from_pairs([(1, 2), (0, 2)])
        assert hausdorff_q(a, b) == 1.0

    @given(st.lists(finite, min_size=4, max_size=4))
    @example([16777217.0, 16777217.0, 0.0005151460243626979, 8388609.0])
    @settings(max_examples=200, deadline=None)
    def test_metric_axioms(self, vals):
        a = Box([ivl(vals[0], vals[1])])
        b = Box([ivl(vals[2], vals[3])])
        c = Box([ivl(vals[0], vals[3])])
        assert hausdorff_q(a, a) == 0.0
        assert hausdorff_q(a, b) == hausdorff_q(b, a) >= 0.0
        lhs = hausdorff_q(a, b)
        # the endpoint differences and the sum are rounded to nearest, which
        # in all errs by at most 5 ULPs of the largest operand
        slack = 10 * math.ulp(max(map(abs, vals)))
        assert lhs <= hausdorff_q(a, c) + hausdorff_q(c, b) + slack
