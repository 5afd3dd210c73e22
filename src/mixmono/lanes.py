"""Lane bindings of the tape: one pass of its compiled code over many points or boxes.

This module owns every numpy binding of the tape and is the only one that
imports numpy when loaded.  `Tape` compiles each tree's point and Clarke
code once (see expr.py); this module binds those same code objects once
more, to operators whose values are numpy arrays with one entry per *lane*:
a point value of a corner pass is a float per lane, and an interval value or
Clarke partial of a Clarke pass a `_LaneInterval` over a (2, K) array whose
rows are the lanes' lower and upper ends.  The Clarke pass binds the point
code's names as expr._INTERVAL_NAMES does, and each constant and each value
the Clarke code was compiled to read as known (`Tape.clarke`'s folds) as
one (2, 1) column, which numpy broadcasts.  `enclose_cells`, the one entry,
runs the cells of a subdivision as the lanes of one Clarke pass per row,
and their candidates, chosen by decomp.row_candidates' rules, as the lanes
of one corner pass per row, upper and lower bounds side by side.

`vec_binding` (`Tape.vec`, for eval_vec) is numpy's own and *not*
bit-identical to eval_point: its sums are left folds, and its sin, cos, exp
and arctan numpy's.  At 2000 points drawn uniformly from [-2, 2]^3 (numpy
seed 2), 476 values of 1.2*x1^2 + 0.3*x1*x2 - 0.7*sin(x3) differ from it.

Clean lanes.  A lane is clean when every value it computes is finite and no
scalar operation on it would raise.  Each pass returns the mask of the lanes
that are not: the Clarke operators flag every non-finite or inverted result
and every argument the scalar code rejects (a divisor holding 0, a negative
square root), tested at once when the mask is read; the point operators flag
each non-finite argument that they could turn finite (x / inf is 0), give
nan where the scalar function raises, and leave the inf and nan that the
rest carry on to the root's check.  Callers run every unclean lane through
the scalar code, which then raises or saturates exactly as before.

Bit identity with the scalar code on clean lanes:
- outward rounding runs the TwoSum and Dekker exactness tests of interval.py
  elementwise, and moves inexact ends with np.nextafter;
- a product by a point column [c, c] (the same float at both ends, sign of
  zero included) is `scale(c)`: Interval.__mul__ rounds _mul(a, c), scale
  _mul(c, a), the same product, and where |p| >= _TINY each step of
  Dekker's error term is exact in either order.  [-0.0, 0.0] is no point:
  for [-3, -1], scale(-0.0) is [0.0, 0.0] and the sign cases [-0.0, 0.0];
- other products replicate Interval.__mul__'s sign cases with np.where;
  rounding down is not monotone, so a min over four rounded corners differs;
- Python's min(a, b) and max(a, b) become where(b < a, b, a) and
  where(b > a, b, a), and a min or max over several values takes the first
  least or greatest one (argmin, argmax).  np.minimum would not do:
  np.minimum(0.0, -0.0) is -0.0 where min(0.0, -0.0) is 0.0;
- the Clarke rules run on the same lane intervals, and the abs, min and max
  rules pick each lane's branch with np.where, their hull as `Interval.hull`;
- libm's sin, cos, exp and atan, `**` and fsum are mapped per lane from C
  on Python floats (numpy's exp and arctan differ in the last bit), and
  where one raises, `_exp_float`, `_pow_float` or `_fsum` runs instead.
  sqrt and + are correctly rounded in numpy too, so a remainder of one or
  two terms is 0.0 + t0 (+ t1), fsum's value (fsum([-0.0]) is 0.0);
- a lower candidate's terms |m|*(lo - hi) are its upper twin's negated, up
  to the sign of a zero; fsum rounds -S to -round(S) and sums zeros to
  0.0, so the lower remainder is 0.0 minus the upper one.
"""

from __future__ import annotations

import math
import operator
import types
from functools import partial
from itertools import repeat
from typing import Sequence

import numpy as np

from .expr import (_CLARKE_NAMES, _INTERVAL_NAMES, _POINT_NAMES, _UNIT, Expr, Tape, _fold_add,
                   _fsum, _row_overrides, _same)
from .interval import _MAXF, _SPLIT, _TINY, _TWO_PI, Box, Interval, _exp_float, _iv, _pow_float

# the direction each row of a (2, K) array rounds to: lower ends down, upper up
_OUT = np.array([[-math.inf], [math.inf]])


def _each(fn, x: np.ndarray, *arg, fast=None) -> np.ndarray:
    """fn(v, *arg) of every entry v of x, called on Python floats; nan where
    fn raises.  fast, a function that C calls, is fn wherever it does not raise."""
    flat = x.ravel().tolist()
    try:
        out = list(map(fast or fn, flat, *map(repeat, arg)))
    except (ArithmeticError, ValueError):
        out = []
        for v in flat:
            try:
                out.append(fn(v, *arg))
            except (ArithmeticError, ValueError):
                out.append(math.nan)
    return np.array(out, dtype=float).reshape(x.shape)


# -- outward rounding, elementwise (see interval.py) -------------------------

def _product_exact(p, x, y):
    cx, cy = _SPLIT * x, _SPLIT * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return (x == 0.0) | (y == 0.0) | ((np.abs(p) >= _TINY) & (err == 0.0))


def _mul(x, y, toward):
    p = x * y
    return np.where(_product_exact(p, x, y), p, np.nextafter(p, toward))


def _quotient(q, y, x, toward):
    p = q * y
    return np.where((p == x) & _product_exact(p, q, y), q, np.nextafter(q, toward))


def _div(x, y, toward):
    return _quotient(x / y, y, x, toward)


def _add(x, y, toward):
    s = x + y
    return np.where((s - x == y) & (s - y == x), s, np.nextafter(s, toward))


def _libm(x, toward):
    return np.nextafter(np.nextafter(x, toward), toward)


def _libm_out(v):
    """Rows (lo, hi) of libm values moved outward; a zero is exact."""
    return np.where(v == 0.0, v, _libm(v, _OUT))


def _phase_inside(v, phase: float):
    lo, hi = v
    slack = 1e-15 * (8.0 + np.where(hi > -lo, hi, -lo))
    t = lo - slack
    k = np.ceil((np.where(-_MAXF > t, -_MAXF, t) - phase) / _TWO_PI)
    return phase + k * _TWO_PI <= hi + slack


def _trig(v, fn, crest: float, trough: float):
    a = _each(fn, v)
    r = _libm_out(np.where(a[0] <= a[1], a, a[::-1]))
    lo = np.where(_phase_inside(v, trough), -1.0, r[0])
    hi = np.where(_phase_inside(v, crest), 1.0, r[1])
    return np.stack((np.where(-1.0 > lo, -1.0, lo), np.where(1.0 < hi, 1.0, hi)))


def _hull(a, b):
    """Interval.hull of the (2, K) ends a and b: Python's min and max of each end."""
    return np.stack((np.where(b[0] < a[0], b[0], a[0]), np.where(b[1] > a[1], b[1], a[1])))


class _LaneInterval:
    """The interval values of one node in every lane, as a (2, K) array."""

    __slots__ = ("v", "lanes")

    def __init__(self, v: np.ndarray, lanes: "_ClarkePass"):
        self.v, self.lanes = v, lanes

    def __add__(self, other):
        return self.lanes.interval(_add(self.v, other.v, _OUT))

    def __neg__(self):
        return _LaneInterval(-self.v[::-1], self.lanes)

    def __mul__(self, other):
        for x, y in ((self, other), (other, self)):  # a point column scales (module docstring)
            if y.v.shape[1] == 1 and y.v[0, 0].hex() == y.v[1, 0].hex():
                return x.scale(float(y.v[0, 0]))
        s, t = self.v, other.v
        # x is the operand that spans 0, if one does not (see Interval.__mul__)
        swap = ~((t[0] >= 0.0) | (t[1] <= 0.0))
        (a, b), (c, d) = np.where(swap, t, s), np.where(swap, s, t)
        first = c >= 0.0
        second = ~first & (d <= 0.0)
        both_span = ~first & ~second  # here a < 0 < b, so x's ends pair with (d, c)
        x = np.stack((np.where(second, b, a), np.where(first, b, a)))
        p = _mul(x, np.where(x >= 0.0, np.stack((c, d)), np.stack((d, c))), _OUT)
        if both_span.any():
            q = _mul(np.stack((b, b)), np.stack((c, d)), _OUT)
            p = np.stack((np.where(both_span & (q[0] < p[0]), q[0], p[0]),
                          np.where(both_span & (q[1] > p[1]), q[1], p[1])))
        return self.lanes.interval(p)

    def __truediv__(self, other):
        (a, b), (c, d) = self.v, other.v
        positive = c > 0.0
        x = np.stack((np.where(positive, a, b), np.where(positive, b, a)))
        y = np.where(x >= 0.0, np.stack((d, c)), np.stack((c, d)))
        return self.lanes.interval(_div(x, y, _OUT), positive | (d < 0.0))

    def scale(self, a: float):
        return self.lanes.interval(_mul(a, self.v if a >= 0.0 else self.v[::-1], _OUT))


class _ClarkePass:
    """The operators of one Clarke lane pass, named as in expr._CLARKE_NAMES
    so that the lane namespace is read off this object; `bad` is the mask of
    its unclean lanes so far."""

    def __init__(self, count: int):
        self._bad, self._ends = np.zeros(count, dtype=bool), []  # results not yet tested
        self.unit = self.constant(1.0)

    @property
    def bad(self) -> np.ndarray:
        """The lanes with a non-finite or inverted result, tested at once per width."""
        for width in {v.shape[1] for v in self._ends}:
            v = np.concatenate([v for v in self._ends if v.shape[1] == width])
            self._bad |= ~(np.isfinite(v).all(axis=0) & (v[::2] <= v[1::2]).all(axis=0))
        self._ends = []
        return self._bad

    def constant(self, value: float) -> _LaneInterval:
        return self.folded(Interval.point(value))

    def folded(self, value: Interval) -> _LaneInterval:
        """A value the Clarke code was compiled to read as known (Tape.clarke),
        the same in every lane: one column, which numpy broadcasts."""
        return _LaneInterval(np.array([[value.lo], [value.hi]]), self)

    def interval(self, v, ok=True) -> _LaneInterval:
        """v as a result of the pass, its lanes unclean where v is or ok is false."""
        self._ends.append(v if ok is True else np.where(ok, v, np.nan))
        return _LaneInterval(v, self)

    # -- interval operators ------------------------------------------------

    def isin(self, x):
        return self.interval(_trig(x.v, math.sin, math.pi / 2.0, 3.0 * math.pi / 2.0))

    def icos(self, x):
        return self.interval(_trig(x.v, math.cos, 0.0, math.pi))

    def iexp(self, x):
        e = _libm(_each(_exp_float, x.v, fast=math.exp), _OUT)
        return self.interval(np.stack((np.where(e[0] > 0.0, e[0], 0.0), e[1])))

    def isqrt(self, x):
        s = np.sqrt(x.v)
        return self.interval(_quotient(s, s, x.v, _OUT), x.v[0] >= 0.0)

    def iarctan(self, x):
        return self.interval(_libm_out(_each(math.atan, x.v)))

    def iabs(self, x):
        lo, hi = x.v
        spans = np.stack((np.zeros_like(lo), np.where(hi > -lo, hi, -lo)))
        return self.interval(np.where(lo >= 0.0, x.v, np.where(hi <= 0.0, -x.v[::-1], spans)))

    def ipow(self, x, n: int):
        if n == 0:
            return self.constant(1.0)
        if n == 1:
            return x
        if n < 0:
            return self.unit / self.ipow(x, -n)
        even = n % 2 == 0
        v = np.where(even & (x.v[1] < 0.0), x.v[::-1], x.v)
        spans = even & (v[0] <= 0.0) & (0.0 <= v[1])
        # 0 and +-1 stay exact (interval._pow), any other end soon turns inexact
        unit = (v == 0.0) | (np.abs(v) == 1.0)
        q, inexact = v, np.zeros(v.shape, dtype=bool)
        for _ in range(n - 1):
            if (inexact | unit).all():
                break
            p, q = q, q * v
            inexact |= ~_product_exact(q, p, v)
        q = np.where(unit, v if n % 2 else np.abs(v), q)
        power = q.copy()
        power[inexact] = _each(_pow_float, v[inexact], n, fast=pow)
        out = np.where(inexact, _libm(power, _OUT), q)
        lo_up = np.where(inexact[0], _libm(power[0], math.inf), q[0])
        top = np.where(out[1] > lo_up, out[1], lo_up)
        return self.interval(np.stack((np.where(spans, 0.0, out[0]), np.where(spans, top, out[1]))))

    def imin(self, x, y):
        return self.interval(np.where(y.v < x.v, y.v, x.v))

    def imax(self, x, y):
        return self.interval(np.where(y.v > x.v, y.v, x.v))

    # the names the value lines call them by (expr._INTERVAL_NAMES)
    sin, cos, exp, sqrt, atan, abs, pow_float, min, max = (
        isin, icos, iexp, isqrt, iarctan, iabs, ipow, imin, imax)
    div, fsum, one, zero = operator.truediv, _fold_add, _UNIT, _UNIT

    # -- the Clarke rules over lane intervals ---------------------------------

    xdiv_pos = operator.truediv  # a lane whose v^2 or 2*sqrt(u) holds 0 is unclean

    def abs_rule(self, u):
        lo, hi = u.v
        positive, negative = lo > 0.0, hi < 0.0
        if positive.all():
            return _same

        def apply(d):
            neg = -d.v[::-1]
            return _LaneInterval(np.where(positive, d.v, np.where(negative, neg, _hull(d.v, neg))), self)
        return apply

    def min_rule(self, u, v):
        return self._branch_rule(u.v[1] < v.v[0], v.v[1] < u.v[0])

    def max_rule(self, u, v):
        return self._branch_rule(u.v[0] > v.v[1], v.v[0] > u.v[1])

    def _branch_rule(self, first, second):
        def apply(a, b):
            return _LaneInterval(np.where(first, a.v, np.where(second, b.v, _hull(a.v, b.v))), self)
        return apply


class _PointPass:
    """The operators of one corner lane pass, named as in expr._POINT_NAMES
    plus the builtins the point code calls; `bad` collects its unclean lanes."""

    sin, cos = partial(_each, math.sin), partial(_each, math.cos)
    sqrt, abs, one, zero = np.sqrt, np.abs, 1.0, 0.0

    def __init__(self, count: int):
        self.bad = np.zeros(count, dtype=bool)

    def _finite(self, *xs):
        for x in xs:
            self.bad |= ~np.isfinite(x)

    def exp(self, x):
        self._finite(x)
        return _each(_exp_float, x, fast=math.exp)

    def atan(self, x):
        self._finite(x)
        return _each(math.atan, x)

    def pow_float(self, x, n: int):
        self._finite(x)
        return _each(_pow_float, x, n, fast=pow)

    @staticmethod
    def fsum(terms):
        """math.fsum of each lane's terms; _fsum of each where one raises."""
        rows = list(zip(*(t.tolist() for t in terms)))
        try:
            return np.array(list(map(math.fsum, rows)), dtype=float)
        except (OverflowError, ValueError):
            return np.array(list(map(_fsum, rows)), dtype=float)

    def div(self, x, y):
        self._finite(y)
        return x / y

    def min(self, a, b):
        self._finite(a, b)
        return np.where(b < a, b, a)

    def max(self, a, b):
        self._finite(a, b)
        return np.where(b > a, b, a)


_POINT_LANE_NAMES = (*_POINT_NAMES, "abs", "min", "max")
# numpy's functions, with sums, products and quotients as for intervals; z is
# the (n_vars, n_points) array of columns, and a constant a 1-entry array
_VEC_NAMES = {
    **_INTERVAL_NAMES, "sin": np.sin, "cos": np.cos, "exp": np.exp, "sqrt": np.sqrt,
    "atan": np.arctan, "abs": np.abs, "pow_float": lambda x, n: x ** float(n),
    "min": np.minimum, "max": np.maximum,
}


def vec_binding(tape: Tape):
    """cols -> the tape's values at the columns' points (1 value without
    variables): `Tape.vec`, not bit-identical to the point code."""
    return tape._compile(tape._namespace(_VEC_NAMES, partial(np.full, 1)))


def _run(code, tape: Tape, lanes, names, constant, z, folded=None):
    """code, of tape, bound to the operators of lanes, to constant and to
    the values it reads in place of lines (folded), called on z."""
    namespace = tape._namespace({name: getattr(lanes, name) for name in names}, constant)
    namespace.update({name: lanes.folded(value) for name, value in (folded or {}).items()})
    with np.errstate(all="ignore"):
        return types.FunctionType(code, namespace)(z)


def point_lanes(tape: Tape, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The tape's point values at the L points that are the columns of z
    (shape (n, L)), and the mask of the unclean ones."""
    lanes = _PointPass(z.shape[1])
    values = _run(tape.point.__code__, tape, lanes, _POINT_LANE_NAMES,
                  partial(np.full, z.shape[1], dtype=float), z)
    return values, lanes.bad | ~np.isfinite(values)


def jacobian_lanes(f, overrides, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """clarke_jacobian_bounds(f, box, overrides) over the K boxes whose ends
    are the columns of lo and hi (shape (n, K)): the (rows, n, 2, K) array of
    the bounds' ends, and the mask of the unclean boxes, which include every
    box with an infinite or inverted bound.  Every row must read only
    variables of the boxes."""
    n, count = lo.shape
    z = np.stack((lo, hi), axis=1)
    entries = np.empty((len(f), n, 2, count))
    bad = np.zeros(count, dtype=bool)
    for i, e in enumerate(f):
        fixed = _row_overrides(overrides, i, n) if overrides else {}
        if len(fixed) < n:
            lanes, run = _ClarkePass(count), e.tape.clarke
            default, partials = _run(run.__code__, e.tape, lanes, _CLARKE_NAMES, lanes.constant,
                                     [_LaneInterval(v, lanes) for v in z], run.folded)
            bad |= lanes.bad
        for j in range(n):
            entries[i, j] = ([fixed[j].lo], [fixed[j].hi]) if j in fixed else partials.get(j, default).v
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(entries).all(axis=2) & (entries[:, :, 0] <= entries[:, :, 1])
    return entries, bad | ~ok.all(axis=(0, 1))


# a lane with more candidates in a row than this runs through the scalar
# code; it is below decomp.CANDIDATE_CAP, so a lane the scalar code refuses is one
LANE_CANDIDATES = 2**10


def _lane_candidates(entries: np.ndarray, kind: str, bad: np.ndarray):
    """One row's candidates in every clean lane, by the rules of
    decomp.row_candidates: entries is the row's (n, 2, K) array of bounds.
    Returns (slopes, branch, shortcut, cell): per candidate, its slope
    vector, which coordinates take the lower branch, whether it is the all-zero
    vector that decomp._extremum evaluates alone, and its lane, with each lane's
    candidates in itertools.product order.  A lane that the scalar code
    would refuse (CandidateExplosion) or that has more than LANE_CANDIDATES
    candidates is added to bad and given one placeholder candidate."""
    upper = np.where(0.0 > entries[:, 1], 0.0, entries[:, 1])  # max(hi, 0.0)
    lower = np.where(0.0 < entries[:, 0], 0.0, entries[:, 0])  # min(lo, 0.0)
    two = ~(lower == upper)  # the lower branch survives deduplication
    count = len(bad)
    if kind == "remainder":
        zero = ((upper == 0.0) | (lower == 0.0)).all(axis=0)
        total = np.prod(1.0 + two, axis=0)
        bad |= total > LANE_CANDIDATES
        sizes = np.where(zero | bad, 1, total).astype(int)
        cell = np.repeat(np.arange(count), sizes)
        rank = np.arange(len(cell)) - (np.cumsum(sizes) - sizes)[cell]
        # a coordinate's bit in rank: the last coordinate varies fastest
        bit = (np.cumsum(two[::-1], axis=0)[::-1] - two)[:, cell]
        branch = two[:, cell] & ((rank >> bit) & 1 == 1)
        shortcut = zero[cell]
        # the all-zero vector takes each coordinate's first zero choice
        branch = np.where(shortcut, ~(upper == 0.0)[:, cell], branch)
    else:  # each coordinate's smallest-magnitude choice, the lower branch on a tie
        cell = np.arange(count)
        branch = two & (np.abs(lower) <= np.abs(upper))
        shortcut = (np.where(branch, lower, upper) == 0.0).all(axis=0)
    return np.where(branch, lower[:, cell], upper[:, cell]), branch, shortcut, cell


def _corner_bounds(f_i: Expr, slopes, branch, shortcut, cell, lo, hi):
    """decomp._extremum's upper (a, b = hi, lo) and lower (a, b = lo, hi)
    value in every lane of the (n, K) ends lo and hi, from one corner pass,
    and whether either is unclean; the other inputs are `_lane_candidates`'."""
    count, m = lo.shape[1], len(cell)
    lo, hi = lo[:, cell], hi[:, cell]
    # the upper candidates are lanes 0..m-1 of the pass, the lower ones m..2m-1
    a, b = np.concatenate((hi, lo), axis=1), np.concatenate((lo, hi), axis=1)
    values, bad = point_lanes(f_i.tape, np.where(np.concatenate((branch, branch), axis=1), a, b))
    if not shortcut.all():  # the upper remainders; a lower one is 0.0 minus its twin's
        rest, terms = ~shortcut, np.where(slopes != 0.0, np.abs(slopes) * (hi - lo), 0.0)
        if len(terms) > 2:
            up = np.zeros(m)
            up[rest] = _PointPass.fsum(terms[:, rest])
        else:  # 0.0 + t0 (+ t1) is fsum's value (module docstring)
            up = 0.0 + terms[0] if len(terms) == 1 else 0.0 + terms[0] + terms[1]
        values = np.where(np.concatenate((rest, rest)), values + np.concatenate((up, 0.0 - up)), values)
        bad |= ~np.isfinite(values)
    # each lane's first least upper and greatest lower value, in product order
    group = np.concatenate((cell, cell + count))
    starts = np.searchsorted(group, np.arange(2 * count))
    key = np.where(bad, 0.0, values)
    key[m:] *= -1.0
    hits = np.flatnonzero(key == np.minimum.reduceat(key, starts)[group])
    best, bad = values[hits[np.searchsorted(hits, starts)]], np.logical_or.reduceat(bad, starts)
    return best[:count], best[count:], bad[:count] | bad[count:]


# cells per lane pass, which bounds the size of its arrays
_LANE_BLOCK = 64


def enclose_cells(kind: str, f: Sequence[Expr], overrides, cells: Sequence[Box]) -> list[Box | None]:
    """decomp.enclose(f, clarke_jacobian_bounds(f, cell, overrides), cell, kind)
    for each cell, from lane passes over _LANE_BLOCK cells at a time.
    A cell is None where it is unclean: where a lane of its Clarke or corner
    pass is, or where the scalar code computes from a non-finite value or
    refuses (NotSignStable, CandidateExplosion, InvertedBounds); the caller
    runs it through the scalar code.  Every other box is bit-identical to
    `enclose`'s.  Every row must read only variables of the cells."""
    n, out = len(cells[0]), []
    for start in range(0, len(cells), _LANE_BLOCK):
        block = cells[start:start + _LANE_BLOCK]
        lo = np.array([d.lo for c in block for d in c.dims], dtype=float).reshape(len(block), n).T
        hi = np.array([d.hi for c in block for d in c.dims], dtype=float).reshape(len(block), n).T
        jac, bad = jacobian_lanes(f, overrides, lo, hi)
        if kind == "tight_vertex":
            bad |= ((jac[:, :, 0] < 0.0) & (0.0 < jac[:, :, 1])).any(axis=(0, 1))
        lower, upper = np.empty((len(f), len(bad))), np.empty((len(f), len(bad)))
        with np.errstate(all="ignore"):  # unclean lanes may hold inf and nan
            for i, f_i in enumerate(f):
                upper[i], lower[i], row_bad = _corner_bounds(
                    f_i, *_lane_candidates(jac[i], kind, bad), lo, hi)
                bad |= row_bad
            bad |= (lower > upper).any(axis=0)
        for lows, ups, unclean in zip(lower.T.tolist(), upper.T.tolist(), bad.tolist()):
            out.append(None if unclean else Box(map(_iv, lows, ups)))  # finite, lows <= ups
    return out
