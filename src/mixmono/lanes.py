"""Lane bindings of the tape: one pass of its compiled code over many boxes.

`Tape` compiles each tree's point and Clarke code once (see expr.py).  This
module binds those same code objects once more, to operators whose values
are numpy arrays with one entry per *lane*: a point value of a corner pass
is a float per lane, and an interval value or Clarke partial of a Clarke
pass a (2, K) array whose rows are the lanes' lower and upper ends.  The
Clarke pass binds the point code's names as expr._INTERVAL_NAMES does, and
each value the Clarke code was compiled to read as known (`Tape.clarke`'s
folds) as a constant lane interval or a (2, 1) pair.
`subdivide_apply` runs the cells of a subdivision as the lanes of one Clarke
pass per row, and decomp's `enclose_lanes` the candidates of all cells as the
lanes of one corner pass per row and bound.

Clean lanes.  A lane is clean when every value it computes is finite and no
scalar operation on it would raise.  Each pass returns the mask of the lanes
that are not: the Clarke operators flag every non-finite or inverted result
and every argument the scalar code rejects (a divisor holding 0, a negative
square root); the point operators flag each non-finite argument that they
could turn finite (x / inf is 0), give nan where the scalar function raises,
and leave negation and products, which carry inf and nan on, to the next
operator or the final check of the root.  Callers use only clean lanes and
run every other one through the scalar code, which then raises or saturates
exactly as before; so no lane operator copies the scalar code's saturation
or its errors, only its arithmetic on finite values.

Bit identity with the scalar code on clean lanes:
- outward rounding runs the TwoSum and Dekker exactness tests of interval.py
  elementwise, and moves inexact ends with np.nextafter;
- `Interval.__mul__`'s sign cases are replicated with np.where.  A min over
  the four outward-rounded corners would differ, because rounding down is
  not monotone across exact and inexact products;
- Python's min(a, b) and max(a, b) become where(b < a, b, a) and
  where(b > a, b, a), and a min or max over several values takes the first
  least or greatest one (argmin, argmax).  np.minimum would not do:
  np.minimum(0.0, -0.0) is -0.0 where min(0.0, -0.0) is 0.0;
- `_corner`'s rule is kept: a zero operand gives 0.0 whatever the other is;
- `math`'s libm functions (sin, cos, exp, atan), `**` and `_fsum` are called
  per lane on Python floats, because numpy's exp and arctan differ from libm
  in the last bit.  sqrt is correctly rounded in numpy as in math.
"""

from __future__ import annotations

import math
import operator
import types
from functools import partial

import numpy as np

from .expr import _CLARKE_NAMES, _POINT_NAMES, _UNIT, Tape, _fold_add, _fsum, _same, _row_overrides
from .interval import _MAXF, _SPLIT, _TINY, _TWO_PI, Interval, _exp_float, _pow_float

# the direction each row of a (2, K) array rounds to: lower ends down, upper up
_OUT = np.array([[-math.inf], [math.inf]])
_ZERO_PAIR = np.zeros((2, 1))
_KINK = np.array([[-1.0], [1.0]])


def _each(fn, x: np.ndarray) -> np.ndarray:
    """fn of every entry of x, called on Python floats; nan where fn raises."""
    flat = x.ravel().tolist()
    try:
        out = list(map(fn, flat))
    except (ArithmeticError, ValueError):
        out = []
        for v in flat:
            try:
                out.append(fn(v))
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


def _least(c):
    """(the first least, the first greatest) entry of each column of c."""
    return c[np.stack((c.argmin(axis=0), c.argmax(axis=0))), np.arange(c.shape[1])]


def _static_zero(d) -> bool:
    """Whether d is a zero partial of every lane, known without a pass."""
    return d.shape[-1] == 1 and not d.any()


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
    """The operators of one Clarke lane pass; `bad` collects its unclean lanes.

    The attribute names are those of expr._CLARKE_NAMES, so the lane
    namespace is read off this object.
    """

    Z = _ZERO_PAIR
    ONE = np.ones((2, 1))

    def __init__(self, count: int):
        self.bad = np.zeros(count, dtype=bool)
        self.unit = self.constant(1.0)

    def constant(self, value: float) -> _LaneInterval:
        return self.folded(Interval.point(value))

    def folded(self, value):
        """A value the Clarke code was compiled to read as known (Tape.clarke):
        an Interval, the same in every lane, or a (lo, hi) pair."""
        if isinstance(value, Interval):
            return _LaneInterval(np.repeat([[value.lo], [value.hi]], len(self.bad), axis=1), self)
        return self._pair(np.array(value, dtype=float).reshape(2, 1))

    def interval(self, v, ok=True) -> _LaneInterval:
        self.bad |= ~(ok & (v[0] <= v[1]) & np.isfinite(v).all(axis=0))
        return _LaneInterval(v, self)

    def _pair(self, p):
        self.bad |= ~np.isfinite(p).all(axis=0)
        return p

    # -- interval operators ------------------------------------------------

    def isin(self, x):
        return self.interval(_trig(x.v, math.sin, math.pi / 2.0, 3.0 * math.pi / 2.0))

    def icos(self, x):
        return self.interval(_trig(x.v, math.cos, 0.0, math.pi))

    def iexp(self, x):
        e = _libm(_each(_exp_float, x.v), _OUT)
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
        power[inexact] = _each(lambda t: _pow_float(t, n), v[inexact])
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
    div, fsum, one = operator.truediv, _fold_add, _UNIT

    # -- Clarke partials as (2, K) pairs -------------------------------------

    xfrom = operator.attrgetter("v")

    @staticmethod
    def xneg(a):
        return -a[::-1]

    def xadd(self, a, b):
        return self._pair(a + b)

    def xnorm(self, a):
        return self._pair(a + 0.0)  # -0.0 + 0.0 is 0.0

    def xmul(self, a, b):
        # _corner gives 0.0 for a zero operand, so a zero pair times any pair
        # is the zero pair, and ONE times a pair is the pair with its -0.0
        # made 0.0 (1 * x is exact)
        if _static_zero(a) or _static_zero(b):
            return _ZERO_PAIR
        if a is self.ONE or b is self.ONE:
            return self._pair((b if a is self.ONE else a) + 0.0)
        c = a[:, None] * b[None, :]  # c[i, j] = a_i * b_j: the corners in _xmul's order
        c = np.where((a == 0.0)[:, None] | (b == 0.0)[None, :], 0.0, c).reshape(4, -1)
        return self._pair(_least(c))

    def xsum(self, *terms):
        # adding a zero term leaves the sum, which is never -0.0, unchanged
        acc = _ZERO_PAIR
        for d in terms:
            if not _static_zero(d):
                acc = acc + d
        return self._pair(acc)

    def xprod(self, factors, ds):
        acc = _ZERO_PAIR
        for i, d in enumerate(ds):
            if _static_zero(d):
                continue
            term = d
            for k, f in enumerate(factors):
                if k != i:
                    term = self.xmul(term, f)
            acc = self.xadd(acc, term)
        return acc

    def xdiv_pos(self, a, den):
        dlo, dhi = den.v
        c = (a[:, None] / den.v[None, :]).reshape(4, -1)
        flat = (dhi == 0.0)
        over_zero = np.stack((
            np.where(a[0] < 0.0, -math.inf, np.where((a[0] == 0.0) | flat, 0.0, a[0] / dhi)),
            np.where(a[1] > 0.0, math.inf, np.where((a[1] == 0.0) | flat, 0.0, a[1] / dhi)),
        ))
        return self._pair(np.where(dlo > 0.0, _least(c), over_zero))

    def abs_rule(self, v):
        lo, hi = v.v
        positive, negative = lo > 0.0, hi < 0.0
        if positive.all():
            return _same
        return lambda d: np.where(positive, d, np.where(negative, self.xneg(d), self.xmul(_KINK, d)))

    def min_rule(self, u, v):
        return self._branch_rule(u.v[1] < v.v[0], v.v[1] < u.v[0])

    def max_rule(self, u, v):
        return self._branch_rule(u.v[0] > v.v[1], v.v[0] > u.v[1])

    @staticmethod
    def _branch_rule(first, second):
        def apply(a, b):
            hull = np.stack((np.where(b[0] < a[0], b[0], a[0]), np.where(b[1] > a[1], b[1], a[1])))
            return np.where(first, a, np.where(second, b, hull))
        return apply


class _PointPass:
    """The operators of one corner lane pass; `bad` collects its unclean lanes.

    The attribute names are those of expr._POINT_NAMES plus the builtins the
    point code calls.
    """

    sin, cos = partial(_each, math.sin), partial(_each, math.cos)
    sqrt, abs, one = np.sqrt, np.abs, 1.0

    def __init__(self, count: int):
        self.bad = np.zeros(count, dtype=bool)

    def _finite(self, *xs):
        for x in xs:
            self.bad |= ~np.isfinite(x)

    def exp(self, x):
        self._finite(x)
        return _each(_exp_float, x)

    def atan(self, x):
        self._finite(x)
        return _each(math.atan, x)

    def pow_float(self, x, n: int):
        self._finite(x)
        return _each(lambda t: _pow_float(t, n), x)

    @staticmethod
    def fsum(terms):
        return np.array(list(map(_fsum, zip(*(t.tolist() for t in terms)))), dtype=float)

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
        fixed = _row_overrides(overrides, i, n)
        if len(fixed) < n:
            lanes, run = _ClarkePass(count), e.tape.clarke
            default, partials = _run(run.__code__, e.tape, lanes, _CLARKE_NAMES, lanes.constant,
                                     [_LaneInterval(v, lanes) for v in z], run.folded)
            bad |= lanes.bad
        for j in range(n):
            entries[i, j] = ([fixed[j].lo], [fixed[j].hi]) if j in fixed else partials.get(j, default)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(entries).all(axis=2) & (entries[:, :, 0] <= entries[:, :, 1])
    return entries, bad | ~ok.all(axis=(0, 1))
