"""Closed-interval and interval-vector (box) arithmetic.

Every operation encloses the exact real range of its operator over its
arguments, under one rounding policy: an endpoint computed in floating point
is rounded outward, and an exact endpoint stays put (outward rounding as in
Moore, Kearfott & Cloud, Introduction to Interval Analysis, 2009).

- ``+ - * /`` and ``sqrt`` are correctly rounded, so an inexact endpoint
  moves out one ULP.  A sum s of a and b is exact when s - a == b and
  s - b == a; a product, quotient or square root when Dekker's error-free
  product leaves no error.
- ``sin cos exp arctan`` and inexact integer powers come from libm, which
  glibc documents as within one ULP for them, so their endpoints move out a
  budget of two ULPs.  sin and cos are clamped to [-1, 1], exp to [0, inf).
- An exact zero stays zero, so a sign-stable entry stays sign-stable: a zero
  operand, exact cancellation in a sum, x^0, x^1, the 0 that starts an even
  power of a sign-spanning base, and sin or arctan of 0.  A product,
  quotient or power of nonzero operands that underflows to 0 widens.
- Negation, abs, min, max, hull and intersection are exact.

Ends lie in the extended reals (IEEE Std 1788-2015's set-based model):
[lo, hi] is the set of reals between them, and [0, 0] * [-inf, inf] is
[0, 0].  A finite result past the largest float rounds outward, to +-inf on
its own side and to +-MAXF on the other (`outward`, also for decomp's rows).

Ends are checked where they enter, by the constructor and `Interval.point`.
The operators build their results unchecked (`_iv`): from valid operands, an
end rounded outward never crosses its partner or reaches the infinity on its
wrong side, as overflow there stops at +-MAXF.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from sys import float_info
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, DivisionByZeroInterval, DomainError

_TWO_PI = 2.0 * math.pi
_MAXF = float_info.max
_NEG, _POS = -math.inf, math.inf
# Veltkamp's splitter for Dekker's product, and the magnitude below which a
# product's partial terms can underflow, so that it is not tested
_SPLIT = 134217729.0  # 2**27 + 1
_TINY = 2.0**-960


def _libm(x: float, toward: float) -> float:
    """A libm value moved toward +-inf by its budget of two ULPs."""
    return math.nextafter(math.nextafter(x, toward), toward)


def _product_exact(p: float, x: float, y: float) -> bool:
    """Whether p, the rounded x * y, equals it (Dekker's product)."""
    if x == 0.0 or y == 0.0:
        return True
    if not abs(p) >= _TINY:  # an underflow, or too close to one to test
        return False
    # overflow in the split or the partial products gives inf or nan, which
    # never compares equal to 0.0, so such a product counts as inexact
    cx, cy = _SPLIT * x, _SPLIT * y
    xh, yh = cx - (cx - x), cy - (cy - y)
    xl, yl = x - xh, y - yh
    return ((xh * yh - p) + xh * yl + xl * yh) + xl * yl == 0.0


def _mul(x: float, y: float, toward: float) -> float:
    """x * y rounded toward +-inf; a zero operand gives an exact 0, also
    against +-inf."""
    p = x * y
    if p != p:  # 0 * inf
        return 0.0
    return p if _product_exact(p, x, y) else math.nextafter(p, toward)


def _quotient(q: float, y: float, x: float, toward: float) -> float:
    """q, the rounded x / y (or sqrt(x), with y = q), rounded toward +-inf.

    q is exact when q * y is exactly x.
    """
    p = q * y
    return q if p == x and _product_exact(p, q, y) else math.nextafter(q, toward)


def _div(x: float, y: float, toward: float) -> float:
    # x / +-inf is an exact 0, the limit, where q * y would be nan
    return x / y if math.isinf(y) else _quotient(x / y, y, x, toward)


def _add(x: float, y: float, toward: float) -> float:
    """x + y rounded toward +-inf; a zero sum is always exact."""
    s = x + y
    return s if s - x == y and s - y == x else math.nextafter(s, toward)


def _pow(x: float, n: int, toward: float) -> float:
    """x**n (n >= 2) rounded toward +-inf: exact if every partial product is.
    0 and +-1 stay exact at every step, so parity gives their power."""
    if x == 0.0 or abs(x) == 1.0:
        return x if n % 2 else abs(x)
    q = x
    for _ in range(n - 1):
        p, q = q, q * x
        if not _product_exact(q, p, x):
            return _libm(_pow_float(x, n), toward)
    return q


def outward(lo: float, hi: float) -> tuple[float, float]:
    """The ends (lo, hi) of a set of reals with a finite overflow rounded
    outward: a lower end past MAXF becomes MAXF and an upper end past -MAXF
    becomes -MAXF; every other end, +-inf included, stays as it is."""
    return (_MAXF if lo > _MAXF else lo), (-_MAXF if hi < -_MAXF else hi)


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    """The set of reals x with lo <= x <= hi: lo < inf and hi > -inf, so
    the constructor and `point` reject NaN, lo > hi and the empty [inf, inf]
    and [-inf, -inf].  The operators' results skip this check (`_iv`): valid
    operands' ends, rounded outward, stay valid."""

    lo: float
    hi: float

    def __init__(self, lo: float, hi: float):
        if not _NEG < hi >= lo < _POS:
            raise DomainError(f"interval ends are NaN, inverted or empty: [{lo}, {hi}]")
        _set_lo(self, lo)
        _set_hi(self, hi)

    @staticmethod
    def point(x: float) -> "Interval":
        return _iv(x, x) if _NEG < x < _POS else Interval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        """The midpoint, without overflow: [-inf, inf] gives 0, and a half-line
        the largest float on its side."""
        m = 0.5 * (self.lo + self.hi)
        if -_MAXF <= m <= _MAXF:
            return m
        if self.lo == _NEG:
            return 0.0 if self.hi == _POS else -_MAXF
        return _MAXF if self.hi == _POS else 0.5 * self.lo + 0.5 * self.hi

    @property
    def finite_both(self) -> bool:
        return _NEG < self.lo and self.hi < _POS

    @property
    def unbounded_both(self) -> bool:
        return self.lo == _NEG and self.hi == _POS

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    # --- arithmetic -------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return _iv(_add(self.lo, other.lo, _NEG), _add(self.hi, other.hi, _POS))

    def __sub__(self, other: "Interval") -> "Interval":
        return _iv(_add(self.lo, -other.hi, _NEG), _add(self.hi, -other.lo, _POS))

    def __neg__(self) -> "Interval":
        return _iv(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        # the corner that attains each end follows from the signs; y is an
        # operand that does not span 0, if there is one
        x, y = (self, other) if other.lo >= 0.0 or other.hi <= 0.0 else (other, self)
        a, b, c, d = x.lo, x.hi, y.lo, y.hi
        if c >= 0.0:
            return _iv(_mul(a, c if a >= 0.0 else d, _NEG),
                       _mul(b, d if b >= 0.0 else c, _POS))
        if d <= 0.0:
            return _iv(_mul(b, c if b >= 0.0 else d, _NEG),
                       _mul(a, d if a >= 0.0 else c, _POS))
        return _iv(min(_mul(a, d, _NEG), _mul(b, c, _NEG)),
                   max(_mul(a, c, _POS), _mul(b, d, _POS)))

    def __truediv__(self, other: "Interval") -> "Interval":
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c > 0.0:
            return _iv(_div(a, d if a >= 0.0 else c, _NEG),
                       _div(b, c if b >= 0.0 else d, _POS))
        if d < 0.0:
            return _iv(_div(b, d if b >= 0.0 else c, _NEG),
                       _div(a, c if a >= 0.0 else d, _POS))
        raise DivisionByZeroInterval(f"divisor {other} contains zero")

    def scale(self, a: float) -> "Interval":
        lo, hi = (self.lo, self.hi) if a >= 0.0 else (self.hi, self.lo)
        return _iv(_mul(a, lo, _NEG), _mul(a, hi, _POS))

    def hull(self, other: "Interval") -> "Interval":
        return _iv(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return None if lo > hi else _iv(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


_set_lo, _set_hi = Interval.lo.__set__, Interval.hi.__set__


def _iv(lo: float, hi: float) -> Interval:
    """Interval(lo, hi) without the check, for ends known to be valid."""
    iv = object.__new__(Interval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


def _pow_float(x: float, n: int) -> float:
    try:
        return x**n
    except OverflowError:
        return -math.inf if (x < 0.0 and n % 2 == 1) else math.inf


def ipow(x: Interval, n: int) -> Interval:
    """x**n for integer n, exact for monomials.

    Even powers of sign-spanning intervals start at 0; negative exponents
    go through interval division (and hence reject 0-containing bases).
    """
    if n == 0:
        return _iv(1.0, 1.0)
    if n == 1:
        return x
    if n < 0:
        return _iv(1.0, 1.0) / ipow(x, -n)
    # even powers fall over the negatives, so there the ends swap
    lo, hi = (x.hi, x.lo) if n % 2 == 0 and x.hi < 0.0 else (x.lo, x.hi)
    if n % 2 == 0 and lo <= 0.0 <= hi:
        return _iv(0.0, max(_pow(lo, n, _POS), _pow(hi, n, _POS)))
    return _iv(_pow(lo, n, _NEG), _pow(hi, n, _POS))


def isqrt(x: Interval) -> Interval:
    if x.lo < 0.0:
        raise DomainError(f"sqrt of interval with negative lower bound: {x}")
    lo, hi = math.sqrt(x.lo), math.sqrt(x.hi)
    return _iv(_quotient(lo, lo, x.lo, _NEG), _quotient(hi, hi, x.hi, _POS))


def _exp_float(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def iexp(x: Interval) -> Interval:
    return _iv(max(0.0, _libm(_exp_float(x.lo), _NEG)), _libm(_exp_float(x.hi), _POS))


def _libm_out(lo: float, hi: float) -> tuple[float, float]:
    """lo <= hi, two sin, cos or arctan values, moved outward by the budget.

    A zero is exact: sin and arctan are 0 only at 0, and cos at no float.
    """
    return (lo if lo == 0.0 else _libm(lo, _NEG)), (hi if hi == 0.0 else _libm(hi, _POS))


def iarctan(x: Interval) -> Interval:
    return _iv(*_libm_out(math.atan(x.lo), math.atan(x.hi)))


def iabs(x: Interval) -> Interval:
    if x.lo >= 0.0:
        return x
    if x.hi <= 0.0:
        return -x
    return _iv(0.0, max(-x.lo, x.hi))


def imin(x: Interval, y: Interval) -> Interval:
    return _iv(min(x.lo, y.lo), min(x.hi, y.hi))


def imax(x: Interval, y: Interval) -> Interval:
    return _iv(max(x.lo, y.lo), max(x.hi, y.hi))


def _trig_range(x: Interval, fn, crest_phase: float, trough_phase: float) -> Interval:
    """Range of sin/cos over x: endpoint values plus any interior extrema.
    An unbounded x holds whole periods (and libm raises on inf)."""
    if not x.finite_both:
        return _iv(-1.0, 1.0)
    a, b = fn(x.lo), fn(x.hi)
    lo, hi = _libm_out(a, b) if a <= b else _libm_out(b, a)
    # k*2pi + phase inside [x.lo, x.hi] pins the extremum at +-1
    if _phase_inside(x, crest_phase):
        hi = 1.0
    if _phase_inside(x, trough_phase):
        lo = -1.0
    return _iv(max(lo, -1.0), min(hi, 1.0))


def _phase_inside(x: Interval, phase: float) -> bool:
    """Whether phase + 2*pi*k lies in x for some integer k, or may.

    x is widened on both sides by more than the rounding error of
    phase + k * _TWO_PI against the real extremum, so a miss is certain
    and a near miss reports a hit, which only widens the range.  The widened
    lower end stops at -_MAXF, so k stays finite for x = [-MAXF, ...].
    """
    slack = 1e-15 * (8.0 + max(-x.lo, x.hi))
    k = math.ceil((max(x.lo - slack, -_MAXF) - phase) / _TWO_PI)
    return phase + k * _TWO_PI <= x.hi + slack


def isin(x: Interval) -> Interval:
    return _trig_range(x, math.sin, math.pi / 2.0, 3.0 * math.pi / 2.0)


def icos(x: Interval) -> Interval:
    return _trig_range(x, math.cos, 0.0, math.pi)


class Box:
    """Axis-aligned interval vector; immutable after construction."""

    __slots__ = ("dims",)

    def __init__(self, dims: Iterable[Interval]):
        object.__setattr__(self, "dims", tuple(dims))

    def __setattr__(self, name, value):
        raise AttributeError("Box is immutable")

    def __reduce__(self):  # pickle and copy rebuild it, as __setattr__ blocks a slot restore
        return Box, (self.dims,)

    # The constructors store float ends, so a box given as ints computes
    # and prints like one given as floats; 1.0 * x keeps a -0.0 and, unlike
    # float(x), still rejects a string.

    @staticmethod
    def from_bounds(lo: Sequence[float], hi: Sequence[float]) -> "Box":
        if len(lo) != len(hi):
            raise DimensionMismatch("lo/hi length mismatch")
        return Box(Interval(1.0 * a, 1.0 * b) for a, b in zip(lo, hi))

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence[float]]) -> "Box":
        return Box(Interval(*(1.0 * x for x in p)) for p in pairs)

    @staticmethod
    def point(p: Sequence[float]) -> "Box":
        return Box(Interval.point(x) for x in p)

    def __len__(self) -> int:
        return len(self.dims)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.dims)

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Box) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return "Box(" + " x ".join(map(repr, self.dims)) + ")"

    @property
    def lo(self) -> tuple[float, ...]:
        return tuple(d.lo for d in self.dims)

    @property
    def hi(self) -> tuple[float, ...]:
        return tuple(d.hi for d in self.dims)

    def midpoint(self) -> tuple[float, ...]:
        return tuple(d.mid for d in self.dims)

    def widths(self) -> tuple[float, ...]:
        return tuple(d.width for d in self.dims)

    def concat(self, other: "Box") -> "Box":
        return Box(self.dims + other.dims)

    def replace(self, i: int, iv: Interval) -> "Box":
        dims = list(self.dims)
        dims[i] = iv
        return Box(dims)

    def contains_point(self, p: Sequence[float], tol: float = 0.0) -> bool:
        self._check_dim(len(p))
        return all(d.contains(x, tol) for d, x in zip(self.dims, p))

    def contains_box(self, other: "Box", tol: float = 0.0) -> bool:
        self._check_dim(len(other))
        return all(a.contains_interval(b, tol) for a, b in zip(self.dims, other.dims))

    def intersect(self, other: "Box") -> "Box | None":
        """Componentwise intersection; None signals an empty overlap."""
        self._check_dim(len(other))
        out = []
        for a, b in zip(self.dims, other.dims):
            iv = a.intersect(b)
            if iv is None:
                return None
            out.append(iv)
        return Box(out)

    def hull(self, other: "Box") -> "Box":
        self._check_dim(len(other))
        return Box(a.hull(b) for a, b in zip(self.dims, other.dims))

    def bisect(self, dim: int) -> tuple["Box", "Box"]:
        if not 0 <= dim < len(self.dims):
            raise DimensionMismatch(f"bisect dimension {dim} out of range")
        d = self.dims[dim]
        m = d.mid
        return self.replace(dim, Interval(d.lo, m)), self.replace(dim, Interval(m, d.hi))

    def vertices(self) -> Iterator[tuple[float, ...]]:
        """All 2^n corner points (degenerate dims contribute one choice)."""
        return itertools.product(*((d.lo,) if d.lo == d.hi else (d.lo, d.hi) for d in self.dims))

    def _check_dim(self, n: int) -> None:
        if len(self.dims) != n:
            raise DimensionMismatch(f"box dimension {len(self.dims)} != {n}")


def excess(x: float, y: float) -> float:
    """x - y, and 0 for equal ends, also infinite ones (where x - y is nan)."""
    return 0.0 if x == y else x - y


def hausdorff_q_interval(a: Interval, b: Interval) -> float:
    """Endpoint Hausdorff distance between two intervals."""
    return max(abs(excess(a.lo, b.lo)), abs(excess(a.hi, b.hi)))


def hausdorff_q(a: Box, b: Box) -> float:
    """Maximum dimension-wise endpoint Hausdorff distance between boxes."""
    if len(a) != len(b):
        raise DimensionMismatch(f"box dimensions {len(a)} != {len(b)}")
    return max((hausdorff_q_interval(x, y) for x, y in zip(a, b)), default=0.0)
