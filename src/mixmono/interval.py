"""Closed-interval and interval-vector (box) arithmetic.

Every operation is pure and bounds the range of its operator over its
arguments, but computes the endpoints in floating point rounded to nearest,
so an endpoint can miss the exact range by an ULP.  Only the optional
inflate mode, which widens each computed endpoint outward by a few ULPs,
guards against that; it is off by default because the test suites work
with tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, DivisionByZeroInterval, DomainError

_INFLATE_ULPS = 0
_TWO_PI = 2.0 * math.pi


def set_inflate_mode(enabled: bool, ulps: int = 4) -> None:
    """Globally enable/disable outward widening of interval endpoints."""
    global _INFLATE_ULPS
    _INFLATE_ULPS = ulps if enabled else 0


def _step_down(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, -math.inf)
    return x


def _step_up(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, math.inf)
    return x


_MAXF = float_info.max


def saturate(x: float, upper: bool) -> float:
    """Clamp an overflowed or indeterminate value to the largest finite float.

    NaN (e.g. from inf - inf during a blown-up propagation) degrades to the
    maximally conservative endpoint for its side; the result is still a sound
    enclosure for any representable true value.
    """
    if math.isnan(x):
        return _MAXF if upper else -_MAXF
    return max(-_MAXF, min(_MAXF, x))


@dataclass(frozen=True)
class Interval:
    """Closed real interval [lo, hi] with finite endpoints.

    Overflowed (infinite) endpoints saturate to the largest finite float so
    long divergent propagations stay representable instead of erroring.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise DomainError(f"interval endpoints must not be NaN: [{self.lo}, {self.hi}]")
        if not math.isfinite(self.lo):
            object.__setattr__(self, "lo", saturate(self.lo, upper=False))
        if not math.isfinite(self.hi):
            object.__setattr__(self, "hi", saturate(self.hi, upper=True))
        if self.lo > self.hi:
            raise DomainError(f"interval lower bound exceeds upper: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @staticmethod
    def make(lo: float, hi: float) -> "Interval":
        """Build an interval, applying the inflate mode if active."""
        if _INFLATE_ULPS:
            lo = _step_down(lo, _INFLATE_ULPS)
            hi = _step_up(hi, _INFLATE_ULPS)
        return Interval(lo, hi)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def contains_interval(self, other: "Interval", tol: float = 0.0) -> bool:
        return self.lo - tol <= other.lo and other.hi <= self.hi + tol

    def straddles_zero(self) -> bool:
        return self.lo < 0.0 < self.hi

    # --- arithmetic -------------------------------------------------

    def __add__(self, other: "Interval") -> "Interval":
        return Interval.make(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval.make(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Interval.make(min(c), max(c))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise DivisionByZeroInterval(f"divisor {other} contains zero")
        c = (self.lo / other.lo, self.lo / other.hi,
             self.hi / other.lo, self.hi / other.hi)
        return Interval.make(min(c), max(c))

    def scale(self, a: float) -> "Interval":
        return Interval.make(*sorted((a * self.lo, a * self.hi)))

    def hull(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        return None if lo > hi else Interval(lo, hi)

    def __repr__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


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
        return Interval(1.0, 1.0)
    if n < 0:
        return Interval(1.0, 1.0) / ipow(x, -n)
    a, b = _pow_float(x.lo, n), _pow_float(x.hi, n)
    if n % 2 == 0:
        if x.lo <= 0.0 <= x.hi:
            return Interval.make(0.0, max(a, b))
        return Interval.make(min(a, b), max(a, b))
    return Interval.make(a, b)


def isqrt(x: Interval) -> Interval:
    if x.lo < 0.0:
        raise DomainError(f"sqrt of interval with negative lower bound: {x}")
    return Interval.make(math.sqrt(x.lo), math.sqrt(x.hi))


def _exp_float(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def iexp(x: Interval) -> Interval:
    return Interval.make(_exp_float(x.lo), _exp_float(x.hi))


def iarctan(x: Interval) -> Interval:
    return Interval.make(math.atan(x.lo), math.atan(x.hi))


def iabs(x: Interval) -> Interval:
    if x.lo >= 0.0:
        return x
    if x.hi <= 0.0:
        return -x
    return Interval(0.0, max(-x.lo, x.hi))


def imin(x: Interval, y: Interval) -> Interval:
    return Interval(min(x.lo, y.lo), min(x.hi, y.hi))


def imax(x: Interval, y: Interval) -> Interval:
    return Interval(max(x.lo, y.lo), max(x.hi, y.hi))


def _trig_range(x: Interval, fn, crest_phase: float, trough_phase: float) -> Interval:
    """Range of sin/cos over x: endpoint values plus any interior extrema."""
    lo, hi = min(fn(x.lo), fn(x.hi)), max(fn(x.lo), fn(x.hi))
    # k*2pi + phase inside [x.lo, x.hi] pins the extremum at +-1
    if _phase_inside(x, crest_phase):
        hi = 1.0
    if _phase_inside(x, trough_phase):
        lo = -1.0
    return Interval.make(max(lo, -1.0), min(hi, 1.0))


def _phase_inside(x: Interval, phase: float) -> bool:
    k = math.ceil((x.lo - phase) / _TWO_PI)
    return phase + k * _TWO_PI <= x.hi


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

    @staticmethod
    def from_bounds(lo: Sequence[float], hi: Sequence[float]) -> "Box":
        if len(lo) != len(hi):
            raise DimensionMismatch("lo/hi length mismatch")
        return Box(Interval(a, b) for a, b in zip(lo, hi))

    @staticmethod
    def from_pairs(pairs: Sequence[Sequence[float]]) -> "Box":
        return Box(Interval(p[0], p[1]) for p in pairs)

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

    def diameter(self) -> float:
        return max((d.width for d in self.dims), default=0.0)

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
        n = len(self.dims)
        choices = [(d.lo,) if d.lo == d.hi else (d.lo, d.hi) for d in self.dims]
        idx = [0] * n
        while True:
            yield tuple(choices[j][idx[j]] for j in range(n))
            j = n - 1
            while j >= 0:
                idx[j] += 1
                if idx[j] < len(choices[j]):
                    break
                idx[j] = 0
                j -= 1
            if j < 0:
                return

    def _check_dim(self, n: int) -> None:
        if len(self.dims) != n:
            raise DimensionMismatch(f"box dimension {len(self.dims)} != {n}")


def hausdorff_q_interval(a: Interval, b: Interval) -> float:
    """Endpoint Hausdorff distance between two intervals."""
    return max(abs(a.lo - b.lo), abs(a.hi - b.hi))


def hausdorff_q(a: Box, b: Box) -> float:
    """Maximum dimension-wise endpoint Hausdorff distance between boxes."""
    if len(a) != len(b):
        raise DimensionMismatch(f"box dimensions {len(a)} != {len(b)}")
    return max((hausdorff_q_interval(x, y) for x, y in zip(a, b)), default=0.0)
