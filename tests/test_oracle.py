"""Natural interval evaluation and Clarke bounds against an exact oracle.

mpmath's interval arithmetic at 120 bits encloses the real value of an
expression at a float point to far below one ULP of a double, and its
forward-mode twin (`_Dual`) the real value of a partial derivative.  The
natural enclosure over a box must hold the oracle's value, and each Clarke
bound the oracle's partial, at every corner and at sampled float points of
the box, with no tolerance.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import iv

from mixmono import NATURAL, Box, apply_method, clarke_jacobian_bounds, eval_interval, parse_expr
from mixmono.errors import MixmonoError
from mixmono.expr import Binary, Const, Div, Pow, Prod, Sum, Unary, Var

from conftest import rand_box, rand_instance

_UNARY = {
    "neg": lambda x: -x, "sin": iv.sin, "cos": iv.cos, "exp": iv.exp,
    "sqrt": iv.sqrt, "arctan": lambda x: iv.atan2(x, 1), "abs": abs,
}


def _hull_pick(op, a, b):
    pick = min if op == "min" else max
    return iv.mpf([pick(a.a, b.a), pick(a.b, b.b)])


def _oracle(e, z, leaf=lambda x, index: iv.mpf(x), unary=_UNARY, binary=_hull_pick):
    """An mpmath interval holding the real value of e at the float point z.

    leaf(x, index) lifts a constant (index None) or the coordinate z[index],
    and unary and binary hold the functions and min/max, so the same walk
    runs over _Dual numbers."""
    walk = partial(_oracle, z=z, leaf=leaf, unary=unary, binary=binary)
    if isinstance(e, Const):
        return leaf(e.value, None)
    if isinstance(e, Var):
        return leaf(z[e.index], e.index)
    if isinstance(e, Unary):
        return unary[e.op](walk(e.child))
    if isinstance(e, Pow):
        return walk(e.child) ** e.exponent
    if isinstance(e, Div):
        return walk(e.num) / walk(e.den)
    if isinstance(e, Binary):
        return binary(e.op, walk(e.left), walk(e.right))
    values = [walk(c) for c in e.children]
    acc = values[0]
    for v in values[1:]:
        acc = acc + v if isinstance(e, Sum) else acc * v
    return acc


@contextlib.contextmanager
def _exact():
    prec = iv.prec
    iv.prec = 120
    try:
        yield
    finally:
        iv.prec = prec


def _points(box, rng, count=8):
    """Every finite corner of box, and count uniform float points clamped
    into it if its widths are finite."""
    lo, hi = np.asarray(box.lo), np.asarray(box.hi)
    corners = [z for z in box.vertices() if np.isfinite(z).all()]
    if not np.isfinite(box.widths()).all():
        return corners
    samples = np.clip(rng.uniform(lo, hi, size=(count, len(box))), lo, hi)
    return [*corners, *(tuple(map(float, p)) for p in samples)]


def _check(expr, box, rng):
    enclosures = [eval_interval(expr, box), apply_method(NATURAL, [expr], box)[0]]
    with _exact():
        for z in _points(box, rng):
            exact = _oracle(expr, z)
            for enc in enclosures:
                assert enc.lo <= exact.a and exact.b <= enc.hi, (z, enc, exact)


# seeds whose expressions the round-to-nearest operators enclosed wrongly
@example(seed=2)
@example(seed=3)
@example(seed=18)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_natural_enclosure_holds_the_exact_image(seed):
    rng = np.random.default_rng(seed)
    inst = rand_instance(rng)
    _check(inst.expr, inst.box, rng)


# the operators rand_instance leaves out, with denominators away from 0
OTHER_EXPRESSIONS = (
    "x1/(2 + x2^2)", "sqrt(x1^2 + 1)", "arctan(x1*x2)", "(x1^2 + 0.1)^-2",
    "exp(-x1)*sin(x2)/(1.5 + cos(x1))", "-x1^3 + x1*x2 - x2",
)


@given(st.sampled_from(OTHER_EXPRESSIONS), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_other_operators_hold_the_exact_image(text, seed):
    rng = np.random.default_rng(seed)
    _check(parse_expr(text, ["x1", "x2"]), rand_box(rng, 2), rng)


SCALES = (100, 200, 300, 306, 307, 308)


@pytest.mark.parametrize("k", SCALES)
def test_natural_holds_the_exact_image_past_the_largest_float(k):
    # the random boxes scaled by 10^k: their images, and at k = 308 their
    # ends, pass the largest float, where an end must round outward to inf
    for seed in range(300):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng)
        with np.errstate(over="ignore"):
            lo, hi = np.asarray(inst.box.lo) * 10.0**k, np.asarray(inst.box.hi) * 10.0**k
        if (lo == np.inf).any() or (hi == -np.inf).any():
            continue  # both ends of a side are past the largest float: no real point
        _check(inst.expr, Box.from_bounds(lo.tolist(), hi.tolist()), rng)


# -- Clarke bounds against forward-mode differentiation ---------------------


class _Kink(Exception):
    """The point lies where abs, min or max has no derivative, or sqrt an
    infinite one."""


@dataclass(frozen=True)
class _Dual:
    """A value and its derivative in one coordinate, as mpmath intervals."""

    v: object
    d: object

    def __add__(self, other):
        return _Dual(self.v + other.v, self.d + other.d)

    def __mul__(self, other):
        return _Dual(self.v * other.v, self.d * other.v + self.v * other.d)

    def __truediv__(self, other):
        return _Dual(self.v / other.v, (self.d * other.v - self.v * other.d) / other.v**2)

    def __pow__(self, n: int):
        if n == 0:
            return _Dual(iv.mpf(1), iv.mpf(0))
        return _Dual(self.v**n, n * self.v ** (n - 1) * self.d)

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __abs__(self):
        if self.v.a > 0:
            return self
        if self.v.b < 0:
            return -self
        raise _Kink


def _sqrt(x: _Dual) -> _Dual:
    if x.v.a <= 0:
        raise _Kink
    root = iv.sqrt(x.v)
    return _Dual(root, x.d / (2 * root))


_DUAL_UNARY = {
    "neg": lambda x: -x, "abs": abs, "sqrt": _sqrt,
    "sin": lambda x: _Dual(iv.sin(x.v), iv.cos(x.v) * x.d),
    "cos": lambda x: _Dual(iv.cos(x.v), -iv.sin(x.v) * x.d),
    "exp": lambda x: _Dual(iv.exp(x.v), iv.exp(x.v) * x.d),
    "arctan": lambda x: _Dual(iv.atan2(x.v, 1), x.d / (1 + x.v**2)),
}


def _dual_branch(op, a: _Dual, b: _Dual) -> _Dual:
    """The branch that wins outright; a tie is a kink."""
    if (a.v.b < b.v.a) if op == "min" else (a.v.a > b.v.b):
        return a
    if (b.v.b < a.v.a) if op == "min" else (b.v.a > a.v.b):
        return b
    raise _Kink


def _seed(j: int, x: float, index) -> _Dual:
    return _Dual(iv.mpf(x), iv.mpf(1 if index == j else 0))


def clarke_misses(expr, box, rng) -> list:
    """The (point, column, bound, exact partial) of each Clarke bound of expr
    over box that misses the exact partial at a corner or sampled point;
    points on a kink are skipped, and a box whose bounds raise has none."""
    try:
        jac = clarke_jacobian_bounds([expr], box)
    except MixmonoError:
        return []
    misses = []
    with _exact():
        for z in _points(box, rng):
            for j, bound in enumerate(jac.row(0)):
                try:
                    exact = _oracle(expr, z, partial(_seed, j), _DUAL_UNARY, _dual_branch).d
                except _Kink:
                    continue
                if not (bound.lo <= exact.a and exact.b <= bound.hi):
                    misses.append((z, j, bound, exact))
    return misses


# seeds whose boxes the round-to-nearest partials missed
@example(seed=0)
@example(seed=7)
@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_clarke_bounds_hold_the_exact_partials(seed):
    rng = np.random.default_rng(seed)
    inst = rand_instance(rng)
    assert clarke_misses(inst.expr, inst.box, rng) == []


# C and D are seeded constants
FAMILIES = ("C*x1*x1 + D*x2", "C*sin(x1) + D*exp(x2)*x1", "sqrt(x1*x1 + 1)*D - C*x2")


def family_case(text: str, seed: int):
    """(expr, box, rng) of family text at seed: C and D drawn from [-2, 2]."""
    rng = np.random.default_rng(seed)
    c, d = rng.uniform(-2.0, 2.0, size=2).tolist()
    expr = parse_expr(text.replace("C", f"({c!r})").replace("D", f"({d!r})"), ["x1", "x2"])
    return expr, rand_box(rng, 2), rng


@pytest.mark.parametrize("text", FAMILIES)
def test_clarke_families_hold_the_exact_partials(text):
    for seed in range(100):
        expr, box, rng = family_case(text, seed)
        assert clarke_misses(expr, box, rng) == [], seed
