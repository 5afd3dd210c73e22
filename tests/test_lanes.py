"""Each lane operator against its scalar twin, over a grid of endpoints with
signed zeros, exact and inexact products, tiny and huge values: on every
lane that the operator leaves clean, the result is bit-identical."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mixmono import decomp
from mixmono import expr as scalar
from mixmono.decomp import SELECTORS
from mixmono.errors import MixmonoError
from mixmono.expr import clarke_jacobian_bounds, parse_expr
from mixmono.interval import Box, Interval, iabs, iarctan, icos, iexp, imax, imin, ipow, isin, isqrt
from mixmono.lanes import _LANE_BLOCK, _ClarkePass, _LaneInterval, _PointPass, enclose_cells

VALUES = (-1e200, -3.0, -1.0, -0.1, -1e-170, -0.0, 0.0, 1e-170, 0.1, 1.0 / 3.0, 1.0, 2.5, 1e200)
ENDS = [(a, b) for a in VALUES for b in VALUES if a <= b]


@pytest.fixture(autouse=True)
def _quiet_numpy():
    with np.errstate(all="ignore"):  # as in every lane pass
        yield


def _hex(values):
    return [float(x).hex() for x in values]


INTERVAL_OPS = {
    "add": (lambda p, x, y: x + y, lambda x, y: x + y),
    "mul": (lambda p, x, y: x * y, lambda x, y: x * y),
    "div": (lambda p, x, y: x / y, lambda x, y: x / y),
    "imin": (lambda p, x, y: p.min(x, y), imin),
    "imax": (lambda p, x, y: p.max(x, y), imax),
}
UNARY_OPS = {
    "neg": (lambda p, x: -x, lambda x: -x),
    "scale2": (lambda p, x: x.scale(2.0), lambda x: x.scale(2.0)),
    "scale-3": (lambda p, x: x.scale(-3.0), lambda x: x.scale(-3.0)),
    "isin": (lambda p, x: p.sin(x), isin),
    "icos": (lambda p, x: p.cos(x), icos),
    "iexp": (lambda p, x: p.exp(x), iexp),
    "isqrt": (lambda p, x: p.sqrt(x), isqrt),
    "iarctan": (lambda p, x: p.atan(x), iarctan),
    "iabs": (lambda p, x: p.abs(x), iabs),
    **{f"ipow{n}": ((lambda p, x, n=n: p.pow_float(x, n)), (lambda x, n=n: ipow(x, n)))
       for n in (-2, 0, 1, 2, 3, 4, 10**6)},  # 10**6: 0, +-1 and inexact ends only
}


def _scalar_or_none(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a raising lane must be flagged; None never matches
        return None


def _compare(lane_fn, scalar_fn, args):
    """lane_fn over every lane against scalar_fn per lane: each clean lane
    gives the scalar result's ends.  args holds, per argument, the list of
    each lane's (lo, hi) pair, wrapped in a tuple for an interval argument;
    returns the number of clean lanes."""
    count = len(args[0][0] if isinstance(args[0], tuple) else args[0])
    lanes = _ClarkePass(count)
    out = lane_fn(lanes, *[_LaneInterval(np.array(a[0], dtype=float).T, lanes)
                           if isinstance(a, tuple) else np.array(a, dtype=float).T for a in args])
    out = np.broadcast_to(out.v if isinstance(out, _LaneInterval) else out, (2, count))
    clean = [i for i in range(count) if not lanes.bad[i]]
    for i in clean:
        lane_args = [Interval(*a[0][i]) if isinstance(a, tuple) else a[i] for a in args]
        got = _scalar_or_none(scalar_fn, *lane_args)
        assert got is not None, lane_args
        assert _hex(out[:, i]) == _hex((got.lo, got.hi) if isinstance(got, Interval) else got), lane_args
    return len(clean)


@pytest.mark.parametrize("name", sorted(INTERVAL_OPS))
def test_binary_interval_operators(name):
    xs, ys = zip(*[(x, y) for x in ENDS for y in ENDS])
    assert _compare(*INTERVAL_OPS[name], [(list(xs),), (list(ys),)]) > len(xs) // 4


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_unary_interval_operators(name):
    assert _compare(*UNARY_OPS[name], [(ENDS,)]) > 0


def test_clarke_rules():
    # the rules that pick a branch per lane (abs, min, max) and the
    # quotient's division over v^2 or 2*sqrt(u), on lane intervals, against
    # the scalar rules on Intervals
    xs, ys = map(list, zip(*[(x, y) for x in ENDS for y in ENDS]))
    assert _compare(lambda p, v, d: p.abs_rule(v)(d),
                    lambda v, d: scalar._abs_rule(v)(d), [(xs,), (ys,)]) > len(xs) // 2
    for rule in ("min_rule", "max_rule"):
        assert _compare(lambda p, u, v, a, b: getattr(p, rule)(u, v)(a, b),
                        lambda u, v, a, b: getattr(scalar, "_" + rule)(u, v)(a, b),
                        [(xs,), (ys,), (ys,), (xs,)]) > len(xs) // 2
    dens = [(x, y) for x, y in ys if x >= 0.0]
    nums = [a for a, (x, _) in zip(xs, ys) if x >= 0.0]
    assert _compare(lambda p, a, d: p.xdiv_pos(a, d), scalar._xdiv_pos, [(nums,), (dens,)]) > 0


POINT_VALUES = VALUES + (math.inf, -math.inf, math.nan, 710.0, -745.5)
POINT_OPS = {
    "min": min, "max": max, "div": scalar._POINT_NAMES["div"],
    "sin": math.sin, "cos": math.cos, "exp": scalar._POINT_NAMES["exp"], "sqrt": math.sqrt,
    "atan": math.atan, "abs": abs,
}


@pytest.mark.parametrize("name", sorted(POINT_OPS))
def test_point_operators(name):
    fn = POINT_OPS[name]
    arity = 2 if name in ("min", "max", "div") else 1
    args = list(zip(*[(x, y) for x in POINT_VALUES for y in POINT_VALUES]))[:arity]
    if arity == 1:
        args = [list(POINT_VALUES)]
    lanes = _PointPass(len(args[0]))
    out = getattr(lanes, name)(*[np.array(a) for a in args])
    for i, value in enumerate(out.tolist()):
        if lanes.bad[i] or not math.isfinite(value):
            continue  # a lane the caller sends to the scalar code
        want = _scalar_or_none(fn, *[a[i] for a in args])
        assert want is not None and float(want).hex() == value.hex(), (name, [a[i] for a in args])


def test_point_powers_and_sums():
    lanes = _PointPass(len(POINT_VALUES))
    x = np.array(POINT_VALUES)
    for n in (-3, -1, 0, 2, 5):
        out = lanes.pow_float(x, n)
        for i, v in enumerate(out.tolist()):
            if not lanes.bad[i] and math.isfinite(v):
                want = _scalar_or_none(scalar._POINT_NAMES["pow_float"], POINT_VALUES[i], n)
                assert want is not None and float(want).hex() == v.hex()
    terms = (x, x[::-1], np.full(len(x), -0.0))
    got = lanes.fsum(terms).tolist()
    want = [scalar._fsum(t) for t in zip(*(t.tolist() for t in terms))]
    assert [g.hex() for g in got] == [float(w).hex() for w in want]


# Products by a lane column: a column the same in every lane, as the Clarke
# pass binds a constant or a folded partial.  A point column (both ends the
# same float, with the same sign of zero; VALUES holds 0.0 and -0.0) takes
# `scale`, every other one the sign cases.
POINT_COLUMNS = [(v, v) for v in VALUES]
SPAN_COLUMNS = [(-0.0, 0.0), (-1.0, 2.0), (1e-170, 1e200)]


@pytest.mark.parametrize("column", POINT_COLUMNS + SPAN_COLUMNS, ids=repr)
def test_products_by_a_lane_column(column, monkeypatch):
    scaled = []
    real_scale = _LaneInterval.scale
    monkeypatch.setattr(_LaneInterval, "scale", lambda x, a: scaled.append(a) or real_scale(x, a))
    lanes = _ClarkePass(len(ENDS))
    x = _LaneInterval(np.array(ENDS, dtype=float).T, lanes)
    col = _LaneInterval(np.array([[column[0]], [column[1]]]), lanes)
    products = {"lane * column": (x * col).v, "column * lane": (col * x).v}
    assert len(scaled) == (2 if _hex(column[:1]) == _hex(column[1:]) else 0)
    clean = [i for i in range(len(ENDS)) if not lanes.bad[i]]
    assert len(clean) > len(ENDS) // 2
    for i in clean:
        lane, c = Interval(*ENDS[i]), Interval(*column)
        for name, want in (("lane * column", lane * c), ("column * lane", c * lane)):
            assert _hex(products[name][:, i]) == _hex((want.lo, want.hi)), (name, ENDS[i], column)


# The one corner pass per row: enclose_cells against decomp.enclose on cells
# with zero-width coordinates and -0.0 ends, whose remainder terms can be
# -0.0 (hi - lo of [0.0, -0.0]) and reach the inline sums of one or two
# terms, and, in three variables, a cell whose terms overflow fsum
COORDINATES = [(0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (0.5, 0.5), (-1.0, 0.25), (-2.0, -0.5)]
CORNER_CASES = [
    (["-abs(x1)", "x1^3 - 0.5*x1", "exp(x1)*x1 - sin(x1)"], COORDINATES, []),
    (["-abs(x1) - abs(x2)", "x1*x2 - abs(x1 - x2)", "min(x1, x2) - x2^2"], COORDINATES, []),
    (["sin(x1) + sin(x2) + sin(x3) - abs(x1*x3)", "x1*x2*x3 - abs(x2) + cos(x3)"],
     [COORDINATES[0], COORDINATES[3], COORDINATES[4]], [[(0.0, 1e308)] * 3]),
]


@pytest.mark.parametrize("kind", SELECTORS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_corner_pass_matches_enclose(n, kind):
    texts, coordinates, extra = CORNER_CASES[n - 1]
    cells = [Box.from_pairs(p) for p in [*itertools.product(coordinates, repeat=n), *extra]]
    assert len(cells) <= _LANE_BLOCK  # one lane pass, so an overflow lane shares it
    names, clean = [f"x{j + 1}" for j in range(n)], 0
    for text in texts:
        f = [parse_expr(text, names)]
        lanes = enclose_cells(kind, f, None, cells)
        for cell, got in zip(cells, lanes):
            try:
                want = decomp.enclose(f, clarke_jacobian_bounds(f, cell), cell, kind)
            except MixmonoError:
                assert got is None, (text, cell)
                continue
            if got is not None:
                assert [_hex((d.lo, d.hi)) for d in got] == [_hex((d.lo, d.hi)) for d in want], (text, cell)
        clean += sum(got is not None for got in lanes)
        if extra:
            assert lanes[-1] is None  # its upper sum overflows: the scalar code runs it
    assert clean > len(cells) * len(texts) // 4
