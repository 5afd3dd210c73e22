"""Each lane operator against its scalar twin, over a grid of endpoints with
signed zeros, exact and inexact products, tiny and huge values: on every
lane that the operator leaves clean, the result is bit-identical."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mixmono import expr as scalar
from mixmono.interval import Interval, iabs, iarctan, icos, iexp, imax, imin, ipow, isin, isqrt
from mixmono.lanes import _ClarkePass, _LaneInterval, _PointPass

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
    "imin": (lambda p, x, y: p.imin(x, y), imin),
    "imax": (lambda p, x, y: p.imax(x, y), imax),
}
UNARY_OPS = {
    "neg": (lambda p, x: -x, lambda x: -x),
    "scale2": (lambda p, x: x.scale(2.0), lambda x: x.scale(2.0)),
    "scale-3": (lambda p, x: x.scale(-3.0), lambda x: x.scale(-3.0)),
    "isin": (lambda p, x: p.isin(x), isin),
    "icos": (lambda p, x: p.icos(x), icos),
    "iexp": (lambda p, x: p.iexp(x), iexp),
    "isqrt": (lambda p, x: p.isqrt(x), isqrt),
    "iarctan": (lambda p, x: p.iarctan(x), iarctan),
    "iabs": (lambda p, x: p.iabs(x), iabs),
    **{f"ipow{n}": ((lambda p, x, n=n: p.ipow(x, n)), (lambda x, n=n: ipow(x, n)))
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
