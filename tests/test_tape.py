"""Point, interval, Clarke and numpy evaluation of the lowered expression tape,
and the continuous-time embedding built on it."""

from __future__ import annotations

import hashlib
import itertools
import math
import pickle

import numpy as np
import pytest

import mixmono.decomp
import mixmono.expr
import mixmono.inclusion
from mixmono import (
    CENTERED,
    JACOBIAN_SIGN,
    MIXED_CENTERED,
    NATURAL,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    apply_method,
    best_of_method,
    clarke_jacobian_bounds,
    default_jac_provider,
    eval_interval,
    eval_point,
    error_bounds,
    eval_vec,
    load_bundled,
    parse_expr,
    parse_model,
    subdivide_apply,
    t_l_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from mixmono.errors import DivisionByZeroInterval, DomainError, NotSignStable, UnboundedBothSides
from mixmono.expr import _CLARKE_NAMES, ZERO_PARTIAL, _fold_add, _fsum
from mixmono.inclusion import subdivide_box
from mixmono.interval import Interval, isin
from mixmono.lanes import _ClarkePass, _LaneInterval, _run, enclose_cells, jacobian_lanes, point_lanes
from mixmono.model import bundled_models
from mixmono.reach import _embedding_field

from conftest import rand_instance
from test_interval import GRID, GRID_ENDS

# sha256 of every point and interval value below, recorded when the Clarke
# bounds moved to a digest of their own (the same stream as the one recorded
# when the interval operators began to round outward, less the bounds; the
# point values are those of the tree-walking evaluators that the tape
# replaced); any change to a single bit of any value changes it
EVALUATION_DIGEST = "b89e0b6833daf71b46225160ce4d847c7f521b9b47077397f76e8dfeda527ad8"
# sha256 of every Clarke bound below, recorded when the partials moved onto
# the outward interval operators
CLARKE_DIGEST = "48845bba35f553a2f8c790e9cfff8a02b3b8d162fa71cb0f537cd7e74efb2c6b"
# sha256 of the bytes of every eval_vec result below, recorded from the
# recursive numpy walker that the tape's numpy interpretation replaced
VECTOR_DIGEST = "811b50954bac4f352b5f0627cdcf68f4579509d5d64fbc230eb7ebc21c8d21fe"
# sha256 of every continuous-time embedding derivative below, recorded
# (with the interval engines among the methods) before the embedding
# derivative moved into the inclusion module's one method dispatcher,
# re-recorded when intervals took ends in the extended reals (only model
# big's stage 10 moved, outward: MAXF to inf, and a centered lower end 0 to
# -inf), and when the Clarke partials moved onto the outward interval
# operators (every end equal or outside, but for four one-ULP steps of the
# centered forms' own rounding; big's stage 10 now refuses its centered
# forms with InfiniteJacobianEntry), and when best_of dropped refusing
# members (only big's stage 10 moved: best_of(centered, mixed_centered,
# remainder) gives remainder's derivative where it raised that refusal)
EMBEDDING_DIGEST = "4a683bfda488c47683b71634ca9c0ad6521c55a6df1210ae0ac833916fc47bbb"
# sha256 of every discrete decomposition enclosure and remainder-form error
# bound below, recorded while each row's candidates were still built as a
# tuple of supporting-vector objects, and re-recorded when the Clarke
# partials moved onto the outward interval operators
DECOMPOSITION_DIGEST = "0f042db67ff12b2153180476cd696d571cbc6cbd42903ee7a1e222e648545536"

# signed zeros, division by intervals holding 0, kinks at ties, and every
# operator the random instances leave out
EDGE_EXPRESSIONS = (
    "-x1", "-(x1*x2)", "abs(-x1 - 2)", "-abs(x2)*-x1",
    "min(x1, x2) - max(-x1, x2)", "1/x1", "x1/(2 + x2^2)", "sqrt(x1^2 + 1)",
    "arctan(x1*x2)", "x1^-2", "(x1 - x2)^0", "exp(-x1)*sin(x2)/cos(x1)",
    "sqrt(x2)", "-(-x1)",
)


def _cases():
    for name in bundled_models():
        model = load_bundled(name)
        box = model.init.concat(model.disturbance)
        exprs = list(model.dynamics)
        if model.observation is not None:
            exprs += model.observation.exprs
        exprs += [c.expr for c in model.constraints]
        yield exprs, box
    for text in EDGE_EXPRESSIONS:
        e = parse_expr(text, ["x1", "x2"])
        yield [e], Box.from_pairs([(-1, 0.5), (0.2, 1.5)])
        yield [e], Box.from_pairs([(0.5, 2), (-0.3, -0.1)])
    rng = np.random.default_rng(7)
    for _ in range(200):
        inst = rand_instance(rng)
        yield [inst.expr], inst.box


# eval_vec cases on top of EDGE_EXPRESSIONS: roots that are a constant or a
# variable, a constant folded into a product, and negative powers
VECTOR_EDGE_EXPRESSIONS = ("2.5", "x2", "sin(2.0)*x1", "x1^-3 + x2^-1", "(x1 + x2)^-2")


def _outcome(fn, *args):
    """The floats fn returns, or the name of the error it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the error type is part of the pinned behaviour
        return type(exc).__name__


def _endpoints(iv):
    return [iv.lo, iv.hi]


def _jacobian_outcome(exprs, box):
    jac = _outcome(clarke_jacobian_bounds, exprs, box)
    if isinstance(jac, str):
        return jac
    return [x for row in jac.entries for c in row for x in (c.lo, c.hi)]


def _put(h, value):
    if isinstance(value, str):
        h.update(value.encode())
    else:
        for x in value:
            h.update(float(x).hex().encode())


def test_evaluations_are_bit_identical():
    h = hashlib.sha256()
    for exprs, box in _cases():
        points = [*box.vertices(), box.midpoint()]
        for e in exprs:
            for z in points:
                _put(h, _outcome(lambda: [eval_point(e, z)]))
            _put(h, _outcome(lambda: _endpoints(eval_interval(e, box))))
    assert h.hexdigest() == EVALUATION_DIGEST


def test_clarke_bounds_are_bit_identical():
    h = hashlib.sha256()
    for exprs, box in _cases():
        _put(h, _jacobian_outcome(exprs, box))
    assert h.hexdigest() == CLARKE_DIGEST


def _enclosure_outcome(engine, exprs, jac, box):
    try:
        enc = engine(exprs, jac, box)
    except NotSignStable as exc:
        return f"NotSignStable{exc.entries}"
    except Exception as exc:  # the error type is part of the pinned behaviour
        return type(exc).__name__
    return [x for d in enc for x in _endpoints(d)]


def test_decompositions_are_bit_identical():
    h = hashlib.sha256()
    for exprs, box in _cases():
        jac = _outcome(clarke_jacobian_bounds, exprs, box)
        if isinstance(jac, str):
            _put(h, jac)
            continue
        for engine in (t_r_inclusion, t_l_inclusion, t_o_vertex_inclusion):
            _put(h, _enclosure_outcome(engine, exprs, jac, box))
        for i, e in enumerate(exprs):
            eb = _outcome(error_bounds, e, jac.row(i), box)
            _put(h, eb if isinstance(eb, str) else [eb.q_upper, eb.q_upper_hat])
    assert h.hexdigest() == DECOMPOSITION_DIGEST


def test_clarke_of_constant_and_variable_roots():
    # a root that is a constant or a variable has no rule to apply, and a
    # constant subtree's partials are all zero; hex tells signed zeros apart
    box = Box.from_pairs([(-1, 0.5), (0.2, 1.5)])
    s = isin(Interval.point(2.0))
    expected = {
        "2.5": [0.0, 0.0, 0.0, 0.0],
        "x2": [0.0, 0.0, 1.0, 1.0],
        "sin(2.0)*x1": [s.lo, s.hi, 0.0, 0.0],
    }
    for text, row in expected.items():
        got = _jacobian_outcome([parse_expr(text, ["x1", "x2"])], box)
        assert list(map(float.hex, got)) == list(map(float.hex, row)), text


# roots that are a leaf or one operator over leaves, which read their
# constants and variables in place
LEAF_ROOTS = ("x2", "2.5", "-x1", "-(-3)", "3*x1", "x1*x1")
# sha256 of every LEAF_ROOTS value below, recorded while every leaf still
# had a local of its own, and re-recorded when a negated zero partial began
# to fold to Z (-x1's default: -0.0 ends to 0.0)
LEAF_DIGEST = "c24af1a29197ae82ec442c3f032036cab4cb4bab4c9c185099449d858f5923fe"


def _put_array(h, a):
    h.update(f"{a.dtype.str}{a.shape}".encode())
    h.update(np.ascontiguousarray(a).tobytes())


def test_leaf_roots_are_bit_identical():
    # point, interval, numpy, Clarke, and both lane passes
    box = Box.from_pairs([(-1, 0.5), (0.2, 1.5)])
    corners = np.array(list(box.vertices()), dtype=float).T
    cells = subdivide_box(box, 2)
    lo, hi = np.array([c.lo for c in cells]).T, np.array([c.hi for c in cells]).T
    h = hashlib.sha256()
    for text in LEAF_ROOTS:
        e = parse_expr(text, ["x1", "x2"])
        for z in box.vertices():
            _put(h, [eval_point(e, z)])
        _put(h, _endpoints(eval_interval(e, box)))
        _put_array(h, eval_vec(e, corners))
        _put(h, _jacobian_outcome([e], box))
        for a in (*point_lanes(e.tape, corners), *jacobian_lanes([e], None, lo, hi)):
            _put_array(h, a)
    assert h.hexdigest() == LEAF_DIGEST


def test_one_value_code_bound_three_ways():
    for text in ("x1*sin(x2) - 2.5", *LEAF_ROOTS):
        tape = parse_expr(text, ["x1", "x2"]).tape
        assert tape.interval.__code__ is tape.point.__code__
        assert tape.vec.__code__ is tape.point.__code__


def _bits(x: float) -> str:
    return "nan" if math.isnan(x) else float(x).hex()


def _sum_pairs() -> list[tuple[float, float]]:
    """The special-value grid's ends and NaN crossed with themselves, then
    10**4 seeded pairs: random bit patterns, which take every exponent,
    subnormals, infinities and NaNs among them, and pairs that nearly cancel."""
    pairs = list(itertools.product([*GRID_ENDS, math.nan], repeat=2))
    rng = np.random.default_rng(2405)
    pairs += map(tuple, rng.integers(0, 2**64, size=(5000, 2), dtype=np.uint64).view(np.float64).tolist())
    a = rng.standard_normal(5000) * 10.0 ** rng.integers(-300, 300, 5000)
    return pairs + list(zip(a.tolist(), (-a * (1.0 + 1e-12 * rng.standard_normal(5000))).tolist()))


def _two_term_sum_mismatches() -> list[tuple[float, float]]:
    """The pairs at which the point value of x1 + x2, compiled afresh, is not
    _fsum's bit for bit (NaN as NaN)."""
    e = parse_expr("x1 + x2", ["x1", "x2"])
    return [(a, b) for a, b in _sum_pairs() if _bits(eval_point(e, [a, b])) != _bits(_fsum((a, b)))]


def test_two_term_sums_add_inline_bit_for_bit():
    names = parse_expr("x1 + x2", ["x1", "x2"]).tape.point.__code__.co_names
    assert "zero" in names and "fsum" not in names
    assert "fsum" in parse_expr("x1 + x2 - 1", ["x1", "x2"]).tape.point.__code__.co_names
    assert _two_term_sum_mismatches() == []


def test_two_term_sums_without_the_leading_zero_differ(monkeypatch):
    # a + b alone gives -0.0 + -0.0 = -0.0, where fsum gives 0.0
    monkeypatch.setitem(mixmono.expr._POINT_CODE, "sum2", "{0} + {1}")
    assert (-0.0, -0.0) in _two_term_sum_mismatches()


def test_two_term_sums_bind_to_the_fold():
    # zero is an identity for the + of intervals, numpy arrays and lane
    # intervals, so each binding adds as _fold_add does; the corner lanes
    # add as the scalar point code
    tape = parse_expr("x1 + x2", ["x1", "x2"]).tape
    pairs = list(itertools.product(GRID, repeat=2))
    for x, y in pairs:
        got, want = tape.interval((x, y)), _fold_add((x, y))
        assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())
    ends = np.array([[[x.lo, x.hi] for x in side] for side in zip(*pairs)])  # (2, K, 2)
    lanes = _ClarkePass(len(pairs))
    z = [_LaneInterval(side.T.copy(), lanes) for side in ends]
    got = _run(tape.point.__code__, tape, lanes, _CLARKE_NAMES, lanes.constant, z)
    with np.errstate(all="ignore"):  # inf - inf is nan
        for k in range(2):
            assert tape.vec(ends[:, :, k]).tobytes() == _fold_add(tuple(ends[:, :, k])).tobytes()
        assert got.v.tobytes() == _fold_add(tuple(z)).v.tobytes()
    points = _sum_pairs()
    values, _ = point_lanes(tape, np.array(points).T)
    assert list(map(_bits, values.tolist())) == [_bits(_fsum(p)) for p in points]


@pytest.mark.parametrize("text", ["x1 + x2", "x1*x2"])
def test_an_integer_past_the_floats_overflows_in_sums_as_in_products(text):
    # 0.0 + 10**400 converts the integer to a float, as 1.0 * 10**400 does;
    # fsum's fallback used to sum it exactly
    with pytest.raises(OverflowError):
        eval_point(parse_expr(text, ["x1", "x2"]), [10**400, 1])


def test_clarke_pass_evaluates_only_the_intervals_it_reads():
    # d/dx3 of 0.3*cos(x3) + wx reads sin(x3); cos(x3) would only multiply
    # the constant's zero partial
    names = load_bundled("unicycle").dynamics[0].tape.clarke.__code__.co_names
    assert "sin" in names
    assert "cos" not in names


@pytest.mark.parametrize("text, pairs, error", [
    ("0*sqrt(x1)", (-1, 1), DomainError), ("0*sqrt(x1)", (-2, -1), DomainError),
    ("0*(1/x1)", (-1, 1), DivisionByZeroInterval), ("0*(1/x1)", (0, 1), DivisionByZeroInterval),
    ("0*x1^-2", (-1, 1), DivisionByZeroInterval), ("0*x1^-2", (0, 1), DivisionByZeroInterval),
    # the value lines raise before the factor lines: x2^-2's factor raises
    # DivisionByZeroInterval, and sqrt(x2)'s DomainError
    ("x2^-2 + 0*sqrt(x1)", (-1, 1), DomainError),
    ("sqrt(x2) + 0*x1^-2", (-1, 1), DivisionByZeroInterval),
    ("sqrt(x2) + 0*(1/x1)", (-1, 1), DivisionByZeroInterval),
])
def test_unread_values_that_can_raise_still_raise(text, pairs, error):
    # no partial reads the value that multiplies 0, but the pass still
    # evaluates it, in its place among the value lines, and raises its error
    with pytest.raises(DomainError) as caught:
        clarke_jacobian_bounds([parse_expr(text, ["x1", "x2"])], Box.from_pairs([pairs, (-1, 1)]))
    assert caught.type is error


def test_overridden_rows_are_never_evaluated():
    # the row's only entry is overridden, so 1/x1 over a box holding 0 is
    # never evaluated, and its interval division cannot raise
    e = parse_expr("1/x1", ["x1"])
    override = Interval(-1.0, 1.0)
    jac = clarke_jacobian_bounds([e], Box.from_pairs([(-1, 1)]), {(0, 0): override})
    assert jac[0, 0] == override


def _count_interval_operators(monkeypatch, calls: list) -> None:
    """Record each call of the interval operators the Clarke rules use, as
    (name, operands), in calls."""
    for name in ("__add__", "__neg__", "__mul__", "__truediv__", "scale", "hull"):
        fn = getattr(Interval, name)
        monkeypatch.setattr(Interval, name,
                            lambda *args, fn=fn, name=name: calls.append((name, args)) or fn(*args))


def test_clarke_pass_folds_zero_partials(monkeypatch):
    # the folds are exact up to the sign of a zero end, so watch what the
    # compiled pass gives interval * and +: no zero operand, and no unit one
    # in a product
    model = load_bundled("unicycle")
    e = parse_expr("x1*abs(x2)*min(x1, x3) - x3", ["x1", "x2", "x3"])
    # the quotient rule: x1/x2's numerator reads no x2 and its denominator
    # no x1, and so do the bearing rows' arctan((1 - x2)/(2 - x1))
    quotient = parse_expr("x1/x2", ["x1", "x2"])
    cases = [(model.dynamics, model.init.concat(model.disturbance)),
             ([e], Box.from_pairs([(0.5, 1.0), (-1.0, 1.0), (0.2, 2.0)])),
             ([quotient], Box.from_pairs([(-1.0, 2.0), (0.5, 3.0)])),
             (model.observation.exprs, Box.from_pairs([(0.0, 0.5), (0.0, 0.5), (0.5, 1.5)]))]
    for exprs, _ in cases:
        for row in exprs:
            row.tape.clarke  # compiled first: the folds run through the operators
    calls = []
    _count_interval_operators(monkeypatch, calls)
    for exprs, box in cases:
        clarke_jacobian_bounds(exprs, box)
    assert {name for name, _ in calls} >= {"__add__", "__mul__"}
    for name, args in calls:  # == holds for either signed zero
        if name in ("__add__", "__mul__"):
            assert ZERO_PARTIAL not in args, (name, args)
        if name == "__mul__":
            assert mixmono.expr._ONE_PARTIAL not in args, args


def test_constant_partials_are_folded_and_prebuilt(monkeypatch):
    # every partial of a linear row is known when its code compiles: the
    # pass calls no interval operator, and gives the same entry objects each
    # time
    model = load_bundled("scott_example")  # x1' = -0.5*x2 - 0.12*w
    row, box = model.dynamics[:1], model.init.concat(model.disturbance)
    run = row[0].tape.clarke  # return {1: t1, 2: p7_2}: the folded value -0.5 and a folded partial
    assert set(run.__code__.co_names) == set(run.folded) == {"t1", "p7_2"}
    calls = []
    _count_interval_operators(monkeypatch, calls)
    first, second = (clarke_jacobian_bounds(row, box).row(0) for _ in range(2))
    assert calls == []
    assert all(a is b for a, b in zip(first, second))
    assert first == (ZERO_PARTIAL, Interval(-0.5, -0.5), Interval(-0.12, -0.12),
                     ZERO_PARTIAL)
    # a variable's unit partial is one prebuilt entry too
    assert clarke_jacobian_bounds(model.dynamics[1:], box)[0, 0] is mixmono.expr._ONE_PARTIAL


@pytest.mark.parametrize("text, error", [
    ("sqrt(0 - 1)*x1", DomainError),
    ("x1*(1/(1 - 1))", DivisionByZeroInterval),
    ("x1 + (3 - 3)^-1", DivisionByZeroInterval),
])
def test_constant_lines_that_raise_are_left_to_raise(text, error):
    # the fold of a line whose inputs are all constants raises; the line is
    # compiled as it is, so each call raises its error, in its place
    e = parse_expr(text, ["x1"])
    e.tape.clarke
    for _ in range(2):
        with pytest.raises(DomainError) as caught:
            clarke_jacobian_bounds([e], Box.from_pairs([(0.5, 1.0)]))
        assert caught.type is error


def test_structural_zero_partials_share_one_entry():
    # a column the row does not read is the pass's Z: the shared entry, also
    # through a negation or a sum that cancels when the code compiles; an
    # override and a zero the pass computes keep their own entries
    names = ["x1", "x2", "x3"]
    box = Box.from_pairs([(0.0, 1.0), (1.0, 2.0), (0.0, 1.0)])
    override = Interval(0.0, 0.0)
    row = clarke_jacobian_bounds([parse_expr("x1 + x2", names)], box, {(0, 0): override}).row(0)
    assert row[0] is override and row[2] is ZERO_PARTIAL
    row = clarke_jacobian_bounds([parse_expr("-(x1 + x2 - x2)", names)], box).row(0)
    assert row[1] is ZERO_PARTIAL and row[2] is ZERO_PARTIAL
    # x1's column of -(x1*x2) is -x2, over x2 = [0, 0] interval negation's [-0.0, -0.0]
    row = clarke_jacobian_bounds([parse_expr("-(x1*x2)", names)], box.replace(1, Interval(0.0, 0.0))).row(0)
    assert row[0] is not ZERO_PARTIAL and (row[0].lo.hex(), row[0].hi.hex()) == ("-0x0.0p+0",) * 2
    # a pinned column holds the shared entry, whatever the bounds give there
    assert mixmono.decomp.RowCandidates(row, pin=0).row[0] is ZERO_PARTIAL


def test_clarke_pass_returns_the_partials_that_are_not_structurally_zero():
    # the pass returns {column: partial} over the columns the tree reads, and
    # never the shared entry; clarke_jacobian_bounds puts that entry, and
    # only it, in every other column
    assert set(_CLARKE_NAMES) == set(mixmono.expr._INTERVAL_NAMES) | {
        "unit", "xdiv_pos", "abs_rule", "min_rule", "max_rule"}
    checked = filled = 0
    for exprs, box in _cases():
        for e in exprs:
            try:
                partials = e.tape.clarke(box.dims)
                row = clarke_jacobian_bounds([e], box).row(0)
            except (DomainError, UnboundedBothSides):
                continue
            assert isinstance(partials, dict)
            assert set(partials) <= {arg for op, arg, _ in e.tape.nodes if op == "var"}
            assert all(bound is not ZERO_PARTIAL for bound in partials.values())
            missing = [j for j in range(len(box)) if j not in partials]
            assert all(row[j] is ZERO_PARTIAL for j in missing)
            checked, filled = checked + 1, filled + len(missing)
    assert checked > 200 and filled > 100


def test_sqrt_and_arctan_of_the_zero_partial_fold(monkeypatch):
    # _xdiv_pos of a zero is zero for every den: a range observation's
    # column that it does not read is the shared entry, with no division
    calls = []
    fn = mixmono.expr._CLARKE_NAMES["xdiv_pos"]
    monkeypatch.setitem(mixmono.expr._CLARKE_NAMES, "xdiv_pos",
                        lambda a, den: calls.append(a) or fn(a, den))
    d1 = load_bundled("unicycle").observation.exprs[0]  # sqrt((2 - x1)^2 + (1 - x2)^2)
    box = Box.from_pairs([(0.0, 0.5), (0.0, 0.5), (0.5, 1.5)])
    for _ in range(2):
        row = clarke_jacobian_bounds([d1], box).row(0)
        assert row[2] is ZERO_PARTIAL
    assert len(calls) == 4 and ZERO_PARTIAL not in calls  # the x1 and x2 columns
    # so is the negated Z under a square root, and a half-line quotient of a
    # zero over a den that may hold 0
    e = parse_expr("sqrt(-x2)", ["x1", "x2"])
    assert clarke_jacobian_bounds([e], Box.from_pairs([(0.0, 1.0), (-2.0, -1.0)]))[0, 0] is ZERO_PARTIAL
    for den in (Interval(0.0, 0.0), Interval(0.0, 2.0), Interval(-1e-300, 2.0)):
        assert fn(Interval(-0.0, 0.0), den) == ZERO_PARTIAL


@pytest.mark.parametrize("overrides, positions", [
    (None, [(0, 0), (2, 0)]),
    ({(1, 0): Interval(-math.inf, math.inf)}, [(0, 0), (1, 0), (2, 0)]),
    ({(0, 0): Interval(-1.0, 1.0), (2, 2): Interval(-math.inf, math.inf)}, [(2, 0), (2, 2)]),
])
def test_unbounded_entries_are_listed_by_position(overrides, positions):
    # d/dx1 of x2*sqrt(x1) over x1 in [0, 1], x2 in [-1, 1] has no finite
    # side; an override in its place is listed only if it has none either
    names = ["x1", "x2", "x3"]
    f = [parse_expr(t, names) for t in ("x2*sqrt(x1) + x3", "x3 - x1", "sqrt(x1)*x2*x3")]
    box = Box.from_pairs([(0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)])
    with pytest.raises(UnboundedBothSides) as caught:
        clarke_jacobian_bounds(f, box, overrides)
    assert str(caught.value) == f"Clarke bounds unbounded on both sides at {positions}"


def test_unbounded_default_is_listed_in_each_column_that_reads_it(monkeypatch):
    # every partial the pass computes here is bounded; a pass that gave an
    # unbounded one would have it listed in its column, unless an override
    # replaces it there
    names = ["x1", "x2", "x3"]
    e = parse_expr("x1*x3", names)
    unbounded = Interval(-math.inf, math.inf)
    run = lambda dims: {0: Interval(0.5, 2.0), 1: unbounded, 2: unbounded}
    monkeypatch.setitem(e.tape.__dict__, "clarke", run)
    box = Box.from_pairs([(0.0, 1.0), (-1.0, 1.0), (0.5, 2.0)])
    with pytest.raises(UnboundedBothSides) as caught:
        clarke_jacobian_bounds([parse_expr("x1", names), e], box, {(1, 2): Interval(0.0, 1.0)})
    assert str(caught.value) == "Clarke bounds unbounded on both sides at [(1, 1)]"


def test_integer_box_ends_come_out_as_floats():
    # a box given as ints computes like one given as floats: through the
    # scalar engines as through the lanes
    e = parse_expr("-x1", ["x1", "x2"])
    box = Box.from_pairs([(0.5, 2), (-0.3, -0.1)])
    cells = [box, *subdivide_box(box, 2)]
    lanes = enclose_cells("remainder", [e], None, cells)
    for cell, lane in zip(cells, lanes):
        ends = [x for d in apply_method(REMAINDER, [e], cell) for x in (d.lo, d.hi)]
        assert all(type(x) is float for x in ends)
        assert [x.hex() for x in ends] == [float.hex(x) for d in lane for x in (d.lo, d.hi)]


def test_tape_results_round_outward():
    e = parse_expr("0.3*cos(x3) + x1*x2", ["x1", "x2", "x3"])
    box = Box.from_pairs([(0.1, 0.7), (-0.4, 0.3), (0.2, 1.1)])
    value, jac = eval_interval(e, box), clarke_jacobian_bounds([e], box)
    # the same operations rounded to nearest: cos falls over [0.2, 1.1],
    # and x1*x2 spans [0.7*-0.4, 0.7*0.3]
    assert value.lo < 0.3 * math.cos(1.1) + 0.7 * -0.4
    assert value.hi > 0.3 * math.cos(0.2) + 0.7 * 0.3
    # d/dx3 = -0.3*sin(x3) runs through the interval sine
    assert jac[0, 2].lo < 0.3 * -math.sin(1.1) and jac[0, 2].hi > 0.3 * -math.sin(0.2)
    # d/dx1 = x2 and d/dx2 = x1 are the box's own endpoints, which no
    # interval operation touches, so they stay bit-exact
    got = [x for c in jac.row(0)[:2] for x in (c.lo, c.hi)]
    assert list(map(float.hex, got)) == list(map(float.hex, [-0.4, 0.3, 0.1, 0.7]))


def test_evaluated_expressions_still_pickle():
    e = parse_expr("x1*sin(x2)", ["x1", "x2"])
    value = eval_point(e, [1.0, 2.0])
    copy = pickle.loads(pickle.dumps(e))
    assert copy == e and eval_point(copy, [1.0, 2.0]) == value


def _vector_cases():
    for exprs, box in _cases():
        yield exprs, box
    for text in VECTOR_EDGE_EXPRESSIONS:
        e = parse_expr(text, ["x1", "x2"])
        yield [e], Box.from_pairs([(-1, 0.5), (0.2, 1.5)])
        yield [e], Box.from_pairs([(0.5, 2), (-0.3, -0.1)])


def test_vector_evaluation_is_bit_identical():
    h = hashlib.sha256()
    rng = np.random.default_rng(11)
    with np.errstate(all="ignore"):
        for exprs, box in _vector_cases():
            lo, hi = np.asarray(box.lo), np.asarray(box.hi)
            samples = rng.uniform(lo, hi, size=(16, len(box))).T
            corners = np.array(list(box.vertices()), dtype=float).T
            cols = np.concatenate([samples, corners], axis=1)
            for e in exprs:
                vals = _outcome(eval_vec, e, cols)
                if isinstance(vals, str):
                    h.update(vals.encode())
                else:
                    h.update(f"{vals.dtype.str}{vals.shape}".encode())
                    h.update(np.ascontiguousarray(vals).tobytes())
    assert h.hexdigest() == VECTOR_DIGEST


_EMBEDDING_MODELS = (
    # the two models of test_tight_vertex_derivative_reads_raw_bounds, and
    # one whose diagonal entry straddles zero
    """system "linear" {
      time: continuous(dt=0.1);
      state: x1, x2;
      dynamics { x1' = -x1 + x2; x2' = -x2; }
      init: [[0, 1], [0, 1]];
    }""",
    """system "big" {
      time: continuous(dt=0.1);
      state: x1, x2;
      dynamics { x1' = 1e300*x2*x2 - x1; x2' = -x2; }
      init: [[0, 1], [1, 2]];
    }""",
    """system "pinned" {
      time: continuous(dt=0.1);
      state: x1, x2;
      dynamics { x1' = 0.5*x1^2 - x2; x2' = -x2; }
      init: [[-0.5, 0.5], [0.1, 0.2]];
    }""",
)


def _stages(model, rng):
    """(xu, xl) pairs: the init box, widened and random boxes around it, a
    point, one stage whose last coordinate is disordered, and the stages of
    test_tight_vertex_derivative_reads_raw_bounds."""
    lo, hi = np.asarray(model.init.lo), np.asarray(model.init.hi)
    mid = 0.5 * (lo + hi)
    stages = [(hi, lo), (mid, mid)]
    for r in (0.1, 0.7, 1.5):
        stages.append((hi + r, lo - r))
    for _ in range(3):
        stages.append((mid + rng.uniform(0, 1, len(mid)), mid - rng.uniform(0, 1, len(mid))))
    xu, xl = hi + 0.1, lo - 0.1
    xu[-1], xl[-1] = xl[-1], xu[-1]
    stages.append((xu, xl))
    stages += [([1.0, 0.0], [0.0, 1.0]), ([1.0, 1e10], [0.0, 1.0])] if len(mid) == 2 else []
    return [([float(v) for v in u], [float(v) for v in l]) for u, l in stages]


def test_embedding_derivative_is_bit_identical():
    models = [load_bundled("ct_abate"), load_bundled("unicycle")]
    models += [parse_model(text) for text in _EMBEDDING_MODELS]
    methods = (REMAINDER, JACOBIAN_SIGN, TIGHT_VERTEX, NATURAL, CENTERED, MIXED_CENTERED,
               best_of_method([NATURAL, JACOBIAN_SIGN, REMAINDER]),
               best_of_method([CENTERED, MIXED_CENTERED, REMAINDER]))
    h = hashlib.sha256()
    rng = np.random.default_rng(5)
    for model in models:
        for xu, xl in _stages(model, rng):
            for method in methods:
                try:
                    derivative = _embedding_field(model, method)(xu + xl)
                except NotSignStable as exc:
                    h.update(f"NotSignStable{exc.entries}".encode())
                except Exception as exc:  # the error type is part of the pinned behaviour
                    h.update(type(exc).__name__.encode())
                else:
                    for x in derivative:
                        h.update(float(x).hex().encode())
    assert h.hexdigest() == EMBEDDING_DIGEST


# models whose Jacobian providers carry overrides: finite ones, which the
# lanes use, and an infinite one, whose cells go through apply_method
_OVERRIDE_MODELS = (
    """system "finite" {
      time: discrete(dt=0.1);
      state: x1, x2;
      dynamics { x1' = x1*x2 + abs(x1); x2' = sin(x1) - x2^2; }
      init: [[-0.5, 0.5], [0.1, 0.3]];
      jac_override { f_1/d_1 in [-0.8, 1.6]; f_2/d_1 in [-1, 1]; f_2/d_2 in [-0.6, -0.2]; }
    }""",
    """system "infinite" {
      time: discrete(dt=0.1);
      state: x1, x2;
      dynamics { x1' = x1*x2; x2' = -x2; }
      init: [[-0.5, 0.5], [0.1, 0.3]];
      jac_override { f_1/d_2 in [-0.1, inf]; }
    }""",
)
# cases whose lanes are unclean, so that their cells take the scalar path:
# exp saturates, and with tight_vertex a cell that fails in decomposition
# (the slope of (x1 + 1.5)^2 spans 0 over [-2, -1]) comes before one that
# fails in Clarke (sqrt of [-1, 0])
_FALLBACK_CASES = (
    ("0.5*exp(x1)", [(709.5, 710)]),
    ("(x1 + 1.5)^2 + sqrt(-x1)", [(-2, 1)]),
)


# on top of EDGE_EXPRESSIONS: divisions whose value a parent reads, signed
# zeros from min, max and products, and both product sign cases
LANE_EXPRESSIONS = (
    "sin(1/x1) + x2", "min(x1, -x1) - max(x2, -x2)", "-(x1*x2) + 0.5*x2^2",
    "abs(x1)*x2 - cos(x1*x2)", "exp(x1)/(x2^2 - 0.25)", "x1*x2*x1 - arctan(x2)*x1",
    "min(-0, x1)", "max(-0, x2)",
)
# a box whose cells meet at 0 in some coordinate for k = 2 and for k = 3
_ZERO_EDGE_BOX = Box.from_pairs([(-1.0, 0.5), (-1.5, 1.5)])


def _lane_cases():
    """(rows, box, provider): the bundled models through their providers,
    every _cases() input, the lane expressions and EDGE_EXPRESSIONS over a
    box whose cells meet at 0, and the fallback cases."""
    models = [load_bundled(name) for name in bundled_models()]
    models += [parse_model(text) for text in _OVERRIDE_MODELS]
    for model in models:
        yield list(model.dynamics), model.init.concat(model.disturbance), model.jac_provider()
    for exprs, box in _cases():
        yield exprs, box, default_jac_provider(exprs)
    for text in LANE_EXPRESSIONS + EDGE_EXPRESSIONS:
        exprs = [parse_expr(text, ["x1", "x2"])]
        yield exprs, _ZERO_EDGE_BOX, default_jac_provider(exprs)
    for text, pairs in _FALLBACK_CASES:
        exprs = [parse_expr(text, ["x1"])]
        yield exprs, Box.from_pairs(pairs), default_jac_provider(exprs)


def _cells_outcome(fn):
    """The endpoints of every cell's enclosure as float.hex, or the name of
    the first error."""
    try:
        return [[float(x).hex() for d in enc for x in _endpoints(d)] for enc in fn()]
    except Exception as exc:  # the error type is part of the pinned behaviour
        return type(exc).__name__


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("method", [REMAINDER, JACOBIAN_SIGN, TIGHT_VERTEX], ids=str)
def test_subdivision_lanes_match_apply_method(method, k):
    for exprs, box, provider in _lane_cases():
        cells = subdivide_box(box, k)
        lanes = _cells_outcome(lambda: subdivide_apply(method, exprs, provider, box, k)[1])
        scalar = _cells_outcome(lambda: [apply_method(method, exprs, c, provider) for c in cells])
        assert lanes == scalar, (method, k, exprs, box)


@pytest.mark.parametrize("k", [2, 3])
def test_jacobian_lanes_match_clarke_on_clean_cells(k):
    # the enclosures read Clarke bounds only through comparisons and abs,
    # so the bounds themselves are compared, signed zeros included
    clean = 0
    for exprs, box, provider in _lane_cases():
        if max(e.tape.max_var for e in exprs) >= len(box):
            continue
        cells = subdivide_box(box, k)
        lo, hi = np.array([c.lo for c in cells]).T, np.array([c.hi for c in cells]).T
        entries, bad = jacobian_lanes(exprs, provider.overrides, lo, hi)
        for cell, lanes, unclean in zip(cells, np.moveaxis(entries, -1, 0), bad):
            if not unclean:
                clean += 1
                scalar = [x for row in provider(cell).entries for c in row for x in (c.lo, c.hi)]
                assert list(map(float.hex, lanes.ravel().tolist())) == list(map(float.hex, scalar))
    assert clean > 1000


def test_unclean_lanes_take_apply_method_in_cell_order():
    box = Box.from_pairs([(709.5, 710)])
    e = parse_expr("0.5*exp(x1)", ["x1"])
    lanes = enclose_cells("remainder", [e], None, subdivide_box(box, 2))
    assert [enc is None for enc in lanes] == [False, True]  # exp(710) overflows
    # cell 0 fails in decomposition, cell 2 in Clarke: the first error wins
    e = parse_expr("(x1 + 1.5)^2 + sqrt(-x1)", ["x1"])
    cells = subdivide_box(Box.from_pairs([(-2, 1)]), 3)
    assert _cells_outcome(lambda: [apply_method(TIGHT_VERTEX, [e], cells[2])]) == "DomainError"
    outcome = _cells_outcome(lambda: subdivide_apply(TIGHT_VERTEX, [e], None, Box.from_pairs([(-2, 1)]), 3)[1])
    assert outcome == "NotSignStable"


def test_clean_subdivision_takes_the_lane_path(monkeypatch):
    e = parse_expr("x1*x2 - abs(x3 - 0.2) + sin(x1)*x3^2 + min(x2, x3)", ["x1", "x2", "x3"])
    box = Box.from_pairs([(-1, 0.5), (0.2, 1.5), (-0.4, 0.9)])
    scalar = [apply_method(REMAINDER, [e], c) for c in subdivide_box(box, 3)]
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mixmono.inclusion, "clarke_jacobian_bounds",
                        counted(mixmono.inclusion.clarke_jacobian_bounds))
    monkeypatch.setattr(mixmono.decomp, "eval_point", counted(mixmono.decomp.eval_point))
    _, encs, _ = subdivide_apply(REMAINDER, [e], None, box, 3)
    assert calls == []
    assert encs == scalar
