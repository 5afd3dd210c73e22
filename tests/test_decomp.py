"""Supporting vectors, corner selection, and decomposition enclosures."""

from __future__ import annotations

import hashlib
import itertools
import math
import types

import numpy as np
import pytest

import mixmono.decomp
from hypothesis import given, settings
from hypothesis import strategies as st

from mixmono import (
    JACOBIAN_SIGN,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    Branch,
    Interval,
    JacobianBounds,
    clarke_jacobian_bounds,
    error_bounds,
    eval_point,
    load_bundled,
    parse_expr,
    parse_model,
    reach_tube,
    supporting_vectors,
    t_l_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from mixmono.decomp import (
    CANDIDATE_CAP,
    SELECTORS,
    RowCandidates,
    decompose,
    eval_remainder_lower,
    eval_remainder_upper,
    row_candidates,
)
from mixmono.errors import (
    CandidateExplosion,
    DimensionMismatch,
    InvertedBounds,
    NotSignStable,
    UnboundedBothSides,
)
from mixmono.expr import ZERO_PARTIAL
from mixmono.reach import _embedding_field

from conftest import box_subset, rand_instance


def decomposition_value(f_i, candidates, x, xhat) -> float:
    """min over candidates of the two-argument decomposition at (x, xhat).

    With x = box.hi and xhat = box.lo this is the row's upper bound; with the
    arguments swapped it is the lower bound up to the min/max dual.
    """
    best = math.inf
    for combo in itertools.product(*candidates.choices):
        # the upper branch takes zeta_plus_j = xhat_j and zeta_minus_j = x_j
        zp = [b if tag is Branch.UPPER else a for (_, tag), a, b in zip(combo, x, xhat)]
        zm = [a if tag is Branch.UPPER else b for (_, tag), a, b in zip(combo, x, xhat)]
        val = eval_point(f_i, zp) + math.fsum(
            m * (a - b) for (m, _), a, b in zip(combo, zm, zp)
        )
        best = min(best, val)
    return best


def eager_candidates(row, selected):
    """(choices, zero, count) of a row, built the way RowCandidates did
    before its one scan: every coordinate's choices first, then the all-zero
    vector and the count from them."""
    per_coord, count = [], 1
    for entry in row:
        choices = []
        if math.isfinite(entry.hi):
            choices.append((max(entry.hi, 0.0), Branch.UPPER))
        if math.isfinite(entry.lo):
            lower = min(entry.lo, 0.0)
            if not (choices and choices[0][0] == lower):
                choices.append((lower, Branch.LOWER))
        if not choices:
            raise UnboundedBothSides(entry)
        if selected:
            choices = [min(reversed(choices), key=lambda c: abs(c[0]))]
        per_coord.append(tuple(choices))
        count *= len(choices)
        if count > CANDIDATE_CAP:
            raise CandidateExplosion(count)
    zero = [next((tag for v, tag in c if v == 0.0), None) for c in per_coord]
    return tuple(per_coord), None if None in zero else tuple(zero), count


SCAN_ENTRIES = [(0.0, 0.0), (-0.0, 0.0), (1.0, 1.0), (-2.0, 3.0),
                (-math.inf, 0.0), (0.0, math.inf), (-math.inf, math.inf)]
SCAN_ROWS = [
    *([entry] for entry in SCAN_ENTRIES),
    SCAN_ENTRIES[:-1],
    [(1.0, 1.0), (-math.inf, 0.0), (0.0, math.inf)],
    # the cap is passed at the 17th column, before the unbounded 18th
    [(-2.0, 3.0)] * 17 + [(-math.inf, math.inf)],
]


class TestSupportingVectors:
    def test_sign_stable_entry_gives_two_branches(self):
        row = (Interval(1.0, 3.0),)
        cands = supporting_vectors(row)
        values = sorted(v for v, _ in cands.choices[0])
        assert values == [0.0, 3.0]

    def test_straddling_entry(self):
        row = (Interval(-2.0, 5.0),)
        cands = supporting_vectors(row)
        assert sorted(v for v, _ in cands.choices[0]) == [-2.0, 5.0]

    def test_one_sided_infinite_entry_drops_that_branch(self):
        row = (Interval(0.25, math.inf),)
        cands = supporting_vectors(row)
        assert [v for v, _ in cands.choices[0]] == [0.0]

    def test_two_sided_infinite_entry_rejected(self):
        row = (Interval(-math.inf, math.inf),)
        with pytest.raises(UnboundedBothSides):
            supporting_vectors(row)

    def test_continuous_diagonal_is_pinned(self):
        # a straddling diagonal entry has two branches, but a pinned row
        # keeps one zero slope there: 2 candidates, not 4
        row = (Interval(-1.0, 1.0), Interval(2.0, 3.0))
        jac = JacobianBounds((row,))
        assert len(row_candidates(jac, "remainder", 0)) == 4
        cands = row_candidates(jac, "remainder", 0, pinned=True)
        assert len(cands) == 2
        assert [v for v, _ in cands.choices[0]] == [0.0]

    def test_candidate_cap(self):
        row = tuple(Interval(-1.0, 1.0) for _ in range(17))
        with pytest.raises(CandidateExplosion):
            supporting_vectors(row)

    def test_cap_constant(self):
        assert CANDIDATE_CAP == 2**16

    @pytest.mark.parametrize("selected", [False, True])
    @pytest.mark.parametrize("pairs", SCAN_ROWS, ids=str)
    def test_one_scan_matches_eager_build(self, pairs, selected):
        row = tuple(Interval(*p) for p in pairs)
        try:
            want = eager_candidates(row, selected)
        except (UnboundedBothSides, CandidateExplosion) as exc:
            with pytest.raises(type(exc)):
                RowCandidates(row, selected)
            return
        cands = RowCandidates(row, selected)
        assert (cands.zero, len(cands)) == want[1:]
        assert cands.choices == want[0]
        if not selected:
            assert len(supporting_vectors(row)) == want[2]

    @pytest.mark.parametrize("selected", [False, True])
    @pytest.mark.parametrize("pairs", SCAN_ROWS, ids=str)
    def test_shared_zero_entry_scans_like_an_equal_one(self, pairs, selected):
        # the shared entry is passed over by identity; zero and len() are an
        # eager scan's of the same row with an equal entry built anew
        row = [ZERO_PARTIAL if p == (0.0, 0.0) else Interval(*p) for p in pairs]
        row = (ZERO_PARTIAL, *row, ZERO_PARTIAL)
        try:
            want = eager_candidates(tuple(Interval(e.lo, e.hi) for e in row), selected)
        except (UnboundedBothSides, CandidateExplosion) as exc:
            with pytest.raises(type(exc)):
                RowCandidates(row, selected)
            return
        cands = RowCandidates(row, selected)
        assert (cands.zero, len(cands)) == want[1:]

    def test_zero_vector_reads_no_choices(self):
        f = parse_expr("x1 - x2", ["x1", "x2"])
        cands = supporting_vectors((Interval(1.0, 1.0), Interval(-1.0, -1.0)))
        assert eval_remainder_upper(cands, f, (2.0, 1.0), (0.0, -1.0)) == 3.0
        assert "choices" not in vars(cands)

    def test_nan_zero_corner_takes_the_full_product(self):
        # the all-zero vector's corner x1 = -1000 gives inf - inf; the other
        # candidate, slope -1 at x1 = 0, gives 0 + 1 * 1000
        f = parse_expr("exp(-x1) - exp(-x1)", ["x1"])
        row = (Interval(-1.0, 0.0),)
        cands = supporting_vectors(row)
        assert cands.zero == (Branch.UPPER,)
        eager = types.SimpleNamespace(choices=eager_candidates(row, False)[0])
        upper = eval_remainder_upper(cands, f, (0.0,), (-1000.0,))
        assert upper == decomposition_value(f, eager, (0.0,), (-1000.0,)) == 1000.0

    def test_sign_selected_choice_per_coordinate(self):
        # the smallest-magnitude branch value of each coordinate, the lower
        # branch on a tie; an exact zero bound has the upper branch only
        table = [
            ((-1.0, 1.0), (-1.0, Branch.LOWER)),
            ((-0.1875, 0.0), (0.0, Branch.UPPER)),
            ((0.0, 0.25), (0.0, Branch.LOWER)),
            ((0.25, math.inf), (0.0, Branch.LOWER)),
            ((-math.inf, 2.0), (2.0, Branch.UPPER)),
            ((0.0, 0.0), (0.0, Branch.UPPER)),
        ]
        jac = JacobianBounds((tuple(Interval(*entry) for entry, _ in table),))
        cands = row_candidates(jac, "jacobian_sign", 0)
        assert [choice for (choice,) in cands.choices] == [choice for _, choice in table]


PINNED_MODEL = """
system "pin" {
  time: continuous(dt=0.1);
  state: a, b;
  disturbance: w in [[-0.1, 0.1]];
  dynamics {
    a' = b*b + w;
    b' = 0.5*b - a;
  }
  init: [[0, 1], [1, 2]];
  jac_override { f_1/d_1 in [-1, 2]; }
}
"""


def zip_corner(zero, a, b) -> list[float]:
    """The all-zero vector's zeta_plus, zipped the way _extremum built it
    before it gathered the corner."""
    return [bj if tag is Branch.UPPER else aj for aj, bj, tag in zip(a, b, zero)]


class TestCornerGather:
    ROWS = {
        0: ((), "2.5"),
        1: (((-1.0, 0.0),), "exp(-x1)"),
        3: (((0.0, 2.0), (-3.0, -1.0), (0.0, 0.0)), "x1 - x2^3 + 0*x3"),
    }

    @pytest.mark.parametrize("seq", [list, tuple])
    @pytest.mark.parametrize("n", sorted(ROWS))
    def test_gathered_corner_is_the_zipped_one(self, n, seq):
        pairs, text = self.ROWS[n]
        names = [f"x{j + 1}" for j in range(n)]
        f = parse_expr(text, names)
        cands = RowCandidates(seq(Interval(*p) for p in pairs))
        a, b = seq(0.5 + j for j in range(n)), seq(-0.25 * j for j in range(n))
        for x, y in ((a, b), (b, a)):
            got = cands.corner((*x, *y))
            assert type(got) is tuple and list(got) == zip_corner(cands.zero, x, y)
        assert eval_remainder_upper(cands, f, a, b) == eval_point(f, zip_corner(cands.zero, a, b))
        assert eval_remainder_lower(cands, f, a, b) == eval_point(f, zip_corner(cands.zero, b, a))

    def test_rows_with_one_branch_pattern_share_one_gatherer(self):
        # the gatherer depends on the branch pattern alone, so it is built
        # once however many rows, with whatever bounds, have that pattern
        first = RowCandidates([Interval(-2.0, -1.0), Interval(0.5, 3.0), ZERO_PARTIAL])
        second = RowCandidates((Interval(-math.inf, 0.0), Interval(0.0, 1.0), Interval(0.0, 0.0)))
        assert first.zero == second.zero == (Branch.UPPER, Branch.LOWER, Branch.UPPER)
        assert first.corner is second.corner
        other = RowCandidates([Interval(1.0, 2.0), Interval(0.5, 3.0), ZERO_PARTIAL])
        assert other.corner is not first.corner

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gatherer_of_every_pattern_is_the_explicit_gather(self, n):
        # n = 1 is the one pattern length that itemgetter cannot serve
        a, b = [0.5 + j for j in range(n)], [-0.25 * j - 1.0 for j in range(n)]
        for zero in itertools.product((Branch.UPPER, Branch.LOWER), repeat=n):
            row = [Interval(0.0, 0.0) if tag is Branch.UPPER else Interval(0.0, 1.0) for tag in zero]
            cands = RowCandidates(row)
            assert cands.zero == zero
            for x, y in ((a, b), (b, a)):
                got = cands.corner((*x, *y))
                assert type(got) is tuple and list(got) == zip_corner(zero, x, y)

    @pytest.mark.parametrize("kind", ["remainder", "jacobian_sign", "tight_vertex"])
    def test_pinned_rows(self, kind):
        names = ["x1", "x2", "x3"]
        f = [parse_expr(t, names) for t in ("x1 + x2 - x3", "x1*x2", "exp(x3) - x2")]
        lo, hi = [0.5, 1.0, -1.0], [1.0, 2.0, 0.5]
        jac = clarke_jacobian_bounds(f, Box.from_pairs(list(zip(lo, hi))))
        got = decompose(f, jac, kind, tuple(hi), lo, pinned=True)
        want = []
        for i, f_i in enumerate(f):
            zero = row_candidates(jac, kind, i, pinned=True).zero
            b_up, a_lo = lo.copy(), hi.copy()
            b_up[i], a_lo[i] = hi[i], lo[i]
            want.append((eval_point(f_i, zip_corner(zero, hi, b_up)),
                         eval_point(f_i, zip_corner(zero, lo, a_lo))))
        assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in r] for r in want]

    @pytest.mark.parametrize("method", [REMAINDER, JACOBIAN_SIGN, TIGHT_VERTEX], ids=str)
    def test_pinned_row_that_does_not_read_its_coordinate(self, method):
        # a' reads b and w only, and its override gives column a a slope
        # spanning 0: the pin still zeroes that slope, and the derivative is
        # the pinned rows' remainder values
        model = parse_model(PINNED_MODEL)
        f = model.dynamics
        assert [sorted({arg for op, arg, _ in f_i.tape.nodes if op == "var"}) for f_i in f] == [
            [1, 2], [0, 1]]
        y = [1.0, 2.0, 0.0, 1.0]  # upper states, then lower ones
        hi, lo = (*y[:2], *model.disturbance.hi), (*y[2:], *model.disturbance.lo)
        jac = model.jac_provider()(Box(map(Interval, lo, hi)))
        assert jac.row(0)[0] == Interval(-1.0, 2.0)
        upper, lower = [], []
        for i, f_i in enumerate(f):
            cands = row_candidates(jac, method.kind, i, pinned=True)
            assert cands.row[i] == Interval(0.0, 0.0)
            b_up, a_lo = list(lo), list(hi)
            b_up[i], a_lo[i] = hi[i], lo[i]
            upper.append(eval_remainder_upper(cands, f_i, hi, b_up))
            lower.append(eval_remainder_lower(cands, f_i, a_lo, lo))
        got = _embedding_field(model, method)(y)
        assert list(map(float.hex, got)) == list(map(float.hex, upper + lower))

    def test_nan_corner_of_a_wide_row_takes_the_full_product(self):
        # x1 = -1000 at the all-zero vector's corner makes inf - inf; the
        # full product's value is the least finite candidate
        f = parse_expr("exp(-x1) - exp(-x1) + x2", ["x1", "x2"])
        row = [Interval(-1.0, 0.0), Interval(1.0, 1.0)]
        cands = supporting_vectors(row)
        assert cands.zero == (Branch.UPPER, Branch.LOWER)
        eager = types.SimpleNamespace(choices=eager_candidates(row, False)[0])
        a, b = [0.0, 2.0], [-1000.0, 1.0]
        assert eval_remainder_upper(cands, f, a, b) == decomposition_value(f, eager, a, b)

    def test_bounds_of_another_width_are_rejected(self):
        # the corner is gathered by column, so the box must have as many
        f = [parse_expr("x1", ["x1", "x2"])]
        jac = clarke_jacobian_bounds(f, Box.from_pairs([(0, 1)] * 3))
        with pytest.raises(DimensionMismatch):
            t_r_inclusion(f, jac, Box.from_pairs([(0, 1), (0, 1)]))


def pinned_copy_reference(f, jac, kind, a, b):
    """decompose(f, jac, kind, a, b, pinned=True) by copying the arguments:
    row i's pinned column keeps ZERO_PARTIAL's upper choice, and its upper
    value is taken at (a, b with b[i] = a[i]), its lower value at (a with
    a[i] = b[i], b)."""
    rows = [jac.row(i)[:i] + (ZERO_PARTIAL,) + jac.row(i)[i + 1:] for i in range(jac.rows)]
    if kind == "tight_vertex":
        bad = [(i, j) for i, row in enumerate(rows) for j, e in enumerate(row) if e.lo < 0.0 < e.hi]
        if bad:
            raise NotSignStable(bad)
    out = []
    for i, f_i in enumerate(f):
        cands = RowCandidates(rows[i], kind != "remainder")
        if len(rows[i]) != len(a):
            raise DimensionMismatch(f"row {i}")
        b_up, a_lo = (*b[:i], a[i], *b[i + 1:]), (*a[:i], b[i], *a[i + 1:])
        out.append((eval_remainder_upper(cands, f_i, a, b_up), eval_remainder_lower(cands, f_i, a_lo, b)))
    return out


# rows that read every coordinate or not, with kinks, and one that is
# inf - inf (NaN) at x1 = -1000, so its candidate loop runs
PIN_EXPRESSIONS = ("x1 + x2 - x3", "x1*x2 - x3^2", "exp(x3) - x2*x1", "x2*x3",
                   "abs(x1 - x2)*x3 + min(x2, x3)", "exp(-x1) - exp(-x1) + x2*x3",
                   "sqrt(x1^2 + 1)*x2 - x1")
# sign-stable, sign-unstable, signed-zero and half- or fully unbounded slopes
PIN_ENTRIES = (ZERO_PARTIAL, Interval(0.5, 2.0), Interval(-3.0, -0.5), Interval(0.0, 1.0),
               Interval(-1.0, -0.0), Interval(-0.0, 0.0), Interval(-1.0, 2.0),
               Interval(-0.5, 0.25), Interval(-math.inf, 2.0), Interval(1.0, math.inf),
               Interval(-math.inf, math.inf))
PIN_VALUES = (1.0, -1.0, 0.0, -0.0, 2.5, -0.5, -1000.0, 1e300)


def _outcome(fn, *args):
    try:
        return [[x.hex() for x in row] for row in fn(*args)]
    except Exception as exc:  # the error type is part of the pinned behaviour
        return type(exc).__name__


def _pin_mismatches():
    """The seeded cases where decompose(pinned=True) and pinned_copy_reference
    differ, bit for bit or error for error, and every outcome seen."""
    rng = np.random.default_rng(2406)
    names = ["x1", "x2", "x3"]
    exprs = [parse_expr(t, names) for t in PIN_EXPRESSIONS]
    mismatches, seen = [], set()
    for _ in range(400):
        f = [exprs[k] for k in rng.integers(len(exprs), size=3)]
        # the pinned column draws from every entry, the others from all but
        # the last, [-inf, inf], nine times in ten
        entries = [[PIN_ENTRIES[rng.integers(len(PIN_ENTRIES) - (j != i and rng.random() < 0.9))]
                    for j in range(3)] for i in range(3)]
        a, b = ([PIN_VALUES[k] for k in rng.integers(len(PIN_VALUES), size=3)] for _ in range(2))
        for kind in SELECTORS:
            got = _outcome(decompose, f, JacobianBounds(tuple(map(tuple, entries))), kind, a, b, True)
            want = _outcome(pinned_copy_reference, f, JacobianBounds(tuple(map(tuple, entries))),
                            kind, a, b)
            seen.add(got if isinstance(got, str) else "values")
            if got != want:
                mismatches.append((f, entries, kind, a, b, got, want))
    return mismatches, seen


class TestPinnedRows:
    def test_pin_is_the_copied_arguments_bit_for_bit(self, monkeypatch):
        # every corner value and candidate loop, so the NaN corners and the
        # sign-unstable rows are seen
        values, loops = [], []
        corners = mixmono.decomp._corners
        monkeypatch.setattr(mixmono.decomp, "eval_point",
                            lambda e, z: values.append(eval_point(e, z)) or values[-1])
        monkeypatch.setattr(mixmono.decomp, "_corners", lambda *args: loops.append(1) or corners(*args))
        mismatches, seen = _pin_mismatches()
        assert mismatches == []
        assert seen == {"values", "NotSignStable", "UnboundedBothSides"}
        assert any(map(math.isnan, values)) and len(loops) > 100

    def test_pin_on_the_upper_branch_differs(self, monkeypatch):
        class UpperPin(RowCandidates):
            def __init__(self, row, selected=False, pin=None):
                super().__init__(row, selected)  # column pin keeps ZERO_PARTIAL's upper choice

        monkeypatch.setattr("mixmono.decomp.RowCandidates", UpperPin)
        assert _pin_mismatches()[0]

    def test_tight_vertex_builds_each_row_once(self, monkeypatch):
        calls = []
        real = mixmono.decomp._row
        monkeypatch.setattr(mixmono.decomp, "_row", lambda *args: calls.append(args) or real(*args))
        tube = reach_tube(load_bundled("ct_abate"), TIGHT_VERTEX, 10)
        assert len(calls) <= 1200  # 10 steps of 10 substeps, 4 RK4 stages, 3 rows
        h = hashlib.sha256()
        for step in tube:
            for d in step.box:
                h.update(f"{d.lo.hex()}{d.hi.hex()}".encode())
        assert h.hexdigest() == CT_ABATE_TUBE_DIGEST

    def test_not_sign_stable_comes_before_a_candidate_error(self):
        # row 1's [-inf, inf] entry would fail its candidate build
        f = [parse_expr(t, ["x1", "x2"]) for t in ("x1 + x2", "x1*x2")]
        jac = JacobianBounds(((Interval(1.0, 2.0),) * 2, (Interval(-math.inf, math.inf),) * 2))
        for pinned, entries in ((False, [(1, 0), (1, 1)]), (True, [(1, 0)])):
            with pytest.raises(NotSignStable) as caught:
                decompose(f, jac, "tight_vertex", (1.0, 1.0), (0.0, 0.0), pinned)
            assert caught.value.entries == entries


# sha256 of the ends of every box of reach_tube(ct_abate, tight_vertex, 10),
# recorded while decompose built each tight_vertex row twice
CT_ABATE_TUBE_DIGEST = "bd415fbf7c20fc70e14103a61f25fd1c60b28c2c86849bcc817e0b084e47f64c"


class TestCornerPoints:
    def test_branch_to_corner_mapping(self):
        # the upper branch puts zeta_plus_1 at b_1 = 0 and the lower branch
        # zeta_plus_2 at a_2 = 1: f(0, 1) + 2 * (1 - 0) + 1 * (1 - 0) = 4
        cands = RowCandidates([Interval(-math.inf, 2.0), Interval(-1.0, math.inf)])
        assert cands.choices == (((2.0, Branch.UPPER),), ((-1.0, Branch.LOWER),))
        f = parse_expr("x1 + x2", ["x1", "x2"])
        assert eval_remainder_upper(cands, f, (1.0, 1.0), (0.0, 0.0)) == 4.0


class TestScalarAnchors:
    """Hand-checked cubic over an asymmetric domain."""

    def setup_method(self):
        self.expr = parse_expr("x1^3 - 0.1*x1", ["x1"])
        self.box = Box.from_pairs([(-1, 3)])
        self.jac = clarke_jacobian_bounds([self.expr], self.box)

    def test_remainder_enclosure(self):
        enc = t_r_inclusion([self.expr], self.jac, self.box)
        assert enc[0].lo == pytest.approx(-1.3)
        assert enc[0].hi == pytest.approx(27.1)

    def test_sign_selected_enclosure_matches_here(self):
        enc = t_l_inclusion([self.expr], self.jac, self.box)
        assert enc[0].lo == pytest.approx(-1.3)
        assert enc[0].hi == pytest.approx(27.1)

    def test_vertex_requires_sign_stability(self):
        with pytest.raises(NotSignStable) as exc:
            t_o_vertex_inclusion([self.expr], self.jac, self.box)
        assert exc.value.entries == [(0, 0)]

    def test_vertex_exact_on_sign_stable_subdomain(self):
        box = Box.from_pairs([(1, 3)])
        jac = clarke_jacobian_bounds([self.expr], box)
        enc = t_o_vertex_inclusion([self.expr], jac, box)
        assert enc[0].lo == pytest.approx(0.9)
        assert enc[0].hi == pytest.approx(26.7)

    def test_unsound_jacobian_raises_inverted_bounds(self):
        # d/dx1 of x1 is 1, not 0: the corners come out swapped
        jac = JacobianBounds(((Interval(0.0, 0.0),),))
        for engine in (t_r_inclusion, t_l_inclusion, t_o_vertex_inclusion):
            with pytest.raises(InvertedBounds):
                engine([parse_expr("x1", ["x1"])], jac, Box.from_pairs([(0, 1)]))


class TestOverflow:
    """Slope sums past the largest float degrade to an infinite bound."""

    EXPR = parse_expr("1e298*x1 + 1e298*x2 + abs(x3)", ["x1", "x2", "x3"])
    BOX = Box.from_pairs([(0, 1e10), (0, 1e10), (-1, 1)])

    def test_remainder_saturates_instead_of_raising(self):
        # m . (zeta_plus - zeta_minus) = 1e308 + 1e308 + 2 overflows an exact
        # sum, and the upper bound rounds outward, to inf
        jac = clarke_jacobian_bounds([self.EXPR], self.BOX)
        enc = t_r_inclusion([self.EXPR], jac, self.BOX)
        assert enc[0].lo == 0.0
        assert enc[0].hi == math.inf

    def test_zero_slope_over_overflowing_width(self):
        # 0*x1 has the slope bound [0, 0]: its remainder term is zero, where
        # 0 * (1e308 - -1e308) = 0 * inf would make every candidate NaN
        f = parse_expr("0*x1 + abs(x2)", ["x1", "x2"])
        box = Box.from_pairs([(-1e308, 1e308), (-1, 1)])
        jac = clarke_jacobian_bounds([f], box)
        for engine in (t_r_inclusion, t_l_inclusion):
            enc = engine([f], jac, box)
            assert (enc[0].lo, enc[0].hi) == (-1.0, 3.0)
        eb = error_bounds(f, jac.row(0), box)
        assert eb.q_upper_hat == eb.q_upper == 2.0

    def test_corner_that_libm_rejects_loses(self):
        # cos(inf) raises in libm: that corner is NaN and loses, and every
        # other candidate has an infinite remainder term
        f = parse_expr("cos(x1) + x2", ["x1", "x2"])
        assert math.isnan(eval_point(f, [math.inf, 0.0]))
        box = Box.from_pairs([(0.0, math.inf), (0.0, 1.0)])
        jac = clarke_jacobian_bounds([f], box)
        for engine in (t_r_inclusion, t_l_inclusion):
            assert engine([f], jac, box)[0] == Interval(-math.inf, math.inf)


class TestDecompositionFunction:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_diagonal_identity(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=3)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        cands = supporting_vectors(jac.row(0))
        z = tuple(rng.uniform(inst.box.lo, inst.box.hi))
        d = decomposition_value(inst.expr, cands, z, z)
        assert d == pytest.approx(eval_point(inst.expr, z), abs=1e-12, rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_mixed_monotonicity(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng, max_vars=3)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        cands = supporting_vectors(jac.row(0))
        n = len(inst.box)
        lo, hi = np.asarray(inst.box.lo), np.asarray(inst.box.hi)
        for _ in range(25):
            xhat = rng.uniform(lo, hi)
            x = rng.uniform(xhat, hi)
            base = decomposition_value(inst.expr, cands, tuple(x), tuple(xhat))
            x_up = np.minimum(x + rng.uniform(0, 1, n) * (hi - x), hi)
            up = decomposition_value(inst.expr, cands, tuple(x_up), tuple(xhat))
            assert up >= base - 1e-9 * (1 + abs(base))
            xhat_up = np.minimum(xhat + rng.uniform(0, 1, n) * (x - xhat), x)
            down = decomposition_value(inst.expr, cands, tuple(x), tuple(xhat_up))
            assert down <= base + 1e-9 * (1 + abs(base))


class TestEnclosureOrdering:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_full_family_inside_sign_selected(self, seed):
        rng = np.random.default_rng(seed)
        inst = rand_instance(rng)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            return
        tr = t_r_inclusion([inst.expr], jac, inst.box)
        tl = t_l_inclusion([inst.expr], jac, inst.box)
        assert box_subset(tr, tl, slack=1e-12)

    def test_vertex_inside_full_family_when_sign_stable(self):
        expr = parse_expr("x1^3 + 2*x1 + exp(0.5*x2)", ["x1", "x2"])
        box = Box.from_pairs([(0.5, 2), (-1, 1)])
        jac = clarke_jacobian_bounds([expr], box)
        to = t_o_vertex_inclusion([expr], jac, box)
        tr = t_r_inclusion([expr], jac, box)
        tl = t_l_inclusion([expr], jac, box)
        assert box_subset(to, tr)
        assert box_subset(tr, tl)
