"""Remainder-form decomposition: one core, three selectors.

The remainder, sign-selected and tight vertex forms are one decomposition
function, min over supporting vectors m of f(zeta_plus) + m . (zeta_minus -
zeta_plus), and differ only in which vectors m a row may use.  Each m picks
one branch of each coordinate's derivative bound, so a row's candidates are
the Cartesian product of per-coordinate (slope, branch) choices, and
`RowCandidates` keeps them as those choices.  One scan of a row's bounds
finds its all-zero vector and its candidate count; the choices are built
only where they are read, since a sign-stable row evaluates the all-zero
vector alone, at a corner gathered straight from the arguments by one
gatherer per branch pattern (`_gatherer`), shared by every row and call:

* remainder: every candidate of `supporting_vectors` (the tightest
  tractable form);
* jacobian_sign: the single sign-selected candidate, each coordinate's
  smallest-magnitude choice (cheaper, always looser or equal);
* tight_vertex: the sign-selected candidate after a sign-stability check;
  there it is all zeros, so each bound is one exact corner value.

`decompose` evaluates that function row by row for discrete-time enclosures
and, with `pinned`, for the continuous-time embedding: there row i is the
same function with coordinate i pinned: a zero slope in column i, whose one
choice is the lower branch, so no argument is copied.  `error_bounds` bounds
the remainder form's error from the same candidates; its a-priori
q_upper_hat is the sign-selected remainder.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Sequence

from .errors import (
    CandidateExplosion,
    DimensionMismatch,
    InvertedBounds,
    NotSignStable,
    UnboundedBothSides,
)
from .expr import ZERO_PARTIAL, Expr, JacobianBounds, _fsum, eval_point
from .interval import _NEG, _POS, Box, Interval, excess, outward


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"
    __hash__ = object.__hash__  # members are singletons: a C-level hash for _gatherer's keys


_UPPER, _LOWER = Branch.UPPER, Branch.LOWER
CANDIDATE_CAP = 2**16

# the slope bound of a pinned coordinate: one choice, 0.0 (RowCandidates' pin)
_PINNED = ZERO_PARTIAL

# the decomposition engines, named as their MethodId kinds
SELECTORS = ("remainder", "jacobian_sign", "tight_vertex")


def _coordinate_choices(
    entry: Interval,
) -> list[tuple[float, Branch]]:
    """Finite branch values for one coordinate, deduplicated by value."""
    choices: list[tuple[float, Branch]] = []
    if math.isfinite(entry.hi):
        choices.append((max(entry.hi, 0.0), Branch.UPPER))
    if math.isfinite(entry.lo):
        lower = min(entry.lo, 0.0)
        if not (choices and choices[0][0] == lower):
            choices.append((lower, Branch.LOWER))
    if not choices:
        raise UnboundedBothSides(f"derivative bound {entry} has no finite side")
    return choices


class RowCandidates:
    """A row's supporting vectors, kept as per-coordinate (slope, branch)
    choices; with selected, only the sign-selected vector: each
    coordinate's smallest-magnitude choice, the lower branch on a tie.
    pin, the column of a pinned row (its entry _PINNED), takes its one
    choice 0.0 on the lower branch.

    One scan of the row's bounds gives zero, the branches of the all-zero
    vector (None when there is none), and the candidate count, and raises
    UnboundedBothSides or CandidateExplosion at the entry where the choices
    would; the shared ZERO_PARTIAL entry, one upper choice 0.0, is passed
    over by identity.  `corner` gathers the all-zero vector's corner from
    the arguments: its branch pattern's `_gatherer` (None without it).
    `choices` is built when first read, which only a row without an
    all-zero vector, or with a NaN value at its corner, and error_bounds do.
    """

    def __init__(self, row: Sequence[Interval], selected: bool = False, pin: int | None = None):
        self.row, self.selected, self.pin = row, selected, pin
        zero, count = [], 1
        for entry in row:
            if entry is ZERO_PARTIAL:
                zero.append(_UPPER)
                continue
            lo, hi = entry.lo, entry.hi
            upper, lower = hi < _POS, lo > _NEG  # an Interval's ends are never NaN
            if upper and hi <= 0.0:  # the upper choice is 0.0; lo >= 0 would repeat it
                zero.append(_UPPER)
                size = 1 + (lower and lo < 0.0)
            elif lower and lo >= 0.0:  # the lower choice is 0.0, the upper one hi > 0
                zero.append(_LOWER)
                size = 1 + upper
            else:
                zero.append(None)
                size = upper + lower
                if not size:
                    raise UnboundedBothSides(f"derivative bound {entry} has no finite side")
            if not selected:
                count *= size
                if count > CANDIDATE_CAP:
                    raise CandidateExplosion(
                        f"{count}+ supporting-vector candidates exceed cap {CANDIDATE_CAP}")
        if pin is not None:
            zero[pin] = _LOWER
        self.zero = None if None in zero else tuple(zero)
        self.count = count
        self.corner = None if self.zero is None else _gatherer(self.zero)

    @cached_property
    def choices(self) -> tuple[tuple[tuple[float, Branch], ...], ...]:
        per_coord = [[(0.0, _LOWER)] if j == self.pin else _coordinate_choices(entry)
                     for j, entry in enumerate(self.row)]
        if self.selected:
            return tuple((min(reversed(c), key=lambda c: abs(c[0])),) for c in per_coord)
        return tuple(map(tuple, per_coord))

    def __len__(self) -> int:
        return self.count


@lru_cache(maxsize=1024)
def _gatherer(zero: tuple[Branch, ...]):
    """(*a, *b) -> the all-zero vector's corner for the branches zero, a
    tuple of b_j on an upper and a_j on a lower branch; shared by all rows."""
    n = len(zero)
    index = [j + n if tag is _UPPER else j for j, tag in enumerate(zero)]
    # itemgetter takes at least one index, and with one returns no tuple
    return itemgetter(*index) if n > 1 else lambda ab: tuple(ab[k] for k in index)


def supporting_vectors(jac_row: Sequence[Interval], pin: int | None = None) -> RowCandidates:
    """Cartesian product of per-coordinate branch choices for one row; pin as in RowCandidates."""
    return RowCandidates(jac_row, pin=pin)


def _row(jac: JacobianBounds, i: int, pinned: bool) -> tuple[Interval, ...]:
    """Row i of jac; a pinned row has a zero slope in column i."""
    row = jac.row(i)
    return row[:i] + (_PINNED,) + row[i + 1:] if pinned else row


def row_candidates(
    jac: JacobianBounds, kind: str, i: int, pinned: bool = False, row=None
) -> RowCandidates:
    """The candidates the engine `kind` may use in row i of jac.

    Built once per (kind, pinned, row) and kept on jac, so every
    decomposition against the same bounds (set_invert's many sub-boxes)
    reuses them; row, if given, is `_row(jac, i, pinned)`.
    """
    key = (kind, pinned, i)
    cands = jac.derived.get(key)
    if cands is None:
        row = _row(jac, i, pinned) if row is None else row
        pin = i if pinned else None
        if kind == "remainder":
            cands = supporting_vectors(row, pin)
        else:
            cands = RowCandidates(row, True, pin)
        jac.derived[key] = cands
    return cands


def _corners(candidates: RowCandidates, a, b) -> list[list[tuple[float, float]]]:
    """Per coordinate, each choice's (zeta_plus_j, |m_j| * (a_j - b_j)): the
    term is m_j * (zeta_minus_j - zeta_plus_j) up to the sign of a zero, which
    fsum ignores, and zero for a zero slope even where a_j - b_j overflows.
    With a and b swapped the first entries are zeta_minus_j."""
    return [
        [(bj if tag is Branch.UPPER else aj, abs(m) * (aj - bj) if m else 0.0)
         for m, tag in choices]
        for aj, bj, choices in zip(a, b, candidates.choices)
    ]


def eval_remainder_upper(
    candidates: RowCandidates,
    f_i: Expr,
    a: Sequence[float],
    b: Sequence[float],
    memo: dict | None = None,
    gathered: tuple | None = None,
) -> float:
    """min over candidates of f_i(zeta_plus) + m . (zeta_minus - zeta_plus);
    gathered, if given, is (*a, *b), and memo holds f_i's corner values (`_extremum`)."""
    return _extremum(candidates, f_i, a, b, 1.0, memo, gathered)


def eval_remainder_lower(
    candidates: RowCandidates,
    f_i: Expr,
    a: Sequence[float],
    b: Sequence[float],
    memo: dict | None = None,
    gathered: tuple | None = None,
) -> float:
    """max over candidates of f_i(zeta_minus) + m . (zeta_plus - zeta_minus);
    gathered, if given, is (*b, *a), and memo holds f_i's corner values (`_extremum`)."""
    # swapping a and b swaps zeta_plus and zeta_minus
    return _extremum(candidates, f_i, b, a, -1.0, memo, gathered)


def _extremum(candidates: RowCandidates, f_i, a, b, sign: float, memo=None, ab=None) -> float:
    """sign * min over candidates of sign * (f_i(zeta_plus) + m . (zeta_minus - zeta_plus)),
    the remainder summed from the terms of `_corners`.  ab, if given, is (*a, *b); memo,
    given with ab, maps the all-zero vector's corners to their values; it never holds a
    corner with a zero (0.0 == -0.0), and an error is never stored."""
    # an all-zero slope vector exists only when every coordinate is
    # sign-stable; its corner value is then the exact extremum, so no other
    # candidate can be mathematically better (only spuriously, by rounding)
    if candidates.zero is not None:
        z = candidates.corner((*a, *b) if ab is None else ab)
        if memo is None or (val := memo.get(z)) is None:
            val = eval_point(f_i, z)
            if memo is not None and 0.0 not in z:
                memo[z] = val
        if not math.isnan(val):
            return val
    best = math.inf  # NaN values never compare below it
    for combo in itertools.product(*_corners(candidates, a, b)):
        zp, terms = zip(*combo)
        val = sign * (eval_point(f_i, zp) + _fsum(terms))
        if val < best:
            best = val
    return sign * best


def decompose(
    f: Sequence[Expr],
    jac: JacobianBounds,
    kind: str,
    a: Sequence[float],
    b: Sequence[float],
    pinned: bool = False,
) -> list[tuple[float, float]]:
    """Raw (upper, lower) decomposition values of each row of f.

    kind is one of SELECTORS; a/b are the two evaluation arguments
    (box.hi/box.lo for an enclosure).  With pinned set (the continuous-time
    embedding) row i is pinned: its slope in column i is zero, on the lower
    branch, so its upper value is taken at (a, b with b[i] = a[i]) and its
    lower value at (a with a[i] = b[i], b) with no argument copied.  The
    tight_vertex stability check reads the same pinned rows, built once, so
    the pinned entry never fails it.  A row of jac whose column count is not
    the length of a raises DimensionMismatch.
    """
    built = None
    if kind == "tight_vertex":
        built = [_row(jac, i, pinned) for i in range(jac.rows)]
        bad = [(i, j) for i, row in enumerate(built) for j, entry in enumerate(row)
               if entry.lo < 0.0 < entry.hi]
        if bad:
            raise NotSignStable(bad)
    ab, ba, rows = (*a, *b), (*b, *a), []
    for i, f_i in enumerate(f):
        cands = row_candidates(jac, kind, i, pinned, built[i] if built else None)
        if len(cands.row) != len(a):
            raise DimensionMismatch(
                f"row {i} of the bounds has {len(cands.row)} columns, the box {len(a)} dims")
        rows.append((
            eval_remainder_upper(cands, f_i, a, b, None, ab),
            eval_remainder_lower(cands, f_i, a, b, None, ba),
        ))
    return rows


def outward_rows(rows: Sequence[tuple[float, float]], kind: str) -> list[tuple[float, float]]:
    """(lower, upper) of each of decompose's (upper, lower) rows, with a
    finite overflow rounded outward (interval.outward).

    Raises InvertedBounds when a row's lower bound comes out above its upper
    bound (unsound derivative bounds, for example) instead of swapping them.
    """
    out = []
    for i, (upper, lower) in enumerate(rows):
        lower, upper = outward(lower, upper)
        if lower > upper:
            raise InvertedBounds(f"{kind} row {i}: lower bound {lower} exceeds upper bound {upper}")
        out.append((lower, upper))
    return out


def enclose(f: Sequence[Expr], jac: JacobianBounds, box: Box, kind: str) -> Box:
    """Decomposition enclosure of f over box by the engine `kind` (see outward_rows)."""
    return Box(itertools.starmap(Interval, outward_rows(decompose(f, jac, kind, box.hi, box.lo), kind)))


def t_r_inclusion(f: Sequence[Expr], jac: JacobianBounds, box: Box) -> Box:
    """Full candidate-minimization decomposition enclosure over box."""
    return enclose(f, jac, box, "remainder")


def t_l_inclusion(f: Sequence[Expr], jac: JacobianBounds, box: Box) -> Box:
    """Single-candidate sign-selection enclosure (member of the full family)."""
    return enclose(f, jac, box, "jacobian_sign")


def t_o_vertex_inclusion(f: Sequence[Expr], jac: JacobianBounds, box: Box) -> Box:
    """Tight corner enclosure; requires every derivative bound sign-stable.

    Sign stability makes each component monotone per coordinate, so the
    vertex optimum is attained at a single directly-selected corner.
    """
    return enclose(f, jac, box, "tight_vertex")


@dataclass(frozen=True)
class ErrorBounds:
    """Tightness-gap bounds for the remainder-form enclosure of one row.

    q_upper_hat is the cheap a-priori bound, q_upper refines it with corner
    evaluations, and q_lower_estimate (present only when a sampled range
    estimate is supplied) estimates the actually-achieved gap.
    """

    q_lower_estimate: float | None
    q_upper: float
    q_upper_hat: float


def error_bounds(
    f_i: Expr,
    jac_row: Sequence[Interval],
    box: Box,
    oracle_range: Interval | None = None,
) -> ErrorBounds:
    """Error bounds of the remainder-form enclosure of f_i over box.

    A candidate's gap is its remainder m . (zeta_minus - zeta_plus) plus
    f_i(zeta_plus) - f_i(zeta_minus); q_upper is the least gap, and
    q_upper_hat the least remainder: the sign-selected vector's, since the
    remainder sums non-negative per-coordinate terms.
    """
    jac = JacobianBounds((tuple(jac_row),))
    cands = row_candidates(jac, "remainder", 0)
    plus, minus = _corners(cands, box.hi, box.lo), _corners(cands, box.lo, box.hi)
    q_upper_hat = _fsum([min(t for _, t in choices) for choices in plus])
    gaps = []
    for combo, combo_minus in zip(itertools.product(*plus), itertools.product(*minus)):
        zp, terms = zip(*combo)
        zm = [z for z, _ in combo_minus]
        gaps.append(_fsum(terms) + (eval_point(f_i, zp) - eval_point(f_i, zm)))
    q_upper = min(q_upper_hat, min(gaps))
    q_lower = None
    if oracle_range is not None:
        # the enclosure, so an end past the largest float compares like the
        # oracle's; equal infinite ends are 0 apart
        enc = t_r_inclusion([f_i], jac, box)[0]
        q_lower = max(excess(enc.hi, oracle_range.hi), excess(oracle_range.lo, enc.lo))
    return ErrorBounds(q_lower_estimate=q_lower, q_upper=q_upper, q_upper_hat=q_upper_hat)
