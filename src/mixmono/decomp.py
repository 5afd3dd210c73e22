"""Remainder-form decomposition: one core, three selectors.

The remainder, sign-selected and tight vertex forms are one decomposition
function, min over supporting vectors m of f(zeta_plus) + m . (zeta_minus -
zeta_plus), and differ only in which vectors m a row may use.  Each m picks
one branch of each coordinate's derivative bound, so a row's candidates are
the Cartesian product of per-coordinate (slope, branch) choices, and
`RowCandidates` keeps them as those choices.  One scan of a row's bounds
finds its all-zero vector and its candidate count; the choices are built
only where they are read, since a sign-stable row evaluates the all-zero
vector alone, at a corner gathered straight from the arguments:

* remainder: every candidate of `supporting_vectors` (the tightest
  tractable form);
* jacobian_sign: the single sign-selected candidate, each coordinate's
  smallest-magnitude choice (cheaper, always looser or equal);
* tight_vertex: the sign-selected candidate after a sign-stability check;
  there it is all zeros, so each bound is one exact corner value.

`decompose` evaluates that function row by row for discrete-time enclosures
and, with `pinned`, for the continuous-time embedding: there row i is the
same function with coordinate i pinned, a zero slope in column i and equal
arguments there.  `error_bounds` bounds the remainder form's error from the
same candidates; its a-priori q_upper_hat is the sign-selected remainder.
`enclose_lanes` is `enclose` over many boxes at once (the lanes of lanes.py),
with each box's candidates taken from its bounds by the same rules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import (
    CandidateExplosion,
    DimensionMismatch,
    InvertedBounds,
    NotSignStable,
    UnboundedBothSides,
)
from .expr import ZERO_PARTIAL, Expr, JacobianBounds, _fsum, eval_point
from .interval import Box, Interval, excess, outward
from .lanes import point_lanes


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"


CANDIDATE_CAP = 2**16

# the slope bound of a pinned coordinate: one candidate value, 0.0
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

    One scan of the row's bounds gives zero, the branches of the all-zero
    vector (None when there is none), and the candidate count, and raises
    UnboundedBothSides or CandidateExplosion at the entry where the choices
    would; the shared ZERO_PARTIAL entry, one upper choice 0.0, is passed
    over by identity.  `corner` gathers the all-zero vector's corner from
    the arguments (None without that vector).  `choices` is built when
    first read, which only a row without an all-zero vector, or with a NaN
    value at its corner, and error_bounds do.
    """

    def __init__(self, row: Sequence[Interval], selected: bool = False):
        self.row, self.selected = row, selected
        zero, count = [], 1
        for entry in row:
            if entry is ZERO_PARTIAL:
                zero.append(Branch.UPPER)
                continue
            lo, hi = entry.lo, entry.hi
            upper, lower = math.isfinite(hi), math.isfinite(lo)
            if upper and hi <= 0.0:  # the upper choice is 0.0; lo >= 0 would repeat it
                zero.append(Branch.UPPER)
                size = 1 + (lower and lo < 0.0)
            elif lower and lo >= 0.0:  # the lower choice is 0.0, the upper one hi > 0
                zero.append(Branch.LOWER)
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
        self.zero = None if None in zero else tuple(zero)
        self.count = count
        # (*a, *b) -> the all-zero vector's zeta_plus, as a tuple: b_j where
        # its branch is the upper one, a_j where it is the lower one
        self.corner = None
        if self.zero is not None:
            n = len(zero)
            index = [j + n if tag is Branch.UPPER else j for j, tag in enumerate(zero)]
            # itemgetter takes at least one index, and with one returns no tuple
            self.corner = itemgetter(*index) if n > 1 else lambda ab: tuple(ab[k] for k in index)

    @cached_property
    def choices(self) -> tuple[tuple[tuple[float, Branch], ...], ...]:
        per_coord = map(_coordinate_choices, self.row)
        if self.selected:
            return tuple((min(reversed(c), key=lambda c: abs(c[0])),) for c in per_coord)
        return tuple(map(tuple, per_coord))

    def __len__(self) -> int:
        return self.count


def supporting_vectors(jac_row: Sequence[Interval]) -> RowCandidates:
    """Cartesian product of per-coordinate branch choices for one row."""
    return RowCandidates(jac_row)


def _row(jac: JacobianBounds, i: int, pinned: bool) -> tuple[Interval, ...]:
    """Row i of jac; a pinned row has a zero slope in column i."""
    row = jac.row(i)
    return row[:i] + (_PINNED,) + row[i + 1:] if pinned else row


def row_candidates(
    jac: JacobianBounds, kind: str, i: int, pinned: bool = False
) -> RowCandidates:
    """The candidates the engine `kind` may use in row i of jac.

    Built once per (kind, pinned, row) and kept on jac, so every
    decomposition against the same bounds (set_invert's many sub-boxes)
    reuses them.
    """
    key = (kind, pinned, i)
    cands = jac.derived.get(key)
    if cands is None:
        row = _row(jac, i, pinned)
        if kind == "remainder":
            cands = supporting_vectors(row)
        else:
            cands = RowCandidates(row, selected=True)
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
) -> float:
    """min over candidates of f_i(zeta_plus) + m . (zeta_minus - zeta_plus)."""
    return _extremum(candidates, f_i, a, b, 1.0)


def eval_remainder_lower(
    candidates: RowCandidates,
    f_i: Expr,
    a: Sequence[float],
    b: Sequence[float],
) -> float:
    """max over candidates of f_i(zeta_minus) + m . (zeta_plus - zeta_minus)."""
    # swapping a and b swaps zeta_plus and zeta_minus
    return _extremum(candidates, f_i, b, a, -1.0)


def _extremum(candidates: RowCandidates, f_i, a, b, sign: float) -> float:
    """sign * min over candidates of sign * (f_i(zeta_plus) + m . (zeta_minus - zeta_plus)),
    the remainder summed from the terms of `_corners`."""
    # an all-zero slope vector exists only when every coordinate is
    # sign-stable; its corner value is then the exact extremum, so no other
    # candidate can be mathematically better (only spuriously, by rounding)
    if candidates.zero is not None:
        val = eval_point(f_i, candidates.corner((*a, *b)))
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
    embedding) row i is pinned: its slope in column i is zero, its upper
    value is taken at (a, b with b[i] = a[i]) and its lower value at (a with
    a[i] = b[i], b).  The tight_vertex stability check reads the same pinned
    rows, so the pinned entry never fails it.  A row of jac whose column
    count is not the length of a raises DimensionMismatch.
    """
    if kind == "tight_vertex":
        bad = [
            (i, j)
            for i in range(jac.rows)
            for j, entry in enumerate(_row(jac, i, pinned))
            if entry.lo < 0.0 < entry.hi
        ]
        if bad:
            raise NotSignStable(bad)
    rows = []
    for i, f_i in enumerate(f):
        cands = row_candidates(jac, kind, i, pinned)
        if len(cands.row) != len(a):
            raise DimensionMismatch(
                f"row {i} of the bounds has {len(cands.row)} columns, the box {len(a)} dims")
        a_lo, b_up = a, b
        if pinned:
            a_lo = (*a[:i], b[i], *a[i + 1:])
            b_up = (*b[:i], a[i], *b[i + 1:])
        rows.append((
            eval_remainder_upper(cands, f_i, a, b_up),
            eval_remainder_lower(cands, f_i, a_lo, b),
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


# a lane with more candidates in a row than this runs through the scalar
# code; it is below CANDIDATE_CAP, so a lane the scalar code refuses is one
LANE_CANDIDATES = 2**10


def _lane_candidates(entries: np.ndarray, kind: str, bad: np.ndarray):
    """One row's candidates in every clean lane, by the rules of
    `row_candidates`: entries is the row's (n, 2, K) array of bounds.

    Returns (slopes, branch, shortcut, cell): per candidate, its slope
    vector, which coordinates take the lower branch, whether it is the all-zero
    vector that `_extremum` evaluates alone, and its lane, with each lane's
    candidates in itertools.product order.  A lane that the scalar code
    would refuse (CandidateExplosion) or that has more than LANE_CANDIDATES
    candidates is added to bad and given one placeholder candidate.
    """
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
        branch = np.empty((len(two), len(cell)), dtype=bool)
        for j in reversed(range(len(two))):  # the last coordinate varies fastest
            split = two[j, cell]
            branch[j] = split & (rank % 2 == 1)
            rank = np.where(split, rank // 2, rank)
        shortcut = zero[cell]
        # the all-zero vector takes each coordinate's first zero choice
        branch = np.where(shortcut, ~(upper == 0.0)[:, cell], branch)
    else:  # each coordinate's smallest-magnitude choice, the lower branch on a tie
        cell = np.arange(count)
        branch = two & (np.abs(lower) <= np.abs(upper))
        shortcut = (np.where(branch, lower, upper) == 0.0).all(axis=0)
    return np.where(branch, lower[:, cell], upper[:, cell]), branch, shortcut, cell


def _lane_extremum(f_i: Expr, slopes, branch, shortcut, cell, a, b, sign: float):
    """`_extremum` for every lane at once: a and b are the (n, K) arguments,
    the other inputs those of `_lane_candidates`.  Returns each lane's value
    and whether it is unclean."""
    a, b = a[:, cell], b[:, cell]
    values, bad = point_lanes(f_i.tape, np.where(branch, a, b))
    rest = ~shortcut
    if rest.any():
        terms = np.where(slopes != 0.0, np.abs(slopes) * (a - b), 0.0)
        sums = np.zeros(len(cell))
        sums[rest] = list(map(_fsum, terms[:, rest].T.tolist()))
        values = np.where(rest, values + sums, values)
        bad |= ~np.isfinite(values)
    # each lane's value is its first least candidate, in product order
    key = np.where(bad, 0.0, sign * values)
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    hits = np.flatnonzero(key == np.minimum.reduceat(key, starts)[cell])
    return values[hits[np.searchsorted(hits, starts)]], np.logical_or.reduceat(bad, starts)


def enclose_lanes(f: Sequence[Expr], jac: np.ndarray, kind: str, lo: np.ndarray,
                  hi: np.ndarray, bad: np.ndarray):
    """`enclose` over K boxes at once, the lanes of lanes.py.

    jac is the (rows, n, 2, K) array of the boxes' Clarke bounds and lo, hi
    the (n, K) ends of the boxes; bad marks the unclean lanes.  Returns the
    (rows, K) lower and upper bounds and the mask extended by every lane
    that the scalar code computes from a non-finite value or refuses
    (NotSignStable, CandidateExplosion, InvertedBounds).  On the other lanes
    the bounds are bit-identical to `enclose`'s.
    """
    bad = bad.copy()
    if kind == "tight_vertex":
        bad |= ((jac[:, :, 0] < 0.0) & (0.0 < jac[:, :, 1])).any(axis=(0, 1))
    lower, upper = np.empty((len(f), len(bad))), np.empty((len(f), len(bad)))
    with np.errstate(all="ignore"):  # unclean lanes may hold inf and nan
        for i, f_i in enumerate(f):
            cands = _lane_candidates(jac[i], kind, bad)
            upper[i], up_bad = _lane_extremum(f_i, *cands, hi, lo, 1.0)
            lower[i], lo_bad = _lane_extremum(f_i, *cands, lo, hi, -1.0)
            bad |= up_bad | lo_bad
        return lower, upper, bad | (lower > upper).any(axis=0)


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
