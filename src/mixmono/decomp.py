"""Remainder-form decomposition: one core, three selectors.

The remainder, sign-selected and tight vertex forms are one decomposition
function, min over supporting vectors m of f(zeta_plus) + m . (zeta_minus -
zeta_plus), and differ only in which vectors m a row may use:

* remainder: every candidate of `supporting_vectors` (the tightest
  tractable form);
* jacobian_sign: the single sign-selected candidate (cheaper, always looser
  or equal);
* tight_vertex: the sign-selected candidate after a sign-stability check;
  there it is all zeros, so each bound is one exact corner value.

`decompose` evaluates that function row by row for discrete-time enclosures
and for the continuous-time embedding alike.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import (
    CandidateExplosion,
    InvertedBounds,
    MissingDiagonalValue,
    NotSignStable,
    UnboundedBothSides,
)
from .expr import ClarkeInterval, Expr, JacobianBounds, eval_point
from .interval import Box, Interval, saturate


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"
    DIAGONAL = "diagonal"


class TimeSemantics(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


CANDIDATE_CAP = 2**16

# the decomposition engines, named as their MethodId kinds
SELECTORS = ("remainder", "jacobian_sign", "tight_vertex")


@dataclass(frozen=True)
class SupportingVector:
    """Slope vector selecting a linear remainder and a corner assignment."""

    m: tuple[float, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        if any(not math.isfinite(v) for v in self.m):
            raise UnboundedBothSides(f"non-finite supporting vector {self.m}")


def _coordinate_choices(
    entry: ClarkeInterval,
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


def supporting_vectors(
    jac_row: Sequence[ClarkeInterval],
    semantics: TimeSemantics,
    i: int,
    cap: int = CANDIDATE_CAP,
) -> tuple[SupportingVector, ...]:
    """Cartesian product of per-coordinate branch choices for row i."""
    per_coord: list[list[tuple[float, Branch]]] = []
    count = 1
    for j, entry in enumerate(jac_row):
        if semantics is TimeSemantics.CONTINUOUS and j == i:
            per_coord.append([(0.0, Branch.DIAGONAL)])
        else:
            per_coord.append(_coordinate_choices(entry))
        count *= len(per_coord[-1])
        if count > cap:
            raise CandidateExplosion(
                f"row {i}: {count}+ supporting-vector candidates exceed cap {cap}"
            )
    out = []
    for combo in itertools.product(*per_coord):
        out.append(
            SupportingVector(
                m=tuple(v for v, _ in combo),
                branches=tuple(tag for _, tag in combo),
            )
        )
    return tuple(out)


def _sign_selected_vector(
    jac_row: Sequence[ClarkeInterval],
    semantics: TimeSemantics,
    i: int,
) -> SupportingVector:
    """The single smallest-magnitude branch choice per coordinate."""
    values, tags = [], []
    for j, entry in enumerate(jac_row):
        if semantics is TimeSemantics.CONTINUOUS and j == i:
            values.append(0.0)
            tags.append(Branch.DIAGONAL)
            continue
        lower = min(entry.lo, 0.0)  # -inf when unbounded below
        upper = max(entry.hi, 0.0)  # +inf when unbounded above
        if abs(lower) <= abs(upper):
            if not math.isfinite(lower):
                raise UnboundedBothSides(f"derivative bound {entry} has no finite side")
            values.append(lower)
            tags.append(Branch.LOWER)
        else:
            values.append(upper)
            tags.append(Branch.UPPER)
    return SupportingVector(tuple(values), tuple(tags))


def corner_points(
    m: SupportingVector,
    a: Sequence[float],
    b: Sequence[float],
    semantics: TimeSemantics,
    i: int,
    diagonal_value: float | None = None,
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Corner pair (zeta_plus, zeta_minus) for one candidate.

    a/b are the two evaluation arguments (a >= b componentwise when the
    caller wants the upper bound).
    """
    if semantics is TimeSemantics.CONTINUOUS and diagonal_value is None:
        raise MissingDiagonalValue(f"continuous row {i} needs a diagonal value")
    zp, zm = [], []
    for j, tag in enumerate(m.branches):
        if tag is Branch.DIAGONAL:
            zp.append(diagonal_value)
            zm.append(diagonal_value)
        elif tag is Branch.UPPER:
            zp.append(b[j])
            zm.append(a[j])
        else:
            zp.append(a[j])
            zm.append(b[j])
    return tuple(zp), tuple(zm)


def _dot_diff(m: Sequence[float], u: Sequence[float], v: Sequence[float]) -> float:
    return math.fsum(mj * (uj - vj) for mj, uj, vj in zip(m, u, v))


def eval_remainder_upper(
    candidates: Sequence[SupportingVector],
    f_i: Expr,
    a: Sequence[float],
    b: Sequence[float],
    semantics: TimeSemantics,
    i: int,
    diagonal_value: float | None = None,
) -> float:
    """min over candidates of f_i(zeta_plus) + m . (zeta_minus - zeta_plus)."""
    return _extremum(candidates, f_i, a, b, semantics, i, diagonal_value, 1.0)


def eval_remainder_lower(
    candidates: Sequence[SupportingVector],
    f_i: Expr,
    a: Sequence[float],
    b: Sequence[float],
    semantics: TimeSemantics,
    i: int,
    diagonal_value: float | None = None,
) -> float:
    """max over candidates of f_i(zeta_minus) + m . (zeta_plus - zeta_minus)."""
    # swapping a and b swaps zeta_plus and zeta_minus
    return _extremum(candidates, f_i, b, a, semantics, i, diagonal_value, -1.0)


def _extremum(candidates, f_i, a, b, semantics, i, diagonal_value, sign: float) -> float:
    """sign * min over candidates of sign * (f_i(zeta_plus) + m . (zeta_minus - zeta_plus))."""
    # an all-zero slope vector exists only when every coordinate is
    # sign-stable; its corner value is then the exact extremum, so no other
    # candidate can be mathematically better (only spuriously, by rounding)
    zero = next((c for c in candidates if all(v == 0.0 for v in c.m)), None)
    if zero is not None:
        zp, _ = corner_points(zero, a, b, semantics, i, diagonal_value)
        val = eval_point(f_i, zp)
        if not math.isnan(val):
            return val
    best = math.inf  # NaN values never compare below it
    for cand in candidates:
        zp, zm = corner_points(cand, a, b, semantics, i, diagonal_value)
        val = sign * (eval_point(f_i, zp) + _dot_diff(cand.m, zm, zp))
        if val < best:
            best = val
    return sign * best


def decompose(
    f: Sequence[Expr],
    jac: JacobianBounds,
    kind: str,
    a: Sequence[float],
    b: Sequence[float],
    semantics: TimeSemantics = TimeSemantics.DISCRETE,
) -> list[tuple[float, float]]:
    """Raw (upper, lower) decomposition values of each row of f.

    kind is one of SELECTORS; a/b are the two evaluation arguments
    (box.hi/box.lo for an enclosure).  Under CONTINUOUS semantics row i pins
    coordinate i to a[i] in the upper value and to b[i] in the lower one, and
    that entry is exempt from the tight_vertex stability check because no
    corner uses it.
    """
    continuous = semantics is TimeSemantics.CONTINUOUS
    if kind == "tight_vertex":
        bad = [
            (i, j)
            for i in range(jac.rows)
            for j, entry in enumerate(jac.row(i))
            if entry.lo < 0.0 < entry.hi and not (continuous and j == i)
        ]
        if bad:
            raise NotSignStable(bad)
    rows = []
    for i, f_i in enumerate(f):
        if kind == "remainder":
            cands = supporting_vectors(jac.row(i), semantics, i)
        else:
            cands = (_sign_selected_vector(jac.row(i), semantics, i),)
        up_diag, lo_diag = (a[i], b[i]) if continuous else (None, None)
        rows.append((
            eval_remainder_upper(cands, f_i, a, b, semantics, i, up_diag),
            eval_remainder_lower(cands, f_i, a, b, semantics, i, lo_diag),
        ))
    return rows


def enclose(f: Sequence[Expr], jac: JacobianBounds, box: Box, kind: str) -> Box:
    """Decomposition enclosure of f over box by the engine `kind`.

    Raises InvertedBounds when a row's lower bound comes out above its upper
    bound (unsound derivative bounds, for example) instead of swapping them.
    """
    dims = []
    for i, (upper, lower) in enumerate(decompose(f, jac, kind, box.hi, box.lo)):
        upper, lower = saturate(upper, upper=True), saturate(lower, upper=False)
        if lower > upper:
            raise InvertedBounds(
                f"{kind} row {i}: lower bound {lower} exceeds upper bound {upper}"
            )
        dims.append(Interval(lower, upper))
    return Box(dims)


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
