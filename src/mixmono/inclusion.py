"""Interval enclosure engines and combinators.

Provides the natural, centered, and mixed-centered inclusion functions, a
uniform method dispatcher covering the decomposition-based engines as well,
componentwise best-of intersection, a-priori/measured error bounds for the
remainder form, and uniform-subdivision refinement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .decomp import (
    SELECTORS,
    TimeSemantics,
    corner_points,
    supporting_vectors,
    t_l_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from .errors import (
    CellBudgetExceeded,
    EmptyIntersection,
    InfiniteJacobianEntry,
)
from .expr import (
    ClarkeInterval,
    Expr,
    JacobianBounds,
    clarke_jacobian_bounds,
    eval_interval,
    eval_point,
)
from .interval import Box, Interval

JacProvider = Callable[[Box], JacobianBounds]

CELL_BUDGET = 10**6


@dataclass(frozen=True)
class MethodId:
    """One of the enclosure engines, or an intersection of several."""

    kind: str  # natural|centered|mixed_centered|jacobian_sign|remainder|tight_vertex|best_of
    members: tuple["MethodId", ...] = ()

    def __post_init__(self):
        if self.kind == "best_of":
            if not self.members:
                raise ValueError("best_of needs at least one member method")
            if any(m.kind == "best_of" for m in self.members):
                raise ValueError("best_of members must not be nested best_of")
        elif self.members:
            raise ValueError(f"method {self.kind!r} takes no members")

    def __str__(self) -> str:
        if self.kind == "best_of":
            return "best_of(" + ",".join(map(str, self.members)) + ")"
        return self.kind


NATURAL = MethodId("natural")
CENTERED = MethodId("centered")
MIXED_CENTERED = MethodId("mixed_centered")
JACOBIAN_SIGN = MethodId("jacobian_sign")
REMAINDER = MethodId("remainder")
TIGHT_VERTEX = MethodId("tight_vertex")


def best_of_method(members: Sequence[MethodId]) -> MethodId:
    return MethodId("best_of", tuple(members))


def default_jac_provider(
    f: Sequence[Expr],
    overrides: dict[tuple[int, int], ClarkeInterval] | None = None,
) -> JacProvider:
    return lambda box: clarke_jacobian_bounds(f, box, overrides)


def _finite_jac(jac: JacobianBounds, context: str) -> None:
    bad = [
        (i, j)
        for i in range(jac.rows)
        for j, e in enumerate(jac.row(i))
        if not e.finite_both
    ]
    if bad:
        raise InfiniteJacobianEntry(f"{context} needs two-sided finite bounds; got infinite at {bad}")


def t_n_inclusion(f: Sequence[Expr], box: Box) -> Box:
    """Natural inclusion: interval evaluation of each component."""
    return Box(eval_interval(e, box) for e in f)


def t_c_inclusion(f: Sequence[Expr], jac: JacobianBounds, box: Box) -> Box:
    """Centered form: f(midpoint) + J . (box - midpoint)."""
    _finite_jac(jac, "centered form")
    m = box.midpoint()
    dims = []
    for i, e in enumerate(f):
        acc = Interval.point(eval_point(e, m))
        for j, entry in enumerate(jac.row(i)):
            dev = box[j] - Interval.point(m[j])
            acc = acc + Interval(entry.lo, entry.hi) * dev
        dims.append(acc)
    return Box(dims)


def t_m_inclusion(f: Sequence[Expr], jac_provider: JacProvider, box: Box) -> Box:
    """Mixed-centered form: per-coordinate slopes over partially-collapsed boxes.

    Coordinate j's slope interval is evaluated over the sub-box whose first j
    coordinates are full and whose remaining coordinates are pinned at the
    midpoint, which tightens the plain centered form.
    """
    m = box.midpoint()
    n = len(box)
    sub_jacs = []
    for j in range(n):
        sub = Box(
            box[t] if t <= j else Interval.point(m[t]) for t in range(n)
        )
        jac_j = jac_provider(sub)
        _finite_jac(jac_j, "mixed-centered form")
        sub_jacs.append(jac_j)
    dims = []
    for i, e in enumerate(f):
        acc = Interval.point(eval_point(e, m))
        for j in range(n):
            entry = sub_jacs[j][i, j]
            dev = box[j] - Interval.point(m[j])
            acc = acc + Interval(entry.lo, entry.hi) * dev
        dims.append(acc)
    return Box(dims)


def best_of(results: Sequence[Box]) -> Box:
    """Componentwise intersection of sound enclosures."""
    out = results[0]
    for r in results[1:]:
        nxt = out.intersect(r)
        if nxt is None:
            raise EmptyIntersection(
                f"enclosures {out} and {r} are disjoint; some input was unsound"
            )
        out = nxt
    return out


def apply_method(
    method: MethodId,
    f: Sequence[Expr],
    box: Box,
    jac_provider: JacProvider | None = None,
) -> Box:
    """Evaluate one enclosure engine (or their intersection) over box."""
    if jac_provider is None:
        jac_provider = default_jac_provider(f)
    if method.kind == "best_of":
        return best_of([apply_method(m, f, box, jac_provider) for m in method.members])
    if method.kind == "natural":
        return t_n_inclusion(f, box)
    if method.kind == "centered":
        return t_c_inclusion(f, jac_provider(box), box)
    if method.kind == "mixed_centered":
        return t_m_inclusion(f, jac_provider, box)
    if method.kind in SELECTORS:
        wrapper = {"remainder": t_r_inclusion, "jacobian_sign": t_l_inclusion,
                   "tight_vertex": t_o_vertex_inclusion}[method.kind]
        return wrapper(f, jac_provider(box), box)
    raise ValueError(f"unknown method {method.kind!r}")


METHOD_NAMES = {
    "natural": NATURAL,
    "centered": CENTERED,
    "mixed_centered": MIXED_CENTERED,
    "jacobian_sign": JACOBIAN_SIGN,
    "remainder": REMAINDER,
    "tight_vertex": TIGHT_VERTEX,
}


def sampled_range(
    f: Sequence[Expr],
    box: Box,
    rng=None,
    n_samples: int = 10**5,
    grid_per_dim: int = 10,
) -> Box:
    """Inner estimate of the true image box from dense sampling.

    Combines uniform random samples, a regular grid, and all box vertices.
    The result is contained in the true image, so it lower-bounds every sound
    enclosure's tightness.
    """
    import numpy as np

    from .expr import eval_vec

    if rng is None:
        rng = np.random.default_rng(0)
    n = len(box)
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    pts = [rng.uniform(lo, hi, size=(n_samples, n)).T]
    g = min(grid_per_dim, max(2, int(round(n_samples ** (1.0 / n)))))
    axes = [np.linspace(lo[j], hi[j], g) for j in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts.append(np.stack([m.ravel() for m in mesh]))
    verts = np.array(list(box.vertices()), dtype=float).T
    if verts.size:
        pts.append(verts)
    cols = np.concatenate(pts, axis=1)
    dims = []
    for e in f:
        vals = eval_vec(e, cols)
        dims.append(Interval(float(np.min(vals)), float(np.max(vals))))
    return Box(dims)


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
    jac_row: Sequence[ClarkeInterval],
    box: Box,
    semantics: TimeSemantics = TimeSemantics.DISCRETE,
    oracle_range: Interval | None = None,
    i: int = 0,
    diagonal_value: float | None = None,
) -> ErrorBounds:
    a, b = box.hi, box.lo
    cands = supporting_vectors(jac_row, semantics, i)
    d3, d3p4, d1, d2 = [], [], [], []
    for cand in cands:
        zp, zm = corner_points(cand, a, b, semantics, i, diagonal_value)
        delta3 = math.fsum(mj * (u - v) for mj, u, v in zip(cand.m, zm, zp))
        fzp = eval_point(f_i, zp)
        fzm = eval_point(f_i, zm)
        d3.append(delta3)
        d3p4.append(delta3 + (fzp - fzm))
        d1.append(fzp + delta3)
        d2.append(fzm - delta3)
    q_upper_hat = min(d3)
    q_upper = min(q_upper_hat, min(d3p4))
    q_lower = None
    if oracle_range is not None:
        q_lower = max(min(d1) - oracle_range.hi, oracle_range.lo - max(d2))
    return ErrorBounds(q_lower_estimate=q_lower, q_upper=q_upper, q_upper_hat=q_upper_hat)


def subdivide_box(box: Box, k: int, cap: int = CELL_BUDGET) -> list[Box]:
    """Split box into k^n congruent cells (k divisions per dimension)."""
    n = len(box)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k**n > cap:
        raise CellBudgetExceeded(f"{k}^{n} cells exceed budget {cap}")
    per_dim = []
    for d in box:
        edges = [d.lo + (d.hi - d.lo) * t / k for t in range(k + 1)]
        edges[-1] = d.hi
        per_dim.append([Interval(edges[t], edges[t + 1]) for t in range(k)])
    return [Box(combo) for combo in itertools.product(*per_dim)]


def subdivide_apply(
    method: MethodId,
    f: Sequence[Expr],
    jac_provider: JacProvider | None,
    box: Box,
    k: int,
    cap: int = CELL_BUDGET,
) -> tuple[list[Box], list[Box], Box]:
    """Apply method per subdivision cell; returns (cells, enclosures, hull)."""
    cells = subdivide_box(box, k, cap)
    enclosures = [apply_method(method, f, cell, jac_provider) for cell in cells]
    hull = enclosures[0]
    for enc in enclosures[1:]:
        hull = hull.hull(enc)
    return cells, enclosures, hull
