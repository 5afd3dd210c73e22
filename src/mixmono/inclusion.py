"""Interval enclosure engines and combinators.

Provides the natural, centered, and mixed-centered inclusion functions; one
method dispatcher over every engine, the decomposition-based ones included,
that gives each row's raw upper and lower bound either over a box (discrete
time) or with the row's own coordinate pinned (the continuous-time embedding
derivative), and whose best_of intersects the bounds of the members that do
not refuse, in both; and uniform-subdivision refinement.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .decomp import (
    SELECTORS,
    decompose,
    t_l_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from .errors import (CellBudgetExceeded, EmptyIntersection, InfiniteJacobianEntry, Refusal,
                     UnboundedBothSides, ValidationError)
from .expr import (
    Expr,
    JacobianBounds,
    clarke_jacobian_bounds,
    eval_interval,
    eval_point,
)
from .interval import Box, Interval, outward

JacProvider = Callable[[Box], JacobianBounds]

CELL_BUDGET = 10**6
# the most random samples sampled_range draws: 8 bytes per sample and
# dimension, so 10**7 samples of a 6-dimensional box take 480 MB
SAMPLE_CAP = 10**7


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


class _ClarkeProvider:
    """Clarke bounds of the rows f over a box, overrides replacing entries.

    It keeps its rows and overrides, so that subdivide_apply can compute the
    same bounds for many cells in one lane pass.
    """

    __slots__ = ("f", "overrides")

    def __init__(self, f: Sequence[Expr],
                 overrides: dict[tuple[int, int], Interval] | None = None):
        self.f, self.overrides = f, overrides

    def __call__(self, box: Box) -> JacobianBounds:
        return clarke_jacobian_bounds(self.f, box, self.overrides)

    def row(self, i: int) -> JacProvider:
        """Row i's bounds alone, an unbounded entry listed at (i, j)."""
        f = self.f[i:i + 1]
        fixed = {(0, j): v for (r, j), v in (self.overrides or {}).items() if r == i}

        def row(box: Box) -> JacobianBounds:
            try:
                return clarke_jacobian_bounds(f, box, fixed)
            except UnboundedBothSides as exc:  # its message lists only positions (0, j)
                raise UnboundedBothSides(str(exc).replace("(0, ", f"({i}, ")) from None
        return row


default_jac_provider = _ClarkeProvider


def _finite_jac(jac: JacobianBounds, context: str) -> None:
    bad = [(i, j) for i, row in enumerate(jac.entries) for j, e in enumerate(row) if not e.finite_both]
    if bad:
        raise InfiniteJacobianEntry(f"{context} needs two-sided finite bounds; got infinite at {bad}")


def t_n_inclusion(f: Sequence[Expr], box: Box) -> Box:
    """Natural inclusion: interval evaluation of each component."""
    return Box(eval_interval(e, box) for e in f)


def _centered(
    f: Sequence[Expr],
    box: Box,
    slopes: Callable[[int], Sequence[Interval]],
) -> Box:
    """Row i: f_i(m) + sum over j of slopes(i)[j] * (box_j - m_j), m the
    midpoint; a value f_i(m) past the largest float rounds outward, and a
    NaN one gives the whole line."""
    m = box.midpoint()
    devs = [d - Interval.point(x) for d, x in zip(box, m)]
    dims = []
    for i, e in enumerate(f):
        v = eval_point(e, m)
        acc = Interval(*outward(v, v)) if v == v else Interval(-math.inf, math.inf)
        for entry, dev in zip(slopes(i), devs):
            acc = acc + entry * dev
        dims.append(acc)
    return Box(dims)


def t_c_inclusion(f: Sequence[Expr], jac: JacobianBounds, box: Box) -> Box:
    """Centered form: f(midpoint) + J . (box - midpoint)."""
    _finite_jac(jac, "centered form")
    return _centered(f, box, jac.row)


def t_m_inclusion(f: Sequence[Expr], jac_provider: JacProvider, box: Box) -> Box:
    """Mixed-centered form: per-coordinate slopes over partially-collapsed boxes.

    Coordinate j's slope interval is evaluated over the sub-box whose first j
    coordinates are full and whose remaining coordinates are pinned at the
    midpoint, which tightens the plain centered form.  Sub-box j shares sub-box
    j - 1's Jacobian where coordinate j is m_j already, signed zeros included.
    """
    m = box.midpoint()
    n = len(box)
    sub_jacs = []
    for j in range(n):
        d, x = box[j], m[j]
        if j and d.lo == d.hi == x and (math.copysign(1.0, d.lo) == math.copysign(1.0, d.hi)
                                        == math.copysign(1.0, x)):
            sub_jacs.append(sub_jacs[-1])
            continue
        sub = Box(
            box[t] if t <= j else Interval.point(m[t]) for t in range(n)
        )
        jac_j = jac_provider(sub)
        _finite_jac(jac_j, "mixed-centered form")
        sub_jacs.append(jac_j)
    return _centered(f, box, lambda i: [sub_jacs[j][i, j] for j in range(n)])


def _enclose(kind: str, f: Sequence[Expr], box: Box, jac_provider: JacProvider) -> Box:
    """The enclosure of f over box by the single engine `kind`."""
    if kind == "natural":
        return t_n_inclusion(f, box)
    if kind == "mixed_centered":
        return t_m_inclusion(f, jac_provider, box)
    engine = {"centered": t_c_inclusion, "remainder": t_r_inclusion,
              "jacobian_sign": t_l_inclusion, "tight_vertex": t_o_vertex_inclusion}.get(kind)
    if engine is None:
        raise ValueError(f"unknown method {kind!r}")
    return engine(f, jac_provider(box), box)


def _bounds(method: MethodId, f: Sequence[Expr], hi: Sequence[float], lo: Sequence[float],
            jac_provider: JacProvider, rows: Sequence[JacProvider] | None = None,
            rest: Sequence[Interval] = ()) -> list[tuple[float, float]]:
    """Raw (upper, lower) bounds of each row of f for the arguments (hi, lo),
    whose last len(rest) entries are the ends of rest's intervals.

    Without rows, hi/lo are a box's corners and each engine gives its usual
    enclosure.  With rows, each row's _ClarkeProvider.row, they are the
    continuous-time embedding's unordered upper and lower states, then the
    disturbance's ends, and rest its intervals; row i pins its own
    coordinate: decomposition engines evaluate decompose(..., pinned=True),
    interval engines enclose f_i over the hull's faces at hi[i] and lo[i]
    with rows[i] as slopes.  best_of keeps each row's tightest member bound;
    its members share each box's Jacobian and row, and a row whose faces are
    the hull (hi[i] == lo[i]) reads the hull's Jacobian.  A member that refuses
    drops out; if all do, the first one's Refusal raises, and any other error at once.
    """
    jac = functools.cache(jac_provider) if method.members else jac_provider
    k = len(hi) - len(rest)
    hull = Box((*(Interval(min(a, b), max(a, b)) for a, b in zip(lo[:k], hi[:k])), *rest))
    if rows is not None and method.members:
        rows = [functools.cache(r) if hi[i] != lo[i] else lambda box, i=i:
                JacobianBounds(jac(box).entries[i:i + 1]) for i, r in enumerate(rows)]

    def face(kind, i, x):
        return _enclose(kind, [f[i]], hull.replace(i, Interval.point(x[i])), rows[i])[0]

    members, refusals = [], []
    for m in method.members or (method,):
        try:
            if rows is None:
                members.append([(d.hi, d.lo) for d in _enclose(m.kind, f, hull, jac)])
            elif m.kind in SELECTORS:
                members.append(decompose(f, jac(hull), m.kind, hi, lo, pinned=True))
            else:
                members.append([(face(m.kind, i, hi).hi, face(m.kind, i, lo).lo)
                                for i in range(len(f))])
        except Refusal as exc:
            refusals.append(exc)
    if not members:
        raise refusals[0]
    return _meet(members) if method.members else members[0]


def _meet(members) -> list[tuple[float, float]]:
    """Per row, the least upper and the greatest lower bound of the members."""
    return [(min(u for u, _ in row), max(l for _, l in row)) for row in zip(*members)]


def _box(rows: Sequence[tuple[float, float]]) -> Box:
    disjoint = [i for i, (upper, lower) in enumerate(rows) if lower > upper]
    if disjoint:
        raise EmptyIntersection(f"enclosures disjoint in dimensions {disjoint}; some input was unsound")
    return Box(Interval(lower, upper) for upper, lower in rows)


def best_of(results: Sequence[Box]) -> Box:
    """Componentwise intersection of sound enclosures."""
    for r in results[1:]:
        r._check_dim(len(results[0]))
    return _box(_meet([zip(r.hi, r.lo) for r in results]))


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
        return _box(_bounds(method, f, box.hi, box.lo, jac_provider))
    return _enclose(method.kind, f, box, jac_provider)


METHOD_NAMES = {m.kind: m for m in (NATURAL, CENTERED, MIXED_CENTERED, JACOBIAN_SIGN,
                                    REMAINDER, TIGHT_VERTEX)}


def sampled_range(
    f: Sequence[Expr],
    box: Box,
    rng=None,
    n_samples: int = 10**5,
) -> Box:
    """Inner estimate of the true image box from dense sampling.

    Combines n_samples uniform random samples (0 to SAMPLE_CAP), a regular
    grid of at most 10 points per dimension, and all box vertices, and skips
    every sample whose value is not a finite float (an overflow, or the NaN
    of inf - inf), which is no real inner point.  The result is contained in
    the true image, so it lower-bounds every sound enclosure's tightness.
    Raises ValidationError when no sample of a row is left.
    """
    import numpy as np

    from .expr import eval_vec

    if not 0 <= n_samples <= SAMPLE_CAP:
        raise ValidationError(f"the sample count must be from 0 to {SAMPLE_CAP}, got {n_samples}")
    if not all(map(math.isfinite, box.widths())):
        raise ValidationError(f"sampling needs a box of finite widths, got {box}")
    if rng is None:
        rng = np.random.default_rng(0)
    n = len(box)
    lo = np.asarray(box.lo)
    hi = np.asarray(box.hi)
    pts = [rng.uniform(lo, hi, size=(n_samples, n)).T]
    g = min(10, max(2, int(round(n_samples ** (1.0 / n)))))
    axes = [np.linspace(lo[j], hi[j], g) for j in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts.append(np.stack([m.ravel() for m in mesh]))
    verts = np.array(list(box.vertices()), dtype=float).T
    if verts.size:
        pts.append(verts)
    cols = np.concatenate(pts, axis=1)
    dims = []
    for i, e in enumerate(f):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = eval_vec(e, cols)
        vals = vals[np.isfinite(vals)]
        if not vals.size:
            raise ValidationError(f"no sample of row {i + 1} over {box} has a finite value")
        dims.append(Interval(float(np.min(vals)), float(np.max(vals))))
    return Box(dims)


def subdivide_box(box: Box, k: int) -> list[Box]:
    """Split box into k^n congruent cells (k divisions per dimension)."""
    n = len(box)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k**n > CELL_BUDGET:
        raise CellBudgetExceeded(f"{k}^{n} cells exceed budget {CELL_BUDGET}")
    if not all(d.finite_both for d in box):
        raise ValidationError(f"subdivision needs a box of finite ends, got {box}")
    per_dim = []
    for d in box:
        w = d.hi - d.lo
        if w < math.inf:
            edges = [d.lo + w * t / k for t in range(k + 1)]
        else:  # the width overflows, and its half does not
            h = 0.5 * d.hi - 0.5 * d.lo
            edges = [d.lo + t / k * h + t / k * h for t in range(k + 1)]
        edges[-1] = d.hi
        per_dim.append([Interval(edges[t], edges[t + 1]) for t in range(k)])
    return [Box(combo) for combo in itertools.product(*per_dim)]


def subdivide_apply(
    method: MethodId,
    f: Sequence[Expr],
    jac_provider: JacProvider | None,
    box: Box,
    k: int,
) -> tuple[list[Box], list[Box], Box]:
    """Apply method per subdivision cell; returns (cells, enclosures, hull).

    A decomposition engine with default_jac_provider's bounds, on rows that
    read only the box's variables, runs the cells as lanes (lanes.enclose_cells);
    the other engines, and the cells whose lanes are unclean, go through
    apply_method in cell order, so the enclosures and the first error are
    those of apply_method on each cell.
    """
    cells = subdivide_box(box, k)
    if jac_provider is None:
        jac_provider = default_jac_provider(f)
    laned = [None] * len(cells)
    if (method.kind in SELECTORS and isinstance(jac_provider, _ClarkeProvider)
            and tuple(jac_provider.f) == tuple(f) and all(e.tape.max_var < len(box) for e in f)):
        from .lanes import enclose_cells
        laned = enclose_cells(method.kind, f, jac_provider.overrides, cells)
    enclosures = [enc if enc is not None else apply_method(method, f, cell, jac_provider)
                  for cell, enc in zip(cells, laned)]
    # min and max keep the first least and greatest end, as a fold of Box.hull does
    hull = Box(Interval(min(d.lo for d in dims), max(d.hi for d in dims))
               for dims in zip(*enclosures))
    return cells, enclosures, hull
