"""Interval set inversion by per-dimension bisection.

Shrinks a prior box toward the set of points whose image under a nonlinear
map lies inside a target interval.  Each dimension's lower and upper edge is
moved inward by midpoint bisection; a half-box is discarded only when the
chosen inclusion engine proves its image misses the target entirely, so the
result always contains every consistent point of the prior.

The sweep keeps the probe box as two float lists, its lower and upper ends.
A decomposition engine tests a probe by `decompose` on those lists against
the one Jacobian bound of the prior, through `outward_rows`, the overflow
rule and InvertedBounds check of `enclose`; every other engine, and best_of,
gets a Box built from the ends and goes through `apply_method`.  The boxes
are the same either way, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

from .decomp import SELECTORS, decompose, outward_rows
from .errors import DimensionMismatch, EmptySolution, ValidationError
from .expr import Expr, JacobianBounds
from .inclusion import REMAINDER, MethodId, apply_method
from .interval import Box, Interval


@dataclass(frozen=True)
class InversionConfig:
    """Knobs for the bisection sweep.

    epsilon is the absolute stop width for each edge search, and passes
    repeats the whole sweep, in ascending dimension order, with the previous
    output as the new prior.
    """

    epsilon: float = 1e-3
    passes: int = 1
    method: MethodId = field(default=REMAINDER)

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValidationError("epsilon must be positive")
        try:
            operator.index(self.passes)
        except TypeError:
            raise ValidationError(f"passes must be an integer, got {self.passes!r}") from None
        if self.passes < 1:
            raise ValidationError("passes must be >= 1")


def set_invert(
    nu: Sequence[Expr],
    jac: JacobianBounds,
    prior: Box,
    y_lo: Sequence[float],
    y_hi: Sequence[float],
    cfg: InversionConfig | None = None,
) -> Box:
    """Shrink prior toward {x in prior : y_lo <= nu(x) <= y_hi}.

    jac bounds the Clarke Jacobian of nu over the prior, one row per output
    and one column per dimension of the prior.  The returned box is
    contained in prior and contains every point of the prior satisfying the
    constraint.  Raises EmptySolution when the entire prior is provably
    inconsistent.
    """
    if cfg is None:
        cfg = InversionConfig()
    n_y, n_x = len(nu), len(prior)
    if len(y_lo) != n_y or len(y_hi) != n_y:
        raise DimensionMismatch("constraint bound length does not match output count")
    if any(e.tape.max_var >= n_x for e in nu):
        raise DimensionMismatch(f"a constraint reads a variable outside the {n_x}-dim prior")
    if jac.rows != n_y or any(len(row) != n_x for row in jac.entries):
        raise DimensionMismatch(
            f"Jacobian bounds of shape {[len(row) for row in jac.entries]} do not match "
            f"{n_y} outputs over a {n_x}-dim prior")
    for lo, hi in zip(y_lo, y_hi):
        if not lo <= hi:
            raise ValidationError(f"constraint bounds NaN or inverted: [{lo}, {hi}]")

    method = cfg.method
    if method.kind in SELECTORS:
        def bounds(lo, hi):
            return outward_rows(decompose(nu, jac, method.kind, hi, lo), method.kind)
    else:
        provider = lambda _box: jac  # sound: bounds over the prior cover sub-boxes

        def bounds(lo, hi):
            return [(d.lo, d.hi) for d in apply_method(method, nu, Box(map(Interval, lo, hi)),
                                                        provider)]

    def ruled_out(lo, hi) -> bool:
        for (lower, upper), a, b in zip(bounds(lo, hi), y_lo, y_hi):
            if upper < a or lower > b:
                return True
        return False

    lo, hi = list(prior.lo), list(prior.hi)
    if ruled_out(lo, hi):
        raise EmptySolution("the full prior box is inconsistent with the constraint")

    eps = cfg.epsilon
    for _ in range(cfg.passes):
        for i in range(n_x):
            top = hi[i]
            # raise the lower edge: discard certified-inconsistent lower halves
            a, b = lo[i], top
            while b - a > eps:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break  # epsilon is below the local float resolution
                lo[i], hi[i] = a, m
                if ruled_out(lo, hi):
                    a = m
                else:
                    b = m
            new_lo = a
            # lower the upper edge symmetrically, within what survived
            a, b = new_lo, top
            while b - a > eps:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break
                lo[i], hi[i] = m, b
                if ruled_out(lo, hi):
                    b = m
                else:
                    a = m
            lo[i], hi[i] = new_lo, b
    return Box(map(Interval, lo, hi))
