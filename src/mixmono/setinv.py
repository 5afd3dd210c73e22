"""Interval set inversion by per-dimension bisection.

Shrinks a prior box toward the set of points whose image under a nonlinear
map lies inside a target interval.  Each dimension's lower and upper edge is
moved inward by midpoint bisection; a half-box is discarded only when the
chosen inclusion engine proves its image misses the target entirely, so the
result always contains every consistent point of the prior.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .errors import DimensionMismatch, EmptySolution, ValidationError
from .expr import Expr, JacobianBounds
from .inclusion import REMAINDER, MethodId, apply_method
from .interval import Box, Interval


@dataclass(frozen=True)
class InversionConfig:
    """Knobs for the bisection sweep.

    epsilon is the stop width for each edge search (absolute by default;
    relative=True scales it by the prior width of each dimension).  passes
    repeats the whole sweep with the previous output as the new prior, and
    dimension_order overrides the default ascending-index sweep.
    """

    epsilon: float = 1e-3
    passes: int = 1
    dimension_order: tuple[int, ...] | None = None
    method: MethodId = field(default=REMAINDER)
    relative: bool = False

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValidationError("epsilon must be positive")
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

    The returned box is contained in prior and contains every point of the
    prior satisfying the constraint.  Raises EmptySolution when the entire
    prior is provably inconsistent.
    """
    if cfg is None:
        cfg = InversionConfig()
    n_y = len(nu)
    if len(y_lo) != n_y or len(y_hi) != n_y:
        raise DimensionMismatch("constraint bound length does not match output count")
    for lo, hi in zip(y_lo, y_hi):
        if lo > hi:
            raise ValidationError(f"constraint bounds inverted: [{lo}, {hi}]")

    provider = lambda _box: jac  # sound: bounds over the prior cover sub-boxes

    def ruled_out(box: Box) -> bool:
        enc = apply_method(cfg.method, nu, box, provider)
        return any(
            enc[r].hi < y_lo[r] or enc[r].lo > y_hi[r] for r in range(n_y)
        )

    if ruled_out(prior):
        raise EmptySolution("the full prior box is inconsistent with the constraint")

    order = cfg.dimension_order or tuple(range(len(prior)))
    if sorted(order) != list(range(len(prior))):
        raise ValidationError(f"dimension_order {order} is not a permutation")
    eps = [
        cfg.epsilon * prior[i].width if cfg.relative else cfg.epsilon
        for i in range(len(prior))
    ]

    current = prior
    for _ in range(cfg.passes):
        for i in order:
            d = current[i]
            # raise the lower edge: discard certified-inconsistent lower halves
            a, b = d.lo, d.hi
            while b - a > eps[i]:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break  # epsilon is below the local float resolution
                if ruled_out(current.replace(i, Interval(a, m))):
                    a = m
                else:
                    b = m
            new_lo = a
            # lower the upper edge symmetrically, within what survived
            a, b = new_lo, d.hi
            while b - a > eps[i]:
                m = 0.5 * (a + b)
                if not a < m < b:
                    break
                if ruled_out(current.replace(i, Interval(m, b))):
                    b = m
                else:
                    a = m
            current = current.replace(i, Interval(new_lo, b))
    return current
