"""Embedding-system reachability.

Doubles the state into coupled upper/lower bound trajectories and propagates
them forward: one decomposition evaluation per discrete step, or fixed-step
RK4 integration of the 2n-dimensional embedding vector field in continuous
time.  One predict/update loop serves both constrained reachability and the
interval observer: at the steps given to it, the propagated box is shrunk by
set inversion against an interval constraint on some output expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from .errors import (
    DimensionMismatch,
    InvertedBounds,
    NonFiniteState,
    ValidationError,
)
from .expr import Expr, clarke_jacobian_bounds, max_var_index
from .inclusion import MethodId, _bounds, apply_method, default_jac_provider
from .interval import Box, Interval
from .setinv import InversionConfig, set_invert


@dataclass(frozen=True)
class Observation:
    """Output map y = nu(x) + V v with bounded noise v."""

    exprs: tuple[Expr, ...]  # over the n_x state variables
    names: tuple[str, ...]
    V: tuple[tuple[float, ...], ...]  # n_y x n_v
    noise: Box  # n_v


@dataclass(frozen=True)
class Constraint:
    """Algebraic side constraint: expr(x) must stay inside bounds."""

    expr: Expr  # over the n_x state variables
    bounds: Interval


class TimeSemantics(Enum):
    DISCRETE = "discrete"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class SystemModel:
    name: str
    semantics: TimeSemantics
    dt: float
    state_names: tuple[str, ...]
    dist_names: tuple[str, ...]
    dynamics: tuple[Expr, ...]  # over state-then-disturbance variables
    init: Box  # n_x
    disturbance: Box  # n_w (possibly 0-dimensional)
    observation: Observation | None = None
    constraints: tuple[Constraint, ...] = ()
    jacobian_overrides: dict[tuple[int, int], Interval] | None = None

    @property
    def n_x(self) -> int:
        return len(self.state_names)

    @property
    def n_w(self) -> int:
        return len(self.dist_names)

    def __post_init__(self):
        if len(self.dynamics) != self.n_x:
            raise ValidationError(
                f"{len(self.dynamics)} dynamics equations for {self.n_x} states"
            )
        if len(self.init) != self.n_x or len(self.disturbance) != self.n_w:
            raise ValidationError("init/disturbance box dimensions do not match declarations")
        n_z = self.n_x + self.n_w
        for e in self.dynamics:
            if max_var_index(e) >= n_z:
                raise ValidationError("dynamics reference an undeclared variable")
        if not 0 < self.dt < math.inf:
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")

    def jac_provider(self):
        return default_jac_provider(self.dynamics, self.jacobian_overrides)


@dataclass(frozen=True)
class StepRecord:
    t: float
    propagated: Box
    updated: Box | None = None

    @property
    def box(self) -> Box:
        return self.updated if self.updated is not None else self.propagated


@dataclass
class ReachTube:
    steps: list[StepRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __getitem__(self, k: int) -> StepRecord:
        return self.steps[k]

    @property
    def final(self) -> Box:
        return self.steps[-1].box


def embed_step_discrete(model: SystemModel, method: MethodId, current: Box) -> Box:
    """One discrete embedding step from the current state box."""
    if len(current) != model.n_x:
        raise DimensionMismatch(f"state box has {len(current)} dims, expected {model.n_x}")
    z = current.concat(model.disturbance)
    return apply_method(method, model.dynamics, z, model.jac_provider())


def _embedding_field(model: SystemModel, method: MethodId):
    """y -> dy/dt of the embedding state y, its upper then its lower bounds:
    the method's bounds of the dynamics, each row's own coordinate pinned;
    the Jacobian providers and the disturbance's ends are built once."""
    provider, rest, n = model.jac_provider(), model.disturbance, len(model.dynamics)
    rows, rest_hi, rest_lo = [provider.row(i) for i in range(n)], rest.hi, rest.lo

    def derivative(y: list[float]) -> list[float]:
        bounds = _bounds(method, model.dynamics, (*y[:n], *rest_hi), (*y[n:], *rest_lo), provider,
                         rows, rest.dims)
        return [du for du, _ in bounds] + [dl for _, dl in bounds]

    return derivative


def embed_integrate_continuous(
    model: SystemModel,
    method: MethodId,
    current: Box,
    dt: float,
    substeps: int = 10,
) -> Box:
    """Advance the 2n-dimensional embedding ODE by dt with fixed-step RK4."""
    if model.semantics is not TimeSemantics.CONTINUOUS:
        raise ValidationError("model does not have continuous-time semantics")
    if substeps < 1:
        raise ValidationError("substeps must be >= 1")
    n = len(current)
    deriv = _embedding_field(model, method)
    y = list(current.hi) + list(current.lo)  # upper bounds, then lower bounds
    h = dt / substeps
    for _ in range(substeps):
        k1 = deriv(y)
        k2 = deriv([x + 0.5 * h * k for x, k in zip(y, k1)])
        k3 = deriv([x + 0.5 * h * k for x, k in zip(y, k2)])
        k4 = deriv([x + h * k for x, k in zip(y, k3)])
        y = [x + (h / 6.0) * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]
        if not all(map(math.isfinite, y)):
            raise NonFiniteState("embedding integration produced a non-finite value")
    for i, (a, b) in enumerate(zip(y[n:], y[:n])):
        if a > b:
            raise InvertedBounds(f"state {i}: lower bound {a} exceeds upper bound {b}")
    return Box(Interval(a, b) for a, b in zip(y[n:], y[:n]))


def embed_step(model: SystemModel, method: MethodId, current: Box,
               substeps: int = 10) -> Box:
    if model.semantics is TimeSemantics.DISCRETE:
        return embed_step_discrete(model, method, current)
    return embed_integrate_continuous(model, method, current, model.dt, substeps)


def _predict_update(
    model: SystemModel,
    method: MethodId,
    steps: int,
    updates: dict[int, tuple[Sequence[Expr], Sequence[float], Sequence[float]]],
    cfg: InversionConfig,
    substeps: int,
) -> ReachTube:
    """Predict with one embedding step per dt for `steps` steps; at each step k
    in updates, with updates[k] = (exprs, y_lo, y_hi), shrink the propagated
    box by set inversion toward {x : y_lo <= exprs(x) <= y_hi}."""
    tube = ReachTube()
    current = model.init
    for k in range(steps + 1):
        propagated = current if k == 0 else embed_step(model, method, current, substeps)
        updated = None
        if k in updates:
            exprs, y_lo, y_hi = updates[k]
            jac = clarke_jacobian_bounds(exprs, propagated)
            updated = set_invert(exprs, jac, propagated, y_lo, y_hi, cfg)
        tube.steps.append(StepRecord(t=k * model.dt, propagated=propagated, updated=updated))
        current = updated if updated is not None else propagated
    return tube


def reach_tube(
    model: SystemModel,
    method: MethodId,
    steps: int,
    refine: bool = False,
    inv_cfg: InversionConfig | None = None,
    substeps: int = 10,
) -> ReachTube:
    """Propagate the initial box for `steps` steps of length dt.

    With refine=True every box, the initial one included, is shrunk by set
    inversion against the model's constraint block before it starts the next
    step.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if refine and not model.constraints:
        raise ValidationError("refine requested but the model declares no constraints")
    block = (
        [c.expr for c in model.constraints],
        [c.bounds.lo for c in model.constraints],
        [c.bounds.hi for c in model.constraints],
    )
    updates = dict.fromkeys(range(steps + 1), block) if refine else {}
    return _predict_update(model, method, steps, updates, inv_cfg or InversionConfig(), substeps)
