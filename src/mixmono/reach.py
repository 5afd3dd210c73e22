"""Embedding-system reachability.

Doubles the state into coupled upper/lower bound trajectories and propagates
them forward: one decomposition evaluation per discrete step, or fixed-step
RK4 integration of the 2n-dimensional embedding vector field in continuous
time.  Optional per-step refinement shrinks each propagated box by set
inversion against declared algebraic constraints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .decomp import SELECTORS, TimeSemantics, decompose
from .errors import (
    DimensionMismatch,
    InvertedBounds,
    NonFiniteState,
    ValidationError,
)
from .expr import ClarkeInterval, Expr, clarke_jacobian_bounds, max_var_index
from .inclusion import (
    MethodId,
    apply_method,
    default_jac_provider,
)
from .interval import Box, Interval


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
    jacobian_overrides: dict[tuple[int, int], ClarkeInterval] | None = None

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
        if self.dt <= 0:
            raise ValidationError("dt must be positive")

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


def _embedding_derivative(
    model: SystemModel,
    method: MethodId,
    xu: list[float],
    xl: list[float],
) -> tuple[list[float], list[float]]:
    """Time derivatives of the upper and lower bound trajectories."""
    if method.kind == "best_of":
        dus, dls = [], []
        for m in method.members:
            du, dl = _embedding_derivative(model, method=m, xu=xu, xl=xl)
            dus.append(du)
            dls.append(dl)
        return (
            [min(v) for v in zip(*dus)],
            [max(v) for v in zip(*dls)],
        )
    hull = Box(
        Interval(min(a, b), max(a, b)) for a, b in zip(xl, xu)
    ).concat(model.disturbance)
    if method.kind in SELECTORS:
        rows = decompose(
            model.dynamics,
            model.jac_provider()(hull),
            method.kind,
            tuple(xu) + model.disturbance.hi,
            tuple(xl) + model.disturbance.lo,
            TimeSemantics.CONTINUOUS,
        )
        return [du for du, _ in rows], [dl for _, dl in rows]
    # interval-only engines: bound f_i over the hull with coordinate i pinned
    du, dl = [], []
    for i, f_i in enumerate(model.dynamics):
        enc_u = apply_method(method, [f_i], hull.replace(i, Interval.point(xu[i])),
                             model.jac_provider())
        enc_l = apply_method(method, [f_i], hull.replace(i, Interval.point(xl[i])),
                             model.jac_provider())
        du.append(enc_u[0].hi)
        dl.append(enc_l[0].lo)
    return du, dl


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
    xu = list(current.hi)
    xl = list(current.lo)
    h = dt / substeps
    for _ in range(substeps):
        k1u, k1l = _embedding_derivative(model, method, xu, xl)
        y2u = [x + 0.5 * h * k for x, k in zip(xu, k1u)]
        y2l = [x + 0.5 * h * k for x, k in zip(xl, k1l)]
        k2u, k2l = _embedding_derivative(model, method, y2u, y2l)
        y3u = [x + 0.5 * h * k for x, k in zip(xu, k2u)]
        y3l = [x + 0.5 * h * k for x, k in zip(xl, k2l)]
        k3u, k3l = _embedding_derivative(model, method, y3u, y3l)
        y4u = [x + h * k for x, k in zip(xu, k3u)]
        y4l = [x + h * k for x, k in zip(xl, k3l)]
        k4u, k4l = _embedding_derivative(model, method, y4u, y4l)
        xu = [
            x + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for x, a, b, c, d in zip(xu, k1u, k2u, k3u, k4u)
        ]
        xl = [
            x + (h / 6.0) * (a + 2 * b + 2 * c + d)
            for x, a, b, c, d in zip(xl, k1l, k2l, k3l, k4l)
        ]
        if any(not math.isfinite(v) for v in xu + xl):
            raise NonFiniteState("embedding integration produced a non-finite value")
    for i, (a, b) in enumerate(zip(xl, xu)):
        if a > b:
            raise InvertedBounds(f"state {i}: lower bound {a} exceeds upper bound {b}")
    return Box(Interval(a, b) for a, b in zip(xl, xu))


def embed_step(model: SystemModel, method: MethodId, current: Box,
               substeps: int = 10) -> Box:
    if model.semantics is TimeSemantics.DISCRETE:
        return embed_step_discrete(model, method, current)
    return embed_integrate_continuous(model, method, current, model.dt, substeps)


def _refine_with_constraints(model: SystemModel, box: Box, inv_cfg) -> Box:
    from .setinv import set_invert

    exprs = [c.expr for c in model.constraints]
    jac = clarke_jacobian_bounds(exprs, box)
    y_lo = [c.bounds.lo for c in model.constraints]
    y_hi = [c.bounds.hi for c in model.constraints]
    return set_invert(exprs, jac, box, y_lo, y_hi, inv_cfg)


def reach_tube(
    model: SystemModel,
    method: MethodId,
    steps: int,
    refine: bool = False,
    inv_cfg=None,
    substeps: int = 10,
) -> ReachTube:
    """Propagate the initial box for `steps` steps of length dt.

    With refine=True each propagated box is additionally shrunk by set
    inversion against the model's constraint block before being used as the
    next step's starting box.
    """
    if steps < 0:
        raise ValidationError("steps must be >= 0")
    if refine and not model.constraints:
        raise ValidationError("refine requested but the model declares no constraints")
    if inv_cfg is None:
        from .setinv import InversionConfig

        inv_cfg = InversionConfig()
    tube = ReachTube()
    current = model.init
    for k in range(steps + 1):
        propagated = current if k == 0 else embed_step(model, method, current, substeps)
        updated = None
        if refine:
            updated = _refine_with_constraints(model, propagated, inv_cfg)
        tube.steps.append(StepRecord(t=k * model.dt, propagated=propagated, updated=updated))
        current = updated if updated is not None else propagated
    return tube
