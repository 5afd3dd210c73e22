"""Interval observer: measurement-driven refinement of reach tubes.

A noisy measurement y = nu(x) + V v with v in a known box is turned into an
interval constraint nu(x) in [y - s_hi, y - s_lo]; each constraint is then
enforced on the propagated box by set inversion, producing an updated box
that still contains every state consistent with the model and the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, ValidationError
from .expr import clarke_jacobian_bounds
from .inclusion import MethodId
from .interval import Box, Interval
from .reach import ReachTube, StepRecord, SystemModel, embed_step
from .setinv import InversionConfig, set_invert


@dataclass(frozen=True)
class Measurement:
    t: float
    y: tuple[float, ...]


@dataclass(frozen=True)
class ConstraintInterval:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValidationError(f"constraint interval inverted: {self}")


def measurement_to_constraint(
    y: Sequence[float],
    V: Sequence[Sequence[float]],
    v_lo: Sequence[float],
    v_hi: Sequence[float],
) -> ConstraintInterval:
    """Interval on nu(x) implied by y = nu(x) + V v, v in [v_lo, v_hi].

    Row r is y_r - sum_j V_rj * [v_lo_j, v_hi_j] in outward-rounded interval
    arithmetic, so it contains the exact real interval.
    """
    if (len(V) != len(y) or len(v_hi) != len(v_lo)
            or any(len(row) != len(v_lo) for row in V)):
        raise DimensionMismatch(
            f"noise matrix rows {[len(row) for row in V]} incompatible with "
            f"y ({len(y)}) and v ({len(v_lo)}, {len(v_hi)})"
        )
    if any(a > b for a, b in zip(v_lo, v_hi)):
        raise ValidationError("noise bounds inverted")
    noise = [Interval(float(a), float(b)) for a, b in zip(v_lo, v_hi)]
    rows = []
    for y_r, V_r in zip(y, V):
        row = Interval.point(float(y_r))
        for c, v in zip(V_r, noise):
            row = row - v.scale(float(c))
        rows.append(row)
    return ConstraintInterval(lo=tuple(r.lo for r in rows), hi=tuple(r.hi for r in rows))


def observe(
    model: SystemModel,
    method: MethodId,
    measurements: Sequence[Measurement],
    cfg: InversionConfig | None = None,
    substeps: int = 10,
) -> ReachTube:
    """Predict/update loop over a measurement stream.

    Prediction uses one embedding step per model dt; at steps whose time
    matches a measurement timestamp the propagated box is shrunk by set
    inversion against the measurement's constraint interval.
    """
    if model.observation is None:
        raise ValidationError("model declares no observation block")
    if cfg is None:
        cfg = InversionConfig()
    obs = model.observation
    for m in measurements:
        if not all(math.isfinite(v) for v in (m.t, *m.y)):
            raise ValidationError(f"measurement at t={m.t} is not finite: {m.y}")
    for a, b in zip(measurements, measurements[1:]):
        if b.t <= a.t:
            raise ValidationError("measurement timestamps must be strictly increasing")
    by_step: dict[int, Measurement] = {}
    for m in measurements:
        k = round(m.t / model.dt)
        if abs(k * model.dt - m.t) > 1e-9 * max(1.0, abs(m.t)):
            raise ValidationError(
                f"measurement time {m.t} is not a multiple of dt={model.dt}"
            )
        if len(m.y) != len(obs.exprs):
            raise DimensionMismatch(
                f"measurement has {len(m.y)} outputs, model declares {len(obs.exprs)}"
            )
        by_step[k] = m
    last = max(by_step) if by_step else 0

    tube = ReachTube()
    current = model.init
    for k in range(last + 1):
        propagated = current if k == 0 else embed_step(model, method, current, substeps)
        updated = None
        if k in by_step:
            c = measurement_to_constraint(
                by_step[k].y, obs.V, obs.noise.lo, obs.noise.hi
            )
            jac = clarke_jacobian_bounds(obs.exprs, propagated)
            updated = set_invert(obs.exprs, jac, propagated, c.lo, c.hi, cfg)
        tube.steps.append(
            StepRecord(t=k * model.dt, propagated=propagated, updated=updated)
        )
        current = updated if updated is not None else propagated
    return tube
