"""Interval observer: measurement-driven refinement of reach tubes.

A noisy measurement y = nu(x) + V v with v in a known box is turned into an
interval constraint nu(x) in [y - s_hi, y - s_lo].  `observe` hands one such
constraint per measured step to the predict/update loop that constrained
reachability uses too: each enforces its constraint on the propagated box by
set inversion, producing an updated box that still contains every state
consistent with the model and the noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionMismatch, ValidationError
from .inclusion import MethodId
from .interval import Box, Interval
from .reach import ReachTube, SystemModel, _predict_update
from .setinv import InversionConfig


@dataclass(frozen=True)
class Measurement:
    t: float
    y: tuple[float, ...]


def measurement_to_constraint(
    y: Sequence[float],
    V: Sequence[Sequence[float]],
    v_lo: Sequence[float],
    v_hi: Sequence[float],
) -> Box:
    """Box on nu(x) implied by y = nu(x) + V v, v in [v_lo, v_hi].

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
    if any(math.isnan(float(c)) for row in V for c in row):
        raise ValidationError("noise matrix holds NaN")  # scale(nan) would drop the term
    noise = [Interval(float(a), float(b)) for a, b in zip(v_lo, v_hi)]
    rows = []
    for y_r, V_r in zip(y, V):
        row = Interval.point(float(y_r))
        for c, v in zip(V_r, noise):
            row = row - v.scale(float(c))
        rows.append(row)
    return Box(rows)


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
    inversion against the measurement's constraint box.
    """
    if model.observation is None:
        raise ValidationError("model declares no observation block")
    obs = model.observation
    for m in measurements:
        if not all(math.isfinite(v) for v in (m.t, *m.y)):
            raise ValidationError(f"measurement at t={m.t} is not finite: {m.y}")
    for a, b in zip(measurements, measurements[1:]):
        if b.t <= a.t:
            raise ValidationError("measurement timestamps must be strictly increasing")
    updates = {}
    for m in measurements:
        k = round(m.t / model.dt)
        if k < 0 or abs(k * model.dt - m.t) > 1e-9 * max(1.0, abs(m.t)):
            raise ValidationError(
                f"measurement time {m.t} is not a non-negative multiple of dt={model.dt}"
            )
        if len(m.y) != len(obs.exprs):
            raise DimensionMismatch(
                f"measurement has {len(m.y)} outputs, model declares {len(obs.exprs)}"
            )
        c = measurement_to_constraint(m.y, obs.V, obs.noise.lo, obs.noise.hi)
        updates[k] = (obs.exprs, c.lo, c.hi)
    return _predict_update(model, method, max(updates, default=0), updates,
                           cfg or InversionConfig(), substeps)
