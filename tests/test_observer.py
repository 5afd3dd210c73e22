"""Measurement-driven interval observer."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from mixmono import (
    REMAINDER,
    Measurement,
    eval_point,
    load_bundled,
    measurement_to_constraint,
    observe,
    reach_tube,
)
from mixmono.errors import DimensionMismatch, ValidationError

from conftest import box_subset


def simulate_with_measurements(model, steps, rng):
    """One disturbance rollout plus noisy observations at every step."""
    x = np.array(model.init.midpoint())
    obs = model.observation
    states, measurements = [x], []
    for k in range(steps + 1):
        v = rng.uniform(obs.noise.lo, obs.noise.hi)
        y = np.array([eval_point(e, states[-1]) for e in obs.exprs])
        y = y + np.asarray(obs.V) @ v
        measurements.append(Measurement(t=k * model.dt, y=tuple(y)))
        if k == steps:
            break
        w = rng.uniform(model.disturbance.lo, model.disturbance.hi)
        z = np.concatenate([states[-1], w])
        states.append(
            np.array([eval_point(e, z) for e in model.dynamics])
        )
    return states, measurements


class TestConstraintMapping:
    def test_identity_noise_matrix(self):
        c = measurement_to_constraint([2.0], [[1.0]], [-0.1], [0.3])
        assert c.lo[0] == pytest.approx(1.7)
        assert c.hi[0] == pytest.approx(2.1)

    def test_mixed_sign_matrix_uses_positive_negative_split(self):
        # output = signal + V v with V = [[1, -2]] and v in [0,1]x[0,1]:
        # V v ranges over [-2, 1], so the signal lies in [y - 1, y + 2]
        c = measurement_to_constraint([0.0], [[1.0, -2.0]], [0.0, 0.0], [1.0, 1.0])
        assert c.lo[0] == pytest.approx(-1.0)
        assert c.hi[0] == pytest.approx(2.0)

    def test_constraint_holds_the_exact_interval(self):
        # y - V v over the noise box in exact rationals: a constraint rounded
        # to nearest misses it by an ULP on one side or the other
        rng = np.random.default_rng(3)
        for _ in range(300):
            n_y, n_v = (int(k) for k in rng.integers(1, 4, size=2))
            y = rng.uniform(-5, 5, n_y).tolist()
            V = rng.uniform(-2, 2, (n_y, n_v)).tolist()
            lo, hi = rng.uniform(-1, 0, n_v).tolist(), rng.uniform(0, 1, n_v).tolist()
            c = measurement_to_constraint(y, V, lo, hi)
            for r in range(n_y):
                terms = [(Fraction(v), Fraction(a), Fraction(b)) for v, a, b in zip(V[r], lo, hi)]
                s_hi = sum(v * (b if v > 0 else a) for v, a, b in terms)
                s_lo = sum(v * (a if v > 0 else b) for v, a, b in terms)
                assert Fraction(c.lo[r]) <= Fraction(y[r]) - s_hi
                assert Fraction(y[r]) - s_lo <= Fraction(c.hi[r])

    def test_shape_and_order_errors(self):
        with pytest.raises(DimensionMismatch):
            measurement_to_constraint([0.0, 1.0], [[1.0]], [0.0], [1.0])
        with pytest.raises(DimensionMismatch):
            measurement_to_constraint([0.0], [[1.0, 2.0]], [0.0], [1.0])
        with pytest.raises(DimensionMismatch):  # a ragged matrix
            measurement_to_constraint([0.0, 1.0], [[1.0], [1.0, 2.0]], [0.0], [1.0])
        with pytest.raises(ValidationError):
            measurement_to_constraint([0.0], [[1.0]], [1.0], [0.0])

    def test_nan_gain_rejected(self):
        # a NaN gain times the noise interval is no bound; it must not drop
        # the noise term and leave the point y
        with pytest.raises(ValidationError, match="NaN"):
            measurement_to_constraint([1.0], [[math.nan]], [-0.5], [0.5])


class TestObserve:
    def test_truth_stays_inside_updated_tube(self, rng):
        model = load_bundled("scott_example")
        states, measurements = simulate_with_measurements(model, 25, rng)
        tube = observe(model, REMAINDER, measurements)
        assert len(tube) == 26
        for rec, x in zip(tube, states):
            assert rec.updated is not None
            assert rec.box.contains_point(tuple(x), tol=1e-9)

    def test_updates_contract_the_prediction(self, rng):
        model = load_bundled("scott_example")
        _, measurements = simulate_with_measurements(model, 25, rng)
        tube = observe(model, REMAINDER, measurements)
        plain = reach_tube(model, REMAINDER, 25)
        for rec, p in zip(tube, plain):
            assert box_subset(rec.box, p.box, slack=1e-9)
        assert max(tube.final.widths()) < 0.1 * max(plain.final.widths())

    def test_sparse_measurements(self, rng):
        model = load_bundled("scott_example")
        _, measurements = simulate_with_measurements(model, 20, rng)
        sparse = measurements[::5]
        tube = observe(model, REMAINDER, sparse)
        updated_steps = [k for k, rec in enumerate(tube) if rec.updated is not None]
        assert updated_steps == [0, 5, 10, 15, 20]

    def test_measurements_must_be_increasing(self, rng):
        model = load_bundled("scott_example")
        _, measurements = simulate_with_measurements(model, 3, rng)
        with pytest.raises(ValidationError):
            observe(model, REMAINDER, list(reversed(measurements)))

    @pytest.mark.parametrize("y", [(), (0.0, 0.0)])
    def test_wrong_output_count_is_dimension_mismatch(self, y):
        model = load_bundled("scott_example")  # one output, y1
        with pytest.raises(DimensionMismatch, match=f"{len(y)} outputs, model declares 1"):
            observe(model, REMAINDER, [Measurement(t=0.0, y=y)])

    def test_off_grid_timestamp_rejected(self):
        model = load_bundled("scott_example")
        with pytest.raises(ValidationError):
            observe(model, REMAINDER, [Measurement(t=0.123, y=(0.0,))])

    def test_timestamp_before_start_rejected(self):
        # the loop never reaches step -1, so the measurement would be dropped
        # silently (and alone it would leave an empty tube)
        model = load_bundled("scott_example")
        with pytest.raises(ValidationError):
            observe(model, REMAINDER, [Measurement(t=-1.0, y=(0.0,))])

    def test_model_without_observation_rejected(self, rng):
        model = load_bundled("vanderpol")
        with pytest.raises(ValidationError):
            observe(model, REMAINDER, [Measurement(t=0.0, y=(0.0,))])
