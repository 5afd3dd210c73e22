"""Embedding-system reachability for discrete and continuous models."""

from __future__ import annotations

import math

import numpy as np
import pytest

from mixmono import (
    CENTERED,
    JACOBIAN_SIGN,
    NATURAL,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    SystemModel,
    TimeSemantics,
    load_bundled,
    parse_expr,
    parse_model,
    reach_tube,
)
from mixmono.errors import ValidationError
from mixmono.reach import _embedding_derivative

from conftest import box_subset, simulate_discrete, tube_contains

DISCRETE_METHODS = (NATURAL, CENTERED, JACOBIAN_SIGN, REMAINDER)


def linear_decay_model(dt: float = 0.01) -> SystemModel:
    text = f"""
    system "decay" {{
      time: continuous(dt={dt});
      state: x1;
      disturbance: w in [[-0.2, 0.3]];
      dynamics {{ x1' = -x1 + w; }}
      init: [[0.5, 1.0]];
    }}
    """
    return parse_model(text)


class TestDiscreteReach:
    def test_tube_shape_and_t_grid(self):
        model = load_bundled("vanderpol")
        tube = reach_tube(model, REMAINDER, 10)
        assert len(tube) == 11
        assert tube[0].t == 0.0
        assert tube[10].t == pytest.approx(10 * model.dt)
        assert tube[0].box == model.init

    def test_framer_property_short_horizon(self, rng):
        model = load_bundled("vanderpol")
        x0 = rng.uniform(model.init.lo, model.init.hi, size=(200, model.n_x)).T
        states = simulate_discrete(model, x0, 20, rng)
        for method in DISCRETE_METHODS:
            tube = reach_tube(model, method, 20)
            assert tube_contains(tube, states), method.kind

    def test_monotone_growth_of_enclosures(self):
        model = load_bundled("vanderpol")
        tube = reach_tube(model, REMAINDER, 15)
        widths = [max(rec.box.widths()) for rec in tube]
        assert widths[0] < widths[5] < widths[15]


class TestRefinement:
    def test_refined_tube_inside_unrefined(self):
        model = load_bundled("scott_redundant")
        plain = reach_tube(model, REMAINDER, 40)
        refined = reach_tube(model, REMAINDER, 40, refine=True)
        for p, r in zip(plain, refined):
            assert box_subset(r.box, p.box, slack=1e-9)

    def test_refined_still_frames_consistent_trajectories(self, rng):
        model = load_bundled("scott_redundant")
        n_traj = 200
        x1 = rng.uniform(model.init[0].lo, model.init[0].hi, n_traj)
        x2 = rng.uniform(model.init[1].lo, model.init[1].hi, n_traj)
        x3 = x1 + 6.0 * x2  # the redundant state is exactly determined
        assert np.all((x3 >= model.init[2].lo) & (x3 <= model.init[2].hi))
        states = simulate_discrete(model, np.stack([x1, x2, x3]), 40, rng)
        refined = reach_tube(model, REMAINDER, 40, refine=True)
        assert tube_contains(refined, states)

    def test_refine_requires_constraints(self):
        model = load_bundled("vanderpol")
        with pytest.raises(ValidationError):
            reach_tube(model, REMAINDER, 5, refine=True)


class TestContinuousReach:
    def test_linear_decay_matches_closed_form(self):
        model = linear_decay_model()
        tube = reach_tube(model, REMAINDER, 100)
        t = 1.0
        # each embedding bound solves its own scalar linear ODE exactly
        hi_exact = (1.0 - 0.3) * math.exp(-t) + 0.3
        lo_exact = (0.5 - (-0.2)) * math.exp(-t) + (-0.2)
        final = tube.final
        assert final[0].hi == pytest.approx(hi_exact, abs=1e-6)
        assert final[0].lo == pytest.approx(lo_exact, abs=1e-6)

    def test_more_substeps_does_not_change_order(self):
        model = linear_decay_model(dt=0.1)
        coarse = reach_tube(model, REMAINDER, 10, substeps=1)
        fine = reach_tube(model, REMAINDER, 10, substeps=50)
        # both remain valid enclosures of the closed-form extremes
        hi_exact = 0.7 * math.exp(-1.0) + 0.3
        lo_exact = 0.7 * math.exp(-1.0) - 0.2
        for tube in (coarse, fine):
            assert tube.final[0].lo <= lo_exact + 1e-6
            assert tube.final[0].hi >= hi_exact - 1e-6

    def test_tight_vertex_exempts_the_pinned_diagonal(self):
        # d(x1')/dx1 = x1 changes sign over the init box, but row 1 pins x1,
        # so every entry tight_vertex uses is sign-stable
        model = parse_model("""
        system "pinned" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 0.5*x1^2 - x2; x2' = -x2; }
          init: [[-0.5, 0.5], [0.1, 0.2]];
        }
        """)
        vertex = reach_tube(model, TIGHT_VERTEX, 5)
        remainder = reach_tube(model, REMAINDER, 5)
        assert [s.box for s in vertex] == [s.box for s in remainder]

    def test_tight_vertex_derivative_reads_raw_bounds(self):
        # tight_vertex takes its corners from xu/xl as given, like the other
        # decomposition engines: an inverted stage (x2 lower above upper) is
        # not reordered, and an overflowing corner stays infinite
        linear = parse_model("""
        system "linear" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = -x1 + x2; x2' = -x2; }
          init: [[0, 1], [0, 1]];
        }
        """)
        big = parse_model("""
        system "big" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 1e300*x2*x2 - x1; x2' = -x2; }
          init: [[0, 1], [1, 2]];
        }
        """)
        for model, xu, xl, expected in [
            (linear, [1.0, 0.0], [0.0, 1.0], ([-1.0, 0.0], [1.0, -1.0])),
            (big, [1.0, 1e10], [0.0, 1.0], ([math.inf, -1e10], [1e300, -1.0])),
        ]:
            vertex = _embedding_derivative(model, TIGHT_VERTEX, xu, xl)
            assert vertex == expected
            assert vertex == _embedding_derivative(model, JACOBIAN_SIGN, xu, xl)

    def test_unicycle_frames_sampled_rollouts(self, rng):
        model = load_bundled("unicycle")
        steps, sub = 10, 10
        tube = reach_tube(model, REMAINDER, steps, substeps=sub)
        h = model.dt / sub
        n_traj = 100
        x = np.tile(np.asarray(model.init.midpoint())[:, None], (1, n_traj))
        recs = list(tube)
        for k in range(steps):
            for _ in range(sub):
                w = rng.uniform(
                    model.disturbance.lo, model.disturbance.hi, size=(n_traj, 3)
                ).T
                # RK4 with disturbance held constant over the substep
                def deriv(state):
                    return np.stack(
                        [
                            0.3 * np.cos(state[2]) + w[0],
                            0.3 * np.sin(state[2]) + w[1],
                            0.15 + w[2] * np.ones(n_traj),
                        ]
                    )

                k1 = deriv(x)
                k2 = deriv(x + 0.5 * h * k1)
                k3 = deriv(x + 0.5 * h * k2)
                k4 = deriv(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            box = recs[k + 1].box
            lo = np.asarray(box.lo)[:, None] - 1e-9
            hi = np.asarray(box.hi)[:, None] + 1e-9
            assert np.all((x >= lo) & (x <= hi)), f"escape at step {k + 1}"


class TestTubeOrdering:
    def test_remainder_no_wider_than_sign_selected(self):
        model = load_bundled("vanderpol")
        tr = reach_tube(model, REMAINDER, 15)
        tl = reach_tube(model, JACOBIAN_SIGN, 15)
        for a, b in zip(tr, tl):
            assert box_subset(a.box, b.box, slack=1e-9)
