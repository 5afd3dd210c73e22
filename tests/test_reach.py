"""Embedding-system reachability for discrete and continuous models."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from mixmono import (
    CENTERED,
    JACOBIAN_SIGN,
    MIXED_CENTERED,
    NATURAL,
    REMAINDER,
    TIGHT_VERTEX,
    Box,
    SystemModel,
    TimeSemantics,
    best_of,
    best_of_method,
    clarke_jacobian_bounds,
    load_bundled,
    parse_expr,
    parse_model,
    reach_tube,
)
from mixmono import inclusion, reach
from mixmono.errors import InvertedBounds, Refusal, UnboundedBothSides, ValidationError
from mixmono.inclusion import METHOD_NAMES
from mixmono.reach import _embedding_field, embed_integrate_continuous, embed_step_discrete

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

    def test_best_of_every_engine_runs_as_long_as_natural(self):
        # tight_vertex refuses vanderpol's step 7 (NotSignStable), and the
        # other engines refuse later steps; best_of keeps the ones that answer
        model = load_bundled("vanderpol")
        tube = reach_tube(model, best_of_method(list(METHOD_NAMES.values())), 80)
        natural = reach_tube(model, NATURAL, 80)
        assert len(tube) == len(natural) == 81
        rng = np.random.default_rng(20260823 + 5)
        x0 = rng.uniform(model.init.lo, model.init.hi, size=(1000, model.n_x)).T
        assert tube_contains(tube, simulate_discrete(model, x0, 80, rng), tol=0.0)
        answered = []
        for before, after, nat in zip(tube, tube[1:], natural[1:]):
            assert box_subset(after.box, nat.box)
            boxes = []
            for method in METHOD_NAMES.values():
                try:
                    boxes.append(embed_step_discrete(model, method, before.box))
                except Refusal:
                    pass
            assert after.box == best_of(boxes)
            answered.append(len(boxes))
        assert answered[6] == 5 and answered[-1] == 1

    def test_overflowing_slope_sum_saturates(self):
        model = parse_model("""
        system "overflow" {
          time: discrete(dt=1);
          state: x1, x2, x3;
          dynamics { x1' = x1; x2' = x2; x3' = 1e298*x1 + 1e298*x2 + abs(x3); }
          init: [[0, 1e10], [0, 1e10], [-1, 1]];
        }
        """)
        x3 = reach_tube(model, REMAINDER, 1).final[2]
        assert x3.lo == 0.0 and x3.hi == math.inf


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

    def test_exact_zero_partials_keep_tight_vertex_applicable(self):
        # d(x1')/dw1 = x2^2 and d(x3')/dw1 = -3*w1^2 touch 0 exactly; an
        # outward step off an exact 0 or 0.25 would make them sign-unstable
        # or wider, and every tight_vertex step would raise NotSignStable.
        # The last 0 is -0.0, interval negation's exact end of 3*w1^2's 0
        model = load_bundled("ct_abate")
        jac = clarke_jacobian_bounds(model.dynamics, model.init.concat(model.disturbance))
        got = [x for i in (0, 2) for x in (jac[i, 3].lo, jac[i, 3].hi)]
        assert list(map(float.hex, got)) == list(map(float.hex, [0.0, 0.25, -0.1875, -0.0]))
        reach_tube(model, TIGHT_VERTEX, 10)

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
        # each state is the upper bounds, then the lower bounds
        for model, y, expected in [
            (linear, [1.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 1.0, -1.0]),
            (big, [1.0, 1e10, 0.0, 1.0], [math.inf, -1e10, 1e300, -1.0]),
        ]:
            vertex = _embedding_field(model, TIGHT_VERTEX)(y)
            assert vertex == expected
            assert vertex == _embedding_field(model, JACOBIAN_SIGN)(y)

    @pytest.mark.parametrize("method", [CENTERED, MIXED_CENTERED])
    def test_centered_forms_read_their_own_jacobian_row(self, method):
        # row 0 (x1' = 0.5) has zero slopes; read for row 1 (x2' = 5*x1),
        # they collapse x2 to a point
        model = parse_model("""
        system "shear" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 0.5; x2' = 5*x1; }
          init: [[-1, 1], [0, 0]];
        }
        """)
        x2 = reach_tube(model, method, 1).final[1]
        # x2(0.1) = 0.5*x1(0) + 0.0125 with x1(0) in [-1, 1]
        assert x2.lo <= -0.4875 and x2.hi >= 0.5125

    @pytest.mark.parametrize("method, rows", [
        (CENTERED, {1: 480}),
        (MIXED_CENTERED, {1: 2080}),
        (best_of_method([CENTERED, MIXED_CENTERED, REMAINDER]), {1: 2080, 3: 80}),
    ])
    def test_pinned_faces_evaluate_their_own_row_alone(self, monkeypatch, method, rows):
        # each face of row i reads row i of the Jacobian: 2 steps of 10
        # substeps, 4 RK4 stages, 3 rows, 2 faces, and one Jacobian per face
        # (centered) or one per distinct sub-box of its 5 (mixed_centered):
        # row i's sub-boxes i - 1 and i are one box, as coordinate i is pinned
        # in both, so rows 1 and 2 read 4.  best_of's members share each box's
        # row: centered's faces are mixed_centered's last sub-boxes; remainder
        # reads the hull's whole Jacobian once per stage
        model = load_bundled("ct_abate")
        counted = []
        real = inclusion.clarke_jacobian_bounds

        def counting(exprs, box, overrides=None):
            counted.append(len(exprs))
            return real(exprs, box, overrides)

        monkeypatch.setattr(inclusion, "clarke_jacobian_bounds", counting)
        reach_tube(model, method, 2)
        assert Counter(counted) == rows

    def test_a_pinned_face_reads_its_rows_overrides(self):
        # the override of row 1's x1 column replaces x2' = 5*x1's slope 5,
        # so the centered derivative of x2 spans 4 where it would span 10
        text = """
        system "shear" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 0.5; x2' = 5*x1; }
          init: [[-1, 1], [0, 0]];
          jac_override { f_2/d_1 in [2, 2]; }
        }
        """
        _, du2, _, dl2 = _embedding_field(parse_model(text), CENTERED)([1.0, 0.0, -1.0, 0.0])
        assert (du2, dl2) == (2.0, -2.0)

    @pytest.mark.parametrize("method", [CENTERED, MIXED_CENTERED, best_of_method([CENTERED, REMAINDER])])
    def test_a_pinned_faces_unbounded_row_is_named_by_its_index(self, method):
        # x2' = x1*sqrt(x2) has d/dx2 = x1 * [inf, inf] on x2's face at 0,
        # with x1 in [-1, 1]: row 1's entry, not the one-row Jacobian's row 0
        model = parse_model("""
        system "root" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 1; x2' = x1*sqrt(x2); }
          init: [[-1, 1], [0, 1]];
        }
        """)
        with pytest.raises(UnboundedBothSides) as caught:
            _embedding_field(model, method)([1.0, 1.0, -1.0, 0.0])
        assert str(caught.value) == "Clarke bounds unbounded on both sides at [(1, 1)]"

    def test_a_pinned_face_does_not_evaluate_other_rows(self):
        # x1's faces pin x1 and leave x2 in [-1, 1], where d(x1/x2)/dx1 = 1/x2
        # is unbounded on both sides; x1' = 1 reads none of row 1, and x2's
        # own faces pin x2 at -1 and 1
        model = parse_model("""
        system "ratio" {
          time: continuous(dt=0.1);
          state: x1, x2;
          dynamics { x1' = 1; x2' = x1/x2; }
          init: [[0, 1], [-1, 1]];
        }
        """)
        assert _embedding_field(model, CENTERED)([1.0, 1.0, 0.0, -1.0]) == [1.0, 1.0, 1.0, -1.0]

    @pytest.mark.parametrize("first", [NATURAL, CENTERED])
    @pytest.mark.parametrize("widen", [0.0, 0.1])
    def test_best_of_derivative_shares_each_jacobian(self, monkeypatch, first, widen):
        # widen 0 keeps the unicycle's initial point, where the hull and all
        # of centered's faces are one box
        model = load_bundled("unicycle")
        boxes = []
        real = inclusion.clarke_jacobian_bounds

        def counting(exprs, box, overrides=None):
            boxes.append(box)
            return real(exprs, box, overrides)

        monkeypatch.setattr(inclusion, "clarke_jacobian_bounds", counting)
        method = best_of_method([first, JACOBIAN_SIGN, REMAINDER])
        xu = [v + widen for v in model.init.hi]
        xl = [v - widen for v in model.init.lo]
        _embedding_field(model, method)(xu + xl)
        assert boxes and len(boxes) == len(set(boxes))

    def test_inverted_final_box_raises(self, monkeypatch):
        # the lower bound's derivative runs 1e-12 above the upper one's, so
        # the final lower bound ends above the upper by far less than 1e-9
        model = load_bundled("unicycle")
        monkeypatch.setattr(reach, "_embedding_field",
                            lambda model, method: lambda y: [0.0] * 3 + [1e-12] * 3)
        with pytest.raises(InvertedBounds):
            embed_integrate_continuous(model, REMAINDER, model.init, model.dt, 2)

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
