"""Acceptance gate: eleven end-to-end criteria, one pass line each.

Each test prints a single `CRITERION n PASS` line on success; a failure shows
up as a normal pytest assertion. The randomized suites share one frozen seed
so the gate is deterministic.
"""

from __future__ import annotations

import itertools
import math
import time

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
    Branch,
    Interval,
    InversionConfig,
    Measurement,
    StepRecord,
    apply_method,
    clarke_jacobian_bounds,
    embed_step_discrete,
    error_bounds,
    eval_point,
    eval_vec,
    hausdorff_q,
    load_bundled,
    observe,
    parse_expr,
    reach_tube,
    sampled_range,
    set_invert,
    subdivide_apply,
    supporting_vectors,
    t_l_inclusion,
    t_n_inclusion,
    t_o_vertex_inclusion,
    t_r_inclusion,
)
from mixmono.errors import (
    InfiniteJacobianEntry,
    MixmonoError,
    NotSignStable,
    UnboundedBothSides,
)
from mixmono.inclusion import default_jac_provider

from conftest import (
    applicable_methods,
    box_subset,
    rand_box,
    rand_instance,
    simulate_discrete,
    tube_contains,
)

SEED = 987654321

CUBIC3_TEXT = (
    "x1*x2*x3 + x1^2*x2 + x2^2*x3 + x3^2*x1 + x1^2*x3 + x3^2*x2"
    " + x2^2*x1 + x1^3 + x2^3 + x3^3"
)

# scalar fixtures with the nonsmooth kinks kept off every dyadic cell edge
SCALAR_FIXTURES = (
    ("x1^3 - 0.1*x1", Box.from_pairs([(-1, 3)])),
    ("abs(x1 - 0.3) - 0.5*x1", Box.from_pairs([(-1, 3)])),
    ("min(x1, 1.7 - x1) + 0.3*x1", Box.from_pairs([(0, 3)])),
)


# ---------------------------------------------------------------------------
# shared randomized instance suite (criteria 2, 3, 5)
# ---------------------------------------------------------------------------

_SUITE: dict = {}


def _instance_suite():
    """>= 200 randomized instances with method outputs and sampling oracles."""
    if _SUITE:
        return _SUITE
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    records = []
    while len(records) < 200:
        inst = rand_instance(rng)
        results = applicable_methods([inst.expr], inst.box)
        oracle = sampled_range([inst.expr], inst.box, rng, n_samples=10**5)
        records.append((inst, results, oracle))
    _SUITE["records"] = records
    _SUITE["elapsed"] = time.perf_counter() - t0
    return _SUITE


def test_criterion_01_natural_inclusion_anchor():
    expr = parse_expr(CUBIC3_TEXT, ["x1", "x2", "x3"])
    box = Box.from_pairs([(-2, 2)] * 3)
    t0 = time.perf_counter()
    enc = t_n_inclusion([expr], box)
    elapsed = time.perf_counter() - t0
    assert abs(enc[0].lo - (-80.0)) <= 1e-9
    assert abs(enc[0].hi - 80.0) <= 1e-9
    assert elapsed < 1.0
    print(f"\nCRITERION 1 PASS: natural enclosure [-80, 80] in {elapsed:.4f}s")


def test_criterion_02_soundness_suite():
    suite = _instance_suite()
    violations = 0
    for inst, results, oracle in suite["records"]:
        for name, _, enc in results:
            if not box_subset(oracle, enc, slack=1e-9):
                violations += 1
    assert violations == 0
    assert suite["elapsed"] < 60.0
    n = len(suite["records"])
    print(
        f"\nCRITERION 2 PASS: sampling oracle inside every method on {n} "
        f"instances, 0 violations, {suite['elapsed']:.1f}s"
    )


def test_criterion_03_remainder_inside_sign_selected():
    suite = _instance_suite()
    checked = 0
    for inst, results, _ in suite["records"]:
        by_name = {name: enc for name, _, enc in results}
        if "remainder" in by_name and "jacobian_sign" in by_name:
            assert box_subset(by_name["remainder"], by_name["jacobian_sign"],
                              slack=1e-12), inst.text
            checked += 1
    assert checked >= 200
    print(f"\nCRITERION 3 PASS: T_R inside T_L on {checked} instances")


def _cjss_instances(count: int = 50):
    """Randomized instances whose derivative bounds are all sign-stable."""
    rng = np.random.default_rng(SEED + 1)
    out = []
    while len(out) < count:
        inst = rand_instance(rng, max_vars=3)
        # shrink toward the middle: smaller boxes are more often sign-stable
        box = Box.from_bounds(
            [d.lo + 0.35 * d.width for d in inst.box],
            [d.hi - 0.35 * d.width for d in inst.box],
        )
        try:
            jac = clarke_jacobian_bounds([inst.expr], box)
        except UnboundedBothSides:
            continue
        if any(e.lo < 0.0 < e.hi for e in jac.row(0)):
            continue
        out.append((inst.expr, box, jac))
    return out


def test_criterion_04_tight_vertex_equivalence():
    instances = _cjss_instances(50)
    for expr, box, jac in instances:
        to = t_o_vertex_inclusion([expr], jac, box)
        tr = t_r_inclusion([expr], jac, box)
        tl = t_l_inclusion([expr], jac, box)
        assert box_subset(to, tr), "vertex enclosure escapes the full family"
        assert box_subset(tr, tl), "full family escapes the sign-selected form"
        n = len(box)
        per_dim = max(2, math.ceil((10**5) ** (1.0 / n)))
        axes = [np.linspace(box[j].lo, box[j].hi, per_dim) for j in range(n)]
        grid = np.array(np.meshgrid(*axes)).reshape(n, -1)
        vals = eval_vec(expr, grid)
        tol = 1e-3 * max(to[0].width, 1e-12)
        assert abs(float(vals.min()) - to[0].lo) <= tol
        assert abs(float(vals.max()) - to[0].hi) <= tol
    print(f"\nCRITERION 4 PASS: vertex enclosure matches grid optimum on "
          f"{len(instances)} sign-stable instances")


def _decomposition_value(f_i, candidates, x, xhat):
    best = math.inf
    for combo in itertools.product(*candidates.choices):
        zp = [b if tag is Branch.UPPER else a for (_, tag), a, b in zip(combo, x, xhat)]
        zm = [a if tag is Branch.UPPER else b for (_, tag), a, b in zip(combo, x, xhat)]
        val = eval_point(f_i, zp) + math.fsum(
            m * (a - b) for (m, _), a, b in zip(combo, zm, zp)
        )
        best = min(best, val)
    return best


def test_criterion_05_decomposition_axioms():
    rng = np.random.default_rng(SEED + 2)
    instances = []
    while len(instances) < 10:
        inst = rand_instance(rng, max_vars=3)
        try:
            jac = clarke_jacobian_bounds([inst.expr], inst.box)
        except UnboundedBothSides:
            continue
        cands = supporting_vectors(jac.row(0))
        instances.append((inst, cands))
    trials = 1000
    for inst, cands in instances:
        lo, hi = np.asarray(inst.box.lo), np.asarray(inst.box.hi)
        n = len(inst.box)
        for _ in range(trials):
            z = tuple(rng.uniform(lo, hi))
            d = _decomposition_value(inst.expr, cands, z, z)
            f = eval_point(inst.expr, z)
            assert abs(d - f) <= 1e-12 * (1 + abs(f))
            # monotone in the first argument, antitone in the second
            xhat = rng.uniform(lo, hi)
            x = rng.uniform(xhat, hi)
            base = _decomposition_value(inst.expr, cands, tuple(x), tuple(xhat))
            x_up = np.minimum(x + rng.uniform(0, 1, n) * (hi - x), hi)
            up = _decomposition_value(inst.expr, cands, tuple(x_up), tuple(xhat))
            assert up >= base - 1e-9 * (1 + abs(base))
            xh_up = np.minimum(xhat + rng.uniform(0, 1, n) * (x - xhat), x)
            down = _decomposition_value(inst.expr, cands, tuple(x), tuple(xh_up))
            assert down <= base + 1e-9 * (1 + abs(base))
    print(f"\nCRITERION 5 PASS: diagonal identity and mixed monotonicity on "
          f"{len(instances)} instances x {trials} trials")


def test_criterion_06_error_bound_chain():
    rng = np.random.default_rng(SEED + 3)
    for text, box in SCALAR_FIXTURES:
        expr = parse_expr(text, ["x1"])
        jac = clarke_jacobian_bounds([expr], box)
        oracle = sampled_range([expr], box, rng)
        eb = error_bounds(expr, jac.row(0), box, oracle[0])
        tr = t_r_inclusion([expr], jac, box)
        measured = hausdorff_q(tr, oracle)
        allowance = 1e-3 * oracle[0].width
        assert measured <= eb.q_upper + allowance, text
        assert eb.q_upper <= eb.q_upper_hat + 1e-12, text
        if text == "x1^3 - 0.1*x1":
            assert abs(eb.q_upper_hat - 0.4) <= 1e-9
    print("\nCRITERION 6 PASS: q <= q_upper <= q_upper_hat on all scalar "
          "fixtures; cubic q_upper_hat = 0.4")


def test_criterion_07_subdivision_convergence():
    t0 = time.perf_counter()
    ks = (1, 2, 4, 8, 16)
    slopes = []
    for text, box in SCALAR_FIXTURES:
        expr = parse_expr(text, ["x1"])
        provider = default_jac_provider([expr])
        errors = []
        for k in ks:
            cells, encs, _ = subdivide_apply(REMAINDER, [expr], provider, box, k)
            worst = 0.0
            for cell, enc in zip(cells, encs):
                xs = np.linspace(cell[0].lo, cell[0].hi, 4001)[None, :]
                vals = eval_vec(expr, xs)
                truth = Box.from_pairs([(float(vals.min()), float(vals.max()))])
                worst = max(worst, hausdorff_q(enc, truth))
            errors.append(worst)
        slope = float(np.polyfit(np.log(ks), np.log(errors), 1)[0])
        slopes.append(slope)
        assert -1.3 <= slope <= -0.7, (text, slope, errors)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    pretty = ", ".join(f"{s:.2f}" for s in slopes)
    print(f"\nCRITERION 7 PASS: convergence slopes [{pretty}] in "
          f"[-1.3, -0.7], {elapsed:.1f}s")


def test_criterion_08_set_inversion_sandwich():
    rng = np.random.default_rng(SEED + 4)
    cfg = InversionConfig(epsilon=1e-3)

    def check(texts, prior, y_lo, y_hi):
        names = [f"x{j + 1}" for j in range(len(prior))]
        exprs = [parse_expr(t, names) for t in texts]
        jac = clarke_jacobian_bounds(exprs, prior)
        out = set_invert(exprs, jac, prior, y_lo, y_hi, cfg)
        assert box_subset(out, prior)
        axes = [np.linspace(prior[j].lo, prior[j].hi, 50)
                for j in range(len(prior))]
        grid = np.array(np.meshgrid(*axes)).reshape(len(prior), -1)
        vals = np.stack([eval_vec(e, grid) for e in exprs])
        ok = np.all(
            (vals >= np.asarray(y_lo)[:, None] - 1e-12)
            & (vals <= np.asarray(y_hi)[:, None] + 1e-12),
            axis=0,
        )
        lo = np.asarray(out.lo)[:, None] - 1e-9
        hi = np.asarray(out.hi)[:, None] + 1e-9
        inside = np.all((grid >= lo) & (grid <= hi), axis=0)
        assert np.all(inside[ok])

    check(["x1"], Box.from_pairs([(0, 10)]), [2.0], [3.0])
    check(["x1 + x2"], Box.from_pairs([(0, 1), (0, 1)]), [1.5], [2.0])
    done = 0
    while done < 100:
        n = int(rng.integers(1, 3))
        n_y = int(rng.integers(1, 3))
        insts = []
        while len(insts) < n_y:
            cand = rand_instance(rng, max_vars=n)
            try:
                clarke_jacobian_bounds([cand.expr], rand_box(rng, n))
            except UnboundedBothSides:
                continue
            insts.append(cand.text)
        prior = rand_box(rng, n)
        names = [f"x{j + 1}" for j in range(n)]
        exprs = [parse_expr(t, names) for t in insts]
        anchor = rng.uniform(prior.lo, prior.hi)
        y0 = [eval_point(e, anchor) for e in exprs]
        half = rng.uniform(0.05, 0.5, size=n_y)
        try:
            check(insts, prior, [y - h for y, h in zip(y0, half)],
                  [y + h for y, h in zip(y0, half)])
        except UnboundedBothSides:
            continue
        done += 1
    print(f"\nCRITERION 8 PASS: inversion output sandwiched on {done} "
          "randomized instances plus the identity and sum fixtures")


def _steps_until_unbounded(model, method, steps):
    """The step records of reach_tube(model, method, steps), up to the step
    where the engine raises, and whether it went all the way or stopped
    only with UnboundedBothSides or InfiniteJacobianEntry on an input box
    with an infinite end (the either-sided premise failing there)."""
    boxes = [model.init]
    for _ in range(steps):
        try:
            boxes.append(embed_step_discrete(model, method, boxes[-1]))
        except (UnboundedBothSides, InfiniteJacobianEntry):
            ok = not all(d.finite_both for d in boxes[-1])
            break
        except MixmonoError:
            ok = False
            break
    else:
        ok = True
    return [StepRecord(t=k * model.dt, propagated=b) for k, b in enumerate(boxes)], ok


def test_criterion_09_reachability_framer():
    rng = np.random.default_rng(SEED + 5)
    methods = (NATURAL, CENTERED, MIXED_CENTERED, JACOBIAN_SIGN, REMAINDER,
               TIGHT_VERTEX)
    for name, steps in (("vanderpol", 50), ("scott_example", 100)):
        t0 = time.perf_counter()
        model = load_bundled(name)
        x0 = rng.uniform(model.init.lo, model.init.hi, size=(1000, model.n_x)).T
        states = simulate_discrete(model, x0, steps, rng)
        used = 0
        for method in methods:
            if name == "vanderpol":
                # the boxes blow up: an engine counts if it frames every step
                # it produces and stops, if at all, only once its box is
                # unbounded
                tube, ok = _steps_until_unbounded(model, method, steps)
                if method == NATURAL:  # its exact value is past the largest float
                    assert tube[21].box[1] == Interval(-math.inf, math.inf)
                if not ok:
                    continue
            else:
                try:
                    tube = reach_tube(model, method, steps)
                except MixmonoError:
                    continue
            assert tube_contains(tube, states), (name, method.kind)
            used += 1
        assert used >= 4
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, (name, elapsed)
    # refinement via an exactly invariant redundant-state constraint
    model = load_bundled("scott_redundant")
    t0 = time.perf_counter()
    x1 = rng.uniform(model.init[0].lo, model.init[0].hi, 1000)
    x2 = rng.uniform(model.init[1].lo, model.init[1].hi, 1000)
    states = simulate_discrete(model, np.stack([x1, x2, x1 + 6.0 * x2]), 100, rng)
    plain = reach_tube(model, REMAINDER, 100)
    refined = reach_tube(model, REMAINDER, 100, refine=True)
    for p, r in zip(plain, refined):
        assert box_subset(r.box, p.box, slack=1e-9)
    assert tube_contains(refined, states)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print("\nCRITERION 9 PASS: 1000 trajectories framed by every applicable "
          "method on both benchmarks; refined tube nested and still framing")


def test_criterion_10_unicycle_observer():
    model = load_bundled("unicycle")
    steps, sub = 8, 3
    h = model.dt / sub
    obs = model.observation
    cfg = InversionConfig(epsilon=2e-3)
    plain = reach_tube(model, REMAINDER, steps, substeps=sub)
    plain_w = plain.final.widths()

    def simulate(rng):
        x = np.array(model.init.midpoint())
        states = [x.copy()]
        for _ in range(steps):
            for _ in range(sub):
                w = rng.uniform(model.disturbance.lo, model.disturbance.hi)

                def deriv(s):
                    return np.array([
                        0.3 * math.cos(s[2]) + w[0],
                        0.3 * math.sin(s[2]) + w[1],
                        0.15 + w[2],
                    ])

                k1 = deriv(x)
                k2 = deriv(x + 0.5 * h * k1)
                k3 = deriv(x + 0.5 * h * k2)
                k4 = deriv(x + h * k3)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            states.append(x.copy())
        return states

    for seed in range(500):
        rng = np.random.default_rng(SEED + 6 + seed)
        states = simulate(rng)
        measurements = []
        for k, x in enumerate(states):
            v = rng.uniform(obs.noise.lo, obs.noise.hi)
            y = np.array([eval_point(e, x) for e in obs.exprs])
            y = y + np.asarray(obs.V) @ v
            measurements.append(Measurement(t=k * model.dt, y=tuple(y)))
        tube = observe(model, REMAINDER, measurements, cfg=cfg, substeps=sub)
        for rec, x in zip(tube, states):
            assert rec.box.contains_point(tuple(x), tol=1e-9), seed
        final_w = tube.final.widths()
        assert all(a < b for a, b in zip(final_w, plain_w)), (seed, final_w)
    print("\nCRITERION 10 PASS: 500 noisy simulations framed; updated tube "
          "strictly narrower than the open-loop tube in every dimension")


def test_criterion_11_continuous_embedding_closed_form():
    from mixmono import parse_model

    model = parse_model(
        """
        system "decay" {
          time: continuous(dt=0.01);
          state: x1;
          disturbance: w in [[-0.2, 0.3]];
          dynamics { x1' = -x1 + w; }
          init: [[0.5, 1.0]];
        }
        """
    )
    tube = reach_tube(model, REMAINDER, 100)
    hi_exact = (1.0 - 0.3) * math.exp(-1.0) + 0.3
    lo_exact = (0.5 + 0.2) * math.exp(-1.0) - 0.2
    err = max(abs(tube.final[0].hi - hi_exact), abs(tube.final[0].lo - lo_exact))
    assert err <= 1e-6
    print(f"\nCRITERION 11 PASS: continuous embedding matches closed form, "
          f"max endpoint error {err:.2e}")
