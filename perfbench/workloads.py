"""The three benchmark workloads: input generation, the timed call, the check.

Each workload is a `Workload` of four functions and a block size:

* ``generate(seed, smoke)`` returns the list of unit specs of one pass.  A
  spec is plain JSON data; the same seed gives the same specs.
* ``prepare(specs)`` turns specs into the objects the library takes (models
  are loaded and expressions parsed here, so this is set-up work).
* ``run(unit)`` is the one timed call into the library.
* ``check(spec, output)`` runs outside the timer and returns
  ``(problems, widths)``: a list of check failures and the output widths
  keyed by output name.
* ``block``: see `Workload`.

`endpoints(output)` lists every output-box endpoint in a fixed order, for the
digests that show whether two versions give bit-identical boxes.

The library is always reached through the ``mixmono`` package attributes at
call time, so the traced run can wrap them from outside.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

import mixmono as mm
from mixmono.errors import InfiniteJacobianEntry, NotSignStable, UnboundedBothSides

# Documented "this engine does not apply here" outcomes: counted, not failures.
INAPPLICABLE = (NotSignStable, InfiniteJacobianEntry, UnboundedBothSides)
TOL = 1e-9  # the containment tolerance of the tier-1 tests

ENGINES = {
    "natural": mm.NATURAL,
    "centered": mm.CENTERED,
    "mixed_centered": mm.MIXED_CENTERED,
    "jacobian_sign": mm.JACOBIAN_SIGN,
    "remainder": mm.REMAINDER,
    "tight_vertex": mm.TIGHT_VERTEX,
}
BEST_OF = mm.best_of_method(
    [mm.NATURAL, mm.CENTERED, mm.MIXED_CENTERED, mm.JACOBIAN_SIGN, mm.REMAINDER]
)


class Inapplicable(NamedTuple):
    """Output of a call that raised one of the INAPPLICABLE errors."""

    error: str


class Workload(NamedTuple):
    generate: Callable
    prepare: Callable
    run: Callable
    check: Callable
    # A pass is a whole number of blocks, each with the same mix of unit kinds;
    # the timed loop stops only at a block boundary, so every run measures the
    # same mix however many units it completes.
    block: int


def _unit_rng(spec: dict, salt: int) -> np.random.Generator:
    return np.random.default_rng([spec["seed"], spec["index"], salt])


def _models(names) -> dict:
    return {name: mm.load_bundled(name) for name in sorted(set(names))}


@functools.cache
def _check_model(name: str):
    return mm.load_bundled(name)


def rollout(model, x0: np.ndarray, steps: int, substeps: int,
            rng: np.random.Generator) -> list[np.ndarray]:
    """Sampled trajectories of a model; x0 has shape (n_x, n_traj).

    Discrete models apply the dynamics once per step.  Continuous models take
    `substeps` RK4 substeps per step with the disturbance held constant over
    each substep, as the embedding integrator assumes.
    """
    n_traj = x0.shape[1]
    states = [np.array(x0, dtype=float)]

    def field(x, w):
        cols = np.concatenate([x, w], axis=0)
        return np.stack(
            [np.broadcast_to(mm.eval_vec(e, cols), (n_traj,)) for e in model.dynamics]
        )

    def draw_w():
        return rng.uniform(
            model.disturbance.lo, model.disturbance.hi, size=(n_traj, model.n_w)
        ).T

    continuous = model.semantics is mm.TimeSemantics.CONTINUOUS
    h = model.dt / substeps
    for _ in range(steps):
        x = states[-1]
        if not continuous:
            x = field(x, draw_w())
        else:
            for _ in range(substeps):
                w = draw_w()
                k1 = field(x, w)
                k2 = field(x + 0.5 * h * k1, w)
                k3 = field(x + 0.5 * h * k2, w)
                k4 = field(x + h * k3, w)
                x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        states.append(x)
    return states


def inapplicable_count(out) -> int:
    if isinstance(out, Inapplicable):
        return 1
    if isinstance(out, dict):
        return sum(map(inapplicable_count, out.values()))
    return 0


def _tube_problems(tube, states: list[np.ndarray]) -> list[str]:
    problems = []
    if len(tube) != len(states):
        return [f"tube has {len(tube)} steps, expected {len(states)}"]
    for k, (rec, cols) in enumerate(zip(tube, states)):
        lo = np.asarray(rec.box.lo)[:, None] - TOL
        hi = np.asarray(rec.box.hi)[:, None] + TOL
        outside = int(np.sum(~np.all((cols >= lo) & (cols <= hi), axis=0)))
        if outside:
            problems.append(f"step {k}: {outside} sampled states outside the box")
    return problems


def endpoints(out) -> list:
    """Every endpoint of a unit's output boxes, or the inapplicable error."""
    if isinstance(out, Inapplicable):
        return [out.error]
    if isinstance(out, mm.Box):
        return [*out.lo, *out.hi]
    if isinstance(out, dict):
        return [x for value in out.values() for x in endpoints(value)]
    if isinstance(out, list):
        return [x for box in out for x in endpoints(box)]
    # a ReachTube: both boxes of every step, NaN for a step without update
    return [x for rec in out for box in (rec.propagated, rec.updated)
            for x in (endpoints(box) if box is not None else [math.nan])]


# ---------------------------------------------------------------------------
# observer: one unicycle episode per unit (acceptance criterion 10's problem)
# ---------------------------------------------------------------------------

OBS_MODEL, OBS_STEPS, OBS_SUBSTEPS, OBS_EPSILON = "unicycle", 8, 3, 2e-3
# 80 distinct episodes take about 12 s on a 2-core x86 VM.  The more distinct
# inputs a run has, the less its metrics hang on the seed.
OBS_EPISODES = 80


def observer_generate(seed: int, smoke: bool) -> list[dict]:
    model = mm.load_bundled(OBS_MODEL)
    obs = model.observation
    rng = np.random.default_rng(seed)
    specs = []
    for index in range(2 if smoke else OBS_EPISODES):
        x0 = np.asarray(model.init.midpoint())[:, None]
        states = rollout(model, x0, OBS_STEPS, OBS_SUBSTEPS, rng)
        meas = []
        for k, x in enumerate(states):
            v = rng.uniform(obs.noise.lo, obs.noise.hi)
            y = np.array([mm.eval_vec(e, x)[0] for e in obs.exprs])
            y = y + np.asarray(obs.V) @ v
            meas.append([k * model.dt, y.tolist()])
        specs.append({
            "seed": seed,
            "index": index,
            "key": f"ep{index:03d}",
            "measurements": meas,
            "states": [x[:, 0].tolist() for x in states],
        })
    return specs


def observer_prepare(specs: list[dict]) -> list[tuple]:
    model = mm.load_bundled(OBS_MODEL)
    cfg = mm.InversionConfig(epsilon=OBS_EPSILON)
    return [
        (model, [mm.Measurement(t=t, y=tuple(y)) for t, y in s["measurements"]], cfg)
        for s in specs
    ]


def observer_run(unit):
    model, meas, cfg = unit
    return mm.observe(model, mm.REMAINDER, meas, cfg, substeps=OBS_SUBSTEPS)


def observer_check(spec: dict, tube):
    states = [np.asarray(x, dtype=float)[:, None] for x in spec["states"]]
    return _tube_problems(tube, states), {spec["key"]: list(tube.final.widths())}


# ---------------------------------------------------------------------------
# reach: one reach_tube job per unit, from a fixed mix of models and engines
# ---------------------------------------------------------------------------

# (model, steps, engines).  vanderpol stops at 10 steps: from these initial
# boxes, by 50 steps the box of every engine that applies has saturated to an
# infinite width.  centered and mixed_centered are left out on ct_abate:
# seconds per tube would drown the mix.
REACH_MIX = (
    ("vanderpol", 10, (*ENGINES, "best_of")),
    ("scott_example", 100, (*ENGINES, "best_of")),
    ("jaulin_2_11", 10, (*ENGINES, "best_of")),
    ("ct_abate", 10, ("natural", "jacobian_sign", "remainder", "tight_vertex")),
)
# 12 copies of the mix (about 18 s), so the heaviest job kind alone gives the
# 11 samples the tail latency needs and the tail never straddles two kinds.
REACH_REPLICAS = 12
REACH_TRAJECTORIES = 200


def _sub_box(init, rng: np.random.Generator) -> list[list[float]]:
    """A seed-drawn sub-box: each side keeps 75-100% of the init width."""
    lo, hi = np.asarray(init.lo), np.asarray(init.hi)
    frac = rng.uniform(0.75, 1.0, size=len(lo))
    off = rng.uniform(0.0, 1.0, size=len(lo)) * (1.0 - frac)
    w = hi - lo
    return [[float(a), float(b)] for a, b in zip(lo + off * w, lo + (off + frac) * w)]


def reach_generate(seed: int, smoke: bool) -> list[dict]:
    models = _models(name for name, _, _ in REACH_MIX)
    rng = np.random.default_rng(seed)
    jobs = [(name, max(2, steps // 10) if smoke else steps, engine)
            for name, steps, engines in REACH_MIX for engine in engines]
    specs = []
    for rep in range(1 if smoke else REACH_REPLICAS):
        # each replica is one whole mix in its own order, so a partial pass is
        # an unbiased sample of it
        for j in rng.permutation(len(jobs)):
            name, steps, engine = jobs[j]
            index = len(specs)
            specs.append({
                "seed": seed,
                "index": index,
                "key": f"{index:03d}:{name}:{engine}",
                "model": name,
                "steps": steps,
                "method": engine,
                "init": _sub_box(models[name].init, rng),
                # the set-up probe's warm-up unit: a mid-cost job of fixed size
                "probe": rep == 0 and name == "vanderpol" and engine == "remainder",
            })
    return specs


def reach_prepare(specs: list[dict]) -> list[tuple]:
    models = _models(s["model"] for s in specs)
    methods = {**ENGINES, "best_of": BEST_OF}
    return [
        (
            dataclasses.replace(models[s["model"]], init=mm.Box.from_pairs(s["init"])),
            methods[s["method"]],
            s["steps"],
        )
        for s in specs
    ]


def reach_run(unit):
    model, method, steps = unit
    try:
        return mm.reach_tube(model, method, steps)
    except INAPPLICABLE as exc:
        return Inapplicable(type(exc).__name__)


def reach_check(spec: dict, tube):
    if isinstance(tube, Inapplicable):
        return [], {}
    model = _check_model(spec["model"])
    init = mm.Box.from_pairs(spec["init"])
    rng = _unit_rng(spec, 1)
    x0 = np.concatenate(
        [
            rng.uniform(init.lo, init.hi, size=(REACH_TRAJECTORIES, len(init))).T,
            np.array(list(init.vertices()), dtype=float).T,
        ],
        axis=1,
    )
    # reach_tube's default of 10 RK4 substeps per step
    states = rollout(model, x0, spec["steps"], 10, rng)
    return _tube_problems(tube, states), {spec["key"]: list(tube.final.widths())}


# ---------------------------------------------------------------------------
# range: one query (every engine plus a subdivision) per unit
# ---------------------------------------------------------------------------

RANGE_MAX_VARS = 6
RANGE_TERMS = (2, 3, 4, 5)
RANGE_MAX_CELLS = 64
RANGE_BLOCK = RANGE_MAX_VARS * len(RANGE_TERMS)  # one query per (n, terms)
RANGE_QUERIES = 28 * RANGE_BLOCK  # one pass is about 30 s with the reference loops
RANGE_SAMPLES = 20000


def _rand_term(rng: np.random.Generator, n: int) -> str:
    # the building blocks of the randomized tier-1 instances
    c = round(float(rng.uniform(-2.0, 2.0)), 3)
    j = int(rng.integers(n)) + 1
    k = int(rng.integers(n)) + 1
    d = round(float(rng.uniform(-1.0, 1.0)), 3)
    kind = rng.integers(8)
    if kind == 0:
        return f"{c}*x{j}^{int(rng.integers(1, 4))}"
    if kind == 1:
        return f"{c}*x{j}*x{k}"
    if kind == 2:
        return f"{c}*sin(x{j})"
    if kind == 3:
        return f"{c}*cos(x{j})"
    if kind == 4:
        return f"{c}*abs(x{j} - {d})"
    if kind == 5:
        return f"{c}*min(x{j}, x{k})"
    if kind == 6:
        return f"{c}*max(x{j}, {d})"
    return f"{c}*exp(0.5*x{j})"


def range_generate(seed: int, smoke: bool) -> list[dict]:
    rng = np.random.default_rng(seed)
    max_vars = 3 if smoke else RANGE_MAX_VARS
    specs = []
    for index in range(RANGE_MAX_VARS if smoke else RANGE_QUERIES):
        # every dimension and term count equally often, since they set a
        # query's cost, so the mix's cost and its tail do not hang on the
        # seed; everything else is drawn as rand_instance draws it
        n = 1 + index % max_vars
        terms = RANGE_TERMS[(index // RANGE_MAX_VARS) % len(RANGE_TERMS)]
        text = " + ".join(_rand_term(rng, n) for _ in range(terms))
        centers = rng.uniform(-2.0, 2.0, size=n)
        half = rng.uniform(0.1, 2.0, size=n) / 2
        k = 1
        while (k + 1) ** n <= RANGE_MAX_CELLS:
            k += 1
        specs.append({
            "seed": seed,
            "index": index,
            "key": f"q{index:03d}",
            "text": text,
            "box": [[float(c - h), float(c + h)] for c, h in zip(centers, half)],
            "k": k,
        })
    return specs


def range_prepare(specs: list[dict]) -> list[tuple]:
    out = []
    for s in specs:
        names = [f"x{j + 1}" for j in range(len(s["box"]))]
        out.append((mm.parse_expr(s["text"], names), mm.Box.from_pairs(s["box"]), s["k"]))
    return out


def range_run(unit) -> dict:
    expr, box, k = unit
    out = {}
    for name, method in ENGINES.items():
        try:
            out[name] = mm.apply_method(method, [expr], box)
        except INAPPLICABLE as exc:
            out[name] = Inapplicable(type(exc).__name__)
    _, out["subdivide_cells"], out["subdivide"] = mm.subdivide_apply(
        mm.REMAINDER, [expr], None, box, k
    )
    return out


def range_check(spec: dict, out: dict):
    expr, box, _ = range_prepare([spec])[0]
    inner = mm.sampled_range([expr], box, _unit_rng(spec, 2), n_samples=RANGE_SAMPLES)[0]
    problems = []
    widths = {f"{spec['key']}:sampled": inner.width}
    for name, enc in out.items():
        if isinstance(enc, Inapplicable) or name == "subdivide_cells":
            continue
        widths[f"{spec['key']}:{name}"] = enc[0].width
        if enc[0].lo > inner.lo + TOL or enc[0].hi < inner.hi - TOL:
            problems.append(f"{name} {enc[0]} misses sampled range {inner}")
    return problems, widths


WORKLOADS = {
    "observer": Workload(observer_generate, observer_prepare, observer_run, observer_check, 1),
    "reach": Workload(reach_generate, reach_prepare, reach_run, reach_check,
                      sum(len(engines) for _, _, engines in REACH_MIX)),
    "range": Workload(range_generate, range_prepare, range_run, range_check, RANGE_BLOCK),
}


def width_values(name: str, widths: dict) -> list[float]:
    """The widths width_gm averages: final-box widths, or for range each
    enclosure width over the sampled inner width of its query."""
    if name != "range":
        return [w for ws in widths.values() for w in ws]
    out = []
    for key, w in widths.items():
        query, output = key.split(":")
        if output != "sampled":
            inner = widths[f"{query}:sampled"]
            out.append(w / inner if inner > 0 else math.inf)
    return out
