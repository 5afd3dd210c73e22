"""Shared fixtures and helpers for the mixmono test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    MethodId,
    MixmonoError,
    SystemModel,
    apply_method,
    best_of_method,
    parse_expr,
)
from mixmono.expr import Expr, eval_vec

ALL_METHODS: tuple[tuple[str, MethodId], ...] = (
    ("natural", NATURAL),
    ("centered", CENTERED),
    ("mixed_centered", MIXED_CENTERED),
    ("jacobian_sign", JACOBIAN_SIGN),
    ("remainder", REMAINDER),
    ("tight_vertex", TIGHT_VERTEX),
    (
        "best_of_all",
        best_of_method(
            [NATURAL, CENTERED, MIXED_CENTERED, JACOBIAN_SIGN, REMAINDER]
        ),
    ),
)


@dataclass(frozen=True)
class Instance:
    """One randomized (expression, box) test case."""

    text: str
    expr: Expr
    box: Box


def rand_box(rng: np.random.Generator, n: int, center_span: float = 2.0,
             min_width: float = 0.1, max_width: float = 2.0) -> Box:
    centers = rng.uniform(-center_span, center_span, size=n)
    widths = rng.uniform(min_width, max_width, size=n)
    return Box.from_bounds(centers - widths / 2, centers + widths / 2)


def _rand_term(rng: np.random.Generator, n: int) -> str:
    c = round(float(rng.uniform(-2.0, 2.0)), 3)
    j = int(rng.integers(n)) + 1
    k = int(rng.integers(n)) + 1
    d = round(float(rng.uniform(-1.0, 1.0)), 3)
    kind = rng.integers(8)
    if kind == 0:
        p = int(rng.integers(1, 4))
        return f"{c}*x{j}^{p}"
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


def rand_instance(rng: np.random.Generator, max_vars: int = 4) -> Instance:
    """A random piecewise-smooth expression over a random box.

    Terms are drawn from polynomial, trigonometric, absolute-value, min/max,
    and bounded-exponential building blocks, so every partial derivative is
    bounded on at least one side over any finite box.
    """
    n = int(rng.integers(1, max_vars + 1))
    n_terms = int(rng.integers(2, 6))
    text = " + ".join(_rand_term(rng, n) for _ in range(n_terms))
    variables = [f"x{j + 1}" for j in range(n)]
    return Instance(text=text, expr=parse_expr(text, variables), box=rand_box(rng, n))


def applicable_methods(exprs, box):
    """The subset of methods that apply to this instance, with their output."""
    out = []
    for name, method in ALL_METHODS:
        try:
            out.append((name, method, apply_method(method, exprs, box)))
        except MixmonoError:
            continue
    return out


def sample_points(rng: np.random.Generator, box: Box, count: int) -> np.ndarray:
    """(n_dims, count) column matrix of uniform samples plus all vertices."""
    pts = rng.uniform(box.lo, box.hi, size=(count, len(box))).T
    verts = np.array(list(box.vertices())).T
    return np.concatenate([pts, verts], axis=1)


def simulate_discrete(model: SystemModel, x0: np.ndarray, steps: int,
                      rng: np.random.Generator) -> list[np.ndarray]:
    """Vectorized rollout of many trajectories; x0 has shape (n_x, n_traj)."""
    n_traj = x0.shape[1]
    states = [np.array(x0, dtype=float)]
    for _ in range(steps):
        w = rng.uniform(
            model.disturbance.lo, model.disturbance.hi, size=(n_traj, model.n_w)
        ).T
        cols = np.concatenate([states[-1], w], axis=0)
        states.append(np.stack([eval_vec(e, cols) for e in model.dynamics]))
    return states


def tube_contains(tube, states: list[np.ndarray], tol: float = 1e-9) -> bool:
    """Whether every trajectory column is inside the tube box at every step."""
    for rec, cols in zip(tube, states):
        box = rec.box
        lo = np.asarray(box.lo)[:, None] - tol
        hi = np.asarray(box.hi)[:, None] + tol
        if not np.all((cols >= lo) & (cols <= hi)):
            return False
    return True


def box_subset(inner: Box, outer: Box, slack: float = 0.0) -> bool:
    return all(
        inner[i].lo >= outer[i].lo - slack and inner[i].hi <= outer[i].hi + slack
        for i in range(len(inner))
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260823)
