"""Command-line interface.

Subcommands: range (enclose a map's image over a box), reach (propagate a
reach tube), invert (interval set inversion), observe (measurement-driven
tube refinement), and compare (per-method final-step width table).

Exit codes: 0 success, 2 input/validation error, 3 computation error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from .decomp import error_bounds
from .errors import (
    DimensionMismatch,
    EmptySolution,
    ExprSyntaxError,
    IoError,
    MixmonoError,
    ModelSyntaxError,
    UnknownIdentifier,
    ValidationError,
)
from .expr import clarke_jacobian_bounds, parse_expr
from .inclusion import (
    METHOD_NAMES,
    SAMPLE_CAP,
    MethodId,
    apply_method,
    best_of_method,
    default_jac_provider,
    sampled_range,
    subdivide_apply,
)
from .interval import Box, Interval, hausdorff_q
from .model import (
    _parse_box,
    load_bundled,
    load_measurements,
    load_model,
    write_plot,
    write_tube,
)
from .observer import observe
from .reach import reach_tube
from .setinv import InversionConfig, set_invert

_ALIASES = {"mixed": "mixed_centered", "jacsign": "jacobian_sign", "vertex": "tight_vertex"}


def _resolve_model(name_or_path: str):
    path = Path(name_or_path)
    if path.is_file():
        return load_model(path)
    return load_bundled(name_or_path)


def _parse_domain(text: str) -> Box:
    """A box given as [lo,hi], [lo,hi]^n or [[lo,hi],...]."""
    text = text.strip()
    m = re.fullmatch(r"(\[[^\[\]]+\])\s*\^\s*(\d+)", text)
    if m:
        text = "[" + ",".join([m.group(1)] * int(m.group(2))) + "]"
    elif not text.startswith("[["):
        text = f"[{text}]"
    return _parse_box(text, 1)


def _parse_vector(text: str) -> list[float]:
    return [float(v) for v in text.strip().strip("[]").split(",")]


def _parse_methods(selector: str, f, box, jac_provider) -> list[tuple[str, MethodId]]:
    out = []
    for raw in selector.split(","):
        name = _ALIASES.get(raw.strip(), raw.strip())
        if name == "best":
            members = []
            for cand_name, cand in METHOD_NAMES.items():
                try:
                    apply_method(cand, f, box, jac_provider)
                    members.append(cand)
                except MixmonoError:
                    continue  # inapplicable on this instance (e.g. not sign-stable)
            out.append(("best", best_of_method(members)))
        elif name in METHOD_NAMES:
            out.append((name, METHOD_NAMES[name]))
        else:
            raise ValidationError(
                f"unknown method {raw.strip()!r}; choose from "
                f"{', '.join(METHOD_NAMES)} or best"
            )
    return out


def _expr_vars(n: int, text: str) -> list[str]:
    if n == 1 and re.search(r"\bx\b", text):
        return ["x"]
    return [f"x{i+1}" for i in range(n)]


def _fmt_iv(iv: Interval) -> str:
    return f"[{iv.lo:.6g}, {iv.hi:.6g}]"


def cmd_range(args) -> int:
    if (args.model is None) == (args.expr is None):
        raise ValidationError("give exactly one of --model or --expr")
    if args.subdivide < 1:
        raise ValidationError(f"--subdivide must be at least 1, got {args.subdivide}")
    if args.expr is not None:
        if args.domain is None:
            raise ValidationError("--expr requires --domain")
        box = _parse_domain(args.domain)
        names = _expr_vars(len(box), args.expr)
        f = [parse_expr(args.expr, names)]
        provider = default_jac_provider(f)
    else:
        model = _resolve_model(args.model)
        f = list(model.dynamics)
        box = model.init.concat(model.disturbance)
        provider = model.jac_provider()
    methods = _parse_methods(args.methods, f, box, provider)

    rng = np.random.default_rng(args.seed)
    oracle = sampled_range(f, box, rng, n_samples=args.samples) if args.bounds else None

    lines = []
    for name, method in methods:
        if args.subdivide > 1:
            cells, encs, enc = subdivide_apply(method, f, provider, box, args.subdivide)
        else:
            enc = apply_method(method, f, box, provider)
        row = f"{name:15s} " + "  ".join(_fmt_iv(d) for d in enc)
        if args.subdivide > 1:
            row += f"  (hull over {len(cells)} cells)"
        lines.append(row)
        if args.subdivide > 1 and oracle is not None:
            per_cell = max(
                hausdorff_q(e, sampled_range(f, c, rng, n_samples=2000))
                for c, e in zip(cells, encs)
            )
            lines.append(f"{'':15s} per-cell max error {per_cell:.6g} over {len(cells)} cells")
        if args.bounds:
            jac = provider(box)
            for i, e in enumerate(f):
                eb = error_bounds(e, jac.row(i), box, oracle_range=oracle[i])
                lines.append(
                    f"{'':15s} row {i+1}: q_lower_est={eb.q_lower_estimate:.6g} "
                    f"q_upper={eb.q_upper:.6g} q_upper_hat={eb.q_upper_hat:.6g}"
                )
    if oracle is not None:
        lines.append(f"{'sampled range':15s} " + "  ".join(_fmt_iv(d) for d in oracle))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _steps_for(args, model) -> int:
    if args.steps is not None:
        return args.steps
    steps = math.nan if args.horizon is None else args.horizon / model.dt
    if math.isfinite(steps):
        return round(steps)
    raise ValidationError("give --steps or a finite --horizon")


def cmd_reach(args) -> int:
    model = _resolve_model(args.model)
    if args.refine and not model.constraints:
        raise ValidationError("--refine requires a constraint block in the model")
    steps = _steps_for(args, model)
    methods = _parse_methods(
        args.method, list(model.dynamics), model.init.concat(model.disturbance),
        model.jac_provider(),
    )
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes)
    tubes = {}
    for name, method in methods:
        tubes[name] = reach_tube(
            model, method, steps, refine=args.refine, inv_cfg=cfg, substeps=args.substeps
        )
    for name, tube in tubes.items():
        final = tube.final
        sys.stdout.write(
            f"{name:15s} t={tube[-1].t:g} " + "  ".join(_fmt_iv(d) for d in final) + "\n"
        )
        if args.out:
            out = Path(args.out)
            dest = out if len(tubes) == 1 else out.with_name(f"{out.stem}_{name}{out.suffix}")
            fmt = args.format or (dest.suffix.lstrip(".") or "csv")
            write_tube(tube, fmt, dest, model.state_names)
    if args.plot:
        write_plot(tubes, args.plot, model.state_names)
    return 0


def cmd_invert(args) -> int:
    if (args.model is None) == (args.expr is None):
        raise ValidationError("give exactly one of --model or --expr")
    if args.expr is not None:
        if args.prior is None:
            raise ValidationError("--expr requires --prior")
        prior = _parse_domain(args.prior)
        names = _expr_vars(len(prior), " ".join(args.expr))
        nu = [parse_expr(e, names) for e in args.expr]
    else:
        model = _resolve_model(args.model)
        if model.observation is None and not model.constraints:
            raise ValidationError("model has neither an observe nor a constraint block")
        nu = list(
            model.observation.exprs if model.observation else
            [c.expr for c in model.constraints]
        )
        prior = _parse_domain(args.prior) if args.prior else model.init
    y_lo = _parse_vector(args.ylo)
    y_hi = _parse_vector(args.yhi)
    method = _parse_methods(args.method, nu, prior, default_jac_provider(nu))[0][1]
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes, method=method)
    jac = clarke_jacobian_bounds(nu, prior)
    try:
        out = set_invert(nu, jac, prior, y_lo, y_hi, cfg)
    except EmptySolution:
        sys.stdout.write("EMPTY (no point of the prior is consistent with the constraint)\n")
        return 0
    sys.stdout.write("  ".join(_fmt_iv(d) for d in out) + "\n")
    return 0


def cmd_observe(args) -> int:
    model = _resolve_model(args.model)
    measurements = load_measurements(args.measurements)
    method = _parse_methods(
        args.method, list(model.dynamics), model.init.concat(model.disturbance),
        model.jac_provider(),
    )[0][1]
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes)
    tube = observe(model, method, measurements, cfg, substeps=args.substeps)
    final = tube.final
    sys.stdout.write(
        f"t={tube[-1].t:g} " + "  ".join(_fmt_iv(d) for d in final) + "\n"
    )
    if args.out:
        fmt = args.format or (Path(args.out).suffix.lstrip(".") or "csv")
        write_tube(tube, fmt, args.out, model.state_names)
    if args.plot:
        write_plot({args.method: tube}, args.plot, model.state_names)
    return 0


def cmd_compare(args) -> int:
    model = _resolve_model(args.model)
    steps = _steps_for(args, model)
    methods = _parse_methods(
        args.methods, list(model.dynamics), model.init.concat(model.disturbance),
        model.jac_provider(),
    )
    sys.stdout.write(
        f"{'method':15s} " + "  ".join(f"width({n})" for n in model.state_names) + "\n"
    )
    for name, method in methods:
        try:
            tube = reach_tube(model, method, steps, substeps=args.substeps)
        except MixmonoError as exc:
            sys.stdout.write(f"{name:15s} inapplicable: {exc}\n")
            continue
        widths = tube.final.widths()
        sys.stdout.write(f"{name:15s} " + "  ".join(f"{w:.6g}" for w in widths) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mixmono", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    r = sub.add_parser("range", help="enclose the image of a map over a box")
    r.add_argument("--model")
    r.add_argument("--expr")
    r.add_argument("--domain")
    r.add_argument("--methods", default="remainder")
    r.add_argument("--subdivide", type=int, default=1)
    r.add_argument("--bounds", action="store_true")
    r.add_argument("--samples", type=int, default=10**5,
                   help=f"random samples for --bounds, 0 to {SAMPLE_CAP}")
    r.add_argument("--out")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(fn=cmd_range)

    rc = sub.add_parser("reach", help="propagate a reach tube")
    rc.add_argument("--model", required=True)
    rc.add_argument("--method", default="remainder")
    rc.add_argument("--steps", type=int)
    rc.add_argument("--horizon", type=float)
    rc.add_argument("--refine", action="store_true")
    rc.add_argument("--epsilon", type=float, default=1e-3)
    rc.add_argument("--passes", type=int, default=1)
    rc.add_argument("--substeps", type=int, default=10)
    rc.add_argument("--out")
    rc.add_argument("--format", choices=["csv", "json"])
    rc.add_argument("--plot")
    rc.set_defaults(fn=cmd_reach)

    iv = sub.add_parser("invert", help="interval set inversion")
    iv.add_argument("--model")
    iv.add_argument("--expr", action="append")
    iv.add_argument("--prior")
    iv.add_argument("--ylo", required=True)
    iv.add_argument("--yhi", required=True)
    iv.add_argument("--epsilon", type=float, default=1e-3)
    iv.add_argument("--passes", type=int, default=1)
    iv.add_argument("--method", default="remainder")
    iv.set_defaults(fn=cmd_invert)

    ob = sub.add_parser("observe", help="measurement-driven tube refinement")
    ob.add_argument("--model", required=True)
    ob.add_argument("--measurements", required=True)
    ob.add_argument("--method", default="remainder")
    ob.add_argument("--epsilon", type=float, default=1e-3)
    ob.add_argument("--passes", type=int, default=1)
    ob.add_argument("--substeps", type=int, default=10)
    ob.add_argument("--out")
    ob.add_argument("--format", choices=["csv", "json"])
    ob.add_argument("--plot")
    ob.set_defaults(fn=cmd_observe)

    cp = sub.add_parser("compare", help="per-method final-step width table")
    cp.add_argument("--model", required=True)
    cp.add_argument("--methods", default="natural,centered,mixed_centered,jacobian_sign,remainder")
    cp.add_argument("--steps", type=int)
    cp.add_argument("--horizon", type=float)
    cp.add_argument("--substeps", type=int, default=10)
    cp.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValidationError, ModelSyntaxError, ExprSyntaxError,
            UnknownIdentifier, DimensionMismatch, IoError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MixmonoError as exc:
        sys.stderr.write(f"computation error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
