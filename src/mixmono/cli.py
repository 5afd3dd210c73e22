"""Command-line interface.

Subcommands: range (enclose a map's image over a box), reach (propagate a
reach tube), invert (interval set inversion), observe (measurement-driven
tube refinement), and compare (per-method final-step width table).

Exit codes: 0 success, 2 input/validation error, 3 computation error (range:
only when no method answered; a refusing one prints "refused: <error class>").
"""

from __future__ import annotations

import argparse
import decimal
import math
import re
import sys
from pathlib import Path

from .decomp import error_bounds
from .errors import (
    DimensionMismatch,
    EmptySolution,
    ExprSyntaxError,
    IoError,
    MixmonoError,
    ModelSyntaxError,
    Refusal,
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
    write_text,
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


def _parse_methods(selector: str) -> list[tuple[str, MethodId]]:
    methods, out = {**METHOD_NAMES, "best": best_of_method(tuple(METHOD_NAMES.values()))}, []
    for raw in selector.split(","):
        name = _ALIASES.get(raw.strip(), raw.strip())
        if name not in methods:
            raise ValidationError(f"unknown method {raw.strip()!r}; choose from "
                                  f"{', '.join(METHOD_NAMES)} or best")
        out.append((name, methods[name]))
    return out


def _one_method(selector: str) -> MethodId:
    (_, method), *more = _parse_methods(selector)
    if more:
        raise ValidationError(f"give one method, got {selector!r}")
    return method


def _expr_vars(n: int, text: str) -> list[str]:
    if n == 1 and re.search(r"\bx\b", text):
        return ["x"]
    return [f"x{i+1}" for i in range(n)]


_DOWN, _UP = (decimal.Context(prec=6, rounding=r) for r in ("ROUND_FLOOR", "ROUND_CEILING"))


def _fmt(x: float, context: decimal.Context = _UP) -> str:
    """x as format(x, ".6g") writes it, but rounded from its exact value by
    context, _DOWN or _UP, so that every printed end or bound is guaranteed."""
    if not math.isfinite(x):
        return f"{x:g}"
    d = context.create_decimal_from_float(x).normalize()
    if -4 <= d.adjusted() < 6:
        return f"{d:f}"
    mantissa, exponent = f"{d:e}".split("e")
    return f"{mantissa}e{int(exponent):+03d}"


def _fmt_iv(iv: Interval, inward: bool = False) -> str:
    """iv's ends, rounded outward, or inward for an inner estimate (exactly if those cross)."""
    lo, hi = _fmt(iv.lo, _UP if inward else _DOWN), _fmt(iv.hi, _DOWN if inward else _UP)
    if inward and decimal.Decimal(lo) > decimal.Decimal(hi):
        lo, hi = repr(iv.lo), repr(iv.hi)
    return f"[{lo}, {hi}]"


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
    methods = _parse_methods(args.methods)

    rng = oracle = None
    if args.bounds:
        from numpy.random import default_rng
        rng = default_rng(args.seed)
        oracle = sampled_range(f, box, rng, n_samples=args.samples)

    lines, refusals = [], []
    for name, method in methods:
        try:
            if args.subdivide > 1:
                cells, encs, enc = subdivide_apply(method, f, provider, box, args.subdivide)
            else:
                enc = apply_method(method, f, box, provider)
        except Refusal as exc:
            refusals.append(exc)
            lines.append(f"{name:15s} refused: {type(exc).__name__}")
            continue
        row = f"{name:15s} " + "  ".join(_fmt_iv(d) for d in enc)
        if args.subdivide > 1:
            row += f"  (hull over {len(cells)} cells)"
        lines.append(row)
        if args.subdivide > 1 and oracle is not None:
            per_cell = max(hausdorff_q(e, sampled_range(f, c, rng, n_samples=2000))
                           for c, e in zip(cells, encs))
            lines.append(f"{'':15s} per-cell max error {_fmt(per_cell)} over {len(cells)} cells")
    if len(refusals) == len(methods):
        raise refusals[0]
    if oracle is not None:  # the remainder form's error bounds over box, for every method
        for i, e in enumerate(f):
            try:  # a row whose Clarke or error bounds refuse prints as a method does
                eb = error_bounds(e, provider.row(i)(box).row(0), box, oracle_range=oracle[i])
            except Refusal as exc:
                lines.append(f"{'':15s} row {i+1}: refused: {type(exc).__name__}")
                continue
            lines.append(
                f"{'':15s} row {i+1}: q_lower_est={_fmt(eb.q_lower_estimate, _DOWN)} "
                f"q_upper={_fmt(eb.q_upper)} q_upper_hat={_fmt(eb.q_upper_hat)}"
            )
        lines.append(f"{'sampled range':15s} " + "  ".join(_fmt_iv(d, inward=True) for d in oracle))
    text = "\n".join(lines) + "\n"
    if args.out:
        write_text(args.out, text)
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
    steps = _steps_for(args, model)
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes)
    tubes = {name: reach_tube(model, method, steps, refine=args.refine, inv_cfg=cfg,
                              substeps=args.substeps)
             for name, method in _parse_methods(args.method)}
    for name, tube in tubes.items():
        sys.stdout.write(f"{name:15s} t={tube[-1].t:g} "
                         + "  ".join(map(_fmt_iv, tube.final)) + "\n")
    _write_tubes(args, model, tubes)
    return 0


def _write_tubes(args, model, tubes) -> None:
    """Each tube to --out (one file per tube, suffixed by its name when there
    are several), all of them to --plot."""
    for name, tube in tubes.items() if args.out else ():
        out = Path(args.out)
        dest = out if len(tubes) == 1 else out.with_name(f"{out.stem}_{name}{out.suffix}")
        write_tube(tube, args.format or (dest.suffix.lstrip(".") or "csv"), dest, model.state_names)
    if args.plot:
        write_plot(tubes, args.plot, model.state_names)


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
        nu = list(model.observation.exprs if model.observation else
                  [c.expr for c in model.constraints])
        prior = _parse_domain(args.prior) if args.prior else model.init
    y_lo, y_hi = _parse_vector(args.ylo), _parse_vector(args.yhi)
    method = _one_method(args.method)
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes, method=method)
    jac = clarke_jacobian_bounds(nu, prior)
    try:
        out = set_invert(nu, jac, prior, y_lo, y_hi, cfg)
    except EmptySolution:
        sys.stdout.write("EMPTY (no point of the prior is consistent with the constraint)\n")
        return 0
    sys.stdout.write("  ".join(map(_fmt_iv, out)) + "\n")
    return 0


def cmd_observe(args) -> int:
    model = _resolve_model(args.model)
    measurements = load_measurements(args.measurements)
    method = _one_method(args.method)
    cfg = InversionConfig(epsilon=args.epsilon, passes=args.passes)
    tube = observe(model, method, measurements, cfg, substeps=args.substeps)
    sys.stdout.write(f"t={tube[-1].t:g} " + "  ".join(map(_fmt_iv, tube.final)) + "\n")
    _write_tubes(args, model, {args.method: tube})
    return 0


def cmd_compare(args) -> int:
    model = _resolve_model(args.model)
    steps = _steps_for(args, model)
    methods = _parse_methods(args.methods)
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
        sys.stdout.write(f"{name:15s} " + "  ".join(map(_fmt, widths)) + "\n")
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
    rc.add_argument("--steps", type=int)
    rc.add_argument("--horizon", type=float)
    rc.add_argument("--refine", action="store_true")
    rc.set_defaults(fn=cmd_reach)

    iv = sub.add_parser("invert", help="interval set inversion")
    iv.add_argument("--model")
    iv.add_argument("--expr", action="append")
    iv.add_argument("--prior")
    iv.add_argument("--ylo", required=True)
    iv.add_argument("--yhi", required=True)
    iv.set_defaults(fn=cmd_invert)

    ob = sub.add_parser("observe", help="measurement-driven tube refinement")
    ob.add_argument("--measurements", required=True)
    ob.set_defaults(fn=cmd_observe)
    for cmd in (rc, ob):  # the tube commands
        cmd.add_argument("--model", required=True)
        cmd.add_argument("--substeps", type=int, default=10)
        cmd.add_argument("--out")
        cmd.add_argument("--format", choices=["csv", "json"])
        cmd.add_argument("--plot")
    for cmd in (rc, iv, ob):  # the commands that may run set inversion
        cmd.add_argument("--method", default="remainder")
        cmd.add_argument("--epsilon", type=float, default=1e-3)
        cmd.add_argument("--passes", type=int, default=1)

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
