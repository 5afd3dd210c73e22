"""Model files, bundled benchmarks, and result serialization.

The model format is a small declarative block grammar:

    system "name" {
      time: discrete(dt=0.1);            # or continuous(dt=0.05)
      state: x1, x2;
      disturbance: w in [[-0.001,0.001]];
      dynamics { x1' = x1 + 0.1*x2; x2' = ...; }
      init: [[1.15,1.4],[2.05,2.3]];
      observe { y1 = 1.6*x1 + 0.3*x2; }
      noisematrix: [[1]];
      noise: [[-0.05,0.05]];
      constraint { x3 - x1 - 6*x2 in [0,0]; }
      jac_override { f_1/d_2 in [-0.1, inf]; }
    }

Comments run from '#' to end of line.  Reach tubes serialize to CSV/JSON and
render to simple SVG bound plots.
"""

from __future__ import annotations

import csv
import json
import re
from importlib import resources
from pathlib import Path
from typing import Sequence

from .errors import (
    DomainError,
    ExprSyntaxError,
    IoError,
    ModelSyntaxError,
    UnknownIdentifier,
    ValidationError,
)
from .expr import Expr, parse_expr, to_string
from .interval import Box, Interval
from .observer import Measurement
from .reach import Constraint, Observation, ReachTube, StepRecord, SystemModel, TimeSemantics

_IDENT = r"[A-Za-z_][A-Za-z_0-9]*"
_HEADER_RE = re.compile(r'\s*system\s+"([^"]+)"\s*\{')
_SECTION_RE = re.compile(rf"\s*({_IDENT})\s*([:{{])")
_TIME_RE = re.compile(r"^(discrete|continuous)\s*\(\s*dt\s*=\s*([^)]+)\)$")
_OVERRIDE_RE = re.compile(rf"^f_(\d+)\s*/\s*d_(\d+)\s+in\s+\[([^\]]+)\]$")


def _line_of(text: str, pos: int) -> int:
    return text.count("\n", 0, pos) + 1


def _strip_comments(text: str) -> str:
    # keep newlines so line numbers in errors stay meaningful
    return re.sub(r"#[^\n]*", "", text)


def _parse_float(token: str, line: int) -> float:
    try:
        return float(token.strip())
    except ValueError:
        raise ModelSyntaxError(f"expected a number, found {token.strip()!r}", line)


def _parse_matrix(body: str, line: int) -> list[list[float]]:
    body = body.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ModelSyntaxError(f"expected a [[...],...] literal, found {body!r}", line)
    rows = re.findall(r"\[([^\[\]]+)\]", body[1:-1])
    if not rows:
        raise ModelSyntaxError("empty matrix/box literal", line)
    return [[_parse_float(v, line) for v in row.split(",")] for row in rows]


def _parse_box(body: str, line: int) -> Box:
    rows = _parse_matrix(body, line)
    for row in rows:
        if len(row) != 2:
            raise ModelSyntaxError(f"box rows need exactly two entries, got {row}", line)
    try:
        return Box.from_pairs(rows)
    except Exception as exc:
        raise ValidationError(f"malformed box at line {line}: {exc}") from exc


def _parse_bounds(kind, text: str, what: str, line: int):
    """kind(lo, hi) from the "lo, hi" text of a bounds literal."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ModelSyntaxError(f"{what} bounds need exactly two entries", line)
    try:
        return kind(*(_parse_float(p, line) for p in parts))
    except DomainError as exc:
        raise ValidationError(f"malformed {what} bounds at line {line}: {exc}") from exc


def _parse_expr_here(text: str, names: Sequence[str], line: int) -> Expr:
    try:
        return parse_expr(text, names)
    except UnknownIdentifier as exc:
        raise ValidationError(f"{exc} (line {line})") from exc
    except ExprSyntaxError as exc:
        raise ModelSyntaxError(str(exc), line) from exc


def parse_model(text: str) -> SystemModel:
    """Parse model-file text into a validated SystemModel."""
    clean = _strip_comments(text)
    header = _HEADER_RE.match(clean)
    if header is None:
        raise ModelSyntaxError('expected: system "<name>" {', 1)
    name = header.group(1)
    pos = header.end()
    close = clean.rfind("}")
    if close < 0:
        raise ModelSyntaxError("missing closing '}' for the system block", _line_of(clean, len(clean) - 1))
    body_end = close

    sections: dict[str, tuple[str, int]] = {}
    block_sections: dict[str, tuple[str, int]] = {}
    while pos < body_end:
        if clean[pos:body_end].strip() == "":
            break
        m = _SECTION_RE.match(clean, pos)
        if m is None:
            raise ModelSyntaxError(
                f"expected a section name, found {clean[pos:pos+20].strip()!r}",
                _line_of(clean, pos),
            )
        key, opener = m.group(1), m.group(2)
        line = _line_of(clean, m.start(1))
        if opener == ":":
            end = clean.find(";", m.end(), body_end)
            if end < 0:
                raise ModelSyntaxError(f"section {key!r} is missing its ';'", line)
            sections[key] = (clean[m.end():end].strip(), line)
            pos = end + 1
        else:
            end = clean.find("}", m.end(), body_end + 1)
            if end < 0:
                raise ModelSyntaxError(f"block {key!r} is missing its closing brace", line)
            block_sections[key] = (clean[m.end():end], line)
            pos = end + 1

    def need(key: str, store: dict) -> tuple[str, int]:
        if key not in store:
            raise ValidationError(f"model {name!r} is missing the {key!r} section")
        return store[key]

    time_body, time_line = need("time", sections)
    tm = _TIME_RE.match(time_body)
    if tm is None:
        raise ModelSyntaxError("time must be discrete(dt=..) or continuous(dt=..)", time_line)
    semantics = (
        TimeSemantics.DISCRETE if tm.group(1) == "discrete" else TimeSemantics.CONTINUOUS
    )
    dt = _parse_float(tm.group(2), time_line)

    state_body, state_line = need("state", sections)
    state_names = tuple(s.strip() for s in state_body.split(","))
    if any(not re.fullmatch(_IDENT, s) for s in state_names):
        raise ModelSyntaxError(f"bad state declaration {state_body!r}", state_line)

    dist_names: tuple[str, ...] = ()
    disturbance = Box([])
    if "disturbance" in sections:
        dist_body, dist_line = sections["disturbance"]
        dm = re.match(r"^(.*?)\s+in\s+(\[.*\])$", dist_body, re.S)
        if dm is None:
            raise ModelSyntaxError("disturbance needs: <names> in [[lo,hi],...]", dist_line)
        dist_names = tuple(s.strip() for s in dm.group(1).split(","))
        if any(not re.fullmatch(_IDENT, s) for s in dist_names):
            raise ModelSyntaxError(f"bad disturbance names {dm.group(1)!r}", dist_line)
        disturbance = _parse_box(dm.group(2), dist_line)
        if len(disturbance) != len(dist_names):
            raise ValidationError(
                f"{len(dist_names)} disturbance names but box has {len(disturbance)} rows"
            )

    z_names = state_names + dist_names

    dyn_body, dyn_line = need("dynamics", block_sections)
    dynamics: dict[str, Expr] = {}
    for stmt, line in _statements(dyn_body, dyn_line):
        em = re.match(rf"^({_IDENT})'\s*=\s*(.+)$", stmt, re.S)
        if em is None:
            raise ModelSyntaxError(f"expected \"<state>' = <expr>\", found {stmt!r}", line)
        lhs = em.group(1)
        if lhs not in state_names:
            raise ValidationError(f"dynamics assign to undeclared state {lhs!r} (line {line})")
        if lhs in dynamics:
            raise ValidationError(f"duplicate dynamics equation for {lhs!r} (line {line})")
        dynamics[lhs] = _parse_expr_here(em.group(2), z_names, line)
    missing = [s for s in state_names if s not in dynamics]
    if missing:
        raise ValidationError(f"missing dynamics equations for {missing}")

    init_body, init_line = need("init", sections)
    init = _parse_box(init_body, init_line)

    observation = None
    if "observe" in block_sections:
        obs_body, obs_line = block_sections["observe"]
        obs_names, obs_exprs = [], []
        for stmt, line in _statements(obs_body, obs_line):
            em = re.match(rf"^({_IDENT})\s*=\s*(.+)$", stmt, re.S)
            if em is None:
                raise ModelSyntaxError(f"expected \"<name> = <expr>\", found {stmt!r}", line)
            obs_names.append(em.group(1))
            obs_exprs.append(_parse_expr_here(em.group(2), state_names, line))
        vm_body, vm_line = need("noisematrix", sections)
        V = _parse_matrix(vm_body, vm_line)
        noise_body, noise_line = need("noise", sections)
        noise = _parse_box(noise_body, noise_line)
        if len(V) != len(obs_exprs):
            raise ValidationError(
                f"noisematrix has {len(V)} rows for {len(obs_exprs)} outputs"
            )
        if any(len(row) != len(noise) for row in V):
            raise ValidationError("noisematrix column count does not match noise box")
        observation = Observation(
            exprs=tuple(obs_exprs),
            names=tuple(obs_names),
            V=tuple(tuple(row) for row in V),
            noise=noise,
        )
    elif "noisematrix" in sections or "noise" in sections:
        raise ValidationError("noisematrix/noise given without an observe block")

    constraints = []
    if "constraint" in block_sections:
        con_body, con_line = block_sections["constraint"]
        for stmt, line in _statements(con_body, con_line):
            cm = re.match(r"^(.*?)\s+in\s+\[([^\]]+)\]$", stmt, re.S)
            if cm is None:
                raise ModelSyntaxError(f"expected \"<expr> in [lo,hi]\", found {stmt!r}", line)
            bounds = _parse_bounds(Interval, cm.group(2), "constraint", line)
            expr = _parse_expr_here(cm.group(1), state_names, line)
            constraints.append(Constraint(expr=expr, bounds=bounds))

    overrides = None
    if "jac_override" in block_sections:
        ov_body, ov_line = block_sections["jac_override"]
        overrides = {}
        for stmt, line in _statements(ov_body, ov_line):
            om = _OVERRIDE_RE.match(stmt)
            if om is None:
                raise ModelSyntaxError(
                    f"expected \"f_i/d_j in [lo,hi]\", found {stmt!r}", line
                )
            bounds = _parse_bounds(Interval, om.group(3), "override", line)
            i, j = int(om.group(1)) - 1, int(om.group(2)) - 1
            if not (0 <= i < len(state_names) and 0 <= j < len(z_names)):
                raise ValidationError(f"override f_{i+1}/d_{j+1} out of range (line {line})")
            overrides[(i, j)] = bounds

    return SystemModel(
        name=name,
        semantics=semantics,
        dt=dt,
        state_names=state_names,
        dist_names=dist_names,
        dynamics=tuple(dynamics[s] for s in state_names),
        init=init,
        disturbance=disturbance,
        observation=observation,
        constraints=tuple(constraints),
        jacobian_overrides=overrides,
    )


def _statements(body: str, first_line: int) -> list[tuple[str, int]]:
    """Semicolon-separated statements with their line numbers."""
    out = []
    offset = 0
    for chunk in body.split(";"):
        stmt = chunk.strip()
        if stmt:
            out.append((stmt, first_line + body.count("\n", 0, offset)))
        offset += len(chunk) + 1
    return out


def load_model(path: str | Path) -> SystemModel:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise IoError(f"cannot read model file {path}: {exc}") from exc
    return parse_model(text)


def _fmt_num(v: float) -> str:
    return f"{v:.17g}"  # +-inf as "inf" and "-inf"


def _fmt_box(box: Box) -> str:
    return "[" + ",".join(f"[{_fmt_num(d.lo)},{_fmt_num(d.hi)}]" for d in box) + "]"


def model_to_text(model: SystemModel) -> str:
    """Canonical model-file text; parse_model(model_to_text(m)) == m."""
    z_names = model.state_names + model.dist_names
    out = [f'system "{model.name}" {{']
    kind = "discrete" if model.semantics is TimeSemantics.DISCRETE else "continuous"
    out.append(f"  time: {kind}(dt={_fmt_num(model.dt)});")
    out.append(f"  state: {', '.join(model.state_names)};")
    if model.dist_names:
        out.append(
            f"  disturbance: {', '.join(model.dist_names)} in {_fmt_box(model.disturbance)};"
        )
    out.append("  dynamics {")
    for s, e in zip(model.state_names, model.dynamics):
        out.append(f"    {s}' = {to_string(e, z_names)};")
    out.append("  }")
    out.append(f"  init: {_fmt_box(model.init)};")
    if model.observation is not None:
        obs = model.observation
        out.append("  observe {")
        for n, e in zip(obs.names, obs.exprs):
            out.append(f"    {n} = {to_string(e, model.state_names)};")
        out.append("  }")
        rows = ",".join("[" + ",".join(map(_fmt_num, r)) + "]" for r in obs.V)
        out.append(f"  noisematrix: [{rows}];")
        out.append(f"  noise: {_fmt_box(obs.noise)};")
    if model.constraints:
        out.append("  constraint {")
        for c in model.constraints:
            out.append(
                f"    {to_string(c.expr, model.state_names)} in "
                f"[{_fmt_num(c.bounds.lo)},{_fmt_num(c.bounds.hi)}];"
            )
        out.append("  }")
    if model.jacobian_overrides:
        out.append("  jac_override {")
        for (i, j), e in sorted(model.jacobian_overrides.items()):
            out.append(f"    f_{i+1}/d_{j+1} in [{_fmt_num(e.lo)},{_fmt_num(e.hi)}];")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"


def bundled_models() -> list[str]:
    root = resources.files("mixmono") / "models"
    return sorted(p.name[:-3] for p in root.iterdir() if p.name.endswith(".mm"))


def load_bundled(name: str) -> SystemModel:
    root = resources.files("mixmono") / "models"
    path = root / f"{name}.mm"
    if not path.is_file():
        raise IoError(f"no bundled model named {name!r}; have {bundled_models()}")
    return parse_model(path.read_text())


# ---------------------------------------------------------------------------
# Tube serialization
# ---------------------------------------------------------------------------


def write_tube(
    tube: ReachTube,
    fmt: str,
    path: str | Path,
    state_names: Sequence[str] | None = None,
) -> None:
    if len(tube) == 0:
        raise ValidationError("cannot serialize an empty tube")
    n = len(tube[0].propagated)
    names = list(state_names) if state_names else [f"x{i+1}" for i in range(n)]
    if fmt == "csv":
        _write_tube_csv(tube, path, names)
    elif fmt == "json":
        _write_tube_json(tube, path, names)
    else:
        raise ValidationError(f"unknown tube format {fmt!r} (use csv or json)")


def _write_tube_csv(tube: ReachTube, path, names) -> None:
    has_updated = any(s.updated is not None for s in tube)
    header = ["t"]
    for nm in names:
        header += [f"{nm}_lo", f"{nm}_hi"]
    if has_updated:
        for nm in names:
            header += [f"{nm}_lo_upd", f"{nm}_hi_upd"]
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for rec in tube:
                row = [f"{rec.t:.17g}"]
                for d in rec.propagated:
                    row += [f"{d.lo:.17g}", f"{d.hi:.17g}"]
                if has_updated:
                    upd = rec.updated if rec.updated is not None else rec.propagated
                    for d in upd:
                        row += [f"{d.lo:.17g}", f"{d.hi:.17g}"]
                w.writerow(row)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _write_tube_json(tube: ReachTube, path, names) -> None:
    payload = {
        "states": names,
        "steps": [
            {
                "t": rec.t,
                "propagated": [[d.lo, d.hi] for d in rec.propagated],
                "updated": (
                    [[d.lo, d.hi] for d in rec.updated]
                    if rec.updated is not None
                    else None
                ),
            }
            for rec in tube
        ],
    }
    try:
        Path(path).write_text(json.dumps(payload, indent=1))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_tube_json(path: str | Path) -> ReachTube:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # not JSON, or not text
        raise ValidationError(f"{path} is not a JSON tube file: {exc}") from exc
    tube = ReachTube()
    try:
        for rec in payload["steps"]:
            tube.steps.append(
                StepRecord(
                    t=float(rec["t"]),
                    propagated=Box.from_pairs(rec["propagated"]),
                    updated=Box.from_pairs(rec["updated"]) if rec["updated"] else None,
                )
            )
    except (KeyError, IndexError, TypeError, ValueError, DomainError) as exc:
        raise ValidationError(f"malformed tube file {path}: {exc!r}") from exc
    return tube


# ---------------------------------------------------------------------------
# Measurement streams (CSV: t,y1,...,yn)
# ---------------------------------------------------------------------------


def load_measurements(path: str | Path) -> list[Measurement]:
    out = []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for idx, row in enumerate(reader, start=1):
                if idx == 1 and row and row[0].strip() == "t":
                    continue  # optional header
                if not row or all(not c.strip() for c in row):
                    continue
                try:
                    values = [float(c) for c in row]
                except ValueError as exc:
                    raise ValidationError(f"malformed measurement row {idx}: {row}") from exc
                if len(values) < 2:
                    raise ValidationError(f"measurement row {idx} needs t plus outputs")
                out.append(Measurement(t=values[0], y=tuple(values[1:])))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path} is not a measurement CSV: {exc}") from exc
    return out


def write_measurements(measurements: Sequence[Measurement], path: str | Path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            n_y = len(measurements[0].y) if measurements else 0
            w.writerow(["t"] + [f"y{i+1}" for i in range(n_y)])
            for m in measurements:
                w.writerow([f"{m.t:.17g}"] + [f"{v:.17g}" for v in m.y])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# SVG bound plots
# ---------------------------------------------------------------------------

_PALETTE = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
]


def write_plot(
    tubes: dict[str, ReachTube],
    path: str | Path,
    state_names: Sequence[str] | None = None,
) -> None:
    """One stacked panel per state dimension; lo/hi curves per method."""
    if not tubes:
        raise ValidationError("no tubes to plot")
    first = next(iter(tubes.values()))
    if len(first) == 0:
        raise ValidationError("cannot plot an empty tube")
    n = len(first[0].propagated)
    names = list(state_names) if state_names else [f"x{i+1}" for i in range(n)]

    width, panel_h, margin, legend_h = 800, 220, 50, 24
    height = legend_h + n * panel_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for k, method in enumerate(tubes):
        color = _PALETTE[k % len(_PALETTE)]
        x0 = margin + k * 130
        parts.append(
            f'<line x1="{x0}" y1="12" x2="{x0+22}" y2="12" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{x0+27}" y="16" font-size="12">{method}</text>')

    t_min = min(tube[0].t for tube in tubes.values())
    t_max = max(tube[-1].t for tube in tubes.values())
    t_span = (t_max - t_min) or 1.0
    for dim in range(n):
        top = legend_h + dim * panel_h
        v_lo = min(rec.box[dim].lo for tube in tubes.values() for rec in tube)
        v_hi = max(rec.box[dim].hi for tube in tubes.values() for rec in tube)
        v_span = (v_hi - v_lo) or 1.0

        def sx(t: float) -> float:
            return margin + (t - t_min) / t_span * (width - 2 * margin)

        def sy(v: float) -> float:
            return top + panel_h - 30 - (v - v_lo) / v_span * (panel_h - 60)

        parts.append(
            f'<rect x="{margin}" y="{top+20}" width="{width-2*margin}" '
            f'height="{panel_h-50}" fill="none" stroke="#ccc"/>'
        )
        parts.append(
            f'<text x="{margin}" y="{top+16}" font-size="13">{names[dim]}</text>'
        )
        for k, (method, tube) in enumerate(tubes.items()):
            color = _PALETTE[k % len(_PALETTE)]
            for side in ("lo", "hi"):
                pts = " ".join(
                    f"{sx(rec.t):.2f},{sy(getattr(rec.box[dim], side)):.2f}"
                    for rec in tube
                )
                parts.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" '
                    f'stroke-width="1.5"/>'
                )
    parts.append("</svg>")
    try:
        Path(path).write_text("\n".join(parts))
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
