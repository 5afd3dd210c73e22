"""Spans around the library's public functions, recorded from outside.

`Tracer.install` replaces each traced function by a wrapper in every
``mixmono`` module that bound the name (``t_r_inclusion`` is bound in both
``decomp`` and ``inclusion``, ``eval_remainder_upper`` in both ``decomp`` and
``reach``), so calls between modules are seen as well as the benchmark's own.
`Tracer.uninstall` puts the originals back.

A span is one call: its name, its parent span, the unit it ran for, start and
end.  Spans stay in flat in-memory arrays until `save` writes them out.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) pairs, in the order the per-layer metrics are printed.
TRACED = (
    ("expr", "eval_point"),
    ("expr", "eval_interval"),
    ("expr", "clarke_jacobian_bounds"),
    ("decomp", "supporting_vectors"),
    ("decomp", "t_r_inclusion"),
    ("decomp", "t_l_inclusion"),
    ("decomp", "t_o_vertex_inclusion"),
    ("decomp", "eval_remainder_upper"),
    ("decomp", "eval_remainder_lower"),
    ("inclusion", "apply_method"),
    ("inclusion", "t_c_inclusion"),
    ("inclusion", "t_m_inclusion"),
    ("inclusion", "subdivide_apply"),
    ("reach", "embed_step_discrete"),
    ("reach", "embed_integrate_continuous"),
    ("setinv", "set_invert"),
    ("observer", "observe"),
    ("model", "parse_model"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}
SET_INVERT = _ID["setinv.set_invert"]
SUBDIVIDE = _ID["inclusion.subdivide_apply"]


class Tracer:
    def __init__(self):
        self.name = array("i")
        self.parent = array("q")
        self.unit = array("q")
        self.nested = array("b")  # a same-name call is already open
        self.start = array("d")
        self.end = array("d")
        self.current_unit = -1  # -1 marks set-up work
        self._stack = [-1]
        self._depth = [0] * len(SPAN_NAMES)
        self._patched: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self._seen: dict[str, set] = {}
        self._targets: dict[int, tuple] = {}  # set_invert span -> (y_lo, y_hi)

    def begin_unit(self, unit: int) -> None:
        self.current_unit = unit
        self._seen = {}

    # -- hooks that turn call arguments and results into counters ----------

    def _repeat(self, kind: str, key) -> None:
        seen = self._seen.setdefault(kind, set())
        self.counts[f"{kind}.calls"] += 1
        if key in seen:
            self.counts[f"{kind}.repeats"] += 1
        else:
            seen.add(key)

    def _on_supporting_vectors(self, sid, args, kwargs, result):
        row = tuple((e.lo, e.hi) for e in args[0])
        self._repeat("supporting_vectors", (row, *args[1:], tuple(kwargs.items())))
        self.counts["candidates"] += len(result)

    def _on_clarke(self, sid, args, kwargs, result):
        f, box = args[0], args[1]
        overrides = args[2] if len(args) > 2 else kwargs.get("overrides")
        self._repeat("clarke_jacobian_bounds",
                     (tuple(map(id, f)), box.lo, box.hi, id(overrides)))

    def _on_set_invert(self, sid, args, kwargs):
        y_lo = args[3] if len(args) > 3 else kwargs["y_lo"]
        y_hi = args[4] if len(args) > 4 else kwargs["y_hi"]
        self._targets[sid] = (y_lo, y_hi)

    def _on_apply_method(self, sid, args, kwargs, result):
        p = self.parent[sid]
        if p < 0 or self.name[p] != SET_INVERT:
            return
        # the same test set_invert's ruled_out applies to this enclosure
        y_lo, y_hi = self._targets[p]
        self.counts["ruled_out"] += 1
        if any(result[r].hi < y_lo[r] or result[r].lo > y_hi[r] for r in range(len(y_lo))):
            self.counts["ruled_out_true"] += 1

    def _on_subdivide(self, sid, args, kwargs, result):
        self.counts["cells"] += len(result[0])

    # -- patching ------------------------------------------------------------

    def _wrap(self, idx: int, fn, on_enter=None, on_exit=None):
        name, parent, unit, nested = self.name, self.parent, self.unit, self.nested
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1])
            unit.append(self.current_unit)
            nested.append(depth[idx] > 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            depth[idx] += 1
            if on_enter is not None:
                on_enter(sid, args, kwargs)
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                depth[idx] -= 1
                stack.pop()
            if on_exit is not None:
                on_exit(sid, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "decomp.supporting_vectors": (None, self._on_supporting_vectors),
            "expr.clarke_jacobian_bounds": (None, self._on_clarke),
            "setinv.set_invert": (self._on_set_invert, None),
            "inclusion.apply_method": (None, self._on_apply_method),
            "inclusion.subdivide_apply": (None, self._on_subdivide),
        }
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mixmono" or n.startswith("mixmono."))]
        for idx, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"mixmono.{mod}"], fn_name)
            wrapper = self._wrap(idx, original, *hooks.get(SPAN_NAMES[idx], (None, None)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            # copies, so the arrays can still grow afterwards
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "unit": np.frombuffer(self.unit, dtype=np.int64).copy(),
            "nested": np.frombuffer(self.nested, dtype=np.int8).astype(bool),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, span_names=np.array(SPAN_NAMES), **self.arrays())

    def layer_metrics(self, units_traced: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}.

        Calls and times are per traced unit, except model.parse_model, which
        is counted over the traced set-up (loading models, parsing).  A span's
        self time is its duration minus the time its child spans cover; total
        time counts only the outermost of nested same-name spans.
        """
        a = self.arrays()
        n = len(a["name"])
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        setup = a["unit"] < 0
        out: dict[str, tuple[float, str]] = {}
        for idx, span in enumerate(SPAN_NAMES):
            is_setup = span == "model.parse_model"
            sel = (a["name"] == idx) & (setup if is_setup else ~setup)
            per = 1.0 if is_setup else 1.0 / max(units_traced, 1)
            suffix = "" if is_setup else "/unit"
            out[f"{span}.calls"] = (int(np.sum(sel)) * per, "count" + suffix)
            out[f"{span}.self_ms"] = (float(np.sum(self_time[sel])) * 1e3 * per, "ms" + suffix)
            out[f"{span}.total_ms"] = (
                float(np.sum(dur[sel & ~a["nested"]])) * 1e3 * per, "ms" + suffix)

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        set_inverts = int(np.sum(a["name"] == SET_INVERT))
        subdivides = int(np.sum(a["name"] == SUBDIVIDE))
        out["decomp.candidates_per_row"] = (
            ratio(c["candidates"], c["supporting_vectors.calls"]), "ratio")
        for kind, layer in (("supporting_vectors", "decomp"),
                            ("clarke_jacobian_bounds", "expr")):
            out[f"{layer}.{kind}.repeat_share"] = (
                ratio(c[f"{kind}.repeats"], c[f"{kind}.calls"]), "ratio")
        out["setinv.ruled_out_per_call"] = (ratio(c["ruled_out"], set_inverts), "ratio")
        out["setinv.ruled_out_true_share"] = (
            ratio(c["ruled_out_true"], c["ruled_out"]), "ratio")
        out["inclusion.cells_per_subdivide"] = (
            ratio(c["cells"], subdivides), "ratio")
        return out
