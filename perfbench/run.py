"""mixmono benchmark: seeded workloads, end-to-end metrics, traced layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload observer --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one caller: each unit (one timed
library call, see workloads.py) starts when the previous one returns.  The
library is imported from ``src/`` next to this directory.

Timings are given in *ref*, the time of a fixed reference loop that uses no
mixmono code (`reference_work`).  The loop runs between every two units, and
each unit's time is divided by the mean of the loops right before and after
it.  On a shared 2-core x86 VM the speed drifts by up to 1.5x over minutes;
the unit and the loop next to it slow down together, so the ratio stays
steady where the raw time does not.  Raw milliseconds go to the results
file.

--trace 0 prints the end-to-end metrics; --trace 1 runs the same units with
and without spans around each module's public functions and prints the
per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Full results (widths per output,
digests, failures, environment) go to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

# One BLAS thread, set before numpy is imported here or in a set-up probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("observer", "reach", "range")
SETUP_REPEATS = 7
TRACE_UNITS = {"observer": 6, "reach": 25, "range": 42}
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class Error(NamedTuple):
    """A unit that raised something other than a documented inapplicability."""

    message: str


def _import_workloads():
    """Import workloads.py, and through it the library under ROOT/src."""
    if not (SRC / "mixmono" / "__init__.py").is_file():
        sys.exit(f"error: no mixmono package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    loaded = Path(workloads.mm.__file__).resolve().parent
    if loaded != (SRC / "mixmono").resolve():
        sys.exit(f"error: imported mixmono from {loaded}, not from {SRC}")
    return workloads


def reference_work() -> int:
    """The fixed reference loop: pure-Python arithmetic and dict traffic plus
    small numpy calls, the mix the library runs.  About 10 ms on a 2-core x86
    VM."""
    import numpy as np

    s = 0
    for i in range(24000):
        s += i * i % 7
    d = {}
    for i in range(8000):
        d[i & 255] = d.get(i & 255, 0) + i
    a = np.arange(8.0)
    for _ in range(1200):
        a = np.minimum(a * 1.0000001, 10.0) + np.maximum(a, 0.5) * 1e-9
    return s + len(d) + int(a[0])


def _call(run, unit):
    try:
        return run(unit)
    except Exception as exc:  # a failed unit is counted, not fatal
        return Error(f"{type(exc).__name__}: {exc}")


def _digest(key: str, endpoints: list) -> str:
    h = hashlib.sha256(key.encode())
    for x in endpoints:
        h.update(struct.pack("<d", x) if isinstance(x, float) else str(x).encode())
    return h.hexdigest()


def _tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it: the (TAIL_BEYOND+1)-th largest latency."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _geometric_mean(values: list[float]) -> tuple[float, int]:
    """Geometric mean of the positive finite values, and how many were not."""
    good = [v for v in values if 0 < v < math.inf]
    gm = math.exp(math.fsum(map(math.log, good)) / len(good)) if good else math.nan
    return gm, len(values) - len(good)


def _environment(args) -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Evaluation(NamedTuple):
    problems: dict[int, list[str]]  # unit index -> check failures
    digests: list[str]
    widths: dict
    inapplicable: int


def _evaluate(W, w, specs, outputs) -> Evaluation:
    """Check every unit's first-pass output, outside any timer."""
    problems, digests, widths, inapplicable = {}, [], {}, 0
    for i, (spec, out) in enumerate(zip(specs, outputs)):
        if isinstance(out, Error):
            problems[i] = [out.message]
            digests.append(_digest(spec["key"], [out.message]))
            continue
        try:
            found, found_widths = w.check(spec, out)
        except Exception as exc:  # a malformed output fails its check
            found, found_widths = [f"check raised {type(exc).__name__}: {exc}"], {}
        if found:
            problems[i] = found
        widths.update(found_widths)
        inapplicable += W.inapplicable_count(out)
        digests.append(_digest(spec["key"], W.endpoints(out)))
    return Evaluation(problems, digests, widths, inapplicable)


def _failed_attempts(W, specs, ev: Evaluation, attempts) -> list[dict]:
    """Attempts whose unit failed its check, or whose output differs from the
    unit's first-pass output."""
    failures = []
    for i, out in attempts:
        reasons = list(ev.problems.get(i, []))
        if not reasons and _digest(specs[i]["key"], W.endpoints(out)) != ev.digests[i]:
            reasons = ["output differs from the unit's first-pass output"]
        if reasons:
            failures.append({"seed": specs[i]["seed"], "unit": specs[i]["key"],
                             "reasons": reasons})
    return failures


def _timed_loop(run, units, block: int, seconds: float):
    """Cycle through the units until every unit ran at least once, `seconds`
    have passed and a block is complete.  A timed reference loop runs before
    the first unit and after every unit.  Return per-unit latencies, the
    reference times (one more than units), (index, output) pairs and the
    wall time."""
    latencies, refs, attempts = [], [], []
    clock = time.perf_counter
    gc.collect()
    t_start = clock()
    reference_work()
    refs.append(clock() - t_start)
    i = 0
    while True:
        idx = i % len(units)
        t0 = clock()
        out = _call(run, units[idx])
        t1 = clock()
        reference_work()
        t2 = clock()
        latencies.append(t1 - t0)
        refs.append(t2 - t1)
        attempts.append((idx, out))
        i += 1
        if i >= len(units) and i % block == 0 and t2 - t_start >= seconds:
            return latencies, refs, attempts, t2 - t_start


def _probe_setup(workload: str, spec: dict) -> dict:
    """Set-up time in a fresh interpreter: import, prepare, one warm-up unit."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
        input=json.dumps(spec), capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe_main(workload: str) -> None:
    spec = json.loads(sys.stdin.read())
    t0 = time.perf_counter()
    W = _import_workloads()
    w = W.WORKLOADS[workload]
    out = _call(w.run, w.prepare([spec])[0])
    setup_s = time.perf_counter() - t0
    endpoints = [out.message] if isinstance(out, Error) else W.endpoints(out)
    print(json.dumps({"setup_s": setup_s, "digest": _digest(spec["key"], endpoints)}))


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, W, specs, units):
    w = W.WORKLOADS[args.workload]
    _call(w.run, units[0])  # warm-up, untimed
    reference_work()
    latencies, refs, attempts, wall = _timed_loop(w.run, units, w.block, args.seconds)
    # each unit's time in ref: over the mean of the loops on either side of it
    rel = [t / (0.5 * (refs[i] + refs[i + 1])) for i, t in enumerate(latencies)]
    ev = _evaluate(W, w, specs, [out for _, out in attempts[: len(units)]])
    failures = _failed_attempts(W, specs, ev, attempts)

    probe = next((s for s in specs if s.get("probe")), specs[0])
    probe_digest = ev.digests[specs.index(probe)]
    setup_times = []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        result = _probe_setup(args.workload, probe)
        setup_times.append(result["setup_s"])
        if result["digest"] != probe_digest:
            failures.append({"seed": args.seed, "unit": probe["key"],
                             "reasons": ["set-up probe output differs from the loop's"]})
    attempted = len(attempts) + len(setup_times)

    tail, pct = _tail(rel)
    tail_s, _ = _tail(latencies)
    width_gm, width_excluded = _geometric_mean(W.width_values(args.workload, ev.widths))
    metrics = {
        "units_per_ref": _metric(len(rel) / math.fsum(rel), "1/ref"),
        "latency_p50_ref": _metric(statistics.median(rel), "ref"),
        "latency_tail_ref": _metric(tail, "ref"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "width_gm": _metric(width_gm, "width"),
        "pass_frac": _metric((attempted - len(failures)) / attempted, "ratio"),
    }
    details = {
        "attempted": attempted,
        "failed_frac": len(failures) / attempted,
        "latency_samples": len(latencies),
        "latency_tail_percentile": pct,
        "timed_seconds": wall,
        "units_per_s": len(latencies) / math.fsum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "reference_p50_ms": statistics.median(refs) * 1e3,
        "latencies_ms": [t * 1e3 for t in latencies],
        "reference_ms": [t * 1e3 for t in refs],
        "setup_samples_s": setup_times,
        "width_excluded": width_excluded,
    }
    return metrics, failures, details, ev


def traced(args, W, specs):
    from tracer import Tracer

    w = W.WORKLOADS[args.workload]
    specs = specs[: TRACE_UNITS[args.workload]]
    tracer = Tracer()
    tracer.install()
    try:
        units = w.prepare(specs)  # the traced set-up
    finally:
        tracer.uninstall()

    clock = time.perf_counter
    attempts, plain_s, traced_s, traced_units = [], 0.0, 0.0, 0
    t_start = clock()
    while True:
        gc.collect()
        t0 = clock()
        for idx, unit in enumerate(units):
            attempts.append((idx, _call(w.run, unit)))
        plain_s += clock() - t0

        gc.collect()
        tracer.install()
        try:
            t0 = clock()
            for idx, unit in enumerate(units):
                tracer.begin_unit(traced_units)
                attempts.append((idx, _call(w.run, unit)))
                traced_units += 1
            traced_s += clock() - t0
        finally:
            tracer.uninstall()
        if clock() - t_start >= args.seconds:
            break

    ev = _evaluate(W, w, specs, [out for _, out in attempts[: len(units)]])
    failures = _failed_attempts(W, specs, ev, attempts)
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in tracer.layer_metrics(traced_units).items()}
    metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "ratio")
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.npz"
    tracer.save(spans_path)
    details = {
        "attempted": len(attempts),
        "failed_frac": len(failures) / len(attempts),
        "traced_units": traced_units,
        "untraced_seconds": plain_s,
        "traced_seconds": traced_s,
        "spans": len(tracer.name),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return metrics, failures, details, ev


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up probe")
    ap.add_argument("--setup-probe", metavar="WORKLOAD", choices=WORKLOAD_NAMES,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe_main(args.setup_probe)
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    W = _import_workloads()
    env = _environment(args)
    w = W.WORKLOADS[args.workload]
    specs = w.generate(args.seed, args.smoke)
    if args.trace:
        metrics, failures, details, ev = traced(args, W, specs)
    else:
        metrics, failures, details, ev = end_to_end(args, W, specs, w.prepare(specs))

    digest = hashlib.sha256("".join(ev.digests).encode()).hexdigest()
    report = {
        "environment": env,
        "metrics": metrics,
        **details,
        "failed": len(failures),
        "failures": failures,
        "inapplicable": ev.inapplicable,
        "units_per_pass": len(ev.digests),
        "output_digest": digest,
        "widths": ev.widths,
    }
    RESULTS.mkdir(exist_ok=True)
    out_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1))

    for f in failures[:20]:
        print(f"FAILED seed={f['seed']} unit={f['unit']}: {'; '.join(f['reasons'])}",
              file=sys.stderr)
    if "latency_p50_ms" in details:
        print(f"# latency p50 {details['latency_p50_ms']:.2f} ms, "
              f"reference loop p50 {details['reference_p50_ms']:.2f} ms")
    print(f"# {args.workload} seed={args.seed} units/pass={len(ev.digests)} "
          f"inapplicable={ev.inapplicable} failed_frac={details['failed_frac']} "
          f"digest={digest[:16]} results={out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": details["attempted"],
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
