"""Seeded fuzzing: malformed input raises MixmonoError only.

Each reader case applies a few random byte edits (delete, duplicate or
overwrite a span, insert a token) to a well-formed sample: the bundled model
files, a measurement CSV and a tube JSON written by the library itself.  The
CLI cases run `mixmono range` on random expressions over domains scaled up to
the edge of the float range, where it must exit with a code, not raise.
"""

from __future__ import annotations

import contextlib
import io
import random
from importlib import resources

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixmono import (
    REMAINDER,
    Measurement,
    MixmonoError,
    load_bundled,
    load_measurements,
    parse_model,
    reach_tube,
    read_tube_json,
    write_measurements,
    write_tube,
)
from mixmono import cli
from mixmono.cli import main
from mixmono.errors import Refusal

from conftest import rand_instance

CASES = 1000
TOKENS = (
    b"[", b"]", b"{", b"}", b",", b";", b":", b'"', b"-", b".", b"e", b"0",
    b"1e999", b"nan", b"inf", b"in", b"^", b"(", b")", b"x1", b"null",
    b"\n", b" ", b"\x00", b"\xff",
)


def mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(len(data) + 1)
        j = min(len(data), i + rng.randint(1, 8))
        op = rng.randrange(4)
        if op == 0:
            data = data[:i] + data[j:]
        elif op == 1:
            data = data[:j] + data[i:j] + data[j:]
        elif op == 2:
            data = data[:i] + rng.choice(TOKENS) + data[j:]
        else:
            data = data[:i] + rng.choice(TOKENS) + data[i:]
    return data


def escapes(read, samples: list[bytes], seed: int) -> list[tuple[bytes, str]]:
    """Mutated inputs on which `read` raised something other than MixmonoError."""
    rng = random.Random(seed)
    bad = []
    for _ in range(CASES):
        data = mutate(rng.choice(samples), rng)
        try:
            read(data)
        except MixmonoError:
            pass
        except Exception as exc:
            bad.append((data, repr(exc)))
    return bad


def test_parse_model():
    root = resources.files("mixmono") / "models"
    samples = [p.read_bytes() for p in sorted(root.iterdir(), key=lambda p: p.name)
               if p.name.endswith(".mm")]
    assert not escapes(lambda data: parse_model(data.decode("latin-1")), samples, 1)


def overwrite(path, data: bytes):
    # in place: truncating on open costs tens of ms on some file systems
    with open(path, "r+b") as fh:
        fh.write(data)
        fh.truncate()
    return path


def test_load_measurements(tmp_path):
    path = tmp_path / "meas.csv"
    write_measurements([Measurement(t=0.1 * k, y=(1.5 * k, -0.25)) for k in range(4)], path)
    read = lambda data: load_measurements(overwrite(path, data))
    assert not escapes(read, [path.read_bytes()], 2)


def test_read_tube_json(tmp_path):
    path = tmp_path / "tube.json"
    samples = []
    for name, refine in (("vanderpol", False), ("scott_redundant", True)):
        write_tube(reach_tube(load_bundled(name), REMAINDER, 2, refine=refine), "json", path)
        samples.append(path.read_bytes())
    read = lambda data: read_tube_json(overwrite(path, data))
    assert not escapes(read, samples, 3)


SCALES = (0, 100, 200, 300, 306, 307, 308)  # domains are scaled by 10^k
ENGINES = ("natural", "centered", "mixed_centered", "jacobian_sign", "remainder",
           "tight_vertex", "best")


def range_argv(seed: int) -> list[str]:
    """A `mixmono range` call on a seeded random expression and scaled domain."""
    rng = np.random.default_rng(seed)
    inst = rand_instance(rng)
    scale = 10.0 ** int(rng.choice(SCALES))
    domain = [[float(d.lo) * scale, float(d.hi) * scale] for d in inst.box]
    argv = ["range", "--expr", inst.text, "--domain", repr(domain),
            "--methods", str(rng.choice(ENGINES)),
            "--subdivide", str(rng.integers(1, 3)), "--samples", "50"]
    return argv + ["--bounds"] * int(rng.integers(2))


def range_outcome(argv: list[str]) -> tuple[int, str | None]:
    """main's exit code on a `mixmono range` argv, and the class of the error
    it reports, if any; the output is discarded."""
    run, caught = cli.cmd_range, []

    def recording(args):
        try:
            return run(args)
        except Exception as exc:
            caught.append(type(exc).__name__)
            raise

    cli.cmd_range = recording  # main's parser binds cli.cmd_range when it is built
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out), \
                np.errstate(all="ignore"):
            code = main(argv)
    finally:
        cli.cmd_range = run
    return code, (caught or [None])[0]


# the errors by which an engine declines a box (exit 3 when every method
# refuses); any other code 3 is a fault
DECLINED = tuple(error.__name__ for error in Refusal.__subclasses__())


def test_range_seeds_exit_with_a_code():
    # boxes near and past the largest float: no NaN end, math domain error
    # or disjoint enclosures (seeds 4, 102, 129, 137 and 236 once raised them)
    bad = {}
    for seed in range(400):
        code, error = range_outcome(range_argv(seed))
        if code not in (0, 2) and not (code == 3 and error in DECLINED):
            bad[seed] = (code, error)
    assert not bad


@given(st.integers(0, 2**32 - 1).map(range_argv))
# the exact sum of the slope terms overflows
@example(["range", "--expr", "1e298*x1 + 1e298*x2 + abs(x3)",
          "--domain", "[[0,1e10],[0,1e10],[-1,1]]"])
# the sampled box's width overflows
@example(["range", "--expr", "x1", "--domain", "[[-1e308,1e308]]", "--bounds"])
@settings(max_examples=200, deadline=None)
def test_cli_range(argv):
    with np.errstate(all="ignore"):
        main(argv)  # returns an exit code; anything raised escaped it
