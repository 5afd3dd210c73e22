"""Seeded fuzzing of the readers: malformed input raises MixmonoError only.

Each case applies a few random byte edits (delete, duplicate or overwrite a
span, insert a token) to a well-formed sample: the bundled model files, a
measurement CSV and a tube JSON written by the library itself.
"""

from __future__ import annotations

import random
from importlib import resources

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
