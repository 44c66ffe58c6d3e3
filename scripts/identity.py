#!/usr/bin/env python3
"""Byte-identity digests of what the compiler and the machine emit, one
sha256 line per case, so that two checkouts can be compared with diff.

A circuit line hashes to_json(circuit, indent=2), the bytes
`satcirc compile` writes to NAME_nN.json, and the width plan that
compile_planned returns with it. A trace line hashes the fields of
run's ValueTrace on one seeded word, the way
tests/test_builtins.py:trace_sha256 does, so a spec's name never moves a
line. A verdicts line hashes recognize's verdicts on VERDICT_WORDS
seeded words of VERDICT_N tokens, the lazy walk that evaluates the
last layer at position 1 only, which run's traces never take. A sizes
line hashes instrument_sizes's report on compile's default sample
words at each n of SIZE_NS, so it covers how bitnum.size counts every
value, where a trace line holds only each layer's largest size.

PYTHONPATH=src python3 scripts/identity.py > identity.txt
"""

import hashlib
import random
from pathlib import Path

from satcirc.builtins import builtin_spec
from satcirc.circuit import to_json
from satcirc.compile import compile_planned, default_samples
from satcirc.machine import instrument_sizes, load_spec, recognize, run

SPEC_FILE = Path(__file__).resolve().parents[1] / "specs" / "maj_f.sexp"
TRACE_BUILTINS = (("maj", None), ("maj-q", None), ("maj-ln", None),
                  ("hard-demo", None), ("prime-universal", "parity"),
                  ("resource-bounded", "bigram11"))
TRACE_WORDS = 16
TRACE_MAX_N = 12
VERDICT_WORDS = 200
VERDICT_N = 32
SIZE_NS = (4, 8, 16, 32)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def circuit_sha256(spec, n: int, include_values: bool) -> tuple[str, str]:
    """(sha256 of the circuit JSON, sha256 of the width plan)."""
    c, roles = compile_planned(spec, n, include_values=include_values)
    return sha256(to_json(c, indent=2)), sha256(repr(sorted(roles.items())))


def trace_sha256(spec, w: str) -> str:
    t = run(spec, w)
    return sha256(repr((t.input, t.n, t.values, t.scores, t.ties,
                        t.head_out, t.layer_max_size)))


def circuit_cases():
    """(label, spec, n, include_values) of every circuit line."""
    for name in ("maj", "hard-demo"):
        spec = builtin_spec(name)
        for n in range(1, 13):
            yield name, spec, n, False
            if n <= 6:
                yield name, spec, n, True
    spec = load_spec(str(SPEC_FILE))
    for n in (2, 4, 6):
        yield SPEC_FILE.name, spec, n, False


def trace_specs():
    """(label, spec) of each of TRACE_BUILTINS."""
    return [(name if pred is None else f"{name}:{pred}",
             builtin_spec(name, pred)) for name, pred in TRACE_BUILTINS]


def verdicts_sha256(spec, label: str) -> str:
    """sha256 of recognize's verdicts, one 0/1 per word, on VERDICT_WORDS
    words of VERDICT_N tokens seeded by the label."""
    rng = random.Random(f"verdicts:{label}")
    words = ["".join(rng.choice(spec.alphabet) for _ in range(VERDICT_N))
             for _ in range(VERDICT_WORDS)]
    return sha256("".join("01"[recognize(spec, w)] for w in words))


def sizes_sha256(spec) -> str:
    """sha256 of instrument_sizes's report on default_samples at each n
    of SIZE_NS."""
    return sha256(repr(instrument_sizes(
        spec, {n: default_samples(spec, n) for n in SIZE_NS})))


def trace_cases():
    """(label, spec, word) of every trace line: TRACE_WORDS words of
    1..TRACE_MAX_N tokens per spec, seeded by the label."""
    specs = trace_specs()
    specs.append((SPEC_FILE.name, load_spec(str(SPEC_FILE))))
    for label, spec in specs:
        rng = random.Random(label)
        for _ in range(TRACE_WORDS):
            n = rng.randint(1, TRACE_MAX_N)
            yield label, spec, "".join(rng.choice(spec.alphabet)
                                       for _ in range(n))


def main():
    for label, spec, n, values in circuit_cases():
        json_sha, plan_sha = circuit_sha256(spec, n, values)
        print(f"circuit {label} n={n}{' values' * values} "
              f"json={json_sha} plan={plan_sha}")
    for label, spec, w in trace_cases():
        print(f"trace {label} {w} {trace_sha256(spec, w)}")
    for label, spec in trace_specs():
        print(f"verdicts {label} n={VERDICT_N} {verdicts_sha256(spec, label)}")
    for label, spec in trace_specs():
        print(f"sizes {label} {sizes_sha256(spec)}")


if __name__ == "__main__":
    main()
