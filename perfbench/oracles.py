"""Independent answers for the benchmark's outputs.

Nothing here imports satcirc. The language oracles are one-line
predicates on the word, and the circuit evaluator reads the circuit JSON
format itself, bit-parallel over a batch of words, so a check that uses
them does not reuse the code it checks.
"""

from __future__ import annotations

import json
import random

ALPHABET = "01"

# spec key -> (builtin name, --pred value, accept predicate on the word)
SPECS = {
    "maj": ("maj", None, lambda w: w.count("1") > w.count("0")),
    "maj-q": ("maj-q", None, lambda w: w.count("1") > w.count("0")),
    "maj-ln": ("maj-ln", None, lambda w: w.count("1") > w.count("0")),
    "hard-demo": ("hard-demo", None, lambda w: "1" in w[:3]),
    "prime-universal": ("prime-universal", "parity",
                        lambda w: w.count("1") % 2 == 1),
    "resource-bounded": ("resource-bounded", "bigram11",
                         lambda w: "11" in w),
}


def oracle(key: str):
    return SPECS[key][2]


def special_words(n: int) -> list[str]:
    """All-0, all-1 and the two alternating words of length n."""
    alt = "".join(ALPHABET[i % 2] for i in range(n))
    alt2 = "".join(ALPHABET[(i + 1) % 2] for i in range(n))
    return ["0" * n, "1" * n, alt, alt2]


def seeded_words(seed, n: int, count: int) -> list[str]:
    rng = random.Random(f"perfbench:{seed}:{n}")
    return [format(rng.getrandbits(n), f"0{n}b") for _ in range(count)]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


# ---------------------------------------------------------------------------
# circuit JSON evaluation


def _count_ge(masks, k: int, full: int) -> int:
    """Mask of the batch positions where at least k of ``masks`` are set.

    The per-position counts are kept bit-sliced: planes[b] holds bit b of
    every position's count.
    """
    if k <= 0:
        return full
    planes: list[int] = []
    for m in masks:
        carry = m
        for b in range(len(planes)):
            if not carry:
                break
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
        if carry:
            planes.append(carry)
    ge, eq = 0, full
    for b in reversed(range(max(len(planes), k.bit_length()))):
        pb = planes[b] if b < len(planes) else 0
        if (k >> b) & 1:
            eq &= pb
        else:
            ge |= eq & pb
            eq &= full ^ pb
    return ge | eq


def eval_circuit_json(text: str, words: list[str]) -> list[int]:
    """The first output of the circuit on each word (position-major one-hot
    input over ``ALPHABET``)."""
    doc = json.loads(text)
    full = (1 << len(words)) - 1
    inputs = [0] * doc["n"]
    for s, w in enumerate(words):
        for i, ch in enumerate(w):
            inputs[i * len(ALPHABET) + ALPHABET.index(ch)] |= 1 << s
    val: dict[int, int] = {}
    for g in doc["gates"]:
        kind, ins = g["kind"], [val[i] for i in g.get("inputs", ())]
        if kind == "INPUT":
            v = inputs[g["idx"]]
        elif kind == "NEG_INPUT":
            v = full ^ inputs[g["idx"]]
        elif kind == "CONST":
            v = full if g["k"] else 0
        elif kind == "NOT":
            v = full ^ ins[0]
        elif kind == "AND":
            v = full
            for m in ins:
                v &= m
        elif kind == "OR":
            v = 0
            for m in ins:
                v |= m
        elif kind == "THRESHOLD_GE":
            v = _count_ge(ins, g["k"], full)
        elif kind == "THRESHOLD_LE":
            v = full ^ _count_ge(ins, g["k"] + 1, full)
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        val[g["id"]] = v
    out = val[doc["outputs"][0]]
    return [(out >> s) & 1 for s in range(len(words))]


def negate_accept(text: str) -> str:
    """The same circuit with its accept output inverted: a deliberately
    wrong circuit for the negative control."""
    doc = json.loads(text)
    new_id = max(g["id"] for g in doc["gates"]) + 1
    doc["gates"].append({"id": new_id, "kind": "NOT",
                         "inputs": [doc["outputs"][0]]})
    doc["outputs"][0] = new_id
    return json.dumps(doc)


def circuit_mismatches(text: str, accept, words: list[str]) -> list[str]:
    """The words on which the circuit's accept bit disagrees with the
    oracle."""
    return [w for w, got in zip(words, eval_circuit_json(text, words))
            if bool(got) != accept(w)]


def machine_mismatches(recognize, spec, accept, words: list[str]) -> list[str]:
    """The words on which ``recognize(spec, w)`` disagrees with the
    oracle."""
    return [w for w in words if recognize(spec, w) != accept(w)]


# workload -> the specs its operations and oracles use
WORKLOAD_SPECS = {
    "compile-maj": ("maj",),
    "family-hard": ("hard-demo",),
    "verify-maj": ("maj",),
    "machine-mix": ("maj", "maj-q", "maj-ln", "hard-demo", "prime-universal",
                    "resource-bounded"),
}
