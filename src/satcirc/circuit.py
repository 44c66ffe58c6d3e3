"""Boolean/threshold circuit IR.

Gates form a DAG with unbounded fan-in AND/OR/THRESHOLD nodes, leaf
INPUT/NEG_INPUT/CONST nodes, and NOT gates. Conventions fixed here and
relied on everywhere else:

  depth   leaves are at depth 0, every internal gate is 1 + max over
          its inputs, circuit depth is the max over output gates
  size    internal gates only; leaves are free (they are just wires)
  AND()   = 1, OR() = 0, THRESHOLD_GE(0) = 1   (identity elements)
  order   gate i has id i and reads only ids below i, so the gate list
          is a topological order; Circuit refuses any other list, and
          every evaluator walks it as it stands
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from . import workers
from .bitnum import ols

INPUT = "INPUT"
NEG_INPUT = "NEG_INPUT"
CONST = "CONST"
AND = "AND"
OR = "OR"
NOT = "NOT"
THRESHOLD_GE = "THRESHOLD_GE"
THRESHOLD_LE = "THRESHOLD_LE"

LEAF_KINDS = frozenset({INPUT, NEG_INPUT, CONST})
THRESHOLD_KINDS = frozenset({THRESHOLD_GE, THRESHOLD_LE})
ALL_KINDS = LEAF_KINDS | THRESHOLD_KINDS | {AND, OR, NOT}


class CircuitError(ValueError):
    pass


@dataclass(frozen=True)
class Gate:
    id: int
    kind: str
    inputs: tuple[int, ...] = ()
    k: int = None  # threshold constant, or CONST value
    idx: int = None  # input position for INPUT/NEG_INPUT

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise CircuitError(f"gate {self.id}: unknown kind {self.kind!r}")
        if self.kind in (INPUT, NEG_INPUT):
            if self.inputs or self.idx is None or self.idx < 0:
                raise CircuitError(f"gate {self.id}: bad input leaf")
        elif self.kind == CONST:
            if self.inputs or self.k not in (0, 1):
                raise CircuitError(f"gate {self.id}: CONST wants k in {{0,1}}")
        elif self.kind == NOT:
            if len(self.inputs) != 1:
                raise CircuitError(f"gate {self.id}: NOT wants one input")
        elif self.kind in THRESHOLD_KINDS:
            if self.k is None or self.k < 0:
                raise CircuitError(f"gate {self.id}: threshold wants k >= 0")


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[Gate, ...]
    outputs: tuple[int, ...]
    labels: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.outputs:
            raise CircuitError("circuit needs at least one output")
        for i, g in enumerate(self.gates):
            if g.id != i:
                raise CircuitError(f"gate {g.id} is at position {i}: ids "
                                   "must be 0..N-1 in list order")
            for ref in g.inputs:
                if not 0 <= ref < i:
                    raise CircuitError(f"gate {i} reads id {ref}, which is "
                                       "not an earlier gate")
            if g.kind in (INPUT, NEG_INPUT) and g.idx >= self.n:
                raise CircuitError(f"gate {i}: input index {g.idx} >= "
                                   f"n={self.n}")
        for o in self.outputs:
            if not 0 <= o < len(self.gates):
                raise CircuitError(f"output reads missing id {o}")
        for k, text in self.labels.items():
            if type(k) is not int or not 0 <= k < len(self.gates):
                raise CircuitError(f"label on id {k!r}, which has no gate")
            if type(text) is not str:
                raise CircuitError(f"label of gate {k} is {text!r}, not a "
                                   "string")


@dataclass(frozen=True)
class Metrics:
    size: int
    depth: int
    theta_count: int
    max_fanin: int


def _coerce_bits(x, n: int) -> tuple[int, ...]:
    try:
        bits = tuple(int(b) for b in x)
    except (TypeError, ValueError):
        raise CircuitError(f"want a length-{n} bit vector") from None
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise CircuitError(f"want a length-{n} bit vector")
    return bits


def _bitplane_sum(masks: Sequence[int]) -> list[int]:
    """Bit-sliced counter: planes[b] has sample bit set iff bit b of the
    per-sample count of set masks is 1."""
    planes: list[int] = []
    for m in masks:
        carry = m
        for b in range(len(planes)):
            if not carry:
                break
            planes[b], carry = planes[b] ^ carry, planes[b] & carry
        if carry:
            planes.append(carry)
    return planes


def _planes_ge(planes: Sequence[int], k: int, full: int) -> int:
    """Per-sample mask of count >= k given bit-sliced planes."""
    if k <= 0:
        return full
    width = max(len(planes), k.bit_length())
    gt, eq = 0, full
    for b in range(width - 1, -1, -1):
        plane = planes[b] if b < len(planes) else 0
        kb = (k >> b) & 1
        if kb:
            eq &= plane
        else:
            gt |= eq & plane
    return gt | eq


def eval_batch(c: Circuit, xs: Sequence) -> list[tuple[int, ...]]:
    """Evaluate many inputs at once: each bit vector in xs gives one bit
    of every input wire's mask (see _eval_masks)."""
    rows = [_coerce_bits(x, c.n) for x in xs]
    if not rows:
        return []
    masks = [int("".join(map(str, reversed(col))), 2) for col in zip(*rows)]
    outs = _eval_masks(c, masks, len(rows))
    return [tuple((v >> s) & 1 for v in outs) for s in range(len(rows))]


def _eval_masks(c: Circuit, masks: Sequence[int], m: int) -> list[int]:
    """The output masks of m inputs at once, one integer bitmask per
    wire: bit s of masks[i] is input i of sample s, and bit s of each
    output mask is that output on sample s."""
    if len(masks) != c.n:
        raise CircuitError(f"want {c.n} input masks, got {len(masks)}")
    full = (1 << m) - 1
    val = []
    plane_cache: dict[tuple[int, ...], list[int]] = {}
    for g in c.gates:
        if g.kind == INPUT:
            v = masks[g.idx]
        elif g.kind == NEG_INPUT:
            v = full ^ masks[g.idx]
        elif g.kind == CONST:
            v = full if g.k else 0
        elif g.kind == NOT:
            v = full ^ val[g.inputs[0]]
        elif g.kind == AND:
            v = full
            for i in g.inputs:
                v &= val[i]
                if not v:
                    break
        elif g.kind == OR:
            v = 0
            for i in g.inputs:
                v |= val[i]
                if v == full:
                    break
        else:
            planes = plane_cache.get(g.inputs)
            if planes is None:
                planes = _bitplane_sum([val[i] for i in g.inputs])
                plane_cache[g.inputs] = planes
            ge = _planes_ge(planes, g.k, full)
            v = ge if g.kind == THRESHOLD_GE else full ^ _planes_ge(
                planes, g.k + 1, full)
        val.append(v)
    return [val[o] for o in c.outputs]


def depth_map(c: Circuit) -> dict[int, int]:
    d = []
    for g in c.gates:
        d.append(0 if g.kind in LEAF_KINDS
                 else 1 + max((d[i] for i in g.inputs), default=0))
    return dict(enumerate(d))


def metrics(c: Circuit) -> Metrics:
    d = depth_map(c)
    size = sum(1 for g in c.gates if g.kind not in LEAF_KINDS)
    depth = max(d[o] for o in c.outputs)
    theta = sum(1 for g in c.gates if g.kind in THRESHOLD_KINDS)
    fanin = max((len(g.inputs) for g in c.gates), default=0)
    return Metrics(size, depth, theta, fanin)


@dataclass(frozen=True)
class FamilyRow:
    n: int
    size: int
    depth: int
    theta_count: int
    max_fanin: int


@dataclass(frozen=True)
class FamilyReport:
    rows: tuple[FamilyRow, ...]
    slope: float
    depth_constant: bool
    theta_free: bool

    @property
    def depths(self):
        return tuple(r.depth for r in self.rows)


def _family_row(family: Callable[[int], Circuit], n: int) -> tuple:
    m = metrics(family(n))
    return n, m.size, m.depth, m.theta_count, m.max_fanin


def family_analyze(family: Callable[[int], Circuit],
                   ns: Sequence[int]) -> FamilyReport:
    """Measure one circuit per n; slope is d log2(size) / d log2(n).

    Each distinct n is measured once, on forked workers that inherit
    family and send back only a row's five integers
    (workers.forked_map). The largest n is handed out first and an idle
    worker takes the next, so the sweep takes about as long as its
    largest n. The parent has no work of its own to pass, so it forks
    one worker per CPU and only waits: every compile runs in a child,
    and the long-lived parent never holds a Builder or the garbage of
    a build. Rows follow ns, and a failure is the one from the first
    failing n in ns.
    """
    distinct = list(dict.fromkeys(ns))
    if len(distinct) < 3:
        raise CircuitError(f"need at least three distinct values of n, "
                           f"got {len(distinct)}")
    largest_first = sorted(range(len(distinct)), key=lambda i: -distinct[i])
    with workers.forked_map(lambda n: _family_row(family, n), distinct,
                            largest_first) as (_, got):
        by_n = {r[0]: FamilyRow(*r) for r in got}
    rows = [by_n[n] for n in ns]
    xs = [math.log2(r.n) for r in rows]
    ys = [math.log2(max(r.size, 1)) for r in rows]
    return FamilyReport(tuple(rows), ols(xs, ys)[1],
                        len({r.depth for r in rows}) == 1,
                        all(r.theta_count == 0 for r in rows))


# ---------------------------------------------------------------------------
# serialization


def to_json(c: Circuit, indent: int = None) -> str:
    gates = []
    for g in c.gates:
        rec = {"id": g.id, "kind": g.kind}
        if g.k is not None:
            rec["k"] = g.k
        if g.idx is not None:
            rec["idx"] = g.idx
        if g.inputs:
            rec["inputs"] = list(g.inputs)
        gates.append(rec)
    doc = {"n": c.n, "gates": gates, "outputs": list(c.outputs)}
    if c.labels:
        doc["labels"] = {str(k): v for k, v in c.labels.items()}
    return json.dumps(doc, indent=indent)


def from_json(text: str) -> Circuit:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # or an int past the interpreter's digit limit
        raise CircuitError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitError("circuit JSON must be an object")
    recs = doc.get("gates", [])
    if not (isinstance(recs, list) and all(isinstance(r, dict) for r in recs)):
        raise CircuitError("'gates' must be a list of records")
    if not isinstance(doc.get("outputs", []), list):
        raise CircuitError("'outputs' must be a list")
    if not isinstance(doc.get("labels", {}), dict):
        raise CircuitError("'labels' must be an object")
    for rec in recs:
        ins = rec.get("inputs", [])
        if not (isinstance(ins, list) and all(type(i) is int for i in ins)):
            raise CircuitError(f"gate {rec.get('id')!r}: 'inputs' must be "
                               "a list of ints")
        for f in ("k", "idx"):
            if rec.get(f) is not None and type(rec[f]) is not int:
                raise CircuitError(f"gate {rec.get('id')!r}: '{f}' must be "
                                   "an int")
    try:
        gates = tuple(
            Gate(_int(rec["id"], "a gate id"), rec["kind"],
                 tuple(rec.get("inputs", ())),
                 rec.get("k"), rec.get("idx"))
            for rec in doc["gates"])
        labels = {_label_id(k): v for k, v in doc.get("labels", {}).items()}
        return Circuit(_int(doc["n"], "'n'"), gates,
                       tuple(_int(o, "an output") for o in doc["outputs"]),
                       labels)
    except CircuitError:
        raise
    except KeyError as exc:
        raise CircuitError(f"missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # a label key "a", a kind [0]
        raise CircuitError(f"malformed field: {exc}") from exc


def _int(x, what: str) -> int:
    """x if it is a JSON integer; 1.9, "1" and true are refused."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an int, got {json.dumps(x)}")
    return x


def _label_id(key: str) -> int:
    """The id a label key names; only str(id) itself names one, so "1_0",
    " 0" and "+0" are refused."""
    i = int(key)
    if str(i) != key:
        raise ValueError(f"label key {json.dumps(key)} is not a gate id")
    return i


_DOT_SHAPE = {INPUT: "plaintext", NEG_INPUT: "plaintext", CONST: "plaintext",
              AND: "box", OR: "ellipse", NOT: "diamond",
              THRESHOLD_GE: "hexagon", THRESHOLD_LE: "hexagon"}


def to_dot(c: Circuit) -> str:
    lines = ["digraph circuit {", "  rankdir=BT;"]
    outset = set(c.outputs)
    for g in c.gates:
        if g.kind == INPUT:
            label = f"x{g.idx + 1}"
        elif g.kind == NEG_INPUT:
            label = f"!x{g.idx + 1}"
        elif g.kind == CONST:
            label = str(g.k)
        elif g.kind == THRESHOLD_GE:
            label = f">={g.k}"
        elif g.kind == THRESHOLD_LE:
            label = f"<={g.k}"
        else:
            label = g.kind
        if g.id in c.labels:  # escape the text, not DOT's \n line break
            text = c.labels[g.id].replace("\\", "\\\\")
            label += "\\n" + text.replace('"', '\\"')
        style = ' style=bold' if g.id in outset else ""
        lines.append(f'  g{g.id} [label="{label}" '
                     f'shape={_DOT_SHAPE[g.kind]}{style}];')
        for ref in g.inputs:
            lines.append(f"  g{ref} -> g{g.id};")
    lines.append("}")
    return "\n".join(lines)
