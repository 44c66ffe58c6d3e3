"""Saturated-attention transformer abstract machine.

A transformer here is a tuple of: alphabet, datatype (F = dyadic floats,
Q = exact rationals), width m, an embedding expression, layers of
attention heads plus an activation expression, and an affine classifier.
Input position i (1-based) and the token's one-hot vector feed the
embedding; each head scores all position pairs, turns scores into
weights (hard, saturated, or uniform attention), and emits the weighted
sum of one m/H-wide block of the previous values; the activation maps
(previous value, concatenated head outputs) to the next value. A string
is accepted iff W . v_final(position 1) + b > 0, strictly.

Expressions are a closed DSL of size-preserving primitives (const,
projection, add, mul, div, sqrt, neg, relu, compare, select, affine,
tuple) plus two escape hatches that are deliberately not size-preserving
and therefore not compilable: pow2 and named host callbacks.

One walk, forward, lays out the network and names each value's role:
the embeddings, each head over its block, the activation and the
classifier sum. run walks it over the datatype's Domain and the compiler
over an arithmetic whose ops emit gadgets, so both read it alike.

eval_expr evaluates an expression through its staged function: stage
turns each FuncExpr node, once, into a plain function of (args, domain,
hosts) that has the node's op and data resolved and calls its
children's functions. Every recursive walk here (stage's _stage, the
reader's _read_form, the parser's _parse_expr) is a module-level
function, and no staged function holds itself or a node, so staging,
evaluating a word or parsing a spec allocates no reference cycle: its
values are freed by refcount when it returns.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import math
import os
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Any, Callable, Mapping, Sequence, Union

from .bitnum import (
    BitNumError, Flt, Rat, flt, flt_add, flt_cmp, flt_div, flt_mul,
    flt_neg, flt_sqrt, flt_sum, ols, rat, rat_add, rat_cmp, rat_mul,
    rat_neg, rat_sum, size,
)


class MachineError(ValueError):
    """Ill-formed spec, expression, or input."""


Scalar = Union[Flt, Rat]
Number = tuple[int, int]  # (signed numerator, positive denominator)


def _number(num: int, den: int = 1) -> Number:
    if den == 0:
        raise MachineError("zero denominator in constant")
    if den < 0:
        num, den = -num, -den
    return (num, den)


# ---------------------------------------------------------------------------
# datatypes


class Domain:
    """Arithmetic dispatch for one of the two datatypes, and the protocol
    eval_expr evaluates an expression over (compile._Wires is the
    circuit's). A staged expression takes the domain as an argument, so
    the same staged tree runs over either datatype, compile._Measure and
    compile._Wires. Its ops take scalars, since the staged functions
    check shapes first:

    - const(num, den): the constant num/den that the spec or n names;
    - add, mul, div, sqrt, neg, relu;
    - gt, eq: the scalar 1 if the comparison holds, else 0;
    - select(c, then, other): then() or other() under the condition c;
      the branches are thunks, so the machine evaluates only one;
    - affine(coeffs, bias, xs): bias + the sum of coeff * x, with
      (num, den) pairs as coefficients and bias.

    forward walks the network over the same protocol plus two ops:
    attend(kind, row, cols), the attention of one query position (see
    Domain.attend), and role(name, x), the identity here, through which
    the walk passes each value x it produces under its role name.

    Constants are built once per domain. const keeps the expression
    constants, the affine and classifier coefficients and bias and the
    position constants, keyed by (num, den); reciprocal keeps the
    pooling weights 1/|M| and 1/n. Both share one dict of at most
    CONST_CAP entries, which starts over when full. pow2 and host
    results go through the uncached from_pair and from_int, so a value
    a word computes, such as 2^(i-1), never enters it. recognize builds
    no trace: it reads position 1's final value straight from forward.
    """

    CONST_CAP = 1024

    def __init__(self, name: str):
        if name not in ("F", "Q"):
            raise MachineError(f"unknown datatype {name!r} (want F or Q)")
        self.name = name
        self.zero = self.from_int(0)
        self.one = self.from_int(1)
        self.consts: dict = {}

    def _keep(self, key, v: Scalar) -> Scalar:
        if len(self.consts) >= self.CONST_CAP:
            self.consts.clear()
        self.consts[key] = v
        return v

    def const(self, num: int, den: int = 1) -> Scalar:
        v = self.consts.get((num, den))
        return v if v is not None else self._keep(
            (num, den), self.from_pair(num, den))

    def reciprocal(self, k: int) -> Scalar:
        """1/k by div: over F the floor-reciprocal float."""
        v = self.consts.get(("1/", k))
        return v if v is not None else self._keep(
            ("1/", k), self.div(self.one, self.from_int(k)))

    def from_pair(self, num: int, den: int = 1) -> Scalar:
        if self.name == "Q":
            return rat(num, den)
        if den <= 0 or den & (den - 1):
            raise MachineError(f"{num}/{den} is not representable over F")
        return flt(num, den.bit_length() - 1)

    def from_int(self, v: int) -> Scalar:
        return self.from_pair(v, 1)

    def add(self, x: Scalar, y: Scalar) -> Scalar:
        return flt_add(x, y) if self.name == "F" else rat_add(x, y)

    def sum(self, xs: Sequence[Scalar]) -> Scalar:
        """Exact n-ary sum, canonicalized once; equal to a left fold of
        add."""
        return flt_sum(xs) if self.name == "F" else rat_sum(xs)

    def mul(self, x: Scalar, y: Scalar) -> Scalar:
        return flt_mul(x, y) if self.name == "F" else rat_mul(x, y)

    def div(self, x: Scalar, y: Scalar) -> Scalar:
        if self.name == "F":
            if y.is_zero():
                raise MachineError("division by zero")
            return flt_div(x, y)
        num, den = y.as_pair()
        if num == 0:
            raise MachineError("division by zero")
        xn, xd = x.as_pair()
        return rat(xn * den, xd * num)

    def sqrt(self, x: Scalar) -> Scalar:
        if self.name != "F":
            raise MachineError("sqrt is defined over F only")
        try:
            return flt_sqrt(x)
        except BitNumError as exc:
            raise MachineError(str(exc)) from exc

    def neg(self, x: Scalar) -> Scalar:
        return flt_neg(x) if self.name == "F" else rat_neg(x)

    def relu(self, x: Scalar) -> Scalar:
        return x if self.cmp(x, self.zero) > 0 else self.zero

    def cmp(self, x: Scalar, y: Scalar) -> int:
        return flt_cmp(x, y) if self.name == "F" else rat_cmp(x, y)

    def gt(self, x: Scalar, y: Scalar) -> Scalar:
        return self.one if self.cmp(x, y) > 0 else self.zero

    def eq(self, x: Scalar, y: Scalar) -> Scalar:
        return self.one if self.cmp(x, y) == 0 else self.zero

    def select(self, c: Scalar, then: Callable, other: Callable):
        # short-circuit: the untaken branch is never evaluated, so a
        # guard like (gt x 0) really does protect a division
        if self.cmp(c, self.one) == 0:
            return then()
        if self.is_zero(c):
            return other()
        raise MachineError("select condition must be 0 or 1")

    def affine(self, coeffs: Sequence[Number], bias: Number,
               xs: Sequence[Scalar]) -> Scalar:
        acc = self.const(*bias)
        for cf, x in zip(coeffs, xs):
            acc = self.add(acc, self.mul(self.const(*cf), x))
        return acc

    def attend(self, kind: "AttentionKind", row: Callable,
               cols: Sequence[Sequence[Scalar]]) -> tuple:
        """(scores, maximizer set, head output) at one query position:
        row() gives its scores (a thunk, so a circuit need not build a
        uniform head's), and output component c pools column cols[c]."""
        scores = row()
        ties = max_set(scores, self)
        w, members = _pool(kind, len(scores), ties, self)
        return scores, ties, tuple(
            self.mul(w, self.sum([col[j] for j in members])) for col in cols)

    def role(self, name: str, x: Scalar) -> Scalar:
        return x

    def is_zero(self, x: Scalar) -> bool:
        return x.p.value == 0

    def __repr__(self):
        return f"Domain({self.name})"


DOMAIN_F = Domain("F")
DOMAIN_Q = Domain("Q")


def domain_of(name: str) -> Domain:
    if name == "F":
        return DOMAIN_F
    if name == "Q":
        return DOMAIN_Q
    raise MachineError(f"unknown datatype {name!r} (want F or Q)")


# ---------------------------------------------------------------------------
# expression DSL


@dataclass(frozen=True)
class FuncExpr:
    """Closed expression tree; ``data`` holds the op-specific payload.

    stage keeps the node's staged function on it, outside the fields, so
    equality, hashing, repr and pickling ignore it."""

    op: str
    args: tuple["FuncExpr", ...] = ()
    data: Any = None

    def __repr__(self):
        inner = ", ".join(repr(a) for a in self.args)
        payload = f"[{self.data!r}]" if self.data is not None else ""
        return f"{self.op}{payload}({inner})"

    def __reduce__(self):
        return FuncExpr, (self.op, self.args, self.data)


def Const(num: int, den: int = 1) -> FuncExpr:
    return FuncExpr("const", data=_number(num, den))


def Arg(j: int) -> FuncExpr:
    return FuncExpr("arg", data=j)


def Proj(k: int, e: FuncExpr) -> FuncExpr:
    return FuncExpr("proj", (e,), data=k)


def Tup(*es: FuncExpr) -> FuncExpr:
    return FuncExpr("tup", tuple(es))


def Add(a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("add", (a, b))


def Mul(a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("mul", (a, b))


def Div(a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("div", (a, b))


def Sqrt(a: FuncExpr) -> FuncExpr:
    return FuncExpr("sqrt", (a,))


def Neg(a: FuncExpr) -> FuncExpr:
    return FuncExpr("neg", (a,))


def Relu(a: FuncExpr) -> FuncExpr:
    return FuncExpr("relu", (a,))


def Gt(a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("gt", (a, b))


def Eq(a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("eq", (a, b))


def Select(cond: FuncExpr, a: FuncExpr, b: FuncExpr) -> FuncExpr:
    return FuncExpr("select", (cond, a, b))


def Affine(coeffs: Sequence[Number], bias: Number, *es: FuncExpr) -> FuncExpr:
    coeffs = tuple(_number(*c) for c in coeffs)
    if len(coeffs) != len(es):
        raise MachineError("affine: one coefficient per operand")
    return FuncExpr("affine", tuple(es), data=(coeffs, _number(*bias)))


def Pow2(a: FuncExpr) -> FuncExpr:
    """2**value(a); exponential in the input's numeric value, hence not
    size-preserving and rejected by the circuit compiler."""
    return FuncExpr("pow2", (a,))


def Host(name: str, *es: FuncExpr) -> FuncExpr:
    """Named host callback; the black-box escape hatch."""
    return FuncExpr("host", tuple(es), data=name)


_NON_SIZE_PRESERVING = {"pow2", "host"}


def is_size_preserving(e: FuncExpr) -> bool:
    """True iff the tree uses only the bounded-growth primitives."""
    return (e.op not in _NON_SIZE_PRESERVING
            and all(map(is_size_preserving, e.args)))


_ARITH = {"add", "mul", "div", "sqrt", "neg", "relu", "gt", "eq"}
# the largest E that (pow2 E) takes: 2^E then has at most 65537 bits,
# where a nest such as (pow2 (pow2 (pow2 (pos)))) could ask for gigabytes
MAX_POW2_EXPONENT = 1 << 16


def _scalar(x, what: str):
    if isinstance(x, tuple):
        raise MachineError(f"{what}: expected a scalar, got a {len(x)}-tuple")
    return x


def eval_expr(e: FuncExpr, args: Sequence[Any], domain: Domain,
              hosts: Mapping[str, Callable] = None):
    """Evaluate ``e`` with ``args`` as the values of (arg 0), (arg 1), ...

    Scalars are the values of ``domain`` (see Domain for the protocol it
    provides); vectors are plain tuples of scalars. The work is done by
    e's staged function (see stage), built on the first evaluation.
    """
    return stage(e)(args, domain, hosts)


def stage(e: FuncExpr) -> Callable:
    """e as a function (args, domain, hosts) -> e's value, built once per
    node and kept on it. Each node's op and data are read once, here, so
    an evaluation only calls its children's functions left to right,
    checks each operand's shape before the next is evaluated, and calls
    the domain's ops; select evaluates one branch. The domain and hosts
    are arguments, so one staged tree serves every arithmetic. A staged
    function holds its children's functions and its node's data, never
    a node or itself, so staging and evaluating allocate no cycle."""
    fn = e.__dict__.get("_staged")
    if fn is None:
        fn = _stage(e)
        object.__setattr__(e, "_staged", fn)
    return fn


def _stage(e: FuncExpr) -> Callable:
    """The staged function of e alone, over its children's (see stage)."""
    op, data = e.op, e.data
    if op == "const":
        num, den = data

        def ev_const(args, domain, hosts):
            return domain.const(num, den)
        return ev_const
    if op == "arg":
        def ev_arg(args, domain, hosts):
            if not 0 <= data < len(args):
                raise MachineError(f"arg {data} out of range "
                                   f"(have {len(args)})")
            return args[data]
        return ev_arg
    subs = tuple(map(stage, e.args))
    if op == "proj":
        sub = subs[0]

        def ev_proj(args, domain, hosts):
            v = sub(args, domain, hosts)
            if not isinstance(v, tuple):
                raise MachineError("proj applied to a scalar")
            if not 0 <= data < len(v):
                raise MachineError(f"proj index {data} out of range "
                                   f"(width {len(v)})")
            return v[data]
        return ev_proj
    if op == "tup":
        def ev_tup(args, domain, hosts):
            return tuple(_operands(subs, "tup component", args, domain,
                                   hosts))
        return ev_tup
    if op == "select":
        # partials, not lambdas: a lambda would give ev_select cells for
        # args, domain and hosts on every call
        cond, then, other = subs

        def ev_select(args, domain, hosts):
            return domain.select(_scalar(cond(args, domain, hosts), op),
                                 partial(then, args, domain, hosts),
                                 partial(other, args, domain, hosts))
        return ev_select
    if op == "host":
        def ev_host(args, domain, hosts):
            table = hosts or {}
            if data not in table:
                raise MachineError(f"unknown host function {data!r}")
            out = table[data](domain, *[sub(args, domain, hosts)
                                        for sub in subs])
            if isinstance(out, bool):
                return domain.from_int(int(out))
            if isinstance(out, int):
                return domain.from_int(out)
            return out
        return ev_host
    if op in _ARITH:
        def ev_arith(args, domain, hosts):
            return getattr(domain, op)(*_operands(subs, op, args, domain,
                                                  hosts))
        return ev_arith
    if op == "affine":
        coeffs, bias = data
        # an n-ary (add ...) parses to the unit-weight, zero-bias form
        what = "add" if set(coeffs) == {(1, 1)} and bias == (0, 1) else op

        def ev_affine(args, domain, hosts):
            return domain.affine(coeffs, bias,
                                 _operands(subs, what, args, domain, hosts))
        return ev_affine
    if op == "pow2":
        def ev_pow2(args, domain, hosts):
            num, den = _operands(subs, op, args, domain, hosts)[0].as_pair()
            if den != 1 or num < 0:
                raise MachineError("pow2 wants a nonnegative integer value")
            if num > MAX_POW2_EXPONENT:
                raise MachineError(f"pow2 wants an exponent of at most "
                                   f"{MAX_POW2_EXPONENT}")
            return domain.from_int(1 << num)
        return ev_pow2

    def ev_unknown(args, domain, hosts):
        _operands(subs, op, args, domain, hosts)
        raise MachineError(f"unknown op {op!r}")
    return ev_unknown


def _operands(subs: Sequence[Callable], what: str, args, domain,
              hosts) -> list:
    """The values of the staged functions subs, in order, each checked to
    be a scalar before the next is evaluated."""
    vals = []
    for sub in subs:
        x = sub(args, domain, hosts)
        if isinstance(x, tuple):
            _scalar(x, what)  # raises
        vals.append(x)
    return vals


# ---------------------------------------------------------------------------
# attention


class AttentionKind(enum.Enum):
    HARD = "hard"
    SATURATED = "saturated"
    UNIFORM = "uniform"

    @staticmethod
    def of(name: str) -> "AttentionKind":
        try:
            return AttentionKind(str(name).lower())
        except ValueError:
            raise MachineError(f"unknown attention kind {name!r}") from None


def max_set(scores: Sequence[Scalar], domain: Domain) -> tuple[int, ...]:
    """Indices of the score maximizers, in ascending order, by exact
    comparison: one pass with one cmp per score after the first, which
    starts the tie list over at each new maximum. An empty row raises."""
    if not scores:
        raise MachineError("empty score sequence")
    cmp = domain.cmp
    best, ties = scores[0], [0]
    for j in range(1, len(scores)):
        c = cmp(scores[j], best)
        if c > 0:
            best, ties = scores[j], [j]
        elif c == 0:
            ties.append(j)
    return tuple(ties)


def _pool(kind: AttentionKind, n: int, ties: tuple[int, ...] | None,
          domain: Domain) -> tuple[Scalar, Sequence[int]]:
    """(w, M) for a row of n scores whose maximizer set is ties (unused
    by uniform heads): the head weighs the positions in M by w and every
    other position by 0. A saturated row whose scores are all equal has
    ties = range(n), so saturated and uniform give the same (w, M); this
    is why forward may pool a key-free saturated head as uniform."""
    if kind is AttentionKind.UNIFORM:
        return domain.reciprocal(n), range(n)
    if kind is AttentionKind.HARD:
        return domain.one, ties[:1]
    return domain.reciprocal(len(ties)), ties


# ---------------------------------------------------------------------------
# transformer specs


def _read_paths(e: FuncExpr, out: set) -> set:
    """Argument paths the expression can read: an arg/proj chain reads
    the component it names (all of it), every other op what its
    operands read. A scorer reads the key through paths that start
    with 1."""
    path, node = (), e
    while node.op == "proj":
        path, node = (node.data,) + path, node.args[0]
    if node.op == "arg":
        out.add((node.data,) + path)
    else:
        for a in e.args:
            _read_paths(a, out)
    return out


@dataclass(frozen=True)
class HeadSpec:
    """One head: the attention kind the spec states and its scorer.

    ``pooling`` is the kind forward pools with, worked out once per
    head: a saturated head whose scorer never reads the key scores
    every position of a row alike, so its maximizer set M is every
    position and it is uniform attention, exactly. Any other head pools
    as stated."""

    attention: AttentionKind
    scorer: FuncExpr

    @cached_property
    def pooling(self) -> AttentionKind:
        if self.attention is AttentionKind.SATURATED and not any(
                p[0] == 1 for p in _read_paths(self.scorer, set())):
            return AttentionKind.UNIFORM
        return self.attention


@dataclass(frozen=True)
class LayerSpec:
    heads: tuple[HeadSpec, ...]
    activation: FuncExpr


@dataclass(frozen=True)
class TransformerSpec:
    """One transformer; the fields are the tuple in the module docstring.

    ``hosts`` maps each host callback's name to ``fn(domain, *values)``.
    A callback must be a pure function of its arguments: inside a
    ``shared_tables`` scope each embedding and layer-0 score is computed
    once per key, not once per word.
    """

    alphabet: tuple[str, ...]
    datatype: str
    width: int
    embedding: FuncExpr
    layers: tuple[LayerSpec, ...]
    classifier_w: tuple[Number, ...]
    classifier_b: Number
    hosts: Mapping[str, Callable] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        if not self.alphabet or len(set(self.alphabet)) != len(self.alphabet):
            raise MachineError("alphabet must be nonempty and duplicate-free")
        bad = [a for a in self.alphabet if len(a) != 1]
        if bad:
            raise MachineError(f"alphabet symbols must be one character "
                               f"each, got {bad[0]!r}")
        domain_of(self.datatype)
        if self.width < 1:
            raise MachineError(f"width must be at least 1, got {self.width}")
        if self.layers:
            h = len(self.layers[0].heads)
            if any(len(l.heads) != h for l in self.layers) or h == 0:
                raise MachineError("every layer needs the same nonzero head count")
            if self.width % h:
                raise MachineError("width must be a multiple of the head count")
        if len(self.classifier_w) != self.width:
            raise MachineError("classifier needs one weight per value component")

    @property
    def domain(self) -> Domain:
        return domain_of(self.datatype)

    @property
    def n_heads(self) -> int:
        return len(self.layers[0].heads) if self.layers else 0

    @property
    def block_width(self) -> int:
        return self.width // self.n_heads if self.layers else self.width


@dataclass(frozen=True)
class ValueTrace:
    """Everything the machine computed on one input.

    ``values[l][i]`` is the m-tuple after layer l (layer 0 = embeddings);
    ``scores[l][h][i][j]``, ``ties[l][h][i]``, and ``head_out[l][h][i]``
    cover the attention internals, at every position. ``layer_max_size[l]``
    is the largest component size among ``values[l]``. ``accept`` is
    the verdict ``recognize`` gives on ``input``.
    """

    input: str
    n: int
    values: tuple
    scores: tuple
    ties: tuple
    head_out: tuple
    layer_max_size: tuple[int, ...]
    accept: bool


def _check_vector(v, width, what):
    if not isinstance(v, tuple) or len(v) != width:
        got = f"a {len(v)}-tuple" if isinstance(v, tuple) else "a scalar"
        raise MachineError(f"{what} must produce a {width}-tuple, got {got}")
    return v


_SHARED = contextvars.ContextVar("shared_tables", default=None)


@contextlib.contextmanager
def shared_tables(spec: TransformerSpec):
    """A scope in which ``run`` on ``spec`` computes each embedding
    vector once per (token, position) and each layer-0 score once per
    (head, token_i, i, token_j, j), and shares them across the words it
    runs. Both depend on nothing else, so every trace is the one ``run``
    gives outside the scope; host callbacks must be pure. Only here
    does the walk hand forward its two tables: other specs, later layers
    and every walk outside a scope build no table and no key. The
    tables are dropped when the scope exits. It is a scope rather than
    an argument because callers such as verify's workers reach the
    machine only through ``recognize(spec, w)``."""
    token = _SHARED.set((spec, {}, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def forward(spec: TransformerSpec, word: Sequence, domain, evaluate: Callable,
            onehot: Callable, tables: tuple = None,
            final_positions=None) -> tuple:
    """(classifier sum, (values, scores, ties, head_out) as in
    ValueTrace) of word over domain, a Domain or any arithmetic with its
    protocol. Each head goes to attend as its HeadSpec.pooling kind: a
    saturated head whose scorer never reads the key pools as uniform,
    which is exact because its scores tie along every row (see _pool).
    A uniform head's scores play no role. evaluate(e, args)
    evaluates an expression; onehot(i) is position i's token vector,
    asked for just before its embedding. final_positions, which holds 0,
    limits the last layer's.

    tables, if given, is a pair of dicts (embeddings, layer-0 scores)
    that outlive the word: an embedding is looked up and kept under
    (word[i], i), a layer-0 score under (h, word[i], i, word[j], j).
    Without tables every value is computed afresh and no key is built;
    later layers read the whole word, so they never use a table."""
    n = len(word)
    embeds, scores0 = tables or (None, None)
    role = domain.role
    embed_roles = [f"embed[{c}]" for c in range(spec.width)]

    def embedding(i):
        return _check_vector(
            evaluate(spec.embedding, (onehot(i), domain.const(i + 1, 1))),
            spec.width, "embedding")

    v0 = []
    for i, tok in enumerate(word):
        if embeds is None:
            v = embedding(i)
        else:
            v = embeds.get((tok, i))
            if v is None:
                v = embeds[tok, i] = embedding(i)
        v0.append(tuple(map(role, embed_roles, v)))
    values, layers = [tuple(v0)], []
    bw = spec.block_width
    for li, layer in enumerate(spec.layers):
        prev = values[-1]
        columns = list(zip(*prev))  # component c over the positions
        live = (range(n) if final_positions is None
                or li < len(spec.layers) - 1 else final_positions)
        table = scores0 if li == 0 else None

        def score(scorer, i, j):
            return _scalar(evaluate(scorer, (prev[i], prev[j])), "scorer")

        def row(h, scorer, i, name):
            out = []
            for j in range(n):
                if table is None:
                    s = score(scorer, i, j)
                else:
                    key = (h, word[i], i, word[j], j)
                    s = table.get(key)
                    if s is None:
                        s = table[key] = score(scorer, i, j)
                out.append(s if name is None else role(name, s))
            return tuple(out)

        heads = []  # (scores, ties, outputs) of each head
        for h, head in enumerate(layer.heads):
            score_role = (None if head.pooling is AttentionKind.UNIFORM
                          else f"L{li}.h{h}.score")
            out_roles = [f"L{li}.h{h}.out[{c}]" for c in range(bw)]
            cols = columns[h * bw:(h + 1) * bw]
            rows, ties, outs = [None] * n, [None] * n, [None] * n
            for i in live:
                rows[i], ties[i], out = domain.attend(
                    head.pooling,
                    lambda: row(h, head.scorer, i, score_role), cols)
                outs[i] = tuple(map(role, out_roles, out))
            heads.append((tuple(rows), tuple(ties), tuple(outs)))
        act_roles = [f"L{li}.act[{c}]" for c in range(spec.width)]
        nxt = [None] * n
        for i in live:
            bcat = tuple(c for _, _, outs in heads for c in outs[i])
            nxt[i] = tuple(map(role, act_roles, _check_vector(
                evaluate(layer.activation, (prev[i], bcat)),
                spec.width, f"layer {li} activation")))
        values.append(tuple(nxt))
        layers.append(tuple(zip(*heads)))
    cls = role("classifier", domain.affine(
        spec.classifier_w, spec.classifier_b, values[-1][0]))
    attention = tuple(zip(*layers)) or ((), (), ())  # no layers: no heads
    return cls, (tuple(values), *attention)


def _walk(spec: TransformerSpec, w: str, domain, final_positions) -> tuple:
    """forward over domain (of spec's datatype) on token string w, after
    the input checks. Each symbol's one-hot vector is built once, and
    each expression runs through its staged function. forward gets the
    tables of a shared_tables scope for spec, and none outside one."""
    if len(w) == 0:
        raise MachineError("empty input (languages here are over nonempty strings)")
    hot = {a: tuple(domain.one if b == a else domain.zero
                    for b in spec.alphabet) for a in spec.alphabet}
    for ch in w:
        if ch not in hot:
            raise MachineError(f"token {ch!r} not in alphabet {spec.alphabet}")
    shared = _SHARED.get()
    hosts = spec.hosts
    return forward(
        spec, w, domain, lambda e, args: stage(e)(args, domain, hosts),
        lambda i: hot[w[i]],
        shared[1:] if shared is not None and shared[0] is spec else None,
        final_positions)


def run(spec: TransformerSpec, w: str) -> ValueTrace:
    """Full evaluation of ``spec`` on token string ``w``: every layer at
    every position, with the verdict, for ``run --trace`` and the size
    instrumentation. ``recognize`` is the lazy path that evaluates the
    last layer at position 1 only."""
    cls, (values, scores, ties, head_out) = _walk(spec, w, spec.domain, None)
    max_sizes = tuple(max((size(c) for v in layer_vals for c in v),
                          default=0) for layer_vals in values)
    return ValueTrace(w, len(w), values, scores, ties, head_out, max_sizes,
                      _accepts(spec, cls))


def classifier_value(spec: TransformerSpec, w: str) -> Scalar:
    """W . v_final(position 1) + b, exactly: the walk's classifier sum,
    with no trace kept."""
    return _walk(spec, w, spec.domain, (0,))[0]


def recognize(spec: TransformerSpec, w: str) -> bool:
    """Strict-positivity acceptance on the first position's final value."""
    return _accepts(spec, classifier_value(spec, w))


def _accepts(spec: TransformerSpec, cls) -> bool:
    return spec.domain.cmp(cls, spec.domain.zero) > 0


# ---------------------------------------------------------------------------
# instrumentation


HEAD_SUM_C = 2  # the c of the head-sum bound 4cz + 2 log2 n + 1


@dataclass(frozen=True)
class HeadSumBound:
    """One head-sum check of the linear-bits bound 4cz + 2 log2 n + 1."""

    n: int
    layer: int
    head: int
    z: int
    measured: int
    bound: float


@dataclass(frozen=True)
class SizeRow:
    n: int
    per_layer: tuple[int, ...]
    overall: int


@dataclass(frozen=True)
class SizeGrowthReport:
    """Measured value sizes against the line a + b*log2(n) fitted (OLS)
    on the smaller half of the n values, and the head-sum bounds.

    ``excess`` holds, for each larger n in order, the bits its max value
    size rises above the line. With fewer than two n in the smaller half
    the line is fitted on every row and ``excess`` is empty: a one-point
    fit has no slope, so growth is not judged. ``ok`` is whether every
    excess is at most 1 bit and every head-sum bound holds.
    """

    rows: tuple[SizeRow, ...]
    a: float
    b: float
    excess: tuple[float, ...]
    head_bounds: tuple[HeadSumBound, ...]

    @property
    def ok(self) -> bool:
        return (all(e <= 1 for e in self.excess) and
                all(hb.measured <= hb.bound for hb in self.head_bounds))


def instrument_sizes(spec: TransformerSpec,
                     inputs_by_n: Mapping[int, Sequence[str]]
                     ) -> SizeGrowthReport:
    """Trace the given inputs and report per-layer max value sizes, the
    smaller-half log fit and each larger n's excess over it, and the
    head-sum bound 4cz + 2 log2 n + 1 where c is HEAD_SUM_C and z the
    largest summand size feeding that head."""
    if not inputs_by_n:
        raise MachineError("size instrumentation needs at least one n")
    domain = spec.domain
    rows, head_bounds = [], []
    for n in sorted(inputs_by_n):
        per_layer = None
        z_by_head: dict = {}
        measured_by_head: dict = {}
        if not inputs_by_n[n]:
            raise MachineError(f"size instrumentation got no inputs of "
                               f"length {n}")
        for w in inputs_by_n[n]:
            if len(w) != n:
                raise MachineError(f"input {w!r} is not length {n}")
            t = run(spec, w)
            sizes = t.layer_max_size
            per_layer = sizes if per_layer is None else tuple(
                max(a, b) for a, b in zip(per_layer, sizes))
            for li in range(len(spec.layers)):
                for h in range(spec.n_heads):
                    key = (li, h)
                    for i in range(n):
                        wt, members = _pool(
                            spec.layers[li].heads[h].pooling, n,
                            t.ties[li][h][i], domain)
                        block = range(h * spec.block_width,
                                      (h + 1) * spec.block_width)
                        for j in members:
                            for comp in block:
                                term = domain.mul(wt, t.values[li][j][comp])
                                z_by_head[key] = max(z_by_head.get(key, 0),
                                                     size(term))
                        for out_c in t.head_out[li][h][i]:
                            measured_by_head[key] = max(
                                measured_by_head.get(key, 0), size(out_c))
        rows.append(SizeRow(n, per_layer, max(per_layer)))
        for (li, h), z in sorted(z_by_head.items()):
            bound = 4 * HEAD_SUM_C * z + 2 * math.log2(n) + 1
            head_bounds.append(HeadSumBound(n, li, h, z,
                                            measured_by_head[(li, h)], bound))
    xs = [math.log2(r.n) for r in rows]
    ys = [r.overall for r in rows]
    half = len(rows) // 2
    fit = half if half >= 2 else len(rows)
    a, b = ols(xs[:fit], ys[:fit])
    excess = tuple(y - (a + b * x) for x, y in zip(xs[fit:], ys[fit:]))
    return SizeGrowthReport(tuple(rows), a, b, excess, tuple(head_bounds))


# ---------------------------------------------------------------------------
# spec files: one s-expression document


_TOKEN_RE = re.compile(r"[()]|[^()\s;]+|;[^\n]*")
# the deepest a spec file may nest: (...) forms, and expression levels
# with (mul ...) and a binary (add ...) counted at the depth of the chain
# they parse to; it keeps the reader, the parser and every walk over an
# expression well inside the interpreter's recursion limit
MAX_NESTING = 100
# the most operands one (add ...) may have: it parses to one n-ary sum,
# and the cap bounds the adder tree a compile builds for it
MAX_ADD_OPERANDS = 256


def _read_sexp(text: str):
    tokens = [t for t in _TOKEN_RE.findall(text) if not t.startswith(";")]
    form, pos = _read_form(tokens, 0, 1)
    if pos != len(tokens):
        raise MachineError("trailing content after the top-level form")
    return form


def _read_form(tokens: Sequence[str], pos: int, depth: int) -> tuple:
    """(the form that starts at tokens[pos], the index just past it); a
    list there is depth levels deep"""
    if pos >= len(tokens):
        raise MachineError("unexpected end of spec file")
    tok = tokens[pos]
    pos += 1
    if tok == "(":
        if depth > MAX_NESTING:
            raise MachineError(f"spec file nests deeper than {MAX_NESTING} "
                               "levels")
        items = []
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read_form(tokens, pos, depth + 1)
            items.append(item)
        if pos >= len(tokens):
            raise MachineError("unbalanced ( in spec file")
        return items, pos + 1
    if tok == ")":
        raise MachineError("unbalanced ) in spec file")
    return tok, pos


_NUM_RE = re.compile(r"([+-]?\d+)(?:/(?:2\^(\d+)|(\d+)))?")


def _parse_number(atom: str) -> Number:
    m = _NUM_RE.fullmatch(atom) if isinstance(atom, str) else None
    if not m:
        raise MachineError(f"not a number literal: {atom!r}")
    num = _int(m.group(1))
    if m.group(2) is not None:
        return _number(num, 2 ** _int(m.group(2)))
    return _number(num, _int(m.group(3) or "1"))


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # past the interpreter's digit limit, or "²"
        raise MachineError(f"unusable integer literal {digits[:20]!r}"
                           f"{'...' * (len(digits) > 20)}") from None


def _is_number(atom) -> bool:
    return isinstance(atom, str) and _NUM_RE.fullmatch(atom) is not None


# operand count per expression op: (least, most), most None = unbounded
_ARITY = {"const": (1, 1), "arg": (1, 1), "proj": (2, 2), "tok": (1, 1),
          "q": (1, 1), "v": (1, 1), "pos": (0, 0), "key": (1, 1),
          "head": (2, 2), "tup": (0, None), "add": (2, MAX_ADD_OPERANDS),
          "mul": (2, None), "div": (2, 2), "sqrt": (1, 1), "neg": (1, 1),
          "relu": (1, 1), "gt": (2, 2), "eq": (2, 2), "select": (3, 3),
          "affine": (2, None), "pow2": (1, 1), "host": (1, None)}


def _want(what: str, rest, least: int, most: int = None):
    """Refuse a form with fewer than least or more than most operands."""
    if len(rest) < least or (most is not None and len(rest) > most):
        count = (least if least == most else f"at least {least}"
                 if len(rest) < least else f"at most {most}")
        raise MachineError(f"({what} ...) wants {count} operand"
                           f"{'s' * (least != 1)}, got {len(rest)}")


def _index(atom) -> int:
    """A 1-based index literal as a 0-based int."""
    if not (isinstance(atom, str) and atom.isdigit()):
        raise MachineError(f"expected a 1-based index, got {atom!r}")
    k = _int(atom)
    if k == 0:
        raise MachineError("indices are 1-based, got 0")
    return k - 1


# fixed-arity ops that parse to FuncExpr(op, operands), as Div, Sqrt, ... do
_FIXED = {"div", "sqrt", "neg", "relu", "gt", "eq", "select", "pow2"}


def _parse_expr(f, n_heads: int, block_width: int,
                depth: int = 1) -> FuncExpr:
    """Expression syntax (indices 1-based in files):

    atoms: N, p/q, p/2^e as constants
    (const N) (arg J) (proj K E) (tup E...) (add E E...) (mul E E...)
    (div E E) (sqrt E) (neg E) (relu E) (gt E E) (eq E E)
    (select C A B) (affine (w N...) (b N) E...) (pow2 E) (host NAME E...)
    sugar: (tok K) (pos) (q K) (key K) (v K) (head H K)

    Every expression is evaluated on two arguments, so J is 1 or 2, and
    (head H K) names one of the n_heads heads. An add of three or more
    operands is one affine sum with unit weights and zero bias. f sits
    depth levels deep in the expression, at most MAX_NESTING.
    """
    if depth > MAX_NESTING:
        raise MachineError(f"expression nests deeper than {MAX_NESTING} "
                           "levels")
    rec = partial(_parse_expr, n_heads=n_heads, block_width=block_width,
                  depth=depth + 1)
    if isinstance(f, str):
        if _is_number(f):
            return Const(*_parse_number(f))
        raise MachineError(f"bare atom {f!r} is not an expression")
    if not f:
        raise MachineError("empty expression")
    op, rest = f[0], f[1:]
    if not isinstance(op, str) or op not in _ARITY:
        raise MachineError(f"unknown expression op {op!r}")
    _want(op, rest, *_ARITY[op])
    if op in _FIXED:
        return FuncExpr(op, tuple(rec(x) for x in rest))
    if op == "const":
        return Const(*_parse_number(rest[0]))
    if op == "arg":
        j = _index(rest[0])
        if j > 1:
            raise MachineError(f"(arg J) wants J in 1..2, got {j + 1}")
        return Arg(j)
    if op == "proj":
        return Proj(_index(rest[0]), rec(rest[1]))
    if op in ("tok", "q", "v"):
        return Proj(_index(rest[0]), Arg(0))
    if op == "pos":
        return Arg(1)
    if op == "key":
        return Proj(_index(rest[0]), Arg(1))
    if op == "head":
        h, k = _index(rest[0]), _index(rest[1])
        if h >= n_heads:
            raise MachineError(f"(head H K) wants H in 1..{n_heads}, "
                               f"got {h + 1}")
        if k >= block_width:  # would alias the next head's component
            raise MachineError(f"(head H K) wants K in 1..{block_width}, "
                               f"got {k + 1}")
        return Proj(h * block_width + k, Arg(1))
    if op == "tup":
        return Tup(*[rec(x) for x in rest])
    if op == "add" and len(rest) > 2:  # one n-ary sum, one level
        return Affine([(1, 1)] * len(rest), (0, 1), *[rec(x) for x in rest])
    if op in ("add", "mul"):  # a left-deep chain, len(rest) - 1 levels
        rec = partial(rec, depth=depth + len(rest) - 1)
        acc = rec(rest[0])
        ctor = Add if op == "add" else Mul
        for x in rest[1:]:
            acc = ctor(acc, rec(x))
        return acc
    if op == "affine":
        coeffs, bias = _weights("affine", rest[0], rest[1])
        return Affine(coeffs, bias, *[rec(x) for x in rest[2:]])
    if not isinstance(rest[0], str):
        raise MachineError(f"host wants a name, got {rest[0]!r}")
    return Host(rest[0], *[rec(x) for x in rest[1:]])


def _weights(what: str, wf, bf) -> tuple:
    """(coefficients, bias) of the forms (w N...) (b N), which end an
    affine expression's operands and make up the classifier."""
    if not (isinstance(wf, list) and wf[:1] == ["w"]
            and isinstance(bf, list) and bf[:1] == ["b"]):
        raise MachineError(f"{what} wants (w ...) then (b N)")
    _want("b", bf[1:], 1, 1)
    return [_parse_number(x) for x in wf[1:]], _parse_number(bf[1])


# operand count per section other than (layer ...), as _ARITY; each
# appears at most once, and every one but name must appear
_SECTIONS = {"name": (1, 1), "alphabet": (1, None), "datatype": (1, 1),
             "width": (1, 1), "embedding": (1, 1), "classifier": (2, 2)}


def parse_spec(text: str) -> TransformerSpec:
    """Parse a transformer spec document; grammar in the README."""
    form = _read_sexp(text)
    if not isinstance(form, list) or not form or form[0] != "transformer":
        raise MachineError("spec file must be a (transformer ...) form")
    fields, layer_forms = {}, []
    for section in form[1:]:
        if not (isinstance(section, list) and section
                and isinstance(section[0], str)):
            raise MachineError(f"bad section: {section!r}")
        key = section[0]
        if key == "layer":
            layer_forms.append(section[1:])
        elif key not in _SECTIONS:
            raise MachineError(f"unknown section {key!r}")
        elif key in fields:
            raise MachineError(f"more than one ({key} ...) section")
        else:
            fields[key] = section[1:]
    fields.setdefault("name", [""])
    for key, (least, most) in _SECTIONS.items():
        if key not in fields:
            raise MachineError(f"missing ({key} ...) section")
        _want(key, fields[key], least)  # too few reads "at least"
        _want(key, fields[key], least, most)
    if not layer_forms:
        raise MachineError("missing (layer ...) section")
    alphabet = tuple(fields["alphabet"])
    if not all(isinstance(a, str) for a in alphabet):
        raise MachineError(f"alphabet symbols must be atoms: {alphabet!r}")
    datatype = fields["datatype"][0]
    width = fields["width"][0]
    if not (isinstance(width, str) and width.isdigit()):
        raise MachineError(f"width must be a count, got {width!r}")
    width = _int(width)

    head_counts = [sum(1 for it in lf if isinstance(it, list)
                       and it[:1] == ["head"])
                   for lf in layer_forms]
    if min(head_counts) != max(head_counts) or head_counts[0] == 0:
        raise MachineError("every layer needs the same nonzero head count")
    nh = head_counts[0]
    if width % nh:
        raise MachineError("width must be a multiple of the head count")
    bw = width // nh

    layers = []
    for lf in layer_forms:
        heads, activation = [], None
        for item in lf:
            if not isinstance(item, list) or not item:
                raise MachineError(f"bad layer item: {item!r}")
            if item[0] == "head":
                _want("head", item[1:], 2, 2)
                heads.append(HeadSpec(AttentionKind.of(item[1]),
                                      _parse_expr(item[2], nh, bw)))
            elif item[0] == "activation":
                _want("activation", item[1:], 1, 1)
                activation = _parse_expr(item[1], nh, bw)
            else:
                raise MachineError(f"unknown layer item {item[0]!r}")
        if activation is None:
            raise MachineError("layer missing (activation ...)")
        layers.append(LayerSpec(tuple(heads), activation))

    wf, bf = _weights("classifier", *fields["classifier"])
    name = fields["name"][0]
    seps = {"/", os.sep, os.altsep} - {None}
    if (not isinstance(name, str) or name in (".", "..")
            or any(sep in name for sep in seps)):
        raise MachineError(f"spec name {name!r} is not a plain file name")
    return TransformerSpec(alphabet, datatype, width,
                           _parse_expr(fields["embedding"][0], nh, bw),
                           tuple(layers), tuple(wf), bf, {}, name)


def read_utf8(path: str, error: type) -> str:
    """The text of the user's file at path, refused as error when it is
    not UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise error(f"{path}: not UTF-8 text ({e.reason} at "
                        f"byte {e.start})") from None


def load_spec(path: str) -> TransformerSpec:
    return parse_spec(read_utf8(path, MachineError))
