"""Transformer-spec-to-circuit compiler.

For a spec over the dyadic floats and a fixed input length n, emits one
circuit whose accept bit equals recognize(spec, w) for every length-n
word w, encoded position-major as one-hot token groups.

The compiler runs the machine's own walk, machine.forward, over _Wires:
an arithmetic with machine.Domain's protocol whose every op emits that
op's gadget (f_add, f_mul_const, the sqrt table, f_gt, f_select, ...),
so the machine and the circuit share one reading of the network and of
the expression language, shape errors included. One _Wires holds all
the state of one compile: the builder, the role widths the walk records
and the memo of expression tables. Each size-preserving primitive
becomes one constant-depth subcircuit. _Wires.attend expands
one query position's attention: scores are compiled expressions, the
maximizer set comes from pairwise comparators (each unordered pair is
built once, and its reverse reuses the parts), tie counts from the
exact-count gadget, pooling from the counting float adder, and the
1/|M| weighting from the per-divisor reciprocal shifts. Hard heads mux
the first maximizer's value directly and never spend threshold gates;
uniform heads never build their scorer.

When every non-constant input wire of a whole embedding/scorer/
activation fits the lookup budget, the expression is instead emitted as
one truth table.
The structural form is still built on every call, because it fixes the
order in which gates are created, and then discarded. The table ranges
over the r live wires the expression reads: the argument components its
arg/proj chains reach (any other op reads what its operands read). One
compile tabulates each table once, keyed by the expression, the shapes
and constant bits of the read components, the alias pattern over the
read live wires (so the i = j scorer, which reads one position twice, is
a different table from i != j) and the result shape, and cross-checks
its 2^r rows against the structural form with unread live wires tied to
0. The emitted DNF ranges over all k live wires, each row expanded from
the r-bit row at m's read bits, so the circuit is the one a 2^k
tabulation gives.

Every compile checks its widths. The walk names each value's role:
_Wires.role records the structurally propagated (p bits, exponent
bound) of each, and compile_planned, the one build behind every entry
point, checks that the widths the machine's values reach on sample
words (_Measure.role) fit under them role for role; those recorded
widths are the width plan that certifies the circuit they came with.
compile_planned also refuses a threshold gate in the circuit of a spec
whose heads are all hard.

Verification compares the circuit with the machine word by word
(check_circuit, through workers.forked_map). The parent counts as one
CPU: it compiles while forked workers, one per other CPU, compute the
machine's verdicts, then judges the words still waiting itself and
checks the circuit on column masks, one int per input wire over a
block of words, against the verdicts' mask.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from . import synth as S
from . import workers
from .bitnum import Flt, flt, flt_sqrt
from .circuit import Circuit, _eval_masks, eval_batch, metrics
from .machine import (
    DOMAIN_F, AttentionKind, Domain, FuncExpr, MachineError,
    TransformerSpec, _walk, eval_expr, forward, is_size_preserving,
    recognize, shared_tables,
)
from .synth import Builder, SynthError, WirePack, clog2


class CompileError(ValueError):
    pass


EXPR_LOOKUP_BITS = 14  # whole-expression truth tables up to here
SQRT_LOOKUP_BITS = 16


def _check_compilable(spec: TransformerSpec):
    if spec.datatype != "F":
        raise CompileError(
            "only the F datatype compiles to circuits; exact rationals "
            "need gcd reduction, which has no constant-depth gadget here")
    exprs = [spec.embedding]
    for layer in spec.layers:
        exprs.append(layer.activation)
        exprs.extend(h.scorer for h in layer.heads)
    for e in exprs:
        if not is_size_preserving(e):
            raise CompileError(
                "spec uses pow2/host primitives; their growth is not "
                "size-preserving, so they do not compile to circuits")


def encode_words(spec: TransformerSpec, words: Sequence[str]) -> list[int]:
    """The circuit's input for a block of words of one length, one int
    per input wire, position-major: bit s of mask i*|alphabet| + a is set
    iff words[s][i] is alphabet[a]. Each mask is read off the block's
    column string at position i, not built word by word."""
    alpha = spec.alphabet
    n = len(words[0]) if words else 0
    for w in words:
        if len(w) != n:
            raise CompileError(f"word {w!r} has {len(w)} tokens; the "
                               f"block's words have {n}")
    known = set(alpha)
    picks = [str.maketrans({b: "01"[b == a] for b in alpha}) for a in alpha]
    masks = []
    for col in map("".join, zip(*words)):
        if not known.issuperset(col):
            ch = next(ch for w in words for ch in w if ch not in known)
            raise CompileError(f"token {ch!r} not in alphabet {alpha}")
        rev = col[::-1]  # word 0 is bit 0
        masks.extend(int(rev.translate(pick), 2) for pick in picks)
    return masks


def encode_word(spec: TransformerSpec, w: str) -> list[int]:
    """Position-major one-hot token encoding, the circuit's input: the
    one-word case of encode_words."""
    return encode_words(spec, [w])


# ---------------------------------------------------------------------------
# width checks


def default_samples(spec: TransformerSpec, n: int, count: int = 6,
                    seed: int = 0) -> list[str]:
    if n < 1:
        raise CompileError("need n >= 1")
    if count < 1:
        raise CompileError("need count >= 1")
    alpha = spec.alphabet
    fixed = dict.fromkeys([alpha[0] * n, alpha[-1] * n,
                           "".join(alpha[i % len(alpha)] for i in range(n))])
    words = set(list(fixed)[:count])
    # only |alpha|^n words exist; an exponent past count cannot lower it
    count = min(count, len(alpha) ** min(n, count))
    rng = random.Random(seed)
    while len(words) < count:
        words.add("".join(rng.choice(alpha) for _ in range(n)))
    return sorted(words)


def _widen(roles: dict, name: str, p: int, e: int):
    """Widen the (p bits, exponent bound) kept for role name to cover
    (p, e)."""
    old = roles.get(name, (0, 0))
    roles[name] = (max(old[0], p), max(old[1], e))


class _Measure(Domain):
    """The widths the machine's values reach on the sample words: the
    walk over spec's datatype, whose role op keeps each role's widest
    (p bits, e) in roles."""

    def __init__(self, spec: TransformerSpec, samples):
        super().__init__(spec.datatype)
        self.roles: dict = {}
        for w in samples:
            _walk(spec, w, self, None)

    def role(self, name: str, x):
        _widen(self.roles, name, len(x.p), x.e)
        return x


# ---------------------------------------------------------------------------
# expression values: WirePack or nested tuples of packs


def _packs(val) -> list:
    """val's packs in order."""
    out: list = []
    _map_packs(val, out.append)
    return out


def _pack_const(b: Builder, pack: WirePack):
    """The Flt a pack always encodes, or None if any wire is live."""
    bits = [b.const_value(w) for w in pack.wires]
    if None in bits:
        return None
    return S.decode_flt(bits, pack.p_width, pack.e_width)


def _dnf_wires(b: Builder, in_wires, rows) -> list[int]:
    """Truth table over existing wires as two-level AND/OR."""
    outs, minterms = [], {}
    for t in range(len(rows[0])):
        terms = []
        for m, row in enumerate(rows):
            if row[t]:
                if m not in minterms:  # built on first use: same gate order
                    minterms[m] = b.and_(*[
                        w if (m >> i) & 1 else b.not_(w)
                        for i, w in enumerate(in_wires)])
                terms.append(minterms[m])
        outs.append(b.or_(*terms))
    return outs


class _Wires:
    """The circuit arithmetic: Domain's protocol (see machine.Domain)
    over WirePacks on the builder b, one gadget per op, with the role
    widths and expression tables of one compile."""

    def __init__(self, b: Builder):
        self.b = b
        self.roles: dict = {}  # role name -> (p bits, exponent bound)
        self._tables: dict = {}  # _expr_auto key -> table rows or None

    def const(self, num: int, den: int) -> WirePack:
        return S.f_const(self.b, DOMAIN_F.from_pair(num, den))

    def add(self, x: WirePack, y: WirePack) -> WirePack:
        return S.f_add(self.b, x, y)

    def mul(self, x: WirePack, y: WirePack) -> WirePack:
        b = self.b
        cy = _pack_const(b, y)
        if cy is not None:
            return S.f_mul_const(b, x, cy)
        cx = _pack_const(b, x)
        if cx is not None:
            return S.f_mul_const(b, y, cx)
        return S.f_mul(b, x, y)

    def div(self, x: WirePack, y: WirePack) -> WirePack:
        dc = _pack_const(self.b, y)
        if dc is None:
            raise CompileError(
                "division compiles only for compile-time constant "
                "divisors (the tie-count division is internal)")
        if dc.is_zero():
            raise MachineError("division by zero")
        return S.f_div_const(self.b, x, dc)

    def sqrt(self, x: WirePack) -> WirePack:
        """Square root as a truth table over the numerator/exponent
        wires; refuses packs wider than the lookup cap."""
        b = self.b
        wires = list(x.p) + list(x.e)
        live = [w for w in wires if b.const_value(w) is None]
        if len(live) > SQRT_LOOKUP_BITS:
            raise CompileError(
                f"sqrt operand has {len(live)} live bits, over the "
                f"lookup cap {SQRT_LOOKUP_BITS}; not compilable")
        results = []
        for m in range(1 << len(live)):
            asn = {w: (m >> t) & 1 for t, w in enumerate(live)}
            bits = [asn.get(w, b.const_value(w)) for w in wires]
            pv = S.decode_uint(bits[:len(x.p)])
            ev = min(S.decode_uint(bits[len(x.p):]), x.e_max)
            results.append(flt_sqrt(Flt.make(pv, ev)))
        p_w = max(max((len(r.p) for r in results), default=0), 1)
        e_mx = max(r.e for r in results)
        e_w = clog2(e_mx + 1)
        rows = [tuple(S.encode_flt(r, p_w, e_w)[1:]) for r in results]
        outs = _dnf_wires(b, live, rows)
        return S.float_pack(b.const(1), outs[:p_w], outs[p_w:], e_mx,
                            canonical=True)

    def neg(self, x: WirePack) -> WirePack:
        return S.f_neg(self.b, x)

    def relu(self, x: WirePack) -> WirePack:
        return S.f_relu(self.b, x)

    def gt(self, x: WirePack, y: WirePack) -> WirePack:
        return S.f_from_bit(self.b, S.f_gt(self.b, x, y))

    def eq(self, x: WirePack, y: WirePack) -> WirePack:
        return S.f_from_bit(self.b, S.f_eq(self.b, x, y))

    def select(self, c: WirePack, then: Callable, other: Callable):
        """Both branches, merged under c != 0: any nonzero condition
        reads as 1, where the machine refuses one other than 0 or 1."""
        cw = S.f_nonzero(self.b, c)
        x, y = then(), other()
        if isinstance(x, tuple) or isinstance(y, tuple):
            if not (isinstance(x, tuple) and isinstance(y, tuple)
                    and len(x) == len(y)):
                raise MachineError("select branches must have the same shape")
            return tuple(S.f_select(self.b, cw, xa, ya)
                         for xa, ya in zip(x, y))
        return S.f_select(self.b, cw, x, y)

    def affine(self, coeffs, bias, xs) -> WirePack:
        terms = [self.const(*bias)]
        for cf, x in zip(coeffs, xs):
            c = DOMAIN_F.from_pair(*cf)
            if not c.is_zero():
                terms.append(S.f_mul_const(self.b, x, c))
        return S.f_sum_tree(self.b, terms)

    def role(self, name: str, x: WirePack) -> WirePack:
        _widen(self.roles, name, x.p_width, x.e_max)
        return x

    def attend(self, kind: AttentionKind, row: Callable, cols) -> tuple:
        """(scores, maximizer flags, head output) at one query position;
        a uniform head builds no scores."""
        b = self.b
        if kind is AttentionKind.UNIFORM:
            return None, None, tuple(
                S.f_div_const(b, S.f_sum(b, col), flt(len(col)))
                for col in cols)
        scores = row()
        flags = S.f_maximizers(b, scores)
        if kind is AttentionKind.HARD:
            hots = S.first_hot(b, flags)
            return scores, flags, tuple(S.f_onehot(b, hots, col)
                                        for col in cols)
        counts = S._exact_count(b, flags)  # |M| one-hot over 0..n
        outs = []
        for col in cols:
            gated = [S.f_gate(b, x, g, x.sign) for g, x in zip(flags, col)]
            outs.append(S.f_div_by_indicators(b, S.f_sum(b, gated), counts))
        return scores, flags, tuple(outs)

    # whole-expression tables ------------------------------------------

    def _expr_auto(self, e: FuncExpr, args):
        """Structural by default; whole-expression truth table when all
        live input wires fit the lookup budget (cross-checked). The table
        is tabulated and keyed over only the wires the expression reads,
        then expanded to every live wire."""
        b = self.b
        live = list(dict.fromkeys(_live_uses(b, args)))
        ref = eval_expr(e, args, self)  # always built: gate order
        if not (1 <= len(live) <= EXPR_LOOKUP_BITS) or e.op == "arg":
            return ref
        view = _read_view(args, _read_paths(e, set()))
        uses = _live_uses(b, view)
        read = list(dict.fromkeys(uses))
        index = {w: t for t, w in enumerate(read)}  # its bit in the table
        alias = tuple(index[w] for w in uses)  # i = j vs i != j, etc.

        def sig(pk):  # a pack's shape and constant bits
            return (pk.p_width, pk.e_width, pk.e_max,
                    tuple(map(b.const_value, pk.wires)))

        key = (e, _map_packs(view, sig), alias, _map_packs(ref, sig))
        if key not in self._tables:
            rows = self._table_rows(e, args, ref, read)
            if rows is not None:
                self._cross_check(e, args, ref, read, rows)
            self._tables[key] = rows
        rows = self._tables[key]
        if rows is None:
            return ref
        sel = [0]  # sel[m]: the table row for live assignment m
        for w in live:
            bit = 1 << index[w] if w in index else 0
            sel += [s | bit for s in sel]
        outs = _dnf_wires(b, live, [rows[s] for s in sel])
        return _split(outs, ref, lambda ws, r: replace(
            r, wires=tuple(ws), canonical=True))

    def _table_rows(self, e, args, ref, read):
        """One row per assignment of the read live wires; every other
        live wire is tied to 0, which the expression never sees. Only F
        with no hosts compiles, so the rows are DOMAIN_F's values."""
        b = self.b
        consts = [(w, b.const_value(w)) for pk in _packs(args)
                  for w in pk.wires]
        rows = []
        for m in range(1 << len(read)):
            asn = {w: (m >> t) & 1 for t, w in enumerate(read)}
            try:
                vals = _split([asn.get(w, 0) if v is None else v
                               for w, v in consts], args)
                out = eval_expr(e, vals, DOMAIN_F)
                rows.append(_encode_result(out, ref))
            except (MachineError, SynthError):
                return None  # not tabulable; keep the structural form
        return rows

    def _cross_check(self, e, args, ref, read, rows):
        main_b = self.b
        b2 = Builder(len(read))
        wmap = {w: b2.input(t) for t, w in enumerate(read)}
        zero = b2.const(0)  # every unread live wire

        def clone(pack):
            ws = []
            for w in pack.wires:
                cv = main_b.const_value(w)
                ws.append(wmap.get(w, zero) if cv is None else b2.const(cv))
            return replace(pack, wires=tuple(ws))

        ref2 = eval_expr(e, _map_packs(args, clone), _Wires(b2))
        outs2 = [w for pk in _packs(ref2) for w in pk.wires]
        c2 = b2.build(outs2)
        xs = [[(m >> t) & 1 for t in range(len(read))]
              for m in range(len(rows))]
        for m, (got_bits, row) in enumerate(zip(eval_batch(c2, xs), rows)):
            if _split(got_bits, ref2) != _split(row, ref):
                raise CompileError(
                    f"structural/lookup cross-check failed for {e.op!r} "
                    f"on assignment {m}")


# ---------------------------------------------------------------------------
# lookup-table plumbing


def _live_uses(b: Builder, val) -> list[int]:
    """The non-constant wires of a value, one entry per use."""
    return [w for pk in _packs(val) for w in pk.wires
            if b.const_value(w) is None]


def _read_paths(e: FuncExpr, out: set) -> set:
    """Argument paths the expression can read: an arg/proj chain reads
    the component it names (all of it), every other op what its
    operands read."""
    path, node = (), e
    while node.op == "proj":
        path, node = (node.data,) + path, node.args[0]
    if node.op == "arg":
        out.add((node.data,) + path)
    else:
        for a in e.args:
            _read_paths(a, out)
    return out


def _read_view(val, paths, at=()):
    """``val`` with every component no read path reaches replaced by
    None. A component is kept whole once a path ends at or above it."""
    if any(at[:len(p)] == p for p in paths):
        return val
    if not any(p[:len(at)] == at for p in paths):
        return None
    if not isinstance(val, tuple):
        return val
    return tuple(_read_view(v, paths, at + (k,)) for k, v in enumerate(val))


def _map_packs(val, fn):
    """val with each pack replaced by fn(pack), nested tuples kept and
    None, a component the expression never reads, left None."""
    if isinstance(val, tuple):
        return tuple(_map_packs(v, fn) for v in val)
    return None if val is None else fn(val)


def _encode_result(val, ref) -> tuple:
    """The bits of the machine's value val in the layout of ref, the
    structural value of the same expression."""
    if isinstance(ref, tuple):
        if not isinstance(val, tuple) or len(val) != len(ref):
            raise SynthError("result shape mismatch")
        return tuple(itertools.chain.from_iterable(
            map(_encode_result, val, ref)))
    if isinstance(val, tuple):
        raise SynthError("result shape mismatch")
    if val.e > ref.e_max:
        raise SynthError("exponent exceeds the static bound")
    return tuple(S.encode_flt(val, ref.p_width, ref.e_width))


def _split(flat, ref, make=None):
    """Cut flat into one chunk per pack of ref, in order, and rebuild
    ref's shape from make(chunk, pack), by default the Flt that the
    chunk's bits encode in the pack's layout."""
    chunks = iter(flat)
    make = make or (lambda c, r: S.decode_flt(c, r.p_width, r.e_width))
    return _map_packs(ref, lambda r: make(
        list(itertools.islice(chunks, 1 + r.p_width + r.e_width)), r))


# ---------------------------------------------------------------------------
# entry points


def _build(spec: TransformerSpec, n: int,
           include_values: bool) -> tuple[Circuit, dict]:
    """machine.forward over _Wires: the circuit and the role widths the
    walk recorded."""
    nsym = len(spec.alphabet)
    b = Builder(n * nsym)
    wires = _Wires(b)
    labels = {}

    def onehot(i):
        hot = []
        for a in range(nsym):
            wire = b.input(i * nsym + a)
            labels[wire] = f"w{i + 1}={spec.alphabet[a]}"
            hot.append(S.f_from_bit(b, wire))
        return tuple(hot)

    cls, (values, _, _, _) = forward(
        spec, (None,) * n, wires, wires._expr_auto, onehot)
    accept = b.and_(cls.sign, S.f_nonzero(b, cls))
    outputs = [accept]
    labels[accept] = "accept"
    if include_values:
        for i in range(n):
            for c, comp in enumerate(values[-1][i]):
                pk = S.f_canon(b, comp)
                S._emit_float(outputs, labels, pk, f"v{i + 1}[{c}]")
    return b.build(outputs, labels), wires.roles


def compile_planned(spec: TransformerSpec, n: int, *,
                    include_values: bool = False) -> tuple[Circuit, dict]:
    """The one build behind every entry point: the circuit and the
    (p bits, exponent bound) it recorded per value role. Every role the
    sample traces reach must fit under its recorded width, and a spec
    whose heads are all hard must come out threshold-free."""
    _check_compilable(spec)
    if n < 1:
        raise CompileError("need n >= 1")
    try:
        c, roles = _build(spec, n, include_values)
    except MachineError as exc:  # an ill-formed expression, as run says it
        raise CompileError(str(exc)) from exc
    if {h.attention for l in spec.layers for h in l.heads} == {
            AttentionKind.HARD}:
        theta = metrics(c).theta_count
        if theta:
            raise CompileError(
                f"hard compilation emitted {theta} threshold gates")
    for role, need in _Measure(spec, default_samples(spec, n)).roles.items():
        have = roles[role]
        if have[0] < need[0] or have[1] < need[1]:
            raise CompileError(
                f"analytic width for {role} is p{have[0]}/e{have[1]} but a "
                f"sample trace reached p{need[0]}/e{need[1]}")
    return c, roles


def compile_saturated(spec: TransformerSpec, n: int) -> Circuit:
    """Compile for saturated/uniform (and mux-style hard) attention."""
    return compile_planned(spec, n)[0]


def compile_hard(spec: TransformerSpec, n: int) -> Circuit:
    """All-hard compilation; the result must be threshold-free."""
    for layer in spec.layers:
        for head in layer.heads:
            if head.attention is not AttentionKind.HARD:
                raise CompileError("compile_hard wants hard heads only; "
                                   f"found {head.attention.value}")
    return compile_planned(spec, n)[0]


# ---------------------------------------------------------------------------
# machine equivalence


@dataclass(frozen=True)
class EquivRow:
    n: int
    mode: str
    tested: int
    mismatches: int
    first_counterexample: str = None


@dataclass(frozen=True)
class EquivReport:
    rows: tuple[EquivRow, ...]

    @property
    def ok(self) -> bool:
        return all(r.mismatches == 0 for r in self.rows)


def _check_batch(spec, n, mode, samples):
    """Refuse a word batch _word_batch could not make."""
    if n < 1:
        raise CompileError("need n >= 1")
    if mode == "exhaustive":
        # 2^21 words are already too many: never compute |alphabet|^n whole
        if len(spec.alphabet) ** min(n, 21) > 1 << 20:
            raise CompileError(f"exhaustive verification over "
                               f"{len(spec.alphabet)}^{n} words is too large")
    elif mode == "random":
        if samples < 1:
            raise CompileError(f"samples must be at least 1 in random "
                               f"mode, got {samples}")
        if samples > 1 << 20:
            raise CompileError(f"random verification of {samples} words "
                               f"is too large (at most 2^20)")
    else:
        raise CompileError(f"unknown verification mode {mode!r}")


def _word_batch(spec, n, mode, samples, seed):
    if mode == "exhaustive":
        return ["".join(t) for t in
                itertools.product(spec.alphabet, repeat=n)]
    rng = random.Random(f"{seed}:{n}")
    return ["".join(rng.choice(spec.alphabet) for _ in range(n))
            for _ in range(samples)]


MIN_CHUNK = 64  # words per chunk; smaller batches are not worth a fork
CHUNKS_PER_WORKER = 8  # so the parent reads verdicts as they come
EVAL_BLOCK = 4096  # words per circuit evaluation, which bounds its memory


def _machine_chunk(spec, words, bounds) -> list:
    lo, hi = bounds
    with shared_tables(spec):
        return [recognize(spec, w) for w in words[lo:hi]]


def check_circuit(spec: TransformerSpec, circuit, words: Sequence[str]):
    """(mismatches, first counterexample) of the accept bit of the
    Circuit that circuit() returns against the machine on words, in word
    order.

    The machine's verdicts come from workers.forked_map, which calls the
    module-level recognize on contiguous chunks of words, each chunk in
    one machine.shared_tables scope; spec and words are inherited, never
    pickled. Calling circuit (the compile) is the parent's own work, so
    the parent counts as one CPU: it compiles while at most CPUs - 1
    forked workers judge chunks, then judges the chunks still waiting
    itself. The circuit runs on blocks of EVAL_BLOCK words, each encoded
    as column masks (encode_words); the XOR of its accept mask with the
    block's verdict mask has one bit per mismatch, and the lowest is the
    first counterexample. Where no workers start, the same chunks run
    in-process after the circuit. Either way the result does not depend
    on the chunking or the CPU count: a circuit error wins over a
    machine error, and a machine error is the one from the first
    failing word. No worker outlives the call.
    """
    size = max(MIN_CHUNK, -(-len(words) // (workers._cpu_count()
                                             * CHUNKS_PER_WORKER)))
    bounds = [(lo, min(lo + size, len(words)))
              for lo in range(0, len(words), size)]
    with workers.forked_map(lambda b: _machine_chunk(spec, words, b),
                            bounds, own=circuit) as (c, chunks):
        verdicts = itertools.chain.from_iterable(chunks)
        bad, first = 0, None
        for lo in range(0, len(words), EVAL_BLOCK):
            block = words[lo:lo + EVAL_BLOCK]
            got = _eval_masks(c, encode_words(spec, block), len(block))[0]
            want = "".join("01"[bool(v)] for v in
                           itertools.islice(verdicts, len(block)))
            if len(want) != len(block):
                raise ValueError(f"{len(want)} machine verdicts for "
                                 f"{len(block)} words")
            diff = got ^ int(want[::-1], 2)
            bad += diff.bit_count()
            if diff and first is None:
                first = block[(diff & -diff).bit_length() - 1]
        return bad, first


def verify_equivalence(spec: TransformerSpec, ns: Sequence[int],
                       mode: str = "exhaustive", samples: int = 1000,
                       seed: int = 0, compile_fn: Callable = None
                       ) -> EquivReport:
    """Compare the compiled circuit's accept bit against the machine on
    every word in the batch, compiling each n while the machine runs
    (check_circuit); reports per-n counts and the first counterexample
    if any. Every n is checked before the first compile.
    compile_fn(spec, n) defaults to compile_saturated."""
    if not ns:
        raise CompileError("need at least one n to verify")
    for n in ns:
        _check_batch(spec, n, mode, samples)
    builder = compile_fn or compile_saturated
    rows = []
    for n in ns:
        words = _word_batch(spec, n, mode, samples, seed)
        bad, first = check_circuit(spec, lambda: builder(spec, n), words)
        rows.append(EquivRow(n, mode, len(words), bad, first))
    return EquivReport(tuple(rows))
