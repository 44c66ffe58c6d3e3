"""Compiled circuits against the machine, word for word.

Everything here leans on one oracle: recognize() is already trusted
(its own suite checks it against plain python predicates), so circuit
correctness means agreeing with it on every tested word.
"""

import contextlib
import dataclasses
import gc
import hashlib
import itertools
import os
import random
import re
import signal
import subprocess
import sys
import time
import types
import weakref
from pathlib import Path

import pytest

from satcirc import compile as C
from satcirc import synth as S
from satcirc import workers as W
from satcirc.builtins import (build_hard_demo, build_majority,
                              build_majority_layernorm,
                              build_prime_universal,
                              build_resource_bounded, builtin_spec)
from satcirc.circuit import (_eval_masks, eval_batch, family_analyze,
                             metrics, to_json)
from satcirc.cli import main as cli_main
from satcirc.compile import (CompileError, _Measure, _Wires, _read_view,
                             compile_hard, compile_planned,
                             compile_saturated, default_samples,
                             encode_word, verify_equivalence)
from satcirc.machine import (Add, Arg, AttentionKind, Const, Div, Eq,
                             HeadSpec, LayerSpec, MachineError, Mul, Proj,
                             Select, Sqrt, TransformerSpec, Tup, _read_paths,
                             eval_expr, instrument_sizes, load_spec,
                             parse_spec, recognize, run)
from test_builtins import TRACE_WORDS, trace_sha256


def all_words(spec, n):
    return ["".join(t) for t in itertools.product(spec.alphabet, repeat=n)]


def assert_matches_machine(spec, circ, words):
    got = eval_batch(circ, [encode_word(spec, w) for w in words])
    for w, out in zip(words, got):
        assert bool(out[0]) == recognize(spec, w), w


MAJ = build_majority("F")


def two_layer_spec():
    """Saturated scoring on first-layer outputs, so layer-2 tie sets
    genuinely depend on the input."""
    embed = Tup(Proj(1, Arg(0)), Const(0))
    l0 = LayerSpec((HeadSpec(AttentionKind.SATURATED, Const(1)),),
                   Tup(Proj(0, Arg(1)), Proj(0, Arg(0))))
    l1 = LayerSpec((HeadSpec(AttentionKind.SATURATED, Proj(1, Arg(1))),),
                   Tup(Add(Proj(0, Arg(1)), Proj(1, Arg(1))), Const(0)))
    return TransformerSpec(("a", "b"), "F", 2, embed, (l0, l1),
                           ((1, 1), (0, 1)), (-3, 2), name="two-layer")


def uniform_spec():
    embed = Tup(Proj(1, Arg(0)), Const(0))
    layer = LayerSpec((HeadSpec(AttentionKind.UNIFORM, Const(1)),),
                      Tup(Proj(0, Arg(1)), Const(0)))
    return TransformerSpec(("a", "b"), "F", 2, embed, (layer,),
                           ((1, 1), (0, 1)), (-1, 2), name="uniform-mean")


def sqrt_spec():
    """Values 1 or 4 at embedding; the activation square-roots them, so
    the lookup-table sqrt path gets exercised end to end."""
    embed = Tup(Select(Proj(1, Arg(0)), Const(4), Const(1)), Const(0))
    layer = LayerSpec((HeadSpec(AttentionKind.SATURATED, Const(1)),),
                      Tup(Sqrt(Proj(0, Arg(0))), Const(0)))
    return TransformerSpec(("a", "b"), "F", 2, embed, (layer,),
                           ((1, 1), (0, 1)), (-3, 2), name="sqrt-gate")


# ---------------------------------------------------------------------------
# bit-exactness


def test_majority_exhaustive_small_n():
    for n in range(1, 6):
        c = compile_saturated(MAJ, n)
        assert_matches_machine(MAJ, c, all_words(MAJ, n))


def test_majority_depth_is_n_independent():
    depths = {n: metrics(compile_saturated(MAJ, n)).depth
              for n in (4, 8, 16)}
    assert len(set(depths.values())) == 1, depths


def test_majority_spends_threshold_gates():
    assert metrics(compile_saturated(MAJ, 8)).theta_count > 0


def test_two_layer_exhaustive():
    spec = two_layer_spec()
    for n in (2, 4, 5):
        c = compile_saturated(spec, n)
        assert_matches_machine(spec, c, all_words(spec, n))


def test_uniform_head_exhaustive():
    spec = uniform_spec()
    for n in (1, 3, 4, 6):
        c = compile_saturated(spec, n)
        assert_matches_machine(spec, c, all_words(spec, n))


def test_sqrt_lookup_exhaustive():
    spec = sqrt_spec()
    for n in (2, 4):
        c = compile_saturated(spec, n)
        assert_matches_machine(spec, c, all_words(spec, n))


def test_hard_demo_theta_free_and_exact():
    spec = build_hard_demo()
    for n in (2, 4, 6, 8):
        c = compile_hard(spec, n)
        assert metrics(c).theta_count == 0
        assert_matches_machine(spec, c, all_words(spec, n))


def test_compile_hard_wants_hard_heads():
    with pytest.raises(CompileError, match="hard heads only"):
        compile_hard(MAJ, 4)


def test_final_values_emitted_and_correct():
    # eq-scorer's head with an activation that keeps the pooled pair: a
    # position's M is the positions holding its token, so the final
    # values, and the packs that carry them, differ by position
    spec = eq_scorer_spec()
    layer = LayerSpec(spec.layers[0].heads,
                      Tup(Proj(0, Arg(1)), Proj(1, Arg(1))))
    spec = dataclasses.replace(spec, layers=(layer,))
    w = "0110"
    c, _ = compile_planned(spec, 4, include_values=True)
    out = eval_batch(c, [encode_word(spec, w)])[0]
    by_label = {c.labels[o]: bit for o, bit in zip(c.outputs, out)
                if o in c.labels}
    t = run(spec, w)
    assert len({t.values[-1][i] for i in range(4)}) == 2
    checked = set()
    for i in range(4):
        for k, v in enumerate(t.values[-1][i]):
            prefix = f"v{i + 1}[{k}]"
            for lab, bit in by_label.items():
                if not lab.startswith(prefix + "."):
                    continue
                part = lab[len(prefix) + 1:]
                if part == "sign":
                    want = 0 if v.signed_num < 0 else 1
                else:
                    t_idx = int(part[1:])
                    src = v.p.value if part[0] == "p" else v.e
                    want = (src >> t_idx) & 1
                assert bit == want, lab
                checked.add((i, k))
    assert checked == {(i, k) for i in range(4) for k in range(2)}


# ---------------------------------------------------------------------------
# key-free saturated heads pool as uniform


def test_a_key_free_saturated_head_is_uniform_in_both_walks():
    """Its scores tie along every row, so M is every position: run keeps
    the scores and ties, and the pooled values are uniform's."""
    spec = load_spec(str(SPEC_FILE))  # (head saturated (const 0))
    head = spec.layers[0].heads[0]
    assert head.attention is AttentionKind.SATURATED
    assert head.pooling is AttentionKind.UNIFORM
    uniform = dataclasses.replace(spec, layers=(LayerSpec(
        (HeadSpec(AttentionKind.UNIFORM, head.scorer),),
        spec.layers[0].activation),))
    for w in ("0110", "111", "0"):
        t = run(spec, w)
        assert t.ties[0][0] == (tuple(range(len(w))),) * len(w)
        assert t.values == run(uniform, w).values
    for n in (1, 4):
        assert compile_planned(spec, n) == compile_planned(uniform, n)


def test_only_a_key_reading_saturated_head_builds_the_argmax(monkeypatch):
    """maj and maj_f pool as uniform and build neither the maximizer
    flags nor the 1/|M| divider; the shipped key-reading spec builds
    both, once per query position."""
    calls = []
    for name in ("f_maximizers", "f_div_by_indicators"):
        monkeypatch.setattr(S, name, lambda *a, real=getattr(S, name),
                            name=name: calls.append(name) or real(*a))
    for spec in (MAJ, load_spec(str(SPEC_FILE))):
        compile_planned(spec, 4)
    assert calls == []
    compile_planned(load_spec(str(AB_FILE)), 4)
    # one maximizer set per query, one divider per pooled component
    assert sorted(calls) == ["f_div_by_indicators"] * 8 + ["f_maximizers"] * 4


def test_the_key_reading_spec_decides_its_predicate():
    """specs/more_a_than_b.sexp is #a > #b on every word of up to 8
    tokens, in the machine and in its circuit. The 1/|M| weight F rounds
    is shared by both pooled components, so it cannot flip a verdict."""
    spec = load_spec(str(AB_FILE))
    ns = range(1, 9)
    for n in ns:
        for w in all_words(spec, n):
            assert recognize(spec, w) == (w.count("a") > w.count("b")), w
    rep = verify_equivalence(spec, ns)
    assert rep.ok and [r.tested for r in rep.rows] == [3 ** n for n in ns]


# ---------------------------------------------------------------------------
# refusals


def test_rational_specs_are_refused():
    with pytest.raises(CompileError, match="F datatype"):
        compile_saturated(build_majority("Q"), 4)


def test_host_primitives_are_refused():
    spec = build_resource_bounded(lambda w: w.endswith("1"), "F")
    with pytest.raises(CompileError, match="pow2/host"):
        compile_saturated(spec, 4)
    with pytest.raises(CompileError):
        compile_saturated(build_prime_universal(lambda w: True), 4)


def test_wide_sqrt_is_refused():
    for compile_fn in (compile_saturated, compile_planned):
        with pytest.raises(CompileError, match="lookup cap"):
            compile_fn(build_majority_layernorm(), 4)



# a square root of a constant reads no live wire, so its table has the
# one row the constant takes; (head 1 2) averages sqrt(9/4) = 3/2
SQRT_CONST_TEXT = """
(transformer
  (name sqrt-const)
  (alphabet 0 1)
  (datatype F)
  (width 2)
  (embedding (tup (tok 2) (sqrt 9/4)))
  (layer
    (head saturated (sqrt (const 0)))
    (activation (tup (head 1 1) (head 1 2))))
  (classifier (w 2 -1) (b 0)))
"""

# sha256 of (to_json(c, indent=2), repr(sorted(width plan))) of
# compile_planned(spec, n, include_values)
SQRT_CONST_SHA256 = {
    (1, False): (
        "1303b049dd016f6b673e371fec89606fbb609a1037587a11780fd9173614b392",
        "990646573b483c572252b87517fffd4b75a640ae2c4de3f150b3acc8fadf2885"),
    (1, True): (
        "d699ed7c549b944921cd4e4e21aaf56213520f5e92ddbb5a586f8501cebfdb54",
        "990646573b483c572252b87517fffd4b75a640ae2c4de3f150b3acc8fadf2885"),
    (2, False): (
        "e29d2b772f6e60f6b5bed64b3823ce7ce719ec7e267c2c8b0080f9a0281dc0d0",
        "71ebdc58f535c18b274e68bb3aa07a4b8b5e2aaef9d2623ed01529f2822277dd"),
    (2, True): (
        "6cd1253dd05a9a6aa21233aacac1758729abf5c507a839bb2bffacdf5e525bae",
        "71ebdc58f535c18b274e68bb3aa07a4b8b5e2aaef9d2623ed01529f2822277dd"),
    (3, False): (
        "ab7b353d20cfe2a1a4f5a1ee473a1dbc8ad5e1219406148925dc27358f6601d0",
        "24c3bdfbeddf19762fd70a5d20b16886c71153b05898916d61e757d8a4755799"),
    (3, True): (
        "4cc59fb9feebd301a8dd0698fb421aa03295550cf4f2b7f9695eef5caac89f29",
        "24c3bdfbeddf19762fd70a5d20b16886c71153b05898916d61e757d8a4755799"),
    (4, False): (
        "4df4dfcb8075b5af6876349ddf35e99d5ae261eb557478beba1b6f6dcb15abe9",
        "dfa5e190e315c8a8357a53b8ce156880410d7a901346ce0048c1ed027d3336d0"),
    (4, True): (
        "37294358dac6ac7579ebb4553e89ef2ff384c7f7013a3f68e1d0ccba844c09a2",
        "dfa5e190e315c8a8357a53b8ce156880410d7a901346ce0048c1ed027d3336d0"),
}


@pytest.mark.parametrize("n,values", sorted(SQRT_CONST_SHA256))
def test_constant_sqrt_operands_are_pinned(n, values):
    spec = parse_spec(SQRT_CONST_TEXT)
    c, roles = compile_planned(spec, n, include_values=values)
    got = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                (to_json(c, indent=2), repr(sorted(roles.items()))))
    assert got == SQRT_CONST_SHA256[n, values]
    assert_matches_machine(spec, c, all_words(spec, n))


def test_division_by_live_value_is_refused():
    embed = Tup(Div(Const(1), Select(Proj(0, Arg(0)), Const(1), Const(2))),
                Const(0))
    layer = LayerSpec((HeadSpec(AttentionKind.SATURATED, Const(1)),),
                      Tup(Proj(0, Arg(1)), Const(0)))
    spec = TransformerSpec(("a", "b"), "F", 2, embed, (layer,),
                           ((1, 1), (0, 1)), (-1, 2), name="bad-div")
    with pytest.raises(CompileError, match="constant divisors"):
        compile_saturated(spec, 3)


def _corrupting(monkeypatch, which):
    """Flip every bit of row 0 of each table whose call matches."""
    real = _Wires._table_rows

    def corrupt(self, e, args, ref, read):
        rows = real(self, e, args, ref, read)
        if which(e, args) and rows:
            rows[0] = tuple(1 - bit for bit in rows[0])
        return rows

    monkeypatch.setattr(_Wires, "_table_rows", corrupt)


def _counting(monkeypatch):
    calls = []
    real = _Wires._table_rows

    def counted(self, e, args, ref, read):
        calls.append((e, args[0] is args[1], len(read)))
        return real(self, e, args, ref, read)

    monkeypatch.setattr(_Wires, "_table_rows", counted)
    return calls


def eq_scorer_spec():
    """maj with a scorer that reads both positions' token bits."""
    head = HeadSpec(AttentionKind.SATURATED,
                    Eq(Proj(0, Arg(0)), Proj(0, Arg(1))))
    layer = LayerSpec((head,), MAJ.layers[0].activation)
    return dataclasses.replace(MAJ, layers=(layer,), name="eq-scorer")


def test_a_scorer_reading_both_positions_gets_one_table_per_alias(
        monkeypatch):
    """i = j reads one token wire twice and i != j reads two, so the
    tables differ: each is built and cross-checked."""
    spec = eq_scorer_spec()
    scorer = spec.layers[0].heads[0].scorer
    calls = _counting(monkeypatch)
    c = compile_saturated(spec, 4)
    got = sorted((same, r) for e, same, r in calls if e is scorer)
    assert [same for same, r in got] == [False, True]
    assert got[0][1] == 2 * got[1][1]  # i != j reads both token packs
    assert_matches_machine(spec, c, all_words(spec, 4))


def query_hard_spec():
    """hard-demo whose hard head scores 3 times the query's token bit:
    a scorer that reads no key is still compiled for a hard head, and
    it reads one wire, so all n^2 calls share one table."""
    spec = build_hard_demo()
    layer = LayerSpec((HeadSpec(AttentionKind.HARD,
                                Mul(Proj(0, Arg(0)), Const(3))),),
                      spec.layers[0].activation)
    return dataclasses.replace(spec, layers=(layer,), name="query-hard")


def test_every_scorer_alias_pattern_is_cross_checked(monkeypatch):
    """A wrong row is caught in the table a compiled key-free scorer
    gets (all n^2 calls share one) and in either alias table of a
    scorer that reads both positions."""
    hard = query_hard_spec()
    query_scorer = hard.layers[0].heads[0].scorer
    spec = eq_scorer_spec()
    eq_scorer = spec.layers[0].heads[0].scorer
    cases = [(hard, lambda e, args: e is query_scorer)] + [
        (spec, lambda e, args, aliased=aliased:
            e is eq_scorer and (args[0] is args[1]) == aliased)
        for aliased in (True, False)]
    for case_spec, which in cases:
        with monkeypatch.context() as mp:
            _corrupting(mp, which)
            with pytest.raises(CompileError, match="cross-check failed"):
                compile_saturated(case_spec, 6)


@pytest.mark.parametrize("builtin,n,tables", [("hard-demo", 16, 18),
                                              ("maj", 16, 1)])
def test_table_count_is_pinned(monkeypatch, builtin, n, tables):
    """One table per distinct read key: hard-demo's embedding reads the
    position constant (n tables), its scorer and activation one each;
    maj's head pools as uniform and compiles no scorer, and only its
    embedding fits the lookup budget."""
    calls = _counting(monkeypatch)
    compile_planned(builtin_spec(builtin), n)
    assert len(calls) == tables


def test_read_paths_follow_proj_chains_only():
    assert _read_paths(Const(1), set()) == set()
    assert _read_paths(Proj(1, Proj(0, Arg(1))), set()) == {(1, 0, 1)}
    assert _read_paths(Eq(Proj(0, Arg(0)), Arg(1)), set()) == {(0, 0), (1,)}
    # proj of anything but a chain reads what its operand reads
    assert _read_paths(Proj(0, Tup(Arg(0), Proj(2, Arg(1)))), set()) == {
        (0,), (1, 2)}
    assert _read_paths(Proj(0, Select(Arg(0), Arg(1), Arg(1))), set()) == {
        (0,), (1,)}


def test_read_view_hides_only_unreachable_components():
    args = (("a0", "a1"), ("b0", ("b10", "b11")))
    assert _read_view(args, set()) is None
    assert _read_view(args, {(1,)}) == (None, args[1])
    assert _read_view(args, {(1, 1, 0), (0, 1)}) == (
        (None, "a1"), (None, ("b10", None)))
    assert _read_view(args, {(1, 1), (1, 1, 0)}) == (None, (None, args[1][1]))


def _full_table(spec, e, args, const_value, ref):
    """Tabulate e over every live wire of args, independently of the
    compiler's read set: (live wires, one row per assignment, None where
    an argument's exponent bits spell more than its e_max)."""
    live = list(dict.fromkeys(w for pk in C._packs(args) for w in pk.wires
                              if const_value(w) is None))
    rows = []
    for m in range(1 << len(live)):
        bit = {w: (m >> t) & 1 for t, w in enumerate(live)}

        def bits(v):
            return [bit[w] if const_value(w) is None else const_value(w)
                    for w in v.wires]

        def dec(v):
            if isinstance(v, tuple):
                return tuple(dec(x) for x in v)
            return S.decode_flt(bits(v), v.p_width, v.e_width)

        if any(S.decode_uint(bits(v)[1 + v.p_width:]) > v.e_max
               for v in C._packs(args)):
            rows.append(None)
            continue
        row = []

        def enc(v, r):
            if isinstance(r, tuple):
                assert isinstance(v, tuple) and len(v) == len(r)
                for vv, rr in zip(v, r):
                    enc(vv, rr)
            else:
                assert v.e <= r.e_max
                row.extend(S.encode_flt(v, r.p_width, r.e_width))

        enc(eval_expr(e, dec(args), spec.domain, spec.hosts), ref)
        rows.append(tuple(row))
    return live, rows


def _built_tables(monkeypatch):
    """Every table the compiler tabulates, kept or not: (e, args,
    const_value, read wires, rows, structural value)."""
    seen = []
    real = _Wires._table_rows

    def rows_of(self, e, args, ref, read):
        rows = real(self, e, args, ref, read)
        if rows is not None:
            seen.append((e, args, self.b.const_value, list(read), rows, ref))
        return rows

    monkeypatch.setattr(_Wires, "_table_rows", rows_of)
    return seen


def pos_eq_spec():
    """The embedding compares token + 1 with the position constant: the
    same live wires and result shape at every position, but a different
    table at positions 1 and 2, so the read constants must be keyed."""
    embed = Tup(Eq(Add(Proj(1, Arg(0)), Const(1)), Arg(1)), Const(0))
    layer = LayerSpec((HeadSpec(AttentionKind.UNIFORM, Const(1)),),
                      Tup(Proj(0, Arg(1)), Const(0)))
    return TransformerSpec(("a", "b"), "F", 2, embed, (layer,),
                           ((1, 1), (0, 1)), (-1, 4), name="pos-eq")


def test_read_constants_are_keyed():
    spec = pos_eq_spec()
    for n in (1, 2, 3, 4):
        assert_matches_machine(spec, compile_saturated(spec, n),
                               all_words(spec, n))


SPEC_FILE = Path(__file__).resolve().parents[1] / "specs" / "maj_f.sexp"
AB_FILE = SPEC_FILE.with_name("more_a_than_b.sexp")
TABLE_SPECS = {  # name -> (spec, largest n)
    "maj": (lambda: MAJ, 6), "hard-demo": (build_hard_demo, 6),
    "maj_f.sexp": (lambda: load_spec(str(SPEC_FILE)), 6),
    "more_a_than_b.sexp": (lambda: load_spec(str(AB_FILE)), 4),
    "two-layer": (two_layer_spec, 4), "uniform": (uniform_spec, 4),
    "sqrt": (sqrt_spec, 4), "eq-scorer": (eq_scorer_spec, 4),
    "pos-eq": (pos_eq_spec, 4)}


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_expanded_tables_equal_full_tabulation(monkeypatch, name):
    """A table tabulated over the read wires, expanded to every live
    wire, has the rows a tabulation over every live wire gives."""
    build, n_max = TABLE_SPECS[name]
    spec = build()

    def sig(v):  # within one build, equal wires carry equal values
        if isinstance(v, tuple):
            return tuple(sig(x) for x in v)
        return v.wires, v.p_width, v.e_width, v.e_max

    tables = 0
    for n in range(1, n_max + 1):
        seen = _built_tables(monkeypatch)
        compile_saturated(spec, n)
        tables += len(seen)
        full = {}
        for e, args, const_value, read, rows, ref in seen:
            key = (e, sig(args), sig(ref))
            if key not in full:
                full[key] = _full_table(spec, e, args, const_value, ref)
            live, full_rows = full[key]
            at = [live.index(w) for w in read]
            for m, row in enumerate(full_rows):
                if row is not None:
                    assert rows[sum(((m >> t) & 1) << i
                                    for i, t in enumerate(at))] == row, (n, e)
    assert tables


def test_a_kept_table_never_makes_a_circuit_larger(monkeypatch):
    """Each spec is no larger than its all-structural circuit (no table
    budget), and some spec is smaller: a table is kept only where it
    takes fewer gates than the structural form."""
    smaller = set()
    for name, (build, n_max) in sorted(TABLE_SPECS.items()):
        spec = build()
        for n in range(1, n_max + 1):
            size = metrics(compile_saturated(spec, n)).size
            with monkeypatch.context() as mp:
                mp.setattr(C, "EXPR_LOOKUP_BITS", 0)
                plain = metrics(compile_saturated(spec, n)).size
            assert size <= plain, (name, n)
            if size < plain:
                smaller.add(name)
    assert {"eq-scorer", "pos-eq"} <= smaller


def test_encode_word_rejects_unknown_tokens():
    with pytest.raises(CompileError, match="alphabet"):
        encode_word(MAJ, "01x")


def test_column_masks_equal_encode_word_word_by_word():
    rng = random.Random(0xC01)
    for spec in (MAJ, types.SimpleNamespace(alphabet=("c", "a", "b"))):
        for n, count in ((1, 1), (5, 70), (9, 3)):
            words = ["".join(rng.choice(spec.alphabet) for _ in range(n))
                     for _ in range(count)]
            masks = C.encode_words(spec, words)
            assert len(masks) == n * len(spec.alphabet)
            assert [[(m >> s) & 1 for m in masks]
                    for s in range(count)] == [encode_word(spec, w)
                                               for w in words]
    assert encode_word(MAJ, "011") == [1, 0, 0, 1, 0, 1]
    assert C.encode_words(MAJ, ["011", "110"]) == [1, 2, 0, 3, 2, 1]


def test_encode_words_refuses_a_foreign_token_and_a_stray_length():
    # the first foreign token in word order, whatever column it is in
    with pytest.raises(CompileError,
                       match=r"^token 'x' not in alphabet \('0', '1'\)$"):
        C.encode_words(MAJ, ["0101", "011x", "y000"])
    with pytest.raises(CompileError,
                       match=r"^word '010' has 3 tokens; the block's words "
                             r"have 4$"):
        C.encode_words(MAJ, ["0101", "1111", "010"])


# ---------------------------------------------------------------------------
# width plans


def test_analytic_plan_changes_nothing():
    plain, plain_roles = C._build(MAJ, 5, False)
    c, roles = compile_planned(MAJ, 5)
    assert c == plain and roles == plain_roles


def test_analytic_plan_covers_every_measured_role():
    roles = compile_planned(MAJ, 6)[1]
    for role, need in _Measure(MAJ, default_samples(MAJ, 6)).roles.items():
        have = roles[role]
        assert have[0] >= need[0] and have[1] >= need[1], role


MAJ_ROLES = {"L0.act[0]": (1, 0), "L0.act[1]": (1, 0),
             "L0.h0.out[0]": (5, 3), "L0.h0.out[1]": (5, 3),
             "classifier": (5, 1), "embed[0]": (1, 0), "embed[1]": (1, 0)}
MAJ_MEASURED = {"L0.act[0]": (1, 0), "L0.act[1]": (0, 0),
                "L0.h0.out[0]": (3, 3), "L0.h0.out[1]": (3, 3),
                "classifier": (1, 1), "embed[0]": (1, 0),
                "embed[1]": (1, 0)}
MAJ_PLANS = {  # n -> (samples, measured)
    5: (("00000", "01001", "01010", "11011", "11110", "11111"),
        MAJ_MEASURED),
    6: (("000000", "001010", "010101", "110111", "111001", "111111"),
        {**MAJ_MEASURED, "L0.h0.out[0]": (2, 3)}),
}


@pytest.mark.parametrize("n", sorted(MAJ_PLANS))
def test_plan_widths_is_pinned(n):
    samples, measured = MAJ_PLANS[n]
    assert tuple(default_samples(MAJ, n)) == samples
    assert _Measure(MAJ, samples).roles == measured
    assert compile_planned(MAJ, n)[1] == MAJ_ROLES


SPEC_ROLES = {  # (name, n) -> compile_planned(...)[1]
    ("hard-demo", 3): {
        "L0.act[0]": (1, 0), "L0.act[1]": (2, 0), "L0.h0.out[0]": (1, 0),
        "L0.h0.out[1]": (2, 0), "L0.h0.score": (1, 0), "classifier": (8, 1),
        "embed[0]": (1, 0), "embed[1]": (2, 0)},
    ("hard-demo", 4): {
        "L0.act[0]": (1, 0), "L0.act[1]": (3, 0), "L0.h0.out[0]": (1, 0),
        "L0.h0.out[1]": (3, 0), "L0.h0.score": (1, 0), "classifier": (8, 1),
        "embed[0]": (1, 0), "embed[1]": (3, 0)},
    ("maj_f.sexp", 3): {  # a key-free saturated head: no score role
        "L0.act[0]": (4, 2), "L0.act[1]": (4, 2), "L0.h0.out[0]": (4, 2),
        "L0.h0.out[1]": (4, 2), "classifier": (10, 2), "embed[0]": (1, 0),
        "embed[1]": (1, 0)},
    ("maj_f.sexp", 4): {
        "L0.act[0]": (6, 3), "L0.act[1]": (6, 3), "L0.h0.out[0]": (6, 3),
        "L0.h0.out[1]": (6, 3), "classifier": (13, 3), "embed[0]": (1, 0),
        "embed[1]": (1, 0)},
    ("more_a_than_b.sexp", 3): {
        "L0.act[0]": (5, 2), "L0.act[1]": (5, 2), "L0.h0.out[0]": (5, 2),
        "L0.h0.out[1]": (5, 2), "L0.h0.score": (4, 0), "classifier": (10, 2),
        "embed[0]": (1, 0), "embed[1]": (1, 0)},
    ("more_a_than_b.sexp", 4): {
        "L0.act[0]": (6, 3), "L0.act[1]": (6, 3), "L0.h0.out[0]": (6, 3),
        "L0.h0.out[1]": (6, 3), "L0.h0.score": (4, 0), "classifier": (12, 3),
        "embed[0]": (1, 0), "embed[1]": (1, 0)},
    ("two-layer", 3): {
        "L0.act[0]": (4, 2), "L0.act[1]": (1, 0), "L0.h0.out[0]": (4, 2),
        "L0.h0.out[1]": (4, 2), "L1.act[0]": (17, 4), "L1.act[1]": (1, 0),
        "L1.h0.out[0]": (10, 4), "L1.h0.out[1]": (5, 2), "L1.h0.score": (1, 0),
        "classifier": (24, 4), "embed[0]": (1, 0), "embed[1]": (1, 0)},
    ("two-layer", 4): {
        "L0.act[0]": (6, 3), "L0.act[1]": (1, 0), "L0.h0.out[0]": (6, 3),
        "L0.h0.out[1]": (6, 3), "L1.act[0]": (23, 6), "L1.act[1]": (1, 0),
        "L1.h0.out[0]": (14, 6), "L1.h0.out[1]": (6, 3), "L1.h0.score": (1, 0),
        "classifier": (32, 6), "embed[0]": (1, 0), "embed[1]": (1, 0)},
    ("uniform", 3): {  # a uniform head's scores play no role
        "L0.act[0]": (4, 2), "L0.act[1]": (1, 0), "L0.h0.out[0]": (4, 2),
        "L0.h0.out[1]": (4, 2), "classifier": (9, 2), "embed[0]": (1, 0),
        "embed[1]": (1, 0)},
    ("uniform", 4): {
        "L0.act[0]": (6, 3), "L0.act[1]": (1, 0), "L0.h0.out[0]": (6, 3),
        "L0.h0.out[1]": (6, 3), "classifier": (12, 3), "embed[0]": (1, 0),
        "embed[1]": (1, 0)},
    ("sqrt", 3): {
        "L0.act[0]": (2, 0), "L0.act[1]": (1, 0), "L0.h0.out[0]": (6, 2),
        "L0.h0.out[1]": (4, 2), "classifier": (6, 1), "embed[0]": (3, 0),
        "embed[1]": (1, 0)},
    ("sqrt", 4): {
        "L0.act[0]": (2, 0), "L0.act[1]": (1, 0), "L0.h0.out[0]": (8, 3),
        "L0.h0.out[1]": (6, 3), "classifier": (6, 1), "embed[0]": (3, 0),
        "embed[1]": (1, 0)},
}


@pytest.mark.parametrize("name,n", sorted(SPEC_ROLES))
def test_spec_width_plans_are_pinned(name, n):
    assert compile_planned(TABLE_SPECS[name][0](), n)[1] == SPEC_ROLES[name, n]


@pytest.mark.parametrize("name", ["maj", "hard-demo", "maj_f.sexp",
                                  "more_a_than_b.sexp", "two-layer",
                                  "uniform", "sqrt"])
def test_the_sample_traces_measure_every_recorded_role(name):
    spec = TABLE_SPECS[name][0]()
    for n in (1, 3, 4):
        measured = _Measure(spec, default_samples(spec, n)).roles
        assert measured.keys() == compile_planned(spec, n)[1].keys(), n


def test_compile_planned_is_compile_under_the_analytic_plan():
    c, roles = compile_planned(MAJ, 5)
    assert roles == compile_planned(MAJ, 5, include_values=True)[1]
    assert roles == MAJ_ROLES and c == compile_saturated(MAJ, 5)
    c, plan = compile_planned(build_hard_demo(), 4)
    assert c == compile_hard(build_hard_demo(), 4)


def test_default_samples_stop_at_the_number_of_words():
    assert default_samples(MAJ, 1) == ["0", "1"]
    assert default_samples(MAJ, 2) == ["00", "01", "10", "11"]
    assert len(default_samples(MAJ, 3)) == 6
    for n in (0, -3):
        with pytest.raises(CompileError, match="need n >= 1"):
            default_samples(MAJ, n)


def test_default_samples_return_exactly_count_words():
    assert default_samples(MAJ, 4, count=1) == ["0000"]
    assert default_samples(MAJ, 4, count=2) == ["0000", "1111"]
    assert default_samples(MAJ, 4, count=3) == ["0000", "0101", "1111"]
    assert default_samples(MAJ, 1, count=1) == ["0"]
    for count in range(1, 10):
        assert len(default_samples(MAJ, 3, count=count)) == min(count, 8)


@pytest.mark.parametrize("count", [0, -3])
def test_default_samples_refuses_a_count_below_one(count):
    with pytest.raises(CompileError, match="need count >= 1"):
        default_samples(MAJ, 4, count=count)


def test_a_trace_wider_than_its_analytic_width_is_refused(
        monkeypatch, tmp_path, capsys):
    role = C._Measure.role

    def wider(self, name, x):
        if name == "L0.h0.out[0]":  # the build records p5/e3 (p6 at n=4)
            C._widen(self.roles, name, 7, 3)
        return role(self, name, x)

    monkeypatch.setattr(C._Measure, "role", wider)
    why = ("analytic width for L0.h0.out[0] is p5/e3 but a sample trace "
           "reached p7/e3")
    for compile_fn in (compile_planned, compile_saturated):
        with pytest.raises(CompileError, match=re.escape(why)):
            compile_fn(MAJ, 5)
    with pytest.raises(CompileError, match="hard heads only"):
        compile_hard(MAJ, 5)  # maj's head is saturated: refused first
    with pytest.raises(CompileError, match=re.escape(why.replace(
            "p5/e3 but", "p1/e0 but"))):  # the hard head muxes a 0/1 bit
        compile_hard(build_hard_demo(), 5)
    for argv, have in ((["compile", "--n", "5"], "p5"),
                       (["verify", "--n", "5"], "p5"),
                       (["complexity", "--n-list", "4,5,6"], "p6")):
        assert cli_main(argv + ["--builtin", "maj",
                                "--out-dir", str(tmp_path)]) == 2
        want = why.replace("p5/e3 but", f"{have}/e3 but")
        assert capsys.readouterr().err == f"error: {want}\n"
        assert not list(tmp_path.iterdir())


def test_plan_validation():
    for n in (0, -3):
        with pytest.raises(CompileError, match="n >= 1"):
            compile_planned(MAJ, n)
    with pytest.raises(TypeError):  # widths come from the build, not a plan
        compile_saturated(MAJ, 5, MAJ_ROLES)
    assert len(default_samples(MAJ, 7)) >= 3


# ---------------------------------------------------------------------------
# the verifier


def test_verify_exhaustive_report():
    rep = verify_equivalence(MAJ, [2, 3, 4], mode="exhaustive")
    assert rep.ok
    assert [r.tested for r in rep.rows] == [4, 8, 16]
    assert all(r.first_counterexample is None for r in rep.rows)


def test_verify_random_is_seeded_and_clean():
    a = verify_equivalence(MAJ, [9], mode="random", samples=60, seed=3)
    b = verify_equivalence(MAJ, [9], mode="random", samples=60, seed=3)
    assert a.ok and a.rows == b.rows
    assert a.rows[0].tested == 60


def test_verify_never_passes_having_checked_nothing():
    for samples in (0, -5):
        with pytest.raises(CompileError, match="samples must be at least 1 "
                                               f"in random mode, got {samples}"):
            verify_equivalence(MAJ, [4], mode="random", samples=samples)
    with pytest.raises(CompileError, match="need at least one n to verify"):
        verify_equivalence(MAJ, [])


def test_verify_refuses_oversized_exhaustive_runs():
    with pytest.raises(CompileError, match="too large"):
        verify_equivalence(MAJ, [21], mode="exhaustive")
    with pytest.raises(CompileError, match="mode"):
        verify_equivalence(MAJ, [3], mode="sideways")


def test_a_huge_exhaustive_n_is_refused_at_once():
    """The word count is bounded, never computed as a whole |alphabet|^n."""
    start = time.perf_counter()
    with pytest.raises(CompileError, match=re.escape(
            "exhaustive verification over 2^1000000000 words is too large")):
        verify_equivalence(MAJ, [10**9], mode="exhaustive")
    assert time.perf_counter() - start < 1
    one = dataclasses.replace(MAJ, alphabet=("1",))
    C._check_batch(one, 10**9, "exhaustive", 0)  # one word of each length
    assert default_samples(MAJ, 3, count=10**9) == all_words(MAJ, 3)


@pytest.mark.parametrize("ns, mode, err", [
    ([16, 0], "random", "need n >= 1"),
    ([4, -3], "exhaustive", "need n >= 1"),
    ([4, 21], "exhaustive", "too large"),
])
def test_verify_refuses_every_bad_n_before_the_first_compile(ns, mode, err):
    built = []
    with pytest.raises(CompileError, match=err):
        verify_equivalence(MAJ, ns, mode=mode, samples=50,
                           compile_fn=lambda spec, n: built.append(n))
    assert built == []


def test_verify_hard_compiles_through_compile_fn():
    rep = verify_equivalence(build_hard_demo(), [3, 5],
                             compile_fn=compile_hard)
    assert rep.ok


# ---------------------------------------------------------------------------
# the verifier's forked workers: same answers as in-process, none left over


@pytest.fixture
def pool(monkeypatch):
    """Forked workers for every batch, however small; returns a setter
    for the number of CPUs the checker believes it has."""
    monkeypatch.setattr(C, "MIN_CHUNK", 1)

    def cpus(k):
        monkeypatch.setattr(W, "_cpu_count", lambda: k)

    cpus(2)
    return cpus


def _in_process(monkeypatch):
    monkeypatch.setattr(W, "_fork_context", lambda: None)


@pytest.mark.parametrize("spec, ns", [(MAJ, range(1, 9)),
                                      (build_hard_demo(), range(1, 7)),
                                      (load_spec(SPEC_FILE), range(1, 5))],
                         ids=["maj", "hard-demo", "maj_f"])
def test_pool_equals_the_in_process_reference(spec, ns, pool, monkeypatch):
    circuits = {n: C.compile_planned(spec, n)[0] for n in ns}

    def compile_fn(spec, n):
        return circuits[n]

    # corrupted: accept read straight off an input wire
    cases = [(c, all_words(spec, n)) for n, c in circuits.items()]
    cases += [(dataclasses.replace(c, outputs=(next(
        g.id for g in c.gates if g.kind == "INPUT"),)), words)
        for c, words in cases]

    def answers():
        return ([C.check_circuit(spec, lambda: c, words)
                 for c, words in cases],
                verify_equivalence(spec, ns, compile_fn=compile_fn),
                verify_equivalence(spec, ns, mode="random", samples=90,
                                   seed=4, compile_fn=compile_fn))

    got = {}
    for k in (2, 3):
        pool(k)
        got[k] = answers()
    _in_process(monkeypatch)
    want = answers()
    assert got[2] == got[3] == want
    assert want[1].ok and want[2].ok
    assert any(bad for bad, _ in want[0])


def test_pool_runs_the_machine_in_the_workers(pool, monkeypatch, tmp_path):
    """Every chunk is judged exactly once, at least one in a worker, and
    none by the parent before its own work, the compile, returns."""
    parent, log = os.getpid(), tmp_path / "judged"
    built = []

    def judge(spec, words, bounds):
        with open(log, "a") as f:  # one short append: one whole line
            f.write(f"{os.getpid() != parent} {bool(built)} {bounds[0]}\n")
        return real(spec, words, bounds)

    def build():
        assert _wait_for(log)  # a worker has taken a chunk
        built.append(True)
        return compile_saturated(MAJ, 7)

    real = C._machine_chunk
    monkeypatch.setattr(C, "_machine_chunk", judge)
    words = all_words(MAJ, 7)
    assert C.check_circuit(MAJ, build, words) == (0, None)
    rows = [line.split() for line in log.read_text().splitlines()]
    # 128 words on 2 CPUs: 16 chunks of 8
    assert sorted(int(lo) for _, _, lo in rows) == list(range(0, 128, 8))
    assert ["True", "False"] in [r[:2] for r in rows]
    assert all(after == "True" for worker, after, _ in rows
               if worker == "False")


def test_the_machine_runs_while_the_circuit_builds(pool, monkeypatch,
                                                   tmp_path):
    mark = tmp_path / "machine-started"

    def judge(spec, w):
        mark.touch()
        return recognize(spec, w)

    def build():
        deadline = time.monotonic() + 30
        while not mark.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        seen.append(mark.exists())
        return compile_saturated(MAJ, 5)

    seen = []
    monkeypatch.setattr(C, "recognize", judge)
    assert C.check_circuit(MAJ, build, all_words(MAJ, 5)) == (0, None)
    assert seen == [True]


def test_patched_recognize_reaches_every_worker(pool, monkeypatch):
    monkeypatch.setattr(C, "recognize",
                        lambda spec, w: not recognize(spec, w))
    rep = verify_equivalence(MAJ, [6, 7])
    assert [(r.mismatches, r.first_counterexample) for r in rep.rows] == \
        [(64, "000000"), (128, "0000000")]


def test_worker_machine_error_is_the_first_in_word_order(pool, monkeypatch):
    def judge(spec, w):
        if w.count("1") == 5:
            raise MachineError(f"cannot judge {w}")
        return recognize(spec, w)

    monkeypatch.setattr(C, "recognize", judge)
    pool(3)
    with pytest.raises(MachineError) as e:
        verify_equivalence(MAJ, [7])
    assert str(e.value) == "cannot judge 0011111"
    # a compile error still wins over the machine's
    with pytest.raises(CompileError, match="need n >= 1"):
        verify_equivalence(MAJ, [0, 7])


def _wait_for(path, seconds=30):
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    return path.exists()


def _reaped():
    import multiprocessing
    return multiprocessing.active_children() == []


class _Alarm(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds):
    """Raise _Alarm from a SIGALRM handler after seconds; gives the list
    of the functions it rang in."""
    rang = []

    def ring(signum, frame):
        rang.append(frame.f_code.co_name)
        raise _Alarm

    old = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield rang
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def test_no_worker_outlives_the_call(pool, monkeypatch):
    c, words = compile_saturated(MAJ, 6), all_words(MAJ, 6)
    assert C.check_circuit(MAJ, lambda: c, words) == (0, None)
    assert _reaped()

    def refuse():
        raise CompileError("refused while the workers run")

    with pytest.raises(CompileError, match="refused"):
        C.check_circuit(MAJ, refuse, words)
    assert _reaped()
    # the alarm lands in the parent's compile
    with pytest.raises(_Alarm), _alarm(0.2):
        C.check_circuit(MAJ, lambda: time.sleep(60), words)
    assert _reaped()
    # then in a chunk the parent judges: kept as that chunk's error, so
    # the parent judges no more words and raises it once the chunks
    # before it, which the worker holds, are done
    parent, judged = os.getpid(), []

    def judge(spec, w):
        if os.getpid() == parent:
            judged.append(w)
        time.sleep(0.05)
        return True

    c, words = compile_saturated(MAJ, 8), all_words(MAJ, 8)
    monkeypatch.setattr(C, "recognize", judge)
    # 16 chunks of 16 words, 0.8 s each: the parent and its one worker
    # would need 6.4 s for all of them
    t = time.monotonic()
    with pytest.raises(_Alarm), _alarm(0.2) as rang:
        C.check_circuit(MAJ, lambda: c, words)
    assert rang == ["judge"]
    assert 0 < len(judged) <= 16  # part of one chunk
    assert time.monotonic() - t < 3
    assert _reaped()


def test_a_short_verdict_stream_is_refused_not_padded(monkeypatch):
    _in_process(monkeypatch)
    chunk = C._machine_chunk
    monkeypatch.setattr(C, "_machine_chunk",
                        lambda spec, words, b: chunk(spec, words, b)[:-1])
    with pytest.raises(ValueError, match="^63 machine verdicts for 64 words$"):
        C.check_circuit(MAJ, lambda: compile_saturated(MAJ, 6),
                        all_words(MAJ, 6))


def test_workers_ignore_sigint(pool, monkeypatch):
    parent = os.getpid()

    def judge(spec, w):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGINT)
        return recognize(spec, w)

    monkeypatch.setattr(C, "recognize", judge)
    c, words = compile_saturated(MAJ, 4), all_words(MAJ, 4)
    assert C.check_circuit(MAJ, lambda: c, words) == (0, None)


def test_a_killed_worker_raises_instead_of_hanging(pool, monkeypatch,
                                                  tmp_path):
    parent, mark = os.getpid(), tmp_path / "worker-dying"

    def die(spec, w):  # the first word a worker judges, during the compile
        if os.getpid() != parent:
            mark.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        return recognize(spec, w)

    def build():
        assert _wait_for(mark)
        return c

    monkeypatch.setattr(C, "recognize", die)
    c, words = compile_saturated(MAJ, 6), all_words(MAJ, 6)
    with _alarm(30), pytest.raises(ChildProcessError,
                                   match="died with exit code -9"):
        C.check_circuit(MAJ, build, words)
    assert _reaped()


def test_the_circuit_is_evaluated_in_bounded_blocks(pool, monkeypatch):
    c, words = compile_saturated(MAJ, 8), all_words(MAJ, 8)
    wrong = dataclasses.replace(c, outputs=(next(
        g.id for g in c.gates if g.kind == "INPUT"),))

    def both():
        return [C.check_circuit(MAJ, lambda: x, words) for x in (c, wrong)]

    whole = both()
    assert whole[0] == (0, None) and whole[1][0] > 0
    monkeypatch.setattr(C, "EVAL_BLOCK", 7)
    assert both() == whole
    _in_process(monkeypatch)
    assert both() == whole


def test_exhaustive_verify_evaluates_at_most_4096_words_per_call(
        monkeypatch, tmp_path, capsys):
    rows = []

    def spy(c, masks, m):
        rows.append(m)
        return _eval_masks(c, masks, m)

    monkeypatch.setattr(C, "_eval_masks", spy)
    assert cli_main(["verify", "--builtin", "maj", "--n", "14",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # 16384 words in blocks of at most 4096; the compile's own
    # cross-checks go through eval_batch, not this name
    assert rows == [4096] * 4
    assert (tmp_path / "verify.csv").read_bytes() == (
        b"n,mode,tested,mismatches,first_counterexample\r\n"
        b"14,exhaustive,16384,0,\r\n")


# ---------------------------------------------------------------------------
# the complexity sweep on the same workers


def _sweep_csv(tmp_path, name):
    out_dir = tmp_path / name
    assert cli_main(["complexity", "--builtin", "hard-demo", "--n-list",
                     "4,2,8,3,3", "--out-dir", str(out_dir)]) == 0
    return (out_dir / "complexity.csv").read_bytes()


def test_sweep_csv_does_not_depend_on_the_workers(pool, monkeypatch,
                                                 tmp_path, capsys):
    got = {}
    for k in (1, 2, 4):
        pool(k)
        got[k] = _sweep_csv(tmp_path, f"cpus{k}")
        assert _reaped()
    _in_process(monkeypatch)
    want = _sweep_csv(tmp_path, "in-process")
    capsys.readouterr()
    assert got == {1: want, 2: want, 4: want}
    assert [r.split(b",")[0] for r in want.splitlines()] == \
        [b"n", b"4", b"2", b"8", b"3"]  # the repeated 3 is one row


def test_sweep_forks_a_worker_per_cpu_and_compiles_nothing_in_the_parent(
        pool, tmp_path):
    parent, log = os.getpid(), tmp_path / "compiled"

    def family(n):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        # hold each worker on its first n until all three have taken one
        deadline = time.monotonic() + 30
        while (len(log.read_text().split()) < 3
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return compile_saturated(MAJ, n)

    pool(3)
    assert family_analyze(family, [2, 3, 4, 5]).rows
    pids = log.read_text().split()
    assert len(pids) == 4 and str(parent) not in pids
    assert len(set(pids[:3])) == 3
    assert _reaped()


def test_sweep_hands_out_the_largest_n_first(pool, tmp_path):
    log = tmp_path / "started"

    def family(n):
        with open(log, "a") as f:
            f.write(f"{n}\n")
        # hold each worker on its first n until both have taken one
        deadline = time.monotonic() + 30
        while (len(log.read_text().split()) < 2
               and time.monotonic() < deadline):
            time.sleep(0.01)
        return compile_saturated(MAJ, n)

    rep = family_analyze(family, [5, 2, 6, 3, 4])
    assert [r.n for r in rep.rows] == [5, 2, 6, 3, 4]
    started = log.read_text().split()
    assert sorted(started) == ["2", "3", "4", "5", "6"]
    assert set(started[:2]) == {"5", "6"}
    assert _reaped()


@pytest.mark.parametrize("cpus", [1, 2, 3, None])
def test_sweep_error_is_from_the_first_failing_n_in_the_list(
        cpus, pool, monkeypatch):
    def family(n):
        if n == 6:  # handed out first, fails at once
            raise MachineError("six failed")
        if n == 3:  # listed before 6, fails last
            time.sleep(0.3)
            raise CompileError("three failed")
        return compile_saturated(MAJ, n)

    if cpus is None:
        _in_process(monkeypatch)
    else:
        pool(cpus)
    with pytest.raises(CompileError, match="three failed"):
        family_analyze(family, [2, 3, 4, 6])
    assert _reaped()


def test_a_killed_sweep_worker_raises_instead_of_hanging(
        pool, monkeypatch, tmp_path, capsys):
    parent = os.getpid()

    def family(n):
        if n == 4 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return compile_hard(build_hard_demo(), n)

    with _alarm(30), pytest.raises(ChildProcessError,
                                   match="died with exit code -9"):
        family_analyze(family, [2, 3, 4])
    assert _reaped()
    # the CLI names the dead worker and exits 2, without a traceback
    monkeypatch.setattr("satcirc.cli.compile_saturated",
                        lambda spec, n: family(n))
    with _alarm(30):
        assert cli_main(["complexity", "--builtin", "hard-demo", "--n-list",
                         "2,3,4", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: worker ") and err.endswith(
        " died with exit code -9\n")
    assert _reaped()


def test_a_sweep_worker_verifies_in_process(pool):
    def family(n):  # a nested map runs in the sweep's worker
        assert verify_equivalence(MAJ, [n]).ok
        return compile_saturated(MAJ, n)

    rep = family_analyze(family, [4, 5, 6])
    assert [r.n for r in rep.rows] == [4, 5, 6] and rep.depth_constant
    assert _reaped()


def test_importing_the_cli_does_not_load_multiprocessing():
    probe = "import sys, satcirc.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    r = subprocess.run([sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True, timeout=60)
    assert r.stdout.strip() == "False", r.stderr


# ---------------------------------------------------------------------------
# multi-layer and uniform-head paths pinned by hash


# sha256 of the CLI's (circuit JSON, manifest) for the specs above
SPEC_PINNED = {
    ("two-layer", 2): (
        "6b3ee1cfc66482724f0aa5bb05be0a99d35545203cdf7c940a63d96f8f795ecb",
        "5f423e5e9cfd6f80c1f509a29a7982681321a22a22b640492eec1342a54a5950"),
    ("two-layer", 3): (
        "47e65363330607869d78b30f50c31906b76b694a1bb6708e9473903acb81d17e",
        "eb3fe949cd8c2d30220e934e2be9ee742ba96a15c6fc3dd3c883e541f5c7b3a1"),
    ("two-layer", 4): (
        "7beaaee89a0ad97e86bbf0b4d7886733b2a5686ff87b7e4baf1be8e63dfec290",
        "02b943d311ef2c3814416da14ee3f9cd8614560dd8bcfe8567d5852f96b5a537"),
    ("uniform", 2): (
        "07b35e423ec4ed03f507d92b45b3f2867b55376a3f5fcf3189f85dc287f95541",
        "5f90b5c843071115653f4fa1efd488f206183ad0f77a549e166d7897a358da1f"),
    ("uniform", 3): (
        "57d5a81f038c7998ffc883aafe0c78bee517d29efe2d35e8393a2df6db834a4b",
        "6e7832023b708af551a9649bebe94546d979f2f0bef6887ebaeb2fef8743cc81"),
    ("uniform", 4): (
        "50d846981d93f93dd4488e28154e751d851a1b6e0aaf5ceeccc2e31bff63aba9",
        "d9e2406b4a9c1c4ead87205938740ed3410407766a477bd8455cf999a57dc1b4"),
    ("sqrt", 2): (
        "92de5e66e431cde0f8e4da0ce803253e184d377f8edceaf79ed48a8e5f9995cc",
        "b240de8338038ac1e7c497db14c46c42497e8198e9893beca1bb31196ba3d8f0"),
    ("sqrt", 3): (
        "36041ad28f67810e92a4701318274e11a07f51bb22f336999db8d7acc7d10ff9",
        "66a2803090a668f795762aa746af59d0ee4a81b2f29a4f4974d21b47482ffeae"),
    ("sqrt", 4): (
        "b63f0845273aba44a6244e11ca666d0be47b93a3b5f57008f3a381ade9a4d6ef",
        "86cf4c3c719161d0ad9f5e52a6fd058b9cbc2167fd40d1dac527dae0d70dd649"),
}


@pytest.mark.parametrize("name,n", sorted(SPEC_PINNED))
def test_spec_artifacts_are_pinned(name, n, monkeypatch, tmp_path, capsys):
    spec = TABLE_SPECS[name][0]()
    monkeypatch.setattr("satcirc.cli._load", lambda args: spec)
    assert cli_main(["compile", "--builtin", "maj", "--n", str(n),
                     "--out-dir", str(tmp_path)]) == 0
    got = tuple(hashlib.sha256((tmp_path / f"{spec.name}_n{n}{ext}")
                               .read_bytes()).hexdigest()
                for ext in (".json", ".manifest.json"))
    assert got == SPEC_PINNED[name, n]
    capsys.readouterr()


# trace_sha256(run(...)) on TRACE_WORDS spelt over a, b
SPEC_TRACE_SHA256 = {
    "two-layer": (
        "4d94389680a534858875e2d7db16b2298b0dd45d96e927ce5ddf80da4bd322af",
        "46c074980976a079ddf4ca24ce2869d7362430c87935548ae25b5b04330d0212",
        "a672f911865cca495adb9a027750c2937e5e9e4e63a23dd1d14337b6850f8113",
        "e267d17ca566c4a689d5527f3c2b5daf26afc44c3b893ce5b35783cf588b92a9"),
    "uniform": (
        "bf0222c16d0d3da10ccd1b5d57ec44741e93414a529f3f916969251419deb61d",
        "1d11d4640e186c8b2baa118683de0ea11cfb7a80606c5b7df432fd807608252e",
        "a49235d85201d2baa4797223c2a7a14f2cac9f62df9da10f45e223338325aac5",
        "d55007131f1c7e7ea3d857a90f126dd6ff281d77657b18f1a3814b9249112332"),
}


@pytest.mark.parametrize("name", sorted(SPEC_TRACE_SHA256))
def test_spec_traces_are_pinned(name):
    spec = TABLE_SPECS[name][0]()
    words = [w.translate(str.maketrans("01", "ab")) for w in TRACE_WORDS]
    got = tuple(trace_sha256(run(spec, w)) for w in words)
    assert got == SPEC_TRACE_SHA256[name]


# ---------------------------------------------------------------------------
# no reference cycles: a call's values are freed by refcount alone


@contextlib.contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _cyclic_garbage(fn) -> int:
    """Objects the cyclic collector finds after one fn() with collection
    off, once a first call has filled every cache."""
    fn()
    with _collector_off():
        fn()
        return gc.collect()


@pytest.mark.parametrize("name, pred", [
    ("maj", None), ("maj-q", None), ("maj-ln", None), ("hard-demo", None),
    ("prime-universal", "parity"), ("resource-bounded", "bigram11")])
def test_the_machine_leaves_no_cyclic_garbage(name, pred):
    spec = builtin_spec(name, pred)
    w = format(random.Random(name).getrandbits(32), "032b")
    assert _cyclic_garbage(lambda: recognize(spec, w)) == 0
    assert _cyclic_garbage(lambda: run(spec, w)) == 0


@pytest.mark.parametrize("spec", [MAJ, build_hard_demo(), load_spec(SPEC_FILE)],
                         ids=["maj", "hard-demo", "maj_f"])
@pytest.mark.parametrize("include_values", [False, True])
def test_a_compile_leaves_no_cyclic_garbage(spec, include_values,
                                            monkeypatch):
    builders = []

    class Tracked(S.Builder):
        def __init__(self, n):
            super().__init__(n)
            builders.append(weakref.ref(self))

    monkeypatch.setattr(C, "Builder", Tracked)
    build = lambda: compile_planned(spec, 4, include_values=include_values)
    assert _cyclic_garbage(build) == 0
    builders.clear()
    with _collector_off():
        build()
        # the compile's builder, and each cross-check's, die on return
        assert builders and [ref() for ref in builders] == [None] * len(
            builders)


def test_staging_a_fresh_spec_leaves_no_cycle_and_frees_its_nodes():
    # _cyclic_garbage measures a second call, once every node is staged;
    # this one measures the call that stages them
    with _collector_off():
        spec = parse_spec(SPEC_FILE.read_text())
        recognize(spec, "0110")
        assert gc.collect() == 0
        todo, refs = [spec.embedding, spec.layers[0].activation,
                      spec.layers[0].heads[0].scorer], []
        while todo:
            e = todo.pop()
            assert e.__dict__.get("_staged") is not None
            refs.append(weakref.ref(e))
            todo.extend(e.args)
        del spec, e
        assert [ref() for ref in refs] == [None] * len(refs)


def test_parse_instrument_and_verify_leave_no_cyclic_garbage(monkeypatch):
    _in_process(monkeypatch)
    text = SPEC_FILE.read_text()
    assert _cyclic_garbage(lambda: parse_spec(text)) == 0
    assert _cyclic_garbage(
        lambda: instrument_sizes(MAJ, {4: all_words(MAJ, 4)})) == 0
    assert _cyclic_garbage(lambda: verify_equivalence(MAJ, [4])) == 0
