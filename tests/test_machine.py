"""Abstract machine: expressions, attention, traces, spec files."""

import dataclasses
import functools
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from satcirc import machine
from satcirc.bitnum import Flt, flt, rat, size
from satcirc.builtins import builtin_spec
from satcirc.compile import default_samples
from satcirc.machine import (
    MAX_POW2_EXPONENT, Add, Affine, Arg, AttentionKind, Const, Div, Eq,
    FuncExpr, Gt, HeadSpec, Host, LayerSpec, MachineError, Mul, Neg, Pow2,
    Proj, Relu, Select, Sqrt, TransformerSpec, Tup, classifier_value,
    domain_of, eval_expr, instrument_sizes, is_size_preserving, max_set,
    parse_spec, recognize, run, shared_tables,
)

from oracles import majority01, ref_eval, size_factor, two_pass_max_set

F = domain_of("F")
Q = domain_of("Q")


def as_fraction(x):
    num, den = x.as_pair()
    return Fraction(num, den)


# ---------------------------------------------------------------------------
# attention


def attend(kind, scores, domain):
    """The weight of each position in one row of scores: the machine's
    head output over the columns of the identity matrix."""
    unit = [tuple(domain.one if j == c else domain.zero
                  for j in range(len(scores))) for c in range(len(scores))]
    return domain.attend(kind, lambda: scores, unit)[2]


def test_attend_hard_least_maximizer():
    scores = tuple(F.from_int(s) for s in (1, 3, 3))
    w = attend(AttentionKind.HARD, scores, F)
    assert [as_fraction(x) for x in w] == [0, 1, 0]
    assert max_set(scores, F) == (1, 2)


@settings(max_examples=300, deadline=None)
@given(dtname=st.sampled_from(["F", "Q"]),
       nums=st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)),
                     min_size=1, max_size=12),
       copies=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 12)),
                       max_size=4))
@example(dtname="F", nums=[(5, 0)], copies=[])
@example(dtname="Q", nums=[(1, 1), (2, 2), (4, 2)], copies=[])
def test_max_set_one_pass_matches_the_two_pass_rule(dtname, nums, copies):
    # values num/2^k, so F and Q both hold them and 1/2 = 2/4 ties; each
    # copy repeats a score at another place, forcing ties on any score
    dom = domain_of(dtname)
    scores = [dom.from_pair(num, 1 << k) for num, k in nums]
    for src, dst in copies:
        scores.insert(dst, scores[src % len(scores)])
    got = max_set(tuple(scores), dom)
    assert got == two_pass_max_set(scores, dom)
    assert list(got) == sorted(set(got))


@pytest.mark.parametrize("dtname", ["F", "Q"])
def test_max_set_refuses_an_empty_row(dtname):
    for rule in (max_set, two_pass_max_set):
        with pytest.raises(MachineError, match="^empty score sequence$"):
            rule((), domain_of(dtname))


def test_attend_saturated_splits_ties():
    scores = tuple(F.from_int(s) for s in (1, 3, 3))
    w = attend(AttentionKind.SATURATED, scores, F)
    assert [as_fraction(x) for x in w] == [0, Fraction(1, 2), Fraction(1, 2)]


def test_attend_uniform_float_reciprocal():
    # over F the uniform weight is the floor-reciprocal float: 1/3 -> 1/4
    w = attend(AttentionKind.UNIFORM, tuple(F.from_int(0) for _ in range(3)), F)
    assert all(as_fraction(x) == Fraction(1, 4) for x in w)


def test_attend_rational_weights_sum_to_one():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 9)
        scores = tuple(Q.from_pair(rng.randint(-5, 5), rng.randint(1, 5))
                       for _ in range(n))
        for kind in (AttentionKind.SATURATED, AttentionKind.UNIFORM):
            w = attend(kind, scores, Q)
            assert sum(as_fraction(x) for x in w) == 1


def test_attend_saturated_degenerates():
    # unique maximizer: saturated == hard
    scores = tuple(F.from_int(s) for s in (2, 7, 1))
    sat = attend(AttentionKind.SATURATED, scores, F)
    hard = attend(AttentionKind.HARD, scores, F)
    assert sat == hard
    # all-tied: saturated == uniform
    flat = tuple(F.from_int(4) for _ in range(6))
    assert attend(AttentionKind.SATURATED, flat, F) == \
        attend(AttentionKind.UNIFORM, flat, F)


def test_attend_empty_rejected():
    with pytest.raises(MachineError):
        attend(AttentionKind.HARD, (), F)


# ---------------------------------------------------------------------------
# expression evaluation against a Fraction oracle


def oracle_eval(e, args):
    """Fraction-level restatement of the exact expression semantics."""
    op = e.op
    if op == "const":
        return Fraction(*e.data)
    if op == "arg":
        return args[e.data]
    if op == "proj":
        return oracle_eval(e.args[0], args)[e.data]
    if op == "tup":
        return tuple(oracle_eval(a, args) for a in e.args)
    vals = [oracle_eval(a, args) for a in e.args]
    if op == "add":
        return vals[0] + vals[1]
    if op == "mul":
        return vals[0] * vals[1]
    if op == "div":
        return vals[0] / vals[1]
    if op == "neg":
        return -vals[0]
    if op == "relu":
        return vals[0] if vals[0] > 0 else Fraction(0)
    if op == "gt":
        return Fraction(int(vals[0] > vals[1]))
    if op == "eq":
        return Fraction(int(vals[0] == vals[1]))
    if op == "select":
        return vals[1] if vals[0] == 1 else vals[2]
    if op == "affine":
        coeffs, bias = e.data
        return Fraction(*bias) + sum(Fraction(*c) * v
                                     for c, v in zip(coeffs, vals))
    raise AssertionError(op)


def random_exact_expr(rng, depth, dyadic):
    """Random tree over the ops that are exact in both datatypes."""
    def const():
        if dyadic:
            return Const(rng.randint(-9, 9), 2 ** rng.randint(0, 3))
        return Const(rng.randint(-9, 9), rng.randint(1, 9))

    if depth == 0:
        return rng.choice([const(), Arg(0), Arg(1)])
    sub = lambda: random_exact_expr(rng, depth - 1, dyadic)
    op = rng.randint(0, 7)
    if op == 0:
        return Add(sub(), sub())
    if op == 1:
        return Mul(sub(), sub())
    if op == 2:
        return Neg(sub())
    if op == 3:
        return Relu(sub())
    if op == 4:
        return Gt(sub(), sub())
    if op == 5:
        return Eq(sub(), sub())
    if op == 6:
        return Select(Gt(sub(), sub()), sub(), sub())
    return Affine([(rng.randint(-3, 3), 1), (rng.randint(-3, 3), 1)],
                  (rng.randint(-3, 3), 1), sub(), sub())


@pytest.mark.parametrize("dtname", ["F", "Q"])
def test_eval_expr_matches_fraction_oracle(dtname):
    dom = domain_of(dtname)
    rng = random.Random(42 if dtname == "F" else 43)
    for _ in range(400):
        e = random_exact_expr(rng, rng.randint(1, 4), dyadic=(dtname == "F"))
        if dtname == "F":
            args = (flt(rng.randint(-20, 20), rng.randint(0, 3)),
                    flt(rng.randint(-20, 20), rng.randint(0, 3)))
        else:
            args = (rat(rng.randint(-20, 20), rng.randint(1, 9)),
                    rat(rng.randint(-20, 20), rng.randint(1, 9)))
        got = eval_expr(e, args, dom)
        want = oracle_eval(e, tuple(as_fraction(a) for a in args))
        assert as_fraction(got) == want


def test_eval_expr_rational_division_exact():
    got = eval_expr(Div(Const(1), Arg(0)), (rat(3, 1),), Q)
    assert as_fraction(got) == Fraction(1, 3)


def test_eval_expr_float_division_truncates():
    got = eval_expr(Div(Const(1), Arg(0)), (flt(3, 0),), F)
    assert as_fraction(got) == Fraction(1, 4)


def test_eval_expr_errors():
    with pytest.raises(MachineError):
        eval_expr(Const(1, 3), (), F)  # non-dyadic constant over F
    with pytest.raises(MachineError):
        eval_expr(Div(Const(1), Const(0)), (), Q)
    with pytest.raises(MachineError):
        eval_expr(Sqrt(Const(4)), (), Q)
    with pytest.raises(MachineError):
        eval_expr(Select(Const(2), Const(0), Const(1)), (), Q)
    with pytest.raises(MachineError):
        eval_expr(Proj(0, Const(1)), (), Q)
    with pytest.raises(MachineError):
        eval_expr(Arg(1), (rat(1, 1),), Q)
    with pytest.raises(MachineError):
        eval_expr(Host("nope", Const(1)), (), Q)


def test_pow2_and_host_flagged_not_size_preserving():
    assert is_size_preserving(Add(Arg(0), Const(1)))
    assert not is_size_preserving(Pow2(Arg(0)))
    assert not is_size_preserving(Tup(Arg(0), Host("h", Arg(1))))
    got = eval_expr(Pow2(Const(5)), (), F)
    assert as_fraction(got) == 32
    hosts = {"twice": lambda dom, x: dom.add(x, x)}
    got = eval_expr(Host("twice", Const(3)), (), Q, hosts)
    assert as_fraction(got) == 6


def test_pow2_refuses_an_exponent_over_the_cap():
    got = eval_expr(Pow2(Const(MAX_POW2_EXPONENT)), (), Q)
    assert as_fraction(got) == 1 << MAX_POW2_EXPONENT
    with pytest.raises(MachineError, match="^pow2 wants an exponent of at "
                       f"most {MAX_POW2_EXPONENT}$"):
        eval_expr(Pow2(Pow2(Pow2(Const(5)))), (), F)


# ---------------------------------------------------------------------------
# staging against the reference interpreter


def _exprs():
    """Expression trees over every op, ill-shaped ones included: tuples
    where scalars belong, indices out of range, denominators F cannot
    hold, unknown hosts and ops. pow2 takes a leaf only, so its exponent
    stays at most 9."""
    num = st.tuples(st.integers(-4, 9), st.sampled_from([1, 2, 4] * 2 + [3]))
    leaf = st.one_of(st.builds(lambda c: Const(*c), num),
                     st.builds(Arg, st.sampled_from([0, 0, 1, 1, 2])))
    small = st.one_of(leaf, st.builds(Proj, st.integers(0, 2), leaf))

    def extend(sub):
        def some(lo, hi):
            return st.lists(sub, min_size=lo, max_size=hi)

        def affine(es):
            return st.builds(lambda cs, b: Affine(cs, b, *es),
                             st.lists(num, min_size=len(es),
                                      max_size=len(es)), num)
        host = some(0, 3).map(lambda es: Host("rec", *es))
        return st.one_of(
            st.builds(Proj, st.integers(0, 2), sub),
            some(0, 3).map(lambda es: Tup(*es)),
            *[st.builds(ctor, sub, sub) for ctor in (Add, Mul, Div, Gt, Eq)],
            *[st.builds(ctor, sub) for ctor in (Sqrt, Neg, Relu)],
            st.builds(Select, st.one_of(st.builds(Gt, sub, sub), sub), sub,
                      sub),
            some(1, 3).flatmap(affine),
            st.builds(Pow2, small),
            host, host, host,
            st.one_of(some(0, 1).map(lambda es: Host("nope", *es)),
                      some(0, 2).map(lambda es: FuncExpr("frob", tuple(es)))))
    return st.recursive(leaf, extend, max_leaves=12)


def _outcome(evaluate, e, args, domain):
    """(value or error, the host calls seen) of one evaluation; the host
    "rec" returns a bool, an int, its first operand or a pair in turn."""
    calls = []

    def rec(dom, *xs):
        calls.append(repr(xs))
        return (True, -2, xs[0] if xs else dom.one,
                (dom.zero, dom.one))[len(calls) % 4]
    try:
        got = ("value", repr(evaluate(e, args, domain, {"rec": rec})))
    except MachineError as exc:
        got = ("MachineError", str(exc))
    return got, calls


@settings(max_examples=400, deadline=None)
# an operand's shape is checked before the next operand's host call, and
# select calls the host in its taken branch only
@example(e=Tup(Arg(0), Host("rec")), dt="Q", nums=[(1, 0)] * 3)
@example(e=Add(Host("rec", Arg(1)), Host("rec")), dt="F", nums=[(1, 0)] * 3)
@example(e=Select(Const(1), Host("rec", Const(1)), Host("rec", Const(2))),
         dt="F", nums=[(1, 0)] * 3)
@given(e=_exprs(), dt=st.sampled_from("FQ"),
       nums=st.lists(st.tuples(st.integers(-9, 9), st.integers(0, 2)),
                     min_size=3, max_size=3))
def test_staged_evaluation_matches_the_reference_interpreter(e, dt, nums):
    domain = domain_of(dt)
    x = [flt(m, k) if dt == "F" else rat(m, k + 1) for m, k in nums]
    args = ((x[0], x[1]), x[2])  # a vector and a scalar, as forward passes
    want = _outcome(ref_eval, e, args, domain)
    assert _outcome(eval_expr, e, args, domain) == want
    assert _outcome(eval_expr, e, args, domain) == want  # staged already


def test_a_staged_expression_pickles_as_its_fields():
    e = Add(Proj(1, Arg(0)), Const(3, 4))
    eval_expr(e, ((Q.zero, Q.one),), Q)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and repr(back) == repr(e)
    assert as_fraction(eval_expr(back, ((Q.zero, Q.one),), Q)) == Fraction(7, 4)


MIX = [("maj", None), ("maj-q", None), ("maj-ln", None), ("hard-demo", None),
       ("prime-universal", "parity"), ("resource-bounded", "bigram11")]


def test_each_expression_node_is_staged_once(monkeypatch):
    # a cache keyed by value would stage equal nodes once, one keyed by
    # a reused id would hand a node another's function
    staged = []
    real = machine._stage
    monkeypatch.setattr(machine, "_stage",
                        lambda e: staged.append(e) or real(e))
    specs = [builtin_spec(name, pred) for name, pred in MIX]
    rng = random.Random("staged once")
    for k in range(600):
        recognize(specs[k % len(specs)], format(rng.getrandbits(32), "032b"))
    nodes, todo = {}, [spec.embedding for spec in specs]
    todo += [e for spec in specs for layer in spec.layers
             for e in (layer.activation, *(h.scorer for h in layer.heads))]
    while todo:
        e = todo.pop()
        nodes[id(e)] = e
        todo.extend(e.args)
    assert len(set(nodes.values())) < len(nodes)  # some nodes are equal
    assert sorted(map(id, staged)) == sorted(nodes)


# ---------------------------------------------------------------------------
# tiny hand-built transformers


def mean_majority_spec(datatype):
    """width 2, single uniform/saturated head; accepts iff #1 > #0."""
    embed = Tup(Proj(1, Arg(0)), Const(1))
    head = HeadSpec(AttentionKind.SATURATED, Const(0))
    act = Tup(Proj(0, Arg(1)), Proj(1, Arg(1)))
    return TransformerSpec(("0", "1"), datatype, 2, embed,
                           (LayerSpec((head,), act),),
                           ((2, 1), (-1, 1)), (0, 1), {}, "maj")


def first_token_spec():
    """HARD head pulls position 1; accepts iff the word starts with 1."""
    embed = Tup(Proj(1, Arg(0)), Arg(1))
    head = HeadSpec(AttentionKind.HARD, Neg(Proj(1, Arg(1))))
    act = Tup(Proj(0, Arg(1)), Proj(1, Arg(1)))
    return TransformerSpec(("0", "1"), "F", 2, embed,
                           (LayerSpec((head,), act),),
                           ((2, 1), (0, 1)), (-1, 1), {}, "first-token")


def all_words(n):
    return ["".join("1" if (m >> k) & 1 else "0" for k in range(n))
            for m in range(2 ** n)]


@pytest.mark.parametrize("datatype", ["F", "Q"])
def test_mean_majority_recognizes(datatype):
    spec = mean_majority_spec(datatype)
    for n in range(1, 7):
        for w in all_words(n):
            assert recognize(spec, w) == majority01(w), (datatype, w)


def test_first_token_spec_hard_attention():
    spec = first_token_spec()
    for n in range(1, 7):
        for w in all_words(n):
            assert recognize(spec, w) == (w[0] == "1"), w


def test_run_trace_contents():
    spec = mean_majority_spec("F")
    t = run(spec, "110")
    assert t.n == 3
    # layer 0 embeddings: (is_one, 1)
    assert [as_fraction(c) for c in t.values[0][0]] == [1, 1]
    assert [as_fraction(c) for c in t.values[0][2]] == [0, 1]
    # constant scorer ties everyone
    assert t.ties[0][0][1] == (0, 1, 2)
    # head output: (ones * 1/F3, n * 1/F3) = (2/4, 3/4)
    b = t.head_out[0][0][0]
    assert [as_fraction(c) for c in b] == [Fraction(2, 4), Fraction(3, 4)]
    assert t.values[1][0] == b
    assert t.layer_max_size[0] >= 1 and len(t.layer_max_size) == 2


def test_run_finds_each_tie_set_once(monkeypatch):
    import satcirc.machine as M

    calls = []
    monkeypatch.setattr(M, "max_set", lambda row, domain: calls.append(
        len(row)) or max_set(row, domain))
    t = run(mean_majority_spec("F"), "1101")
    assert calls == [4] * 4 and t.ties[0][0][2] == (0, 1, 2, 3)
    calls.clear()
    assert recognize(mean_majority_spec("F"), "1101")
    assert calls == [4]


def test_run_rejects_bad_input():
    spec = mean_majority_spec("F")
    with pytest.raises(MachineError):
        run(spec, "")
    with pytest.raises(MachineError):
        run(spec, "102")


def test_zero_layer_spec_classifies_embedding():
    # no layers: the classifier reads the embedding at position 1
    spec = TransformerSpec(("0", "1"), "Q", 2,
                           Tup(Proj(1, Arg(0)), Arg(1)), (),
                           ((1, 1), (0, 1)), (0, 1), {}, "embed-only")
    t = run(spec, "10")
    assert len(t.values) == 1
    assert recognize(spec, "10") and not recognize(spec, "01")


def test_recognize_is_lazy_at_final_layer(monkeypatch):
    # recognize evaluates every position below the last layer and
    # position 1 in it; its verdict is the full trace's
    import satcirc.machine as M

    calls = []
    monkeypatch.setattr(M, "max_set", lambda row, domain: calls.append(
        len(row)) or max_set(row, domain))
    spec = two_layer_spec()
    for w in ("1011", "0110"):
        calls.clear()
        t = run(spec, w)
        assert calls == [4] * 8
        calls.clear()
        got = recognize(spec, w)
        assert calls == [4] * 5
        cls = F.affine(spec.classifier_w, spec.classifier_b, t.values[-1][0])
        assert got == (F.cmp(cls, F.zero) > 0)


def test_classifier_value_exact():
    spec = mean_majority_spec("Q")
    # "110": mean 2/3; 2*(2/3) - 1 = 1/3
    assert as_fraction(classifier_value(spec, "110")) == Fraction(1, 3)


def test_run_determinism():
    spec = mean_majority_spec("F")
    assert run(spec, "10110") == run(spec, "10110")


# ---------------------------------------------------------------------------
# n-ary sums and shared tables


@pytest.mark.parametrize("dt", ["F", "Q"])
@settings(max_examples=300, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(-(1 << 70), 1 << 70),
                                st.integers(0, 40),
                                st.integers(1, 1 << 40)), max_size=12))
def test_domain_sum_is_a_left_fold_of_add(dt, terms):
    domain = domain_of(dt)
    xs = [flt(num, e) if dt == "F" else rat(num, den)
          for num, e, den in terms]
    want = functools.reduce(domain.add, xs, domain.zero)
    got = domain.sum(xs)
    assert got == want and repr(got) == repr(want)
    assert as_fraction(got) == sum(map(as_fraction, xs), Fraction(0))


def test_relu():
    assert Q.relu(rat(-3, 4)) == rat(0) == Q.relu(rat(0))
    assert Q.relu(rat(3, 4)) == rat(3, 4)
    assert F.relu(flt(-5, 2)) == flt(0) == F.relu(flt(0))
    assert F.relu(flt(5, 2)) == flt(5, 2)


def two_layer_spec():
    """Layer 0 averages (token, position); layer 1's hard head scores a
    key by (mean token) * position, which depends on the whole word."""
    embed = Tup(Proj(1, Arg(0)), Arg(1))
    l0 = LayerSpec((HeadSpec(AttentionKind.UNIFORM, Const(0)),),
                   Tup(Proj(0, Arg(1)), Proj(1, Arg(0))))
    l1 = LayerSpec((HeadSpec(AttentionKind.HARD,
                             Mul(Proj(0, Arg(1)), Proj(1, Arg(1)))),),
                   Tup(Proj(0, Arg(1)), Proj(1, Arg(1))))
    return TransformerSpec(("0", "1"), "F", 2, embed, (l0, l1),
                           ((0, 1), (1, 1)), (-2, 1), {}, "two-layer")


def guarded_spec(where, calls):
    """Majority over (token, position) vectors through a host callback
    that refuses token 0 at position 3, called in the embedding or in the
    layer-0 scorer; calls records the position of every callback."""
    def guard(domain, tok, pos):
        calls.append(pos)
        if domain.is_zero(tok) and domain.cmp(pos, domain.from_int(3)) == 0:
            raise MachineError(f"{where} refuses token 0 at position 3")
        return tok

    tok, pos = Proj(1, Arg(0)), Arg(1)
    if where == "embedding":
        embed, scorer = Tup(Host("guard", tok, pos), pos), Const(0)
    else:
        embed = Tup(tok, pos)
        scorer = Mul(Const(0), Host("guard", Proj(0, Arg(1)),
                                    Proj(1, Arg(1))))
    head = HeadSpec(AttentionKind.SATURATED, scorer)
    act = Tup(Proj(0, Arg(1)), Proj(1, Arg(1)))
    return TransformerSpec(("0", "1"), "F", 2, embed,
                           (LayerSpec((head,), act),),
                           ((2, 1), (0, 1)), (-1, 1), {"guard": guard}, where)


def outcome(spec, w):
    """The verdict and full trace of w, or the machine's error text."""
    try:
        return recognize(spec, w), repr(run(spec, w))
    except MachineError as e:
        return str(e)


_rng = random.Random(17)
MIXED_WORDS = ["".join(_rng.choice("01") for _ in range(_rng.randint(1, 6)))
               for _ in range(50)]
MIXED_WORDS += _rng.sample(MIXED_WORDS, 25)  # repeated words


@pytest.mark.parametrize("make", [
    lambda: mean_majority_spec("F"), lambda: mean_majority_spec("Q"),
    first_token_spec, two_layer_spec,
    lambda: guarded_spec("embedding", []), lambda: guarded_spec("scorer", []),
])
def test_shared_tables_change_no_verdict_trace_or_error(make):
    spec = make()
    alone = [outcome(spec, w) for w in MIXED_WORDS]
    with shared_tables(spec):
        inside = [outcome(spec, w) for w in MIXED_WORDS]
    assert inside == alone
    if spec.hosts:  # the guard refuses some words, and later ones pass
        errors = [k for k, o in enumerate(alone) if isinstance(o, str)]
        assert errors and not all(isinstance(o, str)
                                  for o in alone[errors[0]:])


def test_shared_tables_leave_later_layers_alone():
    # layer 1 picks the last position iff the word holds a 1, so it
    # accepts iff 1 in w and |w| >= 3; a table keyed by tokens and
    # positions alone cannot give layer 1 that
    spec = two_layer_spec()
    want = ["1" in w and len(w) >= 3 for w in MIXED_WORDS]
    assert [recognize(spec, w) for w in MIXED_WORDS] == want
    with shared_tables(spec):
        assert [recognize(spec, w) for w in MIXED_WORDS] == want


def test_shared_tables_serve_only_their_spec():
    maj, first, two = (mean_majority_spec("F"), first_token_spec(),
                       two_layer_spec())
    alone = [outcome(s, w) for w in MIXED_WORDS for s in (first, maj, two)]
    with shared_tables(first):
        inside = [outcome(s, w) for w in MIXED_WORDS
                  for s in (first, maj, two)]
    assert inside == alone
    calls = []
    a, b = guarded_spec("embedding", calls), guarded_spec("embedding", calls)
    with shared_tables(a):
        for spec in (b, b, a, a):
            recognize(spec, "0110")
    assert len(calls) == 4 + 4 + 4 + 0


def test_shared_tables_compute_once_per_key_and_reset_after_an_error():
    calls = []
    spec = guarded_spec("embedding", calls)
    with shared_tables(spec):
        for w in ("0110", "0110", "1110", "01"):
            recognize(spec, w)
    assert len(calls) == 4 + 0 + 1 + 0
    calls.clear()
    with pytest.raises(MachineError,
                       match="^embedding refuses token 0 at position 3$"):
        with shared_tables(spec):
            recognize(spec, "0111")
            recognize(spec, "110")
    assert len(calls) == 4 + 2
    calls.clear()
    for _ in range(2):
        recognize(spec, "0111")
    assert len(calls) == 8


# ---------------------------------------------------------------------------
# the verdict path and the constant cache


VERDICT_SPECS = [("maj", None), ("maj-q", None), ("maj-ln", None),
                 ("hard-demo", None), ("prime-universal", "parity"),
                 ("resource-bounded", "bigram11")]
_vrng = random.Random(29)
N32_WORDS = [format(_vrng.getrandbits(32), "032b") for _ in range(200)]


@pytest.mark.parametrize("name, pred", VERDICT_SPECS)
def test_the_verdict_path_equals_the_trace_path(name, pred):
    spec = builtin_spec(name, pred)
    words = [w for n in range(1, 7) for w in all_words(n)] + N32_WORDS
    zero = spec.domain.zero

    def both(w):
        traced = spec.domain.affine(spec.classifier_w, spec.classifier_b,
                                    run(spec, w).values[-1][0])
        assert classifier_value(spec, w) == traced, w
        return recognize(spec, w), spec.domain.cmp(traced, zero) > 0

    alone = [both(w) for w in words]
    with shared_tables(spec):
        inside = [both(w) for w in words]
    assert inside == alone
    assert all(got == want for got, want in alone)


def _select_spec():
    embed = Tup(Select(Const(2), Const(1), Const(0)), Arg(1))
    return TransformerSpec(("0", "1"), "F", 2, embed, (), ((1, 1), (0, 1)),
                           (0, 1), {}, "bad-select")


def _narrow_activation_spec():
    head = HeadSpec(AttentionKind.SATURATED, Const(1))
    return TransformerSpec(("0", "1"), "F", 2, Tup(Proj(1, Arg(0)), Arg(1)),
                           (LayerSpec((head,), Tup(Proj(0, Arg(1)))),),
                           ((1, 1), (0, 1)), (0, 1), {}, "narrow")


@pytest.mark.parametrize("alphabet, msg", [
    (("", "1"), "alphabet symbols must be one character each, got ''"),
    (("ab", "c"), "alphabet symbols must be one character each, got 'ab'"),
    (("0", "0"), "alphabet must be nonempty and duplicate-free"),
])
def test_spec_refuses_a_bad_alphabet(alphabet, msg):
    # a word is read one character per token, so a longer symbol (or an
    # empty one) could never be a token
    with pytest.raises(MachineError) as exc:
        dataclasses.replace(mean_majority_spec("F"), alphabet=alphabet)
    assert str(exc.value) == msg


@pytest.mark.parametrize("make, w, msg", [
    (lambda: mean_majority_spec("F"), "",
     "empty input (languages here are over nonempty strings)"),
    (lambda: mean_majority_spec("Q"), "0120",
     "token '2' not in alphabet ('0', '1')"),
    (_select_spec, "01", "select condition must be 0 or 1"),
    (_narrow_activation_spec, "01",
     "layer 0 activation must produce a 2-tuple, got a 1-tuple"),
])
def test_run_and_recognize_refuse_alike(make, w, msg):
    spec = make()
    for fn in (run, recognize, classifier_value):
        with pytest.raises(MachineError) as exc:
            fn(spec, w)
        assert str(exc.value) == msg, fn


def _named_constants(spec, n):
    """The keys the spec and length n may name: expression constants,
    affine and classifier coefficients and biases, positions 1..n and
    the weights 1/k for k = 1..n."""
    keys = {(i, 1) for i in range(1, n + 1)} | {("1/", k)
                                                for k in range(1, n + 1)}
    keys |= set(spec.classifier_w) | {spec.classifier_b}

    def walk(e):
        if e.op == "const":
            keys.add(e.data)
        if e.op == "affine":
            keys.update(e.data[0])
            keys.add(e.data[1])
        for a in e.args:
            walk(a)

    walk(spec.embedding)
    for layer in spec.layers:
        walk(layer.activation)
        for head in layer.heads:
            walk(head.scorer)
    return keys


@pytest.mark.parametrize("name, pred", [("resource-bounded", "bigram11"),
                                        ("prime-universal", "parity")])
def test_the_constant_cache_stays_bounded_and_keeps_no_word_value(name, pred):
    base = builtin_spec(name, pred)
    returned = []

    def recording(fn):
        def host(*args):
            out = fn(*args)
            returned.append(out)
            return out
        return host

    spec = dataclasses.replace(
        base, hosts={k: recording(fn) for k, fn in base.hosts.items()})
    domain = spec.domain
    domain.consts.clear()
    rng = random.Random(41)
    sizes = []
    for count in (10, 500):
        for _ in range(count):
            recognize(spec, format(rng.getrandbits(32), "032b"))
        sizes.append(len(domain.consts))
    assert sizes[0] == sizes[1] <= domain.CONST_CAP
    assert set(domain.consts) <= _named_constants(spec, 32)
    assert not any((1 << k, 1) in domain.consts for k in range(6, 32))
    kept = {id(v) for v in domain.consts.values()}
    assert returned and not any(id(v) in kept for v in returned)


def test_the_constant_cache_starts_over_when_full():
    domain = domain_of("Q")
    domain.consts.clear()
    for k in range(domain.CONST_CAP + 5):
        assert as_fraction(domain.const(k, 3)) == Fraction(k, 3)
    assert len(domain.consts) == 5
    assert domain.const(2, 4) == rat(1, 2) and len(domain.consts) == 6


def test_constant_work_per_word_is_pinned(monkeypatch):
    spec = builtin_spec("maj")
    rng = random.Random(3)
    words = [format(rng.getrandbits(16), "016b") for _ in range(300)]
    spec.domain.consts.clear()
    calls = []
    make = Flt.make
    monkeypatch.setattr(Flt, "make", staticmethod(
        lambda *a: calls.append(1) or make(*a)))
    with shared_tables(spec):
        for w in words:
            recognize(spec, w)
    assert len(calls) / len(words) <= 9.1


# ---------------------------------------------------------------------------
# instrumentation


def test_instrument_sizes_envelope_and_head_bounds():
    spec = mean_majority_spec("F")
    rng = random.Random(5)
    inputs = {n: ["".join(rng.choice("01") for _ in range(n))
                  for _ in range(4)]
              for n in (4, 8, 16, 32)}
    rep = instrument_sizes(spec, inputs)
    assert [r.n for r in rep.rows] == [4, 8, 16, 32]
    for hb in rep.head_bounds:
        assert hb.measured <= hb.bound
        assert hb.bound == 4 * 2 * hb.z + 2 * math.log2(hb.n) + 1
    # the line is fitted on n = 4, 8 and judges n = 16, 32; growth is
    # judged on the words given: these four miss the widest value at
    # n = 8 (5 bits, not 9), so the fit falls and both larger n are over
    assert [r.overall for r in rep.rows] == [7, 5, 11, 13]
    assert (rep.a, rep.b) == (11, -2) and rep.excess == (8, 12)
    assert not rep.ok
    wide = {n: default_samples(spec, n) for n in (4, 8, 16, 32)}
    rep = instrument_sizes(spec, wide)
    assert [r.overall for r in rep.rows] == [7, 9, 11, 13]
    assert (rep.a, rep.b) == (3, 2) and rep.excess == (0, 0) and rep.ok


def test_instrument_rejects_length_mismatch():
    spec = mean_majority_spec("F")
    with pytest.raises(MachineError):
        instrument_sizes(spec, {3: ["01"]})


def test_instrument_refuses_an_n_with_no_words():
    spec = mean_majority_spec("F")
    with pytest.raises(MachineError, match="got no inputs of length 4"):
        instrument_sizes(spec, {2: ["01"], 4: []})


@pytest.mark.parametrize("name", ["maj", "hard-demo"])
def test_run_evaluates_every_position(name):
    # run keeps no partial trace: every layer holds all n positions
    spec, w = builtin_spec(name), "10110"
    t = run(spec, w)
    layers, heads, n = len(spec.layers), spec.n_heads, len(w)
    assert len(t.values) == layers + 1 == len(t.layer_max_size)
    assert all(len(v) == n and None not in v for v in t.values)
    for per_layer in (t.scores, t.ties, t.head_out):
        assert len(per_layer) == layers
        assert all(len(h) == heads for h in per_layer)
        assert all(len(h) == n and None not in h
                   for layer in per_layer for h in layer)
    assert all(len(row) == n for layer in t.scores for h in layer
               for row in h)


def test_elementwise_profile_saturated():
    rng = random.Random(11)
    rows = []
    for _ in range(60):
        n = rng.randint(1, 8)
        rows.append(tuple(flt(rng.randint(-7, 7), rng.randint(0, 2))
                          for _ in range(n)))
    # a weight depends on the whole row, so its input size is the row's
    # largest score
    pairs = [(max(map(size, row)), size(wt)) for row in rows
             for wt in attend(AttentionKind.SATURATED, row, F)]
    assert size_factor(pairs, 1)[0] <= 8


# ---------------------------------------------------------------------------
# spec files


MAJ_TEXT = """
; majority over the dyadic floats
(transformer
  (name maj)
  (alphabet 0 1)
  (datatype F)
  (width 2)
  (embedding (tup (tok 2) (const 1)))
  (layer
    (head saturated (const 0))
    (activation (tup (head 1 1) (head 1 2))))
  (classifier (w 2 -1) (b 0)))
"""


def test_parse_spec_recognizes_majority():
    spec = parse_spec(MAJ_TEXT)
    assert spec.name == "maj" and spec.datatype == "F" and spec.width == 2
    assert spec.layers[0].heads[0].attention is AttentionKind.SATURATED
    for w in all_words(5):
        assert recognize(spec, w) == majority01(w)


def test_parse_spec_matches_hand_built():
    spec = parse_spec(MAJ_TEXT)
    hand = mean_majority_spec("F")
    for w in ("1", "10", "1101", "00110"):
        assert run(spec, w) == run(hand, w)


def test_parse_expr_sugar_and_numbers():
    text = """
    (transformer
      (alphabet a b)
      (datatype Q)
      (width 2)
      (embedding (tup (tok 1) (pos)))
      (layer
        (head hard (add (q 1) (neg (key 2)) 3/4))
        (activation (select (gt (v 1) 1/2^1) (tup 1 (head 1 2)) (arg 1))))
      (classifier (w 1 -1/3) (b -2)))
    """
    spec = parse_spec(text)
    scorer = spec.layers[0].heads[0].scorer
    # (q 1) -> proj 0 of arg 0; (key 2) -> proj 1 of arg 1; an add of
    # three or more operands is one sum, an affine form with unit weights
    assert scorer.op == "affine" and len(scorer.args) == 3
    assert scorer.data == (((1, 1),) * 3, (0, 1))
    assert spec.classifier_w == ((1, 1), (-1, 3))
    assert spec.classifier_b == (-2, 1)
    run(spec, "ab")  # evaluates without error


@pytest.mark.parametrize("dtype", ["F", "Q"])
def test_nary_add_runs_as_its_chain(dtype):
    """An (add ...) of k >= 3 operands gives the values of the chain of
    binary adds it stood for, on every word up to n = 6."""
    terms = ["(tok 2)", "(pos)", "-3/4", "(neg (tok 1))", "(mul (pos) 1/2)",
             "5/2^3", "(tok 2)"]
    scores = ["(q 1)", "(key 1)", "(neg (key 2))"]

    def spec(add):
        return parse_spec(f"""
        (transformer (alphabet a b) (datatype {dtype}) (width 2)
          (embedding (tup {add(terms)} (pos)))
          (layer (head saturated {add(scores)}) (activation (arg 1)))
          (classifier (w 1 -1) (b 0)))""")

    flat = spec(lambda xs: f"(add {' '.join(xs)})")
    chain = spec(lambda xs: functools.reduce(
        lambda acc, x: f"(add {acc} {x})", xs))
    assert [spec.embedding.args[0].op for spec in (flat, chain)] == [
        "affine", "add"]
    for n in range(1, 7):
        for w in map("".join, itertools.product("ab", repeat=n)):
            assert run(flat, w) == run(chain, w), w


@pytest.mark.parametrize("bad, msg", [
    ("(transformer (alphabet 0 1))", "missing"),
    ("(machine)", "transformer"),
    ("(transformer (alphabet 0 1) (datatype F) (width 2) "
     "(embedding (tup (tok 1) (pos)))", "unbalanced"),
    ("(transformer (alphabet 0 1) (datatype F) (width 2) "
     "(embedding (frob 1)) (layer (head hard (const 0)) "
     "(activation (arg 1))) (classifier (w 1 1) (b 0)))", "unknown expression"),
    ("(transformer (alphabet 0 1) (datatype F) (width 3) "
     "(embedding (tup (tok 1) (pos) (pos))) "
     "(layer (head hard (const 0)) (head hard (const 0)) "
     "(activation (arg 1))) (classifier (w 1 1 1) (b 0)))", "multiple"),
    ("(transformer (alphabet 0 1) (datatype F) (width 2) (embedding (pos)) "
     "(layer (head hard) (activation (arg 1))) "
     "(classifier (w 1 1) (b 0)))", r"\(head ...\) wants 2 operands"),
    ("(transformer (alphabet 0 1) (datatype F) (width 2) (embedding) "
     "(layer (head hard (const 0)) (activation (arg 1))) "
     "(classifier (w 1 1) (b 0)))", "at least 1 operand, got 0"),
    ("(transformer (alphabet 0 1) (datatype F) (width 2) (embedding (pos)) "
     "(layer (head hard (const 0)) (activation (arg 1))) "
     "(classifier (w 1 1) (b)))", r"\(b ...\) wants 1 operand, got 0"),
    ("(transformer (alphabet 0 (1)) (datatype F) (width 2) (embedding (pos)) "
     "(layer (head hard (const 0)) (activation (arg 1))) "
     "(classifier (w 1 1) (b 0)))", "alphabet symbols must be atoms"),
    ("(transformer (alphabet 0 1) (datatype F) (width (2)) (embedding (pos)) "
     "(layer (head hard (const 0)) (activation (arg 1))) "
     "(classifier (w 1 1) (b 0)))", "width must be a count"),
    ("(transformer (alphabet 0 1) (datatype F) (width 0) (embedding (tup)) "
     "(layer (head hard (const 0)) (activation (tup))) "
     "(classifier (w) (b 1)))", "width must be at least 1, got 0"),
    ("(transformer ((name)) (alphabet 0 1))", "bad section"),
])
def test_parse_spec_errors(bad, msg):
    with pytest.raises(MachineError, match=msg):
        parse_spec(bad)
