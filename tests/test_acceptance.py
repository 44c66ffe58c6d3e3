"""The acceptance gate: twelve scoped claims, one test each.

A conftest hook prints one ACCEPTANCE line per criterion (PASS/FAIL,
plus the headline number where one exists) straight to the terminal.
Criteria with explicit time budgets assert them. Circuits for the
majority family are compiled once and shared across criteria 2-4.
"""

import itertools
import math
import random
import time
from functools import lru_cache

from satcirc.bitnum import (Flt, flt, flt_add, flt_cmp, flt_div, flt_mul,
                            flt_neg, flt_sqrt, rat, rat_add, rat_mul,
                            rat_neg, size, UNat)
from satcirc.builtins import (build_hard_demo, build_majority, builtin_spec,
                              build_prime_universal, build_resource_bounded,
                              primes, pu_reconstruct, rb_reconstruct)
from satcirc.circuit import eval_batch, family_analyze, metrics
from satcirc.compile import (_dnf_wires, compile_hard, compile_saturated,
                             default_samples, encode_word)
from satcirc.machine import DOMAIN_F, instrument_sizes, recognize, run
from satcirc.synth import Builder

import oracles

CRITERIA = {
    "test_c01_machine_majority_exhaustive_to_n12":
        "machine majority == #1 > #0 for all words n<=12",
    "test_c02_compiled_majority_equals_machine":
        "compiled majority == machine (exhaustive n<=10, 1000 random "
        "words at n=16,32,64)",
    "test_c03_depth_constant_across_n":
        "one fixed circuit depth at n=4,8,16,32,64",
    "test_c04_size_growth_slope":
        "log-log size slope in (0, 4] over n=8..64",
    "test_c05_hard_attention_compiles_without_thresholds":
        "hard-attention demo: zero threshold gates, exhaustive n<=8",
    "test_c06_lookup_synthesis_depth_and_size":
        "200 random lookup tables: depth <= 2 (within the lemma's 3), "
        "size <= (2^c+c+1)*d",
    "test_c07_float_sums_are_exact_and_small":
        "10^4 random float sums: exact value, size within 4cz+2log2(n)+1 "
        "at c <= 2",
    "test_c08_value_sizes_grow_logarithmically":
        "majority value sizes to n=512 stay within 1 bit of the "
        "a + b*log2(n) line fitted at n<=32 (plus a failing linear control)",
    "test_c09_float_ops_match_rational_oracles":
        "10^4 float op results == rational oracles; division is the "
        "reciprocal rule; (1/3)*3 == 3/4 over F",
    "test_c10_universality_constructions_reconstruct_exactly":
        "prime-reciprocal parity and resource-bounded substring machines: "
        "exhaustive n<=10 with exact per-trace reconstruction",
    "test_c11_primitives_are_size_preserving":
        "arithmetic primitives stay within c*|x| up to 128-bit operands "
        "(plus a failing control)",
    "test_c12_out_of_scope_claims_are_pointed_elsewhere":
        "asymptotic/unbounded-n claims stand in as the finite families "
        "of c03, c04, c08",
}
DETAILS: dict = {}  # test name -> headline number, filled while running


MAJ = build_majority("F")


@lru_cache(maxsize=None)
def maj_circuit(n: int):
    return compile_saturated(MAJ, n)


def all_words(alpha, n):
    return ["".join(t) for t in itertools.product(alpha, repeat=n)]


def triple(x: Flt):
    return (x.sign, x.p.value, x.e)


# ---------------------------------------------------------------------------


def test_c01_machine_majority_exhaustive_to_n12():
    t0 = time.time()
    for n in range(1, 13):
        for w in all_words("01", n):
            assert recognize(MAJ, w) == oracles.majority01(w), w
    elapsed = time.time() - t0
    DETAILS["test_c01_machine_majority_exhaustive_to_n12"] = \
        f"8190 words, {elapsed:.1f}s"
    assert elapsed < 60


def test_c02_compiled_majority_equals_machine():
    t0 = time.time()
    tested = 0
    for n in range(1, 11):
        words = all_words("01", n)
        got = eval_batch(maj_circuit(n), [encode_word(MAJ, w) for w in words])
        for w, out in zip(words, got):
            assert bool(out[0]) == recognize(MAJ, w), w
        tested += len(words)
    rng = random.Random(0xC02)
    for n in (16, 32, 64):
        words = ["".join(rng.choice("01") for _ in range(n))
                 for _ in range(1000)]
        got = eval_batch(maj_circuit(n), [encode_word(MAJ, w) for w in words])
        for w, out in zip(words, got):
            assert bool(out[0]) == recognize(MAJ, w), w
        tested += len(words)
    elapsed = time.time() - t0
    DETAILS["test_c02_compiled_majority_equals_machine"] = \
        f"{tested} words, {elapsed:.0f}s"
    assert elapsed < 600


def test_c03_depth_constant_across_n():
    depths = {n: metrics(maj_circuit(n)).depth for n in (4, 8, 16, 32, 64)}
    assert len(set(depths.values())) == 1, depths
    DETAILS["test_c03_depth_constant_across_n"] = \
        f"depth {depths[4]} everywhere"


def test_c04_size_growth_slope():
    fam = family_analyze(maj_circuit, (8, 16, 32, 64))
    table = " ".join(f"{r.n}:{r.size}" for r in fam.rows)
    DETAILS["test_c04_size_growth_slope"] = \
        f"sizes {table}, slope {fam.slope:.3f}"
    assert 0 < fam.slope <= 4, fam.slope


def test_c05_hard_attention_compiles_without_thresholds():
    spec = build_hard_demo()
    for n in range(1, 9):
        c = compile_hard(spec, n)
        assert metrics(c).theta_count == 0
        words = all_words("01", n)
        got = eval_batch(c, [encode_word(spec, w) for w in words])
        for w, out in zip(words, got):
            assert bool(out[0]) == recognize(spec, w), w


def test_c06_lookup_synthesis_depth_and_size():
    rng = random.Random(0xC06)
    for _ in range(200):
        c_in = rng.randint(1, 10)
        d = rng.randint(1, 4)
        table = tuple(tuple(rng.randint(0, 1) for _ in range(d))
                      for _ in range(1 << c_in))
        b = Builder(c_in)
        outs = _dnf_wires(b, [b.input(i) for i in range(c_in)], table)
        circ = b.build(outs)
        m = metrics(circ)
        assert m.depth <= 2, (c_in, d, m.depth)
        assert m.size <= ((1 << c_in) + c_in + 1) * d, (c_in, d, m.size)
        rows = [[(x >> t) & 1 for t in range(c_in)] for x in range(1 << c_in)]
        assert eval_batch(circ, rows) == list(table)


def test_c07_float_sums_are_exact_and_small():
    rng = random.Random(0xC07)
    worst_c = 0.0
    for _ in range(10_000):
        n = rng.randint(1, 64)
        xs = []
        for _ in range(n):
            p = rng.getrandbits(rng.randint(1, 11))
            e = rng.randint(0, 10)
            v = Flt.make(p if rng.random() < 0.5 else -p, e)
            assert size(v) <= 24
            xs.append(v)
        total = xs[0]
        frac = oracles.frac_of_flt(*triple(xs[0]))
        for x in xs[1:]:
            total = flt_add(total, x)
            frac += oracles.frac_of_flt(*triple(x))
        assert oracles.frac_of_flt(*triple(total)) == frac
        z = max(size(x) for x in xs)
        need = (size(total) - 2 * math.log2(n) - 1) / (4 * z)
        worst_c = max(worst_c, need)
    DETAILS["test_c07_float_sums_are_exact_and_small"] = \
        f"measured c = {worst_c:.3f}"
    assert worst_c <= 2


def test_c08_value_sizes_grow_logarithmically():
    # instrument_sizes fits a + b*log2(n) on the smaller half of the n
    # values; every larger n must stay within 1 bit of that line
    def report(spec, ns):
        return instrument_sizes(spec, {
            n: default_samples(spec, n, count=4, seed=8) for n in ns})

    rep = report(MAJ, (8, 16, 32, 64, 128, 256, 512))
    DETAILS["test_c08_value_sizes_grow_logarithmically"] = \
        f"fit {rep.a:.2f} + {rep.b:.2f}*log2(n) on n=8..32, n=64..512 at " \
        f"most {max(rep.excess):+.2f} bits above it"
    assert len(rep.excess) == 4 and rep.ok
    # hard-demo grows as 3 + 2*log2(n): a nonzero slope passes too
    hard = report(build_hard_demo(), (8, 16, 32, 64))
    assert len(hard.excess) == 2 and hard.ok
    # control: resource-bounded's values grow linearly (9, 17, 33, 65 bits)
    rb = report(builtin_spec("resource-bounded", "bigram11"), (4, 8, 16, 32))
    assert min(rb.excess) > 1 and not rb.ok


def test_c09_float_ops_match_rational_oracles():
    rng = random.Random(0xC09)
    for _ in range(10_000):
        def draw():
            p = rng.getrandbits(rng.randint(1, 20))
            return Flt.make(p if rng.random() < 0.5 else -p,
                            rng.randint(0, 12))
        x, y = draw(), draw()
        assert triple(flt_add(x, y)) == oracles.oracle_flt_add(
            triple(x), triple(y))
        assert triple(flt_mul(x, y)) == oracles.oracle_flt_mul(
            triple(x), triple(y))
        if not y.is_zero():
            assert triple(flt_div(x, y)) == oracles.oracle_flt_div(
                triple(x), triple(y))
        fx = oracles.frac_of_flt(*triple(x))
        assert (flt_cmp(x, y) > 0) == (fx > oracles.frac_of_flt(*triple(y)))
        assert oracles.frac_of_flt(*triple(flt_neg(x))) == -fx
        assert oracles.frac_of_flt(*triple(DOMAIN_F.relu(x))) == max(fx, 0)
    third = flt_div(flt(1), flt(3))
    back = flt_mul(third, flt(3))
    assert back == flt(3, 2) != flt(1)
    DETAILS["test_c09_float_ops_match_rational_oracles"] = \
        "(1/3)*3 = 3/4 confirmed"


def test_c10_universality_constructions_reconstruct_exactly():
    pu = build_prime_universal(oracles.parity)
    table = primes(64)
    for n in range(1, 11):
        for w in all_words("01", n):
            assert recognize(pu, w) == oracles.parity(w), w
            t = run(pu, w)
            b1 = t.head_out[0][0][0][0]  # S/n over Q
            num, den = b1.as_pair()
            assert pu_reconstruct(rat(num * n, den), table, n) == w
    for datatype in ("Q", "F"):
        rb = build_resource_bounded(oracles.contains_bigram11, datatype)
        for n in range(1, 11):
            for w in all_words("01", n):
                assert recognize(rb, w) == oracles.contains_bigram11(w)
                t = run(rb, w)
                wsum = oracles.rb_weight_sum(t, datatype)
                assert rb_reconstruct(wsum, n) == w
                assert wsum == sum(1 << i for i, ch in enumerate(w)
                                   if ch == "1")


def test_c11_primitives_are_size_preserving():
    rng = random.Random(0xC11)

    def rand_u(bits):
        return UNat.from_int(rng.getrandbits(rng.randint(1, bits)))

    def rand_f(bits):
        p = rng.getrandbits(rng.randint(1, bits))
        return Flt.make(p if rng.random() < 0.5 else -p,
                        rng.randint(0, bits // 2))

    def rand_r(bits):
        num = rng.getrandbits(rng.randint(1, bits))
        den = rng.getrandbits(rng.randint(1, bits)) + 1
        return rat(num if rng.random() < 0.5 else -num, den)

    def factor(f, plan):
        # the least c with |f(args)| <= c*|args| where |args| >= 4; one
        # argument is sized alone, two by the tuple rule
        return oracles.size_factor(
            [(size(args[0]) if len(args) == 1 else size(args),
              size(f(*args))) for args in plan], 4)

    # unsigned add, mul and compare are int operations on the values
    binary = [(lambda a, b: UNat.from_int(a.value + b.value), rand_u),
              (lambda a, b: UNat.from_int(a.value * b.value), rand_u),
              (lambda a, b: UNat.from_int(int(a.value > b.value)), rand_u),
              (flt_add, rand_f), (flt_mul, rand_f),
              (rat_add, rand_r), (rat_mul, rand_r)]
    for f, gen in binary:
        plan = [(gen(64), gen(64)) for _ in range(400)]
        assert all(size(v) <= 131 for args in plan for v in args)
        c, worst = factor(f, plan)
        assert c <= 8, (f, c, worst)
    unary = [(flt_neg, rand_f), (DOMAIN_F.relu, rand_f),
             (flt_sqrt, lambda b: Flt.make(
                 rng.getrandbits(rng.randint(1, b)),
                 2 * rng.randint(0, b // 4))),
             (rat_neg, rand_r)]
    for f, gen in unary:
        plan = [(gen(128),) for _ in range(400)]
        c, worst = factor(f, plan)
        assert c <= 8, (f, c, worst)
    div_plan = []
    while len(div_plan) < 400:
        x, y = rand_f(64), rand_f(64)
        if not y.is_zero():
            div_plan.append((x, y))
    c, worst = factor(flt_div, div_plan)
    assert c <= 8, (c, worst)

    def unary_blowup(k: UNat):
        return UNat.from_int((1 << (k.value + 1)) - 1)
    control, _ = factor(
        unary_blowup, [(UNat.from_int(v),) for v in (3, 17, 120, 900, 4000)])
    assert control > 8


def test_c12_out_of_scope_claims_are_pointed_elsewhere():
    # No training curves and no unbounded-n proofs live in this
    # repository. What is checkable at desk scale is checked: the
    # compiled family's constant depth (c03), its polynomial size
    # slope (c04), and logarithmic value growth to n=512 (c08).
    import sys
    gate = sys.modules[__name__]
    for stand_in in ("test_c03_depth_constant_across_n",
                     "test_c04_size_growth_slope",
                     "test_c08_value_sizes_grow_logarithmically"):
        assert hasattr(gate, stand_in)
