"""Ready-made constructions against brute-force oracles."""

import dataclasses
import hashlib
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from satcirc.bitnum import flt_cmp, size
from satcirc.machine import (MachineError, load_spec, recognize, run,
                             shared_tables)
from satcirc.builtins import (
    BUILTIN_NAMES, build_hard_demo, build_majority, build_majority_layernorm,
    build_prime_universal, build_resource_bounded, builtin_spec, primes,
    pu_reconstruct, rb_reconstruct,
)

from oracles import (contains_bigram11, is_prime, majority01, parity,
                     rb_weight_sum)


def all_words(n):
    return ["".join("1" if (m >> k) & 1 else "0" for k in range(n))
            for m in range(2 ** n)]


def as_fraction(x):
    return Fraction(*x.as_pair())


# ---------------------------------------------------------------------------
# primes


def test_primes_small():
    assert primes(3) == (2, 3, 5)
    assert primes(10)[-1] == 29


def test_primes_hundred_against_trial_division():
    t = primes(100)
    assert len(t) == 100
    assert all(is_prime(p) for p in t)
    assert all(a < b for a, b in zip(t, t[1:]))
    assert t[0] == 2


def test_primes_rejects_zero():
    with pytest.raises(MachineError):
        primes(0)


# ---------------------------------------------------------------------------
# majority


@pytest.mark.parametrize("datatype", ["F", "Q"])
def test_majority_examples(datatype):
    spec = build_majority(datatype)
    assert recognize(spec, "110")
    assert not recognize(spec, "01")  # tie: strictly-more-ones required


@pytest.mark.parametrize("datatype", ["F", "Q"])
def test_majority_exhaustive_small(datatype):
    spec = build_majority(datatype)
    for n in range(1, 9):
        for w in all_words(n):
            assert recognize(spec, w) == majority01(w), w


def test_majority_layernorm_examples():
    spec = build_majority_layernorm()
    assert recognize(spec, "1")
    assert not recognize(spec, "00")


def test_majority_layernorm_matches_plain_majority():
    ln = build_majority_layernorm()
    plain = build_majority("F")
    for n in range(1, 11):
        for w in all_words(n):
            assert recognize(ln, w) == recognize(plain, w), w


def test_layernorm_order_invariant():
    rng = random.Random(3)
    words = {w for n in range(1, 7) for w in all_words(n)}
    words |= {"".join(rng.choice("01") for _ in range(rng.randint(8, 40)))
              for _ in range(60)}
    spec = build_majority_layernorm()
    for w in sorted(words):
        # position 1's pair (a, 0) before layer norm and (t1, t2) after
        v = run(spec, w).values[-1][0]
        assert flt_cmp(v[0], v[1]) == flt_cmp(v[2], v[3]), w
        # post-norm values are +-c with 1/2 < c <= 1, or (0, 0) on ties
        t1 = abs(as_fraction(v[2]))
        assert t1 == 0 or Fraction(1, 2) < t1 <= 1


# ---------------------------------------------------------------------------
# prime-encoding universality


def test_prime_universal_head_sum_and_decode():
    spec = build_prime_universal(parity)
    t = run(spec, "101")
    b = t.head_out[0][0][0]
    assert as_fraction(b[0]) == Fraction(7, 10) / 3  # (1/2 + 1/5)/n
    assert as_fraction(b[1]) == 2  # mean position (1+2+3)/3
    s = t.values[-1][0]  # activation already decided; recompute S directly
    table = primes(8)
    ssum = b[0]
    from satcirc.bitnum import rat, rat_mul
    s_exact = rat_mul(ssum, rat(3, 1))
    assert as_fraction(s_exact) == Fraction(7, 10)
    assert pu_reconstruct(s_exact, table, 3) == "101"


def test_prime_universal_zero_word():
    table = primes(4)
    spec = build_prime_universal(lambda w: True)
    t = run(spec, "000")
    from satcirc.bitnum import rat, rat_mul
    s = rat_mul(t.head_out[0][0][0][0], rat(3, 1))
    assert s.q.value == 1
    assert pu_reconstruct(s, table, 3) == "000"


def test_prime_universal_parity_small():
    spec = build_prime_universal(parity)
    for n in range(1, 8):
        for w in all_words(n):
            assert recognize(spec, w) == parity(w), w


def test_prime_universal_reconstruction_random():
    spec = build_prime_universal(lambda w: True)
    table = primes(64)
    rng = random.Random(9)
    from satcirc.bitnum import rat, rat_mul
    for _ in range(25):
        n = rng.randint(1, 64)
        w = "".join(rng.choice("01") for _ in range(n))
        t = run(spec, w)
        s = rat_mul(t.head_out[0][0][0][0], rat(n, 1))
        assert pu_reconstruct(s, table, n) == w


def test_prime_universal_embedding_size_logarithmic():
    spec = build_prime_universal(lambda w: True)
    t = run(spec, "1" * 64)
    c = 0.0
    for i in range(2, 65):
        c = max(c, size(t.values[0][i - 1]) / (2 * math.log2(i)))
    assert c <= 6  # finite small constant; the bound is 2c*log2(i)


def test_prime_universal_rejects_long_input():
    spec = build_prime_universal(parity)
    with pytest.raises(MachineError, match="n_max=64"):
        recognize(spec, "10" * 32 + "1")


# ---------------------------------------------------------------------------
# resource-bounded construction


def test_resource_bounded_weight_sum_q():
    spec = build_resource_bounded(contains_bigram11, "Q")
    t = run(spec, "1101")
    w = rb_weight_sum(t, "Q")
    assert w == 0b1011  # 1 + 2 + 8: positions 1, 2, 4
    assert rb_reconstruct(w, 4) == "1101"


def test_resource_bounded_weight_sum_f():
    spec = build_resource_bounded(contains_bigram11, "F")
    for w in ("1101", "00000", "1", "101001"):
        t = run(spec, w)
        assert rb_reconstruct(rb_weight_sum(t, "F"), len(w)) == w


def test_resource_bounded_zero_word():
    spec = build_resource_bounded(lambda w: True, "Q")
    t = run(spec, "0000")
    assert rb_weight_sum(t, "Q") == 0


@pytest.mark.parametrize("datatype", ["F", "Q"])
def test_resource_bounded_bigram_exhaustive(datatype):
    spec = build_resource_bounded(contains_bigram11, datatype)
    for n in range(1, 9):
        for w in all_words(n):
            assert recognize(spec, w) == contains_bigram11(w), (datatype, w)


def test_resource_bounded_rejects_long_input():
    spec = build_resource_bounded(contains_bigram11, "F")
    assert recognize(spec, "110011" * 5 + "10")
    with pytest.raises(MachineError, match="n_max=32"):
        recognize(spec, "110011" * 5 + "101")


def test_resource_bounded_head_values():
    spec = build_resource_bounded(lambda w: True, "F")
    t = run(spec, "10110")
    assert as_fraction(t.head_out[0][1][0][0]) == 5  # head 2: n
    assert as_fraction(t.head_out[0][2][0][0]) == 8  # head 3: 2^|5|
    # head 3 ties on {4,...,7} (all have |j| = 3); hard picks position 4
    assert t.ties[0][2][0] == (3, 4)


# ---------------------------------------------------------------------------
# hard attention demo


def one_in_first_three(w):
    return "1" in w[:3]


def test_hard_demo_exhaustive():
    spec = build_hard_demo()
    for n in range(1, 9):
        for w in all_words(n):
            assert recognize(spec, w) == one_in_first_three(w), w


def test_hard_demo_attends_first_one():
    spec = build_hard_demo()
    t = run(spec, "00100")
    assert t.ties[0][0][0] == (2,)
    assert as_fraction(t.head_out[0][0][0][1]) == 3  # witness position


# ---------------------------------------------------------------------------
# factory


def test_builtin_factory_names():
    assert builtin_spec("maj").name == "maj"
    assert builtin_spec("maj-ln").name == "maj-ln"
    assert builtin_spec("hard-demo").name == "hard-demo"
    assert builtin_spec("prime-universal", "parity").name == "prime-universal"
    assert builtin_spec("resource-bounded", "bigram11").datatype == "F"
    with pytest.raises(MachineError, match="unknown builtin"):
        builtin_spec("nope")
    with pytest.raises(MachineError, match="--pred"):
        builtin_spec("prime-universal")
    assert builtin_spec("maj-q").datatype == "Q"
    assert builtin_spec("maj-q").name == "maj-q"
    with pytest.raises(MachineError, match=r"have maj, .*, maj-q\)"):
        builtin_spec("bogus")
    assert len(BUILTIN_NAMES) == 6


# ---------------------------------------------------------------------------
# traces pinned by hash: the full value trace, scores, ties and sizes


TRACE_WORDS = ("00000000", "11111111", "10110010", "01101101")


def trace_sha256(t) -> str:
    """sha256 of the repr of a trace's fields, named one by one, so that
    the pin holds the values and not the dataclass's repr."""
    return hashlib.sha256(repr((
        t.input, t.n, t.values, t.scores, t.ties, t.head_out,
        t.layer_max_size)).encode()).hexdigest()


TRACE_SHA256 = {
    ("maj", None): (
        "bbfb9cf475405f2c3b6f1da631c002dd418f209edcbe979baccbdc8261098981",
        "015657cb3083de0b8267546484ac9dff391f1a8910ac6e93196d57a839e865dd",
        "bc8f6bb73dd1ee71807f5b5985df1f33ba55ac22c9b1d0c3c124eb3b6d34a9da",
        "4560cd232cfc1657c4c97faadc8008581fd944d5d53728082e3a09a3dbb4fe77"),
    ("maj-q", None): (
        "03500ad6cbe81fb42432fab5de00dc2a2e8d56a76e594de7a6fc9faed72b5a41",
        "69446454844786edbd99412eba5717946dd50ff55c1ee2bcad4707bcada9f4eb",
        "bb64a39d2947158c0a0293e514181b4ec97cc1a77475b7d59fe47723d2376a25",
        "c58037bc0533423cd65b88f8ad5b75e06af14c83a1495ff3c74eb686392ba87f"),
    ("maj-ln", None): (
        "02f154a396797c47b5d0125155f12cfae6b815bde435777909375dc80098efa5",
        "9acf95c5ea72575c61398224799886a57313c2c8b38816d7f97e1fd21d829e8f",
        "1228ec7fb3a5574df00a03cc6a94eb5f1b5d6cd643b69a2dfa8bf0e3e3136ce9",
        "249a92bde31a80dbe7dfdd595a274512dfd5f3485161d1956a9772fc21ecb49e"),
    ("hard-demo", None): (
        "f4525bd02a81d5d6d945061e1c2d863fa7d432a92757001a25324465c8d7eca1",
        "4bfac94e83795582ed20feb3f5b02e27c69eb1d6cd562e19d3b611d0bbf87b8b",
        "414e8730cee870eb88cdb3bac4e5650076810e77dd17acd99e63fcfd930668f8",
        "1cac01e658c17cf78518e215920e75404681e609851d4fd9c469993e2341409d"),
    ("prime-universal", "parity"): (
        "0fb54d511332fccd3ba74ef22796759e5e49a8a32887c64219d670646ec1acb9",
        "dce584e8721c28750a0febc6e7a96721d993629945f1fed9118eb1d728372f15",
        "298da3bdcef3dfaaa1ebd94f9ba1e3855601c8a244e1c6a4ba0f3bfdc8edf085",
        "2ba363b1228fcfcef0e1fde5eefc527132da4d93c3a9b727d903e27181816f27"),
    ("resource-bounded", "bigram11"): (
        "2b0b979229560b8b0e6cc6ddc95636750d4d01a4fef543af0bcae9042629c356",
        "ee53883488595d99893250e68d32e3cb16107357662f486c9d8985bb3828e6f6",
        "99af50d48c11dd8fd3029769579845a4c0a69a0d3dc35f8fe04ffbea705e93ac",
        "74d9fd721cde1327aba6127ca7ca810992ca314bb77e6be608559f18ed1a3c19"),
}


@pytest.mark.parametrize("name, pred", list(TRACE_SHA256))
def test_traces_are_pinned(name, pred):
    spec = builtin_spec(name, pred)
    traces = [run(spec, w) for w in TRACE_WORDS]
    assert tuple(map(trace_sha256, traces)) == TRACE_SHA256[name, pred]
    assert [t.accept for t in traces] == [recognize(spec, w)
                                          for w in TRACE_WORDS]


def test_trace_pin_hashes_every_field():
    # a field added to ValueTrace must join the pinned tuple; accept is
    # the classifier's sign on the pinned values, checked against
    # recognize above
    t = run(builtin_spec("maj"), TRACE_WORDS[2])
    fields = tuple(getattr(t, f.name) for f in dataclasses.fields(t)
                   if f.name != "accept")
    assert trace_sha256(t) == hashlib.sha256(
        repr(fields).encode()).hexdigest()


def test_shared_tables_change_no_builtin_verdict_or_trace():
    # machine-mix's six builtins and the spec file, each over one scope
    # of words of lengths 1-6 mixed together, repeats included
    rng = random.Random(23)
    words = ["".join(rng.choice("01") for _ in range(rng.randint(1, 6)))
             for _ in range(40)]
    words += rng.sample(words, 20)
    specs = [builtin_spec(name, pred) for name, pred in TRACE_SHA256]
    specs.append(load_spec(str(Path(__file__).resolve().parents[1]
                               / "specs" / "maj_f.sexp")))
    for spec in specs:
        alone = [(recognize(spec, w), repr(run(spec, w))) for w in words]
        with shared_tables(spec):
            inside = [(recognize(spec, w), repr(run(spec, w)))
                      for w in words]
        assert inside == alone, spec.name
