"""Ready-made constructions against brute-force oracles."""

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
    build_prime_universal, build_resource_bounded, builtin_spec, ln_pair,
    primes, pu_reconstruct, rb_reconstruct, rb_weight_sum,
)

from oracles import contains_bigram11, is_prime, majority01, parity


def all_words(n):
    return ["".join("1" if (m >> k) & 1 else "0" for k in range(n))
            for m in range(2 ** n)]


def as_fraction(x):
    return Fraction(*x.as_pair())


# ---------------------------------------------------------------------------
# primes


def test_primes_small():
    assert primes(3).values == (2, 3, 5)
    assert primes(10).values[-1] == 29


def test_primes_hundred_against_trial_division():
    t = primes(100)
    assert len(t) == 100
    assert all(is_prime(p) for p in t.values)
    assert all(a < b for a, b in zip(t.values, t.values[1:]))
    assert t.values[0] == 2


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
        pair = ln_pair(w, spec)
        assert pair.order_preserved(flt_cmp), w
        # post-norm values are +-c with 1/2 < c <= 1, or (0, 0) on ties
        t1 = abs(as_fraction(pair.post[0]))
        assert t1 == 0 or Fraction(1, 2) < t1 <= 1


# ---------------------------------------------------------------------------
# prime-encoding universality


def test_prime_universal_head_sum_and_decode():
    spec = build_prime_universal(parity, n_max=8)
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
    spec = build_prime_universal(lambda w: True, n_max=4)
    t = run(spec, "000")
    from satcirc.bitnum import rat, rat_mul
    s = rat_mul(t.head_out[0][0][0][0], rat(3, 1))
    assert s.q.value == 1
    assert pu_reconstruct(s, table, 3) == "000"


def test_prime_universal_parity_small():
    spec = build_prime_universal(parity, n_max=8)
    for n in range(1, 8):
        for w in all_words(n):
            assert recognize(spec, w) == parity(w), w


def test_prime_universal_reconstruction_random():
    spec = build_prime_universal(lambda w: True, n_max=64)
    table = primes(64)
    rng = random.Random(9)
    from satcirc.bitnum import rat, rat_mul
    for _ in range(25):
        n = rng.randint(1, 64)
        w = "".join(rng.choice("01") for _ in range(n))
        t = run(spec, w, _final_positions=(0,))
        s = rat_mul(t.head_out[0][0][0][0], rat(n, 1))
        assert pu_reconstruct(s, table, n) == w


def test_prime_universal_embedding_size_logarithmic():
    spec = build_prime_universal(lambda w: True, n_max=64)
    t = run(spec, "1" * 64, _final_positions=(0,))
    c = 0.0
    for i in range(2, 65):
        c = max(c, size(t.values[0][i - 1]) / (2 * math.log2(i)))
    assert c <= 6  # finite small constant; the bound is 2c*log2(i)


def test_prime_universal_rejects_long_input():
    spec = build_prime_universal(parity, n_max=4)
    with pytest.raises(MachineError, match="n_max"):
        recognize(spec, "10101")


# ---------------------------------------------------------------------------
# resource-bounded construction


def test_resource_bounded_weight_sum_q():
    spec = build_resource_bounded(contains_bigram11, "Q", n_max=8)
    t = run(spec, "1101")
    w = rb_weight_sum(t, "Q")
    assert w == 0b1011  # 1 + 2 + 8: positions 1, 2, 4
    assert rb_reconstruct(w, 4) == "1101"


def test_resource_bounded_weight_sum_f():
    spec = build_resource_bounded(contains_bigram11, "F", n_max=8)
    for w in ("1101", "00000", "1", "101001"):
        t = run(spec, w)
        assert rb_reconstruct(rb_weight_sum(t, "F"), len(w)) == w


def test_resource_bounded_zero_word():
    spec = build_resource_bounded(lambda w: True, "Q", n_max=8)
    t = run(spec, "0000")
    assert rb_weight_sum(t, "Q") == 0


@pytest.mark.parametrize("datatype", ["F", "Q"])
def test_resource_bounded_bigram_exhaustive(datatype):
    spec = build_resource_bounded(contains_bigram11, datatype, n_max=8)
    for n in range(1, 9):
        for w in all_words(n):
            assert recognize(spec, w) == contains_bigram11(w), (datatype, w)


def test_resource_bounded_rejects_long_input():
    spec = build_resource_bounded(contains_bigram11, "F", n_max=4)
    with pytest.raises(MachineError, match="n_max"):
        recognize(spec, "110011")


def test_resource_bounded_head_values():
    spec = build_resource_bounded(lambda w: True, "F", n_max=8)
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
    assert len(BUILTIN_NAMES) == 5


# ---------------------------------------------------------------------------
# traces pinned by hash: the full value trace, scores, ties and sizes


TRACE_WORDS = ("00000000", "11111111", "10110010", "01101101")
TRACE_SHA256 = {
    ("maj", None): (
        "7d28d1297c9931c78ee14ec165025d71357ed42625fd8e0fb94c8ef034ff4cd6",
        "18e8a9bc7c48ba166aff6c0b5681029b6a28e52fb4380a47287fd9ae684bf3cf",
        "f891638b5efe2f9744406c4a300a07a96d2c4c38cf9b9dc4fc03dba5b2d8f4ec",
        "5a400037e46ceecac5cd70e801ae991483e241a8ca3e2400e1e854256e90a974"),
    ("maj-q", None): (
        "d58a7abec3e9b7b0b1e8cf361d5cdc4b5b8bcd03669ee051a5a8c427e636fbb1",
        "6468344f1b36bb24e65c7570e02d9e4a4eec3080adf2edf08b97759119dcda1a",
        "fdb08643e61bb62f1899ec03df1eafae35e32706ad5cacf6b0fd2f8a5e54d1ed",
        "31bd3cdae200eec1aaaeb9434c233ad6205ec7eaa959d4f7720aaa81525f92b0"),
    ("maj-ln", None): (
        "d26e6f64fbc7cf613154429b7877b74431cdec2ce9e4bc654e43122e5904a4f8",
        "b6c0bbb13d03b9111a8b4139c3ed563e96c7cf78e42100a1367cf980f806339b",
        "87229b85e6c6fe6cdf60e574b62f80aac2aa8964eec77b70f99381e2cb1cff18",
        "a205ee45de5bdcbf01babac70c6d1ffa53bf9c28c292c7d139ea217c2be0b08c"),
    ("hard-demo", None): (
        "ab382ab8a99e329ec37afeeb9cf4ede1a9cc5675f5437d331b71b47ed6609e92",
        "122f418669b817eee2586e9c20f80c549e93d97e3f6eda9379d47b5536372e4f",
        "5a2e3b38fdcd5d1233be79b7aae95e97c988311eca8deb6c0b4d71ac5ab337d3",
        "2ab84459144fab693c3b3a4ab4762bd88f5c0442c455d2d2eae14a8c6e72edee"),
    ("prime-universal", "parity"): (
        "96faa5402a35bae2473bca199184c9bc3a70161ce0cc23f34b07dfe3d43e9ea0",
        "3ec6e9b03d6305f61080b13803de3ba27a0411699d5e1e960609692f4ea72d70",
        "1117815efea266b43a0ac6c69c5b6fb7b06ce1178c1a5151c7fd8b6b8b424fda",
        "e38c149256ba0fb9105980e6199708260f77b2e871ca81d048928667d4c6a6f0"),
    ("resource-bounded", "bigram11"): (
        "ad0fff2b026ae2a2b5c02455ea278a0a66e4f5e13584b78581468d9cae534fa1",
        "ec58cd3cfcb10eaa15ae17eb47bc34ba9294bc8a5a4fd74e4cdb4134c30d88e4",
        "89e58a734917367ddd0f6c662507dc3e135423702528bde913d0f643322f9993",
        "d16caac1ff5482d8deb6944fd851c97488513e413d6ea0218e0519c8ac590431"),
}


@pytest.mark.parametrize("name, pred", list(TRACE_SHA256))
def test_traces_are_pinned(name, pred):
    spec = builtin_spec(name, pred)
    got = tuple(hashlib.sha256(repr(run(spec, w)).encode()).hexdigest()
                for w in TRACE_WORDS)
    assert got == TRACE_SHA256[name, pred]


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
