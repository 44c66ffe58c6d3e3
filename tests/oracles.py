"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with different machinery than
src/satcirc: fractions.Fraction for rational semantics, a
memoization-free recursive circuit evaluator, a trace decoder that
shares nothing with the builtins' host callbacks, and brute-force scans
for the combinatorial predicates.
"""

from fractions import Fraction
import math


# ---------------------------------------------------------------------------
# integers

def isqrt_binary_search(v):
    lo, hi = 0, v + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= v:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# rational / float semantics via Fraction

def frac_of_flt(sign, p, e):
    return (1 if sign else -1) * Fraction(p, 2**e)


def canonical_flt(num, e):
    """Canonical (sign, p, e) for num/2^e: p odd or e = 0, zero is (+, 0, 0)."""
    sign = 1 if num >= 0 else 0
    p = abs(num)
    if p == 0:
        return (1, 0, 0)
    while p % 2 == 0 and e > 0:
        p //= 2
        e -= 1
    return (sign, p, e)


def oracle_flt_add(x, y):
    """x, y, result as canonical (sign, p, e) triples."""
    fx, fy = frac_of_flt(*x), frac_of_flt(*y)
    s = fx + fy
    den = s.denominator
    assert den & (den - 1) == 0, "float sum must stay dyadic"
    return canonical_flt(s.numerator, den.bit_length() - 1)


def oracle_flt_mul(x, y):
    s = frac_of_flt(*x) * frac_of_flt(*y)
    den = s.denominator
    assert den & (den - 1) == 0
    return canonical_flt(s.numerator, den.bit_length() - 1)


def oracle_flt_div(x, y):
    """Approximate division: numerator floor(2^|p|/p), independently restated."""
    sx, px, ex = x
    sy, py, ey = y
    assert py != 0
    bl = len(bin(py)) - 2
    k = (2**bl) // py
    num = px * k * (2**ey)
    sign = 1 if sx == sy else 0
    return canonical_flt(num if sign else -num, bl + ex)


def oracle_rat_add(ap, aq, bp, bq):
    """Unreduced cross-multiplication, single final reduction. Signed ints."""
    num = ap * bq + bp * aq
    den = aq * bq
    g = math.gcd(abs(num), den)
    return (num // g if g else 0, den // g if g else 1)


def oracle_rat_mul(ap, aq, bp, bq):
    num = ap * bp
    den = aq * bq
    g = math.gcd(abs(num), den)
    return (num // g, den // g)


# ---------------------------------------------------------------------------
# size preservation

def size_factor(pairs, n0):
    """(c, worst) over (|in|, |out|) size pairs: the least integer c with
    |out| <= c*|in| on every pair whose |in| is nonzero and at least n0,
    and the pair that needs it. Fails when no pair qualifies."""
    c = worst = None
    for ins, outs in pairs:
        if ins >= max(n0, 1) and (c is None or outs > c * ins):
            c, worst = -(-outs // ins), (ins, outs)
    assert c is not None, f"no sample of input size >= {n0}"
    return c, worst


# ---------------------------------------------------------------------------
# traces: the resource-bounded construction's input, read back

def rb_weight_sum(trace, datatype):
    """W = sum of 2^(i-1) over the 1-positions, from the first layer's
    head outputs at position 1: over Q head 1 gives W/n and head 2 gives
    n; over F head 1 gives floor(2^|n|/n)*W/2^|n| and head 3 gives 2^|n|."""
    b1, b2, b3 = (trace.head_out[0][h][0][0] for h in range(3))
    n_num, n_den = b2.as_pair()
    assert n_den == 1
    if datatype == "Q":
        num, den = b1.as_pair()
        w, rem = divmod(num * n_num, den)
    else:
        kw_num, kw_den = b1.as_pair()
        p_num, p_den = b3.as_pair()
        assert p_den == 1
        k = (1 << n_num.bit_length()) // n_num
        w, rem = divmod(kw_num * p_num, kw_den * k)
    assert rem == 0, "weight sum did not reconstruct to an integer"
    return w


# ---------------------------------------------------------------------------
# circuits: memoization-free recursive evaluator

def recursive_eval(circuit_dict, x):
    """Evaluate a circuit given as {'n':, 'gates': [...], 'outputs': [...]}.

    Gates are dicts {id, kind, inputs, k, idx}. Deliberately recomputes
    shared subDAGs instead of memoizing.
    """
    table = {g["id"]: g for g in circuit_dict["gates"]}

    def val(gid):
        g = table[gid]
        kind = g["kind"]
        if kind == "INPUT":
            return x[g["idx"]]
        if kind == "NEG_INPUT":
            return 1 - x[g["idx"]]
        if kind == "CONST":
            return g["k"]
        ins = [val(i) for i in g.get("inputs", ())]
        if kind == "AND":
            return 1 if all(ins) else 0
        if kind == "OR":
            return 1 if any(ins) else 0
        if kind == "NOT":
            return 1 - ins[0]
        if kind == "THRESHOLD_GE":
            return 1 if sum(ins) >= g["k"] else 0
        if kind == "THRESHOLD_LE":
            return 1 if sum(ins) <= g["k"] else 0
        raise AssertionError(f"unknown kind {kind}")

    return tuple(val(o) for o in circuit_dict["outputs"])


# ---------------------------------------------------------------------------
# the expression interpreter before staging: one recursive dispatch on
# each node's op at every evaluation

ARITH_OPS = {"add", "mul", "div", "sqrt", "neg", "relu", "gt", "eq"}


def _ref_scalar(x, what):
    from satcirc.machine import MachineError
    if isinstance(x, tuple):
        raise MachineError(f"{what}: expected a scalar, got a {len(x)}-tuple")
    return x


def ref_eval(node, args, domain, hosts=None):
    """The value of expression node over domain, as machine.eval_expr
    gives it, with the same MachineError texts and the same order of
    host calls (select evaluates one branch only)."""
    from satcirc.machine import MachineError
    op = node.op
    if op == "const":
        return domain.const(*node.data)
    if op == "arg":
        j = node.data
        if not 0 <= j < len(args):
            raise MachineError(f"arg {j} out of range (have {len(args)})")
        return args[j]
    if op == "proj":
        v = ref_eval(node.args[0], args, domain, hosts)
        if not isinstance(v, tuple):
            raise MachineError("proj applied to a scalar")
        k = node.data
        if not 0 <= k < len(v):
            raise MachineError(f"proj index {k} out of range (width {len(v)})")
        return v[k]
    if op == "tup":
        return tuple(_ref_scalar(ref_eval(a, args, domain, hosts),
                                 "tup component") for a in node.args)
    if op == "select":
        c, then, other = node.args
        return domain.select(_ref_scalar(ref_eval(c, args, domain, hosts), op),
                             lambda: ref_eval(then, args, domain, hosts),
                             lambda: ref_eval(other, args, domain, hosts))
    if op == "host":
        table = hosts or {}
        if node.data not in table:
            raise MachineError(f"unknown host function {node.data!r}")
        out = table[node.data](domain, *[ref_eval(a, args, domain, hosts)
                                         for a in node.args])
        if isinstance(out, bool):
            return domain.from_int(int(out))
        if isinstance(out, int):
            return domain.from_int(out)
        return out
    vals = [_ref_scalar(ref_eval(a, args, domain, hosts), op)
            for a in node.args]
    if op in ARITH_OPS:
        return getattr(domain, op)(*vals)
    if op == "affine":
        return domain.affine(*node.data, vals)
    if op == "pow2":
        num, den = vals[0].as_pair()
        if den != 1 or num < 0:
            raise MachineError("pow2 wants a nonnegative integer value")
        return domain.from_int(1 << num)
    raise MachineError(f"unknown op {op!r}")


def two_pass_max_set(scores, domain):
    """machine.max_set's rule before it went to one pass: find the first
    strict maximum, then scan again for every score equal to it."""
    from satcirc.machine import MachineError
    if not scores:
        raise MachineError("empty score sequence")
    best = 0
    for j in range(1, len(scores)):
        if domain.cmp(scores[j], scores[best]) > 0:
            best = j
    return tuple(j for j in range(len(scores))
                 if domain.cmp(scores[j], scores[best]) == 0)


# ---------------------------------------------------------------------------
# combinatorial predicates

def majority01(w):
    return w.count("1") > w.count("0")


def parity(w):
    return w.count("1") % 2 == 1


def contains_bigram11(w):
    return "11" in w


def is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True
