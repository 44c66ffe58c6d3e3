"""Circuit IR: evaluation, metrics, serialization."""

import json
import random

import pytest

from satcirc.circuit import (
    AND, CONST, Circuit, CircuitError, Gate, INPUT, Metrics, NEG_INPUT, NOT,
    OR, THRESHOLD_GE, THRESHOLD_LE, depth_map, eval_batch,
    family_analyze, from_json, metrics, to_dot, to_json,
)

from oracles import contains_bigram11, recursive_eval


def circ_to_dict(c):
    return {
        "n": c.n,
        "gates": [{"id": g.id, "kind": g.kind, "inputs": list(g.inputs),
                   "k": g.k, "idx": g.idx} for g in c.gates],
        "outputs": list(c.outputs),
    }


def all_bits(n):
    return [tuple((m >> i) & 1 for i in range(n)) for m in range(2 ** n)]


def bigram11_fixture():
    """n=5 detector for the substring 11: OR of AND(x_i, x_{i+1})."""
    gates = [Gate(i, INPUT, idx=i) for i in range(5)]
    ands = []
    for i in range(4):
        gid = 5 + i
        gates.append(Gate(gid, AND, (i, i + 1)))
        ands.append(gid)
    gates.append(Gate(9, OR, tuple(ands)))
    return Circuit(5, tuple(gates), (9,), {9: "has-11"})


# ---------------------------------------------------------------------------
# construction and validation


def test_gate_validation():
    with pytest.raises(CircuitError):
        Gate(0, "XOR")
    with pytest.raises(CircuitError):
        Gate(0, INPUT)  # missing idx
    with pytest.raises(CircuitError):
        Gate(0, CONST, k=2)
    with pytest.raises(CircuitError):
        Gate(0, NOT, (1, 2))
    with pytest.raises(CircuitError):
        Gate(0, THRESHOLD_GE, (1,), k=-1)


def test_circuit_validation():
    g = [Gate(0, INPUT, idx=0), Gate(1, NOT, (0,))]
    Circuit(1, tuple(g), (1,))
    with pytest.raises(CircuitError, match="gate 1 reads id 7, which is not "
                                           "an earlier gate"):
        Circuit(1, (Gate(0, INPUT, idx=0), Gate(1, NOT, (7,))), (1,))
    with pytest.raises(CircuitError, match="gate 1 reads id -1,"):
        Circuit(1, (Gate(0, INPUT, idx=0), Gate(1, NOT, (-1,))), (1,))
    with pytest.raises(CircuitError, match="output reads missing id 5"):
        Circuit(1, (Gate(0, INPUT, idx=0),), (5,))
    with pytest.raises(CircuitError, match="output reads missing id -1"):
        Circuit(1, (Gate(0, INPUT, idx=0),), (-1,))
    with pytest.raises(CircuitError, match="gate 0 is at position 1"):
        Circuit(1, (Gate(0, INPUT, idx=0), Gate(0, INPUT, idx=0)), (0,))
    with pytest.raises(CircuitError, match="gate 1 reads id 1,"):
        Circuit(1, (Gate(0, INPUT, idx=0), Gate(1, AND, (1, 0))), (1,))
    with pytest.raises(CircuitError, match=">= n"):
        Circuit(1, (Gate(0, INPUT, idx=3),), (0,))
    with pytest.raises(CircuitError, match="output"):
        Circuit(1, (Gate(0, INPUT, idx=0),), ())
    for k in (1, -1, "0", True):
        with pytest.raises(CircuitError, match=f"label on id {k!r}, which "
                                               "has no gate"):
            Circuit(1, (Gate(0, INPUT, idx=0),), (0,), {k: "x"})
    with pytest.raises(CircuitError, match="label of gate 0 is 7, not a "
                                           "string"):
        Circuit(1, (Gate(0, INPUT, idx=0),), (0,), {0: 7})


# ---------------------------------------------------------------------------
# evaluation


def test_threshold_example():
    c = Circuit(6, tuple([Gate(i, INPUT, idx=i) for i in range(6)]
                         + [Gate(6, THRESHOLD_GE, (0, 1, 2, 3, 4, 5), k=3)]),
                (6,))
    assert eval_batch(c, ["110011", "110000"]) == [(1,), (0,)]


def test_empty_fanin_conventions():
    c = Circuit(1, (Gate(0, INPUT, idx=0), Gate(1, AND), Gate(2, OR),
                    Gate(3, THRESHOLD_GE, (), k=0)), (1, 2, 3))
    assert eval_batch(c, ["0"]) == [(1, 0, 1)]


def test_threshold_le():
    gates = [Gate(i, INPUT, idx=i) for i in range(4)]
    gates.append(Gate(4, THRESHOLD_LE, (0, 1, 2, 3), k=2))
    c = Circuit(4, tuple(gates), (4,))
    xs = all_bits(4)
    assert eval_batch(c, xs) == [(int(sum(bits) <= 2),) for bits in xs]


def test_arity_mismatch():
    c = bigram11_fixture()
    with pytest.raises(CircuitError, match="want a length-5 bit vector"):
        eval_batch(c, ["011"])
    with pytest.raises(CircuitError, match="want a length-5 bit vector"):
        eval_batch(c, ["01a10"])


def random_circuit(rng, n_inputs, n_gates):
    gates = []
    for i in range(n_inputs):
        gates.append(Gate(i, INPUT, idx=i))
    for j in range(n_inputs, n_inputs + n_gates):
        kind = rng.choice([AND, OR, NOT, THRESHOLD_GE, THRESHOLD_LE,
                           CONST, NEG_INPUT])
        if kind == CONST:
            gates.append(Gate(j, CONST, k=rng.randint(0, 1)))
        elif kind == NEG_INPUT:
            gates.append(Gate(j, NEG_INPUT, idx=rng.randrange(n_inputs)))
        elif kind == NOT:
            gates.append(Gate(j, NOT, (rng.randrange(j),)))
        else:
            fanin = rng.randint(0 if kind in (AND, OR) else 1, min(j, 5))
            ins = tuple(rng.sample(range(j), fanin))
            k = rng.randint(0, fanin + 1) if kind in (THRESHOLD_GE,
                                                      THRESHOLD_LE) else None
            gates.append(Gate(j, kind, ins, k=k))
    n_out = rng.randint(1, min(3, n_inputs + n_gates))
    outs = tuple(rng.sample(range(n_inputs + n_gates), n_out))
    return Circuit(n_inputs, tuple(gates), outs)


def test_eval_matches_recursive_oracle():
    rng = random.Random(2024)
    for _ in range(10_000):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 16))
        bits = tuple(rng.randint(0, 1) for _ in range(c.n))
        assert eval_batch(c, [bits]) == [recursive_eval(circ_to_dict(c), bits)]


def test_eval_batch_matches_recursive_oracle():
    rng = random.Random(77)
    for _ in range(300):
        c = random_circuit(rng, rng.randint(1, 5), rng.randint(1, 20))
        xs = [tuple(rng.randint(0, 1) for _ in range(c.n))
              for _ in range(rng.randint(1, 40))]
        doc = circ_to_dict(c)
        assert eval_batch(c, xs) == [recursive_eval(doc, x) for x in xs]


def test_eval_batch_thresholds_wide():
    # wide thresholds stress the bit-sliced counter
    n = 48
    gates = [Gate(i, INPUT, idx=i) for i in range(n)]
    outs = []
    for j, k in enumerate((0, 1, 7, 24, 47, 48)):
        gates.append(Gate(n + 2 * j, THRESHOLD_GE, tuple(range(n)), k=k))
        gates.append(Gate(n + 2 * j + 1, THRESHOLD_LE, tuple(range(n)), k=k))
        outs += [n + 2 * j, n + 2 * j + 1]
    c = Circuit(n, tuple(gates), tuple(outs))
    rng = random.Random(5)
    xs = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(500)]
    got = eval_batch(c, xs)
    for x, row in zip(xs, got):
        ones = sum(x)
        want = []
        for k in (0, 1, 7, 24, 47, 48):
            want += [int(ones >= k), int(ones <= k)]
        assert row == tuple(want)


def test_eval_batch_empty():
    assert eval_batch(bigram11_fixture(), []) == []


# ---------------------------------------------------------------------------
# metrics


def test_metrics_single_input_is_free():
    c = Circuit(1, (Gate(0, INPUT, idx=0),), (0,))
    m = metrics(c)
    assert m == Metrics(size=0, depth=0, theta_count=0, max_fanin=0)


def test_metrics_bigram_fixture_golden():
    m = metrics(bigram11_fixture())
    assert m == Metrics(size=5, depth=2, theta_count=0, max_fanin=4)


def test_bigram_fixture_language():
    c = bigram11_fixture()
    words = ["".join(map(str, bits)) for bits in all_bits(5)]
    assert eval_batch(c, words) == [(int(contains_bigram11(w)),)
                                    for w in words]


def test_depth_counts_gates_not_leaves():
    g = [Gate(0, INPUT, idx=0), Gate(1, NOT, (0,)), Gate(2, NOT, (1,)),
         Gate(3, AND, (0, 2))]
    c = Circuit(1, tuple(g), (3,))
    assert depth_map(c) == {0: 0, 1: 1, 2: 2, 3: 3}
    assert metrics(c).depth == 3


def test_metrics_invariant_under_id_permutation():
    rng = random.Random(123)
    for _ in range(50):
        c = random_circuit(rng, 3, 12)
        # the same DAG listed in another topological order (by depth,
        # ties at random), renumbered 0..N-1
        d = depth_map(c)
        rename = {old: new for new, old in enumerate(
            sorted(d, key=lambda gid: (d[gid], rng.random())))}
        relisted = sorted((Gate(rename[g.id], g.kind,
                                tuple(rename[i] for i in g.inputs), g.k, g.idx)
                           for g in c.gates), key=lambda g: g.id)
        c2 = Circuit(c.n, tuple(relisted),
                     tuple(rename[o] for o in c.outputs))
        assert metrics(c2) == metrics(c)
        bits = tuple(rng.randint(0, 1) for _ in range(c.n))
        assert eval_batch(c2, [bits]) == eval_batch(c, [bits])
        # the same DAG with shuffled ids and list order is refused
        ids = [g.id for g in c.gates]
        perm = ids[:]
        rng.shuffle(perm)
        shuffle = dict(zip(ids, perm))
        shuffled = [Gate(shuffle[g.id], g.kind,
                         tuple(shuffle[i] for i in g.inputs), g.k, g.idx)
                    for g in c.gates]
        rng.shuffle(shuffled)
        with pytest.raises(CircuitError, match="ids must be 0..N-1 in list "
                                               "order|not an earlier gate"):
            Circuit(c.n, tuple(shuffled),
                    tuple(shuffle[o] for o in c.outputs))


# ---------------------------------------------------------------------------
# family analysis


def bigram_family(n):
    gates = [Gate(i, INPUT, idx=i) for i in range(n)]
    ands = []
    for i in range(n - 1):
        gates.append(Gate(n + i, AND, (i, i + 1)))
        ands.append(n + i)
    gates.append(Gate(2 * n - 1, OR, tuple(ands)))
    return Circuit(n, tuple(gates), (2 * n - 1,))


def test_family_analyze_bigram():
    rep = family_analyze(bigram_family, [4, 8, 16, 32, 64])
    assert rep.depth_constant
    assert all(r.theta_count == 0 for r in rep.rows)
    assert 0.8 < rep.slope < 1.2
    assert [r.size for r in rep.rows] == [4, 8, 16, 32, 64]


def test_family_analyze_needs_three_points():
    with pytest.raises(CircuitError):
        family_analyze(bigram_family, [4, 8])
    with pytest.raises(CircuitError, match="three distinct values of n"):
        family_analyze(bigram_family, [8, 8, 8])
    with pytest.raises(CircuitError, match="three distinct values of n"):
        family_analyze(bigram_family, [4, 8, 4, 8])
    rep = family_analyze(bigram_family, [4, 8, 4, 16])
    assert [r.n for r in rep.rows] == [4, 8, 4, 16]


# ---------------------------------------------------------------------------
# serialization


def test_json_roundtrip():
    rng = random.Random(99)
    for _ in range(100):
        c = random_circuit(rng, rng.randint(1, 4), rng.randint(1, 12))
        c2 = from_json(to_json(c))
        assert c2.n == c.n and c2.outputs == c.outputs
        assert c2.gates == c.gates and dict(c2.labels) == dict(c.labels)


def test_json_minimal_document():
    doc = ('{"n": 2, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}, '
           '{"id": 1, "kind": "INPUT", "idx": 1}, '
           '{"id": 2, "kind": "AND", "inputs": [0, 1]}], "outputs": [2]}')
    c = from_json(doc)
    assert eval_batch(c, ["11", "10"]) == [(1,), (0,)]


def test_json_errors_name_the_problem():
    with pytest.raises(CircuitError, match="JSON"):
        from_json("{nope")
    with pytest.raises(CircuitError, match="gate 1 reads id 9, which is not "
                                           "an earlier gate"):
        from_json('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}, '
                  '{"id": 1, "kind": "NOT", "inputs": [9]}], "outputs": [1]}')
    with pytest.raises(CircuitError, match="missing field"):
        from_json('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}]}')
    for doc, why in (("[]", "must be an object"),
                     ('{"n": 1, "gates": "x", "outputs": [0]}', "'gates'"),
                     ('{"n": 1, "gates": [0], "outputs": [0]}', "'gates'"),
                     ('{"n": 1, "gates": [], "outputs": 0}', "'outputs'")):
        with pytest.raises(CircuitError, match=why):
            from_json(doc)
    # ids, n and outputs are JSON integers, never coerced
    def doc(n=1, ids=(0, 1), outputs=(1,)):
        return json.dumps({"n": n, "outputs": list(outputs), "gates": [
            {"id": ids[0], "kind": "INPUT", "idx": 0},
            {"id": ids[1], "kind": "NOT", "inputs": [0]}]})

    for text, why in ((doc(1.9, (0.9, "1"), (1.7, True)), "a gate id must "
                       "be an int, got 0.9"),
                      (doc(ids=(0, "1")), 'a gate id must be an int, got "1"'),
                      (doc(n=1.9), "'n' must be an int, got 1.9"),
                      (doc(n=True), "'n' must be an int, got true"),
                      (doc(n="1"), "'n' must be an int, got \"1\""),
                      (doc(outputs=(1.7,)), "an output must be an int, got 1.7"),
                      (doc(outputs=(True,)), "an output must be an int, got "
                       "true"),
                      (doc(outputs=("1",)), 'an output must be an int, got "1"')):
        with pytest.raises(CircuitError, match=f"malformed field: {why}"):
            from_json(text)
    assert from_json(doc()).outputs == (1,)


def test_labels_survive_json():
    c = bigram11_fixture()
    c2 = from_json(to_json(c, indent=2))
    assert c2.labels == {9: "has-11"}


def test_dot_export_mentions_gates():
    dot = to_dot(bigram11_fixture())
    assert dot.startswith("digraph")
    assert "x1" in dot and "AND" in dot and "has-11" in dot
    assert dot.count("->") == 12

