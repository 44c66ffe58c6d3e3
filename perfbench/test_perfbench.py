"""Tests of the benchmark's own machinery: spans and self time, the tail
percentile rule, wrapper installation and removal, the per-operation time
limit, the independent circuit evaluator and the negative controls.

    python3 -m pytest perfbench -q
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import oracles as O  # noqa: E402
import spans as SP  # noqa: E402
import stats as ST  # noqa: E402

import satcirc  # noqa: E402
from satcirc import (builtin_spec, compile_saturated, default_samples,  # noqa: E402
                     encode_word, eval_batch, recognize, to_json)


@pytest.fixture
def workdir():
    d = bench.OUT / "test"
    d.mkdir(parents=True, exist_ok=True)
    return d


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # cli.main [0, 10] > compile.x [1, 6] > synth.y [2, 4]; machine.z [7, 8]
    rec = SP.Recorder(clock=FakeClock([0, 1, 2, 4, 6, 7, 8, 10]))
    y = SP.span(rec, "synth.y", lambda: None)
    x = SP.span(rec, "compile.x", lambda: y())
    z = SP.span(rec, "machine.z", lambda: None)
    main = SP.span(rec, "cli.main", lambda: (x(), z()))
    main()
    by = rec.by_name()
    assert {n: (v[1], v[2]) for n, v in by.items()} == {
        "cli.main": (10, 4), "compile.x": (5, 3), "synth.y": (2, 2),
        "machine.z": (1, 1)}
    assert rec.layer_self() == {"cli": 4, "compile": 3, "synth": 2,
                                "machine": 1}
    assert rec.root_s == 10 == sum(rec.layer_self().values())
    assert set(rec.edges) == {("harness", "cli.main"),
                              ("cli.main", "compile.x"),
                              ("compile.x", "synth.y"),
                              ("cli.main", "machine.z")}
    ids = {s[2]: s for s in rec.spans}
    assert ids["synth.y"][1] == ids["compile.x"][0]
    assert ids["cli.main"][1] == -1


def test_spans_beyond_the_cap_are_counted_not_kept():
    rec = SP.Recorder(keep=3)
    f = SP.span(rec, "bitnum.f", lambda: None)
    for _ in range(5):
        f()
    assert len(rec.spans) == 3 and rec.dropped == 2
    assert rec.by_name()["bitnum.f"][0] == 5


def test_span_closes_when_the_call_raises():
    rec = SP.Recorder()

    def boom():
        raise ValueError("x")

    f = SP.span(rec, "compile.boom", boom)
    with pytest.raises(ValueError):
        f()
    assert rec.stack == [] and rec.by_name()["compile.boom"][0] == 1


def test_span_amount_is_added_to_the_edge():
    rec = SP.Recorder()
    f = SP.span(rec, "circuit.to_json", lambda: "abcd",
                amount=lambda a, r: len(r))
    f()
    f()
    assert rec.by_name()["circuit.to_json"][3] == 8


@pytest.mark.parametrize("n, want", [
    (1, None), (39, None), (40, (75.0, 10)), (99, (75.0, 24)),
    (100, (90.0, 10)), (199, (90.0, 19)), (200, (95.0, 10)),
    (1000, (99.0, 10)), (9999, (99.0, 99)), (10000, (99.9, 10))])
def test_tail_is_the_highest_percentile_with_ten_beyond(n, want):
    xs = list(range(n, 0, -1))
    t = ST.tail(xs)
    if want is None:
        assert t is None
        return
    p, value, beyond = t
    assert (p, beyond) == want
    assert sum(1 for x in xs if x > value) == beyond


def test_median_and_nearest_rank_percentile():
    assert ST.median([3, 1, 2]) == 2
    assert ST.median([4, 1, 2, 3]) == 2.5
    assert ST.percentile(range(1, 101), 99) == 99
    assert ST.percentile([7], 99.9) == 7


def _snapshot():
    mods = [getattr(satcirc, m) for m in bench.LAYERS]
    spec = builtin_spec("prime-universal", "parity")
    snap = [dict(vars(m)) for m in mods]
    classes = [satcirc.synth.Builder, satcirc.bitnum.Flt, satcirc.bitnum.UNat]
    return mods, spec, snap, classes, [dict(vars(c)) for c in classes], \
        dict(spec.hosts)


def test_wrappers_are_installed_for_the_trace_and_removed_after():
    mods, spec, snap, classes, cls_snap, hosts = _snapshot()
    rec, patch = SP.Recorder(), SP.Patcher()
    bench.install_tracing(rec, patch, [spec])
    try:
        assert satcirc.compile.S is not satcirc.synth
        assert satcirc.cli.compile_saturated is not compile_saturated
        assert spec.hosts["decide"] is not hosts["decide"]
        assert recognize(spec, "0111") is True
        assert satcirc.machine.recognize is recognize  # harness boundary only
    finally:
        patch.restore()
    assert [dict(vars(m)) for m in mods] == snap
    assert [dict(vars(c)) for c in classes] == cls_snap
    assert dict(spec.hosts) == hosts
    assert rec.counts["bitnum.UNat.from_int"] > 0
    assert rec.by_name()["builtins.host"][0] > 0
    assert rec.by_name()["bitnum.rat_add"][0] > 0


def test_time_limit_stops_a_hanging_operation():
    # default_samples loops forever when fewer than six words exist (n <= 2)
    spec = builtin_spec("maj")
    with pytest.raises(bench.OpTimeout):
        with bench.time_limit(0.2):
            default_samples(spec, 2)


def test_a_hanging_operation_counts_as_failed(workdir):
    class Hang(bench.CompileMaj):
        timeout_s = 0.2

        def call(self, entry, k):
            return default_samples(self.specs["maj"], 2)

    ops = bench.measure(Hang(0, workdir), bench.entry_points(), 0.1)
    assert len(ops) == 1
    assert ops[0].dur is None and ops[0].rec.startswith("timed out")


def test_count_ge_matches_brute_force():
    rng = random.Random(1)
    for _ in range(200):
        width = rng.randint(1, 9)
        masks = [rng.getrandbits(width) for _ in range(rng.randint(0, 12))]
        k = rng.randint(0, 14)
        full = (1 << width) - 1
        want = sum(1 << s for s in range(width)
                   if sum((m >> s) & 1 for m in masks) >= k)
        assert O._count_ge(masks, k, full) == want


def test_evaluator_agrees_with_satcirc_and_catches_a_negated_circuit():
    spec = builtin_spec("maj")
    n = 5
    text = to_json(compile_saturated(spec, n), indent=2)
    words = [format(m, f"0{n}b") for m in range(1 << n)]
    ours = O.eval_circuit_json(text, words)
    theirs = [o[0] for o in eval_batch(compile_saturated(spec, n),
                                       [encode_word(spec, w) for w in words])]
    assert ours == theirs
    assert O.circuit_mismatches(text, O.oracle("maj"), words) == []
    assert O.circuit_mismatches(O.negate_accept(text), O.oracle("maj"),
                                words) == words


def test_a_wrong_machine_is_caught():
    spec = builtin_spec("maj")
    words = O.seeded_words(1, 8, 20)
    assert O.machine_mismatches(recognize, spec, O.oracle("maj"), words) == []
    assert O.machine_mismatches(bench.wrong_machine, spec, O.oracle("maj"),
                                words) == words


def test_negative_controls_raise_the_error_rate(workdir):
    """Run the machine-mix loop with a wrong machine: every operation must
    be judged failed."""
    wl = bench.MachineMix(0, workdir)
    ops = bench.measure(wl, {"machine.recognize": bench.wrong_machine}, 0.2)
    tally = O.Tally()
    for op in ops:
        tally.record(not wl.judge(op.arg, op.rec, None))
    assert tally.attempted == len(ops) > 0 and tally.error_rate == 1.0
    assert wl.controls() == {"wrong-machine": True}


@pytest.mark.parametrize("key", sorted(O.SPECS))
def test_oracles_agree_with_the_machine(key):
    name, pred, accept = O.SPECS[key]
    spec = builtin_spec(name, pred)
    words = O.special_words(12) + O.seeded_words(key, 12, 30)
    assert O.machine_mismatches(recognize, spec, accept, words) == []


def test_identity_records_conflicts(workdir):
    (workdir / "id.json").unlink(missing_ok=True)
    ident = bench.Identity(workdir / "id.json")
    ident.note("maj/n4", {"size": 10, "circuit_sha256": "a"})
    ident.note("maj/n4", {"size": 10})
    assert ident.conflicts == []
    ident.save()
    again = bench.Identity(workdir / "id.json")
    again.note("maj/n4", {"size": 11})
    assert again.conflicts == ["maj/n4 size: 10 then 11"]
