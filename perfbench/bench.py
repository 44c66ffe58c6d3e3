"""The satcirc benchmark's workloads, measurement loop, checks and tracing.

Load is one process, one thread and one client in a closed loop: the next
operation starts when the last one has ended. An operation is what a user
waits for: one ``satcirc compile``, ``complexity`` or ``verify`` call made
in-process through ``cli.main``, or one ``recognize`` call on one word.
Only the operation is timed; reading its artifacts happens after the clock
stops, and every check that calls satcirc runs after the loop.

``satcirc`` must be importable when this module is imported.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import time
from pathlib import Path
from typing import NamedTuple

import calib
import oracles as O
import spans as SP
import stats as ST

from satcirc import builtin_spec, cli, compile_hard, compile_saturated
from satcirc import from_json, metrics, recognize, to_json
import satcirc.compile

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
LAYERS = ("cli", "compile", "synth", "circuit", "machine", "bitnum",
          "builtins")
GATE_METHODS = ("input", "neg_input", "const", "and_", "or_", "not_", "ge",
                "le", "xor2", "mux")
CHECK_WORDS = 256  # seeded words per circuit check, besides the special ones
BLOCK_S = 1.0  # seconds of light operations between two calibrations


class OpTimeout(BaseException):
    """Raised from SIGALRM inside a running operation. A BaseException, so
    no ``except Exception`` in the program can swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def alarm(signum, frame):
        raise OpTimeout(f"no result after {seconds:g} s")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def build_spec(key: str):
    name, pred, _ = O.SPECS[key]
    return builtin_spec(name, pred)


class Identity:
    """Hashes and counts per (spec, n), kept in a file in the checkout, so
    repeats within a run, later runs, and traced and untraced runs must
    all agree."""

    def __init__(self, path: Path = None):
        self.path = path
        self.seen = (json.loads(path.read_text())
                     if path and path.exists() else {})
        self.conflicts: list[str] = []

    def note(self, key: str, fields: dict):
        rec = self.seen.setdefault(key, {})
        for f, v in fields.items():
            if f in rec and rec[f] != v:
                self.conflicts.append(f"{key} {f}: {rec[f]} then {v}")
            else:
                rec[f] = v

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.seen, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def circuit_facts(text: str, key: str, n: int, seed) -> tuple[list, dict]:
    """Oracle mismatches of a circuit JSON on seeded and special words, and
    its identity fields. The text is read back with ``from_json`` for the
    counts; the accept bits come from the independent evaluator."""
    words = O.special_words(n) + O.seeded_words(seed, n, CHECK_WORDS)
    bad = O.circuit_mismatches(text, O.oracle(key), words)
    m = metrics(from_json(text))
    return bad, {"circuit_sha256": sha256(text), "size": m.size,
                 "depth": m.depth, "theta": m.theta_count,
                 "max_fanin": m.max_fanin}


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    timeout_s = 60.0
    heavy = True  # one operation per calibration block, after a gc.collect()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.specs = {k: build_spec(k) for k in O.WORKLOAD_SPECS[self.name]}
        self.emitted: list[str] = []  # identity keys of circuits per op

    def input(self, k: int):
        return k

    def call(self, entry: dict, arg):
        raise NotImplementedError

    def collect(self, arg, raw):
        """The operation's result and the bytes of artifacts it wrote, read
        outside the timed region without calling satcirc."""
        return raw, 0

    def judge(self, arg, rec, ident: Identity) -> str:
        """Empty if the operation's output is right, else the reason."""
        raise NotImplementedError

    def fixture(self, ident: Identity) -> list[str]:
        """Run-level checks; each string is a failure."""
        return []

    def controls(self) -> dict:
        """Negative controls: name -> whether the checks caught a
        deliberately wrong circuit or machine."""
        raise NotImplementedError


def run_cli(entry: dict, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = entry["cli.main"](argv)
    return rc, err.getvalue().strip()


def wrong_machine(spec, w):
    return not recognize(spec, w)


class CliWorkload(Workload):
    """A workload whose operation is one CLI call; ``files`` are the
    artifacts it writes."""

    files: tuple = ()
    control_circuit = None  # (oracle key, n, circuit JSON) to negate

    def argv(self, k: int) -> list:
        raise NotImplementedError

    def call(self, entry, k):
        return run_cli(entry, self.argv(k) + ["--out-dir", str(self.workdir)])

    def collect(self, k, raw):
        rc, err = raw
        texts = {f: None for f in self.files}
        written = 0
        for p in self.workdir.iterdir():
            written += p.stat().st_size
            if p.name in texts:
                texts[p.name] = p.read_text()
            p.unlink()
        return (rc, err, texts), written

    def judge(self, k, rec, ident):
        rc, err, texts = rec
        if rc != 0:
            return f"exit {rc}: {err}"
        missing = [f for f, t in texts.items() if t is None]
        return f"missing {missing}" if missing else self.judge_texts(
            k, texts, ident)

    def machine_control(self) -> bool:
        key = next(iter(self.specs))
        words = O.seeded_words(("control", self.seed), 8, 16)
        return bool(O.machine_mismatches(wrong_machine, self.specs[key],
                                         O.oracle(key), words))

    def controls(self):
        if self.control_circuit is None:  # no operation produced one
            return {"negated-accept": False,
                    "wrong-machine": self.machine_control()}
        key, n, text = self.control_circuit
        words = O.special_words(n) + O.seeded_words(self.seed, n, 32)
        return {"negated-accept": bool(O.circuit_mismatches(
                    O.negate_accept(text), O.oracle(key), words)),
                "wrong-machine": self.machine_control()}


class CompileMaj(CliWorkload):
    name = "compile-maj"
    n = 16
    files = (f"maj_n{n}.json", f"maj_n{n}.manifest.json")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._facts: dict = {}

    def argv(self, k):
        return ["compile", "--builtin", "maj", "--n", str(self.n)]

    def judge_texts(self, k, texts, ident):
        text = texts[self.files[0]]
        self.control_circuit = ("maj", self.n, text)
        h = sha256(text)
        if h not in self._facts:
            self._facts[h] = circuit_facts(text, "maj", self.n, self.seed)
        bad, fields = self._facts[h]
        key = f"maj/n{self.n}"
        ident.note(key, {**fields,
                         "manifest_sha256": sha256(texts[self.files[1]])})
        self.emitted = [key]
        return f"circuit disagrees with the oracle on {bad[:3]}" if bad else ""


class FamilyHard(CliWorkload):
    name = "family-hard"
    ns = (8, 12, 16)
    files = ("complexity.csv",)

    def argv(self, k):
        return ["complexity", "--builtin", "hard-demo", "--n-list",
                ",".join(map(str, self.ns)), "--seed", str(self.seed * 1000 + k)]

    def judge_texts(self, k, texts, ident):
        rows = list(csv.DictReader(io.StringIO(texts["complexity.csv"])))
        if [int(r["n"]) for r in rows] != list(self.ns):
            return f"complexity.csv rows {[r['n'] for r in rows]}"
        for r in rows:
            ident.note(f"hard-demo/n{r['n']}", {
                "size": int(r["size"]), "depth": int(r["depth"]),
                "theta": int(r["theta_count"]),
                "max_fanin": int(r["max_fanin"])})
        self.emitted = [f"hard-demo/n{n}" for n in self.ns]
        return ""

    def fixture(self, ident):
        """Compile each n once more, check the circuit against the oracle,
        and tie its counts to the rows the operations reported."""
        problems = []
        for n in self.ns:
            text = to_json(compile_hard(self.specs["hard-demo"], n), indent=2)
            if n == self.ns[0]:
                self.control_circuit = ("hard-demo", n, text)
            bad, fields = circuit_facts(text, "hard-demo", n, self.seed)
            ident.note(f"hard-demo/n{n}", fields)
            if bad:
                problems.append(f"hard-demo n={n} circuit disagrees with the "
                                f"oracle on {bad[:3]}")
        return problems


class VerifyMaj(CliWorkload):
    name = "verify-maj"
    files = ("verify.csv",)

    def __init__(self, seed, workdir, n=16, samples=3000):
        super().__init__(seed, workdir)
        self.n, self.samples = n, samples

    def argv(self, k):
        return ["verify", "--builtin", "maj", "--n", str(self.n), "--mode",
                "random", "--samples", str(self.samples), "--seed",
                str(self.seed * 1000 + k)]

    def judge_texts(self, k, texts, ident):
        rows = list(csv.DictReader(io.StringIO(texts["verify.csv"])))
        want = [{"n": str(self.n), "mode": "random",
                 "tested": str(self.samples), "mismatches": "0",
                 "first_counterexample": ""}]
        self.emitted = [f"maj/n{self.n}"]
        return "" if rows == want else f"verify.csv {rows}"

    def fixture(self, ident):
        spec, key = self.specs["maj"], f"maj/n{self.n}"
        text = to_json(compile_saturated(spec, self.n), indent=2)
        self.control_circuit = ("maj", self.n, text)
        bad, fields = circuit_facts(text, "maj", self.n, self.seed)
        ident.note(key, fields)
        words = O.special_words(self.n) + O.seeded_words(self.seed, self.n, 200)
        wrong = O.machine_mismatches(recognize, spec, O.oracle("maj"), words)
        return ([f"{key} circuit disagrees with the oracle on {bad[:3]}"]
                if bad else []) + (
            [f"machine disagrees with the oracle on {wrong[:3]}"]
            if wrong else [])

    def machine_control(self):
        """The wrong machine goes through the operation's own path: verify
        with compile's recognize replaced must end in a failed judgement."""
        small = VerifyMaj(self.seed, self.workdir, n=4, samples=40)
        patch = SP.Patcher()
        patch.set(satcirc.compile, "recognize", wrong_machine)
        try:
            rec, _ = small.collect(0, small.call(entry_points(), 0))
        finally:
            patch.restore()
        return bool(small.judge(0, rec, Identity()))


class MachineMix(Workload):
    name = "machine-mix"
    n = 32
    timeout_s = 5.0
    heavy = False

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.keys = list(self.specs)
        self.rng = random.Random(f"machine-mix:{seed}")

    def input(self, k):
        return (self.keys[k % len(self.keys)],
                format(self.rng.getrandbits(self.n), f"0{self.n}b"))

    def call(self, entry, arg):
        key, w = arg
        return entry["machine.recognize"](self.specs[key], w)

    def judge(self, arg, rec, ident):
        key, w = arg
        return "" if rec == O.oracle(key)(w) else f"{key} on {w}"

    def fixture(self, ident):
        out = []
        for key, spec in self.specs.items():
            bad = O.machine_mismatches(recognize, spec, O.oracle(key),
                                       O.special_words(self.n))
            if bad:
                out.append(f"{key} disagrees with the oracle on {bad}")
        return out

    def controls(self):
        caught = 0
        for k in range(len(self.keys)):
            arg = self.input(k)
            rec = self.call({"machine.recognize": wrong_machine}, arg)
            caught += bool(self.judge(arg, rec, None))
        return {"wrong-machine": caught == len(self.keys)}


WORKLOADS = {w.name: w for w in (CompileMaj, FamilyHard, VerifyMaj,
                                 MachineMix)}


# ---------------------------------------------------------------------------
# measurement


class Op(NamedTuple):
    k: int
    arg: object
    dur: float      # wall seconds, None if the operation failed to finish
    rec: object     # the collected result, or the failure's reason
    written: int    # bytes of artifacts the operation wrote
    cal: float      # calibration seconds around the operation's block


def measure(wl: Workload, entry: dict, seconds: float, first: int = 0):
    """Closed loop for about ``seconds``. An operation is not started when
    the last one suggests it would end past the budget, but at least one
    runs. Operations run in blocks, one per heavy operation or BLOCK_S of
    light ones, with a calibration before and after each block."""
    ops: list[Op] = []
    clock = time.perf_counter
    t0 = clock()
    last = 0.0
    k = first

    def more():
        return k == first or clock() - t0 + last <= seconds

    while more():
        if wl.heavy:
            gc.collect()
        cal = calib.calibrate()
        block = []
        b0 = clock()
        while True:
            arg = wl.input(k)
            start = clock()
            try:
                with time_limit(wl.timeout_s):
                    raw = wl.call(entry, arg)
            except OpTimeout as e:
                block.append((k, arg, None, f"timed out: {e}", 0))
            except Exception as e:  # an operation that raised has failed
                block.append((k, arg, None,
                              f"raised {type(e).__name__}: {e}", 0))
            else:
                last = clock() - start
                block.append((k, arg, last, *wl.collect(arg, raw)))
            k += 1
            if wl.heavy or clock() - b0 >= BLOCK_S or not more():
                break
        cal = (cal + calib.calibrate()) / 2
        ops.extend(Op(*op, cal) for op in block)
    return ops


def install_tracing(rec: SP.Recorder, patch: SP.Patcher, specs):
    """Spans at every call from one satcirc module into another, counts on
    Builder gate requests, Flt.make and UNat.from_int, and spans on host
    callbacks."""
    mods = {m: importlib.import_module(f"satcirc.{m}") for m in LAYERS}
    amounts = {"circuit.to_json": lambda a, r: len(r),
               "circuit.eval_batch": lambda a, r: len(a[1])}
    for mod in mods.values():
        for attr, fn, layer in SP.module_functions(mod, "satcirc"):
            name = f"{layer}.{fn.__name__}"
            patch.set(mod, attr, SP.span(rec, name, fn, amounts.get(name)))
    synth, bitnum = mods["synth"], mods["bitnum"]
    patch.set(mods["compile"], "S", SP.proxy_module(rec, synth, "synth"))
    patch.set(synth, "Circuit", SP.span(rec, "circuit.Circuit", synth.Circuit))
    patch.wrap_method(synth.Builder, "build",
                      lambda f: SP.span(rec, "synth.Builder.build", f))
    for m in GATE_METHODS:
        patch.wrap_method(synth.Builder, m, lambda f, m=m: SP.counted(
            rec, f"synth.Builder.{m}", f))
    patch.wrap_method(bitnum.Flt, "make",
                      lambda f: SP.counted(rec, "bitnum.Flt.make", f))
    patch.wrap_method(bitnum.UNat, "from_int",
                      lambda f: SP.counted(rec, "bitnum.UNat.from_int", f))
    for spec in specs:
        for key, fn in list(spec.hosts.items()):
            patch.set_item(spec.hosts, key, SP.span(rec, "builtins.host", fn))


def entry_points() -> dict:
    return {"cli.main": cli.main, "machine.recognize": recognize}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set up, measure, then judge every operation and run the
    fixture checks and negative controls. Returns everything measured."""
    workdir = OUT / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    wl = WORKLOADS[workload](seed, workdir)
    res = {"workload": workload, "seed": seed, "trace": trace}
    rec = None
    if trace:
        untraced = measure(wl, entry_points(), seconds / 3)
        rec, patch = SP.Recorder(), SP.Patcher()
        plain = entry_points()
        install_tracing(rec, patch, wl.specs.values())
        try:
            traced = measure(wl, {k: SP.span(rec, k, f)
                                  for k, f in plain.items()},
                             seconds - sum(op.dur or 0 for op in untraced),
                             first=len(untraced))
        finally:
            patch.restore()
        ops = untraced + traced
    else:
        ops = measure(wl, entry_points(), seconds)
        res["peak_rss_mb"] = peak_rss_mb()
    done = [op for op in ops if op.dur is not None]
    bytes_per_op = sum(op.written for op in done) / max(len(done), 1)

    ident = Identity(OUT / "identity.json")
    tally = O.Tally()
    problems = wl.fixture(ident)
    for op in ops:
        if op.dur is None:
            tally.record(False, op.rec)
        elif problems:
            tally.record(False, problems[0])
        else:
            why = wl.judge(op.arg, op.rec, ident)
            tally.record(not why, why)
    ident.save()
    controls = wl.controls()
    res.update(
        durations=[op.dur for op in done],
        normalized=[op.dur / op.cal for op in done],
        calibration_s=sorted({op.cal for op in ops}),
        attempted=tally.attempted, failed=tally.failed,
        reasons=tally.reasons, problems=problems, controls=controls,
        identity={k: ident.seen[k] for k in wl.emitted},
        identity_conflicts=ident.conflicts, artifact_bytes=bytes_per_op)
    res["correct"] = (tally.failed == 0 and not ident.conflicts
                      and all(controls.values()))
    if trace:
        t_ops = [op.dur for op in traced if op.dur is not None]
        u_ops = [op.dur for op in untraced if op.dur is not None]
        res["traced_ops"] = len(t_ops)
        res["layers"] = layer_metrics(rec, wl, t_ops, u_ops, bytes_per_op,
                                      res["identity"])
        rec.dump(str(OUT / f"spans-{workload}-s{seed}.json"),
                 {"workload": workload, "seed": seed, "ops": len(t_ops)})
    return res


def layer_metrics(rec: SP.Recorder, wl: Workload, traced: list,
                  untraced: list, artifact_bytes: int, identity: dict) -> dict:
    """Per-layer metrics, each per traced operation."""
    ops = len(traced)
    by = rec.by_name()
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return by.get(name, zero)[0] / ops

    def total(name):
        return by.get(name, zero)[1] / ops

    def own(name):
        return by.get(name, zero)[2] / ops

    def edges(name, parents):
        picked = [e for (p, n), e in rec.edges.items()
                  if n == name and parents(p)]
        return [sum(e[k] for e in picked) / ops for k in range(4)]

    def prefixed(prefix, k):
        return sum(e[k] for n, e in by.items() if n.startswith(prefix)) / ops

    entries = ("compile.compile_saturated", "compile.compile_hard",
               "compile.plan_widths")
    xcheck = edges("circuit.eval_batch", lambda p: p in entries)
    checking = edges("circuit.eval_batch", lambda p: p not in entries)
    requests = sum(v for n, v in rec.counts.items()
                   if n.startswith("synth.Builder.")
                   and n[len("synth.Builder."):] in GATE_METHODS) / ops
    gates = sum(identity[k]["size"] for k in wl.emitted)
    sizes = [identity[k] for k in wl.emitted]
    largest = sizes[-1] if sizes else {}
    wall = sum(traced) / ops
    layer_self = rec.layer_self()
    m = {
        "cli.main.self_s": own("cli.main"),
        "cli.artifact_bytes": artifact_bytes,
        "compile.plan_widths.s": total("compile.plan_widths"),
        "compile.plan_widths.self_s": own("compile.plan_widths"),
        "compile.plan_widths.calls": calls("compile.plan_widths"),
        "compile.compile_saturated.s": total("compile.compile_saturated"),
        "compile.compile_hard.s": total("compile.compile_hard"),
        "compile.table_rows": calls("machine.eval_expr"),
        "compile.table_s": total("machine.eval_expr"),
        "compile.xcheck_evals": xcheck[0],
        "compile.xcheck_s": xcheck[1],
        "compile.verify_equivalence.s": total("compile.verify_equivalence"),
    }
    for g in ("f_ge", "f_gt", "f_eq"):
        m[f"synth.{g}.calls"] = calls(f"synth.{g}")
        m[f"synth.{g}.s"] = total(f"synth.{g}")
    for g in ("f_sum", "f_div_by_indicators", "f_sum_tree", "f_mul_const"):
        m[f"synth.{g}.s"] = total(f"synth.{g}")
    m.update({
        "synth.builder.requests": requests,
        "synth.builder.build.s": total("synth.Builder.build"),
        "synth.gate_yield": gates / requests if requests else 0.0,
        "synth.manifest.s": total("synth.manifest"),
        "circuit.eval_batch.calls": checking[0],
        "circuit.eval_batch.words": checking[3],
        "circuit.eval_batch.s": checking[1],
        "circuit.Circuit.s": total("circuit.Circuit"),
        "circuit.metrics.s": total("circuit.metrics"),
        "circuit.to_json.s": total("circuit.to_json"),
        "circuit.to_json.bytes": by.get("circuit.to_json", zero)[3] / ops,
        "circuit.family_analyze.s": total("circuit.family_analyze"),
        "machine.run.calls": calls("machine.run"),
        "machine.run.s": total("machine.run"),
        "machine.recognize.calls": calls("machine.recognize"),
        "machine.recognize.s": total("machine.recognize"),
        "machine.recognize.self_s": own("machine.recognize"),
        "machine.instrument_sizes.s": total("machine.instrument_sizes"),
        "bitnum.calls": prefixed("bitnum.", 0),
        "bitnum.flt.s": prefixed("bitnum.flt", 1),
        "bitnum.rat.s": prefixed("bitnum.rat", 1),
        "bitnum.Flt.make.calls": rec.counts.get("bitnum.Flt.make", 0) / ops,
        "bitnum.UNat.from_int.calls":
            rec.counts.get("bitnum.UNat.from_int", 0) / ops,
        "builtins.builtin_spec.s": total("builtins.builtin_spec"),
        "builtins.host.calls": calls("builtins.host"),
        "builtins.host.s": total("builtins.host"),
    })
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = layer_self.get(layer, 0.0) / ops
    m["harness.self_s"] = wall - rec.root_s / ops
    m["trace.wall_s"] = wall
    m["trace.untraced_s"] = ST.median(untraced)
    m["trace.overhead_s"] = ST.median(traced) - ST.median(untraced)
    m["trace.spans_dropped"] = rec.dropped
    m["circuit_size"] = largest.get("size", 0)
    m["circuit_depth"] = max((s["depth"] for s in sizes), default=0)
    m["circuit_theta"] = largest.get("theta", 0)
    return m
