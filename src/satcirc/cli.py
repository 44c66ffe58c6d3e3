"""Command line front end: run, compile, verify, complexity.

Exit codes: 0 clean, 1 verification found mismatches, 2 for unusable
requests (bad flags, unparsable spec files, uncompilable specs). All
artifacts land under --out-dir (default $SATCIRC_OUT or ./out), written
atomically, and seeded invocations are byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

from .bitnum import BitNumError
from .builtins import BUILTIN_NAMES, PRED_BUILTINS, builtin_spec
from .circuit import (CircuitError, family_analyze, from_json, to_dot,
                      to_json)
from .compile import (CompileError, compile_planned, compile_saturated,
                      default_samples, verify_equivalence)
from .machine import (MachineError, instrument_sizes, load_spec,
                      read_utf8, recognize, run)
from .synth import SynthError, manifest

OUT_DIR_ENV = "SATCIRC_OUT"
USER_ERRORS = (MachineError, CompileError, CircuitError, BitNumError,
               SynthError, OSError)


def _out_dir(args: argparse.Namespace) -> str:
    return args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"


def _write(path: str, text: str):
    """Atomic replace so a crashed run never leaves half a file."""
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows):
    """The CSV report at path, written atomically, and where it went."""
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    _write(path, buf.getvalue())
    print(f"report -> {path}")


def _load(args: argparse.Namespace):
    if bool(args.spec) == bool(args.builtin):
        raise MachineError("give exactly one of --spec FILE or --builtin NAME")
    if args.pred is not None and args.builtin not in PRED_BUILTINS:
        raise MachineError(f"--pred goes only with --builtin "
                           f"{' or '.join(PRED_BUILTINS)}")
    if args.spec:
        return load_spec(args.spec)
    return builtin_spec(args.builtin, args.pred)


def _ns(args: argparse.Namespace) -> tuple:
    """The n values asked for, each distinct n once, in the order first
    given."""
    if args.n is not None and args.n_list:
        raise MachineError("give --n or --n-list, not both")
    ns = tuple(dict.fromkeys(args.n_list)) or (
        (args.n,) if args.n is not None else ())
    if not ns:
        raise MachineError(f"need {args.n_flags}")
    if min(ns) < 1:
        raise MachineError("need n >= 1")
    return ns


def _pair(v) -> list:
    num, den = v.as_pair()
    return [num, den]


def _trace_json(spec, t) -> dict:
    return {
        "spec": spec.name or "spec",
        "input": t.input,
        "n": t.n,
        "accept": t.accept,
        "values": [[[_pair(c) for c in vec] for vec in layer]
                   for layer in t.values],
        "scores": [[[[_pair(s) for s in row] for row in head]
                    for head in layer] for layer in t.scores],
        "tie_sets": [[[list(row) for row in head] for head in layer]
                     for layer in t.ties],
        "head_out": [[[[_pair(c) for c in vec] for vec in head]
                      for head in layer] for layer in t.head_out],
        "layer_max_size": list(t.layer_max_size),
    }


def cmd_run(args: argparse.Namespace) -> int:
    spec = _load(args)
    if not args.input:
        raise MachineError("run needs --input WORD")
    t = run(spec, args.input) if args.trace else None
    accept = recognize(spec, args.input) if t is None else t.accept
    name = spec.name or "spec"
    print(f"{name} on {args.input!r}: {'accept' if accept else 'reject'}")
    if t is not None:
        path = os.path.join(_out_dir(args), f"{name}.trace.json")
        _write(path, json.dumps(_trace_json(spec, t), indent=2))
        print(f"trace -> {path}")
    return 0


def cmd_compile(args: argparse.Namespace) -> int:
    spec = _load(args)
    (n,) = _ns(args)
    c, roles = compile_planned(spec, n, include_values=args.values)
    name = spec.name or "spec"
    base = os.path.join(_out_dir(args), f"{name}_n{n}")
    _write(base + ".json", to_json(c, indent=2))
    wrote = [base + ".json"]
    if args.format == "dot":
        _write(base + ".dot", to_dot(c))
        wrote.append(base + ".dot")
    man = manifest(c, name, n=n,
                   width_plan={r: list(v) for r, v in
                               sorted(roles.items())})
    _write(base + ".manifest.json", json.dumps(man, indent=2))
    wrote.append(base + ".manifest.json")
    print(f"{name} n={n}: size={man['size']} depth={man['depth']} "
          f"theta={man['theta_count']}")
    for p in wrote:
        print(f"  -> {p}")
    return 0


def _circuit_file(path: str):
    """A compile_fn that reads the circuit artifact at path instead of
    compiling; a corrupted file shows up as plain mismatches, not a
    crash, and one with the wrong input count as a named error."""
    def read(spec, n):
        c, k = from_json(read_utf8(path, CircuitError)), len(spec.alphabet)
        if c.n != n * k:
            raise CircuitError(
                f"{path} has {c.n} inputs; {spec.name or 'spec'} at n={n} "
                f"needs {n * k} ({n} positions, {k} symbols each)")
        return c
    return read


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load(args)
    given = {f: v for f in ("samples", "seed")
             if (v := getattr(args, f)) is not None}
    if given and args.mode == "exhaustive":
        raise MachineError(f"--{next(iter(given))} goes only with "
                           "--mode random")
    if args.circuit and len(_ns(args)) != 1:
        raise MachineError("--circuit verification takes a single --n")
    compile_fn = (_circuit_file(args.circuit) if args.circuit
                  else compile_saturated)
    rep = verify_equivalence(spec, _ns(args), args.mode,
                             compile_fn=compile_fn, **given)
    for r in rep.rows:
        status = "ok" if r.mismatches == 0 else "MISMATCH"
        extra = ("" if r.first_counterexample is None
                 else f" first={r.first_counterexample}")
        print(f"n={r.n} {r.mode} tested={r.tested} "
              f"mismatches={r.mismatches}{extra} [{status}]")
    _write_csv(os.path.join(_out_dir(args), "verify.csv"),
               ["n", "mode", "tested", "mismatches", "first_counterexample"],
               ([r.n, r.mode, r.tested, r.mismatches,
                 r.first_counterexample or ""] for r in rep.rows))
    return 0 if rep.ok else 1


def cmd_complexity(args: argparse.Namespace) -> int:
    spec = _load(args)
    ns = _ns(args)
    if len(ns) < 3:
        raise MachineError("complexity wants --n-list with at least three "
                           "distinct n")
    fam = family_analyze(lambda n: compile_saturated(spec, n), ns)
    inputs = {n: default_samples(spec, n, seed=args.seed) for n in ns}
    sizes = instrument_sizes(spec, inputs)
    bits = {r.n: r.overall for r in sizes.rows}
    for r in fam.rows:
        print(f"n={r.n} size={r.size} depth={r.depth} "
              f"theta={r.theta_count} value_bits={bits[r.n]}")
    print(f"size slope {fam.slope:.3f} (log-log), depth "
          f"{'constant' if fam.depth_constant else 'VARIES'}, "
          f"value bits fit {sizes.a:.2f} + {sizes.b:.2f}*log2(n)")
    _write_csv(os.path.join(_out_dir(args), "complexity.csv"),
               ["n", "size", "depth", "theta_count", "max_fanin",
                "max_value_bits"],
               ([r.n, r.size, r.depth, r.theta_count, r.max_fanin, bits[r.n]]
                for r in fam.rows))
    return 0


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of ints: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="satcirc",
        description="saturated-attention transformers over exact binary "
                    "arithmetic, and their threshold-circuit compilations")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, text, *n_flags):
        """A subcommand with the spec flags and the given n flags. No
        flag may be abbreviated, so a command without --n does not read
        it as --n-list."""
        sp = sub.add_parser(name, help=text, allow_abbrev=False)
        sp.add_argument("--spec", help="s-expression spec file")
        sp.add_argument("--builtin", choices=BUILTIN_NAMES,
                        help="built-in construction")
        sp.add_argument("--pred", choices=("parity", "bigram11"),
                        help="predicate for host-backed builtins")
        sp.add_argument("--out-dir", dest="out_dir",
                        help=f"artifact directory (default ${OUT_DIR_ENV} "
                             "or ./out)")
        if "--n" in n_flags:
            sp.add_argument("--n", type=int)
        if "--n-list" in n_flags:
            sp.add_argument("--n-list", dest="n_list", type=_int_list,
                            help="comma list, e.g. 4,8,16")
        sp.set_defaults(n=None, n_list=(), n_flags=" or ".join(n_flags))
        return sp

    sp = command("run", "evaluate the machine on one word")
    sp.add_argument("--input", help="token string")
    sp.add_argument("--trace", action="store_true",
                    help="also write the full value trace as JSON")

    sp = command("compile", "emit the circuit for one n", "--n")
    sp.add_argument("--format", choices=("json", "dot"), default="json",
                    help="dot additionally writes a graphviz file")
    sp.add_argument("--values", action="store_true",
                    help="also expose final-layer value wires as outputs")

    sp = command("verify", "circuit vs machine, word by word", "--n",
                 "--n-list")
    sp.add_argument("--mode", choices=("exhaustive", "random"),
                    default="exhaustive")
    sp.add_argument("--samples", type=int,
                    help="words per n in random mode (default 1000)")
    sp.add_argument("--seed", type=int,
                    help="word seed in random mode (default 0)")
    sp.add_argument("--circuit", help="recheck this circuit JSON "
                                      "instead of compiling")

    sp = command("complexity", "size/depth/theta growth across n",
                 "--n-list")
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the sampled words whose value sizes "
                         "are measured")
    return p


COMMANDS = {"run": cmd_run, "compile": cmd_compile, "verify": cmd_verify,
            "complexity": cmd_complexity}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
