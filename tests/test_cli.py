"""End-to-end CLI checks: exit codes, artifacts, reproducibility."""

import ast
import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

import satcirc.cli
import satcirc.compile
import satcirc.machine
import satcirc.workers
from satcirc.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")
SPECS = Path(__file__).resolve().parents[1] / "specs"

MAJ_TEXT = """
; majority, 1-based indices throughout
(transformer
  (name maj-file)
  (alphabet 0 1)
  (datatype F)
  (width 2)
  (embedding (tup (tok 2) (const 1)))
  (layer
    (head saturated (const 0))
    (activation (tup (head 1 1) (head 1 2))))
  (classifier (w 2 -1) (b 0)))
"""


def out(capsys):
    return capsys.readouterr()


@pytest.fixture
def compiles(monkeypatch):
    """The n of every compile the CLI starts; the compilers are stubbed."""
    calls = []
    monkeypatch.setattr(satcirc.cli, "compile_planned",
                        lambda spec, n, **kw: calls.append(n))
    for module in (satcirc.cli, satcirc.compile):
        monkeypatch.setattr(module, "compile_saturated",
                            lambda spec, n: calls.append(n))
    return calls


def test_run_accepts_and_rejects(tmp_path, capsys):
    assert main(["run", "--builtin", "maj", "--input", "1101",
                 "--out-dir", str(tmp_path)]) == 0
    assert "accept" in out(capsys).out
    assert main(["run", "--builtin", "maj", "--input", "0010",
                 "--out-dir", str(tmp_path)]) == 0
    assert "reject" in out(capsys).out


def test_run_trace_artifact(tmp_path, capsys):
    assert main(["run", "--builtin", "maj", "--input", "0110", "--trace",
                 "--out-dir", str(tmp_path)]) == 0
    t = json.loads((tmp_path / "maj.trace.json").read_text())
    assert t["input"] == "0110" and t["accept"] is False
    assert t["values"] and t["tie_sets"]


# sha256 of the trace JSON that `run --trace` wrote while it still ran
# the machine twice (recognize, then run); one run gives the same bytes
RUN_TRACE_SHA256 = {
    ("maj", "0110"): (
        "reject",
        "cd86b6928f6fcdaa840639bc67d8fd44de7f1b8f991c6f2ea278280126ec412b"),
    ("maj", "1101"): (
        "accept",
        "78633c9ccaf3e7a4b282e7979bd7803345f3116401a74e76af9610f09842836d"),
    ("hard-demo", "10110"): (
        "accept",
        "c74de1e792f378456ecd4b9a8bb190971283e26f25d5bcad9385dff7043edc3c"),
    ("maj-q", "0101"): (
        "reject",
        "019d70188c157a72447d3b2723b3bf4e92cb0908e2f96e5707474688a5869d1d"),
}


@pytest.mark.parametrize("name, word", list(RUN_TRACE_SHA256))
def test_run_trace_runs_the_machine_once(name, word, tmp_path, capsys,
                                         monkeypatch):
    calls = []
    real = satcirc.machine.forward

    def counted(spec, word, *args, **kwargs):
        calls.append(word)
        return real(spec, word, *args, **kwargs)

    monkeypatch.setattr(satcirc.machine, "forward", counted)
    assert main(["run", "--builtin", name, "--input", word, "--trace",
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == [word]
    verdict, sha = RUN_TRACE_SHA256[name, word]
    path = tmp_path / f"{name}.trace.json"
    assert out(capsys).out == (f"{name} on {word!r}: {verdict}\n"
                               f"trace -> {path}\n")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha


@pytest.mark.parametrize("n_list, err", [
    ("16,0", "need n >= 1"),
    ("4,-3", "need n >= 1"),
    ("4,21", "exhaustive verification over 2^21 words is too large"),
])
def test_verify_refuses_every_bad_n_before_compiling(n_list, err, tmp_path,
                                                     capsys, compiles):
    assert main(["verify", "--builtin", "maj", "--n-list", n_list,
                 "--out-dir", str(tmp_path)]) == 2
    assert compiles == []
    assert out(capsys).err == f"error: {err}\n"
    if err == "need n >= 1":
        assert main(["complexity", "--builtin", "maj", "--n-list",
                     f"8,{n_list}", "--out-dir", str(tmp_path)]) == 2
        assert out(capsys).err == f"error: {err}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, err", [
    (["verify", "--builtin", "maj", "--n", "2", "--n-list", "3"],
     "give --n or --n-list, not both"),
    (["compile", "--builtin", "maj", "--pred", "parity", "--n", "2"],
     "--pred goes only with --builtin prime-universal or resource-bounded"),
    (["verify", "--builtin", "hard-demo", "--pred", "bigram11", "--n", "2"],
     "--pred goes only with --builtin prime-universal or resource-bounded"),
    (["compile", "--spec", str(SPECS / "maj_f.sexp"), "--pred", "parity",
      "--n", "2"],
     "--pred goes only with --builtin prime-universal or resource-bounded"),
    (["run", "--builtin", "maj", "--pred", "parity", "--input", "01"],
     "--pred goes only with --builtin prime-universal or resource-bounded"),
    (["verify", "--builtin", "maj", "--n", "3", "--samples", "-5"],
     "--samples goes only with --mode random"),
    (["verify", "--builtin", "maj", "--n", "3", "--seed", "3"],
     "--seed goes only with --mode random"),
    (["verify", "--builtin", "maj", "--n", "3", "--mode", "exhaustive",
      "--samples", "1000", "--seed", "0"],
     "--samples goes only with --mode random"),
])
def test_flags_that_would_be_ignored_are_refused(argv, err, tmp_path, capsys,
                                                 compiles):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert compiles == []
    assert out(capsys).err == f"error: {err}\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["compile", "--builtin", "maj", "--n", "3", "--seed", "9"],
    ["run", "--builtin", "maj", "--input", "0101", "--seed", "3"],
    ["run", "--builtin", "maj", "--input", "0101", "--samples", "3"],
])
def test_commands_that_draw_no_words_refuse_seed_and_samples(
        argv, tmp_path, capsys, compiles):
    _refused_by_argparse(argv, argv[-2:], tmp_path, capsys, compiles)


@pytest.mark.parametrize("argv, flags", [
    (["compile", "--builtin", "maj", "--n-list", "3"], ["--n-list", "3"]),
    (["compile", "--builtin", "maj", "--n", "2", "--n-list", "3"],
     ["--n-list", "3"]),
    (["complexity", "--builtin", "maj", "--n", "8"], ["--n", "8"]),
    (["complexity", "--builtin", "maj", "--n", "4,8,16"], ["--n", "4,8,16"]),
    (["compile", "--builtin", "maj", "--n", "2", "--val"], ["--val"]),
])
def test_compile_takes_one_n_and_complexity_a_list(argv, flags, tmp_path,
                                                   capsys, compiles):
    """compile has no --n-list and complexity no --n, and no flag is
    taken by a prefix, so --n never stands for --n-list."""
    _refused_by_argparse(argv, flags, tmp_path, capsys, compiles)


def _refused_by_argparse(argv, flags, tmp_path, capsys, compiles):
    with pytest.raises(SystemExit) as exc:  # argparse exits by itself
        main(argv + ["--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert compiles == []
    assert out(capsys).err.endswith(
        f"error: unrecognized arguments: {' '.join(flags)}\n")
    assert not list(tmp_path.iterdir())


def test_run_spec_file_and_parse_error(tmp_path, capsys):
    spec = tmp_path / "maj.sexp"
    spec.write_text(MAJ_TEXT)
    assert main(["run", "--spec", str(spec), "--input", "110",
                 "--out-dir", str(tmp_path)]) == 0
    assert "accept" in out(capsys).out
    broken = tmp_path / "broken.sexp"
    broken.write_text("(transformer (alphabet 0 1)")
    assert main(["run", "--spec", str(broken), "--input", "01",
                 "--out-dir", str(tmp_path)]) == 2
    assert "error:" in out(capsys).err


@pytest.mark.parametrize("expr, want", [
    ("(proj)", "(proj ...) wants 2 operands, got 0"),
    ("(div (tok 1))", "(div ...) wants 2 operands, got 1"),
    ("(select (tok 1) (pos))", "(select ...) wants 3 operands, got 2"),
    ("(affine)", "(affine ...) wants at least 2 operands, got 0"),
    ("(head 1)", "(head ...) wants 2 operands, got 1"),
    ("(neg (pos) (pos))", "(neg ...) wants 1 operand, got 2"),
    ("(add (pos))", "(add ...) wants at least 2 operands, got 1"),
    ("(proj (pos) (arg 1))", "expected a 1-based index, got ['pos']"),
    ("(tok 0)", "indices are 1-based, got 0"),
    ("(head 1 3)", "(head H K) wants K in 1..2, got 3"),
    ("(arg 3)", "(arg J) wants J in 1..2, got 3"),
    ("(head 2 1)", "(head H K) wants H in 1..1, got 2"),
])
def test_run_spec_with_wrong_operand_count_is_refused(expr, want, tmp_path,
                                                       capsys):
    spec = tmp_path / "bad.sexp"
    spec.write_text(MAJ_TEXT.replace("(const 1)", expr))
    assert main(["run", "--spec", str(spec), "--input", "01",
                 "--out-dir", str(tmp_path)]) == 2
    assert f"error: {want}" in out(capsys).err


@pytest.mark.parametrize("old, new, want", [
    ("(width 2)", "(width 2 7)", "(width ...) wants 1 operand, got 2"),
    ("(datatype F)", "(datatype F Q)",
     "(datatype ...) wants 1 operand, got 2"),
    ("(embedding (tup (tok 2) (const 1)))",
     "(embedding (tup (tok 2) (const 1)) (pos))",
     "(embedding ...) wants 1 operand, got 2"),
    ("(name maj-file)", "(name maj-file) (name other)",
     "more than one (name ...) section"),
    ("(b 0))", "(b 0) (b 5))", "(classifier ...) wants 2 operands, got 3"),
    ("(b 0))", "(junk 1))", "classifier wants (w ...) then (b N)"),
    ("(b 0))", "0)", "classifier wants (w ...) then (b N)"),
    ("(w 2 -1) (b 0)", "(b 0) (w 2 -1)",
     "classifier wants (w ...) then (b N)"),
])
def test_run_spec_with_extra_or_misplaced_sections_is_refused(
        old, new, want, tmp_path, capsys):
    spec = tmp_path / "bad.sexp"
    spec.write_text(MAJ_TEXT.replace(old, new))
    assert main(["run", "--spec", str(spec), "--input", "01",
                 "--out-dir", str(tmp_path)]) == 2
    assert out(capsys).err == f"error: {want}\n"


def test_every_command_refuses_a_multi_character_alphabet_symbol(tmp_path,
                                                                capsys):
    # refused when read, not later as a token the user never wrote
    spec = tmp_path / "ab.sexp"
    spec.write_text(MAJ_TEXT.replace("(alphabet 0 1)", "(alphabet ab cd)"))
    for argv in (["run", "--input", "abcd"], ["compile", "--n", "2"],
                 ["verify", "--n", "2"]):
        assert main([*argv, "--spec", str(spec), "--out-dir",
                     str(tmp_path / "out")]) == 2, argv
        assert out(capsys).err == ("error: alphabet symbols must be one "
                                   "character each, got 'ab'\n"), argv
    assert not (tmp_path / "out").exists()


def _nested(op, depth, leaf="(tok 2)"):
    return f"({op} " * depth + leaf + ")" * depth


def test_every_command_refuses_an_over_deep_spec_without_a_traceback(
        tmp_path):
    spec = tmp_path / "deep.sexp"
    spec.write_text(MAJ_TEXT.replace("(tok 2)", _nested("neg", 3000)))
    for argv in (["run", "--input", "01"], ["compile", "--n", "2"],
                 ["verify", "--n", "2"]):
        r = _satcirc(["-m", "satcirc.cli", *argv, "--spec", str(spec),
                      "--out-dir", str(tmp_path / "out")], 60)
        assert (r.returncode, r.stderr) == (
            2, "error: spec file nests deeper than 100 levels\n"), argv
    assert not (tmp_path / "out").exists()


def test_spec_nesting_is_bounded_at_100_levels_chains_included(tmp_path,
                                                               capsys):
    # (transformer (embedding (tup (tok 2)))): the token is 4 levels deep
    # in the file and 2 in the embedding expression
    spec = tmp_path / "deep.sexp"
    cap = satcirc.machine.MAX_ADD_OPERANDS
    cases = [(_nested("neg", 96), None),
             (_nested("neg", 97), "spec file nests deeper than 100 levels"),
             # (mul ...) of k operands parses to a chain k - 1 levels deep
             ("(mul" + " (tok 2)" * 99 + ")", None),
             ("(mul" + " (tok 2)" * 100 + ")",
              "expression nests deeper than 100 levels"),
             # (add ...) of k >= 3 operands is one n-ary sum, one level
             ("(add" + " (tok 2)" * cap + ")", None),
             ("(add" + " (tok 2)" * (cap + 1) + ")",
              f"(add ...) wants at most {cap} operands, got {cap + 1}"),
             ("(add" + " (tok 2)" * 3000 + ")",
              f"(add ...) wants at most {cap} operands, got 3000")]
    for expr, why in cases:
        spec.write_text(MAJ_TEXT.replace("(tok 2)", expr))
        code = main(["run", "--spec", str(spec), "--input", "01",
                     "--out-dir", str(tmp_path)])
        err = out(capsys).err
        assert (code, err) == ((0, "") if why is None
                               else (2, f"error: {why}\n")), expr[:12]


def test_a_long_add_compiles_as_one_sum(tmp_path, capsys):
    # a 98-operand chain of binary adds did not compile in 120 s at n=3
    spec = tmp_path / "long.sexp"
    spec.write_text(MAJ_TEXT.replace("(tok 2)",
                                     "(add" + " (tok 2)" * 98 + ")"))
    start = time.perf_counter()
    assert main(["compile", "--spec", str(spec), "--n", "16",
                 "--out-dir", str(tmp_path)]) == 0
    assert time.perf_counter() - start < 2
    assert main(["verify", "--spec", str(spec), "--n", "3",
                 "--mode", "exhaustive", "--out-dir", str(tmp_path)]) == 0
    assert "n=3 exhaustive tested=8 mismatches=0 [ok]" in out(capsys).out


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "-O"])
def test_every_command_runs_a_spec_nested_exactly_100_levels(tmp_path, flags):
    # staging and every staged call add a frame per level; both chains
    # reach level 100 of the file: (tok 2) under 96 negs, (const 1) under
    # 48 proj/tup pairs
    chain = "(proj 1 (tup " * 48 + "(const 1)" + "))" * 48
    spec = tmp_path / "deep.sexp"
    spec.write_text(MAJ_TEXT.replace("(tok 2)", _nested("neg", 96))
                    .replace("(const 1)", chain))
    for argv in (["run", "--input", "0110"], ["compile", "--n", "2"],
                 ["verify", "--n", "2"]):
        r = _satcirc([*flags, "-m", "satcirc.cli", *argv, "--spec",
                      str(spec), "--out-dir", str(tmp_path / "out")], 120)
        assert (r.returncode, r.stderr) == (0, ""), argv


def test_a_pow2_tower_is_refused_by_name(tmp_path, capsys):
    # (pow2 (pow2 (pow2 (pos)))) at position 5 is 2^(2^32): 512 MB
    spec = tmp_path / "tower.sexp"
    spec.write_text(MAJ_TEXT.replace("(const 1)",
                                     "(pow2 (pow2 (pow2 (pos))))"))
    assert main(["run", "--spec", str(spec), "--input", "01010",
                 "--out-dir", str(tmp_path)]) == 2
    assert out(capsys).err == ("error: pow2 wants an exponent of at most "
                               f"{satcirc.machine.MAX_POW2_EXPONENT}\n")


def test_every_command_refuses_a_zero_width_spec(tmp_path, capsys):
    # refused as a spec, not by the circuit library once compile has begun
    spec = tmp_path / "w0.sexp"
    spec.write_text("(transformer (alphabet 0 1) (datatype F) (width 0) "
                    "(embedding (tup)) (layer (head hard (const 0)) "
                    "(activation (tup))) (classifier (w) (b 1)))")
    for argv in (["run", "--input", "01"], ["compile", "--n", "2"],
                 ["verify", "--n", "2"]):
        assert main(argv + ["--spec", str(spec), "--out-dir",
                            str(tmp_path)]) == 2
        assert out(capsys).err == "error: width must be at least 1, got 0\n"
    assert [p.name for p in tmp_path.iterdir()] == ["w0.sexp"]


@pytest.mark.parametrize("old, new, err, run_err", [
    ("(const 0)", "(gt (arg 1) (arg 2))",
     "gt: expected a scalar, got a 2-tuple", None),
    ("(const 0)", "(eq (arg 1) (arg 2))",
     "eq: expected a scalar, got a 2-tuple", None),
    ("(const 0)", "(arg 1)", "scorer: expected a scalar, got a 2-tuple", None),
    # a scorer the circuit never builds: only the sample walk evaluates it
    ("(head saturated (const 0))", "(head uniform (arg 1))",
     "scorer: expected a scalar, got a 2-tuple", None),
    ("(const 1)", "(proj 1 (pos))", "proj applied to a scalar", None),
    ("(const 1)", "(arg 1)", "tup component: expected a scalar, got a 2-tuple",
     None),
    ("(tok 2)", "(add (tup 1 2) (tok 2) 3)",
     "add: expected a scalar, got a 2-tuple", None),
    ("(tok 2)", "(add (tup 1 2) 3)", "add: expected a scalar, got a 2-tuple",
     None),
    ("(tok 2)", "(affine (w 1 1 1) (b 1) (tup 1 2) (tok 2) 3)",
     "affine: expected a scalar, got a 2-tuple", None),
    ("(const 1)", "1/3", "1/3 is not representable over F", None),
    ("(const 1)", "(div 1 0)", "division by zero", None),
    ("(tup (tok 2) (const 1))", "(tup (tok 2))",
     "embedding must produce a 2-tuple, got a 1-tuple", None),
    # the machine takes one branch, so it meets the scalar only where used
    ("(tup (tok 2) (const 1))", "(select (tok 2) (arg 1) (pos))",
     "select branches must have the same shape",
     "embedding must produce a 2-tuple, got a scalar"),
])
def test_machine_and_compiler_refuse_an_ill_shaped_expression_alike(
        old, new, err, run_err, tmp_path, capsys):
    text = MAJ_TEXT.replace(old, new, 1)
    spec = satcirc.machine.parse_spec(text)
    with pytest.raises(satcirc.machine.MachineError) as ran:
        satcirc.machine.run(spec, "01")
    with pytest.raises(satcirc.compile.CompileError) as compiled:
        satcirc.compile.compile_planned(spec, 2)
    assert str(ran.value) == (run_err or err)
    assert str(compiled.value) == err
    path = tmp_path / "bad.sexp"
    path.write_text(text)
    for argv, want in ((["run", "--input", "01"], run_err or err),
                       (["compile", "--n", "2"], err)):
        assert main(argv + ["--spec", str(path), "--out-dir",
                            str(tmp_path)]) == 2
        assert out(capsys).err == f"error: {want}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["bad.sexp"]


def test_usage_errors(tmp_path, capsys):
    # neither or both spec sources, missing input, missing n
    assert main(["run", "--input", "01"]) == 2
    assert main(["run", "--builtin", "maj"]) == 2
    capsys.readouterr()
    # a missing n names the flags the command has
    for cmd, flags in (("compile", "--n"), ("verify", "--n or --n-list"),
                       ("complexity", "--n-list")):
        assert main([cmd, "--builtin", "maj",
                     "--out-dir", str(tmp_path)]) == 2
        assert out(capsys).err == f"error: need {flags}\n"
    # n below 1 is named, for compile and for verify
    for cmd in ("compile", "verify"):
        for n in ("0", "-3"):
            assert main([cmd, "--builtin", "maj", "--n", n,
                         "--out-dir", str(tmp_path)]) == 2
            assert out(capsys).err == "error: need n >= 1\n"
    assert not list(tmp_path.iterdir())


def test_compile_artifacts_and_reproducibility(tmp_path, capsys):
    args = ["compile", "--builtin", "maj", "--n", "5", "--format", "dot",
            "--out-dir", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "maj_n5.json").read_bytes()
    man = json.loads((tmp_path / "maj_n5.manifest.json").read_text())
    assert man["params"]["n"] == 5
    assert man["theta_count"] > 0
    assert man["params"]["width_plan"]
    assert (tmp_path / "maj_n5.dot").read_text().startswith("digraph")
    assert main(args) == 0
    assert (tmp_path / "maj_n5.json").read_bytes() == first
    capsys.readouterr()


def test_compile_hard_demo_is_theta_free(tmp_path, capsys):
    assert main(["compile", "--builtin", "hard-demo", "--n", "6",
                 "--out-dir", str(tmp_path)]) == 0
    man = json.loads((tmp_path / "hard-demo_n6.manifest.json").read_text())
    assert man["theta_count"] == 0
    capsys.readouterr()


# sha256 of (circuit JSON, manifest): a compiler speed-up must not
# change a byte of either. A key ending in .sexp names a file in specs/.
PINNED = {
    ("maj_f.sexp", 2, False): (
        "e0aec8f0a7617f99eda88d75e746cd29d39b5395aa3f02a9dc00732a7ecd19f4",
        "dd32f58552218a097cf6910ee45e0adc141ee6bda1fd5d33f6ca5aefedce30f3"),
    ("maj_f.sexp", 3, False): (
        "0581367bd298a454abfe4cfba8c1265542d5f5019f845be4dfe5aa720a7b949a",
        "838b5dbc27670d6a33cf361d97cb98379347934c5975ea0ad28099a4cf72887e"),
    ("more_a_than_b.sexp", 4, False): (
        "37f85eecb6eb21d9fbc3bf98a5452ad434625bb73ab64afc9351b544553566a1",
        "55b9f4d889f141d3b4e319d672725cd3367a5913b38c1d9ef2dc9c4429171cf9"),
    ("maj", 4, False): (
        "523cd170054019a222c3aaa014a378e7259e7f3c180af373fab817678b57ae9b",
        "ceec1107ce5a1c1b4cd525d74fe3108db6bf4fc1f1cbac7b98e07b408d9eb7d1"),
    ("maj", 4, True): (
        "143d572c793d956861fd7e3549763cc09ccd83a0d1a3e68f0f18fefb8242a5a8",
        "4270e4fe6a0fabdb60092c608d94801e420d7c6b4dc59a8b1349660c84dcbadd"),
    ("maj", 8, False): (
        "f4d92bd4b9550ad269d8ca8e807561ac81fb4e86ed749500228e1d2d20a749cd",
        "a9e9961034e5418ede58ab80fd661057339d99bd1f010da1d0393990159d8276"),
    ("maj", 8, True): (
        "826c4bb7b464f5ad6a93ee6e330e99520ee04b8db027d10fc4b080524ba67d8a",
        "b05dbc242a99727df9f6fc9d1779f7837a0a717011d85d750d87faf276cbd9ae"),
    ("maj", 16, False): (
        "66ac2d589c7a582a0dd59f58204521a930559b7e74398515eb3424107225ef3f",
        "f19cd3483f2c000c202fdf7f9ddb8709f436d8fd334fae3766e328305dcc6cfd"),
    ("maj", 16, True): (
        "aeb81e03f8e197a39115ffa758f91485ed8e94def417396a5f9e733f45cfd030",
        "3827181bde148afc44edce43df3bbf82856d5140f1b7cb33a5b882c20f0e1dbf"),
    ("hard-demo", 4, False): (
        "44dd0eacc0c7e6680bcd5657314120ac025a430cd90fc9a65903e82035a89766",
        "3beae9a0e400bcdb88dd50305e695280a021684dcf9d04ab70880da1312cb102"),
    ("hard-demo", 4, True): (
        "de81da1aa2b7207d9cdddea1d7ea7978c8aa403a205c6e1f7ff6e96bed661424",
        "afa3f0d87ec91d8b2e94fcb5f9011b6ceaf570e00428ae75cf0e6e32e2b624a3"),
    ("hard-demo", 8, False): (
        "2a5f06d1f3cdab57c72f2298fd332ecd204ba94d5a9db7ce54c7e0033a281ad1",
        "7bcd6d00515ddfeb02fe55060e5b2f9ef2f1edd35ad35371cf91de8856b1cbda"),
    ("hard-demo", 12, False): (
        "32b702fabe08e35726b64b19f266842b89153a62f26b1ef4e571377f70e6a88c",
        "425e6fa9a4fead162fbfaf42d810012e205383601b5d97e7113b9ad97c7323ba"),
    ("hard-demo", 8, True): (
        "551ed08a00c16407e4d8543379f98eeeabdb5415b245385f19b0af688e115f9d",
        "b9cef71001b2be3f93f85429139591d157162f246b11b10de1fdca155fe4e9b3"),
    ("hard-demo", 16, False): (
        "bbf76d0994d7aa890619c4bf4e3ef2ec61d0951ef316bf86f378fba60c291f2c",
        "ec95461929a6cc3e9555c9b411d4495bf59a1825549f27aae88c65be67fcb66c"),
    ("hard-demo", 16, True): (
        "d70977adf2020397b8e9434cff83b19a7370a1964240799353077147ce2c6f5c",
        "ebb19739cff3e80da628e6fe0f02e4ab3917c39d55045b3b5f2fc0e048d36bb4"),
    # the argmax's share of hard-demo's circuit grows as n^3; maj's
    # head pools as uniform and builds no argmax
    ("maj", 32, False): (
        "7a2ee7597b9a860e49e2d821a3e7cdca623a4b32de865ffd18369d3cd0278109",
        "dd865499792c14147d86445bc4d979d2f614a7cb568500390fe6c94ee5eb5b9d"),
    ("hard-demo", 32, False): (
        "be82d4899d94ba9799b95299f7bd7e4bb31a6ad0537f52e23cfb3ea06d76ebe7",
        "56222de13f33ee61a4a8f3248ca0daabeca7b0f999d004e7fd14389762080117"),
}


@pytest.mark.parametrize("builtin,n,values", sorted(PINNED))
def test_compile_artifacts_are_pinned(builtin, n, values, tmp_path, capsys):
    if builtin.endswith(".sexp"):
        source = ["--spec", str(SPECS / builtin)]
        name = satcirc.machine.load_spec(source[1]).name
    else:
        source, name = ["--builtin", builtin], builtin
    args = ["compile", *source, "--n", str(n),
            "--out-dir", str(tmp_path)] + (["--values"] if values else [])
    assert main(args) == 0
    got = tuple(hashlib.sha256((tmp_path / f"{name}_n{n}{ext}")
                               .read_bytes()).hexdigest()
                for ext in (".json", ".manifest.json"))
    assert got == PINNED[builtin, n, values]
    capsys.readouterr()


def test_identity_script_hashes_the_compile_artifacts():
    # scripts/identity.py's circuit lines are the sha256 of the JSON that
    # `satcirc compile` writes
    ident = runpy.run_path(str(Path(SRC).parent / "scripts" / "identity.py"))
    specs = {(label, n, values): spec
             for label, spec, n, values in ident["circuit_cases"]()}
    for key in (("maj", 4, False), ("maj_f.sexp", 2, False),
                ("more_a_than_b.sexp", 4, False)):
        json_sha, _ = ident["circuit_sha256"](specs[key], *key[1:])
        assert json_sha == PINNED[key][0]


@pytest.mark.parametrize("name", ["../escaped", "a/b", ".", ".."])
def test_spec_name_cannot_leave_the_out_dir(name, tmp_path, capsys):
    spec = tmp_path / "spec.sexp"
    spec.write_text(MAJ_TEXT.replace("maj-file", name))
    out_dir = tmp_path / "o"
    for cmd in (["compile", "--n", "1"], ["run", "--input", "1", "--trace"]):
        assert main([*cmd, "--spec", str(spec),
                     "--out-dir", str(out_dir)]) == 2
        assert f"spec name {name!r} is not a plain file name" in out(
            capsys).err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.sexp"]


def test_dot_labels_with_quote_and_backslash_stay_closed(tmp_path, capsys):
    spec = tmp_path / "spec.sexp"
    # the embedding reads both tokens, so both input wires are labelled
    spec.write_text(MAJ_TEXT.replace("(alphabet 0 1)", '(alphabet \\ ")')
                    .replace("(const 1)))", "(tok 1)))"))
    assert main(["compile", "--spec", str(spec), "--n", "1", "--format",
                 "dot", "--out-dir", str(tmp_path)]) == 0
    dot = (tmp_path / "maj-file_n1.dot").read_text()
    closed = re.findall(r'label="((?:[^"\\\n]|\\.)*)" ', dot)
    assert len(closed) == dot.count("label=") > 0
    assert "x1\\nw1=\\\\" in closed and 'x2\\nw1=\\"' in closed
    capsys.readouterr()


def test_compile_builds_the_circuit_once(tmp_path, capsys, monkeypatch):
    calls = []
    build = satcirc.compile._build

    def counted(spec, n, *args, **kwargs):
        calls.append(n)
        return build(spec, n, *args, **kwargs)

    monkeypatch.setattr(satcirc.compile, "_build", counted)
    assert main(["compile", "--builtin", "maj", "--n", "6",
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == [6]
    capsys.readouterr()


def test_compile_refuses_wide_sqrt(tmp_path, capsys):
    assert main(["compile", "--builtin", "maj-ln", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 2
    assert "lookup cap" in out(capsys).err
    assert not list(tmp_path.iterdir())


def _satcirc(args, timeout, *flags):
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *flags, *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_smallest_n_terminate(tmp_path):
    # fewer words exist than the default sample count at n <= 2
    for args in (["compile", "--builtin", "maj", "--n", "1"],
                 ["compile", "--builtin", "maj", "--n", "2"],
                 ["complexity", "--builtin", "maj", "--n-list", "1,2,3"]):
        r = _satcirc(["-m", "satcirc.cli", *args, "--out-dir",
                      str(tmp_path)], 60)
        assert r.returncode == 0, r.stderr


def test_size_growth_script(tmp_path):
    script = str(Path(__file__).resolve().parents[1] / "scripts"
                 / "size_growth.py")
    for args, err in (
            (["--n-list", "4,8"], "give exactly one of --spec FILE or "
                                  "--builtin NAME"),
            (["--builtin", "maj", "--n-list", "0,4"], "need n >= 1"),
            (["--builtin", "maj", "--n-list", ","],
             "size instrumentation needs at least one n"),
            (["--builtin", "maj", "--n-list", "4", "--samples", "0"],
             "need count >= 1"),
            (["--builtin", "maj", "--n-list", "4", "--samples", "-3"],
             "need count >= 1")):
        r = _satcirc([script, *args, "--out-dir", str(tmp_path)], 60)
        assert r.returncode == 2 and r.stderr.startswith(f"error: {err}"), \
            r.stderr
        assert "Traceback" not in r.stderr
    assert not list(tmp_path.iterdir())
    r = _satcirc([script, "--builtin", "maj", "--n-list", "4,8,16",
                  "--out-dir", str(tmp_path)], 60)
    assert r.returncode == 0, r.stderr
    rows = (tmp_path / "size_growth.csv").read_text().splitlines()
    assert rows[0] == "n,max_value_bits,layer0_bits,layer1_bits"
    assert [row.split(",")[0] for row in rows[1:]] == ["4", "8", "16"]
    assert "growth not judged" in r.stdout
    # the line is fitted on the smaller half; linear growth rises above it
    for args, code, lines in (
            (["--builtin", "resource-bounded", "--pred", "bigram11",
              "--n-list", "4,8,16,32"], 1,
             ["n=16 excess=+8.00 bits [OVER 1 BIT]",
              "n=32 excess=+32.00 bits [OVER 1 BIT]"]),
            (["--builtin", "maj", "--n-list", "8,16,64,256"], 0,
             ["n=64 excess=+0.00 bits [ok]",
              "n=256 excess=+0.00 bits [ok]"])):
        r = _satcirc([script, *args, "--out-dir", str(tmp_path)], 60)
        assert r.returncode == code, r.stderr
        assert all(line in r.stdout.splitlines() for line in lines), r.stdout
    # a failed head-sum bound is named; c = 0 leaves only 2 log2 n + 1
    probe = ("import runpy, sys; import satcirc.machine as M; "
             "M.HEAD_SUM_C = 0; sys.argv = sys.argv[1:]; "
             "runpy.run_path(sys.argv[0], run_name='__main__')")
    r = _satcirc(["-c", probe, script, "--builtin", "maj", "--n-list",
                  "4,8", "--out-dir", str(tmp_path)], 60)
    assert r.returncode == 1, r.stderr
    assert ("head-sum bound VIOLATED: L0.h0 n=8 z=9 measured=9 bound=7.00"
            in r.stdout.splitlines()), r.stdout


THETA_PROBE = """
import dataclasses, sys
import satcirc.compile as C
from satcirc.builtins import build_hard_demo
from satcirc.cli import main
print("optimize:", sys.flags.optimize)
real = C.metrics
C.metrics = lambda c: dataclasses.replace(real(c), theta_count=1)
try:
    C.compile_hard(build_hard_demo(), 3)
except C.CompileError as e:
    print("library:", e)
print("cli:", main(["compile", "--builtin", "hard-demo", "--n", "3",
                    "--out-dir", sys.argv[1]]))
"""


def test_theta_free_check_survives_python_O(tmp_path):
    r = _satcirc(["-c", THETA_PROBE, str(tmp_path)], 120, "-O")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "optimize: 1", "library: hard compilation emitted 1 threshold gates",
        "cli: 2"]
    assert "hard compilation emitted 1 threshold gates" in r.stderr
    assert not list(tmp_path.iterdir())


SCRIPTS = sorted(Path(SRC).parent.joinpath("scripts").glob("*.py"))


def test_no_assert_statements_under_src():
    # checks that guard results must still run under python -O
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(SRC, "satcirc").glob("*.py")) + SCRIPTS
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _unused_imports(paths) -> list:
    """The module-level imports that nothing in their file names;
    __future__ imports switch features and are never named."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                  for node in tree.body
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name.split(".")[0]) not in used]
    return found


def test_no_unused_imports_under_src():
    # __init__.py imports to re-export
    assert SCRIPTS and _unused_imports(
        [path for path in sorted(Path(SRC, "satcirc").glob("*.py"))
         if path.name != "__init__.py"] + SCRIPTS) == []


def test_no_unused_imports_under_tests():
    paths = sorted(Path(__file__).parent.glob("*.py"))
    assert paths and _unused_imports(paths) == []


def test_no_private_function_under_src_exists_only_for_tests():
    # a module-level _helper that nothing under src/ calls is a test-only
    # gadget; a reference from inside its own body (recursion) does not count
    trees = [ast.parse(path.read_text(), str(path))
             for path in sorted(Path(SRC, "satcirc").glob("*.py"))]
    assert trees
    refs = {}
    for tree in trees:
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else node.attr
                    if isinstance(node, ast.Attribute) else None)
            refs.setdefault(name, []).append(node)
    found = []
    for tree in trees:
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                inside = {id(node) for node in ast.walk(fn)}
                if all(id(node) in inside for node in refs.get(fn.name, ())):
                    found.append(fn.name)
    assert found == []


def _satcirc_bindings(tree, subs) -> dict:
    """What each name a file imports from satcirc binds: ("mod", m) for
    the module m ("__init__" is the package) or ("def", m, name) for a
    name taken from m."""
    binds = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "satcirc":
                    continue
                # "import satcirc.m" binds the package, "... as x" binds m
                named = alias.asname and parts[1:]
                binds[alias.asname or "satcirc"] = (
                    "mod", parts[-1] if named else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (["satcirc"] if node.level else []) + (
                node.module.split(".") if node.module else [])
            if parts[:1] != ["satcirc"]:
                continue
            mod = parts[1] if parts[1:] else "__init__"
            for alias in node.names:
                binds[alias.asname or alias.name] = (
                    ("mod", alias.name) if mod == "__init__"
                    and alias.name in subs else ("def", mod, alias.name))
    return binds


def _reference(node, names, own, subs):
    """What a Name or an Attribute refers to, read through the file's
    satcirc imports (names): a bare name not imported is own's; None for
    an attribute of anything but a satcirc module."""
    if isinstance(node, ast.Name):
        return names.get(node.id, ("def", own, node.id))
    if isinstance(node, ast.Attribute):
        base = _reference(node.value, names, own, subs)
        if base and base[0] == "mod":
            return (("mod", node.attr) if base[1] == "__init__"
                    and node.attr in subs else ("def", base[1], node.attr))
    return None


def test_no_public_name_under_src_exists_only_for_tests():
    # a public module-level function or class is used somewhere under src/,
    # scripts/ or perfbench/ (its tests aside) outside its own body, or
    # exported from satcirc/__init__.py; a name found here is dead, and so
    # is what only dead code uses. A use is a bare name in the def's own
    # module or imported from it, or mod.name where mod is the satcirc
    # module that defines name; an attribute of anything else (a method
    # of the same name) is not one
    root = Path(SRC).parent
    mods = sorted(Path(SRC, "satcirc").glob("*.py"))
    users = mods + sorted(path for d in ("scripts", "perfbench")
                          for path in Path(root, d).rglob("*.py")
                          if not path.name.startswith("test_"))
    subs = {path.stem for path in mods}
    trees = {path: ast.parse(path.read_text(), str(path)) for path in users}
    binds = {path.stem: _satcirc_bindings(trees[path], subs) for path in mods}

    def origin(ref):  # follow re-exports to the module that defines it
        while ref and ref[0] == "def" and ref[2] in binds.get(ref[1], {}):
            ref = binds[ref[1]][ref[2]]
        return ref

    refs, defs = {}, []
    for path, tree in trees.items():
        own = path.stem if path in mods else None
        names = _satcirc_bindings(tree, subs)
        for node in ast.walk(tree):
            ref = origin(_reference(node, names, own, subs))
            if ref and ref[0] == "def":
                refs.setdefault(ref[1:], []).append(node)
        if path.name == "__init__.py":
            for node in tree.body:
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        ref = origin(("def", node.module, alias.name))
                        refs.setdefault(ref[1:], []).append(alias)
        if path in mods:
            defs += [(own, d) for d in tree.body
                     if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                     and not d.name.startswith("_")]
    found, dead = {}, set()
    while True:
        more = {f"{mod}.py:{d.name}": d for mod, d in defs
                if f"{mod}.py:{d.name}" not in found
                and {id(node) for node in refs.get((mod, d.name), ())}
                <= dead | {id(node) for node in ast.walk(d)}}
        if not more:
            break
        found.update(more)
        dead |= {id(node) for d in more.values() for node in ast.walk(d)}
    assert sorted(found) == []


def test_no_field_or_property_under_src_is_read_only_by_tests():
    # a dataclass field or a property of a class under src/ is read as
    # .name somewhere under src/, scripts/ or perfbench/ (tests aside);
    # one read nowhere else is carried for the tests alone
    root = Path(SRC).parent
    users = sorted(Path(SRC, "satcirc").glob("*.py")) + sorted(
        path for d in ("scripts", "perfbench")
        for path in Path(root, d).rglob("*.py")
        if not path.name.startswith("test_"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in users}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}

    def decorators(node):  # @name, @mod.name and @name(...) alike
        calls = (d.func if isinstance(d, ast.Call) else d
                 for d in node.decorator_list)
        return {d.id if isinstance(d, ast.Name) else d.attr for d in calls}

    members = []
    for path, tree in trees.items():
        if path.parent.name != "satcirc":
            continue
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if "dataclass" in decorators(cls):
                members += [(cls.name, st.target.id) for st in cls.body
                            if isinstance(st, ast.AnnAssign)]
            members += [(cls.name, fn.name) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef) and decorators(fn)
                        & {"property", "cached_property"}]
    assert sorted(f"{c}.{m}" for c, m in members if m not in read) == []


def test_no_nested_function_under_src_names_itself():
    # a nested function that calls itself holds itself through its own
    # closure cell: a reference cycle, so every call leaves garbage only
    # the cyclic collector frees; recursion belongs at module level
    found = set()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(Path(SRC, "satcirc").glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, defs + (ast.Lambda,)):
                continue
            for fn in ast.walk(outer):
                if fn is not outer and isinstance(fn, defs) and any(
                        isinstance(node, ast.Name) and node.id == fn.name
                        for stmt in fn.body for node in ast.walk(stmt)):
                    found.add(f"{path.name}:{fn.lineno} {fn.name}")
    assert sorted(found) == []


EXPR_OPS = {"add", "mul", "div", "sqrt", "neg", "relu", "gt", "eq", "select",
            "affine"}


def test_only_the_machine_interprets_expression_ops():
    # machine.eval_expr is the one interpreter of the expression language;
    # a comparison with an op name elsewhere under src/ is a second one
    found = []
    for path in sorted(Path(SRC, "satcirc").glob("*.py")):
        if path.name == "machine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Compare, ast.MatchValue)):
                names = {c.value for c in ast.walk(node)
                         if isinstance(c, ast.Constant)}
                if names & EXPR_OPS:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


HOST_PROBE = """
import sys
from satcirc.bitnum import rat
from satcirc.builtins import build_prime_universal
from satcirc.machine import MachineError, domain_of
print("optimize:", sys.flags.optimize)
inv_prime = build_prime_universal(lambda w: True).hosts["inv_prime"]
try:
    inv_prime(domain_of("Q"), rat(3, 2))
except MachineError as e:
    print("refused:", e)
"""


def test_host_checks_survive_python_O():
    r = _satcirc(["-c", HOST_PROBE], 60, "-O")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == ["optimize: 1", "refused: den == 1"]


DOMAIN_PROBE = """
import sys
from satcirc.machine import Domain, MachineError
print("optimize:", sys.flags.optimize)
try:
    Domain("R")
except MachineError as e:
    print("refused:", e)
"""


def test_domain_check_survives_python_O():
    r = _satcirc(["-c", DOMAIN_PROBE], 60, "-O")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines() == [
        "optimize: 1", "refused: unknown datatype 'R' (want F or Q)"]


def test_compile_rejects_rational_specs(tmp_path, capsys):
    assert main(["compile", "--builtin", "maj-q", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 2
    assert "F datatype" in out(capsys).err


def test_verify_clean_and_csv(tmp_path, capsys):
    assert main(["verify", "--builtin", "maj", "--n-list", "2,3,4",
                 "--out-dir", str(tmp_path)]) == 0
    rows = (tmp_path / "verify.csv").read_text().strip().splitlines()
    assert rows[0] == "n,mode,tested,mismatches,first_counterexample"
    assert rows[1].startswith("2,exhaustive,4,0")
    assert len(rows) == 4
    capsys.readouterr()


def test_verify_handles_a_repeated_n_once(tmp_path, capsys, monkeypatch):
    builds = []
    real = satcirc.compile._build

    def counted(spec, n, include_values):
        builds.append(n)
        return real(spec, n, include_values)

    monkeypatch.setattr(satcirc.compile, "_build", counted)
    assert main(["verify", "--builtin", "hard-demo", "--n-list", "3,3",
                 "--out-dir", str(tmp_path)]) == 0
    assert builds == [3]
    assert out(capsys).out.startswith("n=3 exhaustive tested=8 mismatches=0 "
                                      "[ok]\nreport -> ")
    rows = (tmp_path / "verify.csv").read_text().splitlines()
    assert rows[1:] == ["3,exhaustive,8,0,"]


def test_verify_random_seeded_reruns_are_identical(tmp_path, capsys):
    args = ["verify", "--builtin", "maj", "--n", "9", "--mode", "random",
            "--samples", "40", "--seed", "7", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    first = (tmp_path / "verify.csv").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "verify.csv").read_bytes() == first
    capsys.readouterr()


def test_verify_corrupted_circuit_reports_mismatch(tmp_path, capsys):
    assert main(["compile", "--builtin", "maj", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "maj_n4.json").read_text())
    # point the accept output at a constant gate: half the words flip
    d["gates"].append({"id": len(d["gates"]), "kind": "CONST", "k": 1})
    d["outputs"][0] = len(d["gates"]) - 1
    bad = tmp_path / "maj_n4_bad.json"
    bad.write_text(json.dumps(d))
    assert main(["verify", "--builtin", "maj", "--n", "4",
                 "--circuit", str(bad), "--out-dir", str(tmp_path)]) == 1
    got = out(capsys).out
    assert "MISMATCH" in got
    rows = (tmp_path / "verify.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[3] != "0"


def test_verify_finds_the_same_mismatches_under_python_O(tmp_path, capsys):
    """The mismatch count and the first counterexample come from the
    circuit check itself, not from an assert that -O strips."""
    assert main(["compile", "--builtin", "maj", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    d = json.loads((tmp_path / "maj_n4.json").read_text())
    d["outputs"][0] = next(g["id"] for g in d["gates"]
                           if g["kind"] == "INPUT")
    bad = tmp_path / "rewired.json"
    bad.write_text(json.dumps(d))
    runs = {}
    for flags in ((), ("-O",)):
        r = _satcirc(["-m", "satcirc.cli", "verify", "--builtin", "maj",
                      "--n", "4", "--circuit", str(bad), "--out-dir",
                      str(tmp_path / "out")], 60, *flags)
        runs[flags] = r.returncode, r.stdout, r.stderr
    assert runs[()] == runs[("-O",)]
    code, stdout, _ = runs[()]
    assert code == 1
    assert re.search(r"^n=4 exhaustive tested=16 mismatches=[1-9]\d* "
                     r"first=[01]{4} \[MISMATCH\]$", stdout, re.M)


@pytest.mark.parametrize("samples", [str((1 << 20) + 1), str(10**9)])
def test_verify_random_refuses_too_many_samples_before_any_work(
        samples, tmp_path, capsys, monkeypatch):
    def compile_fn(spec, n):
        raise AssertionError("compiled")

    monkeypatch.setattr("satcirc.cli.compile_saturated", compile_fn)
    start = time.perf_counter()
    assert main(["verify", "--builtin", "maj", "--n", "4", "--mode", "random",
                 "--samples", samples, "--out-dir", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 1
    assert out(capsys).err == (f"error: random verification of {samples} "
                               "words is too large (at most 2^20)\n")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("samples", ["-5", "0"])
def test_verify_random_refuses_nonpositive_samples(samples, tmp_path, capsys):
    assert main(["verify", "--builtin", "maj", "--n", "4", "--mode", "random",
                 "--samples", samples, "--out-dir", str(tmp_path)]) == 2
    assert (f"error: samples must be at least 1 in random mode, got {samples}"
            in out(capsys).err)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("doc, why", [
    ("[]", "circuit JSON must be an object"),
    ('{"gates": "x"}', "'gates' must be a list of records"),
    ('{"n": 1, "gates": [], "outputs": [], "labels": []}',
     "'labels' must be an object"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "NOT", "inputs": 5}], '
     '"outputs": [0]}', "gate 0: 'inputs' must be a list of ints"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0.5}], '
     '"outputs": [0]}', "gate 0: 'idx' must be an int"),
    ('{"n": 1, "gates": [{"id": null, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "malformed field"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [[0]]}', "malformed field"),
    ('{"n": "x", "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "malformed field"),
    ('{"n": 1, "gates": [{"id": "a", "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "malformed field"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0], "labels": {"a": "accept"}}', "malformed field"),
    ('{"n": ' + "1" * 5000 + "}", "not valid JSON"),
    ('{"n": 1, "gates": [{"id": 1, "kind": "INPUT", "idx": 0}], '
     '"outputs": [1]}', "gate 1 is at position 0"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}, '
     '{"id": 0, "kind": "NOT", "inputs": [0]}], "outputs": [0]}',
     "gate 0 is at position 1"),
    ('{"n": 1, "gates": [{"id": 0.0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "a gate id must be an int, got 0.0"),
    ('{"n": 1, "gates": [{"id": "0", "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', 'a gate id must be an int, got "0"'),
    ('{"n": 1.0, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "'n' must be an int, got 1.0"),
    ('{"n": true, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0]}', "'n' must be an int, got true"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0.0]}', "an output must be an int, got 0.0"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": ["0"]}', 'an output must be an int, got "0"'),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [false]}', "an output must be an int, got false"),
    *[('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
       '"outputs": [0], "labels": {%s: "x"}}' % key,
       f"label key {key} is not a gate id")
      for key in ('"1_0"', '" 0"', '"+0"', '"\\u0660"', '"00"')],
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0], "labels": {"-1": "x"}}',
     "label on id -1, which has no gate"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0], "labels": {"99": "x"}}',
     "label on id 99, which has no gate"),
    ('{"n": 1, "gates": [{"id": 0, "kind": "INPUT", "idx": 0}], '
     '"outputs": [0], "labels": {"0": null}}',
     "label of gate 0 is None, not a string"),
])
def test_verify_refuses_malformed_circuit_json(doc, why, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    assert main(["verify", "--builtin", "maj", "--n", "4", "--circuit",
                 str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert why in out(capsys).err
    assert not (tmp_path / "out").exists()


def test_verify_refuses_a_gate_list_out_of_topological_order(tmp_path,
                                                             capsys):
    assert main(["compile", "--builtin", "maj", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 0
    d = json.loads((tmp_path / "maj_n4.json").read_text())
    gates = d["gates"]
    last = len(gates) - 1
    gates[last - 1], gates[last] = gates[last], gates[last - 1]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(d))
    capsys.readouterr()
    assert main(["verify", "--builtin", "maj", "--n", "4", "--circuit",
                 str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    err = out(capsys).err
    assert err == (f"error: gate {last} is at position {last - 1}: ids must "
                   "be 0..N-1 in list order\n")
    assert not (tmp_path / "out").exists()


def test_verify_names_a_circuit_file_with_the_wrong_input_count(tmp_path,
                                                               capsys):
    assert main(["compile", "--builtin", "maj", "--n", "3",
                 "--out-dir", str(tmp_path)]) == 0
    path = tmp_path / "maj_n3.json"
    capsys.readouterr()
    assert main(["verify", "--builtin", "maj", "--n", "4", "--circuit",
                 str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert out(capsys).err == (f"error: {path} has 6 inputs; maj at n=4 "
                               "needs 8 (4 positions, 2 symbols each)\n")
    assert not (tmp_path / "out").exists()


def test_verify_good_circuit_file_roundtrip(tmp_path, capsys):
    assert main(["compile", "--builtin", "maj", "--n", "4",
                 "--out-dir", str(tmp_path)]) == 0
    assert main(["verify", "--builtin", "maj", "--n", "4",
                 "--circuit", str(tmp_path / "maj_n4.json"),
                 "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()


def test_complexity_csv_and_slopes(tmp_path, capsys):
    assert main(["complexity", "--builtin", "maj", "--n-list", "4,6,8",
                 "--out-dir", str(tmp_path)]) == 0
    got = out(capsys).out
    assert "size slope" in got and "depth constant" in got
    rows = (tmp_path / "complexity.csv").read_text().strip().splitlines()
    assert rows[0] == "n,size,depth,theta_count,max_fanin,max_value_bits"
    assert len(rows) == 4
    assert main(["complexity", "--builtin", "maj", "--n-list", "4,6",
                 "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_complexity_counts_a_repeated_n_once(tmp_path, capsys):
    reports = []
    for n_list in ("2,2,2,3,4", "2,3,4"):
        assert main(["complexity", "--builtin", "hard-demo", "--n-list",
                     n_list, "--out-dir", str(tmp_path)]) == 0
        reports.append((out(capsys).out,
                        (tmp_path / "complexity.csv").read_text()))
    assert reports[0] == reports[1]
    assert "size slope 1.228 " in reports[0][0]
    assert len(reports[0][1].splitlines()) == 4


def test_complexity_refuses_fewer_than_three_distinct_n(tmp_path, capsys):
    assert main(["complexity", "--builtin", "hard-demo", "--n-list", "8,8,8",
                 "--out-dir", str(tmp_path)]) == 2
    got = out(capsys)
    assert got.err == ("error: complexity wants --n-list with at least "
                       "three distinct n\n")
    assert "depth constant" not in got.out
    assert not (tmp_path / "complexity.csv").exists()


def test_out_dir_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SATCIRC_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--builtin", "maj", "--n", "3"]) == 0
    assert (tmp_path / "envout" / "verify.csv").exists()
    capsys.readouterr()


def test_non_utf8_spec_and_circuit_files_are_refused(tmp_path, capsys):
    bad = tmp_path / "latin1.bin"
    bad.write_bytes(MAJ_TEXT.encode() + b"; caf\xe9\n")
    assert main(["run", "--spec", str(bad), "--input", "01",
                 "--out-dir", str(tmp_path)]) == 2
    assert "not UTF-8 text" in out(capsys).err
    assert main(["verify", "--builtin", "maj", "--n", "4", "--circuit",
                 str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert "not UTF-8 text" in out(capsys).err
    assert not (tmp_path / "out").exists()


def test_oversized_integer_literal_is_refused(tmp_path, capsys):
    spec = tmp_path / "wide.sexp"
    spec.write_text(MAJ_TEXT.replace("(b 0)", f"(b {'9' * 5000})"))
    assert main(["run", "--spec", str(spec), "--input", "01",
                 "--out-dir", str(tmp_path)]) == 2
    assert "unusable integer literal '99999" in out(capsys).err


def test_internal_value_error_is_not_a_user_error(tmp_path, monkeypatch):
    def bug(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr("satcirc.cli.compile_planned", bug)
    with pytest.raises(ValueError, match="internal bug"):
        main(["compile", "--builtin", "maj", "--n", "4",
              "--out-dir", str(tmp_path)])


def test_worker_machine_error_exits_2_with_its_message(tmp_path, capsys,
                                                       monkeypatch):
    def judge(spec, w):
        if w.count("1") == 5:
            raise satcirc.machine.MachineError(f"cannot judge {w}")
        return satcirc.machine.recognize(spec, w)

    monkeypatch.setattr(satcirc.compile, "recognize", judge)
    monkeypatch.setattr(satcirc.workers, "_cpu_count", lambda: 2)
    args = ["verify", "--builtin", "maj", "--n", "8",
            "--out-dir", str(tmp_path)]
    assert main(args) == 2
    assert out(capsys).err == "error: cannot judge 00011111\n"
    monkeypatch.setattr(satcirc.workers, "_fork_context", lambda: None)
    assert main(args) == 2
    assert out(capsys).err == "error: cannot judge 00011111\n"
    assert not (tmp_path / "verify.csv").exists()
