"""Command line front end: golden reports, exit codes, output discipline.

Golden files live in tests/golden/ and hold the exact machine-format
report for one invocation each.  Regenerate them after an intentional
output change with:

    MALCEVLAB_REGEN=1 python -m pytest tests/test_cli.py
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import malcevlab
from malcevlab import (FiniteAlgebra, Signature, algebras, congruences,
                       fileformat)
from malcevlab.cli import _COMMANDS, _build_parser, main
from malcevlab.fileformat import load_class, save_algebra

from conftest import binary_beside_ternary

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

GOLDEN_CASES = [
    ("parse_term",
     ["parse", "--sig", "demos/data/group.sig", "mul(x0, inv(x1))"]),
    ("parse_quasi",
     ["parse", "--sig", "demos/data/group.sig",
      "mul(x0, x1) = e => mul(x1, x0) = e", "--kind", "quasiidentity"]),
    ("eval",
     ["eval", "demos/data/z4.alg", "mul(x0, inv(x1))", "--at", "3,2"]),
    ("check_holds",
     ["check", "demos/data/z4.alg", "mul(x0, x1) = mul(x1, x0)"]),
    ("check_fails",
     ["check", "demos/data/chain3.alg",
      "meet(x0, x1) = meet(x0, x2) => x1 = x2"]),
    ("subalg",
     ["subalg", "demos/data/z4.alg", "--seed", "2"]),
    ("homs",
     ["homs", "demos/data/z4.alg", "demos/data/z2.alg"]),
    ("congruences",
     ["congruences", "demos/data/z4.alg"]),
    ("permutable",
     ["permutable", "demos/data/z4.alg"]),
    ("permutable_fails",
     ["permutable", "demos/data/tangle5.alg"]),
    ("quotient",
     ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1 3"]),
    ("malcev_found",
     ["malcev", "demos/data/z4.alg"]),
    ("malcev_none",
     ["malcev", "demos/data/chain3.alg", "--depth", "4"]),
    ("biternary",
     ["biternary", "demos/data/z4.alg"]),
    ("translations",
     ["translations", "demos/data/z4.alg"]),
    ("qg_verify",
     ["quasigroup", "verify", "demos/data/qg3.alg"]),
    ("qg_verify_fails",
     ["quasigroup", "verify", "demos/data/chain3.alg"]),
    ("qg_mulgroup",
     ["quasigroup", "mulgroup", "demos/data/qg3.alg", "--side", "both"]),
    ("qg_malcev",
     ["quasigroup", "malcev", "demos/data/qg3.alg"]),
    ("qg_rectify",
     ["quasigroup", "rectify", "demos/data/qg3u.alg"]),
    ("free",
     ["free", "demos/data/boolean.cls", "--rank", "2"]),
    ("present",
     ["present", "demos/data/boolean.cls", "--rank", "2",
      "--relation", "mul(x0, x1) = x0"]),
    ("replica",
     ["replica", "demos/data/chain.cls", "demos/data/chain3.alg"]),
    ("member_yes",
     ["member", "demos/data/chain.cls", "demos/data/chain3.alg"]),
    ("member_unseparated",
     ["member", "demos/data/chain.cls", "demos/data/flat2.alg"]),
    ("member_forced_predicate",
     ["member", "demos/data/chainp.cls", "demos/data/diag2p.alg"]),
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def in_repo_root(monkeypatch):
    monkeypatch.chdir(ROOT)


@pytest.mark.parametrize("name,argv", GOLDEN_CASES,
                         ids=[n for n, _ in GOLDEN_CASES])
def test_machine_reports_match_goldens(name, argv, capsys):
    code, out, _ = run(argv + ["--format", "machine"], capsys)
    assert code == 0
    golden = GOLDEN / f"{name}.json"
    if os.environ.get("MALCEVLAB_REGEN"):
        GOLDEN.mkdir(exist_ok=True)
        golden.write_text(out)
    assert out == golden.read_text()
    # well-formed report with sorted keys and input digests
    report = json.loads(out)
    assert set(report) == {"checks", "command", "inputs", "result"}
    assert report["command"] == argv + ["--format", "machine"]
    for digest in report["inputs"].values():
        assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert "summary" in report["result"]


def test_machine_format_is_deterministic(capsys):
    argv = ["malcev", "demos/data/z4.alg", "--format", "machine"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second


def test_text_format_shape(capsys):
    code, out, _ = run(["permutable", "demos/data/z4.alg"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command: permutable demos/data/z4.alg"
    assert lines[1].startswith("input: demos/data/z4.alg sha256=")
    assert "all 3 congruence pairs permute" in lines
    assert re.fullmatch(r"wall-time: \d+ ms", lines[-1])


def test_syntax_error_exit_and_column(capsys):
    code, out, err = run(
        ["parse", "--sig", "demos/data/group.sig", "mul(x0"], capsys)
    assert code == 2
    assert out == ""
    assert "syntax error at column 7" in err


def test_missing_file_is_exit_two(capsys):
    code, _, err = run(["malcev", "demos/data/absent.alg"], capsys)
    assert code == 2
    assert "absent.alg" in err


def test_each_input_file_is_opened_once(monkeypatch, capsys):
    opened = []
    monkeypatch.setattr("builtins.open", lambda file, *args, _open=open,
                        **kwargs: opened.append(file) or _open(
                            file, *args, **kwargs))
    code, out, _ = run(["member", "demos/data/chain.cls",
                        "demos/data/chain3.alg", "--format", "machine"],
                       capsys)
    assert code == 0
    files = ["demos/data/chain.cls", "demos/data/chain2.alg",
             "demos/data/chain3.alg"]
    assert sorted(opened) == sorted(json.loads(out)["inputs"]) == files
    code, _, err = run(["malcev", "demos/data/absent.alg"], capsys)
    assert code == 2
    assert err == "error: demos/data/absent.alg: No such file or directory\n"


def test_non_utf8_input_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "latin1.alg"
    bad.write_bytes(b"size 1  # caf\xe9\nop e 0\n0\n")
    code, out, err = run(["eval", str(bad), "x0", "--at", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: not UTF-8")
    (tmp_path / "latin1.cls").write_text("algebra latin1.alg\n")
    code, out, err = run(["member", str(tmp_path / "latin1.cls"),
                          "demos/data/chain3.alg"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: not UTF-8")


COLD_PATH = """
import sys
from malcevlab.cli import main
assert "numpy" not in sys.modules
for argv in {argvs!r}:
    assert main(argv + ["--format", "machine"]) == 0, argv
    assert "numpy" not in sys.modules, argv
assert main(["malcev", "demos/data/absent.alg"]) == 2
assert "numpy" not in sys.modules
assert main(["malcev", "demos/data/z4.alg"]) == 0
assert "numpy" in sys.modules
"""


# one command line that runs to completion for each leaf command
LEAVES = {
    "parse": ["parse", "x0", "--sig", "demos/data/group.sig"],
    "eval": ["eval", "demos/data/z4.alg", "x0", "--at", "1"],
    "check": ["check", "demos/data/z4.alg", "mul(x0, x1) = mul(x1, x0)"],
    "subalg": ["subalg", "demos/data/z4.alg"],
    "homs": ["homs", "demos/data/z4.alg", "demos/data/z2.alg"],
    "congruences": ["congruences", "demos/data/z4.alg"],
    "permutable": ["permutable", "demos/data/z4.alg"],
    "quotient": ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1 3"],
    "malcev": ["malcev", "demos/data/z4.alg"],
    "biternary": ["biternary", "demos/data/z4.alg"],
    "translations": ["translations", "demos/data/z4.alg"],
    "quasigroup verify": ["quasigroup", "verify", "demos/data/qg3.alg"],
    "quasigroup mulgroup": ["quasigroup", "mulgroup", "demos/data/qg3.alg"],
    "quasigroup malcev": ["quasigroup", "malcev", "demos/data/qg3.alg"],
    "quasigroup rectify": ["quasigroup", "rectify", "demos/data/qg3u.alg"],
    "free": ["free", "demos/data/boolean.cls", "--rank", "2"],
    "present": ["present", "demos/data/boolean.cls", "--rank", "1"],
    "replica": ["replica", "demos/data/chain.cls", "demos/data/chain3.alg"],
    "member": ["member", "demos/data/chain.cls", "demos/data/chain3.alg"],
}

# the modules that each leaf command loads, beyond the malcevlab modules
# that every command loads; numpy comes only with the search
BASE_MODULES = {"cli", "errors", "terms", "algebras", "fileformat"}
LOADS = {
    **dict.fromkeys(("parse", "eval", "check", "subalg", "homs"), set()),
    **dict.fromkeys(("congruences", "permutable", "quotient"),
                    {"congruences"}),
    **dict.fromkeys(("malcev", "biternary", "translations"),
                    {"quasigroups", "malcev", "numpy"}),
    **dict.fromkeys(("free", "present", "replica", "member"), {"classes"}),
    **{command: {"quasigroups"} for command in LEAVES
       if command.startswith("quasigroup ")},
}

LOADED = """
import contextlib, io, sys
{setup}
print(*sorted(m for m in sys.modules if m.startswith("malcevlab.")
              or m in ("numpy", "dataclasses")),
      file=sys.stderr)
"""


def loaded_modules(setup: str) -> set:
    """The malcevlab submodules, numpy and dataclasses that a fresh
    interpreter holds after setup."""
    proc = subprocess.run(
        [sys.executable, "-c", LOADED.format(setup=setup)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {m.removeprefix("malcevlab.") for m in proc.stderr.split()}


def test_only_searches_load_numpy():
    cases = dict(GOLDEN_CASES)
    argvs = [cases[name] for name in (
        "parse_term", "check_holds", "congruences", "permutable",
        "qg_mulgroup", "free", "member_yes")]
    assert "numpy" in loaded_modules(COLD_PATH.format(argvs=argvs))
    # then one fresh interpreter for each command
    assert sorted(LOADS) == sorted(LEAVES)
    assert loaded_modules("import malcevlab") == set()
    assert loaded_modules("from malcevlab import parse_term") == {
        "errors", "terms"}
    for command, argv in LEAVES.items():
        setup = ("from malcevlab.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    assert main({argv!r}) == 0")
        assert loaded_modules(setup) == BASE_MODULES | LOADS[command], \
            command


def test_no_module_loads_dataclasses():
    # the records are slotted classes: importing dataclasses, and running
    # the methods it generates, once took most of a command's start-up
    for module in [*malcevlab._EXPORTS, "cli"]:
        loaded = loaded_modules(f"import malcevlab.{module}")
        assert module in loaded and "dataclasses" not in loaded, module


# the commands that take each search or budget option, with a valid
# value and values out of its range
TAKERS = {
    "--depth": (("malcev", "biternary", "translations"), "1",
                ["-1", "two"]),
    "--max-size": (("malcev", "biternary"), "0", ["-1", "8.5"]),
    "--max-product": (("check", "homs", "congruences", "permutable",
                       "replica", "member", "free", "present"), "100",
                      ["0", "-1", "1e6"]),
}

IGNORED = [(command, option) for option, (takers, _, _) in TAKERS.items()
           for command in LEAVES if command not in takers]
TAKEN = [(command, option, valid)
         for option, (takers, valid, _) in TAKERS.items()
         for command in takers]
OUT_OF_RANGE = [(command, option, bad)
                for option, (takers, _, values) in TAKERS.items()
                for command in takers for bad in values]


def usage_error(argv, capsys):
    """The exit code and stderr of a command line argparse rejects."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    return exc.value.code, captured.err


def leaf_parsers(parser, prefix=""):
    """(command, parser) for every leaf command under parser."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [(prefix, parser)]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in leaf_parsers(sub, f"{prefix} {name}".strip())]


def test_each_command_declares_exactly_the_options_it_applies(capsys):
    leaves = dict(leaf_parsers(_build_parser()))
    assert sorted(leaves) == sorted(LEAVES)
    for command, parser in leaves.items():
        flags = {flag for a in parser._actions for flag in a.option_strings}
        assert {"--format", "--assert"} <= flags
        assert {option for option in TAKERS if option in flags} == {
            option for option, (takers, _, _) in TAKERS.items()
            if command in takers}, command
        assert run(LEAVES[command], capsys)[0] == 0, command
    assert len(IGNORED) == 16 + 17 + 11


def test_partial_parser_parses_each_command_as_the_whole_tree():
    whole = _build_parser()
    for words, (handler, _, _) in _COMMANDS.items():
        if handler is None:
            continue
        argv = LEAVES[" ".join(words)]
        partial = _build_parser(argv)
        # only the named command is built, under its group
        assert [name for name, _ in leaf_parsers(partial)] == [
            " ".join(words)]
        assert vars(partial.parse_args(argv)) == vars(whole.parse_args(argv))


def stopped(parse, argv, capsys):
    """The exit code, stdout and stderr of a parse that argv stops."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


# help and usage errors: those of the whole tree, byte for byte
STOPPED = [
    [],
    ["bogus"],
    ["quasigroup"],
    ["quasigroup", "bogus"],
    ["--help"],
    ["parse", "--help"],
    ["quasigroup", "verify", "--help"],
    ["quasigroup verify", "demos/data/qg3.alg"],
    ["eval", "demos/data/z4.alg", "x0", "--at", "1", "--depth", "3"],
    ["quasigroup", "verify", "demos/data/qg3.alg", "--depth", "3"],
    ["malcev", "demos/data/z4.alg", "--depth", "-1"],
]


@pytest.mark.parametrize("argv", STOPPED, ids=[" ".join(a) for a in STOPPED])
def test_partial_parser_stops_as_the_whole_tree(argv, capsys):
    assert stopped(main, argv, capsys) == stopped(
        _build_parser().parse_args, argv, capsys)


@pytest.mark.parametrize("command,option", IGNORED)
def test_command_rejects_an_option_it_does_not_apply(command, option,
                                                     capsys):
    code, err = usage_error(LEAVES[command] + [option, "1"], capsys)
    assert code == 2
    assert f"unrecognized arguments: {option} 1" in err


@pytest.mark.parametrize("command,option,value", TAKEN)
def test_command_takes_its_options(command, option, value, capsys):
    code, _, err = run(LEAVES[command] + [option, value], capsys)
    assert code == 0, err


@pytest.mark.parametrize("command,option,value", OUT_OF_RANGE)
def test_out_of_range_option_is_exit_two(command, option, value, capsys):
    code, err = usage_error(LEAVES[command] + [f"{option}={value}"], capsys)
    assert code == 2
    assert f"argument {option}: " in err


# a prefix of an option once named a different option in each command
ABBREVIATED = [
    ["malcev", "demos/data/z4.alg", "--max", "1"],
    ["malcev", "demos/data/z4.alg", "--dep", "1"],
    ["homs", "demos/data/z4.alg", "demos/data/z2.alg", "--max", "1"],
    ["check", "demos/data/z4.alg", "mul(x0, x1) = mul(x1, x0)",
     "--max-p", "5"],
]


@pytest.mark.parametrize("argv", ABBREVIATED,
                         ids=[f"{a[0]} {a[-2]}" for a in ABBREVIATED])
def test_abbreviated_option_is_exit_two(argv, capsys):
    code, err = usage_error(argv, capsys)
    assert code == 2
    assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err


def test_max_size_zero_removes_the_cap(capsys):
    code, out, _ = run(["malcev", "demos/data/z4.alg", "--max-size", "0",
                        "--format", "machine"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["found"] and result["max_size"] is None


def test_quotient_checks_stability_and_homomorphism_once(monkeypatch,
                                                         capsys):
    calls = []
    # cli imports congruences' names when a handler runs, so patching the
    # module counts the calls from cli too
    for module, name in ((congruences, "is_stable_partition"),
                         (algebras, "is_homomorphism")):
        def counted(*args, _check=getattr(module, name), _name=name):
            calls.append(_name)
            return _check(*args)
        monkeypatch.setattr(module, name, counted)
    code, _, _ = run(["quotient", "demos/data/z4.alg", "--by",
                      "{{0,2},{1,3}}", "--format", "machine"], capsys)
    assert code == 0
    assert sorted(calls) == ["is_homomorphism", "is_stable_partition"]


def test_unstable_partition_is_exit_two(capsys):
    code, _, err = run(
        ["quotient", "demos/data/z4.alg", "--by", "0 1 | 2 3"], capsys)
    assert code == 2
    assert "not stable" in err


def test_partition_validation_messages(capsys):
    code, _, err = run(
        ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1"], capsys)
    assert code == 2
    assert "misses" in err
    code, _, err = run(
        ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1 3 | 2"], capsys)
    assert code == 2
    assert "two blocks" in err


def test_braced_partition_matches_pipe_form(capsys):
    code, piped, _ = run(
        ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1 3",
         "--format", "machine"], capsys)
    assert code == 0
    code, braced, _ = run(
        ["quotient", "demos/data/z4.alg", "--by", "{{0,2},{1,3}}",
         "--format", "machine"], capsys)
    assert code == 0
    assert braced != piped  # the command line is recorded in the report
    braced_report = json.loads(braced)
    piped_report = json.loads(piped)
    assert braced_report["result"] == piped_report["result"]
    assert braced_report["checks"] == piped_report["checks"]
    assert braced_report["result"]["blocks"] == "{{0,2},{1,3}}"


def test_malformed_braced_partition_is_exit_two(capsys):
    code, _, err = run(
        ["quotient", "demos/data/z4.alg", "--by", "{{0,2},{1,3}"], capsys)
    assert code == 2
    assert "partition must look like" in err


def test_class_members_resolve_against_the_class_file(tmp_path, monkeypatch,
                                                     capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "family").mkdir()
    relative = os.path.join("family", "z4.alg")
    save_algebra(fileformat.load_algebra(str(ROOT / "demos/data/z4.alg")),
                 relative)
    absolute = str(ROOT / "demos" / "data" / "z2.alg")
    pathlib.Path("family/members.cls").write_text(
        f"algebra z4.alg\nalgebra {absolute}\n")
    opened = []
    monkeypatch.setattr(fileformat, "_load_algebra",
                        lambda path, digests, _load=fileformat._load_algebra:
                        opened.append(path) or _load(path, digests))
    assert load_class("family/members.cls").paths == tuple(opened) == (
        relative, absolute)

    candidate = str(ROOT / "demos" / "data" / "z4.alg")
    code, out, _ = run(["member", "family/members.cls", candidate,
                        "--format", "machine"], capsys)
    assert code == 0
    inputs = json.loads(out)["inputs"]
    assert sorted(inputs) == sorted(
        ["family/members.cls", relative, absolute, candidate])
    for path, digest in inputs.items():
        assert digest == hashlib.sha256(
            pathlib.Path(path).read_bytes()).hexdigest()

    pathlib.Path("family/broken.cls").write_text("algebra absent.alg\n")
    code, out, err = run(["member", "family/broken.cls", candidate], capsys)
    assert code == 2 and out == ""
    assert os.path.join("family", "absent.alg") in err


def test_assert_failure_is_exit_one(capsys):
    code, out, err = run(
        ["member", "demos/data/chain.cls", "demos/data/flat2.alg",
         "--assert"], capsys)
    assert code == 1
    assert "not a member" in out
    assert "assert" in err


def test_assert_success_is_exit_zero(capsys):
    code, _, _ = run(
        ["member", "demos/data/chain.cls", "demos/data/chain3.alg",
         "--assert"], capsys)
    assert code == 0


def test_budget_exhaustion_is_exit_three(capsys):
    code, out, err = run(
        ["free", "demos/data/boolean.cls", "--rank", "2",
         "--max-product", "3"], capsys)
    assert code == 3
    assert out == ""
    assert "exceed" in err
    assert "size bound 3" in err


@pytest.mark.parametrize("command", ["free", "present"])
def test_generated_past_the_size_bound_names_the_count_and_flag(
        command, tmp_path, capsys):
    # the 5^2 assignment tuples pass the bound of 30, so the generated
    # carrier, not the tuple count, runs past it
    cls = tmp_path / "tangle5.cls"
    cls.write_text(f"algebra {ROOT / 'demos/data/tangle5.alg'}\n")
    code, out, err = run([command, str(cls), "--rank", "2",
                          "--max-product", "30"], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: presented algebra reached 31 elements, past the "
                   "size bound 30; a larger --max-product raises it\n")


def test_lattice_budget_is_exit_three(tmp_path, capsys):
    # Bell(12), about 4.2 million congruences: every partition is stable
    alg = tmp_path / "set12.alg"
    alg.write_text("size 12\nop id 1\n"
                   + " ".join(str(x) for x in range(12)) + "\n")
    for command in ("congruences", "permutable"):
        code, out, err = run([command, str(alg), "--max-product", "5000"],
                             capsys)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        assert "lattice budget of 5000 joins" in err
        assert "--max-product" in err


@pytest.mark.parametrize("command,depth",
                         [("malcev", "0"), ("biternary", "0"),
                          ("translations", "1")])
def test_searches_over_more_than_256_elements(command, depth, tmp_path,
                                              capsys):
    alg = tmp_path / "chain257.alg"
    alg.write_text("size 257\nop join 2\n" + "\n".join(
        " ".join(str(max(a, b)) for b in range(257)) for a in range(257))
        + "\n")
    code, out, err = run([command, str(alg), "--depth", depth,
                          "--format", "machine"], capsys)
    assert code == 0
    assert err == ""
    assert json.loads(out)["result"]["depth"] == int(depth)


def test_permutable_pair_budget_is_exit_three(tmp_path, capsys):
    # the 8-element meet chain: 128 congruences from 3556 joins, 8128 pairs
    alg = tmp_path / "chain8.alg"
    alg.write_text("size 8\nop meet 2\n" + "\n".join(
        " ".join(str(min(a, b)) for b in range(8)) for a in range(8)) + "\n")
    code, out, err = run(["permutable", str(alg), "--max-product", "5000"],
                         capsys)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert "8128 congruence pairs exceed the pair budget of 5000" in err
    assert "--max-product" in err
    code, out, _ = run(["permutable", str(alg), "--max-product", "8128",
                        "--format", "machine"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["pairs"] == 8128


def test_check_assignment_budget_is_exit_three(capsys):
    # 3^20 assignments, about 3.5 billion, against the default 10^6
    meets = "x0"
    for i in range(1, 20):
        meets = f"meet({meets}, x{i})"
    code, out, err = run(
        ["check", "demos/data/chain3.alg", f"{meets} = {meets}"], capsys)
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert "3^20 assignments over 20 variables exceed" in err
    assert "--max-product" in err
    argv = ["check", "demos/data/z4.alg", "mul(x0, x1) = mul(x1, x0)"]
    assert run(argv + ["--max-product", "15"], capsys)[0] == 3
    assert run(argv + ["--max-product", "16"], capsys)[0] == 0


def test_check_counts_past_4300_digits_as_a_power(capsys):
    # 4^7200 has 4,335 digits, more than Python converts to decimal
    premises = " & ".join(f"x{i} = x{i}" for i in range(7199))
    code, out, err = run(["check", "demos/data/z4.alg",
                          f"{premises} => x7199 = x7199"], capsys)
    assert (code, out) == (3, "")
    assert err.startswith("error: 4^7200 assignments over 7200 variables")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["free", "present"])
def test_rank_past_the_size_bound_is_exit_three(command, capsys, deadline):
    # 2^20000 assignment tuples, printed as a power: neither built in
    # full nor converted to decimal
    deadline(10)
    code, out, err = run([command, "demos/data/boolean.cls",
                          "--rank", "20000"], capsys)
    assert (code, out) == (3, "")
    assert err == ("error: 2^20000 + 1^20000 assignment tuples over the "
                   "generators exceed the size bound 4096; a larger "
                   "--max-product raises it\n")


def test_check_without_variables_reports_an_empty_witness(tmp_path,
                                                        capsys):
    path = tmp_path / "ab.alg"
    save_algebra(FiniteAlgebra(Signature(ops=(("a", 0), ("b", 0))), 2,
                               {"a": (0,), "b": (1,)}), str(path))
    code, out, _ = run(["check", str(path), "a = b", "--format", "machine"],
                       capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert result["holds"] is False
    assert result["witness"] == []
    assert result["summary"] == "fails at the empty assignment (no variables)"
    code, out, err = run(["check", str(path), "a = b", "--assert"], capsys)
    assert code == 1
    assert "fails at the empty assignment" in out
    assert "Traceback" not in err
    code, out, _ = run(["check", str(path), "a = a", "--assert",
                        "--format", "machine"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["witness"] is None


def test_truncated_search_is_exit_three(capsys):
    code, out, err = run(
        ["malcev", "demos/data/tangle5.alg", "--max-size", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "table budget of 150000 distinct tables" in err
    assert "--depth" in err and "--max-size" in err


def test_truncated_biternary_is_exit_three(capsys):
    code, out, err = run(
        ["biternary", "demos/data/tangle5.alg", "--max-size", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "table budget of 150000 distinct tables" in err


def test_too_deep_term_is_exit_two(capsys):
    text = "inv(" * 3000 + "x0" + ")" * 3000
    code, out, err = run(
        ["eval", "demos/data/z4.alg", text, "--at", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert "column 801" in err


@pytest.mark.parametrize("argv,missing", [
    (["check", "demos/data/z4.alg", "x5 = x5"], [0, 1, 2, 3, 4]),
    (["parse", "--sig", "demos/data/group.sig", "x3=x3",
      "--kind", "quasiidentity"], [0, 1, 2]),
])
def test_quasiidentity_skipping_a_variable_is_exit_two(argv, missing,
                                                        capsys):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: variable indices not dense, missing {missing}\n"


@pytest.mark.parametrize("argv", [
    ["parse", "--sig", "demos/data/group.sig"],
    ["check", "demos/data/z4.alg"],
    ["eval", "demos/data/z4.alg", "--at", "1"],
])
def test_variable_index_past_the_digit_limit_is_exit_two(argv, capsys):
    # int() refuses more than 4,300 digits
    code, out, err = run(argv + ["x" + "1" * 5000 + " = x0"], capsys)
    assert code == 2
    assert out == ""
    assert err == ("error: syntax error at column 1:"
                   " expected a shorter variable index\n")


def test_capped_search_resolves_cleanly(capsys):
    code, out, _ = run(["malcev", "demos/data/tangle5.alg"], capsys)
    assert code == 0
    assert "no Mal'cev term within depth 4" in out


def test_capped_search_beside_a_ternary_operation_ends(tmp_path, capsys,
                                                      deadline):
    # under the default --max-size 8 this search once ran for minutes
    path = tmp_path / "mt.alg"
    save_algebra(binary_beside_ternary(), str(path))
    deadline(20)
    code, out, err = run(["malcev", str(path), "--format", "machine"],
                         capsys)
    assert code == 0
    assert err == ""
    result = json.loads(out)["result"]
    assert not result["found"] and result["max_size"] == 8


@pytest.mark.parametrize("command", ["malcev", "biternary"])
def test_depth_past_saturation_costs_nothing(command, capsys, deadline):
    # the chain's 7 ternary operations all appear by depth 2, and the
    # search ends at the first level that adds none
    deadline(5)
    code, out, _ = run([command, "demos/data/chain3.alg", "--depth",
                        "100000000", "--format", "machine"], capsys)
    assert code == 0
    result = json.loads(out)["result"]
    assert not result["found"] and result["tables_explored"] == 7


def test_eval_short_assignment_is_exit_two(capsys):
    code, _, err = run(
        ["eval", "demos/data/z4.alg", "mul(x0, x1)", "--at", "1"], capsys)
    assert code == 2
    assert "x1" in err


def test_quotient_out_writes_a_loadable_algebra(tmp_path, capsys):
    out_file = tmp_path / "half.alg"
    code, _, _ = run(
        ["quotient", "demos/data/z4.alg", "--by", "0 2 | 1 3",
         "--out", str(out_file)], capsys)
    assert code == 0
    from malcevlab import load_algebra
    assert load_algebra(str(out_file)).size == 2


def test_free_out_round_trips(tmp_path, capsys):
    out_file = tmp_path / "f2.alg"
    code, _, _ = run(
        ["free", "demos/data/boolean.cls", "--rank", "2",
         "--out", str(out_file)], capsys)
    assert code == 0
    from malcevlab import load_algebra
    assert load_algebra(str(out_file)).size == 4


def test_present_rejects_relation_with_out_of_range_variable(capsys):
    code, _, err = run(
        ["present", "demos/data/boolean.cls", "--rank", "1",
         "--relation", "mul(x0, x1) = x0"], capsys)
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize("command", ["free", "present"])
@pytest.mark.parametrize("rank", ["0", "-1"])
def test_ungeneratable_or_negative_rank_is_exit_two(command, rank, capsys):
    code, out, err = run(
        [command, "demos/data/chain.cls", "--rank", rank], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_homs_budget_flag(capsys):
    code, _, err = run(
        ["homs", "demos/data/z4.alg", "demos/data/z4.alg",
         "--max-product", "2"], capsys)
    assert code == 3
    assert "budget" in err


def test_quasigroup_malcev_needs_right_unit_for_eloop(capsys):
    code, _, err = run(
        ["quasigroup", "malcev", "demos/data/qg3.alg",
         "--flavor", "right_eloop"], capsys)
    assert code == 2
    assert "x*e = x" in err


def test_quasigroup_commands_reject_non_latin_input(capsys):
    code, _, err = run(
        ["quasigroup", "mulgroup", "demos/data/chain3.alg"], capsys)
    assert code == 2
    assert "repeats" in err
