"""Command line front end: golden reports, exit codes, output discipline.

Golden files live in tests/golden/ and hold the exact machine-format
report for one invocation each.  Regenerate them after an intentional
output change with:

    MALCEVLAB_REGEN=1 python -m pytest tests/test_cli.py
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from malcevlab import FiniteAlgebra, Signature
from malcevlab.cli import main
from malcevlab.fileformat import save_algebra

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


def test_only_searches_load_numpy():
    cases = dict(GOLDEN_CASES)
    argvs = [cases[name] for name in (
        "parse_term", "check_holds", "congruences", "permutable",
        "qg_mulgroup", "free", "member_yes")]
    proc = subprocess.run(
        [sys.executable, "-c", COLD_PATH.format(argvs=argvs)], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
                         [("malcev", "0"), ("translations", "1")])
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
    assert f"{3 ** 20} assignments over 20 variables exceed" in err
    assert "--max-product" in err
    argv = ["check", "demos/data/z4.alg", "mul(x0, x1) = mul(x1, x0)"]
    assert run(argv + ["--max-product", "15"], capsys)[0] == 3
    assert run(argv + ["--max-product", "16"], capsys)[0] == 0


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
