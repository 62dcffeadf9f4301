"""Signature, algebra, and class file round trips and diagnostics."""

import random

import pytest

from malcevlab import (Signature, load_algebra, load_class, load_signature,
                       save_algebra, save_signature)
from malcevlab.errors import AlgebraMismatch, FormatError

from conftest import GROUP_SIG, cyclic_group, random_algebra


def test_signature_round_trip(tmp_path):
    path = tmp_path / "group.sig"
    save_signature(GROUP_SIG, str(path))
    assert load_signature(str(path)) == GROUP_SIG


def test_signature_with_predicates_round_trip(tmp_path):
    sig = Signature(ops=(("meet", 2),), preds=(("leq", 2), ("mark", 1)))
    path = tmp_path / "ordered.sig"
    save_signature(sig, str(path))
    assert load_signature(str(path)) == sig


def test_algebra_round_trip_seeded(tmp_path):
    rng = random.Random(60)
    for i in range(60):
        alg = random_algebra(rng)
        path = tmp_path / f"case{i}.alg"
        save_algebra(alg, str(path))
        back = load_algebra(str(path))
        assert back.sig == alg.sig
        assert back.size == alg.size
        assert back.op_tables == alg.op_tables
        assert back.pred_tables == alg.pred_tables


def test_save_is_canonical(tmp_path, z4):
    first = tmp_path / "a.alg"
    second = tmp_path / "b.alg"
    save_algebra(z4, str(first))
    save_algebra(load_algebra(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()


def test_labels_round_trip(tmp_path):
    from malcevlab import FiniteAlgebra
    alg = FiniteAlgebra(GROUP_SIG, 2,
                        {"mul": (0, 1, 1, 0), "inv": (0, 1), "e": (0,)},
                        labels=("zero", "one"))
    path = tmp_path / "labelled.alg"
    save_algebra(alg, str(path))
    assert load_algebra(str(path)).labels == ("zero", "one")


def test_comments_and_blank_lines_are_ignored(tmp_path):
    path = tmp_path / "c.alg"
    path.write_text("# a two-chain\n\nsize 2\nop meet 2  # the table\n"
                    "0 0\n0 1\n")
    alg = load_algebra(str(path))
    assert alg.size == 2
    assert alg.op_value("meet", (1, 1)) == 1


@pytest.mark.parametrize("text,fragment", [
    ("op meet 2\n0 0\n0 1\n", "size"),
    ("size 0\n", "size"),
    ("size 2\nop meet 2\n0 0\n0\n", "end of file"),
    ("size 2\nop meet 2\n0 0\n0 2\n", "outside 0..1"),
    ("size 2\nop meet 2\n0 0\n0 x\n", "expected a value of meet"),
    ("size 2\npred leq 2\n1 0\n0 2\n", "0/1 entry"),
    ("size 2\nop meet -1\n", "arity"),
    ("size 2\nfoo meet 2\n", "op"),
    ("size 2\nlabels a\n", "expected label 1"),
])
def test_malformed_algebra_files(tmp_path, text, fragment):
    path = tmp_path / "bad.alg"
    path.write_text(text)
    with pytest.raises(FormatError) as info:
        load_algebra(str(path))
    message = str(info.value)
    assert fragment in message
    assert str(path) in message


def test_error_messages_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.alg"
    path.write_text("size 2\nop meet 2\n0 0\n0 9\n")
    with pytest.raises(FormatError) as info:
        load_algebra(str(path))
    assert f"{path}:4:" in str(info.value)


def test_missing_file_is_a_format_error():
    with pytest.raises(FormatError):
        load_algebra("/nonexistent/missing.alg")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_line_numbers_follow_every_line_end(tmp_path, end):
    path = tmp_path / "bad.alg"
    path.write_bytes(end.join(["size 2", "# a note", "op f 1", "0 x"])
                     .encode())
    with pytest.raises(FormatError, match=r":4: expected a value of f"):
        load_algebra(str(path))


def test_non_utf8_file_is_a_format_error(tmp_path):
    path = tmp_path / "latin1.alg"
    path.write_bytes(b"# caf\xe9\nsize 1\n")
    with pytest.raises(FormatError, match="not UTF-8") as info:
        load_algebra(str(path))
    assert str(path) in str(info.value)


def test_class_loading(tmp_path, z2):
    alg_path = tmp_path / "member.alg"
    save_algebra(z2, str(alg_path))
    cls_path = tmp_path / "family.cls"
    cls_path.write_text("algebra member.alg\ninclude_unitary true\n"
                        "size_bound 512\n")
    cls = load_class(str(cls_path))
    assert len(cls.algebras) == 2
    assert cls.algebras[1].size == 1
    assert cls.include_unitary
    assert cls.size_bound == 512


def test_class_defaults(tmp_path, z2):
    alg_path = tmp_path / "member.alg"
    save_algebra(z2, str(alg_path))
    cls_path = tmp_path / "family.cls"
    cls_path.write_text("algebra member.alg\n")
    cls = load_class(str(cls_path))
    assert len(cls.algebras) == 1
    assert not cls.include_unitary
    assert cls.size_bound == 10_000


def test_class_requires_members(tmp_path):
    cls_path = tmp_path / "empty.cls"
    cls_path.write_text("include_unitary false\n")
    with pytest.raises(FormatError):
        load_class(str(cls_path))


def test_class_rejects_mixed_signatures(tmp_path, z2, chain2):
    save_algebra(z2, str(tmp_path / "a.alg"))
    save_algebra(chain2, str(tmp_path / "b.alg"))
    cls_path = tmp_path / "mixed.cls"
    cls_path.write_text("algebra a.alg\nalgebra b.alg\n")
    with pytest.raises(AlgebraMismatch):
        load_class(str(cls_path))


def test_repository_fixture_files_round_trip():
    import pathlib
    data = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
    for name in ("z2.alg", "z4.alg", "chain2.alg", "chain3.alg",
                 "chain2p.alg", "tangle5.alg", "qg3.alg"):
        alg = load_algebra(str(data / name))
        assert alg.size >= 1
