"""The exit-code contract on random input: every command line exits 0, 2
or 3 (1 needs ``--assert``, which none passes), and no exception escapes
``main``.  Random systems and Latin squares are written to a temporary
directory, and random texts go through the commands that parse them."""

import io
import pathlib
import random
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from malcevlab import (FiniteAlgebra, equasigroup_from_latin, latin_square,
                       to_algebra)
from malcevlab.cli import main
from malcevlab.fileformat import save_algebra

from conftest import parse_texts, random_algebra, random_square

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
MEMBERS = sorted(DATA.glob("*.alg"))


def exit_code(argv) -> int:
    """main's exit code on argv, an argument error's included."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    return code


def test_random_systems_keep_the_contract(tmp_path, deadline):
    deadline(10)
    rng = random.Random(23)
    a, b, c = (tmp_path / f"{name}.alg" for name in "abc")
    for _ in range(40):
        alg = random_algebra(rng)
        save_algebra(alg, str(a))
        # random tables for the same signature over at most four elements
        n = rng.randint(1, 4)
        save_algebra(FiniteAlgebra(
            alg.sig, n,
            {name: tuple(rng.randrange(n) for _ in range(n**arity))
             for name, arity in alg.sig.ops},
            {name: tuple(rng.random() < 0.5 for _ in range(n**arity))
             for name, arity in alg.sig.preds}), str(b))
        save_algebra(random_algebra(rng), str(c))
        budget = ["--max-product", rng.choice([1, 20, 1_000_000])]
        for argv in (["homs", a, b, *budget], ["homs", a, c],
                     ["congruences", a, *budget], ["permutable", a]):
            exit_code(argv)
        for command in ("malcev", "biternary", "translations"):
            exit_code([command, a, "--depth", rng.randint(0, 2)])
        # seeds and partitions that may name elements off the carrier
        seed = ",".join(str(rng.randint(-1, alg.size))
                        for _ in range(rng.randint(0, 3)))
        exit_code(["subalg", a, f"--seed={seed}"])
        exit_code(["quotient", a, f"--by={partition_text(rng, alg.size)}"])


def partition_text(rng: random.Random, size: int) -> str:
    """A partition of 0..size-1 in either notation, at times with an
    element missing, repeated or off the carrier, or a brace left open."""
    elements = list(range(size))
    rng.shuffle(elements)
    if elements and rng.random() < 0.3:
        elements[-1] = rng.choice([-1, size, elements[0]])
    cuts = sorted(rng.sample(range(1, size), rng.randint(0, size - 1))) \
        if size > 1 else []
    blocks = [elements[i:j] for i, j in zip([0, *cuts], [*cuts, size])]
    if rng.random() < 0.5:
        return " | ".join(" ".join(map(str, b)) for b in blocks)
    text = "{" + ",".join("{" + ",".join(map(str, b)) + "}"
                          for b in blocks) + "}"
    return text[:-1] if rng.random() < 0.1 else text


def test_random_quasigroups_keep_the_contract(tmp_path, deadline):
    deadline(10)
    rng = random.Random(29)
    path = tmp_path / "q.alg"
    for n in range(1, 8):
        for _ in range(2):
            q = equasigroup_from_latin(latin_square(random_square(rng, n)))
            save_algebra(to_algebra(q, "quasigroup"), str(path))
            for argv in (["verify"], ["mulgroup", "--side", "both"],
                         ["rectify"],
                         ["malcev", "--flavor",
                          rng.choice(["quasigroup", "right_eloop",
                                      "left_eloop"])]):
                exit_code(["quasigroup", argv[0], path, *argv[1:]])
            exit_code(["translations", path, "--depth", 2])
            for command in ("biternary", "malcev"):
                exit_code([command, path, "--depth", rng.randint(0, 2)])


def class_text(rng: random.Random, first: pathlib.Path) -> str:
    """A class file of first and up to two more members, each mostly
    first again, else any of demos/data or a path that does not exist,
    with include_unitary either way and a size bound of 1 to 5,000."""
    members = [first, *(first if rng.random() < 0.6 else
                        rng.choice([*MEMBERS, DATA / "missing.alg"])
                        for _ in range(rng.randint(0, 2)))]
    lines = [f"algebra {m}" for m in members] + [
        f"include_unitary {rng.choice(['true', 'false'])}",
        f"size_bound {rng.randint(1, 5000)}"]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_random_class_files_keep_the_contract(tmp_path, deadline):
    deadline(20)
    rng = random.Random(31)
    path = tmp_path / "k.cls"
    for _ in range(60):
        # replica and member ask about an algebra of the first member's
        # signature, which the class shares unless it is bad input
        algebra = rng.choice(MEMBERS)
        path.write_text(class_text(rng, algebra))
        rank = ["--rank", rng.choice([0, 1, 2, 3, 20000])]
        exit_code(["free", path, *rank])
        # a relation that may name a variable past the rank
        exit_code(["present", path, *rank,
                   *rng.choice([[], ["--relation", "x0 = x1"]])])
        exit_code(["replica", path, algebra])
        exit_code(["member", path, algebra])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(parse_texts, st.sampled_from(["term", "formula", "quasiidentity"]))
def test_random_texts_keep_the_contract(deadline, text, kind):
    deadline(10)
    exit_code(["parse", "--sig", DATA / "group.sig", text, "--kind", kind])
    exit_code(["eval", DATA / "z4.alg", text, "--at", "1,2,3"])
    exit_code(["check", DATA / "z4.alg", text])
