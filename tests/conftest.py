"""Shared fixtures: small concrete algebras and generators for them."""

from __future__ import annotations

import random
import signal
from itertools import permutations

import pytest
from hypothesis import strategies as st

from malcevlab import (App, Equation, FiniteAlgebra, PredicateAtom,
                       Signature, Var)
from malcevlab.terms import MAX_TERM_DEPTH

# pytester runs the deadline fixture in a pytest session of its own
pytest_plugins = ("pytester",)

GROUP_SIG = Signature(ops=(("mul", 2), ("inv", 1), ("e", 0)))
MEET_SIG = Signature(ops=(("meet", 2),))
GROUPOID_SIG = Signature(ops=(("mul", 2),))


def cyclic_group(n: int) -> FiniteAlgebra:
    mul = tuple((a + b) % n for a in range(n) for b in range(n))
    inv = tuple((-a) % n for a in range(n))
    return FiniteAlgebra(GROUP_SIG, n, {"mul": mul, "inv": inv, "e": (0,)})


def klein_group() -> FiniteAlgebra:
    """Z2 x Z2 with elements numbered by (a, b) -> 2a + b."""
    def op(x, y):
        return (((x >> 1) ^ (y >> 1)) << 1) | ((x & 1) ^ (y & 1))
    mul = tuple(op(a, b) for a in range(4) for b in range(4))
    return FiniteAlgebra(GROUP_SIG, 4,
                         {"mul": mul, "inv": tuple(range(4)), "e": (0,)})


def symmetric_group_3() -> FiniteAlgebra:
    """Permutations of {0,1,2} in lexicographic order; (p*q)(i) = p[q[i]]."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(index[tuple(p[q[i]] for i in range(3))]
                for p in perms for q in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))]
                for p in perms)
    return FiniteAlgebra(GROUP_SIG, 6, {"mul": mul, "inv": inv, "e": (0,)})


def chain_semilattice(n: int) -> FiniteAlgebra:
    meet = tuple(min(a, b) for a in range(n) for b in range(n))
    return FiniteAlgebra(MEET_SIG, n, {"meet": meet})


TANGLE5_ROWS = ((0, 1, 2, 3, 4),
                (1, 2, 1, 1, 0),
                (2, 1, 1, 1, 0),
                (3, 1, 1, 1, 0),
                (4, 0, 0, 0, 1))


def tangle5() -> FiniteAlgebra:
    """Commutative unital groupoid with a non-permuting congruence pair."""
    mul = tuple(v for row in TANGLE5_ROWS for v in row)
    return FiniteAlgebra(GROUPOID_SIG, 5, {"mul": mul})


def binary_beside_ternary() -> FiniteAlgebra:
    """A 3-element algebra with a binary and a ternary operation, whose
    derived operations under a size cap once took minutes to walk."""
    sig = Signature(ops=(("m", 2), ("t", 3)))
    return FiniteAlgebra(sig, 3, {
        "m": (1, 1, 0, 1, 2, 1, 1, 1, 1),
        "t": (1, 2, 0, 2, 0, 1, 0, 0, 2, 1, 2, 2, 2, 0, 1, 0, 2, 0,
              2, 1, 1, 2, 0, 1, 1, 1, 2)})


def groupoid_from_rows(rows) -> FiniteAlgebra:
    n = len(rows)
    mul = tuple(v for row in rows for v in row)
    return FiniteAlgebra(GROUPOID_SIG, n, {"mul": mul})


def all_latin_squares(n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Every n x n Latin square, rows filled in lexicographic order."""
    squares: list[tuple[tuple[int, ...], ...]] = []
    rows: list[tuple[int, ...]] = []
    col_used: list[set[int]] = [set() for _ in range(n)]

    def fill_row(r: int, c: int, row: list[int], row_used: set[int]):
        if c == n:
            rows.append(tuple(row))
            for i, v in enumerate(row):
                col_used[i].add(v)
            if r + 1 == n:
                squares.append(tuple(rows))
            else:
                fill_row(r + 1, 0, [0] * n, set())
            rows.pop()
            for i, v in enumerate(row):
                col_used[i].remove(v)
            return
        for v in range(n):
            if v in row_used or v in col_used[c]:
                continue
            row[c] = v
            row_used.add(v)
            fill_row(r, c + 1, row, row_used)
            row_used.remove(v)

    fill_row(0, 0, [0] * n, set())
    return squares


def random_square(rng: random.Random, n: int) -> tuple[tuple[int, ...], ...]:
    """A Latin square of order n: the Z_n table with rows, columns and
    symbols independently permuted."""
    rho = list(range(n))
    gamma = list(range(n))
    sigma = list(range(n))
    rng.shuffle(rho)
    rng.shuffle(gamma)
    rng.shuffle(sigma)
    return tuple(tuple(sigma[(rho[r] + gamma[c]) % n] for c in range(n))
                 for r in range(n))


def random_algebra(rng: random.Random, max_size: int = 5) -> FiniteAlgebra:
    """A random finite system: a few tables over a small random carrier."""
    size = rng.randint(1, max_size)
    ops = []
    tables = {}
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(0, 2)
        name = f"f{i}"
        ops.append((name, arity))
        tables[name] = tuple(rng.randrange(size)
                             for _ in range(size**arity))
    preds = []
    ptables = {}
    for i in range(rng.randint(0, 2)):
        arity = rng.randint(1, 2)
        name = f"p{i}"
        preds.append((name, arity))
        ptables[name] = tuple(rng.random() < 0.5
                              for _ in range(size**arity))
    sig = Signature(ops=tuple(ops), preds=tuple(preds))
    return FiniteAlgebra(sig, size, tables, ptables)


@st.composite
def small_algebras(draw, max_size: int = 4):
    """One binary operation, optionally a unary one and a constant."""
    n = draw(st.integers(1, max_size))
    ops = [("mul", 2)]
    if draw(st.booleans()):
        ops.append(("inv", 1))
    if draw(st.booleans()):
        ops.append(("e", 0))
    values = st.integers(0, n - 1)
    tables = {name: draw(st.lists(values, min_size=n**arity,
                                  max_size=n**arity))
              for name, arity in ops}
    return FiniteAlgebra(Signature(tuple(ops)), n, tables)


@st.composite
def signatures(draw, max_arity: int = 2):
    """One to three operations of arity 0 to max_arity and up to two
    predicates of arity 0-2; the first operation is binary."""
    arities = [2] + draw(st.lists(st.integers(0, max_arity), max_size=2))
    pred_arities = draw(st.lists(st.integers(0, 2), max_size=2))
    return Signature(tuple((f"f{i}", a) for i, a in enumerate(arities)),
                     tuple((f"p{i}", a) for i, a in enumerate(pred_arities)))


@st.composite
def systems(draw, sig: Signature, max_size: int = 4):
    """A finite system over sig with random tables."""
    n = draw(st.integers(1, max_size))
    values = st.integers(0, n - 1)
    ops = {name: tuple(draw(st.lists(values, min_size=n**a, max_size=n**a)))
           for name, a in sig.ops}
    preds = {name: tuple(draw(st.lists(st.booleans(), min_size=n**a,
                                       max_size=n**a)))
             for name, a in sig.preds}
    return FiniteAlgebra(sig, n, ops, preds)


def terms(sig: Signature, var_count: int):
    """Terms over sig in the variables x0..x{var_count-1}, a few
    applications deep.  Needs a variable or a constant."""
    leaves = [st.builds(Var, st.integers(0, var_count - 1))] \
        if var_count else []
    leaves += [st.just(App(name)) for name, a in sig.ops if a == 0]

    def extend(children):
        return st.one_of([
            st.tuples(*[children] * a).map(lambda args, name=name:
                                           App(name, args))
            for name, a in sig.ops if a])
    return st.recursive(st.one_of(leaves), extend, max_leaves=5)


def formulas(sig: Signature, var_count: int):
    """Equations and predicate atoms over the terms of terms()."""
    t = terms(sig, var_count)
    options = [st.builds(Equation, t, t)]
    options += [st.tuples(*[t] * a).map(lambda args, name=name:
                                        PredicateAtom(name, args))
                for name, a in sig.preds]
    return st.one_of(options)


# texts for the parser: the operations of GROUP_SIG, the predicates
# leq/2, p/1 and q/0, and f/1, which no signature here declares; each
# symbol most often with as many arguments as its arity
ARITIES = {"mul": 2, "inv": 1, "e": 0, "f": 1, "leq": 2, "p": 1, "q": 0}
BLANKS = ["", " ", "\t", "\n", "\u00a0", "\u2003", "\x1c"]
blanks = st.sampled_from(BLANKS)
VARIABLES = ["x0", "x0", "x1", "x1", "x2", "x007", "x10"]
# terms at MAX_TERM_DEPTH and one level deeper, by a variable or a constant
DEEP = [f"{'inv(' * d}{leaf}{')' * d}"
        for d in (MAX_TERM_DEPTH - 1, MAX_TERM_DEPTH, MAX_TERM_DEPTH + 1)
        for leaf in ("x0", "e")]


@st.composite
def symbol_texts(draw, names, depth: int):
    """A symbol of names applied to term texts, blanks drawn around them."""
    name = draw(st.sampled_from(names))
    count = max(0, ARITIES[name] + draw(st.sampled_from([0] * 6 + [-1, 1])))
    args = [draw(term_texts(depth - 1)) + draw(blanks) for _ in range(count)]
    if not args and draw(st.booleans()):
        return name
    return f"{name}{draw(blanks)}({draw(blanks)}{','.join(args)})"


@st.composite
def term_texts(draw, depth: int = 3):
    if depth == 0 or draw(st.booleans()):
        if draw(st.integers(0, 19)) == 0:
            return draw(st.sampled_from(DEEP))
        return draw(st.sampled_from(VARIABLES + ["e"]))
    return draw(symbol_texts(["mul", "mul", "inv", "inv", "e", "f", "leq"],
                             depth))


formula_texts = (
    st.tuples(term_texts(), blanks, term_texts()).map(
        lambda t: f"{t[0]}{t[1]}={t[2]}")
    | symbol_texts(["leq", "leq", "p", "p", "q", "mul"], 3))
quasiidentity_texts = st.tuples(
    st.lists(formula_texts, min_size=1, max_size=3),
    st.sampled_from(["", " => ", "=>", " & "]), formula_texts).map(
        lambda t: " & ".join(t[0]) + t[1] + t[2])
# any sequence of the language's tokens and a few that are not in it
token_soup = st.lists(st.tuples(blanks, st.sampled_from(
    VARIABLES + list(ARITIES) + ["(", ")", ",", "=", "&", "=>", ">", "0",
                                 "7", "\u00e9"])), max_size=24).map(
    lambda pairs: "".join(b + text for b, text in pairs))
parse_texts = st.tuples(
    token_soup | term_texts() | formula_texts | quasiidentity_texts,
    st.lists(blanks, max_size=2)).map(lambda t: t[0] + "".join(t[1]))


UNIT_FREE_ROWS = ((1, 0, 2), (0, 2, 1), (2, 1, 0))


@pytest.fixture
def z2():
    return cyclic_group(2)


@pytest.fixture
def z3():
    return cyclic_group(3)


@pytest.fixture
def z4():
    return cyclic_group(4)


@pytest.fixture
def z6():
    return cyclic_group(6)


@pytest.fixture
def klein():
    return klein_group()


@pytest.fixture
def s3():
    return symmetric_group_3()


@pytest.fixture
def chain2():
    return chain_semilattice(2)


@pytest.fixture
def chain3():
    return chain_semilattice(3)


@pytest.fixture
def tangle():
    return tangle5()


@pytest.fixture
def deadline():
    """deadline(seconds) fails the test once it runs that long, so that
    a search without a bound fails instead of hanging the suite.  The
    failure carries no traceback: the alarm can land on an instruction
    without a line number, whose traceback pytest cannot render, which
    would end the whole session instead of this one test."""
    def expire(signum, frame):
        pytest.fail("the test ran past its deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    yield signal.alarm
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
