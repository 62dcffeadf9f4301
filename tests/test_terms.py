"""Term language: parsing, printing, evaluation, satisfaction."""

import random
import tracemalloc
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (App, CheckResult, Equation, FiniteAlgebra,
                       PredicateAtom, Quasiidentity, Signature, Var,
                       check_quasiidentity, compile_evaluator, eval_formula,
                       eval_term, formula_vars, parse_formula,
                       parse_quasiidentity, parse_term, print_term,
                       term_depth, term_key, term_size, term_vars)
from malcevlab.errors import (ArityMismatch, AssignmentTooShort,
                              InputError, MalcevLabError, SignatureMismatch,
                              TermSyntaxError, UnknownSymbol)
from malcevlab import terms as terms_module
from malcevlab.terms import (MAX_TERM_DEPTH, assignment_columns,
                             satisfaction_mask)

from conftest import (DEEP, GROUP_SIG, GROUPOID_SIG, MEET_SIG, cyclic_group,
                      formulas, parse_texts, random_algebra, signatures,
                      systems, terms)
from oracles_local import (naive_check_quasiidentity,
                           reference_parse_formula,
                           reference_parse_quasiidentity,
                           reference_parse_term)

PRED_SIG = Signature(ops=(("mul", 2), ("e", 0)), preds=(("leq", 2),))


def random_term(rng: random.Random, sig: Signature, var_count: int,
                depth: int):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randrange(var_count))
    name, arity = rng.choice(sig.ops)
    return App(name, tuple(random_term(rng, sig, var_count, depth - 1)
                           for _ in range(arity)))


def test_signature_lookup():
    assert GROUP_SIG.op_arity("mul") == 2
    assert GROUP_SIG.op_arity("inv") == 1
    assert GROUP_SIG.op_arity("e") == 0
    assert GROUP_SIG.op_arity("missing") is None
    assert PRED_SIG.pred_arity("leq") == 2
    assert PRED_SIG.pred_arity("mul") is None


def test_parse_simple_term():
    t = parse_term("mul(x0, inv(x1))", GROUP_SIG)
    assert t == App("mul", (Var(0), App("inv", (Var(1),))))
    assert term_size(t) == 4
    assert term_depth(t) == 2
    assert term_vars(t) == {0, 1}


def test_constant_parses_with_and_without_parens():
    assert parse_term("e", GROUP_SIG) == App("e", ())
    assert parse_term("e()", GROUP_SIG) == App("e", ())


def test_print_parse_round_trip_seeded():
    rng = random.Random(20260817)
    for _ in range(200):
        sig = rng.choice((GROUP_SIG, MEET_SIG, PRED_SIG))
        t = random_term(rng, sig, var_count=4, depth=4)
        assert parse_term(print_term(t), sig) == t


@pytest.mark.parametrize("text,exc,position", [
    ("mul(x0", TermSyntaxError, 7),
    ("mul(x0,, x1)", TermSyntaxError, 8),
    ("", TermSyntaxError, 1),
    ("mul(x0 x1)", TermSyntaxError, 8),
    ("42", TermSyntaxError, 1),
    ("mul(x0, x1))", TermSyntaxError, 12),
    ("foo(x0)", UnknownSymbol, 1),
    ("inv(x0, x1)", ArityMismatch, 1),
    ("mul(x0)", ArityMismatch, 1),
    ("inv", ArityMismatch, 1),
])
def test_parse_error_positions(text, exc, position):
    with pytest.raises(exc) as info:
        parse_term(text, GROUP_SIG)
    assert info.value.position == position


def test_nesting_bound_is_inclusive(z4):
    text = "inv(" * MAX_TERM_DEPTH + "x0" + ")" * MAX_TERM_DEPTH
    t = parse_term(text, GROUP_SIG)
    assert term_depth(t) == MAX_TERM_DEPTH
    assert print_term(t) == text
    # inv is negation in Z4 and the bound is even
    assert eval_term(t, (3,), z4) == 3
    constant = "inv(" * (MAX_TERM_DEPTH - 1) + "e" + ")" * (MAX_TERM_DEPTH - 1)
    assert term_depth(parse_term(constant, GROUP_SIG)) == MAX_TERM_DEPTH
    with pytest.raises(TermSyntaxError) as info:
        parse_term("inv(" + text + ")", GROUP_SIG)
    assert info.value.position == 4 * MAX_TERM_DEPTH + 1
    with pytest.raises(TermSyntaxError):
        parse_term("inv(" + constant + ")", GROUP_SIG)


def test_formula_parse_and_errors():
    f = parse_formula("mul(x0, x1) = mul(x1, x0)", GROUP_SIG)
    assert str(f) == "mul(x0, x1) = mul(x1, x0)"
    atom = parse_formula("leq(x0, mul(x0, x1))", PRED_SIG)
    assert str(atom) == "leq(x0, mul(x0, x1))"
    with pytest.raises(TermSyntaxError) as info:
        parse_formula("mul(x0, x1) = ", GROUP_SIG)
    assert info.value.position == 15
    with pytest.raises(ArityMismatch):
        parse_formula("leq(x0) ", PRED_SIG)


def test_quasiidentity_parse():
    q = parse_quasiidentity(
        "mul(x0, x1) = e & mul(x1, x0) = e => inv(x0) = x1", GROUP_SIG)
    assert len(q.premises) == 2
    assert q.variable_count == 2
    bare = parse_quasiidentity("mul(x0, x0) = e", GROUP_SIG)
    assert bare.is_identity
    with pytest.raises(TermSyntaxError):
        parse_quasiidentity("mul(x0, x0) = e & inv(x0) = x0", GROUP_SIG)


def test_quasiidentity_requires_dense_variables():
    with pytest.raises(ValueError):
        Quasiidentity((), parse_formula("mul(x0, x2) = x0", GROUP_SIG))


# a predicate of arity 0 can never be written: it needs an argument
PARSE_SIG = Signature(ops=(("mul", 2), ("inv", 1), ("e", 0)),
                      preds=(("leq", 2), ("p", 1), ("q", 0)))
ENTRY_POINTS = [(parse_term, reference_parse_term),
                (parse_formula, reference_parse_formula),
                (parse_quasiidentity, reference_parse_quasiidentity)]


def parse_outcome(parse, text):
    """The syntax tree, or the error's type, message and attributes; the
    reference's ValueError for variables that skip an index is now an
    InputError with the same message."""
    try:
        return parse(text, PARSE_SIG)
    except (MalcevLabError, ValueError) as exc:
        kind = InputError if type(exc) is ValueError else type(exc)
        return kind, str(exc), vars(exc)


@settings(max_examples=300, deadline=None)
@given(parse_texts)
def test_parser_matches_the_reference_parser(text):
    for parse, reference in ENTRY_POINTS:
        assert parse_outcome(parse, text) == \
            parse_outcome(reference, text), (parse.__name__, text)


def test_parser_matches_the_reference_parser_on_edge_cases():
    for text in DEEP + ["mul(x0, x1) = ", "x0 \u00e9", "e()", "q()", "q",
                        "leq(x0) ", "x3 = x3 )", "x0=x0 & x0=x0",
                        "x0 = x0 => x1 = x1 =>", "x0\x1c", ""]:
        for parse, reference in ENTRY_POINTS:
            assert parse_outcome(parse, text) == \
                parse_outcome(reference, text), (parse.__name__, text)
    # a variable index past int()'s limit on digits: the reference raises
    # int()'s ValueError, the parser a syntax error at the variable
    for text, col in [("x" + "1" * 5000, 1),
                      ("mul(x0, x" + "1" * 5000 + ") = x0", 9)]:
        for parse, reference in ENTRY_POINTS:
            with pytest.raises(ValueError, match="limit"):
                reference(text, PARSE_SIG)
            with pytest.raises(TermSyntaxError) as exc:
                parse(text, PARSE_SIG)
            assert exc.value.position == col
            assert str(exc.value) == \
                f"variable index too long at column {col}"


def naive_eval(t, assignment, alg):
    if isinstance(t, Var):
        return assignment[t.index]
    vals = [naive_eval(a, assignment, alg) for a in t.args]
    idx = 0
    for v in vals:
        idx = idx * alg.size + v
    return alg.op_tables[t.op][idx]


def test_eval_matches_naive_on_seeded_cases():
    rng = random.Random(99)
    for _ in range(150):
        alg = random_algebra(rng)
        t = random_term(rng, alg.sig, var_count=3, depth=3)
        assignment = tuple(rng.randrange(alg.size) for _ in range(3))
        assert eval_term(t, assignment, alg) == naive_eval(
            t, assignment, alg)


def test_eval_error_paths(z4):
    with pytest.raises(AssignmentTooShort):
        eval_term(parse_term("mul(x0, x1)", GROUP_SIG), (1,), z4)
    with pytest.raises(SignatureMismatch):
        eval_term(parse_term("meet(x0, x0)", MEET_SIG), (1,), z4)


def test_eval_formula_on_predicates():
    from malcevlab import FiniteAlgebra
    leq = tuple(a <= b for a in range(3) for b in range(3))
    mul = tuple(min(a, b) for a in range(3) for b in range(3))
    alg = FiniteAlgebra(PRED_SIG, 3, {"mul": mul, "e": (0,)}, {"leq": leq})
    f = parse_formula("leq(mul(x0, x1), x0)", PRED_SIG)
    assert all(eval_formula(f, (a, b), alg)
               for a in range(3) for b in range(3))


def test_check_quasiidentity_matches_brute_force_seeded():
    rng = random.Random(4242)
    for _ in range(80):
        alg = random_algebra(rng, max_size=4)
        lhs = random_term(rng, alg.sig, var_count=2, depth=2)
        rhs = random_term(rng, alg.sig, var_count=2, depth=2)
        vs = term_vars(lhs) | term_vars(rhs)
        if vs != set(range(len(vs))):
            continue
        q = Quasiidentity((), Equation(lhs, rhs))
        assert check_quasiidentity(q, alg) == naive_check_quasiidentity(q, alg)


def test_check_quasiidentity_known_answers(z4, chain3):
    holds = check_quasiidentity(
        parse_quasiidentity("mul(x0, x1) = mul(x1, x0)", GROUP_SIG), z4)
    assert holds.holds and holds.witness is None
    cancel = parse_quasiidentity(
        "meet(x0, x1) = meet(x0, x2) => x1 = x2", MEET_SIG)
    failing = check_quasiidentity(cancel, chain3)
    assert not failing.holds
    assert failing.witness == (0, 0, 1)


def _renamed(node, names):
    if isinstance(node, Var):
        return Var(names[node.index])
    if isinstance(node, App):
        return App(node.op, tuple(_renamed(a, names) for a in node.args))
    if isinstance(node, Equation):
        return Equation(_renamed(node.lhs, names), _renamed(node.rhs, names))
    return PredicateAtom(node.pred,
                         tuple(_renamed(a, names) for a in node.args))


@st.composite
def systems_with_quasiidentities(draw, max_width: int = 3):
    """A random system and a quasiidentity over its signature, with up to
    max_width variables renumbered densely."""
    sig = draw(signatures(max_arity=3))
    alg = draw(systems(sig))
    width = draw(st.integers(1, max_width))
    premises = draw(st.lists(formulas(sig, width), max_size=2))
    conclusion = draw(formulas(sig, width))
    used = formula_vars(conclusion).union(*map(formula_vars, premises))
    names = {v: i for i, v in enumerate(sorted(used))}
    q = Quasiidentity(tuple(_renamed(p, names) for p in premises),
                      _renamed(conclusion, names))
    return alg, q


@settings(max_examples=150, deadline=None)
@given(systems_with_quasiidentities())
def test_check_quasiidentity_matches_the_interpreting_oracle(case):
    alg, q = case
    assert check_quasiidentity(q, alg) == naive_check_quasiidentity(q, alg)


@settings(max_examples=150, deadline=None)
@given(systems_with_quasiidentities(max_width=4), st.integers(1, 5),
       st.integers(1, 3))
def test_blocked_scan_matches_the_interpreting_oracle(case, cap, first):
    """Blocks of a few assignments put most witnesses past the first
    block; a cap below the carrier size still scans one variable."""
    alg, q = case
    with mock.patch.object(terms_module, "_BLOCK_CAP", cap), \
            mock.patch.object(terms_module, "_FIRST_BLOCK", first):
        assert check_quasiidentity(q, alg) == naive_check_quasiidentity(
            q, alg)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compiled_evaluator_agrees_with_the_interpreter(data):
    sig = data.draw(signatures(max_arity=3))
    alg = data.draw(systems(sig))
    node = data.draw(st.one_of(terms(sig, 3), formulas(sig, 3)))
    run = compile_evaluator(node, alg, 3)
    interpret = eval_formula if isinstance(
        node, (Equation, PredicateAtom)) else eval_term
    assignments = list(product(range(alg.size), repeat=3))
    expected = [interpret(node, a, alg) for a in assignments]
    # whole columns, a scalar beside two columns, one assignment at a time
    assert list(run(assignment_columns(alg.size, 3))) == expected
    x0 = data.draw(st.integers(0, alg.size - 1))
    rest = assignment_columns(alg.size, 2)
    assert list(run([x0] + rest)) == [
        value for a, value in zip(assignments, expected) if a[0] == x0]
    for assignment, value in zip(assignments, expected):
        assert run(assignment) == value


def test_compiled_evaluator_errors_match_the_interpreter(z4):
    for t in (App("inv", (Var(0), Var(1))), App("meet", (Var(0), Var(0)))):
        with pytest.raises(SignatureMismatch) as interpreted:
            eval_term(t, (1, 2), z4)
        with pytest.raises(SignatureMismatch) as compiled:
            compile_evaluator(t, z4, 2)
        assert str(compiled.value) == str(interpreted.value)
    with pytest.raises(AssignmentTooShort) as interpreted:
        eval_term(Var(2), (1, 2), z4)
    with pytest.raises(AssignmentTooShort) as compiled:
        compile_evaluator(Var(2), z4, 2)
    assert str(compiled.value) == str(interpreted.value)
    with pytest.raises(SignatureMismatch, match="no predicate 'leq'"):
        compile_evaluator(PredicateAtom("leq", (Var(0), Var(0))), z4, 1)
    ordered = FiniteAlgebra(PRED_SIG, 1, {"mul": (0,), "e": (0,)},
                            {"leq": (True,)})
    with pytest.raises(SignatureMismatch, match="'leq' has arity 2"):
        compile_evaluator(PredicateAtom("leq", (Var(0),)), ordered, 1)


def test_compiling_a_nested_term_copies_no_table():
    # the tables are read as given: compiling the term allocates a few
    # closures and multiples, not a copy of the 216000 entries per place
    # value (8.4 MB when each nested argument had its own copy)
    n = 60
    rng = random.Random(11)
    sig = Signature(ops=(("f", 3),))
    alg = FiniteAlgebra(sig, n, {"f": tuple(rng.randrange(n)
                                            for _ in range(n**3))})
    term = parse_term("f(f(x0, x1, x2), x1, x2)", sig)
    tracemalloc.start()
    try:
        run = compile_evaluator(term, alg, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    rows = [(rng.randrange(n), rng.randrange(n), rng.randrange(n))
            for _ in range(50)]
    assert list(run(list(zip(*rows)))) == [
        eval_term(term, a, alg) for a in rows]


def test_missing_operation_is_rejected_before_the_scan():
    # no assignment satisfies the premise s(x0) = x0, so the interpreting
    # scan never reaches the conclusion's unknown symbol g
    swap = FiniteAlgebra(Signature(ops=(("s", 1),)), 2, {"s": (1, 0)})
    q = Quasiidentity((Equation(App("s", (Var(0),)), Var(0)),),
                      Equation(App("g", (Var(0),)), Var(0)))
    assert naive_check_quasiidentity(q, swap).holds
    with pytest.raises(SignatureMismatch, match="no operation 'g'"):
        check_quasiidentity(q, swap)


CONSTANTS_SIG = Signature(ops=(("a", 0), ("b", 0), ("mul", 2)))


def test_check_without_variables():
    alg = FiniteAlgebra(CONSTANTS_SIG, 2,
                        {"a": (0,), "b": (1,), "mul": (0, 0, 0, 1)})
    for text, holds in (("a = b", False), ("mul(a, b) = a", True),
                        ("a = b => mul(b, b) = a", True),
                        ("mul(b, b) = b => a = b", False)):
        q = parse_quasiidentity(text, CONSTANTS_SIG)
        assert q.variable_count == 0
        result = check_quasiidentity(q, alg)
        assert result == naive_check_quasiidentity(q, alg)
        assert result.holds == holds
        assert result.witness == (None if holds else ())


def test_check_with_constants_on_both_sides():
    # mul is the left projection, so mul(a, x0) = mul(x0, a) says a = x0
    alg = FiniteAlgebra(CONSTANTS_SIG, 3,
                        {"a": (1,), "b": (2,),
                         "mul": tuple(x for x in range(3) for _ in range(3))})
    for text, witness in (("mul(a, x0) = mul(x0, a)", (0,)),
                          ("mul(a, b) = mul(a, a)", None),
                          ("mul(x0, a) = b => mul(b, x1) = mul(x0, b)",
                           None),
                          ("mul(b, x0) = mul(x1, a)", (0, 0))):
        q = parse_quasiidentity(text, CONSTANTS_SIG)
        result = check_quasiidentity(q, alg)
        assert result == naive_check_quasiidentity(q, alg)
        assert result.witness == witness


def test_check_with_predicates_in_premises_and_conclusion():
    mul = tuple(min(a, b) for a in range(4) for b in range(4))
    preorder = tuple(a // 2 <= b // 2 for a in range(4) for b in range(4))
    # 0 -> 1 -> 2 -> 3 and every loop, not transitive
    steps = tuple(b - a in (0, 1) for a in range(4) for b in range(4))
    transitive = parse_quasiidentity(
        "leq(x0, x1) & leq(x1, x2) => leq(x0, x2)", PRED_SIG)
    antisymmetric = parse_quasiidentity(
        "leq(x0, x1) & leq(x1, mul(x0, x0)) => x0 = x1", PRED_SIG)
    for leq, witnesses in ((preorder, (None, (0, 1))),
                           (steps, ((0, 1, 2), None))):
        alg = FiniteAlgebra(PRED_SIG, 4, {"mul": mul, "e": (0,)},
                            {"leq": leq})
        for q, witness in zip((transitive, antisymmetric), witnesses):
            result = check_quasiidentity(q, alg)
            assert result == naive_check_quasiidentity(q, alg)
            assert result.witness == witness


def test_check_over_17_elements_indexes_past_255():
    # addition mod 17 but for one cell at flat index 16 * 17 + 15 = 287
    n = 17
    add = [(a + b) % n for a in range(n) for b in range(n)]
    add[16 * n + 15] = 0
    alg = FiniteAlgebra(GROUPOID_SIG, n, {"mul": tuple(add)})
    for text, witness in (("mul(x0, x1) = mul(x1, x0)", (15, 16)),
                          ("mul(mul(x0, x1), x2) = mul(x0, mul(x1, x2))",
                           (1, 15, 15))):
        q = parse_quasiidentity(text, GROUPOID_SIG)
        result = check_quasiidentity(q, alg)
        assert result == naive_check_quasiidentity(q, alg)
        assert result.witness == witness
    mul = compile_evaluator(parse_term("mul(x0, x1)", GROUPOID_SIG), alg, 2)
    assert list(mul(assignment_columns(n, 2))) == add
    assert list(mul([16, tuple(range(n))])) == add[16 * n:]


def test_check_finds_a_witness_in_a_late_block():
    # addition mod 12 and a copy of it that differs at (11, 5)
    n = 12
    add = tuple((a + b) % n for a in range(n) for b in range(n))
    sig = Signature(ops=(("add", 2), ("mul", 2)))
    alg = FiniteAlgebra(sig, n, {"add": add, "mul": add[:11 * n + 5] + (0,)
                                 + add[11 * n + 6:]})
    q = parse_quasiidentity(
        "add(mul(x0, x3), add(x1, add(x2, x4)))"
        " = add(add(x0, x3), add(x1, add(x2, x4)))", sig)
    result = check_quasiidentity(q, alg)
    assert result == CheckResult(False, (11, 0, 0, 5, 0))
    # the witness sits 11 * 12**4 + 5 * 12 assignments into the scan
    assert 11 * n**4 + 5 * n > terms_module._BLOCK_CAP
    with mock.patch.object(terms_module, "_BLOCK_CAP", 100):
        assert check_quasiidentity(q, alg) == result


def test_satisfaction_mask_matches_the_interpreter(chain3):
    relations = [parse_formula("meet(x0, x1) = x0", MEET_SIG),
                 parse_formula("meet(x1, x2) = x1", MEET_SIG)]
    mask = satisfaction_mask(relations, chain3, 3)
    assert mask == [
        all(eval_formula(r, a, chain3) for r in relations)
        for a in product(range(3), repeat=3)]
    assert satisfaction_mask([], chain3, 0) == [True]


def test_term_key_orders_by_size_first():
    sig = MEET_SIG
    small = Var(0)
    big = App("meet", (Var(0), Var(1)))
    assert term_key(small, sig) < term_key(big, sig)
    assert term_key(small, sig)[0] == 1
    assert term_key(big, sig)[0] == 3
    assert term_key(Var(0), sig) < term_key(Var(1), sig)
