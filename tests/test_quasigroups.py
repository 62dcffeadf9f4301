"""Latin squares, equational quasigroups, and division-based polynomials."""

import random

import pytest

from malcevlab import (QUASIGROUP_SIGNATURE, composition_closure,
                       equasigroup_from_latin, eval_term, latin_square,
                       malcev_polynomial, multiplication_group, parse_term,
                       print_term, rectification_check, to_algebra)
from malcevlab import quasigroups
from malcevlab.cli import _closed_under_generators, main
from malcevlab.errors import (FlavorMismatch, NoRightUnit, NotLatin,
                              SearchBudgetExceeded)
from malcevlab.fileformat import save_algebra
from malcevlab.quasigroups import malcev_identities_hold

from conftest import (UNIT_FREE_ROWS, all_latin_squares, random_square)
from oracles_local import naive_composition_closure


def q_from(rows):
    return equasigroup_from_latin(latin_square(rows))


def z_n_rows(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def test_latin_square_validation_positions():
    with pytest.raises(NotLatin) as info:
        latin_square([[0, 1], [0, 1]])
    assert (info.value.row, info.value.column) == (1, 0)
    with pytest.raises(NotLatin) as info:
        latin_square([[0, 0], [1, 1]])
    assert (info.value.row, info.value.column) == (0, 1)
    with pytest.raises(NotLatin):
        latin_square([[0, 1], [1]])
    with pytest.raises(NotLatin):
        latin_square([[0, 2], [2, 0]])
    with pytest.raises(NotLatin):
        latin_square([])


def test_division_tables_solve_the_equations_seeded():
    rng = random.Random(11)
    squares = [z_n_rows(3), UNIT_FREE_ROWS]
    squares += [random_square(rng, n) for n in (4, 5, 6) for _ in range(5)]
    for rows in squares:
        q = q_from(rows)
        n = q.size
        for a in range(n):
            for b in range(n):
                ab = q.mul[a * n + b]
                # four division laws
                assert q.ldiv[a * n + ab] == b
                assert q.rdiv[ab * n + b] == a
                assert q.mul[a * n + q.ldiv[a * n + b]] == b
                assert q.mul[q.rdiv[a * n + b] * n + b] == a


def test_unit_detection():
    z3 = q_from(z_n_rows(3))
    assert z3.left_unit == 0 and z3.right_unit == 0
    assert z3.two_sided_unit == 0
    free = q_from(UNIT_FREE_ROWS)
    assert free.left_unit is None and free.right_unit is None
    assert free.two_sided_unit is None
    # a square with a right unit but no left unit
    rows = ((0, 2, 1), (1, 0, 2), (2, 1, 0))
    q = q_from(rows)
    assert q.right_unit == 0
    assert q.left_unit is None


def test_to_algebra_flavors():
    q = q_from(z_n_rows(3))
    groupoid = to_algebra(q, "groupoid")
    assert [name for name, _ in groupoid.sig.ops] == ["mul"]
    full = to_algebra(q, "quasigroup")
    assert full.sig == QUASIGROUP_SIGNATURE
    eloop = to_algebra(q, "right_eloop")
    assert eloop.op_value("e", ()) == 0
    with pytest.raises(NoRightUnit):
        to_algebra(q_from(UNIT_FREE_ROWS), "right_eloop")
    with pytest.raises(FlavorMismatch):
        to_algebra(q_from(UNIT_FREE_ROWS), "left_eloop")
    with pytest.raises(FlavorMismatch):
        to_algebra(q, "loop_with_extras")


def test_multiplication_group_matches_naive_closure_seeded():
    rng = random.Random(23)
    for n in (3, 4, 5):
        for _ in range(4):
            rows = random_square(rng, n)
            q = q_from(rows)
            for side in ("left", "right", "both"):
                grp = multiplication_group(q, side=side)
                gens = set(grp.generators)
                if side in ("left", "both"):
                    assert all(tuple(rows[a][b] for b in range(n)) in gens
                               for a in range(n))
                if side in ("right", "both"):
                    assert all(tuple(rows[a][b] for a in range(n)) in gens
                               for b in range(n))
                assert grp.closure == naive_composition_closure(
                    grp.generators, n)
                assert grp.transitive


def test_multiplication_groups_match_naive_closure_on_all_order_four():
    squares = all_latin_squares(4)
    assert len(squares) == 576
    for rows in squares:
        q = q_from(rows)
        for side in ("left", "right", "both"):
            grp = multiplication_group(q, side=side)
            assert grp.closure == naive_composition_closure(grp.generators, 4)


def test_closure_check_rejects_a_group_missing_one_element():
    grp = multiplication_group(q_from(UNIT_FREE_ROWS), side="both")
    assert len(grp.closure) == 6
    assert _closed_under_generators(grp.closure, grp.generators)
    for missing in grp.closure:
        assert not _closed_under_generators(grp.closure - {missing},
                                            grp.generators)


def test_closure_budget_stops_the_group_and_is_exit_three(
        monkeypatch, tmp_path, capsys):
    # every multiplication group of this order-5 square is S5, 120 maps
    q = q_from(random_square(random.Random(7), 5))
    generators = multiplication_group(q, side="left").generators
    monkeypatch.setattr(quasigroups, "CLOSURE_BUDGET", 120)
    assert len(composition_closure(generators, 5)) == 120
    monkeypatch.setattr(quasigroups, "CLOSURE_BUDGET", 100)
    with pytest.raises(SearchBudgetExceeded,
                       match="^composition closure exceeds its budget of "
                             "100 maps with 1\\d\\d maps$"):
        multiplication_group(q, side="both")
    path = str(tmp_path / "s5.alg")
    save_algebra(to_algebra(q), path)
    for argv in (["quasigroup", "mulgroup", path, "--side", "left"],
                 ["translations", path]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: composition closure exceeds its "
                              "budget of 100 maps")
        assert err.count("\n") == 1


def test_multiplication_group_of_cyclic_table_is_regular():
    q = q_from(z_n_rows(5))
    grp = multiplication_group(q, side="left")
    assert len(grp.closure) == 5
    assert grp.transitive


def test_multiplication_groups_act_transitively_on_all_order_four():
    for rows in all_latin_squares(4):
        q = q_from(rows)
        assert multiplication_group(q, side="left").transitive
        assert multiplication_group(q, side="right").transitive


def check_anchored_malcev(q, term):
    alg = to_algebra(q, "quasigroup")
    n = q.size
    for anchor in range(n):
        for x in range(n):
            for z in range(n):
                assert eval_term(term, (x, x, z, anchor), alg) == z
                assert eval_term(term, (x, z, z, anchor), alg) == x


def test_malcev_polynomial_shape_and_universality():
    q = q_from(z_n_rows(3))
    term = malcev_polynomial(q)
    assert print_term(term) == "rdiv(mul(x0, ldiv(x1, x3)), ldiv(x2, x3))"
    check_anchored_malcev(q, term)


def test_malcev_polynomial_on_every_square_up_to_order_four():
    for n in (1, 2, 3, 4):
        for rows in all_latin_squares(n):
            q = q_from(rows)
            check_anchored_malcev(q, malcev_polynomial(q))


def test_malcev_polynomial_on_seeded_larger_squares():
    rng = random.Random(97)
    for n in (5, 6):
        for _ in range(5):
            q = q_from(random_square(rng, n))
            check_anchored_malcev(q, malcev_polynomial(q))


def test_every_anchor_check_matches_one_check_per_anchor(monkeypatch):
    # with ldiv(x2, mul(x3, x3)) the identities hold at anchor a iff
    # a * a = a; the wrong variants below fail at scattered (x, z, a).
    # malcev_polynomial, made to check one of these terms instead of its
    # own, must reject a square exactly when some anchor fails
    idem = parse_term("rdiv(mul(x0, ldiv(x1, x3)), ldiv(x2, mul(x3, x3)))",
                      QUASIGROUP_SIGNATURE)
    wrong = [parse_term(text, QUASIGROUP_SIGNATURE) for text in (
        "mul(mul(x0, ldiv(x1, x3)), ldiv(x3, x2))",
        "ldiv(mul(x0, rdiv(x3, x1)), rdiv(x3, x2))")]

    def rejects(q, checked):
        monkeypatch.setattr(
            quasigroups, "malcev_identities_hold",
            lambda alg, term, anchor=None: malcev_identities_hold(
                alg, checked, anchor))
        try:
            malcev_polynomial(q)
        except AssertionError:
            return True
        finally:
            monkeypatch.undo()
        return False

    seen = set()
    for n in (3, 4):
        for rows in all_latin_squares(n):
            q = q_from(rows)
            alg = to_algebra(q, "quasigroup")
            idempotent = [rows[a][a] == a for a in range(n)]
            assert [malcev_identities_hold(alg, idem, a)
                    for a in range(n)] == idempotent
            assert rejects(q, idem) == (not all(idempotent))
            seen.add(tuple(idempotent))
            for term in wrong:
                assert rejects(q, term) == (not all(
                    malcev_identities_hold(alg, term, a) for a in range(n)))
    assert (False,) * 3 + (True,) in seen and (True,) * 4 in seen


# The obvious-looking alternatives fail; these squares witness it and
# guard against regressing to either form.
WRONG_OUTER_MUL = ((0, 1, 2, 3), (1, 2, 3, 0), (3, 0, 1, 2), (2, 3, 0, 1))
WRONG_MIRRORED = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))


def test_outer_mul_variant_is_not_a_malcev_polynomial():
    q = q_from(WRONG_OUTER_MUL)
    alg = to_algebra(q, "quasigroup")
    wrong = parse_term("mul(mul(x0, ldiv(x1, x3)), ldiv(x3, x2))",
                       QUASIGROUP_SIGNATURE)
    # fails the second identity at anchor 0 with x = 0, z = 1
    assert eval_term(wrong, (0, 1, 1, 0), alg) != 0


def test_mirrored_division_variant_is_not_a_malcev_polynomial():
    alg = to_algebra(q_from(WRONG_MIRRORED), "quasigroup")
    wrong = parse_term("ldiv(mul(x0, rdiv(x3, x1)), rdiv(x3, x2))",
                       QUASIGROUP_SIGNATURE)
    # fails the first identity at anchor 0 with x = 0, z = 2
    assert eval_term(wrong, (0, 0, 2, 0), alg) != 2
    # and it even fails on the cyclic group of order four
    z4 = to_algebra(q_from(z_n_rows(4)), "quasigroup")
    assert eval_term(wrong, (0, 0, 1, 0), z4) == 3


def test_right_eloop_polynomial():
    rows = ((0, 2, 1), (1, 0, 2), (2, 1, 0))  # right unit 0
    q = q_from(rows)
    term = malcev_polynomial(q, flavor="right_eloop")
    assert print_term(term) == "mul(x0, ldiv(x1, x2))"
    alg = to_algebra(q, "quasigroup")
    for x in range(3):
        for z in range(3):
            assert eval_term(term, (x, x, z), alg) == z
            assert eval_term(term, (x, z, z), alg) == x
    with pytest.raises(NoRightUnit):
        malcev_polynomial(q_from(UNIT_FREE_ROWS), flavor="right_eloop")


def test_left_eloop_polynomial():
    q = q_from(z_n_rows(4))
    term = malcev_polynomial(q, flavor="left_eloop")
    assert print_term(term) == "mul(rdiv(x0, x1), x2)"
    alg = to_algebra(q, "quasigroup")
    for x in range(4):
        for z in range(4):
            assert eval_term(term, (x, x, z), alg) == z
            assert eval_term(term, (x, z, z), alg) == x
    with pytest.raises(FlavorMismatch):
        malcev_polynomial(q_from(UNIT_FREE_ROWS), flavor="left_eloop")


def test_malcev_polynomial_rejects_unknown_flavor():
    with pytest.raises(FlavorMismatch):
        malcev_polynomial(q_from(z_n_rows(3)), flavor="mystery")


def test_rectification_round_trip():
    q = q_from(z_n_rows(4))
    report = rectification_check(q)
    assert report.holds
    assert report.unit == 0
    assert report.forward_then_back and report.back_then_forward
    assert report.keeps_first and report.diagonal_to_unit


def test_rectification_on_every_unital_square_of_order_four():
    checked = 0
    for rows in all_latin_squares(4):
        q = q_from(rows)
        if q.right_unit is None:
            continue
        assert rectification_check(q).holds
        checked += 1
    assert checked > 0


def test_rectification_requires_a_right_unit():
    with pytest.raises(NoRightUnit):
        rectification_check(q_from(UNIT_FREE_ROWS))
