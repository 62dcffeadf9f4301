"""Free and presented algebras, replicas, and class membership."""

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (App, Equation, FiniteAlgebra, Signature, extend_assignment,
                       find_homomorphisms, find_isomorphism, free_algebra,
                       generate_subalgebra, is_homomorphism,
                       membership_in_closure, parse_formula,
                       presented_algebra, replica, unitary_system,
                       verify_universal_property)
from malcevlab.errors import (AlgebraMismatch, MalcevLabError,
                              SignatureMismatch, SizeBound, SizeOverflow,
                              TrivialClassRankConflict)

from conftest import (GROUP_SIG, MEET_SIG, chain_semilattice, cyclic_group,
                      formulas, klein_group, signatures, systems)
from oracles_local import (naive_membership_in_closure,
                           naive_presented_algebra, naive_replica)

PRED_SIG = Signature(ops=(("meet", 2),), preds=(("leq", 2),))


def ordered_chain(n: int) -> FiniteAlgebra:
    meet = tuple(min(a, b) for a in range(n) for b in range(n))
    leq = tuple(a <= b for a in range(n) for b in range(n))
    return FiniteAlgebra(PRED_SIG, n, {"meet": meet}, {"leq": leq})


def test_free_boolean_group_doubles_per_generator(z2):
    for rank, want in ((1, 2), (2, 4), (3, 8)):
        fr = free_algebra([z2], rank)
        assert fr.algebra.size == want


def test_free_semilattice_on_two_generators_has_three_elements(chain2):
    fr = free_algebra([chain2], 2)
    # x, y, and x meet y
    assert fr.algebra.size == 3


def test_free_generators_are_separated(z2):
    fr = free_algebra([z2], 2)
    images = fr.generator_images
    assert len(set(images)) == 2


def test_free_algebra_universal_property(z2, klein):
    fr = free_algebra([z2], 2)
    report = verify_universal_property(fr, [z2, klein])
    assert report.holds
    assert report.targets_checked == 2
    # every pair of target elements is hit by exactly one extension
    assert report.assignments_checked == 4 + 16


def test_universal_property_fails_outside_the_class(z2, z3):
    fr = free_algebra([z2], 2)
    report = verify_universal_property(fr, [z3])
    assert not report.holds
    assert report.failures


def test_extend_assignment_matches_hom_search(z2, klein):
    fr = free_algebra([z2], 2)
    for images in product(range(klein.size), repeat=2):
        phi = extend_assignment(fr, klein, images)
        assert is_homomorphism(phi, fr.algebra, klein)
        assert tuple(phi[g] for g in fr.generator_images) == images


def test_presented_collapse_to_quotient(z2):
    rel = parse_formula("mul(x0, x1) = e", GROUP_SIG)
    fr = presented_algebra([z2], 2, [rel])
    # x1 is forced to be the inverse of x0, so one generator suffices
    assert fr.algebra.size == 2
    gen0, gen1 = fr.generator_images
    assert fr.algebra.op_value("mul", (gen0, gen1)) == \
        fr.algebra.op_value("e", ())


def test_presentation_forcing_the_unit_gives_a_one_element_algebra():
    # in Z3 only x0 = 0 is idempotent, so a single factor survives and
    # the presented algebra collapses to one element
    fr = presented_algebra([cyclic_group(3)], 1,
                           [parse_formula("mul(x0, x0) = x0", GROUP_SIG)])
    assert fr.algebra.size == 1
    assert len(fr.factors) == 1


def test_presented_algebra_rejects_overlong_rank_on_unitary_generators():
    one = unitary_system(GROUP_SIG)
    with pytest.raises(TrivialClassRankConflict):
        free_algebra([one], 2)


def test_free_algebra_size_bound(z2):
    with pytest.raises((SizeBound, SizeOverflow)):
        free_algebra([z2], 4, size_bound=10)


def test_free_algebra_width_bound(z2):
    with pytest.raises(SizeOverflow):
        free_algebra([z2], 2, size_bound=3)


def test_free_algebra_rank_bound():
    # one element with a false predicate: one assignment tuple at any
    # rank, but no rank above the size bound
    one = FiniteAlgebra(Signature((), (("p", 1),)), 1, {}, {"p": (False,)})
    assert free_algebra([one], 10, size_bound=10).algebra.size == 1
    with pytest.raises(SizeOverflow, match="^rank 11 exceeds the size"):
        free_algebra([one], 11, size_bound=10)


def test_free_algebra_needs_matching_signatures(z2, chain2):
    with pytest.raises(AlgebraMismatch):
        free_algebra([z2, chain2], 1)


def test_free_rank_zero_over_groups_is_the_trivial_group(z2):
    fr = free_algebra([z2], 0)
    assert fr.algebra.size == 1


def test_permuting_generator_order_gives_isomorphic_free_algebras(z2, klein):
    fr_a = free_algebra([z2, klein], 2)
    fr_b = free_algebra([klein, z2], 2)
    assert fr_a.algebra.size == fr_b.algebra.size
    assert find_isomorphism(fr_a.algebra, fr_b.algebra) is not None


def test_dropping_a_generator_loses_the_free_algebra(z2):
    fr = free_algebra([z2], 2)
    full = set(range(fr.algebra.size))
    partial = set(generate_subalgebra(fr.algebra, [fr.generator_images[0]]))
    assert partial < full


def test_replica_of_a_chain_in_the_two_chain_class(chain2, chain3):
    rep = replica([chain2], chain3)
    assert rep.algebra.size == 3
    assert rep.hom_count == 4
    assert sorted(set(rep.canonical_map)) == list(range(rep.algebra.size))
    assert is_homomorphism(rep.canonical_map, chain3, rep.algebra)
    assert find_isomorphism(rep.algebra, chain3) is not None


def test_replica_collapses_what_homomorphisms_cannot_see(chain2):
    # constant operation: every hom into the chain is constant
    flat = FiniteAlgebra(MEET_SIG, 2, {"meet": (0, 0, 0, 0)})
    rep = replica([chain2], flat)
    assert rep.algebra.size == 1
    assert rep.canonical_map == (0, 0)


def test_replica_predicates_are_exactly_the_reflected_ones():
    c2 = ordered_chain(2)
    diag = FiniteAlgebra(PRED_SIG, 2, dict(c2.op_tables),
                         {"leq": (True, False, False, True)})
    rep = replica([c2], diag)
    assert rep.algebra.size == 2
    a, b = rep.canonical_map
    # every hom into the ordered chain satisfies leq(h(0), h(1)), so the
    # replica carries the predicate the source lacked
    assert rep.algebra.pred_value("leq", (a, b))


def test_membership_accepts_class_members(chain2, chain3):
    report = membership_in_closure([chain2], chain3)
    assert report.member
    assert report.witness is None


def test_membership_rejects_unseparated_candidates(chain2):
    flat = FiniteAlgebra(MEET_SIG, 2, {"meet": (0, 0, 0, 0)})
    report = membership_in_closure([chain2], flat)
    assert not report.member
    assert report.witness == ("unseparated", 0, 1)


def test_membership_rejects_forced_predicates():
    c2 = ordered_chain(2)
    diag = FiniteAlgebra(PRED_SIG, 2, dict(c2.op_tables),
                         {"leq": (True, False, False, True)})
    report = membership_in_closure([c2], diag)
    assert not report.member
    assert report.witness == ("forced_predicate", "leq", (0, 1))


def test_membership_is_consistent_with_replica_injectivity_seeded():
    rng = random.Random(2718)
    generators = [chain_semilattice(2)]
    for _ in range(30):
        size = rng.randint(1, 3)
        meet = tuple(rng.randrange(size) for _ in range(size * size))
        try:
            cand = FiniteAlgebra(MEET_SIG, size, {"meet": meet})
        except ValueError:
            continue
        report = membership_in_closure(generators, cand)
        rep = replica(generators, cand)
        injective = len(set(rep.canonical_map)) == cand.size
        assert report.member == injective


def test_membership_requires_shared_signature(z2, chain2):
    with pytest.raises(AlgebraMismatch):
        membership_in_closure([z2], chain2)


def test_every_member_embeds_via_its_replica(chain2, chain3):
    rep = replica([chain2], chain3)
    # injective canonical map realizes the embedding claimed by member
    assert len(set(rep.canonical_map)) == chain3.size


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replica_and_membership_match_the_tuple_by_tuple_oracles(data):
    """The replica and the membership verdict and witness, with a
    candidate drawn at random or as a generator with some predicate
    tuples switched off, so that forced predicates occur."""
    sig = data.draw(signatures(max_arity=3))
    generators = data.draw(st.lists(systems(sig), min_size=1, max_size=2))
    if data.draw(st.booleans()):
        source = data.draw(systems(sig))
    else:
        g = data.draw(st.sampled_from(generators))
        source = FiniteAlgebra(sig, g.size, g.op_tables, {
            name: tuple(v and data.draw(st.booleans()) for v in table)
            for name, table in g.pred_tables.items()})
    assert replica(generators, source) == naive_replica(generators, source)
    assert membership_in_closure(generators, source) == \
        naive_membership_in_closure(generators, source)


def outcome(construct, *args, **kwargs):
    """The construction's fields, or the type and message of its error."""
    try:
        fr = construct(*args, **kwargs)
    except (MalcevLabError, ValueError) as exc:
        return type(exc), str(exc)
    return (fr.elements, fr.steps, fr.factors, fr.generator_images,
            fr.algebra.size, fr.algebra.op_tables, fr.algebra.pred_tables)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_presented_algebra_matches_the_two_pass_oracle(data):
    sig = data.draw(signatures())
    generators = data.draw(st.lists(systems(sig), min_size=1, max_size=2))
    # rank 0 needs a constant to generate anything
    rank = data.draw(st.integers(
        0 if any(a == 0 for _, a in sig.ops) else 1, 3))
    relations = data.draw(st.lists(formulas(sig, rank), max_size=2))
    want = outcome(naive_presented_algebra, generators, rank, relations,
                   size_bound=60)
    got = outcome(presented_algebra, generators, rank, relations,
                  size_bound=60)
    assert got == want


def test_presented_algebra_matches_the_oracle_on_known_classes():
    cases = [([cyclic_group(2)], 6), ([cyclic_group(3)], 3),
             ([chain_semilattice(2)], 5), ([ordered_chain(3)], 2)]
    for generators, rank in cases:
        assert outcome(free_algebra, generators, rank) == \
            outcome(naive_presented_algebra, generators, rank, ())


def test_presented_algebra_matches_the_oracle_on_ternary_symbols_seeded():
    # arity 3 takes the flat_index path of the row binder
    sig = Signature(ops=(("m", 3), ("s", 1)), preds=(("r", 3),))
    rng = random.Random(3003)
    for _ in range(20):
        generators = []
        for _ in range(rng.randint(1, 2)):
            n = rng.randint(1, 3)
            generators.append(FiniteAlgebra(
                sig, n,
                {"m": tuple(rng.randrange(n) for _ in range(n**3)),
                 "s": tuple(rng.randrange(n) for _ in range(n))},
                {"r": tuple(rng.random() < 0.7 for _ in range(n**3))}))
        rank = rng.randint(1, 2)
        assert outcome(presented_algebra, generators, rank, (),
                       size_bound=40) == \
            outcome(naive_presented_algebra, generators, rank, (),
                    size_bound=40)


def test_relation_naming_a_missing_operation_is_rejected(z2):
    rel = Equation(App("g", (App("e"),)), App("e"))
    with pytest.raises(SignatureMismatch, match="no operation 'g'"):
        presented_algebra([z2], 1, [rel])
