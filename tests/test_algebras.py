"""Finite systems: products, subalgebras, homomorphisms, isomorphisms."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (FiniteAlgebra, Signature, algebra_from_nested,
                       direct_product, find_homomorphisms, find_isomorphism,
                       flat_index, generate_subalgebra, is_homomorphism,
                       is_strong_homomorphism, is_unitary, kernel,
                       product_decode, product_encode, subalgebra_as_algebra,
                       unitary_system)
from malcevlab.algebras import (Subpower, _generating_sequence,
                                _image_positions)
from malcevlab.errors import (EmptyUngeneratable, MalcevLabError,
                              NotAHomomorphism, SearchBudgetExceeded,
                              SizeOverflow)

from conftest import (GROUP_SIG, MEET_SIG, chain_semilattice, cyclic_group,
                      klein_group, random_algebra, signatures,
                      symmetric_group_3, systems)
from oracles_local import (naive_direct_product, naive_find_homomorphisms,
                           naive_find_isomorphism, naive_generate_subalgebra,
                           naive_generating_sequence, naive_image_positions,
                           naive_is_homomorphism, naive_subalgebra_as_algebra)

PRED_SIG = Signature(ops=(("meet", 2),), preds=(("leq", 2),))


def ordered_chain(n: int) -> FiniteAlgebra:
    meet = tuple(min(a, b) for a in range(n) for b in range(n))
    leq = tuple(a <= b for a in range(n) for b in range(n))
    return FiniteAlgebra(PRED_SIG, n, {"meet": meet}, {"leq": leq})


def test_flat_index_is_row_major_most_significant_first():
    assert flat_index((0, 0), 3) == 0
    assert flat_index((0, 1), 3) == 1
    assert flat_index((1, 0), 3) == 3
    assert flat_index((2, 1), 3) == 7
    assert flat_index((1, 0, 2), 3) == 11
    assert flat_index((), 5) == 0


def test_encode_decode_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(100):
        sizes = tuple(rng.randint(1, 5) for _ in range(rng.randint(1, 4)))
        coords = tuple(rng.randrange(s) for s in sizes)
        idx = product_encode(coords, sizes)
        assert product_decode(idx, sizes) == coords


def test_table_validation_rejects_bad_tables():
    with pytest.raises(ValueError):
        FiniteAlgebra(MEET_SIG, 2, {"meet": (0, 0, 0)})
    with pytest.raises(ValueError):
        FiniteAlgebra(MEET_SIG, 2, {"meet": (0, 0, 0, 2)})
    with pytest.raises(ValueError):
        FiniteAlgebra(MEET_SIG, 2, {})


def test_direct_product_is_pointwise(z2, z3):
    prod = direct_product([z2, z3])
    assert prod.size == 6
    for a in range(6):
        for b in range(6):
            ca, cb = product_decode(a, (2, 3)), product_decode(b, (2, 3))
            want = product_encode(
                (z2.op_value("mul", (ca[0], cb[0])),
                 z3.op_value("mul", (ca[1], cb[1]))), (2, 3))
            assert prod.op_value("mul", (a, b)) == want


def test_direct_product_predicates_are_conjunctions():
    c2 = ordered_chain(2)
    prod = direct_product([c2, c2])
    for a in range(4):
        for b in range(4):
            ca, cb = product_decode(a, (2, 2)), product_decode(b, (2, 2))
            want = (ca[0] <= cb[0]) and (ca[1] <= cb[1])
            assert prod.pred_value("leq", (a, b)) == want


def test_direct_product_empty_family_needs_a_signature():
    with pytest.raises(ValueError):
        direct_product([])
    one = unitary_system(PRED_SIG)
    assert one.size == 1
    assert one.pred_value("leq", (0, 0))


def test_direct_product_size_bound():
    z10 = cyclic_group(10)
    with pytest.raises(SizeOverflow):
        direct_product([z10] * 7)


@st.composite
def families(draw):
    """One to three systems over one signature drawn by signatures(),
    their product at most 16 elements."""
    sig = draw(signatures(max_arity=3))
    count = draw(st.integers(1, 3))
    return [draw(systems(sig, max_size=(4, 4, 2)[count - 1]))
            for _ in range(count)]


@settings(max_examples=150, deadline=None)
@given(families())
def test_direct_product_matches_the_tuple_by_tuple_product(factors):
    assert direct_product(factors) == naive_direct_product(factors)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4), st.integers(1, 5), st.data())
def test_image_positions_match_one_weighted_sum_per_tuple(arity, size, data):
    phi = data.draw(st.lists(st.integers(0, size - 1), max_size=4))
    assert (list(_image_positions(phi, arity, size))
            == list(naive_image_positions(phi, arity, size)))


def test_generate_subalgebra_known_values(z6):
    assert generate_subalgebra(z6, [2]) == [0, 2, 4]
    assert generate_subalgebra(z6, []) == [0]
    assert generate_subalgebra(z6, [1]) == [0, 1, 2, 3, 4, 5]


def test_generate_subalgebra_needs_seed_or_constants():
    alg = chain_semilattice(3)
    with pytest.raises(EmptyUngeneratable):
        generate_subalgebra(alg, [])


def step_operator(alg, current: set) -> set:
    out = set(current)
    for name, arity in alg.sig.ops:
        for combo in product(sorted(current), repeat=arity):
            out.add(alg.op_value(name, combo))
    return out


def test_generate_subalgebra_is_a_closure_operator_seeded():
    rng = random.Random(31337)
    for _ in range(120):
        alg = random_algebra(rng)
        seed = sorted(rng.sample(range(alg.size),
                                 rng.randint(0, alg.size)))
        if not seed and not alg.constants():
            continue
        got = generate_subalgebra(alg, seed)
        # extensive and closed
        assert set(seed) <= set(got)
        assert step_operator(alg, set(got)) == set(got)
        # idempotent
        assert generate_subalgebra(alg, got) == got
        # least: iterating the one-step operator from the seed reaches it
        current = set(seed) | set(alg.constants())
        for _ in range(alg.size):
            nxt = step_operator(alg, current)
            if nxt == current:
                break
            current = nxt
        assert sorted(current) == got


def outcome(fn, *args):
    """The function's result, or the type and message of its error."""
    try:
        return fn(*args)
    except (MalcevLabError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generate_subalgebra_matches_the_naive_chain(data):
    alg = data.draw(systems(data.draw(signatures(max_arity=3))))
    seed = data.draw(st.lists(st.integers(-1, alg.size), max_size=3))
    assert outcome(generate_subalgebra, alg, seed) == \
        outcome(naive_generate_subalgebra, alg, seed)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_generating_sequence_matches_the_naive_closure(data):
    alg = data.draw(systems(data.draw(signatures(max_arity=3))))
    gens, steps = _generating_sequence(alg)
    assert gens == naive_generating_sequence(alg)[0]
    assert sorted(x for x, _ in steps) == list(range(alg.size))
    derived = set()
    for x, how in steps:
        if how[0] == "gen":
            assert x == gens[how[1]]
        elif how[0] == "const":
            assert x == alg.op_tables[how[1]][0]
        else:
            _, name, args = how
            assert set(args) <= derived
            assert alg.op_value(name, args) == x
        derived.add(x)


MIXED_SIG = Signature(ops=(("mul", 2), ("neg", 1), ("maj", 3), ("one", 0)))
MIXED_Z2 = FiniteAlgebra(MIXED_SIG, 2, {
    "mul": tuple((a + b) % 2 for a, b in product(range(2), repeat=2)),
    "neg": (1, 0),
    "maj": tuple(sum(t) % 2 for t in product(range(2), repeat=3)),
    "one": (1,)})
MIXED_CHAIN = FiniteAlgebra(MIXED_SIG, 2, {
    "mul": tuple(min(a, b) for a, b in product(range(2), repeat=2)),
    "neg": (1, 0),
    "maj": tuple(int(sum(t) >= 2) for t in product(range(2), repeat=3)),
    "one": (1,)})


def subpower_operations(sub):
    """Each operation of a closed Subpower as a map on element tuples."""
    tables = sub.op_tables()
    n = len(sub.elements)
    return {(name, tuple(sub.elements[a] for a in args)):
            sub.elements[tables[name][flat_index(args, n)]]
            for name, arity in MIXED_SIG.ops
            for args in product(range(n), repeat=arity)}


def test_subpower_tables_agree_with_distinct_factors_coordinatewise():
    algebras, coords = [MIXED_Z2, MIXED_CHAIN], [0, 1, 1]
    seeds = [(0, 0, 0), (1, 0, 1)]
    sub = Subpower(algebras, coords, seeds, 100)
    sub.close()
    assert sub.seeds == [0, 1]
    for (name, args), value in subpower_operations(sub).items():
        assert value == tuple(
            algebras[k].op_value(name, [x[c] for x in args])
            for c, k in enumerate(coords))

    late = Subpower(algebras, coords, seeds[:1], 100)
    late.close()
    assert seeds[1] not in late.index
    late.add_seed(seeds[1])
    late.close()
    assert set(late.elements) == set(sub.elements)
    assert subpower_operations(late) == subpower_operations(sub)


def test_subalgebra_as_algebra_restricts_tables(z6):
    sub = subalgebra_as_algebra(z6, [0, 2, 4])
    assert sub.size == 3
    # 2 * 4 = 0 in Z6; positions 1 and 2 multiply to position 0
    assert sub.op_value("mul", (1, 2)) == 0
    iso = find_isomorphism(sub, cyclic_group(3))
    assert iso is not None


@pytest.mark.parametrize("carrier, message", [
    ([0, 3, 3], "element 3 listed twice"),
    ([0, -3], "element -3 outside"),
    ([0, 6], "element 6 outside")])
def test_subalgebra_as_algebra_rejects_bad_carriers(z6, carrier, message):
    with pytest.raises(ValueError, match=message):
        subalgebra_as_algebra(z6, carrier)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_subalgebra_as_algebra_matches_the_tuple_by_tuple_restriction(data):
    """On subuniverses in any order, and on random sets of distinct
    elements, mostly not closed."""
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    elements = st.integers(0, alg.size - 1)
    seed = data.draw(st.lists(elements, min_size=1, unique=True))
    carrier = data.draw(st.permutations(generate_subalgebra(alg, seed))
                        | st.lists(elements, unique=True))
    assert outcome(subalgebra_as_algebra, alg, carrier) == \
        outcome(naive_subalgebra_as_algebra, alg, carrier)


def test_is_homomorphism_hand_cases(z4, z2):
    assert is_homomorphism((0, 1, 0, 1), z4, z2)
    assert not is_homomorphism((0, 1, 1, 0), z4, z2)
    assert is_strong_homomorphism((0, 1, 0, 1), z4, z2)
    # constant map preserves ops but is not surjective, hence not strong
    assert is_homomorphism((0, 0, 0, 0), z4, z2)
    assert not is_strong_homomorphism((0, 0, 0, 0), z4, z2)


UNARY_PRED_SIG = Signature(ops=(), preds=(("p", 1),))


@pytest.mark.parametrize("phi", [(-1,), (2,)])
def test_is_homomorphism_rejects_images_outside_the_target(phi):
    """-1 would index b's tables from the end and 2 past it."""
    a = FiniteAlgebra(UNARY_PRED_SIG, 1, {}, {"p": (True,)})
    b = FiniteAlgebra(UNARY_PRED_SIG, 2, {}, {"p": (False, True)})
    assert not is_homomorphism(phi, a, b)
    assert not is_strong_homomorphism(phi, a, b)
    with pytest.raises(NotAHomomorphism):
        kernel(phi, a, b)


def test_algebra_from_nested_flattens_every_arity():
    """A symbol of arity k is k levels of lists, indexed by its
    arguments in order; operations become ints, predicates bools."""
    sig = Signature(ops=(("c", 0), ("u", 1), ("m", 2), ("t", 3)),
                    preds=(("p0", 0), ("p1", 1), ("p2", 2), ("p3", 3)))
    n = 3

    def op(*args):
        return (sum(i * v for i, v in enumerate(args, 1)) + 1) % n

    def pred(*args):
        return op(*args) == 0

    def nested(f, arity, wrap, prefix=()):
        if arity == len(prefix):
            return wrap(f(*prefix))
        return [nested(f, arity, wrap, prefix + (x,)) for x in range(n)]

    ops = {name: nested(op, arity, str) for name, arity in sig.ops}
    preds = {name: nested(pred, arity, int) for name, arity in sig.preds}
    alg = algebra_from_nested(sig, n, ops, preds)
    for name, arity in sig.ops:
        assert alg.op_tables[name] == tuple(
            op(*args) for args in product(range(n), repeat=arity))
        assert {type(v) for v in alg.op_tables[name]} == {int}
    for name, arity in sig.preds:
        assert alg.pred_tables[name] == tuple(
            pred(*args) for args in product(range(n), repeat=arity))
        assert {type(v) for v in alg.pred_tables[name]} == {bool}
    assert alg.op_value("t", (2, 0, 1)) == op(2, 0, 1)
    assert alg.pred_value("p3", (1, 1, 2)) == pred(1, 1, 2)


def test_strong_needs_predicate_reflection():
    c2 = ordered_chain(2)
    flat = FiniteAlgebra(PRED_SIG, 2, dict(c2.op_tables),
                         {"leq": (True, False, False, True)})
    ident = (0, 1)
    assert is_homomorphism(ident, flat, c2)
    assert not is_strong_homomorphism(ident, flat, c2)


def brute_force_homs(a, b):
    found = []
    for images in product(range(b.size), repeat=a.size):
        if is_homomorphism(images, a, b):
            found.append(images)
    return found


def test_find_homomorphisms_matches_brute_force_seeded():
    rng = random.Random(1717)
    for _ in range(60):
        a = random_algebra(rng, max_size=3)
        b = random_algebra(rng, max_size=3)
        if a.sig != b.sig:
            continue
        assert find_homomorphisms(a, b) == brute_force_homs(a, b)


def test_find_homomorphisms_same_signature_pairs_seeded():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        a = random_algebra(rng, max_size=3)
        tables = {name: tuple(rng.randrange(a.size)
                              for _ in range(a.size**arity))
                  for name, arity in a.sig.ops}
        ptables = {name: tuple(rng.random() < 0.5
                               for _ in range(a.size**arity))
                   for name, arity in a.sig.preds}
        b = FiniteAlgebra(a.sig, a.size, tables, ptables)
        assert find_homomorphisms(a, b) == brute_force_homs(a, b)
        checked += 1


@st.composite
def hom_pairs(draw):
    """A system and a target over one signature drawn by signatures():
    a random target, the system itself, or the system with every
    predicate true everywhere, so that homomorphisms other than the
    constant maps occur."""
    sig = draw(signatures(max_arity=3))
    a = draw(systems(sig))
    kind = draw(st.sampled_from(["random", "same", "all_true"]))
    if kind == "random":
        return a, draw(systems(sig))
    if kind == "same":
        return a, a
    return a, FiniteAlgebra(sig, a.size, dict(a.op_tables),
                            {name: (True,) * a.size**arity
                             for name, arity in sig.preds})


@settings(max_examples=300, deadline=None)
@given(hom_pairs(), st.booleans(), st.none() | st.integers(0, 3),
       st.sampled_from([1, 16, 10**7]))
def test_find_homomorphisms_matches_generate_and_test(pair, strong, limit,
                                                      budget):
    a, b = pair
    homs = outcome(lambda: find_homomorphisms(
        a, b, strong=strong, limit=limit, budget=budget))
    assert homs == outcome(lambda: naive_find_homomorphisms(
        a, b, strong=strong, limit=limit, budget=budget))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_homomorphism_matches_the_tuple_by_tuple_check(data):
    a, b = data.draw(hom_pairs())
    maps = find_homomorphisms(a, b)
    phi = data.draw(st.sampled_from(maps) if maps and data.draw(st.booleans())
                    else st.lists(st.integers(0, b.size - 1),
                                  min_size=a.size, max_size=a.size))
    assert is_homomorphism(phi, a, b) == naive_is_homomorphism(phi, a, b)


def test_find_homomorphisms_counts(z4, z2, z6):
    assert len(find_homomorphisms(z4, z4)) == 4
    assert len(find_homomorphisms(z4, z2)) == 2
    assert len(find_homomorphisms(z6, z6)) == 6
    strong = find_homomorphisms(z4, z2, strong=True)
    assert strong == [(0, 1, 0, 1)]


def test_find_homomorphisms_budget(z4):
    with pytest.raises(SearchBudgetExceeded):
        find_homomorphisms(z4, z4, budget=2)


def test_unitary_system_and_predicates():
    one = unitary_system(PRED_SIG)
    assert one.size == 1
    assert is_unitary(one)
    assert one.pred_value("leq", (0, 0))
    assert not is_unitary(ordered_chain(2))


def relabel(a: FiniteAlgebra, perm) -> FiniteAlgebra:
    """The copy of a whose element x is called perm[x]."""
    inverse = [0] * a.size
    for i, p in enumerate(perm):
        inverse[p] = i
    ops = {name: tuple(perm[a.op_value(name, tuple(inverse[c] for c in combo))]
                       for combo in product(range(a.size), repeat=arity))
           for name, arity in a.sig.ops}
    preds = {name: tuple(a.pred_value(name, tuple(inverse[c] for c in combo))
                         for combo in product(range(a.size), repeat=arity))
             for name, arity in a.sig.preds}
    return FiniteAlgebra(a.sig, a.size, ops, preds)


def test_find_isomorphism_detects_relabelings_seeded():
    """The exact map, against the least strong permutation by brute
    force, on relabelled copies, self pairs and random pairs of one
    signature and size (almost all of them not isomorphic)."""
    rng = random.Random(777)
    absent = 0
    for _ in range(150):
        a = random_algebra(rng, max_size=5)
        perm = list(range(a.size))
        rng.shuffle(perm)
        tables = {name: tuple(rng.randrange(a.size)
                              for _ in range(a.size**arity))
                  for name, arity in a.sig.ops}
        ptables = {name: tuple(rng.random() < 0.5
                               for _ in range(a.size**arity))
                   for name, arity in a.sig.preds}
        pairs = {"relabelled": relabel(a, perm), "self": a,
                 "random": FiniteAlgebra(a.sig, a.size, tables, ptables)}
        for kind, b in pairs.items():
            iso = find_isomorphism(a, b)
            assert iso == naive_find_isomorphism(a, b), (kind, a, b)
            assert iso is not None or kind == "random"
            absent += iso is None
    assert absent > 50


def test_find_isomorphism_checks_equations_whose_value_is_placed():
    """phi(f0(x)) = f0(phi(x)) constrains the image of the value f0(x)
    as well as that of x; the least isomorphism here is (3, 1, 4, 0, 2)."""
    sig = Signature(ops=(("f0", 1),))
    a = FiniteAlgebra(sig, 5, {"f0": (1, 1, 2, 4, 0)})
    b = FiniteAlgebra(sig, 5, {"f0": (2, 1, 3, 1, 4)})
    assert find_isomorphism(a, b) == (3, 1, 4, 0, 2)
    assert find_isomorphism(a, b) == naive_find_isomorphism(a, b)


def directed_cycle(n: int) -> FiniteAlgebra:
    edge = tuple(y == (x + 1) % n for x in range(n) for y in range(n))
    return FiniteAlgebra(Signature(ops=(), preds=(("e", 2),)), n, {},
                         {"e": edge})


def test_find_isomorphism_keeps_the_homomorphism_budget():
    """With no operations every element is a generator: 7^7 images fit
    the default budget, 8^8 do not."""
    assert find_isomorphism(directed_cycle(7), directed_cycle(7)) == tuple(
        range(7))
    with pytest.raises(SearchBudgetExceeded):
        find_isomorphism(directed_cycle(8), directed_cycle(8))


def test_find_isomorphism_stops_at_the_least_isomorphism(deadline):
    """All 7^7 maps of this system to itself are homomorphisms; listing
    them all takes seconds, the search stops at the identity."""
    deadline(5)
    a = FiniteAlgebra(UNARY_PRED_SIG, 7, {}, {"p": (True,) * 7})
    assert find_isomorphism(a, a) == tuple(range(7))


def test_strong_search_prunes_maps_that_are_not_injective(deadline):
    """Between carriers of one size a strong map is a bijection.  All
    7^7 maps of the all-true system to itself are homomorphisms, its 7!
    permutations the strong ones; walking every map takes seconds."""
    deadline(2)
    a = FiniteAlgebra(UNARY_PRED_SIG, 7, {}, {"p": (True,) * 7})
    assert find_homomorphisms(a, a, strong=True) == \
        list(permutations(range(7)))
    one = FiniteAlgebra(UNARY_PRED_SIG, 7, {}, {"p": (True,) + (False,) * 6})
    two = FiniteAlgebra(UNARY_PRED_SIG, 7, {},
                        {"p": (True, True) + (False,) * 5})
    for x, y in ((one, two), (two, one), (two, two)):
        assert find_isomorphism(x, y) == naive_find_isomorphism(x, y)


def test_find_isomorphism_distinguishes_z4_from_klein():
    assert find_isomorphism(cyclic_group(4), klein_group()) is None
    assert find_isomorphism(cyclic_group(4), cyclic_group(4)) is not None


def test_find_isomorphism_needs_equal_sizes(z2, z4):
    assert find_isomorphism(z2, z4) is None


def test_s3_has_trivial_center_visible_through_automorphisms():
    s3 = symmetric_group_3()
    autos = [phi for phi in find_homomorphisms(s3, s3)
             if sorted(phi) == list(range(6))]
    assert len(autos) == 6
