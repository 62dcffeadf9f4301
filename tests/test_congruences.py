"""Congruences, quotients, kernels, and permutability."""

import random
import tracemalloc
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (Congruence, FiniteAlgebra, Signature,
                       all_congruences, compose_permute, compose_relation,
                       congruence_generated_by, direct_product,
                       find_homomorphisms, find_isomorphism,
                       full_congruence, identity_congruence,
                       is_stable_partition, is_strong_homomorphism, join,
                       kernel, partition_congruence, quotient,
                       subalgebra_as_algebra)
from malcevlab.congruences import _principal_partitions, _translation_rows
from malcevlab.errors import NotStable, SearchBudgetExceeded

from conftest import (chain_semilattice, cyclic_group, klein_group,
                      random_algebra, signatures, small_algebras,
                      symmetric_group_3, systems, tangle5)
from oracles_local import (all_stable_partitions, naive_compose_permute,
                           naive_is_stable_partition, naive_quotient,
                           relation_is_congruence)


def blocks_of(c):
    return [tuple(b) for b in c.blocks()]


def test_z4_congruence_lattice_matches_subgroups(z4):
    congs = all_congruences(z4)
    assert len(congs) == 3
    shapes = sorted(tuple(len(b) for b in c.blocks()) for c in congs)
    assert shapes == [(1, 1, 1, 1), (2, 2), (4,)]
    mid = next(c for c in congs if len(c.blocks()) == 2)
    assert blocks_of(mid) == [(0, 2), (1, 3)]


def test_prime_cyclic_groups_are_congruence_simple():
    for p in (2, 3, 5):
        assert len(all_congruences(cyclic_group(p))) == 2


def test_s3_congruences_are_the_normal_subgroups():
    s3 = symmetric_group_3()
    congs = all_congruences(s3)
    assert len(congs) == 3
    mid = next(c for c in congs if len(c.blocks()) == 2)
    # the even permutations (0,1,2), (1,2,0), (2,0,1) sit at lexicographic
    # positions 0, 3, 4
    assert blocks_of(mid) == [(0, 3, 4), (1, 2, 5)]


def test_klein_group_has_five_congruences():
    assert len(all_congruences(klein_group())) == 5


def test_chain_semilattice_congruences_are_interval_partitions():
    # stable partitions of a meet chain are exactly the partitions into
    # intervals: 2^(n-1) of them
    for n in (2, 3, 4):
        congs = all_congruences(chain_semilattice(n))
        assert len(congs) == 2**(n - 1)
        for c in congs:
            for block in c.blocks():
                assert block == list(range(min(block), max(block) + 1))


def test_all_congruences_agrees_with_stable_partition_scan_seeded():
    rng = random.Random(808)
    for _ in range(40):
        alg = random_algebra(rng, max_size=4)
        fast = {c.block_of for c in all_congruences(alg)}
        slow = {c.block_of for c in all_stable_partitions(alg)}
        assert fast == slow


@settings(max_examples=60, deadline=None)
@given(small_algebras(max_size=5))
def test_all_congruences_matches_stable_partition_oracle(alg):
    congs = all_congruences(alg)
    assert [c.block_of for c in congs] == \
        [c.block_of for c in all_stable_partitions(alg)]
    assert all(relation_is_congruence(alg, c.pairs()) for c in congs)


@settings(max_examples=60, deadline=None)
@given(small_algebras(max_size=5), st.data())
def test_join_equals_generated_congruence(alg, data):
    # the partition join against the old definition: the congruence
    # generated by both partitions
    congs = all_congruences(alg)
    for _ in range(4):
        theta = data.draw(st.sampled_from(congs))
        xi = data.draw(st.sampled_from(congs))
        seeds = list(enumerate(theta.block_of)) + list(enumerate(xi.block_of))
        assert join(theta, xi).block_of == \
            congruence_generated_by(alg, seeds).block_of


def least_stable_partition(stable, pairs):
    """The least of the stable partitions (block_of tuples) relating
    every pair: the one that refines every other such partition."""
    above = [x for x in stable if all(x[a] == x[b] for a, b in pairs)]
    least = [x for x in above
             if all(y[e] == y[x[e]] for y in above for e in range(len(x)))]
    assert len(least) == 1
    return least[0]


def stable_block_ofs(alg):
    return [c.block_of for c in all_stable_partitions(alg)]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_principal_congruence_is_the_least_stable_partition(data):
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    a = data.draw(st.integers(0, alg.size - 1))
    b = data.draw(st.integers(0, alg.size - 1))
    assert congruence_generated_by(alg, [(a, b)]).block_of == \
        least_stable_partition(stable_block_ofs(alg), [(a, b)])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_generated_congruence_is_the_least_stable_partition(data):
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    element = st.integers(0, alg.size - 1)
    pairs = data.draw(st.lists(st.tuples(element, element), max_size=3))
    given = (p for p in pairs) if data.draw(st.booleans()) else pairs
    assert congruence_generated_by(alg, given).block_of == \
        least_stable_partition(stable_block_ofs(alg), pairs)


@pytest.mark.parametrize("pair", [(-1, 2), (0, 4), (4, 0)])
def test_congruence_generated_by_rejects_pairs_outside_the_carrier(z4, pair):
    with pytest.raises(ValueError,
                       match=rf"pair \({pair[0]},{pair[1]}\) outside carrier"):
        congruence_generated_by(z4, [(0, 2), pair])


def every_pair_key(n):
    return [a * n + b for a in range(n) for b in range(a + 1, n)]


def principals_by_pair(alg):
    n = alg.size
    found = _principal_partitions(n, _translation_rows(alg), every_pair_key(n))
    assert list(found) == every_pair_key(n)
    return {divmod(k, n): p for k, p in found.items()}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_component_principals_are_the_least_stable_partitions(data):
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    stable = stable_block_ofs(alg)
    for (a, b), p in principals_by_pair(alg).items():
        assert p == least_stable_partition(stable, [(a, b)])


def test_component_principals_of_z12_are_subgroup_cosets():
    # the translations x -> x + c keep a pair's difference up to sign, so
    # each component is one difference +-d and no edge leaves it
    z12 = cyclic_group(12)
    for (a, b), p in principals_by_pair(z12).items():
        step = gcd(b - a, 12)
        assert p == tuple(x % step for x in range(12))
        assert p == congruence_generated_by(z12, [(a, b)]).block_of


def test_component_principals_of_a_chain_are_intervals():
    # x -> min(c, x) sends {a, b} to {a, c} for a < c < b: every component
    # is one pair, and the components form a DAG down to the adjacent pairs
    chain = chain_semilattice(6)
    for (a, b), p in principals_by_pair(chain).items():
        assert p == tuple(a if a <= x <= b else x for x in range(6))
        assert p == congruence_generated_by(chain, [(a, b)]).block_of


def test_principal_pass_holds_only_the_successors_it_needs():
    # holding the successors of every pair at once peaks at 1.94e6 bytes
    # here; holding them only from a pair's visit until its component is
    # emitted, at 0.72e6
    n = 64
    rows, roots = _translation_rows(cyclic_group(n)), every_pair_key(n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _principal_partitions(n, rows, roots)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_lattice_of_z96_is_fast(deadline):
    # one union-find worklist per pair a < b takes 13-20 s on Z96
    deadline(3)
    assert len(all_congruences(cyclic_group(96))) == 12


def test_lattice_of_z2_to_the_fifth_counts_subspaces():
    z2 = cyclic_group(2)
    cube = direct_product([z2] * 5)
    assert len(all_congruences(cube)) == 1 + 31 + 155 + 155 + 31 + 1


def test_lattice_sees_every_argument_position_seeded():
    # a ternary operation reading one argument only: the translations at
    # that position alone decide the congruences
    rng = random.Random(5150)
    sig = Signature(ops=(("m", 3),))
    for _ in range(30):
        n, pos = rng.randint(2, 5), rng.randrange(3)
        u = [rng.randrange(n) for _ in range(n)]
        table = tuple(u[args[pos]] for args in product(range(n), repeat=3))
        alg = FiniteAlgebra(sig, n, {"m": table})
        assert [c.block_of for c in all_congruences(alg)] == \
            [c.block_of for c in all_stable_partitions(alg)]


def test_lattice_budget_bounds_the_joins():
    # 16 congruences, 10 of them principal: each of the 15 non-identity
    # congruences is joined once with each principal one
    chain = chain_semilattice(5)
    assert len(all_congruences(chain, budget=150)) == 16
    with pytest.raises(SearchBudgetExceeded, match="budget of 149 joins"):
        all_congruences(chain, budget=149)


def test_partition_congruence_validates(z4):
    theta = partition_congruence(z4, [[0, 2], [1, 3]])
    assert theta.related(0, 2) and not theta.related(0, 1)
    with pytest.raises(NotStable):
        partition_congruence(z4, [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        partition_congruence(z4, [[0, 2], [1]])


@pytest.mark.parametrize("blocks,message", [
    ([[0, 2], [1, 3, 4]], "element 4 outside the carrier"),
    ([[0, 2, -2], [1, 3]], "element -2 outside the carrier"),
    ([[0, 2], [], [1, 3]], "empty block"),
    ([[0, 2], [1, 3, 2]], "element 2 in two blocks"),
])
def test_partition_congruence_names_the_bad_element_or_block(z4, blocks,
                                                            message):
    with pytest.raises(ValueError, match=message):
        partition_congruence(z4, blocks)


def test_partition_congruence_takes_blocks_as_iterators(z4):
    theta = partition_congruence(z4, (iter(b) for b in [[2, 0], [3, 1]]))
    assert theta.block_of == (0, 1, 0, 1)


def test_congruence_generated_by_is_least(z4):
    theta = congruence_generated_by(z4, [(0, 2)])
    assert blocks_of(theta) == [(0, 2), (1, 3)]
    congs = all_congruences(z4)
    above = [c for c in congs if c.related(0, 2)]
    for c in above:
        assert theta.pairs() <= c.pairs()


def test_congruence_generated_by_transitive_closure():
    s3 = symmetric_group_3()
    theta = congruence_generated_by(s3, [(0, 3)])
    assert blocks_of(theta) == [(0, 3, 4), (1, 2, 5)]
    assert congruence_generated_by(s3, [(0, 1)]).is_full()


def test_join_is_least_upper_bound():
    k = klein_group()
    congs = all_congruences(k)
    for a in congs:
        for b in congs:
            j = join(a, b)
            assert a.pairs() <= j.pairs() and b.pairs() <= j.pairs()
            for c in congs:
                if a.pairs() <= c.pairs() and b.pairs() <= c.pairs():
                    assert j.pairs() <= c.pairs()


def test_groups_have_permuting_congruences():
    for alg in (cyclic_group(4), cyclic_group(6), klein_group(),
                symmetric_group_3()):
        congs = all_congruences(alg)
        for i in range(len(congs)):
            for j in range(i + 1, len(congs)):
                _, ok = compose_permute(congs[i], congs[j])
                assert ok


def test_tangle5_has_the_expected_non_permuting_pair():
    alg = tangle5()
    congs = all_congruences(alg)
    assert len(congs) == 5
    theta = partition_congruence(alg, [[0], [1, 2], [3], [4]])
    xi = partition_congruence(alg, [[0], [1], [2, 3], [4]])
    forward, ok = compose_permute(theta, xi)
    assert not ok
    # 1 theta 2 xi 3 gives (1, 3) one way around but not the other
    assert (1, 3) in forward
    assert (1, 3) not in compose_relation(xi, theta)
    bad = []
    for i in range(len(congs)):
        for j in range(i + 1, len(congs)):
            _, k = compose_permute(congs[i], congs[j])
            if not k:
                bad.append((congs[i], congs[j]))
    assert len(bad) == 1
    assert {congs_pair.block_of for congs_pair in bad[0]} == \
        {theta.block_of, xi.block_of}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_permute_matches_both_compositions(data):
    """On congruences and on arbitrary partitions, which need not
    permute even when the congruences of the same algebra do."""
    alg = data.draw(systems(data.draw(signatures(max_arity=2)), max_size=5))
    partitions = all_congruences(alg)
    for _ in range(3):
        labels = data.draw(st.lists(st.integers(0, alg.size - 1),
                                    min_size=alg.size, max_size=alg.size))
        first: dict[int, int] = {}
        partitions.append(Congruence(alg, tuple(
            first.setdefault(label, x) for x, label in enumerate(labels))))
    for theta, xi in product(partitions, repeat=2):
        assert compose_permute(theta, xi) == naive_compose_permute(theta, xi)


def test_quotient_of_z4_is_z2(z4, z2):
    theta = partition_congruence(z4, [[0, 2], [1, 3]])
    q, canonical = quotient(z4, theta)
    assert q.size == 2
    assert canonical == (0, 1, 0, 1)
    assert find_isomorphism(q, z2) is not None
    assert is_strong_homomorphism(canonical, z4, q)


def test_quotient_rejects_unstable_partition(z4):
    from malcevlab import Congruence
    with pytest.raises(NotStable):
        # bypass partition_congruence validation to hit the quotient check
        quotient(z4, Congruence(z4, (0, 0, 2, 2)))


def test_quotient_predicate_holds_when_some_member_pair_does():
    sig = Signature(ops=(("meet", 2),), preds=(("leq", 2),))
    meet = tuple(min(a, b) for a in range(3) for b in range(3))
    leq = tuple(a <= b for a in range(3) for b in range(3))
    alg = FiniteAlgebra(sig, 3, {"meet": meet}, {"leq": leq})
    theta = partition_congruence(alg, [[0, 1], [2]])
    q, canonical = quotient(alg, theta)
    assert q.size == 2
    # 2 <= 1 fails pointwise but the blocks {0,1}, {2} relate both ways
    # only downward: block-of-2 meets block-of-1 via 1 <= 2 existentially
    assert q.pred_value("leq", (canonical[1], canonical[2]))
    assert not q.pred_value("leq", (canonical[2], canonical[1]))


def quotient_or_unstable(construct, alg, theta):
    """The quotient and canonical map, or NotStable."""
    try:
        return construct(alg, theta)
    except NotStable:
        return NotStable


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_quotient_matches_the_member_choice_quotient(data):
    """By congruences and by random, mostly unstable, partitions."""
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    labels = data.draw(st.lists(st.integers(0, alg.size - 1),
                                min_size=alg.size, max_size=alg.size))
    first = {}
    partition = Congruence(alg, tuple(first.setdefault(label, x)
                                      for x, label in enumerate(labels)))
    theta = data.draw(st.sampled_from(all_congruences(alg) + [partition]))
    assert quotient_or_unstable(quotient, alg, theta) == \
        quotient_or_unstable(naive_quotient, alg, theta)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_is_stable_partition_matches_the_definition(data):
    """On random labellings, whose labels need not name a member of
    their block."""
    alg = data.draw(systems(data.draw(signatures(max_arity=3)), max_size=5))
    labels = data.draw(st.lists(st.integers(-1, alg.size + 1),
                                min_size=alg.size, max_size=alg.size))
    assert is_stable_partition(alg, labels) == \
        naive_is_stable_partition(alg, labels)


def test_stability_does_not_read_through_the_labels(z4):
    # label 3 names the block {0, 2} and label 1 the block {1, 3}
    assert is_stable_partition(z4, (3, 1, 3, 1))
    assert not is_stable_partition(z4, (3, 3, 1, 1))


def test_kernel_of_mod_two_map(z4, z2):
    phi = (0, 1, 0, 1)
    theta = kernel(phi, z4, z2)
    assert blocks_of(theta) == [(0, 2), (1, 3)]


def test_first_isomorphism_property_seeded():
    rng = random.Random(515)
    fixtures = [cyclic_group(4), cyclic_group(6), klein_group(),
                symmetric_group_3(), chain_semilattice(3),
                chain_semilattice(4), tangle5()]
    for _ in range(30):
        a = rng.choice(fixtures)
        b = rng.choice(fixtures)
        if a.sig != b.sig:
            continue
        for phi in find_homomorphisms(a, b):
            theta = kernel(phi, a, b)
            q, canonical = quotient(a, theta)
            image = subalgebra_as_algebra(b, sorted(set(phi)))
            assert find_isomorphism(q, image) is not None
            assert is_strong_homomorphism(canonical, a, q)


def test_identity_and_full_congruences(z4):
    assert identity_congruence(z4).is_identity()
    assert full_congruence(z4).is_full()
    congs = all_congruences(z4)
    assert identity_congruence(z4) in congs
    assert full_congruence(z4) in congs
