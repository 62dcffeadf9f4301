"""Derived-operation searches: Mal'cev terms, biternary pairs, translations."""

import random
from contextlib import nullcontext
from itertools import product
from unittest.mock import patch

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malcevlab import (App, FiniteAlgebra, Signature, Var,
                       check_permutability_theorem, composition_closure,
                       detect_biternary, direct_product,
                       equasigroup_from_latin, eval_term,
                       find_biternary_pair, find_homomorphisms,
                       find_malcev_term, latin_square,
                       malcev_from_biternary, malcev_search, parse_term,
                       print_term, term_key, term_size, to_algebra,
                       translation_group)
from malcevlab.errors import SearchBudgetExceeded
from malcevlab.malcev import (_PAIR_MIN, _SLAB, DEFAULT_CANDIDATE_BUDGET,
                              DEFAULT_TABLE_BUDGET, _orbit_positions,
                              _TableSearch)
from malcevlab.terms import compile_evaluator

from conftest import (GROUP_SIG, GROUPOID_SIG, MEET_SIG,
                      all_latin_squares, binary_beside_ternary,
                      chain_semilattice, cyclic_group, groupoid_from_rows,
                      klein_group, random_algebra, random_square,
                      signatures, small_algebras, symmetric_group_3,
                      systems, tangle5)
from oracles_local import (NaiveTableSearch, naive_composition_closure,
                           naive_orbit_count, naive_translation_group)
from test_algebras import relabel


def assert_malcev_identities(alg, term):
    for x in range(alg.size):
        for z in range(alg.size):
            assert eval_term(term, (x, x, z), alg) == z
            assert eval_term(term, (x, z, z), alg) == x


def test_groups_have_malcev_terms():
    for alg in (cyclic_group(2), cyclic_group(3), cyclic_group(4),
                cyclic_group(5), cyclic_group(6), klein_group(),
                symmetric_group_3()):
        term = find_malcev_term(alg)
        assert term is not None
        assert_malcev_identities(alg, term)


def test_canonical_witnesses_are_stable(z4, s3):
    assert print_term(find_malcev_term(z4)) == "mul(inv(x1), mul(x0, x2))"
    assert print_term(find_malcev_term(s3)) == "mul(x0, mul(inv(x1), x2))"


def test_search_is_deterministic(z4):
    a = malcev_search(z4)
    b = malcev_search(z4)
    assert a == b


def test_semilattices_have_no_malcev_term():
    for n in (2, 3, 4):
        res = malcev_search(chain_semilattice(n), max_depth=4)
        assert res.term is None
        assert not res.truncated


def test_tangle5_exhausts_within_size_cap():
    res = malcev_search(tangle5(), max_depth=4, max_term_size=8)
    assert res.term is None
    assert not res.truncated
    assert res.tables_explored == 102


def test_tangle5_truncates_without_cap_on_small_budget():
    res = malcev_search(tangle5(), max_depth=4, table_budget=2000)
    assert res.term is None
    assert res.truncated
    assert res.exhausted == "table"


def test_tangle5_candidate_truncation_count():
    res = malcev_search(tangle5(), 4, candidate_budget=20_000)
    assert res.term is None
    assert res.truncated
    assert res.exhausted == "candidate"
    assert res.tables_explored == 18270


@settings(max_examples=40, deadline=None)
@given(small_algebras(), st.integers(1, 3), st.sampled_from([None, 5, 7]))
def test_table_search_invariants(alg, depth, cap):
    # stored sizes are those of the stored terms, and every term
    # evaluates to its table, after each level and after truncation
    search = _TableSearch(alg, 3, candidate_budget=1000, max_term_size=cap)
    assignments = list(product(range(alg.size), repeat=3))
    for level in range(1, depth + 1):
        new = search.run_level(level)
        # least() settles the tables it reads before any term is read
        tables = list(range(len(search)))
        least = [search.least(tables), search.least(list(new) or tables)]
        for i in tables:
            term = search.term(i)
            assert search.sizes[i] == term_size(term)
            assert cap is None or search.sizes[i] <= cap
            values = [eval_term(term, a, alg) for a in assignments]
            assert values == search.tables[i].tolist()
        assert least == [
            min(among, key=lambda i: term_key(search.term(i), alg.sig))
            for among in (tables, list(new) or tables)]
        if search.truncated:
            break


def assert_same_search(fast, naive):
    count = len(naive)
    assert len(fast) == count
    assert fast.tables.tolist() == naive.tables.tolist()
    assert [fast.term(i) for i in range(count)] == naive.terms
    sig = fast.alg.sig
    assert [term_key(fast.term(i), sig) for i in range(count)] == naive.keys
    assert fast.sizes.tolist() == naive.sizes
    assert fast.levels.tolist() == naive.levels
    assert fast.candidates_used == naive.candidates_used
    assert fast.exhausted == naive.exhausted


def assert_matches_naive_engine(alg, variables, cap, candidates, tables,
                                depth=3):
    """Both engines level by level over 1 or 3 variables, or over x0 and
    the constants as translation_group seeds them: all at once, and one
    at a time into the naive engine."""
    k = 1 if variables == "constants" else variables
    fast, naive = (engine(alg, k, tables, candidates, cap)
                   for engine in (_TableSearch, NaiveTableSearch))
    if variables == "constants":
        fast.add_variables([np.full(alg.size, c) for c in range(alg.size)])
        for c in range(alg.size):
            naive.add_variable(np.full(alg.size, c, dtype=naive.dtype))
    assert_same_search(fast, naive)
    for level in range(1, depth + 1):
        assert fast.run_level(level) == naive.run_level(level)
        assert_same_search(fast, naive)
        if naive.truncated:
            break
    return fast


def search_cases():
    """A system with operations of arity up to 3, the variables, a size
    cap and budgets that often run out in the middle of a level."""
    return st.tuples(
        signatures(max_arity=3).flatmap(systems),
        st.sampled_from([1, 3, "constants"]),
        st.sampled_from([None, 5, 7]),
        st.sampled_from([40, 400, 4000]),
        st.sampled_from([12, 100, DEFAULT_TABLE_BUDGET]),
    )


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_table_store_matches_the_naive_engine(case):
    # tables in order, terms, keys, sizes, levels and budget use agree
    # after every level
    assert_matches_naive_engine(*case)


def colliding_hash(self, rows):
    return np.zeros(len(rows), np.uint64)


@settings(max_examples=40, deadline=None)
@given(search_cases())
def test_table_store_matches_the_naive_engine_when_every_hash_collides(case):
    with patch.object(_TableSearch, "_hash", colliding_hash):
        assert_matches_naive_engine(*case)


def test_every_hash_colliding_keeps_witnesses_and_truncation(z4):
    pair = detect_biternary(z4).pair
    with patch.object(_TableSearch, "_hash", colliding_hash):
        assert print_term(find_malcev_term(z4)) == \
            "mul(inv(x1), mul(x0, x2))"
        assert detect_biternary(z4).pair == pair
        # truncated in the middle of level 3
        search = assert_matches_naive_engine(tangle5(), 3, None, 1500,
                                             DEFAULT_TABLE_BUDGET)
        assert search.exhausted == "candidate"
        assert search.levels[-1] == 3
        assert_matches_naive_engine(z4, "constants", None, 10**6, 10**6, 4)


def test_candidate_budget_runs_out_inside_a_wide_uncapped_level():
    # two variables over these 4 elements give 2883 tables after level
    # 2, which spends 2940 candidates, so each prefix of level 3 walks
    # 2883 last children, in slabs of up to 4096.  The budget runs out
    # in the second prefix; where it stops depends on the slab width
    alg = FiniteAlgebra(Signature((("m", 2), ("t", 3))), 4, {
        "m": (2, 2, 3, 0, 2, 2, 0, 3, 0, 1, 2, 2, 1, 2, 2, 0),
        "t": (2, 2, 2, 1, 0, 1, 2, 3, 1, 0, 0, 3, 0, 1, 2, 2,
              3, 3, 1, 0, 0, 3, 2, 1, 1, 1, 3, 0, 1, 3, 2, 1,
              0, 3, 2, 1, 3, 1, 3, 3, 2, 3, 2, 2, 3, 3, 1, 0,
              3, 1, 3, 2, 1, 0, 3, 2, 2, 0, 2, 0, 2, 2, 2, 3)})
    search = assert_matches_naive_engine(alg, 2, None, 2940 + 2883 + 2500,
                                         DEFAULT_TABLE_BUDGET)
    assert search.levels[-1] == 3 and search.exhausted == "candidate"
    assert search.candidates_used == 2940 + 2 * 2883


def first_value_hash(self, rows):
    # three hash values; every m(xi, xj) of the algebra below takes the
    # one that no variable does
    return rows[:, 0].astype(np.uint64)


def latin4():
    rows = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 1, 0), (3, 2, 0, 1))
    return to_algebra(equasigroup_from_latin(latin_square(rows)),
                      "quasigroup")


def nullary_between():
    return FiniteAlgebra(Signature((("m", 2), ("c", 0), ("u", 1))), 3, {
        "m": (1, 0, 2, 2, 1, 0, 0, 2, 1), "c": (2,), "u": (1, 2, 0)})


@pytest.mark.parametrize("row_hash", [None, colliding_hash, first_value_hash],
                         ids=["plain", "colliding", "first-value"])
def test_a_group_spans_operations_up_to_a_nullary_one(row_hash):
    # level 1 adds m's 9 candidates, the constant c and u's 3 as one
    # group; level 2 walks m's 187 candidates and then u's 11 in one
    # step, which the budget cannot hold next to m's group or alone.  A
    # first-value hash files m's first candidate as new and collides on
    # the next, so the pass withdraws its entry
    alg = nullary_between()
    with patch.object(_TableSearch, "_hash", row_hash) if row_hash \
            else nullcontext():
        search = assert_matches_naive_engine(alg, 3, None, 205,
                                             DEFAULT_TABLE_BUDGET)
    assert search.exhausted == "candidate"
    assert search.candidates_used == 13 + 187 + 11
    assert search.levels[-1] == 2


@pytest.mark.parametrize("alg,depth,term,tables", [
    (latin4(), 4, "mul(x0, ldiv(x1, x2))", 56),
    (nullary_between(), 2, "m(x0, m(x1, x2))", 65)],
    ids=["quasigroup", "nullary-between"])
def test_one_dedupe_per_group_across_operations(alg, depth, term, tables):
    # the variables are added in one group, and the candidates of a
    # level in one more, across its operations: the quasigroup's mul,
    # ldiv and rdiv, or m, the constant c and u
    calls = []
    add_rows = _TableSearch._add_rows

    def counted(self, depth, deriv, out):
        calls.append(depth)
        add_rows(self, depth, deriv, out)

    with patch.object(_TableSearch, "_add_rows", counted):
        res = malcev_search(alg, depth)
    assert calls == [0, 1, 2]
    assert print_term(res.term) == term
    assert res.tables_explored == tables


def test_sixteen_hash_values_keep_the_s3_witness(s3):
    # with every row colliding, S3's 14531 tables would take minutes;
    # sixteen hash values still send nearly every slab through the
    # collision branch of _add_rows
    row_hash = _TableSearch._hash
    with patch.object(_TableSearch, "_hash",
                      lambda self, rows: row_hash(self, rows) & np.uint64(15)):
        assert print_term(find_malcev_term(s3)) == \
            "mul(x0, mul(inv(x1), x2))"


def naive_searches(alg, max_depth, cap, candidates, tables):
    """malcev_search and detect_biternary over NaiveTableSearch: the hit
    (or hit pair) of least stored key, with tables_explored, truncated
    and exhausted.  The biternary scan crosses every alpha with every
    table, pairs completed at each level, and charges no budget."""
    n = alg.size
    found = {}
    for kind in ("malcev", "biternary"):
        search = NaiveTableSearch(alg, 3, tables, candidates, cap)
        x, y, z = search.digits
        if kind == "malcev":
            cols = np.flatnonzero((x == y) | (y == z))
            values = np.where(x == y, z, x)[cols]
        else:
            cols = np.flatnonzero(x == y)
            values = z[cols]
        tail = y.astype(np.int64) * n + z
        square = n * n
        alphas, old, new, depth = [], 0, range(len(search)), 0
        while True:
            hits = search.satisfying(new, cols, values)
            if kind == "biternary":
                vec, total = search.vectors, len(search)
                pairs = [(a, b) for a in hits for b in range(total)] + \
                    [(a, b) for a in alphas for b in range(old, total)]
                alphas, old, hits = alphas + hits, total, []
                for a, b in pairs:
                    va, vb = vec[a].astype(np.int64), vec[b].astype(np.int64)
                    if np.array_equal(va[vb * square + tail], x) and \
                            np.array_equal(vb[va * square + tail], x):
                        hits.append((a, b))
            if hits or depth == max_depth or search.truncated:
                break
            depth += 1
            new = search.run_level(depth)
        key = (search.key if kind == "malcev" else
               lambda p: (search.key(p[0]), search.key(p[1])))
        best = min(hits, key=key) if hits else None
        answer = None if best is None else search.term(best) \
            if kind == "malcev" else tuple(map(search.term, best))
        found[kind] = (answer, len(search), search.truncated,
                       search.exhausted)
    return found


def assert_same_witnesses(alg, depth, cap, candidates, tables, collide):
    naive = naive_searches(alg, depth, cap, candidates, tables)
    budgets = dict(table_budget=tables, candidate_budget=candidates,
                   max_term_size=cap)
    with patch.object(_TableSearch, "_hash", colliding_hash) \
            if collide else nullcontext():
        res = malcev_search(alg, depth, **budgets)
        pair = detect_biternary(alg, depth, **budgets)
    assert (res.term, res.tables_explored, res.truncated,
            res.exhausted) == naive["malcev"]
    assert (pair.pair and (pair.pair.alpha, pair.pair.beta),
            pair.tables_explored, pair.truncated,
            pair.exhausted) == naive["biternary"]


def random_quasigroup(seed, n):
    return to_algebra(equasigroup_from_latin(latin_square(
        random_square(random.Random(seed), n))), "quasigroup")


@settings(max_examples=80, deadline=None)
@given(st.one_of(signatures(max_arity=3).flatmap(systems),
                 st.sampled_from([cyclic_group(3), cyclic_group(4),
                                  klein_group(), symmetric_group_3()]),
                 # levels where many alphas have bijective sections
                 st.builds(random_quasigroup, st.integers(0, 2**16),
                           st.integers(2, 3))),
       st.integers(1, 3), st.sampled_from([None, 5, 7]),
       st.sampled_from([40, 400, 4000]),
       st.sampled_from([12, 100, DEFAULT_TABLE_BUDGET]), st.booleans())
def test_witnesses_match_the_least_naive_hit(alg, depth, cap, candidates,
                                             tables, collide):
    # the least-key witness, tables_explored, truncated and exhausted
    # agree, also when a budget runs out in the middle of a level
    assert_same_witnesses(alg, depth, cap, candidates, tables, collide)


@pytest.mark.parametrize("candidates", [25_000, 30_000, 10**6])
def test_s3_witnesses_match_the_least_naive_hit(s3, candidates):
    # level 3 of S3 holds several witness tables, whose least keys
    # decide the term; 25,000 and 30,000 stop in the middle of it
    assert_same_witnesses(s3, 3, None, candidates, DEFAULT_TABLE_BUDGET,
                          False)


@pytest.mark.parametrize("alg,candidates", [
    (cyclic_group(4), 200), (symmetric_group_3(), 300),
    (symmetric_group_3(), 600)], ids=["z4-200", "s3-300", "s3-600"])
def test_pair_step_spends_no_candidates(alg, candidates):
    # these budgets suffice for the table search alone: the pair step
    # looks up one inverse per alpha and charges nothing
    res = detect_biternary(alg, candidate_budget=candidates)
    assert res == detect_biternary(alg)
    assert res.pair is not None and not res.truncated


def test_pending_records_stay_within_the_level(s3, z4):
    # repeats of a level's tables wait as records until a key is read,
    # never more of them than the level has tables; Z4 and the
    # translations of S3 outgrow that bound and are applied
    pending = []
    add_rows = _TableSearch._add_rows

    def checked(self, depth, deriv, out):
        add_rows(self, depth, deriv, out)
        pending.append(sum(map(len, self._pending)))
        assert pending[-1] <= self.count - self._level_start[depth]

    with patch.object(_TableSearch, "_add_rows", checked):
        s3z2 = direct_product([s3, cyclic_group(2)])
        assert malcev_search(s3z2).term is not None
        res = malcev_search(tangle5(), 4, candidate_budget=20_000)
        assert res.tables_explored == 18270
        assert print_term(find_malcev_term(z4)) == \
            "mul(inv(x1), mul(x0, x2))"
        assert translation_group(s3).transitive
    assert max(pending) > 0


def test_reading_a_term_settles_only_its_table(s3):
    # after levels 1 and 2 of S3, 42 repeats of 39 tables wait as
    # records; reading the term of a table with one record applies that
    # record alone, and picks the term that settling every table does
    searches = [_TableSearch(s3, 3) for _ in range(2)]
    for search in searches:
        search.run_level(1)
        search.run_level(2)
    search, settled = searches
    tables = np.concatenate(search._pending)[:, 0].tolist()
    assert len(tables) == 42 and len(set(tables)) == 39
    t = next(t for t in tables if tables.count(t) == 1)
    settled._settle()
    assert search.term(t) == settled.term(t)
    left = np.concatenate(search._pending)[:, 0].tolist()
    assert len(left) == 41 and t not in left


@pytest.mark.parametrize("n", [3, 4, 6, 12])
def test_row_hash_is_a_function_of_the_row(n):
    # rows of 27, 64, 216 and 1728 bytes: one-byte words, then 8-byte
    search = _TableSearch(cyclic_group(n), 3)
    rows = np.random.default_rng(n).integers(0, n, (1500, n**3),
                                             dtype=search.dtype)
    hashes = search._hash(rows)
    for j in (0, 749, 1499):
        assert search._hash(rows[j:j + 1])[0] == hashes[j]
    # every change of one byte of a row changes its hash
    changed = np.repeat(rows[:1], n**3, axis=0)
    at = np.arange(n**3)
    changed[at, at] = (changed[at, at] + 1) % n
    assert not np.any(search._hash(changed) == hashes[0])


def test_size_cap_bounds_a_ternary_operation(deadline):
    # tuples over the cap once went by uncharged, one Python step each:
    # depth 3 under cap 8 had not finished after minutes
    alg = binary_beside_ternary()
    deadline(20)
    for cap in (7, 8):
        res = malcev_search(alg, 4, max_term_size=cap)
        search = assert_matches_naive_engine(
            alg, 3, cap, DEFAULT_CANDIDATE_BUDGET, DEFAULT_TABLE_BUDGET, 4)
        assert res.term is None and not res.truncated
        assert res.tables_explored == len(search)
    res = detect_biternary(alg, max_term_size=8)
    assert res.pair is None and not res.truncated
    assert res.tables_explored == len(search)
    # no table is an alpha with any table as its beta
    tables = search.tables
    triples = list(product(range(3), repeat=3))
    alphas = [a for a in tables if all(a[9 * x + 3 * x + y] == y
                                       for x, y, _ in triples)]
    assert alphas
    assert not any(all(a[9 * b[9 * x + 3 * y + z] + 3 * y + z] == x
                       and b[9 * a[9 * x + 3 * y + z] + 3 * y + z] == x
                       for x, y, z in triples)
                   for a in alphas for b in tables)


def test_malcev_verifies_witness_against_evaluator(z6):
    res = malcev_search(z6)
    assert res.term is not None
    assert_malcev_identities(z6, res.term)
    assert res.max_depth == 4


def test_check_permutability_verdicts(z4, chain2, chain3):
    assert check_permutability_theorem(z4).verdict == "consistent"
    # a two-element chain has only the trivial congruences: no term is
    # found, but nothing fails to permute either
    report = check_permutability_theorem(chain2)
    assert report.verdict == "inconclusive"
    assert report.term is None and not report.non_permuting
    # the three-element chain has a genuinely non-permuting pair, which
    # the missing term is consistent with
    report3 = check_permutability_theorem(chain3)
    assert report3.verdict == "consistent"
    assert report3.term is None and report3.non_permuting
    tangle_report = check_permutability_theorem(
        tangle5(), max_term_size=8)
    assert tangle_report.verdict == "consistent"
    assert tangle_report.term is None
    assert len(tangle_report.non_permuting) == 1


def test_biternary_pair_on_groups(z4):
    res = detect_biternary(z4)
    assert res.pair is not None
    alpha, beta = res.pair.alpha, res.pair.beta
    n = z4.size
    for x in range(n):
        for y in range(n):
            assert eval_term(alpha, (x, x, y), z4) == y
            for z in range(n):
                lhs = eval_term(beta, (x, y, z), z4)
                assert eval_term(alpha, (lhs, y, z), z4) == x
                rhs = eval_term(alpha, (x, y, z), z4)
                assert eval_term(beta, (rhs, y, z), z4) == x


def test_biternary_resolves_to_none_on_semilattices(chain3):
    res = detect_biternary(chain3)
    assert res.pair is None
    assert not res.truncated
    assert find_biternary_pair(chain3) is None


def test_malcev_from_biternary_composites(z4, s3):
    for alg in (z4, s3):
        pair = detect_biternary(alg).pair
        assert pair is not None
        for anchor in range(alg.size):
            term, verified = malcev_from_biternary(alg, pair, anchor)
            assert verified
            assert_malcev_identities_with_anchor(alg, term, anchor)


def assert_malcev_identities_with_anchor(alg, term, anchor):
    for x in range(alg.size):
        for z in range(alg.size):
            assert eval_term(term, (x, x, z, anchor), alg) == z
            assert eval_term(term, (x, z, z, anchor), alg) == x


def test_translation_group_of_z4_is_affine(z4):
    grp = translation_group(z4)
    affine = {tuple((s * x + c) % 4 for x in range(4))
              for s in (1, 3) for c in range(4)}
    assert set(grp.closure) == affine
    assert grp.transitive
    assert not grp.truncated


def test_translation_group_of_chain_is_trivial(chain3):
    grp = translation_group(chain3)
    assert grp.closure == frozenset({(0, 1, 2)})
    assert not grp.transitive


@pytest.mark.parametrize("search", [malcev_search, detect_biternary,
                                    translation_group])
def test_searches_stop_at_the_first_level_that_adds_no_table(search, chain3):
    # the chain's derived operations saturate within a few levels; once
    # a level adds no table, every deeper one would add none either
    found = []
    run_level = _TableSearch.run_level

    def counted(self, depth):
        new = run_level(self, depth)
        found.append(len(new))
        return new

    with patch.object(_TableSearch, "run_level", counted):
        res = search(chain3, 50)
    assert not res.truncated
    assert found[-1] == 0 and all(found[:-1]) and len(found) < 50


def test_translation_group_of_a_random_order_eight_quasigroup(deadline):
    # 1771 generators of a group of order 8! = 40320: the closure keeps
    # only the generators that enlarge it
    deadline(10)
    rows = random_square(random.Random(7), 8)
    alg = to_algebra(equasigroup_from_latin(latin_square(rows)),
                     "quasigroup")
    grp = translation_group(alg)
    assert len(grp.generators) == 1771
    assert len(grp.closure) == 40320 and grp.transitive


# a Latin square of order 6 whose translation search stops at the table
# budget with most rows of its last level repeating tables of that level
SATURATING_SQUARE = ((2, 3, 1, 4, 5, 0), (1, 4, 5, 0, 3, 2),
                     (4, 1, 0, 5, 2, 3), (0, 5, 2, 3, 1, 4),
                     (5, 0, 3, 2, 4, 1), (3, 2, 4, 1, 0, 5))


def test_repeated_tables_are_not_sorted_again_for_every_group():
    # the kept records were once re-sorted by every group of a level that
    # had stopped finding new tables: 818 sorts, 12-16 s on two vCPUs.
    # Records applied once they outnumber the level take 42 sorts, where
    # compacting them first took 82
    alg = to_algebra(equasigroup_from_latin(latin_square(SATURATING_SQUARE)),
                     "quasigroup")
    least = _TableSearch._least
    calls = []

    def counted(self, records):
        calls.append(len(records))
        return least(self, records)

    with patch.object(_TableSearch, "_least", counted):
        grp = translation_group(alg)
    assert len(grp.generators) == 720 and grp.truncated
    assert len(calls) <= 50


def test_composition_closure_generates_s3():
    swap01 = (1, 0, 2)
    cycle = (1, 2, 0)
    closure = composition_closure([swap01, cycle], 3)
    assert len(closure) == 6


def test_composition_closure_contains_identity():
    closure = composition_closure([], 4)
    assert closure == frozenset({(0, 1, 2, 3)})


def test_composition_closure_matches_naive_closure_on_self_maps():
    # non-bijective maps too: the closure is then a monoid.  Above four
    # points a permutation joins maps onto at most two values, which keeps
    # the closure small enough for the quadratic oracle
    rng = random.Random(31)
    for size in range(1, 7):
        values = size if size <= 4 else 2
        for _ in range(20):
            image = rng.sample(range(size), values)
            maps = [tuple(rng.choice(image) for _ in range(size))
                    for _ in range(rng.randint(0, 3 if size <= 4 else 2))]
            if rng.random() < 0.5:
                maps.append(tuple(rng.sample(range(size), size)))
            rng.shuffle(maps)
            assert composition_closure(maps, size) == \
                naive_composition_closure(maps, size), (size, maps)


def test_translation_closure_matches_naive_closure_seeded():
    rng = random.Random(404)
    orders = set()
    for _ in range(20):
        alg = groupoid_from_rows([[rng.randrange(3) for _ in range(3)]
                                  for _ in range(3)])
        grp = translation_group(alg)
        assert grp.closure == naive_composition_closure(grp.generators, 3)
        orders.add(len(grp.closure))
    assert max(orders) > 1


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_translation_group_matches_the_naive_bfs(data):
    # equal in all four fields whenever the naive loop completes; both
    # run out of a candidate budget on the same inputs
    alg = data.draw(systems(data.draw(signatures(max_arity=3))))
    depth = data.draw(st.integers(0, 4))
    budget = data.draw(st.sampled_from([20, 200, 5000]))
    expected = naive_translation_group(alg, depth, candidate_budget=budget)
    grp = translation_group(alg, depth, candidate_budget=budget)
    assert grp.truncated == expected.truncated
    if not expected.truncated:
        assert grp == expected


def test_translation_budget_counts_the_naive_candidates(z2):
    # depth 1 of Z2 tries 3 x 3 products and 3 inverses; e repeats a
    # constant map and costs nothing
    grp = translation_group(z2, 1, candidate_budget=12)
    assert grp == naive_translation_group(z2, 1, candidate_budget=12)
    assert not grp.truncated
    assert translation_group(z2, 1, candidate_budget=11).truncated


def max_chain(n: int) -> FiniteAlgebra:
    join = tuple(max(a, b) for a in range(n) for b in range(n))
    return FiniteAlgebra(Signature((("join", 2),)), n, {"join": join})


def test_search_over_more_than_256_elements():
    # values and binary indices outgrow uint8 and uint16
    res = malcev_search(max_chain(257), 0)
    assert res.term is None and not res.truncated
    assert res.tables_explored == 3


def test_translation_group_over_more_than_256_elements():
    grp = translation_group(max_chain(257), 2)
    assert grp.closure == frozenset({tuple(range(257))})
    assert not grp.transitive and not grp.truncated


def test_ternary_operation_on_six_elements_looks_up_two_bytes():
    # its flat indices end at 6^3 - 1 = 215, so they fit in uint8, and a
    # stretch of rows of 216 entries takes the two-byte path
    rng = random.Random(6)
    alg = FiniteAlgebra(Signature((("t", 3),)), 6,
                        {"t": tuple(rng.randrange(6) for _ in range(216))})
    seen = []
    lookup = _TableSearch._lookup

    def recorded(self, name, idx, out):
        seen.append((idx.dtype, idx.size))
        lookup(self, name, idx, out)

    with patch.object(_TableSearch, "_lookup", recorded):
        fast = assert_matches_naive_engine(alg, 3, None, 3000,
                                           DEFAULT_TABLE_BUDGET, depth=2)
    assert fast.exhausted == "candidate"
    assert any(dtype == np.uint8 and size >= _PAIR_MIN
               for dtype, size in seen)


def test_search_witness_is_canonically_least(z4):
    res = malcev_search(z4)
    # any same-table term found at the same depth has a key no smaller
    key = term_key(res.term, z4.sig)
    handwritten = parse_term("mul(mul(x0, inv(x1)), x2)", GROUP_SIG)
    assert_malcev_identities(z4, handwritten)
    assert key <= term_key(handwritten, GROUP_SIG)


def test_find_malcev_term_respects_depth_bound():
    assert find_malcev_term(cyclic_group(5), max_depth=1) is None
    term = find_malcev_term(cyclic_group(5), max_depth=2)
    assert term is not None


# ---------------------------------------------------------------------------
# malcev_search on one assignment per automorphism orbit

def s3_by_z2():
    return direct_product([symmetric_group_3(), cyclic_group(2)])


def additive(n):
    """Z_n under + alone: a Mal'cev term needs a deep multiple for -y."""
    return FiniteAlgebra(GROUPOID_SIG, n,
                         {"mul": cyclic_group(n).op_tables["mul"]})


ORBIT_ALGEBRAS = {
    "s3": symmetric_group_3, "s3xz2": s3_by_z2,
    "z24": lambda: cyclic_group(24),
    "z2^3": lambda: direct_product([cyclic_group(2)] * 3),
    "z8+": lambda: additive(8)}


def keep_every_position(alg, digits):
    return None


def spy_on_orbit_cut():
    """The kept count of each _orbit_positions call (None: all kept),
    and the patch that records them."""
    kept = []

    def spy(alg, digits):
        cols = _orbit_positions(alg, digits)
        kept.append(None if cols is None else len(cols))
        return cols
    return kept, patch("malcevlab.malcev._orbit_positions", spy)


def assert_orbit_cut_changes_nothing(alg, depth=4, **budgets):
    """malcev_search cut to one assignment per orbit and kept whole agree
    on term, tables_explored, truncated and exhausted; returns the kept
    counts of the cut run."""
    kept, spy = spy_on_orbit_cut()
    with spy:
        cut = malcev_search(alg, depth, **budgets)
    with patch("malcevlab.malcev._orbit_positions", keep_every_position):
        whole = malcev_search(alg, depth, **budgets)
    assert cut == whole
    return kept


@pytest.mark.parametrize("name,budgets,kept", [
    ("s3", {}, [49]),
    ("s3", {"max_term_size": 7}, []),
    ("s3", {"max_term_size": 11}, [49]),
    ("s3", {"candidate_budget": 5_000}, [49]),
    ("s3", {"candidate_budget": 20_000}, [49]),
    ("s3", {"table_budget": 2_000}, []),
    ("s3", {"table_budget": 5_000}, [49]),
    ("s3xz2", {}, [252]),
    ("s3xz2", {"max_term_size": 7}, []),
    ("s3xz2", {"max_term_size": 11}, [252]),
    ("s3xz2", {"candidate_budget": 5_000}, [252]),
    ("s3xz2", {"candidate_budget": 20_000}, [252]),
    ("s3xz2", {"table_budget": 2_000}, []),
    ("s3xz2", {"table_budget": 5_000}, [252]),
    # found at level 2, before the search walks a slab of candidates
    ("z24", {}, []),
    ("z24", {"max_term_size": 7}, []),
    ("z2^3", {}, []),
    ("z2^3", {"max_term_size": 7}, []),
    ("z8+", {}, [148]),
    ("z8+", {"max_term_size": 13}, []),
    ("z8+", {"candidate_budget": 5_000}, [148]),
])
def test_orbit_cut_keeps_witness_and_counts(name, budgets, kept):
    # the budgets stop S3 and S3 x Z2 in the middle of level 3, before
    # or after the cut
    alg = ORBIT_ALGEBRAS[name]()
    assert assert_orbit_cut_changes_nothing(alg, **budgets) == kept


def test_orbit_cut_keeps_witness_and_counts_on_relabelled_squares():
    # A x A always has the automorphism that swaps the coordinates; the
    # relabelling hides which elements are diagonal.  Squares of
    # 3-element algebras with a binary operation mostly walk past a slab
    rng = random.Random(28)
    squares = cut = 0
    while squares < 15:
        a = random_algebra(rng, max_size=3)
        if a.size < 3 or all(arity != 2 for _, arity in a.sig.ops):
            continue
        squares += 1
        perm = list(range(9))
        rng.shuffle(perm)
        alg = relabel(direct_product([a, a]), perm)
        for cap in (None, 7):
            kept = assert_orbit_cut_changes_nothing(
                alg, 3, max_term_size=cap, candidate_budget=20_000,
                table_budget=5_000)
            cut += any(kept)
    assert cut >= 8


@pytest.mark.parametrize("name,orbits", [("s3", 49), ("s3xz2", 252)])
def test_kept_rows_are_term_values_at_one_triple_per_orbit(name, orbits):
    alg = ORBIT_ALGEBRAS[name]()
    # every automorphism is listed, so one triple per orbit is kept
    autos = find_homomorphisms(alg, alg, strong=True)
    assert len(autos) < _SLAB
    assert naive_orbit_count(autos, alg.size, 3) == orbits
    # every row of a capped search, every 16th of the whole clone
    for cap, count, stride in ((11, 3452, 1), (None, 14531, 16)):
        search = _TableSearch(alg, 3, max_term_size=cap, by_orbit=True)
        for _ in search.walk(3):
            pass
        assert search.length == len(search.digits[0]) == orbits
        assert search.tables.shape == (count, orbits)
        columns = [tuple(digit.tolist()) for digit in search.digits]
        for i in range(0, count, stride):
            values = compile_evaluator(search.term(i), alg, 3)(columns)
            assert list(values) == search.tables[i].tolist()


def test_two_listed_automorphisms_keep_witness_and_counts():
    # with the identity and one more automorphism, more triples are kept
    # than one per orbit, and nothing else changes
    def two(*args, **kwargs):
        return find_homomorphisms(*args, **{**kwargs, "limit": 2})

    with patch("malcevlab.malcev.find_homomorphisms", two):
        for alg, orbits in ((symmetric_group_3(), 49), (s3_by_z2(), 252)):
            kept = assert_orbit_cut_changes_nothing(alg)
            assert len(kept) == 1 and orbits < kept[0] < alg.size**3


def test_small_searches_list_no_automorphisms(z4, chain3):
    # the cut waits until the search has walked a slab of candidates,
    # which none of these do: listing automorphisms would cost them
    # more than it saves (Z131 at depth 0 would take seconds)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return find_homomorphisms(*args, **kwargs)

    identity = tuple(range(4))
    squares = [rows for rows in all_latin_squares(4)
               if identity in rows or identity in zip(*rows)]
    with patch("malcevlab.malcev.find_homomorphisms", counted):
        assert print_term(find_malcev_term(z4)) == \
            "mul(inv(x1), mul(x0, x2))"
        assert malcev_search(chain3).term is None
        for rows in squares:
            alg = to_algebra(equasigroup_from_latin(latin_square(rows)),
                             "quasigroup")
            assert malcev_search(alg).term is not None
        assert malcev_search(cyclic_group(64), 3).term is not None
        assert malcev_search(cyclic_group(131), 0).tables_explored == 3
    assert len(squares) == 176 and calls == []


def test_automorphisms_past_their_budget_keep_every_column():
    # mul takes only the values 0, 1 and 2, so 3, 4, 5 and 6 are among
    # the generators, and their 7^4 images exceed the budget of 7^3
    rng = random.Random(7)
    alg = groupoid_from_rows([[rng.randrange(3) for _ in range(7)]
                              for _ in range(7)])
    with pytest.raises(SearchBudgetExceeded):
        find_homomorphisms(alg, alg, strong=True, budget=7**3)
    budgets = dict(table_budget=5_000, candidate_budget=20_000)
    search = _TableSearch(alg, 3, **budgets, by_orbit=True)
    kept, spy = spy_on_orbit_cut()
    with spy:
        for _ in search.walk(4):
            pass
    assert kept == [None] and search.tables.shape[1] == 7**3
    assert assert_orbit_cut_changes_nothing(alg, **budgets) == [None]


# every name the package exported when its search names were still
# imported eagerly
PACKAGE_EXPORTS = """
    Signature Var App Term Equation PredicateAtom Quasiidentity identity
    parse_term parse_formula parse_quasiidentity print_term print_formula
    print_quasiidentity eval_term eval_formula check_quasiidentity
    CheckResult term_size term_depth term_key term_vars formula_vars
    FiniteAlgebra algebra_from_nested is_unitary unitary_system
    direct_product product_encode product_decode flat_index
    generate_subalgebra subalgebra_as_algebra is_homomorphism
    is_strong_homomorphism find_homomorphisms find_isomorphism
    Congruence identity_congruence full_congruence partition_congruence
    congruence_generated_by join all_congruences is_stable_partition
    compose_relation compose_permute quotient kernel
    MalcevSearchResult malcev_search find_malcev_term
    PermutabilityReport check_permutability_theorem BiternaryPair
    BiternarySearchResult detect_biternary find_biternary_pair
    malcev_from_biternary TranslationGroup translation_group
    composition_closure
    QUASIGROUP_SIGNATURE LatinSquare latin_square Equasigroup
    equasigroup_from_latin to_algebra multiplication_group
    malcev_polynomial RectificationReport rectification_check
    FreeAlgebra free_algebra presented_algebra extend_assignment
    UniversalPropertyReport verify_universal_property Replica replica
    MembershipReport membership_in_closure
    load_signature save_signature load_algebra save_algebra
    ClassDefinition load_class errors
""".split()


def test_package_exports_survive_lazy_search_names():
    import malcevlab
    from malcevlab.malcev import TranslationGroup, composition_closure
    from malcevlab import quasigroups

    assert composition_closure is quasigroups.composition_closure
    assert TranslationGroup is quasigroups.TranslationGroup
    for name in PACKAGE_EXPORTS:
        assert hasattr(malcevlab, name), name
    assert set(PACKAGE_EXPORTS) <= set(malcevlab.__all__)
    assert set(PACKAGE_EXPORTS) <= set(dir(malcevlab))
    star: dict = {}
    exec("from malcevlab import *", star)
    assert star["malcev_search"] is malcev_search
    assert star["detect_biternary"] is detect_biternary
    with pytest.raises(AttributeError, match="no_such_name"):
        malcevlab.no_such_name
