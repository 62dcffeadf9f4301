"""Seeded inputs and query lists of the benchmark's workloads.

Every query is a closed call sequence into malcevlab's public API plus a
check against the independent oracles in oracles.py.  ``run`` is the
timed part; ``check`` runs after the clock stops, records the query's
work counts and returns (work, error or None).

The algebras come from a fixed corpus, so every seed does the same
amount of work; the seed renames the elements of every algebra (an
isomorphic copy), and for cli it orders the command lines.  Work
counts are invariant under renaming, so they must repeat exactly across
rounds, processes and seeds, while the tables handed to the library
differ from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import permutations

import oracles as O
from malcevlab import (
    ClassDefinition, FiniteAlgebra, Signature, all_congruences, check_quasiidentity,
    compose_permute, detect_biternary, direct_product, equasigroup_from_latin,
    find_homomorphisms, free_algebra, latin_square, load_algebra, load_class,
    load_signature, malcev_search, membership_in_closure,
    multiplication_group, parse_quasiidentity, parse_term, print_term,
    quotient, replica, to_algebra, translation_group,
)
from malcevlab.cli import main as cli_main
from malcevlab.errors import MalcevLabError

CORPUS_SEED = 4572


class Query:
    def __init__(self, name, run, check, traced_extra=None):
        self.name = name
        self.run = run
        self.check = check
        self.traced_extra = traced_extra


class Setup:
    """Inputs of one run: the queries and the checks made while building."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.corpus = random.Random(CORPUS_SEED)
        self.queries = []
        self.errors = []
        self.checks = 0
        self._digest = hashlib.sha256()

    def record(self, plain):
        self._digest.update(repr(plain).encode())

    def iso(self, plain):
        """A seeded renaming of a corpus algebra."""
        out = O.relabel(plain, self.rng.sample(range(plain[0]), plain[0]))
        self.record(out)
        return out

    def iso_rows(self, rows):
        """A seeded renaming of a corpus Latin square."""
        n, ops = self.iso(latin_plain(rows))
        return [ops["mul"][1][a * n:(a + 1) * n] for a in range(n)]

    def product(self, tr, plains):
        """direct_product of the factors, checked against the oracle."""
        alg = tr.call("algebras.direct_product", direct_product,
                      [algebra(p) for p in plains])
        tr.add("algebras.product_size", alg.size)
        plain = O.product_of(plains)
        self.checks += 1
        if plain_of(alg) != plain:
            self.errors.append(f"direct_product of {len(plains)} factors "
                               "differs from the oracle product")
        return alg, plain

    def digest(self):
        return self._digest.hexdigest()[:16]


def algebra(plain):
    size, ops = plain
    sig = Signature(ops=tuple((name, arity) for name, (arity, _) in ops.items()))
    return FiniteAlgebra(sig, size, {name: t for name, (_, t) in ops.items()})


def plain_of(alg):
    return (alg.size, {name: (arity, tuple(alg.op_tables[name]))
                       for name, arity in alg.sig.ops})


# ---------------------------------------------------------------------------
# corpus

def symmetric3():
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    mul = tuple(index[tuple(p[q[i]] for i in range(3))]
                for p in perms for q in perms)
    inv = tuple(index[tuple(sorted(range(3), key=lambda i: p[i]))]
                for p in perms)
    return (6, {"mul": (2, mul), "inv": (1, inv), "e": (0, (0,))})


TANGLE5 = (5, {"mul": (2, (0, 1, 2, 3, 4, 1, 2, 1, 1, 0, 2, 1, 1, 1, 0,
                           3, 1, 1, 1, 0, 4, 0, 0, 0, 1))})


def groupoid(rng, n):
    return (n, {"mul": (2, tuple(rng.randrange(n) for _ in range(n * n)))})


def mono_unary(rng, n):
    """One random unary operation: rich congruence lattices, many homs."""
    return (n, {"f": (1, tuple(rng.randrange(n) for _ in range(n)))})


def latin_squares_4():
    """All 576 Latin squares of order 4."""
    out = []
    rows = list(permutations(range(4)))

    def extend(square):
        if len(square) == 4:
            out.append(tuple(square))
            return
        for r in rows:
            if all(r[c] != s[c] for s in square for c in range(4)):
                extend(square + [r])
    extend([])
    return out


def isotope(rng, rows):
    n = len(rows)
    a, b, c = (rng.sample(range(n), n) for _ in range(3))
    return tuple(tuple(c[rows[a[x]][b[y]]] for y in range(n)) for x in range(n))


def one_sided_unit(rows):
    identity = tuple(range(len(rows)))
    return identity in rows or identity in zip(*rows)


def latin_plain(rows):
    n = len(rows)
    return (n, {"mul": (2, tuple(v for row in rows for v in row))})


def quasigroup_algebra(rows):
    """A Latin square as a (mul, ldiv, rdiv) algebra."""
    alg = to_algebra(equasigroup_from_latin(latin_square(rows)), "quasigroup")
    return alg, plain_of(alg)


# Z5 and a non-group loop of order 5
LATIN5 = (tuple(tuple((a + b) % 5 for b in range(5)) for a in range(5)),
          ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
           (3, 2, 4, 0, 1), (4, 3, 1, 2, 0)))


# ---------------------------------------------------------------------------
# query builders shared by the in-process workloads

def outcome_of(r):
    """found, truncated or absent: how a Mal'cev search ended."""
    return ("found" if r.term is not None
            else "truncated" if r.truncated else "absent")


def count_search(tr, r):
    outcome = outcome_of(r)
    tr.add("malcev.calls")
    tr.add("malcev.tables_explored", r.tables_explored)
    tr.add(f"malcev.{outcome}")
    return outcome


def malcev_query(name, alg, plain, expect, **kwargs):
    """expect: "found" (a term must exist), "decided" (no truncation),
    or ("truncated", tables) for a search that must hit its budget."""
    def run(tr):
        r = tr.call("malcev.malcev_search", malcev_search, alg, **kwargs)
        tr.tag(outcome_of(r))
        return r

    def check(r, tr):
        outcome = count_search(tr, r)
        work = (outcome, r.tables_explored)
        if isinstance(expect, tuple):
            if outcome != "truncated" or r.tables_explored != expect[1]:
                return work, (f"expected truncation after {expect[1]} tables, "
                              f"got {outcome} after {r.tables_explored}")
            if O.all_permute(plain):
                return work, "oracle finds all congruences permuting"
            return work, None
        if r.truncated:
            return work, "search truncated where the query must be decided"
        if r.term is None:
            if expect == "found":
                return work, "no Mal'cev term found where one must exist"
            return work, None
        if plain[0] <= 4 and not O.all_permute(plain):
            return work, "term found but brute force finds non-permuting pair"
        return work, O.malcev_error(print_term(r.term), plain)
    return Query(name, run, check)


def biternary_query(name, alg, plain):
    def run(tr):
        return tr.call("malcev.detect_biternary", detect_biternary, alg)

    def check(r, tr):
        work = (r.pair is not None, r.truncated, r.tables_explored)
        if r.pair is None or r.truncated:
            return work, "no biternary pair where one must exist"
        return work, O.biternary_error(print_term(r.pair.alpha),
                                       print_term(r.pair.beta), plain)
    return Query(name, run, check)


def permutability_query(name, alg, plain, expected_count):
    """all_congruences, compose_permute on every pair, then the search,
    as check_permutability_theorem does it."""
    def run(tr):
        congs = tr.call("congruences.all_congruences", all_congruences, alg)
        flags = [tr.call("congruences.compose_permute", compose_permute,
                         congs[i], congs[j])[1]
                 for i in range(len(congs)) for j in range(i + 1, len(congs))]
        r = tr.call("malcev.malcev_search", malcev_search, alg)
        tr.tag(outcome_of(r))
        return congs, flags, r

    def check(ans, tr):
        congs, flags, r = ans
        count_lattice(tr, alg, congs)
        tr.add("congruences.permute_pairs", len(flags))
        count_search(tr, r)
        work = (len(congs), sum(flags), r.tables_explored)
        err = lattice_error([c.block_of for c in congs], plain, expected_count)
        if err:
            return work, err
        blocks = [c.block_of for c in congs]
        pairs = [(s, t) for i, s in enumerate(blocks) for t in blocks[i + 1:]]
        if flags != [O.compose(s, t) == O.compose(t, s) for s, t in pairs]:
            return work, "compose_permute disagrees with relation composition"
        if r.term is None or r.truncated or not all(flags):
            return work, "verdict is not consistent with a found term"
        return work, O.malcev_error(print_term(r.term), plain)
    return Query(name, run, check)


def count_lattice(tr, alg, congs):
    tr.add("congruences.lattice_size", len(congs))
    tr.add("congruences.principal_pairs", alg.size * (alg.size - 1) // 2)


def lattice_error(blocks, plain, expected_count):
    """Congruences must be distinct stable partitions, expected_count of
    them; on small carriers they must be every stable partition."""
    if expected_count is None:
        expected = O.congruences(plain)
        return None if blocks == expected else (
            f"{len(blocks)} congruences, brute force finds {len(expected)}")
    if len(set(blocks)) != expected_count or len(blocks) != expected_count:
        return f"{len(blocks)} congruences where {expected_count} exist"
    if not all(O.stable(plain, b) for b in blocks):
        return "a returned partition is not stable"
    return None


def lattice_query(name, alg, plain, expected_count=None):
    def run(tr):
        return tr.call("congruences.all_congruences", all_congruences, alg)

    def check(congs, tr):
        count_lattice(tr, alg, congs)
        blocks = [c.block_of for c in congs]
        return (len(blocks),), lattice_error(blocks, plain, expected_count)
    return Query(name, run, check)


def homs_query(name, a, pa, b, pb, expected_count=None):
    """Brute force decides small cases; larger ones use a closed form."""
    def run(tr):
        return tr.call("algebras.find_homomorphisms", find_homomorphisms, a, b)

    def check(maps, tr):
        tr.add("algebras.homs_found", len(maps))
        work = (len(maps),)
        if expected_count is None:
            expected = O.homomorphisms(pa, pb)
            return work, None if maps == expected else (
                f"{len(maps)} homomorphisms, brute force finds {len(expected)}")
        if len(maps) != expected_count or len(set(maps)) != len(maps):
            return work, f"{len(maps)} homomorphisms where {expected_count} exist"
        if not all(O.is_hom(phi, pa, pb) for phi in maps):
            return work, "a returned map is not a homomorphism"
        return work, None
    return Query(name, run, check)


def mulgroup_query(name, rows, side):
    n = len(rows)
    q = equasigroup_from_latin(latin_square(rows))
    plain = latin_plain(rows)

    def run(tr):
        return tr.call("quasigroups.multiplication_group",
                       multiplication_group, q, side)

    def check(g, tr):
        tr.add("quasigroups.group_order", len(g.closure))
        work = (len(g.generators), len(g.closure))
        if sorted(g.generators) != O.translations(plain, side):
            return work, "generators are not the translations"
        return work, O.closure_error(g.generators, g.closure, n)
    return Query(name, run, check)


def translation_query(name, alg, plain):
    def run(tr):
        return tr.call("malcev.translation_group", translation_group, alg)

    def check(g, tr):
        work = (len(g.generators), len(g.closure), g.truncated)
        if g.truncated:
            return work, "translation search truncated"
        return work, O.closure_error(g.generators, g.closure, plain[0])
    return Query(name, run, check)


# ---------------------------------------------------------------------------
# workload: search

def build_search(seed, tr):
    """_TableSearch-heavy: found, absent and truncated Mal'cev searches."""
    s = Setup(seed)
    s3 = s.iso(symmetric3())
    z2 = s.iso(O.cyclic(2))
    s3z2, p_s3z2 = s.product(tr, [s3, z2])
    tangle = s.iso(TANGLE5)
    z4, z24 = s.iso(O.cyclic(4)), s.iso(O.cyclic(24))
    q = [
        malcev_query("malcev.s3", algebra(s3), s3, "found"),
        malcev_query("malcev.s3xz2", s3z2, p_s3z2, "found"),
        malcev_query("malcev.tangle5", algebra(tangle), tangle,
                     ("truncated", 18270), candidate_budget=20_000),
        biternary_query("biternary.z4", algebra(z4), z4),
        biternary_query("biternary.s3", algebra(s3), s3),
        permutability_query("permutable.z24", algebra(z24), z24,
                            O.divisor_count(24)),
    ]
    for i in range(60):
        g = s.iso(groupoid(s.corpus, 3))
        q.append(malcev_query(f"malcev.groupoid{i}", algebra(g), g, "decided",
                              max_term_size=8))
    # with a one-sided unit e, x*(y\z) or (x/y)*z is a Mal'cev term, so
    # the search must find one at depth 2
    squares = [rows for rows in latin_squares_4() if one_sided_unit(rows)]
    for i in range(30):
        alg, plain = quasigroup_algebra(s.iso_rows(s.corpus.choice(squares)))
        q.append(malcev_query(f"malcev.latin{i}", alg, plain, "found"))
    for i in range(20):
        g = s.iso(groupoid(s.corpus, 3))
        q.append(translation_query(f"translations.groupoid{i}", algebra(g), g))
    s.queries = q
    return s


# ---------------------------------------------------------------------------
# workload: structure

def lattice_ops_query(name, alg, plain):
    """The lattice, then compose_permute on every pair and quotient by
    every congruence."""
    def run(tr):
        congs = tr.call("congruences.all_congruences", all_congruences, alg)
        flags = [tr.call("congruences.compose_permute", compose_permute,
                         congs[i], congs[j])[1]
                 for i in range(len(congs)) for j in range(i + 1, len(congs))]
        quotients = [tr.call("congruences.quotient", quotient, alg, c)
                     for c in congs]
        return congs, flags, quotients

    def check(ans, tr):
        congs, flags, quotients = ans
        count_lattice(tr, alg, congs)
        tr.add("congruences.permute_pairs", len(flags))
        blocks = [c.block_of for c in congs]
        work = (len(blocks), sum(flags))
        err = lattice_error(blocks, plain, None)
        if err:
            return work, err
        pairs = [(s, t) for i, s in enumerate(blocks) for t in blocks[i + 1:]]
        if flags != [O.compose(s, t) == O.compose(t, s) for s, t in pairs]:
            return work, "compose_permute disagrees with relation composition"
        for b, (qa, cmap) in zip(blocks, quotients):
            if qa.size != len(set(b)) or not O.is_hom(cmap, plain, plain_of(qa)):
                return work, "quotient map is not a homomorphism onto the blocks"
            if any((cmap[x] == cmap[y]) != (b[x] == b[y])
                   for x in range(plain[0]) for y in range(plain[0])):
                return work, "quotient map does not have the congruence as kernel"
        return work, None
    return Query(name, run, check)


def free_query(name, gen_plain, rank, kind):
    gen = algebra(gen_plain)

    def run(tr):
        return tr.call("classes.free_algebra", free_algebra, [gen], rank)

    def check(fr, tr):
        size = fr.algebra.size
        tr.add("classes.free_size", size)
        expected = O.free_size(kind, rank)
        if size != expected or len(set(fr.generator_images)) != rank:
            return (size,), f"free algebra has {size} elements, not {expected}"
        return (size,), None
    return Query(name, run, check)


def class_query(name, gen_plain, src, src_plain, homs, separated_size):
    """membership_in_closure and replica over {Z2}; homs and the replica
    size follow from group theory: Hom(A, Z2) and A / 2A."""
    gen = algebra(gen_plain)

    def run(tr):
        m = tr.call("classes.membership_in_closure", membership_in_closure,
                    [gen], src)
        r = tr.call("classes.replica", replica, [gen], src)
        return m, r

    def check(ans, tr):
        m, r = ans
        tr.add("classes.hom_count", m.hom_count + r.hom_count)
        work = (m.member, m.hom_count, r.algebra.size, r.hom_count)
        member = separated_size == src_plain[0]
        if (m.member, m.hom_count, r.hom_count) != (member, homs, homs):
            return work, (f"membership {m.member} with {m.hom_count}/"
                          f"{r.hom_count} homomorphisms, expected {member} "
                          f"with {homs}")
        if r.algebra.size != separated_size or \
                not O.is_hom(r.canonical_map, src_plain, plain_of(r.algebra)):
            return work, "replica is not the expected homomorphic image"
        return work, None
    return Query(name, run, check)


def quasiidentity_query(name, alg, plain, text):
    def run(tr):
        q = tr.call("terms.parse_quasiidentity", parse_quasiidentity, text,
                    alg.sig)
        return q, tr.call("terms.check_quasiidentity", check_quasiidentity,
                          q, alg)

    def check(ans, tr):
        q, r = ans
        tr.add("terms.parse_calls")
        tr.add("terms.assignments", alg.size ** q.variable_count)
        expected = O.associative(plain)
        return (r.holds,), None if r.holds == expected else (
            f"check says {r.holds}, table walk says {expected}")
    return Query(name, run, check)


def build_structure(seed, tr):
    """Congruence, quasigroup, class and term-evaluation heavy; no
    _TableSearch runs."""
    s = Setup(seed)
    chain8, chain3, chain2 = s.iso(O.chain(8)), s.iso(O.chain(3)), s.iso(O.chain(2))
    z2, z4, s3 = s.iso(O.cyclic(2)), s.iso(O.cyclic(4)), s.iso(symmetric3())
    z2_4, p_z2_4 = s.product(tr, [z2] * 4)
    s3s3, p_s3s3 = s.product(tr, [s3, s3])
    small = s.iso(O.product_of([O.chain(2), O.chain(3)]))
    z6 = tuple(tuple((a + b) % 6 for b in range(6)) for a in range(6))
    z6_isotope = s.iso_rows(isotope(s.corpus, z6))
    q = [
        lattice_query("lattice.chain8", algebra(chain8), chain8,
                      O.chain_lattice_size(8)),
        lattice_query("lattice.z2^4", z2_4, p_z2_4,
                      O.elementary_abelian_lattice_size(4)),
        lattice_ops_query("lattice_ops.chain2xchain3", algebra(small), small),
        mulgroup_query("mulgroup.z6_isotope", z6_isotope, "both"),
        free_query("free.z2_rank6", z2, 6, "z2"),
        free_query("free.chain2_rank5", chain2, 5, "semilattice"),
        homs_query("homs.chain8_chain3", algebra(chain8), chain8,
                   algebra(chain3), chain3, O.chain_hom_count(8, 3)),
        homs_query("homs.z2^4_z4", z2_4, p_z2_4, algebra(z4), z4,
                   O.cyclic_hom_count(4, 2, 4)),
        class_query("classes.z2^4", z2, z2_4, p_z2_4,
                    O.cyclic_hom_count(4, 2, 2), 16),
        class_query("classes.z4", z2, algebra(z4), z4,
                    O.cyclic_hom_count(1, 4, 2), 2),
        quasiidentity_query("check.assoc_s3xs3", s3s3, p_s3s3,
                            "mul(mul(x0, x1), x2) = mul(x0, mul(x1, x2))"),
    ]
    for i in range(40):
        plain = s.iso(groupoid(s.corpus, 3 + i // 4 % 2) if i % 4 == 0
                      else mono_unary(s.corpus, 5))
        q.append(lattice_query(f"lattice.random{i}", algebra(plain), plain))
    for i in range(30):
        a = s.iso(mono_unary(s.corpus, 5))
        b = s.iso(mono_unary(s.corpus, 3 + i % 2))
        q.append(homs_query(f"homs.random{i}", algebra(a), a, algebra(b), b))
    # order-5 squares mostly give S5 (about 30 ms each); with 30 of them
    # the p90 lies inside that band rather than at a gap between bands
    squares = latin_squares_4()
    for i in range(54):
        if i < 24:
            rows = s.corpus.choice(squares)
        else:
            rows = isotope(s.corpus, LATIN5[i % 2])
        q.append(mulgroup_query(f"mulgroup.latin{i}", s.iso_rows(rows),
                                ("left", "right", "both")[i % 3]))
    s.queries = q
    return s


# ---------------------------------------------------------------------------
# workload: cli

D = "demos/data/"
Z4 = O.cyclic(4)


# (name, argv, exit code, expected result fields, extra check, text the
# traced run parses with the signature of the first input file).  The
# expected values are worked out by hand: Z4 has d(4) = 3 congruences,
# Hom(Z4, Z2) has 2 maps, a semilattice such as the 3-chain has no
# Mal'cev term, qg3 with both translations gives S3, the free Z2-class algebra of
# rank 2 has 2^2 elements, and C(3+1, 1) = 4 maps take chain3 to chain2.
CLI_LINES = [
    ("parse_term", ["parse", "--sig", D + "group.sig", "mul(x0, inv(x1))"], 0,
     {"canonical": "mul(x0, inv(x1))", "size": 4, "depth": 2}, None,
     "mul(x0, inv(x1))"),
    ("parse_quasi", ["parse", "--sig", D + "group.sig",
                     "mul(x0, x1) = e => mul(x1, x0) = e",
                     "--kind", "quasiidentity"], 0,
     {"premises": 1, "variables": 2}, None,
     "mul(x0, x1) = e => mul(x1, x0) = e"),
    ("eval", ["eval", D + "z4.alg", "mul(x0, inv(x1))", "--at", "3,2"], 0,
     {"value": (3 - 2) % 4}, None, "mul(x0, inv(x1))"),
    ("check_holds", ["check", D + "z4.alg", "mul(x0, x1) = mul(x1, x0)"], 0,
     {"holds": True, "assignments": 4 ** 2}, None,
     "mul(x0, x1) = mul(x1, x0)"),
    ("check_fails", ["check", D + "chain3.alg",
                     "meet(x0, x1) = meet(x0, x2) => x1 = x2"], 0,
     {"holds": False, "assignments": 3 ** 3, "witness": [0, 0, 1]}, None,
     "meet(x0, x1) = meet(x0, x2) => x1 = x2"),
    ("subalg", ["subalg", D + "z4.alg", "--seed", "2"], 0,
     {"elements": [0, 2], "size": 2}, None, None),
    ("homs", ["homs", D + "z4.alg", D + "z2.alg"], 0,
     {"count": 2}, lambda r: None if sorted(m["map"] for m in r["maps"]) ==
     [[0, 0, 0, 0], [0, 1, 0, 1]] else "wrong maps", None),
    ("congruences", ["congruences", D + "z4.alg"], 0,
     {"count": O.divisor_count(4)}, None, None),
    ("permutable", ["permutable", D + "z4.alg"], 0,
     {"congruences": 3, "pairs": 3, "non_permuting": []}, None, None),
    ("permutable_fails", ["permutable", D + "tangle5.alg"], 0,
     {"congruences": 5, "pairs": 10},
     lambda r: None if len(r["non_permuting"]) == 1 else "wrong pairs", None),
    ("quotient", ["quotient", D + "z4.alg", "--by", "0 2 | 1 3"], 0,
     {"size": 2, "canonical_map": [0, 1, 0, 1]}, None, None),
    ("malcev_found", ["malcev", D + "z4.alg"], 0,
     {"found": True}, lambda r: O.malcev_error(r["term"], Z4), None),
    ("malcev_none", ["malcev", D + "chain3.alg", "--depth", "4"], 0,
     {"found": False}, None, None),
    ("biternary", ["biternary", D + "z4.alg"], 0, {"found": True},
     lambda r: O.biternary_error(r["alpha"], r["beta"], Z4), None),
    ("translations", ["translations", D + "z4.alg"], 0,
     {"closure_size": 8, "transitive": True}, None, None),
    ("qg_verify", ["quasigroup", "verify", D + "qg3.alg"], 0,
     {"latin": True, "order": 3}, None, None),
    ("qg_verify_fails", ["quasigroup", "verify", D + "chain3.alg"], 0,
     {"latin": False}, None, None),
    ("qg_mulgroup", ["quasigroup", "mulgroup", D + "qg3.alg", "--side", "both"],
     0, {"order": 6, "transitive": True}, None, None),
    ("qg_malcev", ["quasigroup", "malcev", D + "qg3.alg"], 0,
     {"flavor": "quasigroup"}, lambda r: None if r.get("term") else "no term",
     None),
    ("qg_rectify", ["quasigroup", "rectify", D + "qg3u.alg"], 0,
     {"holds": True, "unit": 0}, None, None),
    ("free", ["free", D + "boolean.cls", "--rank", "2"], 0,
     {"size": O.free_size("z2", 2)}, None, None),
    ("present", ["present", D + "boolean.cls", "--rank", "2",
                 "--relation", "mul(x0, x1) = x0"], 0, {"size": 2}, None,
     "mul(x0, x1) = x0"),
    ("replica", ["replica", D + "chain.cls", D + "chain3.alg"], 0,
     {"size": 3, "hom_count": O.chain_hom_count(3, 2)}, None, None),
    ("member_yes", ["member", D + "chain.cls", D + "chain3.alg"], 0,
     {"member": True, "homomorphisms": 4}, None, None),
    ("member_unseparated", ["member", D + "chain.cls", D + "flat2.alg"], 0,
     {"member": False}, lambda r: None if r["witness"]["kind"] ==
     "unseparated" else "wrong witness", None),
    ("member_forced_predicate", ["member", D + "chainp.cls", D + "diag2p.alg"],
     0, {"member": False}, lambda r: None if r["witness"]["kind"] ==
     "forced_predicate" else "wrong witness", None),
    # the exit-code contract
    ("assert_holds", ["member", D + "chain.cls", D + "chain3.alg", "--assert"],
     0, {"member": True}, None, None),
    ("assert_fails", ["member", D + "chain.cls", D + "flat2.alg", "--assert"],
     1, {"member": False}, None, None),
    ("syntax_error", ["parse", "--sig", D + "group.sig", "mul(x0"], 2,
     None, None, "mul(x0"),
    ("missing_file", ["malcev", D + "absent.alg"], 2, None, None, None),
    ("unstable_partition", ["quotient", D + "z4.alg", "--by", "0 1 | 2 3"], 2,
     None, None, None),
    ("budget", ["free", D + "boolean.cls", "--rank", "2",
                "--max-product", "3"], 3, None, None, None),
]

LOADERS = {".alg": ("fileformat.load_algebra", load_algebra),
           ".cls": ("fileformat.load_class", load_class),
           ".sig": ("fileformat.load_signature", load_signature)}


def signature_of(loaded):
    if isinstance(loaded, Signature):
        return loaded
    if isinstance(loaded, ClassDefinition):
        return loaded.algebras[0].sig
    return loaded.sig


def cli_query(name, argv, code, fields, extra, parse_text):
    argv = argv + ["--format", "machine"]

    def run(tr):
        return tr.call("cli.subprocess", subprocess.run,
                       [sys.executable, "-m", "malcevlab.cli", *argv],
                       capture_output=True, text=True, timeout=120)

    def check(proc, tr):
        work = (proc.returncode, hashlib.sha256(proc.stdout.encode()).hexdigest())
        return work, cli_error(proc.returncode, proc.stdout, proc.stderr)

    def cli_error(got, out, err):
        if got != code:
            return f"exit {got}, expected {code}: {err.strip()[-200:]}"
        if "Traceback" in err:
            return "traceback on stderr"
        if fields is None:
            return "output on stdout" if out else None
        result = json.loads(out)["result"]
        for key, value in fields.items():
            if result.get(key) != value:
                return f"result[{key!r}] = {result.get(key)!r}, expected {value!r}"
        return extra(result) if extra else None

    def traced_extra(tr):
        """The layers of the line, called in-process."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = tr.call("cli.main", cli_main, argv)
        sig = None
        for arg in argv:
            loader = LOADERS.get(os.path.splitext(arg)[1])
            if loader and os.path.exists(arg):
                loaded = tr.call(*loader, arg)
                tr.add("fileformat.files")
                if sig is None:
                    sig = signature_of(loaded)
        if parse_text is not None:
            tr.add("terms.parse_calls")
            name, fn = (("terms.parse_quasiidentity", parse_quasiidentity)
                        if "=" in parse_text else ("terms.parse_term", parse_term))
            with contextlib.suppress(MalcevLabError):
                tr.call(name, fn, parse_text, sig)
        return cli_error(got, out.getvalue(), err.getvalue())

    return Query(name, run, check, traced_extra)


def build_cli(seed, tr):
    """The malcev-lab command end to end: start-up, file reading and
    report building in one subprocess per line."""
    s = Setup(seed)
    lines = list(CLI_LINES)
    s.rng.shuffle(lines)
    for name, *_ in lines:
        s.record(name)
    for path in sorted(os.listdir(D)):
        with open(D + path, "rb") as f:
            s.record(f.read())
    s.queries = [cli_query(*line) for line in lines]
    return s


BUILDERS = {"cli": build_cli, "search": build_search, "structure": build_structure}
