"""Free algebras, presentations, replicas, and closure membership.

Every construction here works relative to a finite family of generator
algebras sharing one signature, and stays inside the class those
generators determine (closed under subalgebras and finite products).
The free algebra of rank m is realized concretely: one product factor
per (generator, assignment of the m variables), with the i-th free
generator mapping to the tuple of values of x_i.  Elements are tuples,
generated coordinatewise, and the full product is never materialized.
Generation fills the operation tables as it goes: each argument tuple
over the final carrier is evaluated exactly once, and no second pass
over size**arity tuples follows.

A presentation restricts the factors to the assignments satisfying the
relations; with no factors left the construction degenerates to the
one-element system (an empty product), which is exactly the right
answer.  Replicas go the other way: the canonical image of an arbitrary
system inside the class, obtained through the diagonal of all
homomorphisms into the generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from operator import getitem
from typing import Optional, Sequence

from .algebras import (DEFAULT_HOM_BUDGET, FiniteAlgebra, find_homomorphisms,
                       flat_index, is_homomorphism, is_unitary)
from .errors import (AlgebraMismatch, SizeBound, SizeOverflow,
                     TrivialClassRankConflict)
from .terms import Formula, compile_evaluator

DEFAULT_SIZE_BOUND = 10_000


@dataclass(frozen=True)
class FreeAlgebra:
    """A free (or presented) algebra with its concrete realization.

    algebra carries the result; element i of its carrier is the product
    tuple elements[i] over factors, where factors[j] = (generator index,
    variable assignment).  generator_images give the carrier indices of
    the free generators x0..x{rank-1}; steps record one derivation of
    each element — ("gen", i), ("const", op) or ("op", name, arg
    indices) — used to extend generator assignments to homomorphisms.
    """

    algebra: FiniteAlgebra
    rank: int
    generator_images: tuple[int, ...]
    factors: tuple[tuple[int, tuple[int, ...]], ...]
    elements: tuple[tuple[int, ...], ...]
    steps: tuple[tuple, ...]
    relations: tuple[Formula, ...] = ()


def _check_family(generators: Sequence[FiniteAlgebra]) -> None:
    if not generators:
        raise ValueError("at least one generator algebra is required")
    sig = generators[0].sig
    for g in generators[1:]:
        if g.sig != sig:
            raise AlgebraMismatch("generator algebras must share a signature")


def free_algebra(generators: Sequence[FiniteAlgebra], rank: int, *,
                 size_bound: int = DEFAULT_SIZE_BOUND) -> FreeAlgebra:
    """Free algebra of the given rank over the class of the generators.

    Raises SizeBound if generation exceeds size_bound elements, and
    TrivialClassRankConflict when rank > 1 while every generator is
    one-element with all predicates true: such a class cannot tell the
    free generators apart.
    """
    return presented_algebra(generators, rank, (), size_bound=size_bound)


def _row_binder(tables, sizes, factors, elements, arity):
    """Coordinatewise lookup into one operation or predicate.

    tables[gi] is the symbol's table in generator gi, of arity >= 1.
    Returns bind(prefix): for each factor, the row of its generator's
    table selected by that factor's coordinates of the elements at the
    prefix indices, the leading arity-1 arguments.  Indexing these rows
    coordinatewise by the last argument's element gives the value
    tuple.  Rows are cut once per generator; arity 1 and 2 need no
    flat_index per coordinate.
    """
    rows_of = [[t[i * n:(i + 1) * n] for i in range(n**(arity - 1))]
               for t, n in zip(tables, sizes)]
    rowsets = [rows_of[gi] for gi, _ in factors]
    if arity == 1:
        whole = [rs[0] for rs in rowsets]
        return lambda prefix: whole
    if arity == 2:
        return lambda prefix: list(
            map(getitem, rowsets, elements[prefix[0]]))
    factor_sizes = [sizes[gi] for gi, _ in factors]
    return lambda prefix: [
        rs[flat_index(coords, n)] for rs, n, coords in
        zip(rowsets, factor_sizes, zip(*(elements[p] for p in prefix)))]


def presented_algebra(generators: Sequence[FiniteAlgebra], rank: int,
                      relations: Sequence[Formula], *,
                      size_bound: int = DEFAULT_SIZE_BOUND) -> FreeAlgebra:
    """Algebra presented by rank generators and the given relations.

    Relations are formulas over x0..x{rank-1}; each product factor is a
    (generator, assignment) pair whose assignment satisfies all of
    them.  An unsatisfiable presentation leaves no factors and yields
    the one-element system.  Relations are compiled once per generator
    (compile_evaluator), so a symbol missing from the generators raises
    SignatureMismatch before any assignment is tried.

    Elements are numbered in discovery order: the free generators, the
    constants, then round after round the new results of applying each
    operation, in signature order, to the argument tuples in
    lexicographic order.  steps records the first derivation of each.
    """
    _check_family(generators)
    if rank < 0:
        raise ValueError("rank must be nonnegative")
    sig = generators[0].sig
    if rank > 1 and all(is_unitary(g) for g in generators):
        raise TrivialClassRankConflict(
            f"all generator algebras are one-element with all predicates "
            f"true; rank {rank} generators cannot be separated")
    relations = tuple(relations)
    width = sum(g.size**rank for g in generators)
    if width > size_bound:
        raise SizeOverflow(
            f"{width} assignment tuples over the generators exceed the "
            f"size bound {size_bound}")
    factors: list[tuple[int, tuple[int, ...]]] = []
    for gi, g in enumerate(generators):
        checks = [compile_evaluator(rel, g, rank) for rel in relations]
        for assignment in product(range(g.size), repeat=rank):
            if all(check(assignment) for check in checks):
                factors.append((gi, assignment))

    # generate the subalgebra of the (virtual) product from the free
    # generator tuples; elements are indexed in discovery order
    seeds = [tuple(assignment[i] for _, assignment in factors)
             for i in range(rank)]
    elements: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    steps: list[tuple] = []
    gen_images = []

    def add(elem: tuple[int, ...], step: tuple) -> int:
        known = index.get(elem)
        if known is not None:
            return known
        if len(elements) >= size_bound:
            raise SizeBound(
                f"presented algebra exceeds the size bound {size_bound}")
        index[elem] = len(elements)
        elements.append(elem)
        steps.append(step)
        return len(elements) - 1

    # Each round applies the operations to every argument tuple over the
    # elements known at its start that involves a new one, in
    # lexicographic order.  rows[name] nests arity-1 levels of lists
    # indexed by the leading arguments; each innermost row holds the
    # results for the last argument 0, 1, ... and is extended in place,
    # so every tuple is evaluated once and the rows become the table.
    rows: dict[str, list] = {name: [] for name, _ in sig.ops}
    for i, seed in enumerate(seeds):
        gen_images.append(add(seed, ("gen", i)))
    for name, arity in sig.ops:
        if arity == 0:
            vec = tuple(generators[gi].op_tables[name][0]
                        for gi, _ in factors)
            rows[name].append(add(vec, ("const", name)))
    if not elements:
        raise ValueError(
            "rank 0 with no constant operations generates nothing")

    sizes = [g.size for g in generators]
    binders = {name: _row_binder([g.op_tables[name] for g in generators],
                                 sizes, factors, elements, arity)
               for name, arity in sig.ops if arity}
    while True:
        known = len(elements)
        for name, arity in sig.ops:
            if arity == 0:
                continue
            bind = binders[name]
            for prefix in product(range(known), repeat=arity - 1):
                row = rows[name]
                for a in prefix:
                    if a == len(row):
                        row.append([])
                    row = row[a]
                bound = bind(prefix)
                for b in range(len(row), known):
                    vec = tuple(map(getitem, bound, elements[b]))
                    idx = index.get(vec)
                    if idx is None:
                        idx = add(vec, ("op", name, prefix + (b,)))
                    row.append(idx)
        if len(elements) == known:
            break

    size = len(elements)
    op_tables = {}
    for name, arity in sig.ops:
        table = rows[name]
        for _ in range(arity - 1):
            table = chain.from_iterable(table)
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in sig.preds:
        if arity == 0:
            pred_tables[name] = (all(generators[gi].pred_tables[name][0]
                                     for gi, _ in factors),)
            continue
        bind = _row_binder([g.pred_tables[name] for g in generators],
                           sizes, factors, elements, arity)
        table = []
        for prefix in product(range(size), repeat=arity - 1):
            bound = bind(prefix)
            table.extend(all(map(getitem, bound, elem)) for elem in elements)
        pred_tables[name] = tuple(table)
    alg = FiniteAlgebra(sig, size, op_tables, pred_tables)
    return FreeAlgebra(alg, rank, tuple(gen_images), tuple(factors),
                       tuple(elements), tuple(steps), relations)


# ---------------------------------------------------------------------------
# universal property

@dataclass(frozen=True)
class UniversalPropertyReport:
    """Outcome of checking the defining property of a free algebra.

    For every target and every assignment of the free generators, a
    compatible homomorphism must exist exactly when the assignment
    satisfies the relations, and then be unique.  failures lists
    human-readable descriptions of any counterexamples.
    """

    holds: bool
    targets_checked: int
    assignments_checked: int
    failures: tuple[str, ...]


def extend_assignment(fr: FreeAlgebra, target: FiniteAlgebra,
                      assignment: Sequence[int]) -> tuple[int, ...]:
    """Propagate generator images through the recorded derivations.

    Returns the unique candidate map; whether it is a homomorphism
    depends on the assignment satisfying the relations.
    """
    values: list[int] = []
    for step in fr.steps:
        if step[0] == "gen":
            values.append(assignment[step[1]])
        elif step[0] == "const":
            values.append(target.op_tables[step[1]][0])
        else:
            _, name, combo = step
            args = tuple(values[c] for c in combo)
            values.append(target.op_tables[name][flat_index(args, target.size)])
    return tuple(values)


def verify_universal_property(fr: FreeAlgebra,
                              targets: Sequence[FiniteAlgebra], *,
                              budget: int = DEFAULT_HOM_BUDGET
                              ) -> UniversalPropertyReport:
    """Check existence and uniqueness of extensions into each target.

    Every generator assignment into a target is classified by whether
    it satisfies the relations; satisfying assignments must extend to
    exactly one homomorphism, violating ones to none.  The count is
    cross-checked against an independent enumeration of all
    homomorphisms from the realized algebra.
    """
    failures: list[str] = []
    assignments_checked = 0
    for t_index, target in enumerate(targets):
        if target.sig != fr.algebra.sig:
            raise AlgebraMismatch("target signature differs from the class")
        all_homs = find_homomorphisms(fr.algebra, target, budget=budget)
        by_gen_image: dict[tuple[int, ...], int] = {}
        for h in all_homs:
            key = tuple(h[g] for g in fr.generator_images)
            by_gen_image[key] = by_gen_image.get(key, 0) + 1
        checks = [compile_evaluator(rel, target, fr.rank)
                  for rel in fr.relations]
        for assignment in product(range(target.size), repeat=fr.rank):
            assignments_checked += 1
            satisfied = all(check(assignment) for check in checks)
            candidate = extend_assignment(fr, target, assignment)
            extends = is_homomorphism(candidate, fr.algebra, target)
            expected = 1 if satisfied else 0
            found = by_gen_image.get(tuple(assignment), 0)
            if extends != bool(expected):
                failures.append(
                    f"target {t_index}: assignment {assignment} "
                    f"{'should' if expected else 'should not'} extend")
            if found != expected:
                failures.append(
                    f"target {t_index}: assignment {assignment} has {found} "
                    f"extensions, expected {expected}")
    return UniversalPropertyReport(not failures, len(targets),
                                   assignments_checked, tuple(failures))


# ---------------------------------------------------------------------------
# replicas

@dataclass(frozen=True)
class Replica:
    """Canonical image of a system inside the class of the generators.

    canonical_map sends each source element to its class in the
    replica; two elements merge exactly when no homomorphism into a
    generator separates them.  hom_count is the number of
    homomorphisms used (the factors of the diagonal).
    """

    algebra: FiniteAlgebra
    canonical_map: tuple[int, ...]
    hom_count: int


def replica(generators: Sequence[FiniteAlgebra], source: FiniteAlgebra, *,
            budget: int = DEFAULT_HOM_BUDGET) -> Replica:
    """Image of the source under the diagonal of all homomorphisms.

    Operations descend along the diagonal; predicates hold in the
    replica exactly when they hold in every coordinate, which is the
    strongest interpretation making every projection a homomorphism.
    With no homomorphisms at all the diagonal is the empty tuple and
    the replica is the one-element system.
    """
    _check_family(generators)
    if source.sig != generators[0].sig:
        raise AlgebraMismatch("source signature differs from the class")
    homs: list[tuple[int, ...]] = []
    hom_target: list[FiniteAlgebra] = []
    for g in generators:
        for h in find_homomorphisms(source, g, budget=budget):
            homs.append(h)
            hom_target.append(g)
    diag = [tuple(h[a] for h in homs) for a in range(source.size)]
    carrier: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for d in diag:
        if d not in index:
            index[d] = len(carrier)
            carrier.append(d)
    cmap = tuple(index[d] for d in diag)
    size = len(carrier)
    reps = [cmap.index(i) for i in range(size)]

    op_tables = {}
    for name, arity in source.sig.ops:
        table = []
        for combo in product(range(size), repeat=arity):
            args = tuple(reps[c] for c in combo)
            value = source.op_tables[name][flat_index(args, source.size)]
            table.append(cmap[value])
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in source.sig.preds:
        table = []
        for combo in product(range(size), repeat=arity):
            holds = all(
                t.pred_tables[name][flat_index(
                    tuple(carrier[c][j] for c in combo), t.size)]
                for j, t in enumerate(hom_target))
            table.append(bool(holds))
        pred_tables[name] = tuple(table)
    alg = FiniteAlgebra(source.sig, size, op_tables, pred_tables)
    if not is_homomorphism(cmap, source, alg):
        raise AssertionError("canonical map fails to be a homomorphism")
    for j, t in enumerate(hom_target):
        proj = tuple(carrier[i][j] for i in range(size))
        if not is_homomorphism(proj, alg, t):
            raise AssertionError("a projection fails to be a homomorphism")
    return Replica(alg, cmap, len(homs))


# ---------------------------------------------------------------------------
# closure membership

@dataclass(frozen=True)
class MembershipReport:
    """Exact decision for membership in the class of the generators.

    A finite system embeds into a product of generator algebras iff
    homomorphisms into the generators separate its elements and jointly
    reflect its predicates; witness carries the obstruction when they
    do not ("unseparated", a, b) or ("forced_predicate", name, args).
    """

    member: bool
    hom_count: int
    witness: Optional[tuple]


def membership_in_closure(generators: Sequence[FiniteAlgebra],
                          candidate: FiniteAlgebra, *,
                          budget: int = DEFAULT_HOM_BUDGET
                          ) -> MembershipReport:
    """Decide whether candidate lies in the class of the generators."""
    _check_family(generators)
    if candidate.sig != generators[0].sig:
        raise AlgebraMismatch("candidate signature differs from the class")
    homs: list[tuple[int, ...]] = []
    hom_target: list[FiniteAlgebra] = []
    for g in generators:
        for h in find_homomorphisms(candidate, g, budget=budget):
            homs.append(h)
            hom_target.append(g)
    for a in range(candidate.size):
        for b in range(a + 1, candidate.size):
            if all(h[a] == h[b] for h in homs):
                return MembershipReport(False, len(homs),
                                        ("unseparated", a, b))
    for name, arity in candidate.sig.preds:
        for combo in product(range(candidate.size), repeat=arity):
            if candidate.pred_tables[name][flat_index(combo, candidate.size)]:
                continue
            if all(t.pred_tables[name][flat_index(
                    tuple(h[c] for c in combo), t.size)]
                    for h, t in zip(homs, hom_target)):
                return MembershipReport(False, len(homs),
                                        ("forced_predicate", name, combo))
    return MembershipReport(True, len(homs), None)
