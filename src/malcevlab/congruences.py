"""Congruences of finite algebras: generation, enumeration, quotients.

A congruence is an equivalence relation stable under every operation.
Partitions are normalized so each element maps to the least element of
its block; that tuple doubles as the canonical sort key.  Predicates
play no role in stability, but they do transfer to quotients: a
predicate holds on blocks iff it holds on some choice of representatives
(one per block, independently).

Con(A) is a sublattice of the partition lattice Eq(A): the join of two
congruences is their plain partition join, and the whole lattice is the
join-closure of the principal congruences Cg(a, b) (Freese, Computing
congruences efficiently, Algebra Universalis 59, 2008).  Enumerating it
is bounded by a budget on joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Iterable, Sequence

from .algebras import FiniteAlgebra, flat_index, is_homomorphism
from .errors import (AlgebraMismatch, NotAHomomorphism, NotStable,
                     SearchBudgetExceeded)

# default bound on the joins all_congruences may perform
DEFAULT_LATTICE_BUDGET = 1_000_000


@dataclass(frozen=True)
class Congruence:
    """A stable partition of an algebra's carrier.

    block_of[x] is the least element of x's block.  Congruences over the
    same algebra compare and hash by this tuple.
    """

    algebra: FiniteAlgebra = field(compare=False)
    block_of: tuple[int, ...]

    def __post_init__(self):
        n = self.algebra.size
        if len(self.block_of) != n:
            raise ValueError("partition must cover the carrier")
        for x, r in enumerate(self.block_of):
            if not (0 <= r <= x) or self.block_of[r] != r:
                raise ValueError("block ids must be least block members")

    def blocks(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for x, r in enumerate(self.block_of):
            out.setdefault(r, []).append(x)
        return [out[r] for r in sorted(out)]

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b)
            for a in range(len(self.block_of))
            for b in range(len(self.block_of))
            if self.block_of[a] == self.block_of[b])

    def is_identity(self) -> bool:
        return all(r == x for x, r in enumerate(self.block_of))

    def is_full(self) -> bool:
        return all(r == 0 for r in self.block_of)

    def __str__(self):
        inner = ",".join(
            "{" + ",".join(str(x) for x in blk) + "}" for blk in self.blocks())
        return "{" + inner + "}"


def _root(parent: Sequence[int], x: int) -> int:
    while parent[x] != x:
        x = parent[x]
    return x


def _normalize(parent: Sequence[int]) -> tuple[int, ...]:
    """Collapse a union-find parent array to least-member block ids.

    Every union here hangs the larger root under the smaller, so
    parent[x] <= x and each root is the least member of its block; one
    ascending pass then resolves every element through its parent.
    """
    block_of = list(parent)
    for x, p in enumerate(parent):
        block_of[x] = block_of[p]
    return tuple(block_of)


def partition_congruence(alg: FiniteAlgebra, blocks: Iterable[Iterable[int]]) -> Congruence:
    """Congruence from explicit blocks; raises NotStable if not stable."""
    block_of = [-1] * alg.size
    for blk in blocks:
        least = min(blk)
        for x in blk:
            if block_of[x] != -1:
                raise ValueError(f"element {x} in two blocks")
            block_of[x] = least
    if any(r == -1 for r in block_of):
        raise ValueError("blocks do not cover the carrier")
    cong = Congruence(alg, tuple(block_of))
    if not is_stable_partition(alg, cong.block_of):
        raise NotStable("partition is not stable under the operations")
    return cong


def identity_congruence(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def full_congruence(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def is_stable_partition(alg: FiniteAlgebra, block_of: Sequence[int]) -> bool:
    """Does x ~ y force f(..x..) ~ f(..y..) for every operation and context?
    Checked directly from the definition over all argument tuples."""
    n = alg.size
    for name, arity in alg.sig.ops:
        table = alg.op_tables[name]
        for args in product(range(n), repeat=arity):
            v = block_of[table[flat_index(args, n)]]
            for pos in range(arity):
                x = args[pos]
                for y in range(n):
                    if y == x or block_of[y] != block_of[x]:
                        continue
                    alt = args[:pos] + (y,) + args[pos + 1:]
                    if block_of[table[flat_index(alt, n)]] != v:
                        return False
    return True


def _translation_rows(alg: FiniteAlgebra) -> list[tuple[int, ...]]:
    """Each distinct basic translation x -> f(c.., x, ..c), as its row of
    values over the carrier, once.  Constant rows and the identity are
    left out: they never relate two new elements."""
    n = alg.size
    ident = tuple(range(n))
    rows: dict[tuple[int, ...], None] = {}
    for name, arity in alg.sig.ops:
        table = alg.op_tables[name]
        for pos in range(arity):
            stride = n**(arity - 1 - pos)
            for context in product(range(n), repeat=arity - 1):
                start = flat_index(context[:pos] + (0,) + context[pos:], n)
                row = tuple(table[start:start + n * stride:stride])
                if row != ident and len(set(row)) > 1:
                    rows[row] = None
    return list(rows)


def _generated_partition(n: int, rows: Sequence[Sequence[int]],
                         pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """block_of of the least partition relating the pairs and closed
    under the given translation rows."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    work = [(a, b) for a, b in pairs]
    for a, b in work:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a},{b}) outside carrier")
    while work:
        a, b = work.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[max(ra, rb)] = min(ra, rb)
        for row in rows:
            fa, fb = row[a], row[b]
            if find(fa) != find(fb):
                work.append((fa, fb))
    return _normalize(parent)


def congruence_generated_by(alg: FiniteAlgebra,
                            pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence relating every given pair.

    Union-find plus a worklist: whenever two classes merge, their images
    under every basic translation x -> f(c.., x, ..c) merge too (a
    partition closed under these is stable, Mal'cev's lemma).  Each
    productive merge enqueues finitely many pairs, so this terminates;
    the empty pair set yields the identity congruence.
    """
    return Congruence(alg, _generated_partition(
        alg.size, _translation_rows(alg), pairs))


def _join_partitions(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    parent = list(x)  # parent[e] <= e, so every walk ends
    for e, r in enumerate(y):
        if r != e:
            a, b = _root(parent, e), _root(parent, r)
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
    return _normalize(parent)


def join(theta: Congruence, xi: Congruence) -> Congruence:
    """Least congruence containing both: their join as partitions.

    Union-find over the two block_of tuples.  The partition join of two
    congruences is already stable (Con(A) is a sublattice of Eq(A)), so
    no generation step is needed.
    """
    if theta.algebra is not xi.algebra and theta.algebra != xi.algebra:
        raise AlgebraMismatch("join needs congruences of one algebra")
    return Congruence(theta.algebra,
                      _join_partitions(theta.block_of, xi.block_of))


def all_congruences(alg: FiniteAlgebra, *,
                    budget: int = DEFAULT_LATTICE_BUDGET) -> list[Congruence]:
    """Every congruence, as the join-closure of the principal congruences.

    Every congruence is the join of the principal congruences it
    contains, so joining each newly found congruence with each distinct
    principal congruence reaches the whole lattice; two non-principal
    congruences are never joined.  The translation rows are listed once
    for all principal congruences, and joins run on plain block_of
    tuples.  budget bounds the number of joins; past it
    SearchBudgetExceeded is raised.  Returns the lattice sorted by the
    canonical partition key.
    """
    n = alg.size
    rows = _translation_rows(alg)
    generators = list(dict.fromkeys(
        _generated_partition(n, rows, [(a, b)])
        for a in range(n) for b in range(a + 1, n)))
    found = set(generators)
    found.add(tuple(range(n)))
    frontier = generators
    joins = 0
    while frontier:
        fresh = []
        for c in frontier:
            for p in generators:
                if joins == budget:
                    raise SearchBudgetExceeded(
                        f"lattice budget of {budget} joins exhausted after "
                        f"{joins} joins with {len(found)} congruences found")
                joins += 1
                j = _join_partitions(c, p)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        frontier = fresh
    return [Congruence(alg, k) for k in sorted(found)]


# ---------------------------------------------------------------------------
# composition and permutability

def compose_relation(theta: Congruence, xi: Congruence) -> frozenset[tuple[int, int]]:
    """Relational composition: (a, c) with a theta b and b xi c for some b."""
    if theta.algebra is not xi.algebra and theta.algebra != xi.algebra:
        raise AlgebraMismatch("composition needs congruences of one algebra")
    xi_blocks: dict[int, list[int]] = {}
    for x, r in enumerate(xi.block_of):
        xi_blocks.setdefault(r, []).append(x)
    pairs = set()
    theta_blocks = theta.blocks()
    for blk in theta_blocks:
        reach = set()
        for b in blk:
            reach.update(xi_blocks[xi.block_of[b]])
        for a in blk:
            for c in reach:
                pairs.add((a, c))
    return frozenset(pairs)


def compose_permute(theta: Congruence, xi: Congruence):
    """(composition theta o xi, True iff theta o xi == xi o theta)."""
    forward = compose_relation(theta, xi)
    backward = compose_relation(xi, theta)
    return forward, forward == backward


def non_permuting_pairs(congs: Sequence[Congruence]
                        ) -> list[tuple[Congruence, Congruence]]:
    """The pairs (congs[i], congs[j]) with i < j that do not permute,
    in that order."""
    return [(theta, xi) for theta, xi in combinations(congs, 2)
            if not compose_permute(theta, xi)[1]]


# ---------------------------------------------------------------------------
# quotients and kernels

def quotient(alg: FiniteAlgebra, theta: Congruence):
    """Quotient system and the canonical map onto it.

    Blocks are indexed in order of their least elements.  Operations act
    through representatives and are re-verified to be independent of the
    choice (NotStable otherwise).  A predicate holds on a block tuple iff
    it holds for some choice of members, one from each block.
    """
    if theta.algebra is not alg and theta.algebra != alg:
        raise AlgebraMismatch("congruence belongs to a different algebra")
    reps = sorted(set(theta.block_of))
    index = {r: i for i, r in enumerate(reps)}
    canonical = tuple(index[r] for r in theta.block_of)
    k = len(reps)
    members: list[list[int]] = [[] for _ in range(k)]
    for x in range(alg.size):
        members[canonical[x]].append(x)
    op_tables = {}
    for name, arity in alg.sig.ops:
        table = []
        for blocks_args in product(range(k), repeat=arity):
            rep_args = tuple(reps[i] for i in blocks_args)
            value = canonical[alg.op_value(name, rep_args)]
            # well-definedness: every member choice lands in the same block
            for choice in product(*(members[i] for i in blocks_args)):
                if canonical[alg.op_value(name, choice)] != value:
                    raise NotStable(
                        f"operation {name!r} not constant on blocks")
            table.append(value)
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in alg.sig.preds:
        table = []
        for blocks_args in product(range(k), repeat=arity):
            table.append(any(
                alg.pred_value(name, choice)
                for choice in product(*(members[i] for i in blocks_args))))
        pred_tables[name] = tuple(table)
    q = FiniteAlgebra(alg.sig, k, op_tables, pred_tables)
    return q, canonical


def kernel(phi: Sequence[int], a: FiniteAlgebra, b: FiniteAlgebra) -> Congruence:
    """Congruence identifying elements with equal phi-images.

    phi must be a homomorphism a -> b (verified; NotAHomomorphism if not)."""
    if not is_homomorphism(phi, a, b):
        raise NotAHomomorphism("kernel of a non-homomorphism")
    first: dict[int, int] = {}
    block_of = []
    for x in range(a.size):
        y = phi[x]
        if y not in first:
            first[y] = x
        block_of.append(first[y])
    return Congruence(a, tuple(block_of))
