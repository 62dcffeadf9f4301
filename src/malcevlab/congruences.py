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
congruences efficiently, Algebra Universalis 59, 2008).  By Mal'cev's
lemma Cg(a, b) is the equivalence generated by the pairs {t(a), t(b)},
t a composite of basic translations x -> f(c.., x, ..c): the pairs
reachable from {a, b} in the pair graph.  One pass over that graph's
strongly connected components (_principal_partitions) gives the
principal congruences of any set of pairs: all_congruences takes every
pair, congruence_generated_by joins those of its own pairs.
Enumerating the lattice is bounded by a budget on joins.
"""

from __future__ import annotations

from itertools import chain, combinations, product
from operator import add, eq
from typing import Iterable, Sequence

from .algebras import (FiniteAlgebra, _image_table, _read_through,
                       flat_index, is_homomorphism)
from .errors import (AlgebraMismatch, NotAHomomorphism, NotStable, Record,
                     SearchBudgetExceeded)

# default bound on the joins all_congruences may perform
DEFAULT_LATTICE_BUDGET = 1_000_000


class Congruence(Record):
    """A stable partition of an algebra's carrier.

    block_of[x] is the least element of x's block.  Congruences over the
    same algebra compare and hash by this tuple.
    """

    __slots__ = ("algebra", "block_of")

    def __init__(self, algebra: FiniteAlgebra, block_of: tuple[int, ...]):
        if len(block_of) != algebra.size:
            raise ValueError("partition must cover the carrier")
        for x, r in enumerate(block_of):
            if not (0 <= r <= x) or block_of[r] != r:
                raise ValueError("block ids must be least block members")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "block_of", block_of)

    def _key(self) -> tuple:
        return (self.block_of,)

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
    """Congruence from explicit blocks; raises NotStable if not stable,
    and ValueError if the blocks do not partition the carrier."""
    cong = Congruence(alg, _block_of(blocks, alg.size))
    if not is_stable_partition(alg, cong.block_of):
        raise NotStable("partition is not stable under the operations")
    return cong


def _block_of(blocks: Iterable[Iterable[int]], size: int) -> tuple[int, ...]:
    """The least member of each element's block; ValueError names the
    first element or block that keeps blocks from partitioning 0..size-1."""
    block_of = [-1] * size
    for blk in map(list, blocks):
        if not blk:
            raise ValueError("empty block")
        least = min(blk)
        for x in blk:
            if not 0 <= x < size:
                raise ValueError(
                    f"element {x} outside the carrier 0..{size - 1}")
            if block_of[x] != -1:
                raise ValueError(f"element {x} in two blocks")
            block_of[x] = least
    missing = [x for x, r in enumerate(block_of) if r == -1]
    if missing:
        raise ValueError(f"partition misses elements {missing}")
    return tuple(block_of)


def identity_congruence(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, tuple(range(alg.size)))


def full_congruence(alg: FiniteAlgebra) -> Congruence:
    return Congruence(alg, (0,) * alg.size)


def is_stable_partition(alg: FiniteAlgebra, block_of: Sequence[int]) -> bool:
    """Does x ~ y force f(..x..) ~ f(..y..) for every operation and context?

    block_of labels each element's block; a label need not name a
    member.  With rep sending each element to the first element with
    its label, the partition is stable exactly when f(x) ~ f(rep(x))
    for every argument tuple x, read coordinatewise: one read of each
    table through rep."""
    first: dict[int, int] = {}
    rep = [first.setdefault(label, x) for x, label in enumerate(block_of)]
    block = block_of.__getitem__
    for name, arity in alg.sig.ops:
        table = alg.op_tables[name]
        at_reps = _read_through(table, rep, arity, alg.size)
        if not all(map(eq, map(block, table), map(block, at_reps))):
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


def congruence_generated_by(alg: FiniteAlgebra,
                            pairs: Iterable[tuple[int, int]]) -> Congruence:
    """Least congruence relating every given pair: the join of their
    principal congruences, which one pass over the part of the pair
    graph they reach yields (_principal_partitions).  The empty pair set
    yields the identity congruence.
    """
    n = alg.size
    pairs = list(pairs)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"pair ({a},{b}) outside carrier")
    principals = _principal_partitions(n, _translation_rows(alg), [
        min(a, b) * n + max(a, b) for a, b in pairs if a != b])
    return Congruence(alg, _join_links(range(n), chain.from_iterable(
        map(enumerate, principals.values()))))


def _join_links(block_of: Sequence[int],
                links: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """block_of of the partition joined with every link (a, b)."""
    parent = list(block_of)  # parent[e] <= e, so every walk ends
    for a, b in links:
        while parent[a] != a:  # path halving keeps parent[a] <= a
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
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
                      _join_links(theta.block_of, enumerate(xi.block_of)))


def _principal_partitions(n: int, rows: Sequence[Sequence[int]],
                          roots: Sequence[int]) -> dict[int, tuple[int, ...]]:
    """block_of of Cg(a, b) for every root key a * n + b (a < b), in
    root order.

    The pair graph has a node per pair a < b and an edge from {a, b} to
    {f(a), f(b)} per translation row f, collapsed pairs left out; by
    Mal'cev's lemma Cg(a, b) is the equivalence generated by the pairs
    reachable from {a, b}.  So every pair of one strongly connected
    component has the same partition: the join of the component's own
    pairs with its successor components' partitions.  An iterative
    Tarjan (SIAM J. Comput. 1, 1972) from the roots emits each component
    after all it reaches, on an explicit stack, so deep graphs need no
    recursion.  Only the pairs the roots reach are visited, and a pair's
    successors are held only from its first visit until its component
    is emitted.
    """
    key = [-1 if x == y else min(x, y) * n + max(x, y)
           for x in range(n) for y in range(n)]
    scaled = [[r[x] * n for r in rows] for x in range(n)]
    plain = [[r[x] for r in rows] for x in range(n)]
    order, low, comp = [0] * n * n, [0] * n * n, [-1] * n * n
    succ, parts, links, stack, frames, count = {}, [], [], [], [], 0
    for w in roots:
        if order[w]:
            continue
        while True:
            if w >= 0:  # first visit: w's successors, index and stack slot
                a, b = divmod(w, n)
                out = set(map(key.__getitem__, map(add, scaled[a], plain[b])))
                out.discard(-1)
                succ[w] = out = tuple(out)
                frames.append((w, iter(out), len(stack)))
                count = order[w] = low[w] = count + 1
                stack.append(w)
            v, edges, height = frames[-1]
            for w in edges:
                if not order[w]:
                    break  # descend into w
                if comp[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]  # w is on the stack: v's component
            else:
                w = -1
                frames.pop()
                if frames and low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
                if low[v] == order[v]:
                    members = stack[height:]
                    del stack[height:]
                    c = len(parts)
                    for m in members:
                        comp[m] = c
                    below = {comp[w] for m in members for w in succ.pop(m)}
                    below.discard(c)
                    p = _join_links(range(n), chain(
                        (divmod(m, n) for m in members),
                        *(links[d] for d in below)))
                    parts.append(p)
                    links.append([(e, r) for e, r in enumerate(p) if r != e])
                if not frames:
                    break
    return {k: parts[comp[k]] for k in roots}


def all_congruences(alg: FiniteAlgebra, *,
                    budget: int = DEFAULT_LATTICE_BUDGET) -> list[Congruence]:
    """Every congruence, as the join-closure of the principal congruences.

    The principal congruences Cg(a, b) of every pair a < b come from one
    pass over the pair graph's strongly connected components
    (_principal_partitions), not one generation per pair.  Every
    congruence is the join of the principal congruences it contains, so
    joining each newly found congruence with each distinct principal
    congruence reaches the whole lattice; two non-principal congruences are never joined.  A
    join with a principal that c already contains, seen from c relating
    its first generating pair, is skipped; any other unions only the
    principal's non-singleton links into c.  budget bounds the joins,
    skipped ones included, so the lattice needs (congruences - 1) x
    (principal congruences) of them; past budget SearchBudgetExceeded
    is raised.  Returns the lattice sorted by the canonical partition
    key.
    """
    n = alg.size
    principal: dict[tuple[int, ...], tuple[int, int]] = {}
    for k, p in _principal_partitions(n, _translation_rows(alg), [
            a * n + b for a in range(n) for b in range(a + 1, n)]).items():
        principal.setdefault(p, divmod(k, n))
    generators = [(a, b, [(e, r) for e, r in enumerate(p) if r != e])
                  for p, (a, b) in principal.items()]
    found = set(principal)
    found.add(tuple(range(n)))
    frontier = list(principal)
    joins = 0
    while frontier:
        fresh = []
        for c in frontier:
            for a, b, p_links in generators:
                if joins == budget:
                    raise SearchBudgetExceeded(
                        f"lattice budget of {budget} joins exhausted after "
                        f"{joins} joins with {len(found)} congruences found")
                joins += 1
                if c[a] == c[b]:
                    continue
                j = _join_links(c, p_links)
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
    """(theta o xi, True iff theta o xi == xi o theta).  The second is the
    converse of the first, so they are equal iff the first is symmetric."""
    forward = compose_relation(theta, xi)
    return forward, all((c, a) in forward for a, c in forward)


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

    Blocks are indexed in order of their least elements.  The partition
    is checked to be stable first (NotStable otherwise); operations then
    act through the least members, each table read through them and its
    values mapped by the canonical map.  A predicate holds on a block
    tuple iff it holds for some choice of members, one from each block:
    its table is the image of alg's along the canonical map.
    """
    if theta.algebra is not alg and theta.algebra != alg:
        raise AlgebraMismatch("congruence belongs to a different algebra")
    if not is_stable_partition(alg, theta.block_of):
        raise NotStable("partition is not stable under the operations")
    reps = sorted(set(theta.block_of))
    index = {r: i for i, r in enumerate(reps)}
    canonical = tuple(index[r] for r in theta.block_of)
    op_tables = {name: tuple(map(canonical.__getitem__, _read_through(
        alg.op_tables[name], reps, arity, alg.size)))
                 for name, arity in alg.sig.ops}
    pred_tables = {name: _image_table(alg.pred_tables[name], canonical,
                                      arity, len(reps))
                   for name, arity in alg.sig.preds}
    return FiniteAlgebra(alg.sig, len(reps), op_tables, pred_tables), canonical


def kernel(phi: Sequence[int], a: FiniteAlgebra, b: FiniteAlgebra) -> Congruence:
    """Congruence identifying elements with equal phi-images.

    phi must be a homomorphism a -> b (verified; NotAHomomorphism if not)."""
    if not is_homomorphism(phi, a, b):
        raise NotAHomomorphism("kernel of a non-homomorphism")
    first: dict[int, int] = {}
    return Congruence(a, tuple(first.setdefault(y, x)
                               for x, y in enumerate(phi)))
