"""Brute-force oracles for differential tests.

Each one computes an answer straight from its definition, exponential
or quadratic in the size of the answer, so the fast paths of the
package can be checked against it on small inputs.
"""

from __future__ import annotations

from itertools import product

from malcevlab import Congruence, FiniteAlgebra, flat_index, is_stable_partition


def _partitions(n: int):
    """All partitions of range(n) as block_of tuples (restricted growth)."""
    if n == 0:
        yield ()
        return
    codes = [0] * n

    def rec(i, top):
        if i == n:
            # translate growth string to least-member block ids
            first = {}
            out = [0] * n
            for x, c in enumerate(codes):
                if c not in first:
                    first[c] = x
                out[x] = first[c]
            yield tuple(out)
            return
        for c in range(top + 2):
            codes[i] = c
            yield from rec(i + 1, max(top, c))

    yield from rec(1, 0)


def all_stable_partitions(alg: FiniteAlgebra) -> list[Congruence]:
    """Brute-force congruence enumeration: filter every partition of the
    carrier by stability."""
    out = []
    for block_of in _partitions(alg.size):
        if is_stable_partition(alg, block_of):
            out.append(Congruence(alg, block_of))
    out.sort(key=lambda c: c.block_of)
    return out


def relation_is_congruence(alg: FiniteAlgebra,
                           rel: frozenset[tuple[int, int]]) -> bool:
    """Is a binary relation an equivalence stable under the operations?"""
    n = alg.size
    for a in range(n):
        if (a, a) not in rel:
            return False
    for a, b in rel:
        if (b, a) not in rel:
            return False
    member = rel.__contains__
    for a, b in rel:
        for c in range(n):
            if member((b, c)) and not member((a, c)):
                return False
    # stability: relate componentwise images
    for name, arity in alg.sig.ops:
        if arity == 0:
            continue
        table = alg.op_tables[name]
        for args in product(range(n), repeat=arity):
            v = table[flat_index(args, n)]
            for pos in range(arity):
                for y in range(n):
                    if (args[pos], y) in rel:
                        alt = args[:pos] + (y,) + args[pos + 1:]
                        if (v, table[flat_index(alt, n)]) not in rel:
                            return False
    return True


def naive_composition_closure(maps, size: int) -> frozenset:
    """Close self-maps of 0..size-1 under composition by composing every
    new map with every map found so far, in both orders.  The identity
    is always included."""
    identity = tuple(range(size))
    closure = {identity}
    closure.update(tuple(m) for m in maps)
    work = list(closure)
    while work:
        g = work.pop()
        for h in list(closure):
            for comp in (tuple(g[h[x]] for x in range(size)),
                         tuple(h[g[x]] for x in range(size))):
                if comp not in closure:
                    closure.add(comp)
                    work.append(comp)
    return frozenset(closure)
