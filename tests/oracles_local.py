"""Brute-force oracles for differential tests.

Each one computes an answer straight from its definition, exponential
or quadratic in the size of the answer, so the fast paths of the
package can be checked against it on small inputs.
"""

from __future__ import annotations

import re
from itertools import permutations, product
from typing import Optional, Sequence

import numpy as np

from malcevlab import (CheckResult, Congruence, FiniteAlgebra, FreeAlgebra,
                       MembershipReport, Quasiidentity, Replica,
                       TranslationGroup, compose_relation, eval_formula,
                       flat_index, is_unitary, product_decode, product_encode)
from malcevlab.errors import (AlgebraMismatch, ArityMismatch,
                              EmptyUngeneratable, InputError, NotStable,
                              SearchBudgetExceeded, SizeBound, SizeOverflow,
                              TermSyntaxError, TrivialClassRankConflict,
                              UnknownSymbol)
from malcevlab.malcev import (DEFAULT_CANDIDATE_BUDGET,
                              DEFAULT_TABLE_BUDGET)
from malcevlab.terms import (MAX_TERM_DEPTH, _VAR_RE, App, Equation, Formula,
                             PredicateAtom, Term, Var)


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


def naive_is_stable_partition(alg: FiniteAlgebra,
                              block_of: Sequence[int]) -> bool:
    """is_stable_partition from the definition: at every argument tuple
    and position, replacing the argument by each other member of its
    block keeps the value in the same block."""
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


def naive_image_positions(phi: Sequence[int], arity: int, size: int):
    """_image_positions as one weighted sum per argument tuple: the
    place-value weights of every coordinate, summed over their product."""
    weights = [[y * size**(arity - 1 - i) for y in phi] for i in range(arity)]
    return map(sum, product(*weights))


def naive_compose_permute(theta: Congruence, xi: Congruence):
    """compose_permute by building both compositions and comparing them
    as relation sets."""
    forward = compose_relation(theta, xi)
    return forward, forward == compose_relation(xi, theta)


def all_stable_partitions(alg: FiniteAlgebra) -> list[Congruence]:
    """Brute-force congruence enumeration: filter every partition of the
    carrier by stability."""
    out = []
    for block_of in _partitions(alg.size):
        if naive_is_stable_partition(alg, block_of):
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


def naive_orbit_count(maps, size: int, arity: int) -> int:
    """The number of orbits, on arity-tuples over 0..size-1, of the
    group that the permutations maps generate: each orbit is closed from
    its first tuple by applying every map until nothing new appears."""
    seen: set = set()
    orbits = 0
    for start in product(range(size), repeat=arity):
        if start in seen:
            continue
        orbits += 1
        seen.add(start)
        work = [start]
        while work:
            p = work.pop()
            for m in maps:
                q = tuple(m[x] for x in p)
                if q not in seen:
                    seen.add(q)
                    work.append(q)
    return orbits


def naive_translation_group(alg: FiniteAlgebra, max_depth: int = 4, *,
                            max_maps: int = 100_000,
                            candidate_budget: int = 2_000_000
                            ) -> TranslationGroup:
    """translation_group as its own breadth-first loop over unary
    polynomial maps: level 0 holds the identity and the constant maps,
    and each level applies every operation of positive arity to tuples
    with at least one map of the previous level, one block per leading
    frontier position (old^i x frontier x all^(arity-1-i)).  Budgets are
    checked before every candidate."""
    n = alg.size
    identity = tuple(range(n))
    maps: list[tuple[int, ...]] = [identity]
    seen = {identity}
    for c in range(n):
        cmap = tuple([c] * n)
        if cmap not in seen:
            seen.add(cmap)
            maps.append(cmap)
    truncated = False
    spent = 0
    frontier_lo = 0
    for depth in range(1, max_depth + 1):
        if truncated or frontier_lo == len(maps):
            break
        level_start = len(maps)
        for name, arity in alg.sig.ops:
            if arity == 0 or truncated:
                continue
            table = alg.op_tables[name]
            for lead in range(arity):
                ranges = [range(0, frontier_lo)] * lead \
                    + [range(frontier_lo, level_start)] \
                    + [range(0, level_start)] * (arity - 1 - lead)
                for combo in product(*ranges):
                    spent += 1
                    if spent > candidate_budget or len(maps) > max_maps:
                        truncated = True
                        break
                    new_map = tuple(
                        table[flat_index(tuple(maps[i][x] for i in combo), n)]
                        for x in range(n))
                    if new_map not in seen:
                        seen.add(new_map)
                        maps.append(new_map)
                if truncated:
                    break
        frontier_lo = level_start
    generators = tuple(sorted(m for m in seen if sorted(m) == list(identity)))
    closure = naive_composition_closure(generators, n)
    orbit = {g[0] for g in closure}
    return TranslationGroup(generators, closure, len(orbit) == n, truncated)


class NaiveTableSearch:
    """The derived-operation search one candidate at a time.

    Each candidate goes through _add, which keys its table by its bytes
    and keeps the table's ndarray, term and nested canonical key, so the
    table store of malcevlab.malcev._TableSearch can be checked against
    it table by table, with the same accessors (tables, term, key,
    sizes, levels, add_variable) and the same budget accounting.

    Vectors are value tables over all n^k assignments (x0 most
    significant), in the narrowest unsigned type that holds n values.
    vectors/terms/keys/sizes/levels grow in discovery order; each table
    keeps the canonically least term among the candidates of its
    discovery level.  A candidate's canonical key is
    assembled from its children's stored keys, which are final because
    children always come from earlier levels, and its term is built only
    when the table is new or the key beats the stored one.  exhausted
    names the budget ("table" or "candidate") that truncated the search.
    """

    def __init__(self, alg: FiniteAlgebra, var_count: int,
                 table_budget: int = DEFAULT_TABLE_BUDGET,
                 candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                 max_term_size: Optional[int] = None):
        self.alg = alg
        self.k = var_count
        self.n = alg.size
        self.length = self.n**self.k
        self.table_budget = table_budget
        self.candidate_budget = candidate_budget
        self.max_term_size = max_term_size
        self.candidates_used = 0
        self.exhausted: Optional[str] = None
        self.vectors: list[np.ndarray] = []
        self.terms: list[Term] = []
        self.keys: list[tuple] = []
        self.sizes: list[int] = []
        self.levels: list[int] = []
        self.index: dict[bytes, int] = {}
        self._vars = 0
        # the narrowest types that hold a value and a binary index a*n + b
        # (uint8 and uint16 up to 256 elements), so looked-up tables need
        # no conversion
        self.dtype = np.min_scalar_type(self.n - 1)
        self.pair_dtype = np.promote_types(
            np.uint16, np.min_scalar_type(self.n * self.n - 1))
        self.op_arrays = {
            name: np.array(alg.op_tables[name], dtype=self.dtype)
            for name, _ in alg.sig.ops}
        self.digits = [
            np.tile(np.repeat(np.arange(self.n, dtype=self.dtype),
                              self.n**(self.k - 1 - i)), self.n**i)
            for i in range(self.k)]
        self._level_start: dict[int, int] = {}
        for digit in self.digits:
            self.add_variable(digit)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def tables(self) -> np.ndarray:
        return np.stack(self.vectors)

    def term(self, i: int) -> Term:
        return self.terms[i]

    def key(self, i: int) -> tuple:
        return self.keys[i]

    def add_variable(self, vec: np.ndarray) -> None:
        """Offer vec at level 0 as the table of the next variable."""
        self._add(vec, (1, (0, self._vars), ()), 0, Var, self._vars)
        self._vars += 1

    @property
    def truncated(self) -> bool:
        return self.exhausted is not None

    def _add(self, vec: np.ndarray, key: tuple, level: int, make,
             *args) -> None:
        """Offer table vec, reached by the term make(*args) with canonical
        key key; the term is built only if the table keeps it."""
        code = vec.tobytes()
        idx = self.index.get(code)
        if idx is None:
            self.index[code] = len(self.vectors)
            self.vectors.append(vec)
            self.terms.append(make(*args))
            self.keys.append(key)
            self.sizes.append(key[0])
            self.levels.append(level)
        elif self.levels[idx] == level and key < self.keys[idx]:
            self.terms[idx] = make(*args)
            self.keys[idx] = key
            self.sizes[idx] = key[0]

    def _spend(self, count: int) -> bool:
        """Charge the candidate budget; False once a budget is exhausted."""
        if self.truncated:
            return False
        self.candidates_used += count
        if self.candidates_used > self.candidate_budget:
            self.exhausted = "candidate"
        elif len(self.vectors) > self.table_budget:
            self.exhausted = "table"
        return not self.truncated

    def satisfying(self, indices: range, cols: np.ndarray,
                   values: np.ndarray) -> list[int]:
        """The indices whose tables take values at positions cols."""
        hits: list[int] = []
        # stack about 64 KiB of tables at a time, so that testing a level
        # adds no copy of the level to the search's peak memory
        step = max(1, (1 << 16) // self.length)
        for lo in range(indices.start, indices.stop, step):
            block = np.stack(self.vectors[lo:min(lo + step, indices.stop)])
            ok = np.all(block[:, cols] == values, axis=1)
            hits.extend((np.flatnonzero(ok) + lo).tolist())
        return hits

    def run_level(self, depth: int) -> range:
        """Expand one level; returns indices of newly found tables."""
        frontier_start = 0 if depth == 1 else self._level_start[depth - 1]
        start = len(self.vectors)
        for op_index, (name, arity) in enumerate(self.alg.sig.ops):
            if self.truncated:
                break
            ftab = self.op_arrays[name]
            head_key = (1, op_index)
            if arity == 0:
                if depth == 1:
                    vec = np.full(self.length, self.alg.op_tables[name][0],
                                  dtype=self.dtype)
                    if self._spend(1):
                        self._add(vec, (1, head_key, ()), 1, App, name)
                continue
            if arity == 2:
                self._binary_level(name, head_key, ftab, frontier_start,
                                   start, depth)
                continue
            self._generic_level(name, head_key, arity, ftab, frontier_start,
                                start, depth)
        self._level_start[depth] = start
        return range(start, len(self.vectors))

    def _binary_level(self, name, head_key, ftab, f0, r, depth):
        n = self.n
        cap = self.max_term_size
        vectors, terms, keys, sizes = (
            self.vectors, self.terms, self.keys, self.sizes)
        add = self._add
        # sizes below r are final for the whole level
        size_array = np.array(sizes[:r]) if cap is not None else None
        # blocks: (frontier x all), then (old x frontier)
        for a_range, (b_lo, b_hi) in (((f0, r), (0, r)), ((0, f0), (f0, r))):
            # the b that fit beside a, by 1 + size of a
            partners: dict[int, list[int]] = {}
            for a in range(*a_range):
                size_a = 1 + sizes[a]
                if cap is None:
                    b_list: Sequence[int] = range(b_lo, b_hi)
                else:
                    if size_a not in partners:
                        fits = size_array[b_lo:b_hi] <= cap - size_a
                        partners[size_a] = (
                            np.flatnonzero(fits) + b_lo).tolist()
                    b_list = partners[size_a]
                # a * n + b < n * n fits pair_dtype
                va = vectors[a].astype(self.pair_dtype) * n
                term_a, key_a = terms[a], keys[a]
                slab = 4096
                for c0 in range(0, len(b_list), slab):
                    batch = b_list[c0:c0 + slab]
                    if not self._spend(len(batch)):
                        return
                    block = np.stack([vectors[b] for b in batch])
                    out = ftab[va[None, :] + block]
                    for b, vec in zip(batch, out):
                        add(vec, (size_a + sizes[b], head_key,
                                  (key_a, keys[b])),
                            depth, App, name, (term_a, terms[b]))

    def _generic_level(self, name, head_key, arity, ftab, f0, r, depth):
        """Each prefix of arity - 1 children that some last child
        completes within the cap, against its fitting last children in
        slabs of 4096, one _spend per slab, one block per leading
        frontier position."""
        n = self.n
        cap = self.max_term_size
        # sizes below r are final for the whole level
        sizes = self.sizes[:r]
        for lead in range(arity):
            ranges = [range(0, f0)] * lead + [range(f0, r)] + \
                     [range(0, r)] * (arity - 1 - lead)
            # least[p]: the least size positions p.. take together
            least = [0] * (arity + 1)
            for p in reversed(range(arity)):
                least[p] = least[p + 1] + min(
                    (sizes[i] for i in ranges[p]), default=0)

            def fits(size, p):
                return cap is None or size + least[p] <= cap

            def prefixes(p, prefix, size):
                if p == arity - 1:
                    yield prefix, size
                    return
                for i in ranges[p]:
                    if fits(size + sizes[i], p + 1):
                        yield from prefixes(p + 1, prefix + (i,),
                                            size + sizes[i])

            for prefix, size in prefixes(0, (), 1):
                lasts = [i for i in ranges[-1] if fits(size + sizes[i], arity)]
                for c0 in range(0, len(lasts), 4096):
                    batch = lasts[c0:c0 + 4096]
                    if not self._spend(len(batch)):
                        return
                    for last in batch:
                        combo = prefix + (last,)
                        idx = self.vectors[combo[0]].astype(np.int64)
                        for b in combo[1:]:
                            idx = idx * n + self.vectors[b]
                        key = (size + sizes[last], head_key,
                               tuple(self.keys[i] for i in combo))
                        self._add(ftab[idx], key, depth, App, name,
                                  tuple(self.terms[i] for i in combo))


def naive_generate_subalgebra(alg: FiniteAlgebra, seed) -> list[int]:
    """generate_subalgebra as the chain X_0 = seed + constants,
    X_{k+1} = X_k plus the images of every operation over all of X_k,
    until it stabilizes."""
    current = set(seed)
    for x in current:
        if not (0 <= x < alg.size):
            raise ValueError(f"seed element {x} outside carrier")
    current |= set(alg.constants())
    if not current:
        raise EmptyUngeneratable(
            "empty seed and no constants: no least subalgebra exists")
    while True:
        new = set()
        elems = sorted(current)
        for name, arity in alg.sig.ops:
            if arity == 0:
                continue
            table = alg.op_tables[name]
            for args in product(elems, repeat=arity):
                v = table[flat_index(args, alg.size)]
                if v not in current:
                    new.add(v)
        if not new:
            return sorted(current)
        current |= new


def naive_generating_sequence(alg: FiniteAlgebra):
    """_generating_sequence by re-applying every operation to all known
    elements until nothing new appears, after the constants and after
    each generator, the least element not yet known."""
    gens: list[int] = []
    known: dict[int, tuple] = {}
    steps: list[tuple[int, tuple]] = []

    def close():
        changed = True
        while changed:
            changed = False
            elems = sorted(known)
            for name, arity in alg.sig.ops:
                if arity == 0:
                    v = alg.op_tables[name][0]
                    if v not in known:
                        known[v] = ("const", name)
                        steps.append((v, known[v]))
                        changed = True
                    continue
                for args in product(elems, repeat=arity):
                    v = alg.op_value(name, args)
                    if v not in known:
                        known[v] = ("op", name, args)
                        steps.append((v, known[v]))
                        changed = True

    close()
    for x in range(alg.size):
        if x not in known:
            gens.append(x)
            known[x] = ("gen", len(gens) - 1)
            steps.append((x, known[x]))
            close()
    return gens, steps


def naive_is_homomorphism(phi, a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """is_homomorphism through op_value/pred_value, tuple by tuple."""
    if len(phi) != a.size:
        return False
    for name, arity in a.sig.ops:
        for args in product(range(a.size), repeat=arity):
            if phi[a.op_value(name, args)] != b.op_value(
                    name, tuple(phi[x] for x in args)):
                return False
    for name, arity in a.sig.preds:
        for args in product(range(a.size), repeat=arity):
            if a.pred_value(name, args) and not b.pred_value(
                    name, tuple(phi[x] for x in args)):
                return False
    return True


def naive_find_homomorphisms(a: FiniteAlgebra, b: FiniteAlgebra, *,
                             strong: bool = False, limit=None,
                             budget: int = 10**7):
    """find_homomorphisms by generate and test: every image tuple of the
    generators, propagated along the derivation, then the full
    homomorphism check (and the strong one: onto, and every predicate
    tuple true in b has a true preimage tuple in a)."""
    if a.sig != b.sig:
        raise AlgebraMismatch("homomorphisms need a common signature")
    gens, steps = naive_generating_sequence(a)
    if b.size**len(gens) > budget:
        raise SearchBudgetExceeded(
            f"{b.size}^{len(gens)} generator images exceed budget {budget}")
    found = []
    for images in product(range(b.size), repeat=len(gens)):
        phi = [None] * a.size
        for element, how in steps:
            if how[0] == "gen":
                phi[element] = images[how[1]]
            elif how[0] == "const":
                phi[element] = b.op_tables[how[1]][0]
            else:
                _, name, args = how
                phi[element] = b.op_value(name, tuple(phi[x] for x in args))
        if not naive_is_homomorphism(phi, a, b):
            continue
        if strong and not _naive_is_strong(phi, a, b):
            continue
        found.append(tuple(phi))
    found.sort()
    return found if limit is None else found[:limit]


def _naive_is_strong(phi, a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """phi, a homomorphism, is onto and every predicate tuple true in b
    has a true preimage tuple in a."""
    return set(phi) == set(range(b.size)) and not any(
        b.pred_value(name, args) and not any(
            a.pred_value(name, pre)
            for pre in product(range(a.size), repeat=arity)
            if [phi[x] for x in pre] == list(args))
        for name, arity in b.sig.preds
        for args in product(range(b.size), repeat=arity))


def naive_find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra):
    """The least permutation of the carrier, in lexicographic order,
    that is a strong homomorphism a -> b, or None (also for systems of
    different signatures or sizes)."""
    if a.sig != b.sig or a.size != b.size:
        return None
    for phi in permutations(range(a.size)):
        if naive_is_homomorphism(phi, a, b) and _naive_is_strong(phi, a, b):
            return phi
    return None


def naive_check_quasiidentity(q: Quasiidentity, alg) -> CheckResult:
    """check_quasiidentity by interpreting the formulas (eval_formula)
    afresh at every assignment, in lexicographic order."""
    for assignment in product(range(alg.size), repeat=q.variable_count):
        if all(eval_formula(p, assignment, alg) for p in q.premises):
            if not eval_formula(q.conclusion, assignment, alg):
                return CheckResult(False, assignment)
    return CheckResult(True, None)


def naive_presented_algebra(generators: Sequence[FiniteAlgebra], rank: int,
                            relations: Sequence[Formula], *,
                            size_bound: int = 10_000) -> FreeAlgebra:
    """presented_algebra in two passes: generate the carrier, testing
    every argument tuple over the known elements for a frontier member,
    then fill every table again over all argument tuples; relations and
    coordinates are evaluated per assignment (eval_formula, flat_index)."""
    if not generators:
        raise ValueError("at least one generator algebra is required")
    if any(g.sig != generators[0].sig for g in generators):
        raise AlgebraMismatch("generator algebras must share a signature")
    if rank < 0:
        raise InputError("rank must be nonnegative")
    sig = generators[0].sig
    if rank > 1 and all(is_unitary(g) for g in generators):
        raise TrivialClassRankConflict(
            f"all generator algebras are one-element with all predicates "
            f"true; rank {rank} generators cannot be separated")
    relations = tuple(relations)
    if sum(g.size**rank for g in generators) > size_bound:
        raise SizeOverflow(
            f"{' + '.join(f'{g.size}^{rank}' for g in generators)} "
            f"assignment tuples over the generators exceed the size bound "
            f"{size_bound}; a larger --max-product raises it")
    if rank > size_bound:
        raise SizeOverflow(
            f"rank {rank} exceeds the size bound {size_bound}; a larger "
            f"--max-product raises it")
    factors: list[tuple[int, tuple[int, ...]]] = []
    for gi, g in enumerate(generators):
        for assignment in product(range(g.size), repeat=rank):
            if all(eval_formula(rel, assignment, g) for rel in relations):
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
                f"presented algebra reached {size_bound + 1} elements, "
                f"past the size bound {size_bound}; a larger --max-product "
                f"raises it")
        index[elem] = len(elements)
        elements.append(elem)
        steps.append(step)
        return len(elements) - 1

    for i, seed in enumerate(seeds):
        gen_images.append(add(seed, ("gen", i)))
    for name, arity in sig.ops:
        if arity == 0:
            vec = tuple(generators[gi].op_tables[name][0]
                        for gi, _ in factors)
            add(vec, ("const", name))
    if not elements:
        raise EmptyUngeneratable(
            "empty seed and no constants: no least subalgebra exists")

    frontier = list(range(len(elements)))
    while frontier:
        known_count = len(elements)
        fresh: list[int] = []
        for name, arity in sig.ops:
            if arity == 0:
                continue
            frontier_set = set(frontier)
            for combo in product(range(known_count), repeat=arity):
                if not any(c in frontier_set for c in combo):
                    continue
                vec = tuple(
                    generators[gi].op_tables[name][flat_index(
                        tuple(elements[c][f] for c in combo),
                        generators[gi].size)]
                    for f, (gi, _) in enumerate(factors))
                before = len(elements)
                idx = add(vec, ("op", name, combo))
                if idx == before:
                    fresh.append(idx)
        frontier = fresh

    size = len(elements)
    op_tables = {}
    for name, arity in sig.ops:
        table = []
        for combo in product(range(size), repeat=arity):
            vec = tuple(
                generators[gi].op_tables[name][flat_index(
                    tuple(elements[c][f] for c in combo),
                    generators[gi].size)]
                for f, (gi, _) in enumerate(factors))
            table.append(index[vec])
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in sig.preds:
        table = []
        for combo in product(range(size), repeat=arity):
            table.append(all(
                generators[gi].pred_tables[name][flat_index(
                    tuple(elements[c][f] for c in combo),
                    generators[gi].size)]
                for f, (gi, _) in enumerate(factors)))
        pred_tables[name] = tuple(table)
    alg = FiniteAlgebra(sig, size, op_tables, pred_tables)
    return FreeAlgebra(alg, rank, tuple(gen_images), tuple(factors),
                       tuple(elements), tuple(steps), relations)


def naive_direct_product(factors: Sequence[FiniteAlgebra]) -> FiniteAlgebra:
    """direct_product tuple by tuple: decode each argument into its
    coordinates, apply every factor's table (op_value, pred_value) and
    encode the value tuple."""
    sig = factors[0].sig
    sizes = [f.size for f in factors]
    size = 1
    for s in sizes:
        size *= s
    op_tables = {}
    for name, arity in sig.ops:
        table = []
        for args in product(range(size), repeat=arity):
            coords = [product_decode(a, sizes) for a in args]
            value = tuple(
                f.op_value(name, tuple(c[i] for c in coords))
                for i, f in enumerate(factors))
            table.append(product_encode(value, sizes))
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in sig.preds:
        table = []
        for args in product(range(size), repeat=arity):
            coords = [product_decode(a, sizes) for a in args]
            table.append(all(
                f.pred_value(name, tuple(c[i] for c in coords))
                for i, f in enumerate(factors)))
        pred_tables[name] = tuple(table)
    return FiniteAlgebra(sig, size, op_tables, pred_tables)


def naive_subalgebra_as_algebra(alg: FiniteAlgebra,
                                carrier: Sequence[int]) -> FiniteAlgebra:
    """subalgebra_as_algebra for a carrier of distinct elements of alg,
    applying op_value and pred_value to every tuple over the carrier."""
    index = {e: i for i, e in enumerate(carrier)}
    op_tables = {}
    for name, arity in alg.sig.ops:
        table = []
        for args in product(carrier, repeat=arity):
            v = alg.op_value(name, args)
            if v not in index:
                raise ValueError("carrier is not closed under operations")
            table.append(index[v])
        op_tables[name] = tuple(table)
    pred_tables = {
        name: tuple(alg.pred_value(name, args)
                    for args in product(carrier, repeat=arity))
        for name, arity in alg.sig.preds}
    labels = None
    if alg.labels is not None:
        labels = tuple(alg.labels[e] for e in carrier)
    return FiniteAlgebra(alg.sig, len(carrier), op_tables, pred_tables,
                         labels)


def naive_quotient(alg: FiniteAlgebra, theta: Congruence):
    """quotient by choosing members: an operation's value on blocks is
    its value at the least members, and every other choice of members
    must land in the same block (NotStable otherwise); a predicate holds
    on blocks when it holds at some choice of members."""
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
            for choice in product(*(members[i] for i in blocks_args)):
                if canonical[alg.op_value(name, choice)] != value:
                    raise NotStable(
                        f"operation {name!r} not constant on blocks")
            table.append(value)
        op_tables[name] = tuple(table)
    pred_tables = {}
    for name, arity in alg.sig.preds:
        pred_tables[name] = tuple(
            any(alg.pred_value(name, choice)
                for choice in product(*(members[i] for i in blocks_args)))
            for blocks_args in product(range(k), repeat=arity))
    return FiniteAlgebra(alg.sig, k, op_tables, pred_tables), canonical


def _naive_homs_into(generators, source):
    """Every homomorphism from source into each generator in turn, by
    generate and test, beside the generator it maps into."""
    return [(h, g) for g in generators
            for h in naive_find_homomorphisms(source, g)]


def naive_replica(generators: Sequence[FiniteAlgebra],
                  source: FiniteAlgebra) -> Replica:
    """replica tuple by tuple: the carrier is the set of diagonal
    tuples, operations act through the least source element of each,
    and a predicate holds at a tuple of diagonal tuples when it holds
    in every coordinate's target."""
    found = _naive_homs_into(generators, source)
    diag = [tuple(h[a] for h, _ in found) for a in range(source.size)]
    carrier: list[tuple[int, ...]] = []
    for d in diag:
        if d not in carrier:
            carrier.append(d)
    cmap = tuple(carrier.index(d) for d in diag)
    size = len(carrier)
    reps = [cmap.index(i) for i in range(size)]
    op_tables = {
        name: tuple(cmap[source.op_value(name, tuple(reps[c] for c in combo))]
                    for combo in product(range(size), repeat=arity))
        for name, arity in source.sig.ops}
    pred_tables = {
        name: tuple(all(t.pred_value(name, tuple(carrier[c][j]
                                                 for c in combo))
                        for j, (_, t) in enumerate(found))
                    for combo in product(range(size), repeat=arity))
        for name, arity in source.sig.preds}
    alg = FiniteAlgebra(source.sig, size, op_tables, pred_tables)
    return Replica(alg, cmap, len(found))


def naive_membership_in_closure(generators: Sequence[FiniteAlgebra],
                                candidate: FiniteAlgebra
                                ) -> MembershipReport:
    """membership_in_closure tuple by tuple: the first pair no
    homomorphism separates, else the first tuple, in lexicographic
    order, false in the candidate and true at its image in every
    homomorphism's target."""
    found = _naive_homs_into(generators, candidate)
    n = candidate.size
    for a in range(n):
        for b in range(a + 1, n):
            if all(h[a] == h[b] for h, _ in found):
                return MembershipReport(False, len(found),
                                        ("unseparated", a, b))
    for name, arity in candidate.sig.preds:
        for combo in product(range(n), repeat=arity):
            if not candidate.pred_value(name, combo) and all(
                    t.pred_value(name, tuple(h[c] for c in combo))
                    for h, t in found):
                return MembershipReport(False, len(found),
                                        ("forced_predicate", name, combo))
    return MembershipReport(True, len(found), None)


# ---------------------------------------------------------------------------
# the term language, parsed by a character loop and one method per rule:
# the reference for the token-pattern parser in malcevlab.terms.  Text
# whose variables skip an index gets Quasiidentity's ValueError here,
# where malcevlab.terms raises InputError with the same message.


class _Tokenizer:
    """Splits input into (kind, text, 1-based column) tokens."""

    PUNCT = {"(": "lparen", ")": "rparen", ",": "comma", "=": "eq", "&": "amp"}

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if text.startswith("=>", i):
                self.tokens.append(("arrow", "=>", i + 1))
                i += 2
                continue
            if c in self.PUNCT:
                self.tokens.append((self.PUNCT[c], c, i + 1))
                i += 1
                continue
            m = re.match(r"[A-Za-z_][A-Za-z0-9_]*", text[i:])
            if m:
                word = m.group(0)
                kind = "var" if _VAR_RE.match(word) else "name"
                self.tokens.append((kind, word, i + 1))
                i += len(word)
                continue
            raise TermSyntaxError(
                f"unexpected character {c!r} at column {i + 1}", i + 1,
                expected="identifier or punctuation")
        self.tokens.append(("end", "", n + 1))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            got = tok[1] if tok[0] != "end" else "end of input"
            raise TermSyntaxError(
                f"expected {what} at column {tok[2]}, got {got!r}",
                tok[2], expected=what)
        return self.next()


class _Parser:
    def __init__(self, text: str, sig):
        self.toks = _Tokenizer(text)
        self.sig = sig

    def parse_term(self, depth: int = 0) -> Term:
        """depth counts the applications enclosing this term."""
        kind, word, col = self.toks.peek()
        if kind == "var":
            self.toks.next()
            return Var(int(word[1:]))
        if kind == "name":
            if depth == MAX_TERM_DEPTH:
                raise TermSyntaxError(
                    f"term nested deeper than {MAX_TERM_DEPTH} levels"
                    f" at column {col}", col,
                    expected=f"at most {MAX_TERM_DEPTH} nested applications")
            self.toks.next()
            arity = self.sig.op_arity(word)
            if arity is None:
                raise UnknownSymbol(
                    f"unknown operation {word!r} at column {col}", word, col)
            if self.toks.peek()[0] != "lparen":
                if arity != 0:
                    raise ArityMismatch(
                        f"operation {word!r} takes {arity} argument"
                        f"{'s' if arity != 1 else ''}, got 0"
                        f" at column {col}", word, arity, 0, col)
                return App(word, ())
            self.toks.next()
            args = []
            if self.toks.peek()[0] != "rparen":
                args.append(self.parse_term(depth + 1))
                while self.toks.peek()[0] == "comma":
                    self.toks.next()
                    args.append(self.parse_term(depth + 1))
            self.toks.expect("rparen", "')' or ','")
            if len(args) != arity:
                raise ArityMismatch(
                    f"operation {word!r} takes {arity} argument"
                    f"{'s' if arity != 1 else ''}, got"
                    f" {len(args)} at column {col}", word, arity, len(args), col)
            return App(word, tuple(args))
        got = word if kind != "end" else "end of input"
        raise TermSyntaxError(
            f"expected term at column {col}, got {got!r}", col, expected="term")

    def parse_formula(self) -> Formula:
        kind, word, col = self.toks.peek()
        # a predicate atom starts with a predicate name
        if kind == "name" and self.sig.pred_arity(word) is not None:
            self.toks.next()
            arity = self.sig.pred_arity(word)
            self.toks.expect("lparen", "'('")
            args = [self.parse_term()]
            while self.toks.peek()[0] == "comma":
                self.toks.next()
                args.append(self.parse_term())
            self.toks.expect("rparen", "')' or ','")
            if len(args) != arity:
                raise ArityMismatch(
                    f"predicate {word!r} takes {arity} argument"
                    f"{'s' if arity != 1 else ''}, got"
                    f" {len(args)} at column {col}", word, arity, len(args), col)
            return PredicateAtom(word, tuple(args))
        lhs = self.parse_term()
        self.toks.expect("eq", "'='")
        rhs = self.parse_term()
        return Equation(lhs, rhs)

    def parse_quasiidentity(self) -> Quasiidentity:
        first = self.parse_formula()
        formulas = [first]
        while self.toks.peek()[0] == "amp":
            self.toks.next()
            formulas.append(self.parse_formula())
        if self.toks.peek()[0] == "arrow":
            self.toks.next()
            conclusion = self.parse_formula()
            return Quasiidentity(tuple(formulas), conclusion)
        if len(formulas) > 1:
            tok = self.toks.peek()
            raise TermSyntaxError(
                f"expected '=>' at column {tok[2]}", tok[2], expected="'=>'")
        return Quasiidentity((), first)

    def finish(self, node):
        tok = self.toks.peek()
        if tok[0] != "end":
            raise TermSyntaxError(
                f"unexpected {tok[1]!r} at column {tok[2]}", tok[2],
                expected="end of input")
        return node


def reference_parse_term(text: str, sig) -> Term:
    p = _Parser(text, sig)
    return p.finish(p.parse_term())


def reference_parse_formula(text: str, sig) -> Formula:
    p = _Parser(text, sig)
    return p.finish(p.parse_formula())


def reference_parse_quasiidentity(text: str, sig) -> Quasiidentity:
    p = _Parser(text, sig)
    return p.finish(p.parse_quasiidentity())
