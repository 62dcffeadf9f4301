"""Mal'cev-style term searches over finite algebras.

The searches walk the derived operations of an algebra breadth-first by
term depth: level 0 holds the variable projections, and level d+1 holds
every basic operation applied to vectors from earlier levels.  Distinct
derived operations are deduplicated by their full value table, and each
table is represented by the canonically least term among the candidates
of the level that first produced it.  A candidate's canonical key is
built in constant time from the stored keys of its children, and its
term is built only when it is kept (a new table, or a key beating the
stored one).  Qualification (the Mal'cev identities, or the biternary
identities) depends only on the value table and is tested on each
level's new tables at once, which makes the deduplicated search exact
as a decision procedure within the depth bound; deterministic work
budgets cap the exploration, and a budget-truncated search reports
absence within bounds and names the budget that ran out.  Every
returned witness is re-verified exhaustively through the term
evaluator, independently of the table arithmetic used during the
search.

TermEnumeration, by contrast, enumerates raw terms one by one in the
canonical order (size, then root symbol, then children) without any
deduplication; it is the substrate for corpus generation and small
exhaustive checks, not for deep searches.

translation_group runs the same search over one variable, with the
constant maps seeded beside x0 at level 0, so that its tables are the
unary polynomial maps; it closes the bijective ones with
composition_closure, which lives in quasigroups next to
multiplication_group and is re-exported here.  A truncated run keeps
the maps of the slabs the search completed before its budget ran out.

This is the only module that imports numpy.  The package and the
command line load it on first use of a search name, so commands that
search nothing start without numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterator, Optional, Sequence

import numpy as np

from .algebras import FiniteAlgebra
from .congruences import Congruence, all_congruences, non_permuting_pairs
from .quasigroups import (TranslationGroup, composition_closure,
                          malcev_identities_hold)
from .terms import App, Signature, Term, Var, eval_term, term_depth, term_key

DEFAULT_DEPTH = 4
DEFAULT_TABLE_BUDGET = 150_000
DEFAULT_CANDIDATE_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# raw term enumeration

class TermEnumeration:
    """All terms over sig in x0..x{var_count-1}, canonically ordered.

    Terms are produced by size (node count), ties broken by root symbol
    (variables first, then operations in signature order) and then by
    children, recursively.  Iteration stops once both bounds (max_depth,
    max_size) are exhausted; each in-bounds term appears exactly once.
    Intended for small bounds: the term count grows doubly fast in depth.
    """

    def __init__(self, sig: Signature, max_depth: int = DEFAULT_DEPTH,
                 var_count: int = 4, max_size: int = 8):
        self.sig = sig
        self.max_depth = max_depth
        self.var_count = var_count
        self.max_size = max_size
        self._by_size: list[list[Term]] = [[]]  # index 0 unused

    def _terms_of_size(self, s: int) -> list[Term]:
        while len(self._by_size) <= s:
            self._by_size.append(self._build(len(self._by_size)))
        return self._by_size[s]

    def _build(self, s: int) -> list[Term]:
        out: list[Term] = []
        if s == 1:
            out.extend(Var(i) for i in range(self.var_count))
            out.extend(App(name) for name, arity in self.sig.ops if arity == 0)
            return out
        for name, arity in self.sig.ops:
            if arity == 0 or arity > s - 1:
                continue
            for children in self._child_tuples(arity, s - 1):
                out.append(App(name, children))
        # sort is stable and cheap; children tuples already come out in
        # canonical order per operation, sizes are all s
        out.sort(key=lambda t: term_key(t, self.sig))
        return out

    def _child_tuples(self, k: int, total: int):
        if k == 1:
            for t in self._terms_of_size(total):
                yield (t,)
            return
        for first in range(1, total - (k - 1) + 1):
            for head in self._terms_of_size(first):
                for rest in self._child_tuples(k - 1, total - first):
                    yield (head,) + rest

    def __iter__(self) -> Iterator[Term]:
        for s in range(1, self.max_size + 1):
            for t in self._terms_of_size(s):
                if term_depth(t) <= self.max_depth:
                    yield t


# ---------------------------------------------------------------------------
# derived-operation breadth-first search

class _TableSearch:
    """Breadth-first closure of k-ary derived operations of an algebra.

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
        for i in range(self.k):
            self._add(self.digits[i], (1, (0, i), ()), 0, Var, i)

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
        n = self.n
        cap = self.max_term_size
        for lead in range(arity):
            ranges = [range(0, f0)] * lead + [range(f0, r)] + \
                     [range(0, r)] * (arity - 1 - lead)
            for combo in product(*ranges):
                size = 1 + sum(self.sizes[i] for i in combo)
                if cap is not None and size > cap:
                    continue
                if not self._spend(1):
                    return
                idx = self.vectors[combo[0]].astype(np.int64)
                for b in combo[1:]:
                    idx = idx * n + self.vectors[b]
                vec = ftab[idx]
                key = (size, head_key, tuple(self.keys[i] for i in combo))
                self._add(vec, key, depth, App, name,
                          tuple(self.terms[i] for i in combo))


def _canonical_min(search: _TableSearch, indices: list[int]) -> Optional[int]:
    return min(indices, key=lambda i: search.keys[i], default=None)


@dataclass(frozen=True)
class MalcevSearchResult:
    """Outcome of a bounded Mal'cev term search.

    term is None when no derived operation within the depth bound (and
    work budget) satisfies the identities; truncated reports whether the
    budget cut the exploration short of the full depth, and exhausted
    names that budget ("table" or "candidate").
    """

    term: Optional[Term]
    truncated: bool
    tables_explored: int
    max_depth: int
    exhausted: Optional[str] = None


def malcev_search(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                  second_identity: str = "x",
                  table_budget: int = DEFAULT_TABLE_BUDGET,
                  candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                  max_term_size: Optional[int] = None) -> MalcevSearchResult:
    """Search for a ternary term P with P(x,x,z) = z and P(x,z,z) = x.

    second_identity selects the expected value of P(x,z,z): "x" is the
    standard Mal'cev condition; "z" yields a degenerate condition that
    the projection onto the third variable already satisfies.  The
    search scans derived ternary operations breadth-first by depth and
    returns, from the first depth level containing any qualifying
    operation, the representative term least in the canonical order.
    max_term_size additionally prunes candidates whose representative
    term would exceed that node count.  The witness is re-verified
    through the term evaluator on all triples.
    """
    if second_identity not in ("x", "z"):
        raise ValueError("second_identity must be 'x' or 'z'")
    search = _TableSearch(alg, 3, table_budget, candidate_budget,
                          max_term_size)
    d0, d1, d2 = search.digits
    m1 = np.where(d0 == d1)[0]
    m2 = np.where(d1 == d2)[0]
    cols = np.concatenate([m1, m2])
    values = np.concatenate(
        [d2[m1], d0[m2] if second_identity == "x" else d2[m2]])
    new = range(len(search.vectors))
    depth = 0
    while True:
        hits = search.satisfying(new, cols, values)
        if hits:
            best = _canonical_min(search, hits)
            term = search.terms[best]
            if not malcev_identities_hold(alg, term,
                                          second_identity=second_identity):
                raise AssertionError("witness fails the Mal'cev identities")
            return MalcevSearchResult(term, search.truncated,
                                      len(search.vectors), max_depth,
                                      search.exhausted)
        depth += 1
        if depth > max_depth or search.truncated:
            return MalcevSearchResult(None, search.truncated,
                                      len(search.vectors), max_depth,
                                      search.exhausted)
        new = search.run_level(depth)


def find_malcev_term(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                     second_identity: str = "x",
                     table_budget: int = DEFAULT_TABLE_BUDGET,
                     candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                     max_term_size: Optional[int] = None) -> Optional[Term]:
    """The witness term from malcev_search, or None (absence is a value)."""
    return malcev_search(
        alg, max_depth, second_identity=second_identity,
        table_budget=table_budget, candidate_budget=candidate_budget,
        max_term_size=max_term_size).term


# ---------------------------------------------------------------------------
# permutability cross-check

@dataclass(frozen=True)
class PermutabilityReport:
    """Joint view of the congruence lattice and the term search.

    verdict is "consistent" when a found term coincides with full
    pairwise permutability, or when absence coincides with a
    non-permuting pair; "inconclusive" when nothing was found but all
    pairs permute (the bounded search proves nothing); "violation" when
    a verified term coexists with a non-permuting pair (impossible:
    would indicate a defect in one of the two computations).
    """

    term: Optional[Term]
    truncated: bool
    congruence_count: int
    non_permuting: tuple[tuple[Congruence, Congruence], ...]
    verdict: str


def check_permutability_theorem(alg: FiniteAlgebra,
                                max_depth: int = DEFAULT_DEPTH, *,
                                table_budget: int = DEFAULT_TABLE_BUDGET,
                                candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                                max_term_size: Optional[int] = None
                                ) -> PermutabilityReport:
    """Compare find_malcev_term against pairwise congruence permutability."""
    congs = all_congruences(alg)
    bad = non_permuting_pairs(congs)
    result = malcev_search(alg, max_depth, table_budget=table_budget,
                           candidate_budget=candidate_budget,
                           max_term_size=max_term_size)
    if result.term is not None:
        verdict = "violation" if bad else "consistent"
    else:
        verdict = "consistent" if bad else "inconclusive"
    return PermutabilityReport(result.term, result.truncated, len(congs),
                               tuple(bad), verdict)


# ---------------------------------------------------------------------------
# biternary pairs

@dataclass(frozen=True)
class BiternaryPair:
    """Derived ternary operations with a(x,x,y) = y and the two
    mutual-inverse laws a(b(x,y,z),y,z) = x, b(a(x,y,z),y,z) = x."""

    alpha: Term
    beta: Term


@dataclass(frozen=True)
class BiternarySearchResult:
    """Outcome of a bounded biternary-pair search.

    pair is None when no (alpha, beta) pair exists within the depth
    bound (or the scan truncated; see truncated, and exhausted for the
    budget that ran out)."""

    pair: Optional[BiternaryPair]
    truncated: bool
    tables_explored: int
    max_depth: int
    exhausted: Optional[str] = None


def detect_biternary(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                     table_budget: int = DEFAULT_TABLE_BUDGET,
                     candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                     max_term_size: Optional[int] = None
                     ) -> BiternarySearchResult:
    """First (alpha, beta) pair of derived ternary operations, ordered by
    the canonical term order on alpha then beta, or None within bounds.

    The pair found at the earliest depth level is returned; among pairs
    first complete at that level, the least by (alpha key, beta key)
    wins.  Pair checks share the candidate budget of the underlying
    table search, so on very rich algebras the scan can truncate before
    settling the question."""
    search = _TableSearch(alg, 3, table_budget, candidate_budget,
                          max_term_size)
    n = alg.size
    d0, d1, d2 = search.digits
    diag = np.where(d0 == d1)[0]
    diag_t = d2[diag]
    tail = d1.astype(np.int64) * n + d2

    def cross(va: np.ndarray, vb: np.ndarray) -> bool:
        inner = vb.astype(np.int64) * (n * n) + tail
        if not np.array_equal(va[inner], search.digits[0]):
            return False
        inner = va.astype(np.int64) * (n * n) + tail
        return bool(np.array_equal(vb[inner], search.digits[0]))

    def key(i: int):
        return search.keys[i]

    alphas: list[int] = []
    prev_total = 0
    new = range(len(search.vectors))
    depth = 0
    while True:
        new_alphas = search.satisfying(new, diag, diag_t)
        total = len(search.vectors)
        # only pairs completed at this level: a new alpha against any
        # table, or an older alpha against a new table
        fresh_pairs = chain(
            ((a, b) for a in new_alphas for b in range(total)),
            ((a, b) for a in alphas for b in range(prev_total, total)))
        hits = []
        for a, b in fresh_pairs:
            if not search._spend(1):
                break
            if cross(search.vectors[a], search.vectors[b]):
                hits.append((a, b))
        if hits:
            a, b = min(hits, key=lambda p: (key(p[0]), key(p[1])))
            pair = BiternaryPair(search.terms[a], search.terms[b])
            _verify_biternary(alg, pair)
            return BiternarySearchResult(pair, search.truncated,
                                         len(search.vectors), max_depth,
                                         search.exhausted)
        alphas.extend(new_alphas)
        prev_total = total
        depth += 1
        if depth > max_depth or search.truncated:
            return BiternarySearchResult(None, search.truncated,
                                         len(search.vectors), max_depth,
                                         search.exhausted)
        new = search.run_level(depth)


def find_biternary_pair(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                        table_budget: int = DEFAULT_TABLE_BUDGET,
                        candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                        max_term_size: Optional[int] = None
                        ) -> Optional[BiternaryPair]:
    """The pair from detect_biternary, or None when not found in bounds."""
    return detect_biternary(
        alg, max_depth, table_budget=table_budget,
        candidate_budget=candidate_budget, max_term_size=max_term_size).pair


def _verify_biternary(alg: FiniteAlgebra, pair: BiternaryPair):
    for x in range(alg.size):
        for y in range(alg.size):
            if eval_term(pair.alpha, (x, x, y), alg) != y:
                raise AssertionError("alpha(x,x,y) = y fails")
            for z in range(alg.size):
                w = eval_term(pair.beta, (x, y, z), alg)
                if eval_term(pair.alpha, (w, y, z), alg) != x:
                    raise AssertionError("alpha(beta(x,y,z),y,z) = x fails")
                w = eval_term(pair.alpha, (x, y, z), alg)
                if eval_term(pair.beta, (w, y, z), alg) != x:
                    raise AssertionError("beta(alpha(x,y,z),y,z) = x fails")


def malcev_from_biternary(alg: FiniteAlgebra, pair: BiternaryPair,
                          anchor: int) -> tuple[Term, bool]:
    """P(x,y,z) = beta(alpha(x, y, a), z, a) for a fixed anchor a.

    Returns the composite as a term over four variables (x3 standing for
    the anchor) together with the exhaustive check of the two Mal'cev
    identities at that anchor."""
    a_term = _substitute(pair.alpha, (Var(0), Var(1), Var(3)))
    composite = _substitute(pair.beta, (a_term, Var(2), Var(3)))
    return composite, malcev_identities_hold(alg, composite, anchor)


def _substitute(t: Term, replacements: tuple[Term, ...]) -> Term:
    if isinstance(t, Var):
        return replacements[t.index]
    return App(t.op, tuple(_substitute(a, replacements) for a in t.args))


# ---------------------------------------------------------------------------
# translation groups

def translation_group(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                      max_maps: int = 100_000,
                      candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
                      ) -> TranslationGroup:
    """Reversible translations x -> F(x) with F a unary polynomial form.

    A one-variable _TableSearch with the n constant maps seeded beside
    x0 at level 0, so that level d holds the unary polynomial maps of
    depth d; it stops early once a level adds no map.  The bijective
    tables are the generators, sorted, and their composition closure is
    the group.  transitive reports whether the closure acts transitively
    on the carrier.  max_maps is the search's table budget.  truncated
    is set when the table or candidate budget ran out; the search
    charges candidates per slab, so the maps found by then are those of
    the slabs it completed.
    """
    n = alg.size
    # each nullary operation spends a candidate at depth 1 on a constant
    # map that level 0 already holds, which the budget allows for
    nullary = sum(1 for _, arity in alg.sig.ops if arity == 0)
    search = _TableSearch(alg, 1, max_maps, candidate_budget + nullary)
    for c in range(n):
        # the constants as extra variables, keyed after x0
        search._add(np.full(n, c, dtype=search.dtype), (1, (0, 1 + c), ()),
                    0, Var, 1 + c)
    for depth in range(1, max_depth + 1):
        if not search.run_level(depth) or search.truncated:
            break
    tables = np.stack(search.vectors)
    bijective = np.all(np.sort(tables, axis=1) == search.digits[0], axis=1)
    generators = tuple(sorted(map(tuple, tables[bijective].tolist())))
    closure = composition_closure(generators, n)
    orbit = {g[0] for g in closure}
    return TranslationGroup(generators, closure, len(orbit) == n,
                            search.truncated)
