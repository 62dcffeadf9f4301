"""Mal'cev-style term searches over finite algebras.

The searches walk the derived operations of an algebra breadth-first by
term depth: level 0 holds the variable projections, and level d+1 holds
every basic operation applied to vectors from earlier levels.  Distinct
derived operations are deduplicated by their full value table, and each
table is represented by the canonically least term among the candidates
of the level that first produced it.  The tables are the rows of one 2-D
store, found again through a hash of each row that a full comparison
confirms, and each table records only its derivation (an operation and
the indices of its children).  Candidates are compared by integer keys
built from their children's ranks in canonical order, the least witness
is picked by the same ranks, and terms are built from the derivations
only for the tables a caller asks about.  Every arity is walked in the
same budget steps, a prefix of children against a slab of last children
that fit the size cap, by one look-up.  Qualification (the Mal'cev
identities, or the biternary identities) depends only on the value
table and is tested on each level's new tables at once, which makes the
deduplicated search exact as a decision procedure within the depth
bound; deterministic work budgets cap the exploration, and a
budget-truncated search reports absence within bounds and names the
budget that ran out.  Every returned witness is re-verified exhaustively
through the compiled term evaluator, independently of the table
arithmetic used during the search.

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
from functools import cache
from itertools import chain
from typing import Iterator, Optional

import numpy as np

from .algebras import FiniteAlgebra
from .congruences import Congruence, all_congruences, non_permuting_pairs
from .quasigroups import (TranslationGroup, composition_closure,
                          malcev_identities_hold)
from .terms import (App, Signature, Term, Var, assignment_columns,
                    compile_evaluator, term_depth, term_key)

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

# heads below this are variables, by index; heads at or above it are
# operations, by signature index
_OP_HEAD = 1 << 32
# the most last children of one (prefix, slab) step, charged at once
_SLAB = 4096
# rows hash as words times fixed odd 64-bit weights, summed mod 2^64,
# one block of words at a time (the running hash is multiplied by
# _HASH_STEP before each block), over at most _HASH_BYTES of 64-bit
# words at once
_HASH_BLOCK = 4096
_HASH_BYTES = 1 << 21
_HASH_STEP = np.uint64(0x9E3779B97F4A7C15)


def _odd_weights(count: int) -> np.ndarray:
    """The first count outputs of splitmix64, made odd."""
    z = np.arange(1, count + 1, dtype=np.uint64) * _HASH_STEP
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)) | np.uint64(1)


_HASH_WEIGHTS = _odd_weights(_HASH_BLOCK)
# look-ups of at least this many uint8 indices take two bytes at a time;
# the 2^16-entry table that this needs costs about as much to build as
# it saves over about 2^19 entries, so searches whose look-ups are all
# small never build it
_PAIR_MIN = 1 << 17
# steps are added together up to about this many table entries
_GROUP_ENTRIES = 1 << 18


class _TableSearch:
    """Breadth-first closure of k-ary derived operations of an algebra.

    Tables are value tables over all n^k assignments (x0 most
    significant), in the narrowest unsigned type that holds n values.
    They are the rows of one growable 2-D store, in discovery order,
    beside integer arrays of each table's term size, discovery level and
    derivation: its head (a variable or an operation) and the indices of
    its child tables.  A dict from a 64-bit row hash to the first table
    with that hash finds repeats; every hit is confirmed by comparing
    the full rows, and a genuine collision takes the exact path
    (_offer), which compares the row with every table of its hash.

    A level is walked in steps, each charged to the candidate budget as
    one _spend: for an operation of any positive arity, a prefix of all
    children but the last against up to _SLAB last children that fit the
    size cap, never one tuple at a time.  Consecutive steps that cannot
    run a budget out are computed together, every table by one look-up
    at (flat prefix << shift) | last, and hashed and deduplicated at
    once, with the outcome of offering their rows one by one.  Each table
    keeps the canonically least term among the candidates of its
    discovery level.  Candidates compare as integer tuples (size, head,
    rank of each child), where the ranks order every table before the
    current level by canonical key; they are recomputed once per level,
    and children always come from earlier levels.  ranks() extends the
    ranking to every table, which is how the searches pick their least
    witness; term(i) and key(i) build the term and its nested canonical
    key (term_key) from the derivations on demand.  exhausted names the
    budget ("table" or "candidate") that truncated the search.
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
        self.count = 0
        self.dtype = np.min_scalar_type(self.n - 1)
        width = max((arity for _, arity in alg.sig.ops), default=0)
        self._store = np.empty((16, self.length), self.dtype)
        self._sizes = np.empty(16, np.int64)
        self._levels = np.empty(16, np.int64)
        self._heads = np.empty(16, np.int64)
        # child indices, padded with -1 to the largest arity
        self._kids = np.empty((16, width), np.int64)
        self._index: dict[int, int] = {}
        self._chains: dict[int, list[int]] = {}
        # the ranks of the tables before the current level, then -1,
        # which the kids' padding (-1) picks
        self._rank = np.full(1, -1, np.int64)
        self._level_start: dict[int, int] = {}
        row_bytes = self.length * self.dtype.itemsize
        self._word = np.dtype(f"u{min(4, row_bytes & -row_bytes)}")
        # look-ups index (flat prefix << shift) | last child
        self._shift = (self.n - 1).bit_length()
        # per operation name its look-up table, and per (name, 2) the
        # table that looks up two byte indices at once
        self._luts: dict = {}
        self.op_arrays = {
            name: np.array(alg.op_tables[name], dtype=self.dtype)
            for name, _ in alg.sig.ops}
        self.digits = [
            np.tile(np.repeat(np.arange(self.n, dtype=self.dtype),
                              self.n**(self.k - 1 - i)), self.n**i)
            for i in range(self.k)]
        self._vars = 0
        for digit in self.digits:
            self.add_variable(digit)

    def __len__(self) -> int:
        return self.count

    @property
    def truncated(self) -> bool:
        return self.exhausted is not None

    @property
    def tables(self) -> np.ndarray:
        """The tables found so far, one row each, in discovery order."""
        return self._store[:self.count]

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes[:self.count]

    @property
    def levels(self) -> np.ndarray:
        return self._levels[:self.count]

    def term(self, i: int) -> Term:
        """The representative term of table i."""
        head = int(self._heads[i])
        if head < _OP_HEAD:
            return Var(head)
        name, arity = self.alg.sig.ops[head - _OP_HEAD]
        return App(name, tuple(map(self.term, self._kids[i, :arity].tolist())))

    def key(self, i: int) -> tuple:
        """The canonical key (term_key) of table i's term."""
        head = int(self._heads[i])
        size = int(self._sizes[i])
        if head < _OP_HEAD:
            return (size, (0, head), ())
        op = head - _OP_HEAD
        kids = self._kids[i, :self.alg.sig.ops[op][1]].tolist()
        return (size, (1, op), tuple(map(self.key, kids)))

    def ranks(self) -> np.ndarray:
        """Each table's position in the canonical order of the terms."""
        self._rank_tables(self.count)
        return self._rank[:self.count]

    def add_variable(self, vec: np.ndarray) -> None:
        """Offer vec at level 0 as the table of the next variable."""
        self._offer(vec, self._hash(vec[None])[0], 0, self._vars, (), 1)
        self._vars += 1

    def _spend(self, count: int) -> bool:
        """Charge the candidate budget; False once a budget is exhausted."""
        if self.truncated:
            return False
        self.candidates_used += count
        if self.candidates_used > self.candidate_budget:
            self.exhausted = "candidate"
        elif self.count > self.table_budget:
            self.exhausted = "table"
        return not self.truncated

    def satisfying(self, indices: range, cols: np.ndarray,
                   values: np.ndarray) -> list[int]:
        """The indices whose tables take values at positions cols."""
        hits: list[int] = []
        # about 1 MiB of entries at a time
        step = max(1, (1 << 20) // max(1, len(cols)))
        for lo in range(indices.start, indices.stop, step):
            block = self._store[lo:min(lo + step, indices.stop), cols]
            ok = np.all(block == values, axis=1)
            hits.extend((np.flatnonzero(ok) + lo).tolist())
        return hits

    def _rank_tables(self, stop: int) -> None:
        """Rank tables [0, stop) by canonical key: size, head, then the
        children's ranks, which the previous ranking fixed."""
        kid_ranks = self._rank[self._kids[:stop]]
        order = np.lexsort((*kid_ranks.T[::-1], self._heads[:stop],
                            self._sizes[:stop]))
        rank = np.empty(stop + 1, np.int64)
        rank[order] = np.arange(stop)
        rank[stop] = -1
        self._rank = rank

    def _hash(self, rows: np.ndarray) -> np.ndarray:
        """A 64-bit hash of each row of rows, a function of the row alone."""
        words = rows.view(self._word)
        hashes = np.zeros(len(rows), np.uint64)
        width = words.shape[1]
        step = max(1, _HASH_BYTES // (8 * min(width, _HASH_BLOCK)))
        for lo in range(0, len(rows), step):
            part = hashes[lo:lo + step]
            for c in range(0, width, _HASH_BLOCK):
                block = words[lo:lo + step, c:c + _HASH_BLOCK]
                part *= _HASH_STEP
                part += block.astype(np.uint64) @ \
                    _HASH_WEIGHTS[:block.shape[1]]
        return hashes

    def _reserve(self, extra: int) -> None:
        """Room for extra more tables.  Full arrays grow fourfold: the
        pages past count stay untouched, so only the copies cost."""
        need = self.count + extra
        if need <= len(self._sizes):
            return
        capacity = max(need, 4 * len(self._sizes))
        for name in ("_store", "_sizes", "_levels", "_heads", "_kids"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], old.dtype)
            new[:self.count] = old[:self.count]
            setattr(self, name, new)

    def _derive(self, i, size, head, kids: np.ndarray) -> None:
        """Record table(s) i as head applied to kids, of size nodes."""
        self._sizes[i] = size
        self._heads[i] = head
        self._kids[i] = -1
        self._kids[i, :kids.shape[-1]] = kids

    def _keys(self, sizes, heads, kids: np.ndarray) -> np.ndarray:
        """Integer keys (size, head, rank of each child, -1 padding) of
        candidates, ordered as the canonical keys of their terms."""
        keys = np.full((len(kids), 2 + self._kids.shape[1]), -1, np.int64)
        keys[:, 0] = sizes
        keys[:, 1] = heads
        keys[:, 2:2 + kids.shape[1]] = self._rank[kids]
        return keys

    def _improve(self, t: np.ndarray, keys: np.ndarray,
                 kids: np.ndarray) -> None:
        """Re-derive each table t[j] of the current level from kids[j]
        where keys[j] is less than the key it has."""
        own = self._keys(self._sizes[t], self._heads[t], self._kids[t])
        diff = keys != own
        col = diff.argmax(axis=1)
        row = np.arange(len(t))
        better = diff[row, col] & (keys[row, col] < own[row, col])
        self._derive(t[better], keys[better, 0], keys[better, 1],
                     kids[better])

    def _offer(self, vec: np.ndarray, h, level: int, head: int, kids,
               size: int) -> None:
        """The exact path: add table vec, with hash h, reached by
        head(kids) of size nodes, unless the store holds it; if it does,
        at this level, keep the lesser key."""
        h = int(h)
        kids = np.array(kids, np.int64).reshape(1, -1)
        first = self._index.get(h)
        if first is not None:
            same = [first, *self._chains.get(h, ())]
            equal = np.flatnonzero((self._store[same] == vec).all(axis=1))
            if len(equal):
                i = same[equal[0]]
                if self._levels[i] == level:
                    self._improve(np.array([i]),
                                  self._keys([size], [head], kids), kids)
                return
        self._reserve(1)
        i = self.count
        self._store[i] = vec
        self._levels[i] = level
        self._derive(i, size, head, kids[0])
        self.count += 1
        if first is None:
            self._index[h] = i
        else:
            self._chains.setdefault(h, []).append(i)

    def _lookup(self, name: str, idx: np.ndarray, out: np.ndarray) -> None:
        """Write op(prefix, last) at every index (flat prefix << shift) |
        last of idx to out."""
        table = self._luts.get(name)
        if table is None:
            # the op table as rows of last children, padded to 2^shift
            values = self.op_arrays[name].reshape(-1, self.n)
            table = np.zeros((len(values), 1 << self._shift), self.dtype)
            table[:, :self.n] = values
            table = self._luts[name] = table.ravel()
        if idx.size >= _PAIR_MIN and idx.dtype == np.uint8 and \
                self.dtype == np.uint8 and self.length % 2 == 0:
            # two byte indices per 16-bit word, through a table of all 2^16
            pairs = self._luts.get((name, 2))
            if pairs is None:
                full = np.zeros(256, np.uint8)
                full[:len(table)] = table
                pairs = self._luts[(name, 2)] = full[
                    np.arange(1 << 16, dtype=np.uint16).view(np.uint8)
                ].view(np.uint16)
            table, idx, out = pairs, idx.view(np.uint16), out.view(np.uint16)
        # np.take copies the indices to intp, so a stretch at a time
        idx, out = idx.reshape(-1), out.reshape(-1)
        for lo in range(0, len(idx), _GROUP_ENTRIES):
            np.take(table, idx[lo:lo + _GROUP_ENTRIES],
                    out=out[lo:lo + _GROUP_ENTRIES], mode="clip")

    def run_level(self, depth: int) -> range:
        """Expand one level; returns indices of newly found tables."""
        frontier_start = 0 if depth == 1 else self._level_start[depth - 1]
        start = self.count
        self._rank_tables(start)
        for op_index, (name, arity) in enumerate(self.alg.sig.ops):
            if self.truncated:
                break
            head = _OP_HEAD + op_index
            if arity == 0:
                if depth == 1 and self._spend(1):
                    vec = np.full(self.length, self.alg.op_tables[name][0],
                                  dtype=self.dtype)
                    self._offer(vec, self._hash(vec[None])[0], 1, head, (), 1)
            else:
                self._expand(name, head, depth,
                             self._steps(arity, frontier_start, start))
        self._level_start[depth] = start
        return range(start, self.count)

    def _steps(self, arity, f0, r):
        """(count, (prefix, lasts)) per step: a prefix of arity - 1
        children against up to _SLAB last children, one block per leading
        frontier position (old^i x frontier x all^(arity-1-i)), prefixes
        in lexicographic order and last children ascending.  Each
        position takes only the children that leave room under the size
        cap for the positions after it, so every prefix walked has a step."""
        # sizes below r are final for the whole level
        sizes = self._sizes[:r]
        size_of = sizes.tolist()
        # the room for the children's sizes together; with no cap, ample
        room = arity * max(size_of) if self.max_term_size is None \
            else self.max_term_size - 1
        for lead in range(arity):
            spans = [(0, f0)] * lead + [(f0, r)] + \
                    [(0, r)] * (arity - 1 - lead)
            if any(lo == hi for lo, hi in spans):
                continue
            # need[p]: the least size the positions after p take together
            least = [int(sizes[lo:hi].min()) for lo, hi in spans]
            need = [sum(least[p + 1:]) for p in range(arity)]

            @cache
            def children(p, room):
                """The children at p that fit in room and leave need[p]."""
                lo, hi = spans[p]
                return lo + np.flatnonzero(sizes[lo:hi] <= room - need[p])

            def extend(prefixes, p):
                for prefix, room in prefixes:
                    for i in children(p, room).tolist():
                        yield prefix + (i,), room - size_of[i]

            prefixes = [((), room)]
            for p in range(arity - 1):
                prefixes = extend(prefixes, p)
            for prefix, left in prefixes:
                lasts = children(arity - 1, left)
                for c0 in range(0, len(lasts), _SLAB):
                    batch = lasts[c0:c0 + _SLAB]
                    yield len(batch), (prefix, batch)

    def _fits(self, pending: int, count: int) -> bool:
        """Whether a step of count candidates after pending ones (each of
        which may add a table) surely leaves both budgets unspent."""
        return (self.candidates_used + pending + count
                <= self.candidate_budget
                and self.count + pending <= self.table_budget)

    def _expand(self, name, head, depth, steps) -> None:
        """Offer the candidates of steps in order, charging each step as
        one _spend.  Consecutive steps that cannot run a budget out are
        charged and added together, up to a group of _SLAB candidates (or
        fewer for long tables); a step that may is charged alone."""
        limit = min(_SLAB, max(1, _GROUP_ENTRIES // self.length))
        group: list = []
        pending = 0
        for count, step in steps:
            if pending and (pending + count > limit
                            or not self._fits(pending, count)):
                self.candidates_used += pending
                self._add_rows(head, depth, *self._rows(name, group))
                group, pending = [], 0
            if self._fits(pending, count):
                group.append(step)
                pending += count
            elif self._spend(count):
                self._add_rows(head, depth, *self._rows(name, [step]))
            else:
                return
        if pending:
            self.candidates_used += pending
            self._add_rows(head, depth, *self._rows(name, group))

    def _rows(self, name, steps):
        """The children and tables of steps (prefix, lasts), in order, each
        table looked up at (flat prefix << shift) | last, a stretch of rows
        at a time; the flat prefix (x0 most significant) is computed once
        per step, in the narrowest type that holds every index."""
        counts = [len(lasts) for _, lasts in steps]
        prefixes = np.array([prefix for prefix, _ in steps], np.int64)
        kids = np.column_stack((np.repeat(prefixes, counts, axis=0),
                                np.concatenate([ls for _, ls in steps])))
        width = prefixes.shape[1]
        flat = np.zeros((len(steps), self.length), np.min_scalar_type(
            ((self.n**width - 1) << self._shift) | (self.n - 1)))
        for column in prefixes.T:
            flat *= self.n
            flat += self._store[column]
        flat <<= self._shift
        step_of = np.repeat(np.arange(len(steps)), counts)
        out = np.empty((len(kids), self.length), self.dtype)
        rows = max(1, _GROUP_ENTRIES // self.length)
        for lo in range(0, len(kids), rows):
            idx = flat[step_of[lo:lo + rows]]
            idx |= self._store[kids[lo:lo + rows, -1]]
            self._lookup(name, idx, out[lo:lo + rows])
        return kids, out

    def _add_rows(self, head, depth, kids, out) -> None:
        """Offer the tables out, row j reached by head(kids[j]), with the
        outcome of _offer row by row, deduplicating all rows at once."""
        sizes = 1 + self._sizes[kids].sum(axis=1)
        hashes = self._hash(out)
        uniq, first, inverse = np.unique(hashes, return_index=True,
                                         return_inverse=True)
        get = self._index.get
        target = np.array([get(h, -1) for h in uniq.tolist()], np.int64)
        new = np.flatnonzero(target < 0)
        new = new[np.argsort(first[new])]
        start, end = self.count, self.count + len(new)
        target[new] = np.arange(start, end)
        target = target[inverse.ravel()]
        made = first[new]
        self._reserve(len(new))
        np.take(out, made, axis=0, out=self._store[start:end], mode="clip")
        rest = np.ones(len(out), bool)
        rest[made] = False
        rest = np.flatnonzero(rest)
        step = max(1, _GROUP_ENTRIES // self.length)
        for lo in range(0, len(rest), step):
            part = rest[lo:lo + step]
            if not np.array_equal(self._store[target[part]], out[part]):
                # a hash collision
                for j, row in enumerate(kids.tolist()):
                    self._offer(out[j], hashes[j], depth, head, row,
                                int(sizes[j]))
                return
        self._index.update(zip(uniq[new].tolist(), range(start, end)))
        self.count = end
        self._levels[start:end] = depth
        self._derive(slice(start, end), sizes[made], head, kids[made])
        # the other rows on tables of this level: per table, the row of
        # least key against the key it has
        rest = rest[self._levels[target[rest]] == depth]
        if not len(rest):
            return
        keys = self._keys(sizes[rest], head, kids[rest])
        order = np.lexsort((*keys.T[::-1], target[rest]))
        t = target[rest[order]]
        lead = order[np.flatnonzero(np.r_[True, t[1:] != t[:-1]])]
        self._improve(target[rest[lead]], keys[lead], kids[rest[lead]])


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
    new = range(len(search))
    depth = 0
    while True:
        hits = search.satisfying(new, cols, values)
        if hits:
            best = min(hits, key=search.ranks().__getitem__)
            term = search.term(best)
            if not malcev_identities_hold(alg, term,
                                          second_identity=second_identity):
                raise AssertionError("witness fails the Mal'cev identities")
            return MalcevSearchResult(term, search.truncated,
                                      len(search), max_depth,
                                      search.exhausted)
        depth += 1
        if depth > max_depth or search.truncated:
            return MalcevSearchResult(None, search.truncated,
                                      len(search), max_depth,
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
    # positions x*n^2 + y*n + z, in the narrowest type that holds n^3 - 1
    index_type = np.min_scalar_type(n**3 - 1).type
    square = index_type(n * n)
    tail = d1.astype(index_type) * index_type(n) + d2

    def cross(va: np.ndarray, vb: np.ndarray) -> bool:
        inner = vb.astype(index_type) * square + tail
        if not np.array_equal(va[inner], d0):
            return False
        inner = va.astype(index_type) * square + tail
        return bool(np.array_equal(vb[inner], d0))

    alphas: list[int] = []
    prev_total = 0
    new = range(len(search))
    depth = 0
    while True:
        new_alphas = search.satisfying(new, diag, diag_t)
        total = len(search)
        tables = search.tables
        # only pairs completed at this level: a new alpha against any
        # table, or an older alpha against a new table
        fresh_pairs = chain(
            ((a, b) for a in new_alphas for b in range(total)),
            ((a, b) for a in alphas for b in range(prev_total, total)))
        hits = []
        for a, b in fresh_pairs:
            if not search._spend(1):
                break
            if cross(tables[a], tables[b]):
                hits.append((a, b))
        if hits:
            rank = search.ranks()
            a, b = min(hits, key=lambda p: (rank[p[0]], rank[p[1]]))
            pair = BiternaryPair(search.term(a), search.term(b))
            _verify_biternary(alg, pair)
            return BiternarySearchResult(pair, search.truncated,
                                         len(search), max_depth,
                                         search.exhausted)
        alphas.extend(new_alphas)
        prev_total = total
        depth += 1
        if depth > max_depth or search.truncated:
            return BiternarySearchResult(None, search.truncated,
                                         len(search), max_depth,
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
    """Re-check the three identities over all assignments by evaluating
    the terms, composed as columns, independently of the search."""
    alpha = compile_evaluator(pair.alpha, alg, 3)
    beta = compile_evaluator(pair.beta, alg, 3)
    x, y = assignment_columns(alg.size, 2)
    if alpha((x, x, y)) != y:
        raise AssertionError("alpha(x,x,y) = y fails")
    x, y, z = assignment_columns(alg.size, 3)
    if alpha((beta((x, y, z)), y, z)) != x:
        raise AssertionError("alpha(beta(x,y,z),y,z) = x fails")
    if beta((alpha((x, y, z)), y, z)) != x:
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
        search.add_variable(np.full(n, c, dtype=search.dtype))
    for depth in range(1, max_depth + 1):
        if not search.run_level(depth) or search.truncated:
            break
    tables = search.tables
    bijective = np.all(np.sort(tables, axis=1) == search.digits[0], axis=1)
    generators = tuple(sorted(map(tuple, tables[bijective].tolist())))
    closure = composition_closure(generators, n)
    orbit = {g[0] for g in closure}
    return TranslationGroup(generators, closure, len(orbit) == n,
                            search.truncated)
