"""Mal'cev-style term searches over finite algebras.

The searches walk the derived operations of an algebra breadth-first by
term depth: level 0 holds the variable projections, and level d+1 holds
every basic operation applied to tables of earlier levels.  Each derived
operation is kept once, as a row of one 2-D store found again through a
hash of the row (as words of up to 8 bytes) that a full comparison
confirms.  The variables are deduplicated as one group, and a level's
candidates in groups that span its operations, each with one pass
through the hash index.  Each table
is represented by the canonically least term among the candidates of
the level that first produced it, a choice settled only when the
table's key or term is read; terms are built from the tables'
derivations only for the tables a caller asks about.
Qualification (the Mal'cev or the biternary identities) depends only on
the value table and is tested on each level's new tables at once, so
the search is exact as a decision procedure within the depth bound;
a biternary beta is not searched for but built, as the section-wise
inverse of its alpha, and looked up in the store.  Deterministic work
budgets cap the table search, and a truncated search reports absence
within bounds and names the budget that ran out.  Every returned
witness is re-verified through the compiled term evaluator,
independently of the table arithmetic.

Once it has walked a slab of candidates, the Mal'cev search keeps each
table's values at one assignment per automorphism orbit only, which
decides the same (_orbit_positions): S3 x Z2's rows shrink from 1728
entries to 252.  The biternary search inverts whole sections, and the
translations seed constants no automorphism need fix, so both keep
every assignment.

translation_group runs the same search over one variable, with the
constant maps seeded beside x0 at level 0, so that its tables are the
unary polynomial maps; it closes the bijective ones with
composition_closure, which lives in quasigroups next to
multiplication_group and is re-exported here.  A truncated run keeps
the maps of the slabs the search completed before its budget ran out.
All three searches walk the levels the same way, and stop at the first
level that adds no table: every deeper level would be empty too, so a
depth bound past that level costs nothing.

This is the only module that imports numpy.  The package and the
command line load it on first use of a search name, so commands that
search nothing start without numpy.
"""

from __future__ import annotations

from functools import cache
from itertools import groupby, product
from operator import itemgetter
from typing import TYPE_CHECKING, Optional

import numpy as np

from .algebras import FiniteAlgebra, find_homomorphisms
from .errors import Record, SearchBudgetExceeded
from .quasigroups import (TranslationGroup, composition_closure,
                          malcev_identities_hold)
from .terms import App, Term, Var, assignment_columns, compile_evaluator

if TYPE_CHECKING:  # loaded on use: only the permutability report needs it
    from .congruences import Congruence

DEFAULT_DEPTH = 4
DEFAULT_TABLE_BUDGET = 150_000
DEFAULT_CANDIDATE_BUDGET = 2_000_000
# the table budget of translation_group
_TRANSLATION_MAPS = 100_000


# ---------------------------------------------------------------------------
# derived-operation breadth-first search

# heads below this are variables, by index; heads at or above it are
# operations, by signature index
_OP_HEAD = 1 << 32
# the most last children of one (prefix, slab) step, charged at once
_SLAB = 4096
# rows hash as words of up to 8 bytes times fixed odd 64-bit weights,
# summed mod 2^64 a block of words at a time (the running hash times
# _HASH_STEP first), over at most _HASH_BYTES of 64-bit words at once
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


def _orbit_positions(alg: FiniteAlgebra, digits) -> Optional[np.ndarray]:
    """The positions of the assignments (digits, x0 most significant)
    that no listed automorphism of alg maps to a lower position; None,
    to keep every one, when alg has no automorphism but the identity or
    listing them would try more than n^k generator images.  Up to _SLAB
    automorphisms are listed.

    Every derived operation t commutes with each automorphism s, so
    t(s(p)) = s(t(p)) fixes t at a dropped p from its value at the lower
    s(p): by induction, tables that agree at the kept positions agree
    everywhere.  The Mal'cev positions, (x,x,z) and (x,z,z), are mapped
    among themselves, so the Mal'cev test at the kept ones decides the
    same."""
    n = alg.size
    try:
        autos = find_homomorphisms(alg, alg, strong=True,
                                   budget=n**len(digits), limit=_SLAB)
    except SearchBudgetExceeded:
        return None
    if len(autos) < 2:
        return None
    position = np.arange(n**len(digits))
    keep = np.ones(len(position), bool)
    for s in np.array(autos, np.int64):
        image = np.zeros(len(position), np.int64)
        for digit in digits:
            image *= n
            image += s[digit]
        keep &= image >= position
    return np.flatnonzero(keep)


class _TableSearch:
    """Breadth-first closure of k-ary derived operations of an algebra.

    Tables are value tables over all n^k assignments (x0 most
    significant), in the narrowest unsigned type that holds n values:
    the rows of one growable 2-D store, in discovery order, beside each
    table's discovery level and its derivation row: term size, head
    (variable or operation), then the child tables, padded with -1 to
    the largest arity.  A dict from a 64-bit row hash to the first table
    with that hash finds repeats; every hit is confirmed by comparing
    the full rows, and a genuine collision looks each table up one at a
    time (find).  Every table enters the store through _add_rows: the
    variables (and any seeded after them) in one call at level 0, and a
    level's candidates, nullary constants among them, a group at a time.
    A search made with by_orbit cuts every table, and digits, to the
    assignments _orbit_positions keeps (one per orbit when it lists
    every automorphism) once it has walked _SLAB candidates (_expand),
    and files the tables found so far by their new hashes.

    walk(max_depth) drives the levels for every search: it ends at the
    depth bound, at the first level that adds no table, or at a budget.
    A level is walked in one stream of steps over all its operations
    (_level_steps), each charged to the candidate budget as one _spend.
    Consecutive steps that cannot run a budget out, of one operation or
    of several, are looked up and hashed as one group, which one pass
    through the hash index deduplicates (_expand, _add_rows).

    Each table keeps the canonically least term among the candidates of
    its discovery level, compared by key: size, head, then the rank of
    each child (_order); the ranks order every table before the current
    level, where all children come from.  A candidate that repeats a
    table of its own level waits as a record: its derivation row behind
    the table it repeats.  The records are applied once they outnumber
    the level's tables and before the next level is ranked; term() and
    least() apply only the records of the tables they read.  Candidates
    are looked up in the operation tables as FiniteAlgebra stores them,
    at the flat index of their children's values (x0 most significant).
    exhausted names the budget ("table" or "candidate") that truncated
    the search.
    """

    def __init__(self, alg: FiniteAlgebra, var_count: int,
                 table_budget: int = DEFAULT_TABLE_BUDGET,
                 candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                 max_term_size: Optional[int] = None,
                 by_orbit: bool = False):
        self.alg = alg
        self.k = var_count
        self.n = alg.size
        self.table_budget = table_budget
        self.candidate_budget = candidate_budget
        self.max_term_size = max_term_size
        self.candidates_used = 0
        self.exhausted: Optional[str] = None
        self.count = 0
        self.dtype = np.min_scalar_type(self.n - 1)
        self._set_length(self.n**self.k)
        # whether the tables are still to be cut to one assignment per
        # orbit, once the search walks past a slab of candidates
        self._by_orbit = by_orbit
        width = max((arity for _, arity in alg.sig.ops), default=0)
        self._store = np.empty((16, self.length), self.dtype)
        self._levels = np.empty(16, np.int64)
        # derivation rows: size, head, children padded with -1
        self._deriv = np.empty((16, 2 + width), np.int64)
        self._index: dict[int, int] = {}
        self._chains: dict[int, list[int]] = {}
        # the ranks of the tables before the current level, then -1,
        # which the children's padding (-1) picks
        self._rank = np.full(1, -1, np.int64)
        self._level_start = {0: 0}
        # records (table, *derivation row) of the latest level
        self._pending: list[np.ndarray] = []
        # per operation name, the table that looks up two byte indices
        self._luts: dict = {}
        self.op_arrays = {
            name: np.array(alg.op_tables[name], dtype=self.dtype)
            for name, _ in alg.sig.ops}
        self.digits = [
            np.tile(np.repeat(np.arange(self.n, dtype=self.dtype),
                              self.n**(self.k - 1 - i)), self.n**i)
            for i in range(self.k)]
        self._vars = 0
        self.add_variables(self.digits)

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
        return self._deriv[:self.count, 0]

    @property
    def levels(self) -> np.ndarray:
        return self._levels[:self.count]

    def term(self, i: int) -> Term:
        """The representative term of table i."""
        self._settle([i])
        return self._term(i)

    def _term(self, i: int) -> Term:
        _, head, *kids = self._deriv[i].tolist()
        if head < _OP_HEAD:
            return Var(head)
        name, arity = self.alg.sig.ops[head - _OP_HEAD]
        return App(name, tuple(map(self._term, kids[:arity])))

    def least(self, tables: list[int]) -> int:
        """The table of tables whose term is canonically least."""
        self._settle(tables)
        return tables[self._order(self._deriv[tables])[0]]

    def add_variables(self, vecs) -> None:
        """Add the tables vecs at level 0, as the next variables."""
        vecs = np.array(vecs, self.dtype)
        deriv = np.full((len(vecs), self._deriv.shape[1]), -1, np.int64)
        deriv[:, 0] = 1
        deriv[:, 1] = range(self._vars, self._vars + len(vecs))
        self._vars += len(vecs)
        self._add_rows(0, deriv, vecs)

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

    def _order(self, rows: np.ndarray, *major) -> np.ndarray:
        """The order that sorts derivation rows by the major keys, then
        by canonical key: size, head, then the children's ranks."""
        return np.lexsort((*self._rank[rows[:, 2:]].T[::-1], rows[:, 1],
                           rows[:, 0], *major[::-1]))

    def _rank_tables(self, stop: int) -> None:
        """Rank tables [0, stop) by canonical key, whose children's ranks
        the previous ranking fixed."""
        rank = np.full(stop + 1, -1, np.int64)
        rank[self._order(self._deriv[:stop])] = np.arange(stop)
        self._rank = rank

    def _set_length(self, length: int) -> None:
        """Tables of length entries, which hash as the widest words (of up
        to 8 bytes) that tile a row."""
        self.length = length
        row_bytes = length * self.dtype.itemsize
        self._word = np.dtype(f"u{min(8, row_bytes & -row_bytes)}")

    def _keep_columns(self, cols: Optional[np.ndarray]) -> None:
        """Cut every table, and the digits, to the assignments cols (keep
        all when None), and file the tables found so far by their new row
        hashes."""
        if cols is None:
            return
        store = np.empty((len(self._levels), len(cols)), self.dtype)
        store[:self.count] = self._store[:self.count, cols]
        self._store = store
        self.digits = [digit[cols] for digit in self.digits]
        self._set_length(len(cols))
        self._index, self._chains = {}, {}
        for i, h in enumerate(self._hash(self.tables).tolist()):
            self._file(h, i)

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
                part += block.astype(np.uint64, copy=False) @ \
                    _HASH_WEIGHTS[:block.shape[1]]
        return hashes

    def _reserve(self, extra: int) -> None:
        """Room for extra more tables.  Full arrays grow fourfold: the
        pages past count stay untouched, so only the copies cost."""
        need = self.count + extra
        if need <= len(self._levels):
            return
        capacity = max(need, 4 * len(self._levels))
        for name in ("_store", "_levels", "_deriv"):
            old = getattr(self, name)
            new = np.empty((capacity,) + old.shape[1:], old.dtype)
            new[:self.count] = old[:self.count]
            setattr(self, name, new)

    def _least(self, records: np.ndarray) -> np.ndarray:
        """Per table of records, its record of least key."""
        order = self._order(records[:, 1:], records[:, 0])
        t = records[order, 0]
        lead = np.ones(len(t), bool)
        lead[1:] = t[1:] != t[:-1]
        return records[order[lead]]

    def _settle(self, tables=slice(None)) -> None:
        """Apply the pending records of tables (by default, of all): each
        table is derived by the least of its records and its own row."""
        if self._pending:
            records = np.concatenate(self._pending)
            mark = np.zeros(self.count, bool)
            mark[tables] = True
            mark = mark[records[:, 0]]
            self._pending = [] if mark.all() else [records[~mark]]
            if mark.any():
                t = records[mark, :1]
                own = np.concatenate((t, self._deriv[t[:, 0]]), axis=1)
                best = self._least(np.concatenate((own, records[mark])))
                self._deriv[best[:, 0]] = best[:, 1:]

    def _file(self, h: int, i: int) -> None:
        """Let find reach table i, whose row hash is h."""
        if h in self._index:
            self._chains.setdefault(h, []).append(i)
        else:
            self._index[h] = i

    def find(self, vec: np.ndarray, h) -> Optional[int]:
        """The table equal to vec, whose row hash is h, or None."""
        h = int(h)
        same = [self._index.get(h), *self._chains.get(h, ())]
        if same[0] is None:
            return None
        equal = np.flatnonzero((self._store[same] == vec).all(axis=1))
        return same[equal[0]] if len(equal) else None

    def _lookup(self, name: str, idx: np.ndarray, out: np.ndarray) -> None:
        """Write to out the value of operation name at each index of idx,
        a flat index into its stored table."""
        table = self.op_arrays[name]
        if idx.size >= _PAIR_MIN and idx.dtype == np.uint8 and \
                self.dtype == np.uint8 and self.length % 2 == 0:
            # two byte indices per 16-bit word, through a table of all 2^16
            pairs = self._luts.get(name)
            if pairs is None:
                full = np.zeros(256, np.uint8)
                full[:len(table)] = table
                pairs = self._luts[name] = full[
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
        f0 = self._level_start[depth - 1]
        start = self._level_start[depth] = self.count
        self._settle()
        self._rank_tables(start)
        self._expand(depth, self._level_steps(depth, f0, start))
        return range(start, self.count)

    def _level_steps(self, depth, f0, r):
        """(count, op, step) per step of a level (_steps), operations by
        signature index in signature order; a nullary operation has one
        step of one candidate, with no children, at depth 1."""
        for op, (_, arity) in enumerate(self.alg.sig.ops):
            if arity:
                for count, step in self._steps(arity, f0, r):
                    yield count, op, step
            elif depth == 1:
                yield 1, op, ((), range(1))

    def walk(self, max_depth: int):
        """Level 0's tables, then each new level's, as index ranges.  It
        ends after max_depth levels, after a level that adds no table
        (the next frontier is empty, so every deeper level is too), or
        once a budget runs out."""
        yield range(self.count)
        for depth in range(1, max_depth + 1):
            if self.truncated:
                return
            new = self.run_level(depth)
            if not new:
                return
            yield new

    def _steps(self, arity, f0, r):
        """(count, (prefix, lasts)) per step: a prefix of arity - 1
        children against up to _SLAB last children, one block per leading
        frontier position (old^i x frontier x all^(arity-1-i)), prefixes
        in lexicographic order and last children ascending.  Each
        position takes only the children that leave room under the size
        cap for the positions after it, so every prefix walked has a step;
        with no cap, that is its whole span."""
        # sizes below r are final for the whole level
        sizes = self._deriv[:r, 0]
        size_of = None if self.max_term_size is None else sizes.tolist()
        for lead in range(arity):
            spans = [(0, f0)] * lead + [(f0, r)] + \
                    [(0, r)] * (arity - 1 - lead)
            if any(lo == hi for lo, hi in spans):
                continue
            if size_of is None:
                lasts = np.arange(*spans[-1])
                slabs = [lasts[c:c + _SLAB]
                         for c in range(0, len(lasts), _SLAB)]
                for prefix in product(*(range(*span) for span in spans[:-1])):
                    for batch in slabs:
                        yield len(batch), (prefix, batch)
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

            prefixes = [((), self.max_term_size - 1)]
            for p in range(arity - 1):
                prefixes = extend(prefixes, p)
            for prefix, left in prefixes:
                lasts = children(arity - 1, left)
                for c in range(0, len(lasts), _SLAB):
                    batch = lasts[c:c + _SLAB]
                    yield len(batch), (prefix, batch)

    def _fits(self, pending: int, count: int) -> bool:
        """Whether a step of count candidates after pending ones (each of
        which may add a table) surely leaves both budgets unspent."""
        return (self.candidates_used + pending + count
                <= self.candidate_budget
                and self.count + pending <= self.table_budget)

    def _expand(self, depth, steps) -> None:
        """Add the candidates of a level's steps (_level_steps) in order,
        charging each step as one _spend.  Consecutive steps that cannot
        run a budget out are charged and added together, across
        operations, up to a group of _SLAB candidates (or fewer for long
        tables); a step that may is charged alone, after the group before
        it.  A search made with by_orbit cuts its tables to the
        assignments _orbit_positions keeps before the step that takes it
        past _SLAB candidates in all: listing up to _SLAB automorphisms
        costs about what that many candidates do, and searches that stay
        small never list them."""
        limit = min(_SLAB, max(1, _GROUP_ENTRIES // self.length))
        group: list = []
        pending = 0
        for count, op, step in steps:
            if self._by_orbit and \
                    self.candidates_used + pending + count > _SLAB:
                # the steps of group are looked up after the cut
                self._by_orbit = False
                self._keep_columns(_orbit_positions(self.alg, self.digits))
                limit = min(_SLAB, max(1, _GROUP_ENTRIES // self.length))
            if pending and (pending + count > limit
                            or not self._fits(pending, count)):
                self.candidates_used += pending
                self._add_rows(depth, *self._rows(group))
                group, pending = [], 0
            if self._fits(pending, count):
                group.append((op, step))
                pending += count
            elif self._spend(count):
                self._add_rows(depth, *self._rows([(op, step)]))
            else:
                return
        if pending:
            self.candidates_used += pending
            self._add_rows(depth, *self._rows(group))

    def _rows(self, steps):
        """The derivation and value rows of steps (op, (prefix, lasts)),
        in order, in one buffer each.  Each run of one operation's steps
        writes its children, their term size and its head, and looks its
        tables up at the flat index prefix * n + last (0 for a nullary
        operation), a stretch of rows at a time; prefix * n (x0 most
        significant) is computed once per step, in the narrowest type
        that holds every index."""
        total = sum(len(lasts) for _, (_, lasts) in steps)
        deriv = np.full((total, self._deriv.shape[1]), -1, np.int64)
        out = np.empty((total, self.length), self.dtype)
        rows = max(1, _GROUP_ENTRIES // self.length)
        hi = 0
        for op, run in groupby(steps, itemgetter(0)):
            run = [step for _, step in run]
            name, arity = self.alg.sig.ops[op]
            counts = [len(lasts) for _, lasts in run]
            lo, hi = hi, hi + sum(counts)
            prefixes = np.array([prefix for prefix, _ in run], np.int64)
            kids = deriv[lo:hi, 2:2 + arity]
            if arity:
                kids[:, :-1] = np.repeat(prefixes, counts, axis=0)
                kids[:, -1] = np.concatenate([lasts for _, lasts in run])
            deriv[lo:hi, 0] = 1 + self._deriv[kids, 0].sum(axis=1)
            deriv[lo:hi, 1] = _OP_HEAD + op
            flat = np.zeros((len(run), self.length),
                            np.min_scalar_type(self.n**arity - 1))
            for column in prefixes.T:
                flat += self._store[column]
                flat *= self.n
            step_of = np.repeat(np.arange(len(run)), counts)
            values = out[lo:hi]
            for j in range(0, hi - lo, rows):
                idx = flat[step_of[j:j + rows]]
                if arity:
                    idx += self._store[kids[j:j + rows, -1]]
                self._lookup(name, idx, values[j:j + rows])
        return deriv, out

    def _add_rows(self, depth, deriv, out) -> None:
        """Add the tables out at level depth, row j derived by deriv[j], in
        order: each table the store lacks is filed as the next table, and
        each repeat of a table of this level waits as a record.  One pass
        through the hash index files each unseen hash as the next table
        and takes every other row for a repeat, which a full comparison
        of the rows confirms; on a collision the pass's entries are
        withdrawn and each row is looked up in turn (find)."""
        hashes = self._hash(out)
        start = end = self.count
        setdefault = self._index.setdefault
        made, target = [], []
        for j, h in enumerate(hashes.tolist()):
            i = setdefault(h, end)
            if i == end:
                made.append(j)
                end += 1
            target.append(i)
        target = np.array(target, np.int64)
        self._reserve(end - start)
        np.take(out, made, axis=0, out=self._store[start:end], mode="clip")
        rest = np.ones(len(out), bool)
        rest[made] = False
        rest = np.flatnonzero(rest)
        step = max(1, _GROUP_ENTRIES // self.length)
        for lo in range(0, len(rest), step):
            part = rest[lo:lo + step]
            if not np.array_equal(self._store[target[part]], out[part]):
                # a hash collision
                for h in hashes[made].tolist():
                    del self._index[h]
                self._reserve(len(out))
                made, end = [], start
                for j, h in enumerate(hashes.tolist()):
                    i = self.find(out[j], h)
                    if i is None:
                        i = end
                        self._store[i] = out[j]
                        self._file(h, i)
                        made.append(j)
                        end += 1
                    target[j] = i
                rest = np.setdiff1d(np.arange(len(out)), made)
                break
        self.count = end
        self._levels[start:end] = depth
        self._deriv[start:end] = deriv[made]
        # repeats of tables of this level wait as records (table, *row)
        # until they outnumber the level's tables
        rest = rest[target[rest] >= self._level_start[depth]]
        if len(rest):
            self._pending.append(
                np.column_stack((target[rest], deriv[rest])))
        if sum(map(len, self._pending)) > end - self._level_start[depth]:
            self._settle()


class MalcevSearchResult(Record):
    """Outcome of a bounded Mal'cev term search.

    term is None when no derived operation within the depth bound (and
    work budget) satisfies the identities; truncated reports whether the
    budget cut the exploration short of the full depth, and exhausted
    names that budget ("table" or "candidate").
    """

    __slots__ = ("term", "truncated", "tables_explored", "max_depth",
                 "exhausted")

    def __init__(self, term: Optional[Term], truncated: bool,
                 tables_explored: int, max_depth: int,
                 exhausted: Optional[str] = None):
        self._set(term, truncated, tables_explored, max_depth, exhausted)


def malcev_search(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                  table_budget: int = DEFAULT_TABLE_BUDGET,
                  candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                  max_term_size: Optional[int] = None) -> MalcevSearchResult:
    """Search for a ternary term P with P(x,x,z) = z and P(x,z,z) = x.

    The search scans derived ternary operations breadth-first by depth
    and returns, from the first depth level containing any qualifying
    operation, the representative term least in the canonical order.
    max_term_size additionally prunes candidates whose representative
    term would exceed that node count.  Once it has walked _SLAB
    candidates, the search cuts its tables to one triple per
    automorphism orbit and tests the Mal'cev triples among those; this
    changes the work, not the term, tables_explored or truncation.  The
    witness is re-verified through the term evaluator on all triples.
    """
    search = _TableSearch(alg, 3, table_budget, candidate_budget,
                          max_term_size, by_orbit=True)
    digits = term = None
    for new in search.walk(max_depth):
        if search.digits is not digits:
            # the Mal'cev positions among the assignments kept so far
            digits = search.digits
            d0, d1, d2 = digits
            m1 = np.where(d0 == d1)[0]
            m2 = np.where(d1 == d2)[0]
            cols = np.concatenate([m1, m2])
            values = np.concatenate([d2[m1], d0[m2]])
        hits = search.satisfying(new, cols, values)
        if hits:
            term = search.term(search.least(hits))
            if not malcev_identities_hold(alg, term):
                raise AssertionError("witness fails the Mal'cev identities")
            break
    return MalcevSearchResult(term, search.truncated, len(search), max_depth,
                              search.exhausted)


def find_malcev_term(alg: FiniteAlgebra,
                     max_depth: int = DEFAULT_DEPTH) -> Optional[Term]:
    """The witness term from malcev_search, or None (absence is a value)."""
    return malcev_search(alg, max_depth).term


# ---------------------------------------------------------------------------
# permutability cross-check

class PermutabilityReport(Record):
    """Joint view of the congruence lattice and the term search.

    verdict is "consistent" when a found term coincides with full
    pairwise permutability, or when absence coincides with a
    non-permuting pair; "inconclusive" when nothing was found but all
    pairs permute (the bounded search proves nothing); "violation" when
    a verified term coexists with a non-permuting pair (impossible:
    would indicate a defect in one of the two computations).
    """

    __slots__ = ("term", "truncated", "congruence_count", "non_permuting",
                 "verdict")

    def __init__(self, term: Optional[Term], truncated: bool,
                 congruence_count: int,
                 non_permuting: tuple[tuple[Congruence, Congruence], ...],
                 verdict: str):
        self._set(term, truncated, congruence_count, non_permuting, verdict)


def check_permutability_theorem(alg: FiniteAlgebra,
                                max_depth: int = DEFAULT_DEPTH, *,
                                max_term_size: Optional[int] = None
                                ) -> PermutabilityReport:
    """Compare find_malcev_term against pairwise congruence permutability."""
    from .congruences import all_congruences, non_permuting_pairs

    congs = all_congruences(alg)
    bad = non_permuting_pairs(congs)
    result = malcev_search(alg, max_depth, max_term_size=max_term_size)
    if result.term is not None:
        verdict = "violation" if bad else "consistent"
    else:
        verdict = "consistent" if bad else "inconclusive"
    return PermutabilityReport(result.term, result.truncated, len(congs),
                               tuple(bad), verdict)


# ---------------------------------------------------------------------------
# biternary pairs

class BiternaryPair(Record):
    """Derived ternary operations with a(x,x,y) = y and the two
    mutual-inverse laws a(b(x,y,z),y,z) = x, b(a(x,y,z),y,z) = x."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: Term, beta: Term):
        self._set(alpha, beta)


class BiternarySearchResult(Record):
    """Outcome of a bounded biternary-pair search.

    pair is None when no (alpha, beta) pair exists within the depth
    bound (or the table search truncated; see truncated, and exhausted
    for the budget that ran out)."""

    __slots__ = ("pair", "truncated", "tables_explored", "max_depth",
                 "exhausted")

    def __init__(self, pair: Optional[BiternaryPair], truncated: bool,
                 tables_explored: int, max_depth: int,
                 exhausted: Optional[str] = None):
        self._set(pair, truncated, tables_explored, max_depth, exhausted)


def detect_biternary(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH, *,
                     table_budget: int = DEFAULT_TABLE_BUDGET,
                     candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
                     max_term_size: Optional[int] = None
                     ) -> BiternarySearchResult:
    """First (alpha, beta) pair of derived ternary operations, ordered by
    the canonical term order on alpha, or None within bounds.

    The two inverse laws make each section alpha(., y, z) a permutation
    and beta(., y, z) its inverse, so beta is fixed by alpha: each
    qualifying alpha with bijective sections keeps its inverse table,
    which is looked up in the store on every level until it appears.
    The pair found at the earliest depth level is returned; among pairs
    first complete at that level, the least alpha wins.  Only the table
    search spends the two budgets."""
    search = _TableSearch(alg, 3, table_budget, candidate_budget,
                          max_term_size)
    d0, d1, d2 = search.digits
    diag = np.where(d0 == d1)[0]
    diag_t = d2[diag]
    # a table as (n, n^2) holds the section alpha(., y, z) as column
    # y*n + z, indexed by x
    xs = np.arange(alg.size, dtype=search.dtype)[:, None]
    # (alpha, its inverse table, that table's row hash) per bijective alpha
    inverses: list = []
    pair = None
    for new in search.walk(max_depth):
        for a in search.satisfying(new, diag, diag_t):
            sections = search.tables[a].reshape(alg.size, -1)
            if (np.sort(sections, axis=0) == xs).all():
                beta = np.empty_like(sections)
                np.put_along_axis(beta, sections, xs, axis=0)
                beta = beta.ravel()
                inverses.append((a, beta, search._hash(beta[None])[0]))
        hits = {a: b for a, beta, h in inverses
                if (b := search.find(beta, h)) is not None}
        if hits:
            a = search.least(list(hits))
            pair = BiternaryPair(search.term(a), search.term(hits[a]))
            _verify_biternary(alg, pair)
            break
    return BiternarySearchResult(pair, search.truncated, len(search),
                                 max_depth, search.exhausted)


def find_biternary_pair(alg: FiniteAlgebra, max_depth: int = DEFAULT_DEPTH
                        ) -> Optional[BiternaryPair]:
    """The pair from detect_biternary, or None when not found in bounds."""
    return detect_biternary(alg, max_depth).pair


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
                      candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
                      ) -> TranslationGroup:
    """Reversible translations x -> F(x) with F a unary polynomial form.

    A one-variable _TableSearch with the n constant maps seeded beside
    x0 at level 0, so that level d holds the unary polynomial maps of
    depth d.  The bijective tables are the generators, sorted, and their
    composition closure is the group, which raises SearchBudgetExceeded
    past quasigroups.CLOSURE_BUDGET maps.  transitive reports whether the
    closure acts transitively on the carrier.  The search's table budget
    is _TRANSLATION_MAPS.  truncated is set when the table or candidate
    budget ran out; the search charges candidates per slab, so the maps
    found by then are those of the slabs it completed.
    """
    n = alg.size
    # each nullary operation spends a candidate at depth 1 on a constant
    # map that level 0 already holds, which the budget allows for
    nullary = sum(1 for _, arity in alg.sig.ops if arity == 0)
    search = _TableSearch(alg, 1, _TRANSLATION_MAPS,
                          candidate_budget + nullary)
    # the constants as extra variables, keyed after x0
    search.add_variables([np.full(n, c) for c in range(n)])
    for _ in search.walk(max_depth):
        pass
    tables = search.tables
    bijective = np.all(np.sort(tables, axis=1) == search.digits[0], axis=1)
    generators = tuple(sorted(map(tuple, tables[bijective].tolist())))
    closure = composition_closure(generators, n)
    orbit = {g[0] for g in closure}
    return TranslationGroup(generators, closure, len(orbit) == n,
                            search.truncated)
