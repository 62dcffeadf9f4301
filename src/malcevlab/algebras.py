"""Finite algebraic systems: carriers, operation and predicate tables.

A system's carrier is always {0, ..., size-1}.  Operation tables are
stored flat, indexed lexicographically by argument tuple: the value of
f(a_0, ..., a_{m-1}) sits at position a_0*n^(m-1) + ... + a_{m-1}.
Predicate tables use the same layout with boolean entries.  Element
names, when a file provides them, are cosmetic labels only.
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, product, starmap
from operator import add, and_, eq, getitem, le
from typing import Iterable, Optional, Sequence

from .errors import (
    AlgebraMismatch,
    EmptyUngeneratable,
    NotAHomomorphism,
    Record,
    SearchBudgetExceeded,
    SizeBound,
    SizeOverflow,
)
from .terms import Signature

DEFAULT_PRODUCT_BOUND = 10**6
DEFAULT_HOM_BUDGET = 10**7


def flat_index(args: Sequence[int], size: int) -> int:
    idx = 0
    for a in args:
        idx = idx * size + a
    return idx


def _image_positions(phi: Sequence[int], arity: int, size: int):
    """Flat positions, in a table over 0..size-1, of the images under phi
    of all argument tuples of the given arity, in lexicographic order."""
    positions = [0]
    for place in [size**i for i in reversed(range(arity))]:
        positions = starmap(add, product(positions, [y * place for y in phi]))
    return positions


def _read_through(table: Sequence, phi: Sequence[int], arity: int, size: int):
    """table, over 0..size-1, read through phi: its entry at the image
    under phi of each argument tuple over phi's domain, in lexicographic
    order."""
    return map(table.__getitem__, _image_positions(phi, arity, size))


def _image_table(table: Sequence[bool], phi: Sequence[int], arity: int,
                 size: int) -> tuple[bool, ...]:
    """The image of a predicate table along phi, a map from its carrier
    into 0..size-1: true at a tuple over 0..size-1 exactly where some
    tuple mapping onto it is true."""
    image = [False] * size**arity
    for position in compress(_image_positions(phi, arity, size), table):
        image[position] = True
    return tuple(image)


class FiniteAlgebra(Record):
    """A finite algebraic system over carrier {0..size-1}.

    op_tables maps each operation name to its flat table (length
    size**arity); pred_tables likewise with bools.  Tables are validated
    for totality and closure at construction.
    """

    __slots__ = ("sig", "size", "op_tables", "pred_tables", "labels")

    def __init__(self, sig: Signature, size: int,
                 op_tables: dict[str, tuple[int, ...]],
                 pred_tables: Optional[dict[str, tuple[bool, ...]]] = None,
                 labels: Optional[tuple[str, ...]] = None):
        pred_tables = {} if pred_tables is None else pred_tables
        if size < 1:
            raise ValueError("carrier must be nonempty")
        for name, arity in sig.ops:
            table = op_tables.get(name)
            if table is None:
                raise ValueError(f"missing table for operation {name!r}")
            if len(table) != size**arity:
                raise ValueError(f"table for {name!r} has wrong length")
            if any(not (0 <= v < size) for v in table):
                raise ValueError(f"table for {name!r} not closed over carrier")
        if set(op_tables) != {n for n, _ in sig.ops}:
            raise ValueError("operation tables do not match signature")
        for name, arity in sig.preds:
            table = pred_tables.get(name)
            if table is None:
                raise ValueError(f"missing table for predicate {name!r}")
            if len(table) != size**arity:
                raise ValueError(f"table for {name!r} has wrong length")
        if set(pred_tables) != {n for n, _ in sig.preds}:
            raise ValueError("predicate tables do not match signature")
        if labels is not None and len(labels) != size:
            raise ValueError("labels must cover the carrier exactly")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "op_tables", op_tables)
        object.__setattr__(self, "pred_tables", pred_tables)
        object.__setattr__(self, "labels", labels)

    def op_value(self, name: str, args: Sequence[int]) -> int:
        return self.op_tables[name][flat_index(args, self.size)]

    def pred_value(self, name: str, args: Sequence[int]) -> bool:
        return self.pred_tables[name][flat_index(args, self.size)]

    def constants(self) -> list[int]:
        """Values of all nullary operations."""
        return [self.op_tables[n][0] for n, a in self.sig.ops if a == 0]


def algebra_from_nested(sig: Signature, size: int, ops: dict,
                        preds: dict | None = None) -> FiniteAlgebra:
    """Build an algebra from nested tables: a symbol of arity k is given
    by k levels of lists indexed by its arguments in order (a bare
    value for arity 0, a flat list for arity 1)."""
    def flatten(table, arity: int, cast) -> tuple:
        for _ in range(arity - 1):
            table = chain.from_iterable(table)
        return tuple(map(cast, table if arity else (table,)))

    flat_ops = {name: flatten(ops[name], arity, int) for name, arity in sig.ops}
    flat_preds = {name: flatten(preds[name], arity, bool)
                  for name, arity in sig.preds} if preds else {}
    return FiniteAlgebra(sig, size, flat_ops, flat_preds)


def is_unitary(alg: FiniteAlgebra) -> bool:
    """One element and every predicate identically true."""
    if alg.size != 1:
        return False
    return all(all(t) for t in alg.pred_tables.values())


def unitary_system(sig: Signature) -> FiniteAlgebra:
    """The one-element system over sig with all predicates true."""
    ops = {name: (0,) * 1 for name, _ in sig.ops}
    preds = {name: (True,) for name, _ in sig.preds}
    return FiniteAlgebra(sig, 1, ops, preds)


# ---------------------------------------------------------------------------
# direct products

def product_encode(coords: Sequence[int], sizes: Sequence[int]) -> int:
    """Mixed-radix code of a product element; factor 0 is most significant."""
    idx = 0
    for c, s in zip(coords, sizes):
        idx = idx * s + c
    return idx


def product_decode(idx: int, sizes: Sequence[int]) -> tuple[int, ...]:
    coords = []
    for s in reversed(sizes):
        coords.append(idx % s)
        idx //= s
    return tuple(reversed(coords))


def direct_product(factors: Sequence[FiniteAlgebra],
                   max_product: int = DEFAULT_PRODUCT_BOUND) -> FiniteAlgebra:
    """Componentwise product; a predicate holds iff it holds in every factor.

    Elements are mixed-radix codes of coordinate tuples (use
    product_encode/product_decode to convert).  Raises SizeOverflow when
    the carrier would exceed max_product.  Each factor's tables, its
    operations scaled by its coordinate's place value, are read through
    the projection onto it: the product's operation tables are their
    positionwise sums, its predicate tables their conjunctions.
    """
    if not factors:
        raise ValueError("need at least one factor")
    sig = factors[0].sig
    for f in factors[1:]:
        if f.sig != sig:
            raise AlgebraMismatch("product factors must share a signature")
    size = 1
    for f in factors:
        size *= f.size
        if size > max_product:
            raise SizeOverflow(
                f"product carrier exceeds {max_product}")
    # the sums accumulate in 8-byte arrays: a tuple of partial sums would
    # hold an int object per entry beside the next one
    sums = {name: array("q", [0]) * size**arity for name, arity in sig.ops}
    pred_tables = {name: (True,) * size**arity for name, arity in sig.preds}
    place = size
    for f in factors:
        place //= f.size
        # the coordinate in f of every product element
        projection = [c for c in range(f.size) for _ in range(place)] \
            * (size // (place * f.size))
        for name, arity in sig.ops:
            scaled = [v * place for v in f.op_tables[name]]
            sums[name] = array("q", map(add, sums[name], _read_through(
                scaled, projection, arity, f.size)))
        for name, arity in sig.preds:
            held = _read_through(f.pred_tables[name], projection, arity, f.size)
            pred_tables[name] = tuple(map(and_, pred_tables[name], held))
    op_tables = {name: tuple(table) for name, table in sums.items()}
    return FiniteAlgebra(sig, size, op_tables, pred_tables)


# ---------------------------------------------------------------------------
# generated subpowers

class _Rows(dict):
    """The rows of a flat table over 0..n-1, each cut on first use: row
    i holds the entries whose leading arguments have flat index i."""

    def __init__(self, table: Sequence, n: int):
        super().__init__()
        self.table, self.n = table, n

    def __missing__(self, i: int):
        row = self[i] = self.table[i * self.n:(i + 1) * self.n]
        return row


class Subpower:
    """The subalgebra generated by seed tuples inside a product.

    Coordinate c of every tuple lives in algebras[coords[c]]; the
    product itself is never built.  Elements are numbered in discovery
    order: the seeds, the constants, then round after round the new
    results of applying each operation, in signature order, to the
    argument tuples in lexicographic order.  steps[i] records the first
    derivation of elements[i]: ("gen", j) for the j-th seed,
    ("const", op), or ("op", name, argument indices).  seeds[j] is the
    index of the j-th seed.  A seed added after close() is picked up
    by the next close().

    Raises EmptyUngeneratable when there are neither seeds nor
    constants, and SizeBound when more than size_bound elements arise.
    """

    def __init__(self, algebras: Sequence[FiniteAlgebra],
                 coords: Sequence[int], seeds: Iterable[tuple[int, ...]],
                 size_bound: int):
        self.algebras, self.coords = algebras, coords
        self.sig = algebras[0].sig
        self.size_bound = size_bound
        self.elements: list[tuple[int, ...]] = []
        self.index: dict[tuple[int, ...], int] = {}
        self.steps: list[tuple] = []
        self.seeds: list[int] = []
        # rows[name] nests arity-1 levels of lists indexed by the leading
        # arguments; each innermost row holds the results for the last
        # argument 0, 1, ... and is extended in place, so every tuple is
        # evaluated once and the rows become the table.
        self._rows: dict[str, list] = {name: [] for name, _ in self.sig.ops}
        for seed in seeds:
            self.add_seed(seed)
        for name, arity in self.sig.ops:
            if arity == 0:
                vec = tuple(algebras[k].op_tables[name][0] for k in coords)
                self._rows[name].append(self._add(vec, ("const", name)))
        if not self.elements:
            raise EmptyUngeneratable(
                "empty seed and no constants: no least subalgebra exists")
        self._binders = {
            name: self._binder([a.op_tables[name] for a in algebras], arity)
            for name, arity in self.sig.ops if arity}

    def _binder(self, tables, arity: int):
        """bind(prefix) for an operation of arity >= 1 with tables[k] its
        table in algebras[k]: per coordinate, the row of its table at the
        elements of the prefix indices, the leading arity-1 arguments;
        arity 1 and 2 need no flat_index per coordinate."""
        if arity == 1:
            whole = [tables[k] for k in self.coords]
            return lambda prefix: whole
        sizes = [a.size for a in self.algebras]
        rows_of = [_Rows(t, n) for t, n in zip(tables, sizes)]
        rowsets = [rows_of[k] for k in self.coords]
        elements = self.elements
        if arity == 2:
            return lambda prefix: list(
                map(getitem, rowsets, elements[prefix[0]]))
        coord_sizes = [sizes[k] for k in self.coords]
        return lambda prefix: [
            rs[flat_index(args, n)] for rs, n, args in
            zip(rowsets, coord_sizes, zip(*(elements[p] for p in prefix)))]

    def _add(self, elem: tuple[int, ...], step: tuple) -> int:
        known = self.index.get(elem)
        if known is not None:
            return known
        if len(self.elements) >= self.size_bound:
            raise SizeBound(
                f"presented algebra reached {self.size_bound + 1} elements, "
                f"past the size bound {self.size_bound}; a larger "
                f"--max-product raises it")
        self.index[elem] = len(self.elements)
        self.elements.append(elem)
        self.steps.append(step)
        return len(self.elements) - 1

    def add_seed(self, seed: tuple[int, ...]) -> None:
        self.seeds.append(self._add(seed, ("gen", len(self.seeds))))

    def close(self) -> None:
        """Apply every operation to every argument tuple over the
        elements known at the start of a round that involves a new one,
        until a round finds nothing new."""
        elements, index = self.elements, self.index
        while True:
            known = len(elements)
            for name, arity in self.sig.ops:
                if arity == 0:
                    continue
                bind = self._binders[name]
                for prefix in product(range(known), repeat=arity - 1):
                    row = self._rows[name]
                    for a in prefix:
                        if a == len(row):
                            row.append([])
                        row = row[a]
                    bound = bind(prefix)
                    for b in range(len(row), known):
                        vec = tuple(map(getitem, bound, elements[b]))
                        idx = index.get(vec)
                        if idx is None:
                            idx = self._add(vec, ("op", name, prefix + (b,)))
                        row.append(idx)
            if len(elements) == known:
                return

    def op_tables(self) -> dict[str, tuple[int, ...]]:
        """Flat operation tables over the element indices, once closed."""
        tables = {}
        for name, arity in self.sig.ops:
            table = self._rows[name]
            for _ in range(arity - 1):
                table = chain.from_iterable(table)
            tables[name] = tuple(table)
        return tables


def generate_subalgebra(alg: FiniteAlgebra, seed: Iterable[int]) -> list[int]:
    """Least subset containing seed and all constants, closed under the
    operations: the one-coordinate Subpower of seed.  Returned sorted.
    """
    seed = set(seed)
    for x in seed:
        if not (0 <= x < alg.size):
            raise ValueError(f"seed element {x} outside carrier")
    sub = Subpower([alg], [0], [(x,) for x in seed], alg.size)
    sub.close()
    return sorted(x for x, in sub.elements)


def subalgebra_as_algebra(alg: FiniteAlgebra, carrier: Sequence[int]) -> FiniteAlgebra:
    """Restrict alg to a closed carrier subset, reindexed to 0..k-1 in
    carrier order: each table is read through the carrier, and operation
    values are mapped back through its index.  Raises ValueError for an
    element outside alg's carrier or listed twice, and for a carrier not
    closed under the operations."""
    index: dict[int, int] = {}
    for e in carrier:
        if not 0 <= e < alg.size:
            raise ValueError(f"carrier element {e} outside the algebra")
        if e in index:
            raise ValueError(f"carrier element {e} listed twice")
        index[e] = len(index)
    try:
        op_tables = {name: tuple(map(index.__getitem__, _read_through(
            alg.op_tables[name], carrier, arity, alg.size)))
                     for name, arity in alg.sig.ops}
    except KeyError:
        raise ValueError("carrier is not closed under operations") from None
    pred_tables = {name: tuple(_read_through(
        alg.pred_tables[name], carrier, arity, alg.size))
                   for name, arity in alg.sig.preds}
    labels = None
    if alg.labels is not None:
        labels = tuple(alg.labels[e] for e in carrier)
    return FiniteAlgebra(alg.sig, len(index), op_tables, pred_tables, labels)


# ---------------------------------------------------------------------------
# homomorphisms

def is_homomorphism(phi: Sequence[int], a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """phi preserves every operation and implies every predicate:
    phi(f(x...)) = f(phi(x)...) and p(x...) true in a forces it in b.

    False when phi is not a map from a's carrier into b's.  Walks each
    of a's tables by position next to b's table read through phi."""
    if a.sig != b.sig:
        raise AlgebraMismatch("homomorphisms need a common signature")
    if len(phi) != a.size or not all(0 <= y < b.size for y in phi):
        return False
    image = phi.__getitem__
    for name, arity in a.sig.ops:
        if not all(map(eq, map(image, a.op_tables[name]), _read_through(
                b.op_tables[name], phi, arity, b.size))):
            return False
    for name, arity in a.sig.preds:
        # True <= False is the one failing pair: a true tuple, a false image
        if not all(map(le, a.pred_tables[name], _read_through(
                b.pred_tables[name], phi, arity, b.size))):
            return False
    return True


def is_strong_homomorphism(phi: Sequence[int], a: FiniteAlgebra,
                           b: FiniteAlgebra) -> bool:
    """Surjective homomorphism such that every predicate tuple true in b
    has a true preimage tuple in a."""
    return is_homomorphism(phi, a, b) and _onto_and_reflecting(phi, a, b)


def _onto_and_reflecting(phi: Sequence[int], a: FiniteAlgebra,
                         b: FiniteAlgebra) -> bool:
    """The part of is_strong_homomorphism after is_homomorphism: phi is
    onto b and each of b's predicate tables lies below the image of a's
    along phi."""
    if set(phi) != set(range(b.size)):
        return False
    return all(all(map(le, b.pred_tables[name], _image_table(
        a.pred_tables[name], phi, arity, b.size)))
               for name, arity in b.sig.preds)


def _generating_sequence(alg: FiniteAlgebra):
    """A small generating set plus a derivation of every carrier element.

    Each generator is the least element outside the subalgebra generated
    by the constants and the earlier generators.  Returns (gens, steps)
    where steps is a list of (element, how) covering the whole carrier
    in derivation order; how is ('gen', i) for the i-th generator,
    ('const', opname) for a constant, or ('op', name, args).
    """
    # with no constants the closure starts empty and 0 is the first generator
    sub = Subpower([alg], [0], [] if alg.constants() else [(0,)], alg.size)
    sub.close()
    for x in range(alg.size):
        if (x,) not in sub.index:
            sub.add_seed((x,))
            sub.close()
    values = [x for x, in sub.elements]
    steps = []
    for x, how in zip(values, sub.steps):
        if how[0] == "op":
            how = ("op", how[1], tuple(values[i] for i in how[2]))
        steps.append((x, how))
    return [values[i] for i in sub.seeds], steps


def _new_tuples(old: list[int], new: list[int], width: int):
    """The argument tuples of length width+1 over old + new that involve
    an element of new, each once, as (prefix, lasts) pairs: the tuples
    are prefix + (y,) for y in lasts."""
    mapped = old + new
    for prefix in product(old, repeat=width):
        yield prefix, new
    for i in range(width):
        # the first element of new sits at position i of the prefix
        for prefix in product(*[old] * i, new, *[mapped] * (width - 1 - i)):
            yield prefix, mapped


def find_homomorphisms(a: FiniteAlgebra, b: FiniteAlgebra, *, strong: bool = False,
                       limit: Optional[int] = None,
                       budget: int = DEFAULT_HOM_BUDGET) -> list[tuple[int, ...]]:
    """All homomorphisms a -> b as image tuples, in lexicographic order.

    Backtracks over the images of a generating set of a, in derivation
    order (_generating_sequence).  The derivation splits into segments:
    the constants and what they derive, then each generator with the
    elements it derives together with the earlier ones.  Once a
    generator's image is chosen, the images of its segment follow from
    b's tables, and every constraint whose last argument lies in the
    segment is checked, each exactly once: phi(f(x...)) = f(phi(x)...)
    for every operation, and a true predicate tuple of a mapping to a
    true one of b.  Nullary operations and predicates are checked in the
    constants' segment.  A failed check prunes every extension of the
    partial map.  The strong condition, when requested, is checked on
    each complete map; between carriers of one size, where a strong map
    is a bijection, a partial map that is not injective is pruned.
    Each generator is the least element outside what the constants and
    the earlier generators generate, so the elements below it have
    their images fixed by earlier choices: trying each generator's
    images in increasing order finds the maps in lexicographic order,
    and the search stops once it has limit of them.  Raises
    SearchBudgetExceeded when b.size ** #generators exceeds the budget.
    """
    if a.sig != b.sig:
        raise AlgebraMismatch("homomorphisms need a common signature")
    gens, steps = _generating_sequence(a)
    if b.size**len(gens) > budget:
        raise SearchBudgetExceeded(
            f"{b.size}^{len(gens)} generator images exceed budget {budget}")
    n, m = a.size, b.size
    # segments[k]: where segment k starts in order, its elements and, for
    # the derived ones, b's table and the arguments; gens[k - 1] opens
    # segment k
    order: list[int] = []
    segments = [(0, [], [])]
    for x, how in steps:
        if how[0] == "gen":
            segments.append((len(order), [], []))
        order.append(x)
        _, new, derived = segments[-1]
        new.append(x)
        if how[0] == "const":
            derived.append((x, b.op_tables[how[1]], ()))
        elif how[0] == "op":
            derived.append((x, b.op_tables[how[1]], how[2]))
    constraints = [(True, arity, _Rows(a.op_tables[name], n),
                    _Rows(b.op_tables[name], m))
                   for name, arity in a.sig.ops if arity]
    constraints += [(False, arity, _Rows(a.pred_tables[name], n),
                     _Rows(b.pred_tables[name], m))
                    for name, arity in a.sig.preds if arity]
    phi = [0] * n
    image = phi.__getitem__
    injective = strong and n == m

    def holds(segment: int) -> bool:
        """Map the derived elements of the segment and check the
        constraints whose last argument it holds."""
        start, new, derived = segments[segment]
        for x, table, args in derived:
            phi[x] = table[flat_index(map(image, args), m)]
        end = start + len(new)
        if injective and len(set(map(image, order[:end]))) < end:
            return False
        if segment == 0 and (any(
                phi[a.op_tables[name][0]] != b.op_tables[name][0]
                for name, arity in a.sig.ops if not arity) or any(
                a.pred_tables[name][0] and not b.pred_tables[name][0]
                for name, arity in a.sig.preds if not arity)):
            return False
        old = order[:start]
        for is_op, arity, rows_a, rows_b in constraints:
            for prefix, lasts in _new_tuples(old, new, arity - 1):
                values_a = map(rows_a[flat_index(prefix, n)].__getitem__,
                               lasts)
                values_b = map(rows_b[flat_index(map(image, prefix), m)]
                               .__getitem__, map(image, lasts))
                if is_op:
                    kept = all(map(eq, map(image, values_a), values_b))
                else:
                    # True <= False is the one failing pair
                    kept = all(map(le, values_a, values_b))
                if not kept:
                    return False
        return True

    found = []

    def complete() -> bool:
        """Keep phi, a homomorphism; True once limit maps are kept."""
        if not strong or _onto_and_reflecting(phi, a, b):
            found.append(tuple(phi))
        return len(found) == limit

    if limit == 0 or not holds(0):
        return found
    if not gens:
        complete()
    images = [-1] * len(segments)  # images[k]: the image of gens[k - 1]
    segment = 1 if gens else 0
    while segment:
        images[segment] += 1
        if images[segment] == m:
            images[segment] = -1
            segment -= 1
            continue
        phi[gens[segment - 1]] = images[segment]
        if holds(segment):
            if segment < len(gens):
                segment += 1
            elif complete():
                break
    return found


def find_isomorphism(a: FiniteAlgebra, b: FiniteAlgebra
                     ) -> Optional[tuple[int, ...]]:
    """The lexicographically least isomorphism a -> b, or None.

    Between carriers of one size a strong homomorphism is onto, hence a
    bijection, and a bijection is strong exactly when it reflects every
    predicate; so the isomorphisms are the strong homomorphisms, and
    this is find_homomorphisms(a, b, strong=True, limit=1).  Like that
    search it raises SearchBudgetExceeded when b.size ** #generators
    exceeds DEFAULT_HOM_BUDGET: an operation-free system on 8 elements
    (8^8 generator images) already does.
    """
    if a.sig != b.sig or a.size != b.size:
        return None
    isos = find_homomorphisms(a, b, strong=True, limit=1)
    return isos[0] if isos else None
