"""Latin squares, equational quasigroups, and their Mal'cev structure.

A Latin square of order n is a multiplication table in which every row
and every column is a permutation of 0..n-1.  Such a table always
supports two division operations: ldiv(a, b) is the unique x with
a*x = b, and rdiv(b, a) is the unique x with x*a = b.  Working in the
enriched signature (mul, ldiv, rdiv) makes the class equationally
definable, and explicit Mal'cev-style terms can be written down rather
than searched for: malcev_polynomial returns them per flavor, verified
exhaustively by malcev_identities_hold (the quasigroup form once per
anchor), the check that the searches in malcev share.

The translation maps x -> a*x and x -> x*a generate the multiplication
group.  composition_closure, which composes with only the generators
that enlarge the group, and its result type TranslationGroup live here,
with that group as their main user; the derived-operation search in
malcev imports them for translation_group, which keeps this module free
of the search and of numpy.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from .algebras import FiniteAlgebra
from .errors import (FlavorMismatch, NoRightUnit, NotLatin, Record,
                     SearchBudgetExceeded)
from .terms import (App, Signature, Term, Var, assignment_columns,
                    compile_evaluator)

QUASIGROUP_SIGNATURE = Signature(ops=(("mul", 2), ("ldiv", 2), ("rdiv", 2)))

_FLAVORS = ("groupoid", "quasigroup", "right_eloop", "left_eloop")

# the most maps composition_closure holds before it stops: S9 (362,880
# maps) closes, while S10 would hold 3.6 million tuples
CLOSURE_BUDGET = 1_000_000


class LatinSquare(Record):
    """Validated Latin square; rows[a][b] is the product a*b."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        n = len(rows)
        if n == 0:
            raise NotLatin("empty table", 0, 0)
        for r, row in enumerate(rows):
            if len(row) != n:
                raise NotLatin(f"row {r} has length {len(row)}, expected {n}",
                               r, min(len(row), n))
            seen: dict[int, int] = {}
            for c, v in enumerate(row):
                if not (0 <= v < n):
                    raise NotLatin(f"entry {v} out of range at ({r}, {c})",
                                   r, c)
                if v in seen:
                    raise NotLatin(
                        f"row {r} repeats {v} at columns {seen[v]} and {c}",
                        r, c)
                seen[v] = c
        for c in range(n):
            seen = {}
            for r in range(n):
                v = rows[r][c]
                if v in seen:
                    raise NotLatin(
                        f"column {c} repeats {v} at rows {seen[v]} and {r}",
                        r, c)
                seen[v] = r
        self._set(rows)

    @property
    def order(self) -> int:
        return len(self.rows)


def latin_square(rows: Sequence[Sequence[int]]) -> LatinSquare:
    """Validate a nested table as a Latin square."""
    return LatinSquare(tuple(tuple(row) for row in rows))


class Equasigroup(Record):
    """A Latin square enriched with both divisions.

    mul, ldiv and rdiv are flat row-major tables: ldiv[a*n + b] solves
    a*x = b, rdiv[b*n + a] solves x*a = b.  left_unit/right_unit record
    the unit elements when present (None otherwise).
    """

    __slots__ = ("size", "mul", "ldiv", "rdiv", "left_unit", "right_unit")

    def __init__(self, size: int, mul: tuple[int, ...], ldiv: tuple[int, ...],
                 rdiv: tuple[int, ...], left_unit: Optional[int],
                 right_unit: Optional[int]):
        self._set(size, mul, ldiv, rdiv, left_unit, right_unit)

    @property
    def two_sided_unit(self) -> Optional[int]:
        if self.left_unit is not None and self.left_unit == self.right_unit:
            return self.left_unit
        return None


def equasigroup_from_latin(square: LatinSquare) -> Equasigroup:
    """Derive both divisions and detect units."""
    n = square.order
    mul = [0] * (n * n)
    ldiv = [0] * (n * n)
    rdiv = [0] * (n * n)
    for a in range(n):
        for b in range(n):
            mul[a * n + b] = square.rows[a][b]
            ldiv[a * n + square.rows[a][b]] = b
            rdiv[square.rows[a][b] * n + b] = a
    identity = tuple(range(n))
    left = next((e for e in range(n) if square.rows[e] == identity), None)
    right = next(
        (e for e in range(n)
         if tuple(square.rows[x][e] for x in range(n)) == identity), None)
    return Equasigroup(n, tuple(mul), tuple(ldiv), tuple(rdiv), left, right)


def to_algebra(q: Equasigroup, flavor: str = "quasigroup") -> FiniteAlgebra:
    """Package an equational quasigroup as a finite algebra.

    flavor selects the signature: "groupoid" keeps the bare product,
    "quasigroup" adds both divisions, "right_eloop"/"left_eloop" further
    name the respective unit as a constant (and require it to exist).
    """
    if flavor not in _FLAVORS:
        raise FlavorMismatch(f"unknown flavor {flavor!r}; choose from "
                             + ", ".join(_FLAVORS))
    if flavor == "groupoid":
        sig = Signature(ops=(("mul", 2),))
        return FiniteAlgebra(sig, q.size, {"mul": q.mul}, {})
    tables = {"mul": q.mul, "ldiv": q.ldiv, "rdiv": q.rdiv}
    if flavor == "quasigroup":
        return FiniteAlgebra(QUASIGROUP_SIGNATURE, q.size, tables, {})
    if flavor == "right_eloop":
        if q.right_unit is None:
            raise NoRightUnit("no element e satisfies x*e = x for all x")
        unit = q.right_unit
    else:
        if q.left_unit is None:
            raise FlavorMismatch("no element e satisfies e*x = x for all x")
        unit = q.left_unit
    sig = Signature(ops=(("mul", 2), ("ldiv", 2), ("rdiv", 2), ("e", 0)))
    tables["e"] = (unit,)
    return FiniteAlgebra(sig, q.size, tables, {})


# ---------------------------------------------------------------------------
# multiplication groups

def composition_closure(maps, size: int) -> frozenset:
    """Close a family of self-maps of 0..size-1 under composition.

    Breadth-first over words in the generators, from the identity: each
    new map is composed with the generators only, since every element of
    the generated monoid is a word in them.  A generator the closure
    already holds is skipped; one that enlarges it is kept, and the
    closure is re-closed under every kept generator.  Bijections generate
    a permutation group G (some power of each is its inverse), which
    each kept generator at least doubles, so the cost is about |G| times
    the kept generators, however many the others.  Raises
    SearchBudgetExceeded once the closure holds more than CLOSURE_BUDGET
    maps.
    """
    closure = {tuple(range(size))}
    # composing g with h reads g at h: one itemgetter per kept generator
    readers = []
    for h in map(tuple, maps):
        if h in closure:
            continue
        readers.append(itemgetter(*h))
        work = list(closure)
        for g in work:
            if len(closure) > CLOSURE_BUDGET:
                raise SearchBudgetExceeded(
                    f"composition closure exceeds its budget of "
                    f"{CLOSURE_BUDGET} maps with {len(closure)} maps")
            for read in readers:
                comp = read(g)
                if comp not in closure:
                    closure.add(comp)
                    work.append(comp)
    return frozenset(closure)


class TranslationGroup(Record):
    """Bijective self-maps of a carrier and the group they generate.

    generators are the translations of a quasigroup (multiplication_group)
    or the reversible maps realized by unary polynomial forms within the
    depth bound (malcev.translation_group, a one-variable derived-operation
    search seeded with the constant maps: the designated variable may
    occur several times; all other positions take carrier constants).
    closure is the group they generate under composition; on a finite
    carrier the composition closure of bijections already contains all
    inverses.  truncated is set when that search ran out of its table or
    candidate budget; the generators are then the bijections among the
    maps it found by then, which the search collects slab by slab.
    """

    __slots__ = ("generators", "closure", "transitive", "truncated")

    def __init__(self, generators: tuple[tuple[int, ...], ...],
                 closure: frozenset[tuple[int, ...]], transitive: bool,
                 truncated: bool):
        self._set(generators, closure, transitive, truncated)


def multiplication_group(q: Equasigroup, side: str = "left") -> TranslationGroup:
    """Permutation group generated by one-sided product translations.

    side "left" takes the maps x -> a*x for every a, "right" the maps
    x -> x*a, "both" their union.  Rows and columns of a Latin square
    are permutations, so the generators are bijections and their
    composition closure is a group; it always acts transitively (the
    relevant row or column already carries 0 everywhere).
    """
    if side not in ("left", "right", "both"):
        raise ValueError("side must be 'left', 'right' or 'both'")
    n = q.size
    gens: list[tuple[int, ...]] = []
    if side in ("left", "both"):
        gens.extend(tuple(q.mul[a * n + x] for x in range(n))
                    for a in range(n))
    if side in ("right", "both"):
        gens.extend(tuple(q.mul[x * n + a] for x in range(n))
                    for a in range(n))
    unique = tuple(sorted(set(gens)))
    closure = composition_closure(unique, n)
    orbit = {g[0] for g in closure} | {0}
    return TranslationGroup(unique, closure, len(orbit) == n, False)


# ---------------------------------------------------------------------------
# explicit Mal'cev terms

def malcev_polynomial(q: Equasigroup, flavor: str = "quasigroup") -> Term:
    """An explicit term P with P(x,x,z) = z and P(x,z,z) = x.

    flavor "quasigroup" needs no unit and returns the four-variable form
    P(x,y,z) = (x * (y \\ x3)) / (z \\ x3), valid with any carrier
    element substituted for the anchor variable x3: with y = x the
    inner product collapses to the anchor and the outer division
    inverts z \\ anchor, while y = z cancels the division directly.
    Both identities are verified here for every anchor, one compiled
    check each.  flavor "right_eloop" returns x * (y \\ z) (the right
    unit makes z \\ z constant), "left_eloop" the mirror (x / y) * z.
    The returned term is verified exhaustively against the tables before
    being handed back.
    """
    alg = to_algebra(q, "quasigroup")
    if flavor == "quasigroup":
        term = App("rdiv", (
            App("mul", (Var(0), App("ldiv", (Var(1), Var(3))))),
            App("ldiv", (Var(2), Var(3)))))
    elif flavor == "right_eloop":
        if q.right_unit is None:
            raise NoRightUnit("no element e satisfies x*e = x for all x")
        term = App("mul", (Var(0), App("ldiv", (Var(1), Var(2)))))
    elif flavor == "left_eloop":
        if q.left_unit is None:
            raise FlavorMismatch("no element e satisfies e*x = x for all x")
        term = App("mul", (App("rdiv", (Var(0), Var(1))), Var(2)))
    else:
        raise FlavorMismatch(f"no explicit form for flavor {flavor!r}")
    anchors = range(q.size) if flavor == "quasigroup" else (None,)
    if not all(malcev_identities_hold(alg, term, a) for a in anchors):
        raise AssertionError("Mal'cev identities fail on a Latin square")
    return term


def malcev_identities_hold(alg: FiniteAlgebra, term: Term,
                           anchor: Optional[int] = None) -> bool:
    """Whether P(x,x,z) = z and P(x,z,z) = x hold for all x, z, checked
    by the compiled term evaluator over the n**2 columns (x,x,z) and
    (x,z,z).  With an anchor a the term is read as P(x,y,z,a), x3
    standing for a.
    """
    x, z = assignment_columns(alg.size, 2)
    tail = () if anchor is None else (anchor,)
    p = compile_evaluator(term, alg, 3 + len(tail))
    return p((x, x, z) + tail) == z and p((x, z, z) + tail) == x


# ---------------------------------------------------------------------------
# rectification

class RectificationReport(Record):
    """Mutually inverse coordinate changes attached to a right unit.

    The forward map sends (x, y) to (x, x*y) and the backward map sends
    (x, y) to (x, x \\ y).  With a right unit e the diagonal lands on
    the axis (x, e); the four booleans record the checks individually.
    """

    __slots__ = ("unit", "forward_then_back", "back_then_forward",
                 "keeps_first", "diagonal_to_unit")

    def __init__(self, unit: int, forward_then_back: bool,
                 back_then_forward: bool, keeps_first: bool,
                 diagonal_to_unit: bool):
        self._set(unit, forward_then_back, back_then_forward, keeps_first,
                  diagonal_to_unit)

    @property
    def holds(self) -> bool:
        return (self.forward_then_back and self.back_then_forward
                and self.keeps_first and self.diagonal_to_unit)


def rectification_check(q: Equasigroup) -> RectificationReport:
    """Verify the coordinate change (x, y) -> (x, x*y) is reversible.

    Requires a right unit; raises NoRightUnit otherwise.  All four
    component checks run over the full carrier square.
    """
    if q.right_unit is None:
        raise NoRightUnit("rectification needs a right unit")
    n = q.size

    def forward(x: int, y: int) -> tuple[int, int]:
        return (x, q.mul[x * n + y])

    def backward(x: int, y: int) -> tuple[int, int]:
        return (x, q.ldiv[x * n + y])

    fwd_back = back_fwd = keeps = diag = True
    for x in range(n):
        if backward(x, x) != (x, q.right_unit):
            diag = False
        for y in range(n):
            if backward(*forward(x, y)) != (x, y):
                fwd_back = False
            if forward(*backward(x, y)) != (x, y):
                back_fwd = False
            if forward(x, y)[0] != x:
                keeps = False
    return RectificationReport(q.right_unit, fwd_back, back_fwd, keeps, diag)
