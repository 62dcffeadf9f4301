"""Terms, atomic formulas and quasiidentities over a finite signature.

The concrete syntax is deliberately small:

    term     :=  var  |  opname "(" term ("," term)* ")"  |  opname
    var      :=  "x" digits
    formula  :=  term "=" term  |  predname "(" term ("," term)* ")"
    quasi    :=  formula ("&" formula)* "=>" formula  |  formula

Nullary operation symbols are written bare ("e", not "e()").  Whitespace
is insignificant.  Terms may nest at most MAX_TERM_DEPTH applications
deep; deeper input is a syntax error.  An identifier matching x<digits> is always a variable,
so operation and predicate names must not collide with that shape.

Premises of a quasiidentity are read conjunctively: the conclusion must
hold under every assignment satisfying all premises at once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice, product, repeat
from operator import add, and_, eq, itemgetter, not_
from typing import Callable, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    AssignmentTooShort,
    SignatureMismatch,
    TermSyntaxError,
    UnknownSymbol,
)

_VAR_RE = re.compile(r"^x[0-9]+$")
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# Deepest term_depth the parser accepts.  Printing, evaluating and
# comparing terms recurse once or twice per level, so this keeps every
# parsed term well inside Python's default recursion limit of 1000.
MAX_TERM_DEPTH = 200

# check_quasiidentity evaluates at most _BLOCK_CAP assignments at once
# (more only when one variable alone has more values), which bounds its
# memory; its first block holds _FIRST_BLOCK, so an early witness is cheap
_BLOCK_CAP = 1 << 14
_FIRST_BLOCK = 16


@dataclass(frozen=True)
class Signature:
    """Operation and predicate symbols with their arities.

    Symbols are (name, arity) pairs; names are unique across operations
    and predicates together, and may not look like variables (x0, x1, ...).
    """

    ops: tuple[tuple[str, int], ...]
    preds: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        seen = set()
        for name, arity in list(self.ops) + list(self.preds):
            if not _NAME_RE.match(name) or _VAR_RE.match(name):
                raise ValueError(f"bad symbol name {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)

    def op_arity(self, name: str) -> Optional[int]:
        for n, a in self.ops:
            if n == name:
                return a
        return None

    def pred_arity(self, name: str) -> Optional[int]:
        for n, a in self.preds:
            if n == name:
                return a
        return None

    def op_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.ops):
            if n == name:
                return i
        raise KeyError(name)


@dataclass(frozen=True)
class Var:
    """A variable x<index>."""

    index: int

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("variable index must be >= 0")

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class App:
    """An operation symbol applied to argument terms."""

    op: str
    args: tuple["Term", ...] = ()

    def __str__(self):
        if not self.args:
            return self.op
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


Term = Union[Var, App]


def term_size(t: Term) -> int:
    """Number of nodes in the term tree."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def term_depth(t: Term) -> int:
    """Nesting depth: variables are 0, an application is 1 + max over args
    (so bare constants have depth 1)."""
    if isinstance(t, Var):
        return 0
    return 1 + max((term_depth(a) for a in t.args), default=0)


def term_vars(t: Term) -> set[int]:
    if isinstance(t, Var):
        return {t.index}
    out: set[int] = set()
    for a in t.args:
        out |= term_vars(a)
    return out


def term_key(t: Term, sig: Signature):
    """Sort key realizing the canonical term order: by size, then root
    symbol (variables before operations, each by index), then children."""
    if isinstance(t, Var):
        return (1, (0, t.index), ())
    return (
        term_size(t),
        (1, sig.op_index(t.op)),
        tuple(term_key(a, sig) for a in t.args),
    )


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


@dataclass(frozen=True)
class PredicateAtom:
    pred: str
    args: tuple[Term, ...]

    def __str__(self):
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"


Formula = Union[Equation, PredicateAtom]


def formula_vars(f: Formula) -> set[int]:
    if isinstance(f, Equation):
        return term_vars(f.lhs) | term_vars(f.rhs)
    out: set[int] = set()
    for a in f.args:
        out |= term_vars(a)
    return out


@dataclass(frozen=True)
class Quasiidentity:
    """premises => conclusion, with conjunctive premises.

    An identity is the special case of no premises.  variable_count is
    the number of variables quantified over; indices must be dense
    (every index below variable_count occurs somewhere).
    """

    premises: tuple[Formula, ...]
    conclusion: Formula
    variable_count: int = field(default=-1)

    def __post_init__(self):
        used: set[int] = formula_vars(self.conclusion)
        for p in self.premises:
            used |= formula_vars(p)
        count = self.variable_count
        if count == -1:
            count = (max(used) + 1) if used else 0
            object.__setattr__(self, "variable_count", count)
        if used and max(used) >= count:
            raise ValueError("variable index out of range for variable_count")
        if used != set(range(count)) and not (not used and count == 0):
            missing = sorted(set(range(count)) - used)
            raise ValueError(f"variable indices not dense, missing {missing}")

    @property
    def is_identity(self) -> bool:
        return not self.premises

    def __str__(self):
        if not self.premises:
            return str(self.conclusion)
        left = " & ".join(str(p) for p in self.premises)
        return f"{left} => {self.conclusion}"


def identity(lhs: Term, rhs: Term) -> Quasiidentity:
    """Convenience: an identity is a quasiidentity with no premises."""
    return Quasiidentity((), Equation(lhs, rhs))


# ---------------------------------------------------------------------------
# parsing


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
    def __init__(self, text: str, sig: Signature):
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


def parse_term(text: str, sig: Signature) -> Term:
    p = _Parser(text, sig)
    return p.finish(p.parse_term())


def parse_formula(text: str, sig: Signature) -> Formula:
    p = _Parser(text, sig)
    return p.finish(p.parse_formula())


def parse_quasiidentity(text: str, sig: Signature) -> Quasiidentity:
    p = _Parser(text, sig)
    return p.finish(p.parse_quasiidentity())


def print_term(t: Term) -> str:
    return str(t)


def print_formula(f: Formula) -> str:
    return str(f)


def print_quasiidentity(q: Quasiidentity) -> str:
    return str(q)


# ---------------------------------------------------------------------------
# evaluation


def eval_term(t: Term, assignment: Sequence[int], alg) -> int:
    """Value of t in alg under the assignment x_i -> assignment[i]."""
    if isinstance(t, Var):
        if t.index >= len(assignment):
            raise AssignmentTooShort(
                f"term uses x{t.index} but only {len(assignment)} values given")
        return assignment[t.index]
    arity = alg.sig.op_arity(t.op)
    if arity is None:
        raise SignatureMismatch(f"algebra has no operation {t.op!r}")
    if arity != len(t.args):
        raise SignatureMismatch(
            f"operation {t.op!r} has arity {arity} in this algebra,"
            f" term applies it to {len(t.args)}")
    args = tuple(eval_term(a, assignment, alg) for a in t.args)
    return alg.op_value(t.op, args)


def eval_formula(f: Formula, assignment: Sequence[int], alg) -> bool:
    if isinstance(f, Equation):
        return eval_term(f.lhs, assignment, alg) == eval_term(f.rhs, assignment, alg)
    arity = alg.sig.pred_arity(f.pred)
    if arity is None:
        raise SignatureMismatch(f"algebra has no predicate {f.pred!r}")
    args = tuple(eval_term(a, assignment, alg) for a in f.args)
    return alg.pred_value(f.pred, args)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of checking a quasiidentity on a finite algebra.

    witness is the first assignment (lexicographic order) satisfying all
    premises but violating the conclusion, or None when the formula holds.
    """

    holds: bool
    witness: Optional[tuple[int, ...]] = None

    def __bool__(self):
        return self.holds


def assignment_columns(n: int, width: int) -> list[tuple[int, ...]]:
    """The n**width assignments of width variables into range(n), in
    lexicographic order, as width columns: column i holds the value of
    x_i at every position."""
    columns = []
    for i in range(width):
        run = n**(width - 1 - i)
        pattern = tuple(chain.from_iterable(repeat(v, run) for v in range(n)))
        columns.append(pattern * n**i)
    return columns


def compile_evaluator(node: Union[Term, Formula], alg,
                      width: int) -> Callable[[Sequence], object]:
    """Block evaluator of a term (to elements) or a formula (to bools).

    The evaluator takes width columns, one per variable x0..x{width-1}:
    each a nonempty tuple of ints, all of one length, so that each
    position holds one assignment, or an int, a scalar standing for the
    same value at every position.  It returns a tuple over the
    positions, or a single value when every column is a scalar, and
    agrees at each position with eval_term / eval_formula.

    Each operation or predicate node is one gather from its table with
    one itemgetter.  The flat indices are sums over the arguments, each
    argument read from a copy of its table multiplied by its place
    value n**(arity - 1 - j); scalar arguments add up to one offset and
    are never expanded.  Inside, itemgetter returns a one-position
    column as a scalar, which stands for the same value.

    Symbols, arities and variable indices are checked here, once, with
    the errors those raise: SignatureMismatch for an operation or
    predicate the algebra lacks or an operation applied with another
    arity, AssignmentTooShort for a variable at or past width.  A
    predicate applied with another arity raises SignatureMismatch too,
    where eval_formula reads a wrong table cell.
    """
    n = alg.size
    scaled: dict[tuple[str, int], tuple] = {}

    def term(t, weight):
        """Closure giving weight times the value of t."""
        if isinstance(t, Var):
            if t.index >= width:
                raise AssignmentTooShort(
                    f"term uses x{t.index} but only {width} values given")
            index = t.index
            if weight == 1:
                return itemgetter(index)
            multiples = tuple(range(0, n * weight, weight))

            def var(columns):
                value = columns[index]
                if isinstance(value, int):
                    return value * weight
                return itemgetter(*value)(multiples)
            return var
        arity = alg.sig.op_arity(t.op)
        if arity is None:
            raise SignatureMismatch(f"algebra has no operation {t.op!r}")
        if arity != len(t.args):
            raise SignatureMismatch(
                f"operation {t.op!r} has arity {arity} in this algebra,"
                f" term applies it to {len(t.args)}")
        return gather(t.op, alg.op_tables, weight, t.args)

    def gather(name, tables, weight, args):
        if (name, weight) not in scaled:
            scaled[name, weight] = tables[name] if weight == 1 else tuple(
                v * weight for v in tables[name])
        table = scaled[name, weight]
        places = [n**(len(args) - 1 - j) for j in range(len(args))]
        parts = [(term(a, w), w * (n - 1)) for a, w in zip(args, places)]

        def apply(columns):
            offset, index, length, span = 0, None, 0, 1
            for part, top in parts:
                value = part(columns)
                if isinstance(value, int):
                    offset += value
                    continue
                span += top
                if index is None:
                    index, length = value, len(value)
                else:
                    index = map(add, index, value)
            if index is None:
                return table[offset]
            # the scalars select a window of at most span cells; read it
            # directly unless it is much longer than the block
            source = table
            if offset and span <= 8 * length:
                source = table[offset:offset + span]
            elif offset:
                index = map(add, index, repeat(offset))
            return itemgetter(*index)(source)
        return apply

    if isinstance(node, Equation):
        lhs, rhs = term(node.lhs, 1), term(node.rhs, 1)

        def run(columns):
            left, right = lhs(columns), rhs(columns)
            if isinstance(left, int) and isinstance(right, int):
                return left == right
            if left == right:  # two equal columns, compared in one call
                return (True,) * len(left)
            return tuple(map(eq, _column(left), _column(right)))
    elif isinstance(node, PredicateAtom):
        arity = alg.sig.pred_arity(node.pred)
        if arity is None:
            raise SignatureMismatch(f"algebra has no predicate {node.pred!r}")
        if arity != len(node.args):
            raise SignatureMismatch(
                f"predicate {node.pred!r} has arity {arity} in this algebra,"
                f" formula applies it to {len(node.args)}")
        run = gather(node.pred, alg.pred_tables, 1, node.args)
    else:
        run = term(node, 1)

    def evaluate(columns):
        value = run(columns)
        if isinstance(value, int):
            for column in columns:
                if not isinstance(column, int):
                    return (value,) * len(column)
        return value
    return evaluate


def _column(value):
    """A scalar as an endless column, for map to cut to length."""
    return repeat(value) if isinstance(value, int) else value


def satisfaction_mask(formulas: Sequence[Formula], alg,
                      width: int) -> list[bool]:
    """Which of the alg.size**width assignments, in lexicographic order,
    satisfy every formula.  All formulas are compiled before any is
    evaluated."""
    checks = [compile_evaluator(f, alg, width) for f in formulas]
    columns = assignment_columns(alg.size, width)
    mask = [True] * alg.size**width
    for check in checks:
        mask = list(map(and_, mask, _column(check(columns))))
    return mask


def check_quasiidentity(q: Quasiidentity, alg) -> CheckResult:
    """Check q over every assignment of its variables into alg's carrier.

    Assignments are scanned in lexicographic order, so the witness, when
    one exists, is reproducible.  The premises and the conclusion are
    compiled once (compile_evaluator), so a symbol the algebra lacks
    raises SignatureMismatch before any assignment is tried, and then
    evaluated a block of assignments at a time: the leading variables
    come from itertools.product, the trailing ones from columns of at
    most _BLOCK_CAP assignments (at least one variable).  The first
    blocks hold _FIRST_BLOCK assignments and grow eightfold up to the
    whole columns, which are built only then, so an early witness costs
    little.  The premises are evaluated only on blocks where the
    conclusion fails somewhere.  The scan stops at the first block
    holding a witness, and the witness is its first failing position.
    Memory is bounded by the block, not by alg.size ** variable_count.
    """
    width, n = q.variable_count, alg.size
    conclusion = compile_evaluator(q.conclusion, alg, width)
    premises = [compile_evaluator(p, alg, width) for p in q.premises]
    tail = min(width, 1)
    while tail < width and n**(tail + 1) <= _BLOCK_CAP:
        tail += 1
    size = n**tail
    step = min(size, _FIRST_BLOCK)
    whole = None
    for prefix in product(range(n), repeat=width - tail):
        start = 0
        while start < size:
            stop = min(size, start + step)
            if stop - start < size:  # one of the first, short blocks
                block = tuple(zip(*islice(
                    product(range(n), repeat=tail), start, stop)))
            else:
                if whole is None:
                    whole = tuple(assignment_columns(n, tail))
                block = whole
            columns = prefix + block
            # with no variables there are no columns and one position
            holds = conclusion(columns) if block else (conclusion(()),)
            if False in holds:
                failing = map(not_, holds)
                for p in premises:
                    failing = map(and_, failing, _column(p(columns)))
                at = next(compress(count(), failing), None)
                if at is not None:
                    return CheckResult(
                        False, prefix + tuple(c[at] for c in block))
            start = stop
            step = min(size, step * 8)
    return CheckResult(True, None)
