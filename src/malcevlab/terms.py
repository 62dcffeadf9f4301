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
from itertools import product
from operator import itemgetter
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


def compile_evaluator(node: Union[Term, Formula], alg,
                      width: int) -> Callable[[Sequence[int]], object]:
    """Closure evaluating a term (to an element) or a formula (to a bool).

    The closure takes an assignment of width values and agrees with
    eval_term / eval_formula on it.  Symbols, arities and variable
    indices are checked here, once, with the errors those raise:
    SignatureMismatch for an operation or predicate the algebra lacks or
    an operation applied with another arity, AssignmentTooShort for a
    variable at or past width.  A predicate applied with another arity
    raises SignatureMismatch too, where eval_formula reads a wrong table
    cell.  Each node binds its table, so evaluation is table lookups
    only.
    """
    n = alg.size

    def term(t):
        if isinstance(t, Var):
            if t.index >= width:
                raise AssignmentTooShort(
                    f"term uses x{t.index} but only {width} values given")
            return itemgetter(t.index)
        arity = alg.sig.op_arity(t.op)
        if arity is None:
            raise SignatureMismatch(f"algebra has no operation {t.op!r}")
        if arity != len(t.args):
            raise SignatureMismatch(
                f"operation {t.op!r} has arity {arity} in this algebra,"
                f" term applies it to {len(t.args)}")
        return lookup(alg.op_tables[t.op], [term(a) for a in t.args])

    def lookup(table, args):
        if not args:
            value = table[0]
            return lambda a: value
        if len(args) == 1:
            f, = args
            return lambda a: table[f(a)]
        if len(args) == 2:
            f, g = args
            return lambda a: table[f(a) * n + g(a)]

        def apply(a):
            i = 0
            for f in args:
                i = i * n + f(a)
            return table[i]
        return apply

    if isinstance(node, Equation):
        lhs, rhs = term(node.lhs), term(node.rhs)
        return lambda a: lhs(a) == rhs(a)
    if isinstance(node, PredicateAtom):
        arity = alg.sig.pred_arity(node.pred)
        if arity is None:
            raise SignatureMismatch(f"algebra has no predicate {node.pred!r}")
        if arity != len(node.args):
            raise SignatureMismatch(
                f"predicate {node.pred!r} has arity {arity} in this algebra,"
                f" formula applies it to {len(node.args)}")
        return lookup(alg.pred_tables[node.pred], [term(a) for a in node.args])
    return term(node)


def check_quasiidentity(q: Quasiidentity, alg) -> CheckResult:
    """Check q over every assignment of its variables into alg's carrier.

    Assignments are scanned in lexicographic order so the witness, when
    one exists, is reproducible; the scan stops at the first one.  The
    premises and the conclusion are compiled once (compile_evaluator),
    so a symbol the algebra lacks raises SignatureMismatch before any
    assignment is tried.
    """
    width = q.variable_count
    conclusion = compile_evaluator(q.conclusion, alg, width)
    premises = [compile_evaluator(p, alg, width) for p in q.premises]
    for assignment in product(range(alg.size), repeat=width):
        if not conclusion(assignment) and all(
                p(assignment) for p in premises):
            return CheckResult(False, assignment)
    return CheckResult(True, None)
