"""Terms, atomic formulas and quasiidentities over a finite signature.

The concrete syntax is deliberately small:

    term     :=  var  |  opname "(" term ("," term)* ")"  |  opname ["()"]
    var      :=  "x" digits
    formula  :=  term "=" term  |  predname "(" term ("," term)* ")"
    quasi    :=  formula ("&" formula)* "=>" formula  |  formula

Nullary operation symbols print bare ("e") and may be read as "e()".
Whitespace is insignificant.  Terms may nest at most MAX_TERM_DEPTH
applications deep; deeper input is a syntax error.  An identifier
matching x<digits> is always a variable, so operation and predicate
names must not collide with that shape.

Premises of a quasiidentity are read conjunctively: the conclusion must
hold under every assignment satisfying all premises at once.  Its
variables are x0 up to the highest index used, with none skipped;
parsing text that skips one raises InputError.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, islice, product, repeat
from operator import add, and_, eq, itemgetter, not_
from typing import Callable, Optional, Sequence, Union

from .errors import (
    ArityMismatch,
    AssignmentTooShort,
    InputError,
    Record,
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


class Signature(Record):
    """Operation and predicate symbols with their arities.

    Symbols are (name, arity) pairs; names are unique across operations
    and predicates together, and may not look like variables (x0, x1, ...).
    """

    __slots__ = ("ops", "preds")

    def __init__(self, ops: tuple[tuple[str, int], ...],
                 preds: tuple[tuple[str, int], ...] = ()):
        seen = set()
        for name, arity in list(ops) + list(preds):
            if not _NAME_RE.match(name) or _VAR_RE.match(name):
                raise ValueError(f"bad symbol name {name!r}")
            if arity < 0:
                raise ValueError(f"negative arity for {name!r}")
            if name in seen:
                raise ValueError(f"duplicate symbol {name!r}")
            seen.add(name)
        self._set(ops, preds)

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


class Var(Record):
    """A variable x<index>."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("variable index must be >= 0")
        object.__setattr__(self, "index", index)

    def __str__(self):
        return f"x{self.index}"


class App(Record):
    """An operation symbol applied to argument terms."""

    __slots__ = ("op", "args")

    def __init__(self, op: str, args: tuple[Term, ...] = ()):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)

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


class Equation(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        self._set(lhs, rhs)

    def __str__(self):
        return f"{self.lhs} = {self.rhs}"


class PredicateAtom(Record):
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple[Term, ...]):
        self._set(pred, args)

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


class Quasiidentity(Record):
    """premises => conclusion, with conjunctive premises.

    An identity is the special case of no premises.  variable_count is
    the number of variables quantified over; indices must be dense
    (every index below variable_count occurs somewhere).
    """

    __slots__ = ("premises", "conclusion", "variable_count")

    def __init__(self, premises: tuple[Formula, ...], conclusion: Formula,
                 variable_count: int = -1):
        used: set[int] = formula_vars(conclusion)
        for p in premises:
            used |= formula_vars(p)
        count = variable_count
        if count == -1:
            count = (max(used) + 1) if used else 0
        if used and max(used) >= count:
            raise ValueError("variable index out of range for variable_count")
        if used != set(range(count)) and not (not used and count == 0):
            missing = sorted(set(range(count)) - used)
            raise ValueError(f"variable indices not dense, missing {missing}")
        self._set(premises, conclusion, count)

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


# a token, after the blanks before it: "=>" or a punctuation mark, an
# identifier, or any other visible character, which is an error
_TOKEN_RE = re.compile(r"\s*(?:(=>|[(),=&])|([A-Za-z_][A-Za-z0-9_]*)|(\S))")


class _Parser:
    """Recursive descent over the (kind, text, 1-based column) tokens of
    text; kind is the punctuation itself, "var", "name" or "end"."""

    def __init__(self, text: str, sig: Signature):
        self.sig = sig
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            punct, word, other = m.groups()
            col = m.start(m.lastindex) + 1
            if other:
                raise TermSyntaxError(
                    f"unexpected character {other!r} at column {col}", col,
                    expected="identifier or punctuation")
            kind = punct or ("var" if _VAR_RE.match(word) else "name")
            self.tokens.append((kind, punct or word, col))
        self.tokens.append(("end", "", len(text) + 1))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str) -> bool:
        """Consume the next token if it is of kind."""
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, kind: str, what: str) -> None:
        if not self.take(kind):
            kind, word, col = self.peek()
            got = word if kind != "end" else "end of input"
            raise TermSyntaxError(
                f"expected {what} at column {col}, got {got!r}", col,
                expected=what)

    def term(self, depth: int = 0) -> Term:
        """depth counts the applications enclosing this term."""
        kind, word, col = self.peek()
        if kind != "name":
            self.expect("var", "term")
            try:
                return Var(int(word[1:]))
            except ValueError:  # past int()'s limit on digits
                raise TermSyntaxError(
                    f"variable index too long at column {col}", col,
                    expected="a shorter variable index") from None
        if depth == MAX_TERM_DEPTH:
            raise TermSyntaxError(
                f"term nested deeper than {MAX_TERM_DEPTH} levels"
                f" at column {col}", col,
                expected=f"at most {MAX_TERM_DEPTH} nested applications")
        self.pos += 1
        arity = self.sig.op_arity(word)
        if arity is None:
            raise UnknownSymbol(
                f"unknown operation {word!r} at column {col}", word, col)
        return App(word, self.arguments("operation", word, col, arity,
                                        depth + 1))

    def arguments(self, kind: str, word: str, col: int, arity: int,
                  depth: int) -> tuple:
        """The argument list of the operation or predicate (by kind) word
        at column col, its terms enclosed by depth applications.  An
        operation may go bare; a predicate needs at least one argument."""
        args = []
        if kind == "predicate" or self.peek()[0] == "(":
            self.expect("(", "'('")
            if kind == "predicate" or self.peek()[0] != ")":
                args.append(self.term(depth))
                while self.take(","):
                    args.append(self.term(depth))
            self.expect(")", "')' or ','")
        if len(args) != arity:
            raise ArityMismatch(
                f"{kind} {word!r} takes {arity} argument"
                f"{'s' if arity != 1 else ''}, got {len(args)}"
                f" at column {col}", word, arity, len(args), col)
        return tuple(args)

    def formula(self) -> Formula:
        kind, word, col = self.peek()
        # a predicate atom starts with a predicate name
        arity = self.sig.pred_arity(word) if kind == "name" else None
        if arity is not None:
            self.pos += 1
            return PredicateAtom(
                word, self.arguments("predicate", word, col, arity, 0))
        lhs = self.term()
        self.expect("=", "'='")
        return Equation(lhs, self.term())

    def quasiidentity(self) -> Quasiidentity:
        formulas = [self.formula()]
        while self.take("&"):
            formulas.append(self.formula())
        if self.take("=>"):
            premises, conclusion = tuple(formulas), self.formula()
        elif len(formulas) > 1:
            col = self.peek()[2]
            raise TermSyntaxError(
                f"expected '=>' at column {col}", col, expected="'=>'")
        else:
            premises, conclusion = (), formulas[0]
        try:
            return Quasiidentity(premises, conclusion)
        except ValueError as exc:  # variables that skip an index
            raise InputError(str(exc)) from None


def _parse(text: str, sig: Signature, rule):
    """The node rule reads from the whole of text."""
    p = _Parser(text, sig)
    node = rule(p)
    kind, word, col = p.peek()
    if kind != "end":
        raise TermSyntaxError(f"unexpected {word!r} at column {col}", col,
                              expected="end of input")
    return node


def parse_term(text: str, sig: Signature) -> Term:
    return _parse(text, sig, _Parser.term)


def parse_formula(text: str, sig: Signature) -> Formula:
    return _parse(text, sig, _Parser.formula)


def parse_quasiidentity(text: str, sig: Signature) -> Quasiidentity:
    return _parse(text, sig, _Parser.quasiidentity)


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


class CheckResult(Record):
    """Outcome of checking a quasiidentity on a finite algebra.

    witness is the first assignment (lexicographic order) satisfying all
    premises but violating the conclusion, or None when the formula holds.
    """

    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool,
                 witness: Optional[tuple[int, ...]] = None):
        self._set(holds, witness)

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

    Each operation or predicate node is one gather from its table, read
    as given, with one itemgetter.  The flat index is the sum of the
    arguments, each times its place value w = n**(arity - 1 - j): a
    column with w != 1 is multiplied in one itemgetter pass over the
    multiples range(0, n*w, w), and scalar arguments add up to one offset
    and are never expanded.  Inside, itemgetter returns a one-position
    column as a scalar, which stands for the same value.

    Symbols, arities and variable indices are checked here, once, with
    the errors those raise: SignatureMismatch for an operation or
    predicate the algebra lacks or an operation applied with another
    arity, AssignmentTooShort for a variable at or past width.  A
    predicate applied with another arity raises SignatureMismatch too,
    where eval_formula reads a wrong table cell.
    """
    n = alg.size

    def term(t):
        """Closure giving the value of t."""
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
        return gather(alg.op_tables[t.op], t.args)

    def gather(table, args):
        places = [n**(len(args) - 1 - j) for j in range(len(args))]
        parts = [(term(a), w, tuple(range(0, n * w, w)) if w != 1 else None)
                 for a, w in zip(args, places)]

        def apply(columns):
            offset, index, length, span = 0, None, 0, 1
            for part, w, multiples in parts:
                value = part(columns)
                if multiples is not None:
                    value = (value * w if isinstance(value, int)
                             else itemgetter(*value)(multiples))
                if isinstance(value, int):
                    offset += value
                    continue
                span += w * (n - 1)
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
        lhs, rhs = term(node.lhs), term(node.rhs)

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
        run = gather(alg.pred_tables[node.pred], node.args)
    else:
        run = term(node)

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
