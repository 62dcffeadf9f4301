"""Exception types and the record base shared across the package.

Every error raised on a user-facing path derives from MalcevLabError so
callers (and the command line front end) can distinguish bad input from
bugs.  Budget-style errors get their own branch because they map to a
different process exit code.
"""


class Record:
    """Base of the immutable records: fields named in __slots__, set once
    in __init__ (by _set, or by object.__setattr__ in Var, App,
    FiniteAlgebra and Congruence, which _set's loop would slow); equal
    and hashed by _key() within one class, shown as Name(field=value,
    ...), pickled and copied by calling the class on the fields.  Not
    the standard library's data classes: importing their module and
    running the methods they generate took most of the package's own
    import time.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    _key = _fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class MalcevLabError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MalcevLabError):
    """Malformed input: bad syntax, bad tables, mismatched structures."""


class BudgetError(MalcevLabError):
    """A configured size or work bound was exceeded."""


# --- term language ---

class TermSyntaxError(InputError):
    """Unparseable text.  Carries a 1-based column and what was expected."""

    def __init__(self, message, position, expected=None):
        super().__init__(message)
        self.position = position
        self.expected = expected


class UnknownSymbol(InputError):
    """An operation or predicate name not present in the signature."""

    def __init__(self, message, name, position=None):
        super().__init__(message)
        self.name = name
        self.position = position


class ArityMismatch(InputError):
    """A symbol applied to the wrong number of arguments."""

    def __init__(self, message, name, expected, got, position=None):
        super().__init__(message)
        self.name = name
        self.expected = expected
        self.got = got
        self.position = position


class SignatureMismatch(InputError):
    """A term or formula used with an algebra over a different signature."""


class AssignmentTooShort(InputError):
    """A variable assignment does not cover every variable in the term."""


# --- algebras ---

class AlgebraMismatch(InputError):
    """Two objects that must live over the same algebra do not."""


class EmptyUngeneratable(InputError):
    """No seed and no constants: there is no least subalgebra to return."""


class NotAHomomorphism(InputError):
    """A mapping claimed to be a homomorphism fails the defining condition."""


class NotStable(InputError):
    """A partition is not stable under the operations (not a congruence)."""


class SizeOverflow(BudgetError):
    """A direct product would exceed the configured carrier bound."""


class SizeBound(BudgetError):
    """A generated carrier grew past the configured bound."""


class SearchBudgetExceeded(BudgetError):
    """An exhaustive search was stopped by its work budget."""


# --- quasigroups ---

class NotLatin(InputError):
    """A table is not a Latin square; carries the offending row or column."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class NoRightUnit(InputError):
    """The structure has no right unit, required for this construction."""


class FlavorMismatch(InputError):
    """A construction was asked for a flavor the structure does not support."""


class TrivialClassRankConflict(InputError):
    """A free algebra of rank > 1 was requested over one-element generators."""


# --- file formats ---

class FormatError(InputError):
    """A .sig/.alg/.cls file violates the documented layout."""
