"""Readers and writers for the .sig, .alg and .cls text formats.

All three formats are line-oriented: '#' starts a comment running to
the end of the line, blank lines are ignored, and tokens are separated
by whitespace.  FORMAT.md in the repository root documents the layouts
with examples; briefly:

  .sig   one declaration per line: "op NAME ARITY" / "pred NAME ARITY"
  .alg   "size N", then interleaved declarations and tables: each
         "op NAME ARITY" is followed by N**ARITY values in row-major
         order over lexicographic argument tuples ("pred" likewise
         with 0/1 entries), and an optional "labels" line carries N
         display names
  .cls   "algebra PATH" lines (relative to the .cls file), optional
         "include_unitary BOOL" and "size_bound N"

Loading is strict: unknown keywords, wrong counts and range errors
raise FormatError with the file name and line number, and a file that
is not UTF-8 raises it with the file name.
"""

from __future__ import annotations

import os

from .algebras import FiniteAlgebra, unitary_system
from .errors import AlgebraMismatch, FormatError, Record
from .terms import Signature


def _tokenize(path: str, digests: dict | None) -> list[tuple[int, str]]:
    """All tokens of a file as (line number, token), comments stripped;
    the file is read once, its sha256 recorded in digests when given."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    if digests is not None:
        # imported here: hashlib loads OpenSSL, which the library alone
        # does not need
        import hashlib
        digests[path] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text (byte "
                          f"0x{data[exc.start]:02x} at offset {exc.start})"
                          ) from None
    # the line ends that a text-mode read translates
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return [(lineno, tok) for lineno, line in enumerate(lines, start=1)
            for tok in line.split("#", 1)[0].split()]


class _Reader:
    def __init__(self, path: str, digests: dict | None):
        self.path = path
        self.tokens = _tokenize(path, digests)
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> str:
        return self.tokens[self.pos][1]

    def next(self, what: str) -> str:
        if self.done():
            last = self.tokens[-1][0] if self.tokens else 1
            raise FormatError(f"{self.path}:{last}: expected {what}, "
                              f"found end of file")
        lineno, tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def next_int(self, what: str, low: int = 0, high: int | None = None) -> int:
        lineno = self.tokens[self.pos][0] if not self.done() else 0
        tok = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise FormatError(
                f"{self.path}:{lineno}: expected {what}, found {tok!r}")
        if value < low or (high is not None and value >= high):
            bound = f"{low}..{high - 1}" if high is not None else f">= {low}"
            raise FormatError(
                f"{self.path}:{lineno}: {what} {value} outside {bound}")
        return value

    def error(self, message: str) -> FormatError:
        lineno = self.tokens[self.pos - 1][0] if self.pos else 1
        return FormatError(f"{self.path}:{lineno}: {message}")


def _read_declaration(reader: _Reader) -> tuple[str, str, int]:
    kind = reader.next("'op' or 'pred'")
    if kind not in ("op", "pred"):
        raise reader.error(f"expected 'op' or 'pred', found {kind!r}")
    name = reader.next("a symbol name")
    arity = reader.next_int("an arity", low=0)
    return kind, name, arity


def load_signature(path: str) -> Signature:
    """Read a .sig file: op/pred declarations, one per line."""
    return _load_signature(path, None)


def _load_signature(path: str, digests: dict | None) -> Signature:
    reader = _Reader(path, digests)
    ops: list[tuple[str, int]] = []
    preds: list[tuple[str, int]] = []
    while not reader.done():
        kind, name, arity = _read_declaration(reader)
        (ops if kind == "op" else preds).append((name, arity))
    try:
        return Signature(ops=tuple(ops), preds=tuple(preds))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_signature(sig: Signature, path: str) -> None:
    lines = [f"op {name} {arity}" for name, arity in sig.ops]
    lines += [f"pred {name} {arity}" for name, arity in sig.preds]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_algebra(path: str) -> FiniteAlgebra:
    """Read a .alg file: size, then declarations each with its table."""
    return _load_algebra(path, None)


def _load_algebra(path: str, digests: dict | None) -> FiniteAlgebra:
    reader = _Reader(path, digests)
    key = reader.next("'size'")
    if key != "size":
        raise reader.error(f"expected 'size', found {key!r}")
    size = reader.next_int("the carrier size", low=1)
    ops: list[tuple[str, int]] = []
    preds: list[tuple[str, int]] = []
    op_tables: dict[str, tuple[int, ...]] = {}
    pred_tables: dict[str, tuple[bool, ...]] = {}
    labels = None
    while not reader.done():
        if reader.peek() == "labels":
            reader.next("'labels'")
            labels = tuple(reader.next(f"label {i}") for i in range(size))
            continue
        kind, name, arity = _read_declaration(reader)
        count = size**arity
        if kind == "op":
            ops.append((name, arity))
            op_tables[name] = tuple(
                reader.next_int(f"a value of {name}", low=0, high=size)
                for _ in range(count))
        else:
            preds.append((name, arity))
            pred_tables[name] = tuple(
                bool(reader.next_int(f"a 0/1 entry of {name}", low=0, high=2))
                for _ in range(count))
    try:
        sig = Signature(ops=tuple(ops), preds=tuple(preds))
        return FiniteAlgebra(sig, size, op_tables, pred_tables, labels)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_algebra(alg: FiniteAlgebra, path: str) -> None:
    """Write a .alg file in the canonical layout (binary ops as a
    square of rows, everything else chunked by the last argument)."""
    n = alg.size
    lines = [f"size {n}"]
    for name, arity in alg.sig.ops:
        lines.append(f"op {name} {arity}")
        lines.extend(_table_lines(alg.op_tables[name], n, arity))
    for name, arity in alg.sig.preds:
        lines.append(f"pred {name} {arity}")
        lines.extend(_table_lines(
            tuple(int(v) for v in alg.pred_tables[name]), n, arity))
    if alg.labels is not None:
        lines.append("labels " + " ".join(alg.labels))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _table_lines(table: tuple[int, ...], size: int, arity: int) -> list[str]:
    if arity == 0:
        return [str(table[0])]
    width = size
    return [" ".join(str(v) for v in table[i:i + width])
            for i in range(0, len(table), width)]


class ClassDefinition(Record):
    """A generator family loaded from a .cls file.

    algebras are the loaded members (plus the one-element system when
    include_unitary is set), all sharing one signature; size_bound caps
    free/presented construction over the class; paths are the member
    files as load_class opened them, joined to the .cls file's directory.
    """

    __slots__ = ("algebras", "include_unitary", "size_bound", "paths")

    def __init__(self, algebras: tuple[FiniteAlgebra, ...],
                 include_unitary: bool, size_bound: int,
                 paths: tuple[str, ...]):
        self._set(algebras, include_unitary, size_bound, paths)


def load_class(path: str) -> ClassDefinition:
    """Read a .cls file and load its member algebras.

    Member paths resolve relative to the .cls file's directory.  All
    members must share a signature; with include_unitary the
    one-element system over that signature is appended.  Without a
    size_bound line the bound is classes.DEFAULT_SIZE_BOUND.
    """
    return _load_class(path, None)


def _load_class(path: str, digests: dict | None) -> ClassDefinition:
    # imported here: the commands that read no class file do not load
    # the classes module
    from .classes import DEFAULT_SIZE_BOUND
    reader = _Reader(path, digests)
    base = os.path.dirname(path)
    member_paths: list[str] = []
    include_unitary = False
    size_bound = DEFAULT_SIZE_BOUND
    while not reader.done():
        key = reader.next("'algebra', 'include_unitary' or 'size_bound'")
        if key == "algebra":
            member_paths.append(
                os.path.join(base, reader.next("an algebra file path")))
        elif key == "include_unitary":
            value = reader.next("true or false")
            if value not in ("true", "false"):
                raise reader.error(
                    f"include_unitary takes true or false, found {value!r}")
            include_unitary = value == "true"
        elif key == "size_bound":
            size_bound = reader.next_int("a size bound", low=1)
        else:
            raise reader.error(f"unknown keyword {key!r}")
    if not member_paths:
        raise FormatError(f"{path}: a class needs at least one algebra")
    algebras = [_load_algebra(member, digests) for member in member_paths]
    sig = algebras[0].sig
    for member, alg in zip(member_paths[1:], algebras[1:]):
        if alg.sig != sig:
            raise AlgebraMismatch(
                f"{path}: {member} has a different signature from the first "
                f"class member")
    if include_unitary:
        algebras.append(unitary_system(sig))
    return ClassDefinition(tuple(algebras), include_unitary, size_bound,
                           tuple(member_paths))
