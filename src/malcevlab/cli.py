"""Command line front end.

Every subcommand prints a run report: the command line it ran, a sha256
digest of every input file, the result, and a transcript of the checks
that back the answer.  With ``--format machine`` the report is a JSON
document with sorted keys and no timing data, so two runs over the same
inputs produce byte-identical output; the default text format appends a
wall-time line.

Exit codes: 0 for a completed run (including negative answers such as
"no Mal'cev term within depth 4"), 1 when ``--assert`` was given and
the checked property does not hold, 2 for malformed input, and 3 when a
work or size budget stopped a search before it could settle the
question — budgets never truncate silently.

A command line loads only what its handler runs.  Every command imports
terms, errors, algebras and fileformat; the handlers import the rest
after their input is loaded: congruences for ``congruences``,
``permutable`` and ``quotient``, quasigroups for the ``quasigroup``
commands, classes for ``free``, ``present``, ``replica`` and ``member``,
and the derived-operation search (with numpy) for ``malcev``,
``biternary`` and ``translations``.  The parser holds only the command
the command line names; help and a missing or unknown command build
every command's parser.  No module uses the standard library's data
classes: the records are slotted classes, because importing that module
and running the methods it generates took most of the package's own
start-up.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from .algebras import (FiniteAlgebra, _read_through, find_homomorphisms,
                       generate_subalgebra, is_strong_homomorphism)
from .errors import (BudgetError, InputError, NotLatin,
                     SearchBudgetExceeded, TermSyntaxError)
from .fileformat import (ClassDefinition, _load_algebra, _load_class,
                         _load_signature, save_algebra)
from .terms import (check_quasiidentity, eval_formula, eval_term,
                    formula_vars, parse_formula, parse_quasiidentity,
                    parse_term, print_term, term_depth, term_size,
                    term_vars)

# default --max-product for map searches, check assignments, lattice joins
# and congruence pairs; free and present default to the class's size_bound
MAP_SEARCH_BUDGET = 1_000_000

# ---------------------------------------------------------------------------
# input loading: the loaders record each file's digest in inputs


def _load_cls(path: str, inputs: dict[str, str], size_bound=None):
    """The class file and its members; size_bound overrides the file's."""
    cls = _load_class(path, inputs)
    return cls if size_bound is None else ClassDefinition(
        cls.algebras, cls.include_unitary, size_bound, cls.paths)


# ---------------------------------------------------------------------------
# small parsers for command line values


def _ints(text: str, what: str) -> list[int]:
    toks = text.replace(",", " ").split()
    try:
        return [int(t) for t in toks]
    except ValueError as exc:
        raise InputError(f"{what} must be integers, got {text!r}") from exc


def _assignment(text: str, alg: FiniteAlgebra) -> list[int]:
    values = _ints(text, "assignment values")
    for v in values:
        if not (0 <= v < alg.size):
            raise InputError(
                f"assignment value {v} outside carrier 0..{alg.size - 1}")
    return values


def _partition(text: str, size: int) -> tuple[int, ...]:
    """Parse a partition written as ``{{0,2},{1,3}}`` or ``0 2 | 1 3``
    into the least member of each element's block."""
    if "{" in text:
        compact = "".join(text.split())
        if not re.fullmatch(r"\{\{[^{}]*\}(,\{[^{}]*\})*\}", compact):
            raise InputError(
                "partition must look like '{{0,2},{1,3}}' or '0 2 | 1 3', "
                f"got {text!r}")
        chunks = re.findall(r"\{([^{}]*)\}", compact)
    else:
        chunks = text.split("|")
    blocks = [_ints(chunk, "partition elements") for chunk in chunks]
    from .congruences import _block_of
    try:
        return _block_of(blocks, size)
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _square(alg: FiniteAlgebra):
    """Interpret an algebra's multiplication as a Latin square."""
    from .quasigroups import latin_square
    return latin_square(_rows(alg, _mul_name(alg)))


def _mul_name(alg: FiniteAlgebra) -> str:
    if alg.sig.op_arity("mul") == 2:
        return "mul"
    binary = [name for name, arity in alg.sig.ops if arity == 2]
    if len(binary) == 1:
        return binary[0]
    if not binary:
        raise InputError("algebra has no binary operation to use as mul")
    raise InputError(
        f"algebra has several binary operations {binary} and none is "
        f"named 'mul'")


def _rows(alg: FiniteAlgebra, name: str) -> list[tuple[int, ...]]:
    n, table = alg.size, alg.op_tables[name]
    return [table[r * n:(r + 1) * n] for r in range(n)]


# ---------------------------------------------------------------------------
# handlers: each returns (result dict incl. "summary", checks, assert_ok)


def _cmd_parse(args, inputs):
    sig = _load_signature(args.sig, inputs)
    parse = {"term": parse_term, "formula": parse_formula,
             "quasiidentity": parse_quasiidentity}[args.kind]
    node = parse(args.text, sig)
    canonical = str(node)
    if parse(canonical, sig) != node:  # pragma: no cover - a printer bug
        raise AssertionError("canonical text did not round-trip")
    result = {"summary": canonical, "kind": args.kind,
              "canonical": canonical}
    if args.kind == "term":
        result.update(size=term_size(node), depth=term_depth(node),
                      variables=sorted(term_vars(node)))
    elif args.kind == "formula":
        result["variables"] = sorted(formula_vars(node))
    else:
        result.update(premises=len(node.premises),
                      variables=node.variable_count)
    return result, ["canonical text re-parses to an equal syntax tree"], True


def _cmd_eval(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    term = parse_term(args.term, alg.sig)
    assignment = _assignment(args.at, alg)
    value = eval_term(term, assignment, alg)
    result = {
        "summary": f"value: {value}",
        "value": value,
        "term": print_term(term),
        "assignment": assignment,
    }
    checks = [f"evaluated bottom-up over {len(alg.sig.ops)} operation tables"]
    return result, checks, True


def _cmd_check(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    q = parse_quasiidentity(args.formula, alg.sig)
    total = alg.size**q.variable_count
    if total > args.max_product:
        raise SearchBudgetExceeded(
            f"{alg.size}^{q.variable_count} assignments over "
            f"{q.variable_count} variables exceed the assignment budget of "
            f"{args.max_product}; a larger --max-product raises it")
    outcome = check_quasiidentity(q, alg)
    if outcome.holds:
        summary = f"holds over all {total} assignments"
    elif outcome.witness:
        pairs = ", ".join(
            f"x{i}={v}" for i, v in enumerate(outcome.witness))
        summary = f"fails at {pairs}"
    else:
        summary = "fails at the empty assignment (no variables)"
    result = {
        "summary": summary,
        "holds": outcome.holds,
        "formula": str(q),
        "witness": None if outcome.holds else list(outcome.witness),
        "assignments": total,
    }
    checks = [f"scanned {total} assignments over "
              f"{q.variable_count} variables in lexicographic order"]
    if not outcome.holds:
        premises_ok = all(
            eval_formula(p, outcome.witness, alg) for p in q.premises)
        conclusion = eval_formula(q.conclusion, outcome.witness, alg)
        if not premises_ok or conclusion:  # pragma: no cover
            raise AssertionError("witness does not refute the formula")
        checks.append("witness re-evaluated: premises hold, conclusion fails")
    return result, checks, outcome.holds


def _cmd_subalg(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    seed = _assignment(args.seed, alg) if args.seed else []
    elements = generate_subalgebra(alg, seed)
    inside = set(elements)
    for name, arity in alg.sig.ops:
        values = _read_through(alg.op_tables[name], elements, arity, alg.size)
        if not inside.issuperset(values):  # pragma: no cover
            raise AssertionError("generated set is not closed")
    result = {
        "summary": f"generated subuniverse has {len(elements)} of "
                   f"{alg.size} elements",
        "seed": seed,
        "elements": list(elements),
        "size": len(elements),
    }
    checks = [f"closure re-verified under all {len(alg.sig.ops)} operations"]
    return result, checks, True


def _cmd_homs(args, inputs):
    a = _load_algebra(args.source, inputs)
    b = _load_algebra(args.target, inputs)
    maps = find_homomorphisms(a, b, strong=args.strong,
                              budget=args.max_product)
    annotated = [{"map": list(m), "strong": is_strong_homomorphism(m, a, b)}
                 for m in maps]
    strong_count = sum(1 for m in annotated if m["strong"])
    kind = "strong homomorphisms" if args.strong else "homomorphisms"
    result = {
        "summary": f"{len(maps)} {kind} found",
        "count": len(maps),
        "strong_count": strong_count,
        "maps": annotated,
    }
    checks = [
        "each candidate verified against every operation and predicate",
        f"{strong_count} of {len(maps)} are strong "
        f"(surjective, predicate-reflecting)",
    ]
    return result, checks, bool(maps)


def _lattice(args, alg):
    """all_congruences with --max-product as its join budget."""
    from .congruences import all_congruences
    try:
        return all_congruences(alg, budget=args.max_product)
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(
            f"{exc}; a larger --max-product raises it") from None


def _cmd_congruences(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .congruences import is_stable_partition
    congs = _lattice(args, alg)
    for c in congs:
        if not is_stable_partition(alg, c.block_of):  # pragma: no cover
            raise AssertionError("listed partition is not stable")
    result = {
        "summary": f"{len(congs)} congruences",
        "count": len(congs),
        "congruences": [str(c) for c in congs],
    }
    checks = [
        f"all {len(congs)} partitions re-verified stable under every "
        f"operation",
        "identity and full partitions are always present",
    ]
    return result, checks, True


def _cmd_permutable(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .congruences import non_permuting_pairs
    congs = _lattice(args, alg)
    pair_count = len(congs) * (len(congs) - 1) // 2
    if pair_count > args.max_product:
        raise SearchBudgetExceeded(
            f"{pair_count} congruence pairs exceed the pair budget of "
            f"{args.max_product}; a larger --max-product raises it")
    bad = [{"theta": str(theta), "xi": str(xi)}
           for theta, xi in non_permuting_pairs(congs)]
    if bad:
        summary = (f"{len(bad)} of {pair_count} congruence pairs "
                   f"do not permute")
    else:
        summary = f"all {pair_count} congruence pairs permute"
    result = {
        "summary": summary,
        "congruences": len(congs),
        "pairs": pair_count,
        "non_permuting": bad,
    }
    checks = [f"compared theta o xi with xi o theta as relation sets for "
              f"all {pair_count} unordered pairs"]
    return result, checks, not bad


def _cmd_quotient(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .congruences import Congruence, quotient
    # quotient checks stability itself (NotStable), so the partition is not
    # checked first through partition_congruence
    theta = Congruence(alg, _partition(args.by, alg.size))
    q, canonical = quotient(alg, theta)
    if not is_strong_homomorphism(canonical, alg, q):  # pragma: no cover
        raise AssertionError("canonical map is not a strong homomorphism")
    result = {
        "summary": f"quotient has {q.size} elements",
        "size": q.size,
        "blocks": str(theta),
        "canonical_map": list(canonical),
    }
    if args.out:
        save_algebra(q, args.out)
        result["out"] = args.out
    checks = [
        "operations re-verified constant on blocks for every member choice",
        "canonical map verified as a strong homomorphism onto the quotient",
    ]
    return result, checks, True


def _search_absence(res, args, noun: str, checks: str):
    """The report of a search res that found no noun within --depth:
    its checks line is checks, formatted with the bound and the tables
    explored.  A truncated search raises SearchBudgetExceeded instead."""
    cap = args.max_size
    bound = f"{args.depth}" + (f" and size <= {cap}" if cap is not None
                               else "")
    if res.truncated:
        from .malcev import DEFAULT_CANDIDATE_BUDGET, DEFAULT_TABLE_BUDGET
        limit, unit = {"table": (DEFAULT_TABLE_BUDGET, "distinct tables"),
                       "candidate": (DEFAULT_CANDIDATE_BUDGET, "candidates"),
                       }[res.exhausted]
        raise SearchBudgetExceeded(
            f"{res.exhausted} budget of {limit} {unit} exhausted after "
            f"{res.tables_explored} derived operations, before settling "
            f"depth {bound}; a lower --depth or a positive --max-size "
            f"narrows the search")
    result = {
        "summary": f"no {noun} within depth {args.depth}",
        "found": False,
        "depth": args.depth,
        "max_size": cap,
        "tables_explored": res.tables_explored,
    }
    return result, [checks.format(bound=bound,
                                  tables=res.tables_explored)], False


def _cmd_malcev(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .malcev import malcev_search
    cap = args.max_size
    res = malcev_search(alg, args.depth, max_term_size=cap)
    if res.term is not None:
        text = print_term(res.term)
        n = alg.size
        result = {
            "summary": f"Mal'cev term: {text}",
            "found": True,
            "term": text,
            "depth": args.depth,
            "max_size": cap,
            "tables_explored": res.tables_explored,
        }
        checks = [
            f"P(x,x,z) = z and P(x,z,z) = x re-verified on all "
            f"{n * n} value pairs with the term evaluator",
            f"explored {res.tables_explored} distinct derived operations",
        ]
        return result, checks, True
    return _search_absence(
        res, args, "Mal'cev term",
        "exhausted all derived ternary operations of depth <= {bound}: "
        "{tables} distinct tables, none satisfies both identities")


def _cmd_biternary(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .malcev import detect_biternary
    cap = args.max_size
    res = detect_biternary(alg, args.depth, max_term_size=cap)
    if res.pair is not None:
        a_text = print_term(res.pair.alpha)
        b_text = print_term(res.pair.beta)
        n = alg.size
        result = {
            "summary": f"biternary pair: alpha = {a_text}, beta = {b_text}",
            "found": True,
            "alpha": a_text,
            "beta": b_text,
            "depth": args.depth,
            "max_size": cap,
            "tables_explored": res.tables_explored,
        }
        checks = [
            f"alpha(x,x,y) = y re-verified on all {n * n} pairs",
            f"alpha(beta(x,y,z),y,z) = x and beta(alpha(x,y,z),y,z) = x "
            f"re-verified on all {n ** 3} triples",
        ]
        return result, checks, True
    return _search_absence(
        res, args, "biternary pair",
        "exhausted all derived-operation pairs of depth <= {bound} over "
        "{tables} tables")


def _cmd_translations(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .malcev import translation_group
    grp = translation_group(alg, args.depth)
    action = "transitively" if grp.transitive else "non-transitively"
    if grp.truncated and not grp.transitive:
        raise SearchBudgetExceeded(
            f"map enumeration truncated with {len(grp.closure)} maps "
            f"closed so far and the action not yet transitive")
    result = {
        "summary": f"translation closure has {len(grp.closure)} maps and "
                   f"acts {action}",
        "generators": len(grp.generators),
        "closure_size": len(grp.closure),
        "transitive": grp.transitive,
        "depth": args.depth,
    }
    checks = [
        f"{len(grp.generators)} reversible unary polynomial maps found "
        f"within depth {args.depth}",
        "closure computed under composition; orbit of 0 compared with "
        "the carrier",
    ]
    if grp.truncated:
        checks.append("enumeration hit its work budget after transitivity "
                      "was already established")
    return result, checks, grp.transitive


def _cmd_qg_verify(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    name = _mul_name(alg)
    from .quasigroups import equasigroup_from_latin, latin_square
    try:
        square = latin_square(_rows(alg, name))
    except NotLatin as exc:
        result = {
            "summary": f"not a Latin square: {exc}",
            "latin": False,
            "row": exc.row,
            "column": exc.column,
        }
        return result, ["first violation reported by row/column scan"], False
    q = equasigroup_from_latin(square)
    result = {
        "summary": f"Latin square of order {square.order}",
        "latin": True,
        "order": square.order,
        "left_unit": q.left_unit,
        "right_unit": q.right_unit,
        "two_sided_unit": q.two_sided_unit,
    }
    checks = [
        "every row and every column is a permutation of the carrier",
        "division tables solved uniquely from the multiplication table",
    ]
    return result, checks, True


def _closed_under_generators(maps, generators) -> bool:
    """p composed with g lies in maps for every p in maps and every
    generator g.  When every map is a word in the generators, as in a
    composition closure, this proves maps closed under composition, in
    O(|maps|*|generators|*n) steps instead of O(|maps|^2*n)."""
    return all(tuple([p[x] for x in g]) in maps
               for p in maps for g in generators)


def _cmd_qg_mulgroup(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .quasigroups import equasigroup_from_latin, multiplication_group
    q = equasigroup_from_latin(_square(alg))
    grp = multiplication_group(q, side=args.side)
    closed = _closed_under_generators(grp.closure, grp.generators)
    if not closed:  # pragma: no cover
        raise AssertionError("closure is not closed under composition")
    action = "transitive" if grp.transitive else "not transitive"
    result = {
        "summary": f"{args.side} multiplication group has order "
                   f"{len(grp.closure)}; action is {action}",
        "side": args.side,
        "order": len(grp.closure),
        "generators": len(grp.generators),
        "transitive": grp.transitive,
    }
    checks = [
        f"generated by {len(grp.generators)} translation permutations",
        f"closure of {len(grp.closure)} maps re-verified closed under "
        f"composition",
        "orbit of 0 compared with the carrier",
    ]
    return result, checks, grp.transitive


def _cmd_qg_malcev(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .quasigroups import equasigroup_from_latin, malcev_polynomial
    q = equasigroup_from_latin(_square(alg))
    term = malcev_polynomial(q, flavor=args.flavor)
    text = print_term(term)
    result = {
        "summary": f"Mal'cev polynomial: {text}",
        "flavor": args.flavor,
        "term": text,
    }
    n = q.size
    if args.flavor == "quasigroup":
        checks = [
            f"both identities verified for every anchor value: {n} anchors "
            f"x {n * n} pairs each",
        ]
    else:
        checks = [
            f"both identities verified with the unit as anchor on all "
            f"{n * n} pairs",
        ]
    return result, checks, True


def _cmd_qg_rectify(args, inputs):
    alg = _load_algebra(args.algebra, inputs)
    from .quasigroups import equasigroup_from_latin, rectification_check
    q = equasigroup_from_latin(_square(alg))
    report = rectification_check(q)
    verdict = "verified" if report.holds else "failed"
    result = {
        "summary": f"rectification {verdict} with right unit {report.unit}",
        "holds": report.holds,
        "unit": report.unit,
        "forward_then_back": report.forward_then_back,
        "back_then_forward": report.back_then_forward,
        "keeps_first": report.keeps_first,
        "diagonal_to_unit": report.diagonal_to_unit,
    }
    checks = [
        f"(x, y) -> (x, x*y) and (x, y) -> (x, x\\y) composed both ways "
        f"over all {q.size ** 2} pairs",
        "diagonal image compared against the right unit column",
    ]
    return result, checks, report.holds


def _cmd_free(args, inputs):
    cls = _load_cls(args.cls, inputs, args.max_product)
    from .classes import free_algebra, verify_universal_property
    fr = free_algebra(cls.algebras, args.rank, size_bound=cls.size_bound)
    result = {
        "summary": f"free algebra of rank {args.rank} over "
                   f"{len(cls.algebras)} generators has "
                   f"{fr.algebra.size} elements",
        "size": fr.algebra.size,
        "rank": args.rank,
        "factor_count": len(fr.factors),
        "generators": list(fr.generator_images),
    }
    if args.out:
        save_algebra(fr.algebra, args.out)
        result["out"] = args.out
    checks = [
        f"generators realized as coordinate tuples over "
        f"{len(fr.factors)} assignment factors; carrier closed under "
        f"all operations",
    ]
    ok = True
    if args.assert_flag:
        report = verify_universal_property(fr, cls.algebras)
        ok = report.holds
        checks.append(
            f"universal property checked against {report.targets_checked} "
            f"targets, {report.assignments_checked} generator assignments")
    return result, checks, ok


def _cmd_present(args, inputs):
    cls = _load_cls(args.cls, inputs, args.max_product)
    from .classes import presented_algebra, verify_universal_property
    sig = cls.algebras[0].sig
    relations = []
    for text in args.relation or []:
        rel = parse_formula(text, sig)
        bad = [v for v in formula_vars(rel) if v >= args.rank]
        if bad:
            raise InputError(
                f"relation {text!r} uses x{max(bad)} but the rank is "
                f"{args.rank}")
        relations.append(rel)
    fr = presented_algebra(cls.algebras, args.rank, relations,
                           size_bound=cls.size_bound)
    result = {
        "summary": f"presented algebra of rank {args.rank} with "
                   f"{len(relations)} relations has "
                   f"{fr.algebra.size} elements",
        "size": fr.algebra.size,
        "rank": args.rank,
        "relations": [str(r) for r in relations],
        "factor_count": len(fr.factors),
        "generators": list(fr.generator_images),
    }
    if args.out:
        save_algebra(fr.algebra, args.out)
        result["out"] = args.out
    checks = [
        f"kept the {len(fr.factors)} generator assignments satisfying "
        f"every relation; carrier closed under all operations",
    ]
    ok = True
    if args.assert_flag:
        report = verify_universal_property(fr, cls.algebras)
        ok = report.holds
        checks.append(
            f"universal property checked against {report.targets_checked} "
            f"targets, {report.assignments_checked} relation-respecting "
            f"assignments")
    return result, checks, ok


def _cmd_replica(args, inputs):
    cls = _load_cls(args.cls, inputs)
    source = _load_algebra(args.algebra, inputs)
    from .classes import replica
    rep = replica(cls.algebras, source, budget=args.max_product)
    result = {
        "summary": f"replica has {rep.algebra.size} elements, separated "
                   f"by {rep.hom_count} homomorphisms",
        "size": rep.algebra.size,
        "hom_count": rep.hom_count,
        "canonical_map": list(rep.canonical_map),
    }
    if args.out:
        save_algebra(rep.algebra, args.out)
        result["out"] = args.out
    checks = [
        "canonical map verified as a homomorphism onto the replica",
        "every coordinate projection verified as a homomorphism into "
        "its generator",
    ]
    return result, checks, True


def _cmd_member(args, inputs):
    cls = _load_cls(args.cls, inputs)
    candidate = _load_algebra(args.algebra, inputs)
    from .classes import membership_in_closure
    report = membership_in_closure(cls.algebras, candidate,
                                   budget=args.max_product)
    if report.member:
        summary = (f"member of the generated class "
                   f"({report.hom_count} homomorphisms separate all points)")
        witness = None
    elif report.witness[0] == "unseparated":
        _, a, b = report.witness
        summary = (f"not a member: elements {a} and {b} take equal values "
                   f"under every homomorphism into the generators")
        witness = {"kind": "unseparated", "elements": [a, b]}
    else:
        _, name, combo = report.witness
        arg_text = ", ".join(str(c) for c in combo)
        summary = (f"not a member: predicate {name}({arg_text}) is false "
                   f"here but forced in every product embedding")
        witness = {"kind": "forced_predicate", "predicate": name,
                   "args": list(combo)}
    result = {
        "summary": summary,
        "member": report.member,
        "homomorphisms": report.hom_count,
        "witness": witness,
    }
    plural = "s" if len(cls.algebras) != 1 else ""
    checks = [
        f"enumerated all {report.hom_count} homomorphisms into the "
        f"{len(cls.algebras)} generating algebra{plural}",
        "separation and predicate reflection decided exactly from the "
        "full homomorphism list",
    ]
    return result, checks, report.member


# ---------------------------------------------------------------------------
# parser and report plumbing


def _at_least(low: int, zero=0):
    """An argparse type: an integer no less than low, with 0 read as zero."""
    def integer(text: str):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        return value if value else zero
    return integer


# every argument beyond --format and --assert, each declared once with
# its range and default; a command takes only those its handler reads
_ARGUMENTS = {
    "text": ("text", dict(help="the text to parse")),
    "algebra": ("algebra", dict(help="algebra file (.alg)")),
    "source": ("source", dict(help="source algebra file (.alg)")),
    "target": ("target", dict(help="target algebra file (.alg)")),
    "cls": ("cls", dict(help="class file (.cls)")),
    "term": ("term", dict(help="term text over the algebra's signature")),
    "formula": ("formula", dict(help="identity or quasiidentity text")),
    "sig": ("--sig", dict(required=True, help="signature file (.sig)")),
    "kind": ("--kind", dict(choices=("term", "formula", "quasiidentity"),
                            default="term")),
    "at": ("--at", dict(required=True, metavar="VALUES",
                        help="comma separated values for x0, x1, ...")),
    "seed": ("--seed", dict(
        default="", metavar="VALUES",
        help="comma separated seed elements (default: constants)")),
    "strong": ("--strong", dict(action="store_true",
                                help="list only strong homomorphisms")),
    "by": ("--by", dict(required=True, metavar="PARTITION",
                        help="blocks like '{{0,2},{1,3}}' or '0 2 | 1 3'")),
    "rank": ("--rank", dict(type=int, required=True,
                            help="number of generators")),
    "relation": ("--relation", dict(
        action="append", metavar="FORMULA",
        help="relation over x0..x{rank-1}; repeatable")),
    "out": ("--out", dict(metavar="FILE", help="write the result (.alg)")),
    "side": ("--side", dict(choices=("left", "right", "both"),
                            default="left")),
    "flavor": ("--flavor", dict(
        choices=("quasigroup", "right_eloop", "left_eloop"),
        default="quasigroup")),
    "depth": ("--depth", dict(
        type=_at_least(0), default=4, metavar="D",
        help="composition depth bound for the search (default 4)")),
    "max_size": ("--max-size", dict(
        type=_at_least(0, zero=None), default=8, metavar="S",
        help="term size cap for the search; 0 removes the cap (default 8)")),
    # one flag, two defaults: a map search budget, or a class size bound
    "budget": ("--max-product", dict(
        type=_at_least(1), default=MAP_SEARCH_BUDGET, metavar="N",
        help="budget of candidate maps, check assignments, lattice joins "
             "and congruence pairs (default 1000000)")),
    "size_bound": ("--max-product", dict(
        type=_at_least(1), default=None, metavar="N",
        help="bound on generator assignments and elements (default: the "
             "class file's size_bound)")),
}

# command words -> (handler, help, the _ARGUMENTS keys it reads in order);
# a command with no handler is a group of the commands named under it
_COMMANDS = {
    ("parse",): (_cmd_parse, "parse and canonically print a term or formula",
                 ("text", "sig", "kind")),
    ("eval",): (_cmd_eval, "evaluate a term under an assignment",
                ("algebra", "term", "at")),
    ("check",): (_cmd_check, "check a quasiidentity on an algebra",
                 ("algebra", "formula", "budget")),
    ("subalg",): (_cmd_subalg, "subuniverse generated by a seed set",
                  ("algebra", "seed")),
    ("homs",): (_cmd_homs, "all homomorphisms between two algebras",
                ("source", "target", "strong", "budget")),
    ("congruences",): (_cmd_congruences,
                       "list every congruence of an algebra",
                       ("algebra", "budget")),
    ("permutable",): (_cmd_permutable,
                      "check all congruence pairs for permutability",
                      ("algebra", "budget")),
    ("quotient",): (_cmd_quotient, "quotient by a congruence partition",
                    ("algebra", "by", "out")),
    ("malcev",): (_cmd_malcev, "search for a Mal'cev term within bounds",
                  ("algebra", "depth", "max_size")),
    ("biternary",): (_cmd_biternary, "search for a biternary operation pair",
                     ("algebra", "depth", "max_size")),
    ("translations",): (_cmd_translations,
                        "reversible translation maps and their closure",
                        ("algebra", "depth")),
    ("quasigroup",): (None, "quasigroup-specific commands", ()),
    ("quasigroup", "verify"): (_cmd_qg_verify,
                               "is the multiplication table a Latin square?",
                               ("algebra",)),
    ("quasigroup", "mulgroup"): (_cmd_qg_mulgroup,
                                 "multiplication group of a quasigroup",
                                 ("algebra", "side")),
    ("quasigroup", "malcev"): (_cmd_qg_malcev,
                               "division-based Mal'cev polynomial",
                               ("algebra", "flavor")),
    ("quasigroup", "rectify"): (_cmd_qg_rectify,
                                "check the division-rectification bijection",
                                ("algebra",)),
    ("free",): (_cmd_free, "free algebra over a class of generators",
                ("cls", "rank", "out", "size_bound")),
    ("present",): (_cmd_present,
                   "algebra presented by generators and relations",
                   ("cls", "rank", "relation", "out", "size_bound")),
    ("replica",): (_cmd_replica, "replica of an algebra in a class",
                   ("cls", "algebra", "out", "budget")),
    ("member",): (_cmd_member, "decide membership in the class of generators",
                  ("cls", "algebra", "budget")),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for argv.  When argv's leading words name a command, it
    holds only that command, under its group; otherwise (help, a missing
    or unknown command) it holds them all.  Either way argv parses, or
    fails with the same message, as with all of them."""
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = words[:1]
    whole = _COMMANDS.get(words, (None,))[0] is None
    # a group first, then its command; a plain command is its own first word
    chosen = _COMMANDS if whole else dict.fromkeys((words[:1], words))

    # shared by every command: a parent adds its actions without rebuilding
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="machine prints deterministic JSON with no timing data")
    output.add_argument(
        "--assert", dest="assert_flag", action="store_true",
        help="exit 1 when the checked property does not hold")

    def subparsers(p, group: tuple, dest: str):
        # a partial tree's usage lists every command of the group, as the
        # whole tree's does; the whole tree keeps argparse's own listing,
        # since a metavar would also rename its missing-command error
        listing = None if whole else "{%s}" % ",".join(
            name[-1] for name in _COMMANDS if name[:-1] == group)
        return p.add_subparsers(dest=dest, required=True, metavar=listing)

    # options are spelled out in full: a prefix could name a different
    # option in each command
    parser = argparse.ArgumentParser(
        prog="malcev-lab", allow_abbrev=False,
        description="workbench for finite algebraic systems")
    subs = {(): subparsers(parser, (), "command")}
    for name in chosen:
        handler, help, keys = _COMMANDS[name]
        group, leaf = name[:-1], name[-1]
        if handler is None:
            p = subs[group].add_parser(leaf, help=help, allow_abbrev=False)
            subs[name] = subparsers(p, name, "qcommand")
            continue
        p = subs[group].add_parser(leaf, help=help, parents=[output],
                                   allow_abbrev=False)
        p.set_defaults(handler=handler)
        for key in keys:
            flag, spec = _ARGUMENTS[key]
            p.add_argument(flag, **spec)
    return parser


def _format_input_error(exc: InputError) -> str:
    if isinstance(exc, TermSyntaxError):
        if exc.expected:
            return (f"syntax error at column {exc.position}: "
                    f"expected {exc.expected}")
        return f"syntax error at column {exc.position}: {exc}"
    return str(exc)


def _print_text(report: dict, wall_ms: float) -> None:
    lines = [f"command: {' '.join(report['command'])}"]
    for path, digest in report["inputs"].items():
        lines.append(f"input: {path} sha256={digest}")
    result = report["result"]
    lines.append(result["summary"])
    for key in sorted(result):
        if key == "summary":
            continue
        value = result[key]
        if isinstance(value, (dict, list, tuple, bool)) or value is None:
            rendered = json.dumps(value, sort_keys=True)
        else:
            rendered = str(value)
        lines.append(f"  {key}: {rendered}")
    for check in report["checks"]:
        lines.append(f"check: {check}")
    lines.append(f"wall-time: {int(round(wall_ms))} ms")
    sys.stdout.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
    start = time.perf_counter()
    inputs: dict[str, str] = {}
    try:
        result, checks, ok = args.handler(args, inputs)
    except InputError as exc:
        print(f"error: {_format_input_error(exc)}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": argv,
        "inputs": inputs,
        "result": result,
        "checks": checks,
    }
    if args.format == "machine":
        sys.stdout.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    else:
        _print_text(report, (time.perf_counter() - start) * 1000.0)
    if args.assert_flag and not ok:
        print("assert: the checked property does not hold", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
