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

The derived-operation search (and numpy with it) is imported inside the
handlers of ``malcev``, ``biternary`` and ``translations``, after their
input is loaded, so every other command starts without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
import time
from itertools import product
from typing import Optional

from .algebras import (FiniteAlgebra, find_homomorphisms,
                       generate_subalgebra, is_homomorphism,
                       is_strong_homomorphism)
from .classes import (free_algebra, membership_in_closure, presented_algebra,
                      replica, verify_universal_property)
from .congruences import (DEFAULT_LATTICE_BUDGET, all_congruences,
                          is_stable_partition, non_permuting_pairs,
                          partition_congruence, quotient)
from .errors import (BudgetError, InputError, NotLatin,
                     SearchBudgetExceeded, TermSyntaxError)
from .fileformat import (load_algebra, load_class, load_signature,
                         save_algebra)
from .quasigroups import (LatinSquare, equasigroup_from_latin, latin_square,
                          malcev_polynomial, multiplication_group,
                          rectification_check)
from .terms import (check_quasiidentity, eval_formula, eval_term,
                    formula_vars, parse_formula, parse_quasiidentity,
                    parse_term, print_term, term_depth, term_size,
                    term_vars)

# default --max-product for homomorphism searches; construction commands
# fall back to the class file's size bound instead
MAP_SEARCH_BUDGET = 1_000_000

# ---------------------------------------------------------------------------
# input loading with digests


def _digest(path: str, inputs: dict[str, str], name: str | None = None) -> None:
    try:
        with open(path, "rb") as fh:
            inputs[name or path] = hashlib.sha256(fh.read()).hexdigest()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def _load_alg(path: str, inputs: dict[str, str]) -> FiniteAlgebra:
    _digest(path, inputs)
    return load_algebra(path)


def _load_sig(path: str, inputs: dict[str, str]):
    _digest(path, inputs)
    return load_signature(path)


def _load_cls(path: str, inputs: dict[str, str]):
    _digest(path, inputs)
    cls = load_class(path)
    base = os.path.dirname(os.path.abspath(path))
    for member in cls.paths:
        if os.path.isabs(member):
            resolved = name = member
        else:
            resolved = os.path.join(base, member)
            name = os.path.join(os.path.dirname(path), member)
        _digest(resolved, inputs, name)
    return cls


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


def _partition(text: str, size: int) -> list[list[int]]:
    """Parse a partition written as ``{{0,2},{1,3}}`` or ``0 2 | 1 3``."""
    if "{" in text:
        compact = "".join(text.split())
        if not re.fullmatch(r"\{\{[^{}]*\}(,\{[^{}]*\})*\}", compact):
            raise InputError(
                "partition must look like '{{0,2},{1,3}}' or '0 2 | 1 3', "
                f"got {text!r}")
        chunks = re.findall(r"\{([^{}]*)\}", compact)
    else:
        chunks = text.split("|")
    blocks = []
    seen: set[int] = set()
    for chunk in chunks:
        block = _ints(chunk, "partition elements")
        if not block:
            raise InputError("empty block in partition")
        for x in block:
            if not (0 <= x < size):
                raise InputError(
                    f"partition element {x} outside carrier 0..{size - 1}")
            if x in seen:
                raise InputError(f"element {x} appears in two blocks")
            seen.add(x)
        blocks.append(block)
    if len(seen) != size:
        missing = sorted(set(range(size)) - seen)
        raise InputError(f"partition misses elements {missing}")
    return blocks


def _square(alg: FiniteAlgebra) -> LatinSquare:
    """Interpret an algebra's multiplication as a Latin square."""
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


def _rows(alg: FiniteAlgebra, name: str) -> list[list[int]]:
    n = alg.size
    return [[alg.op_value(name, (r, c)) for c in range(n)] for r in range(n)]


def _effective_cap(args) -> Optional[int]:
    if args.max_size is None or args.max_size <= 0:
        return None
    return args.max_size


# ---------------------------------------------------------------------------
# handlers: each returns (result dict incl. "summary", checks, assert_ok)


def _cmd_parse(args, inputs):
    sig = _load_sig(args.sig, inputs)
    if args.kind == "term":
        node = parse_term(args.text, sig)
        canonical = print_term(node)
        again = parse_term(canonical, sig)
        result = {
            "summary": canonical,
            "kind": "term",
            "canonical": canonical,
            "size": term_size(node),
            "depth": term_depth(node),
            "variables": sorted(term_vars(node)),
        }
    elif args.kind == "formula":
        node = parse_formula(args.text, sig)
        canonical = str(node)
        again = parse_formula(canonical, sig)
        result = {
            "summary": canonical,
            "kind": "formula",
            "canonical": canonical,
            "variables": sorted(formula_vars(node)),
        }
    else:
        node = parse_quasiidentity(args.text, sig)
        canonical = str(node)
        again = parse_quasiidentity(canonical, sig)
        result = {
            "summary": canonical,
            "kind": "quasiidentity",
            "canonical": canonical,
            "premises": len(node.premises),
            "variables": node.variable_count,
        }
    checks = []
    if again == node:
        checks.append("canonical text re-parses to an equal syntax tree")
    else:  # pragma: no cover - printer/parser mismatch would be a bug
        raise AssertionError("canonical text did not round-trip")
    return result, checks, True


def _cmd_eval(args, inputs):
    alg = _load_alg(args.algebra, inputs)
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
    alg = _load_alg(args.algebra, inputs)
    q = parse_quasiidentity(args.formula, alg.sig)
    total = alg.size**q.variable_count
    budget = args.max_product if args.max_product else MAP_SEARCH_BUDGET
    if total > budget:
        raise SearchBudgetExceeded(
            f"{total} assignments over {q.variable_count} variables exceed "
            f"the assignment budget of {budget}; a larger --max-product "
            f"raises it")
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
    alg = _load_alg(args.algebra, inputs)
    seed = _assignment(args.seed, alg) if args.seed else []
    elements = generate_subalgebra(alg, seed)
    inside = set(elements)
    for name, arity in alg.sig.ops:
        for combo in product(elements, repeat=arity):
            if alg.op_value(name, combo) not in inside:  # pragma: no cover
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
    a = _load_alg(args.source, inputs)
    b = _load_alg(args.target, inputs)
    budget = args.max_product if args.max_product else MAP_SEARCH_BUDGET
    maps = find_homomorphisms(a, b, strong=args.strong, budget=budget)
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


def _lattice_budget(args) -> int:
    return args.max_product if args.max_product else DEFAULT_LATTICE_BUDGET


def _lattice(args, alg):
    """all_congruences with --max-product as its join budget."""
    budget = _lattice_budget(args)
    try:
        return all_congruences(alg, budget=budget)
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(
            f"{exc}; a larger --max-product raises it") from None


def _cmd_congruences(args, inputs):
    alg = _load_alg(args.algebra, inputs)
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
    alg = _load_alg(args.algebra, inputs)
    congs = _lattice(args, alg)
    pair_count = len(congs) * (len(congs) - 1) // 2
    budget = _lattice_budget(args)
    if pair_count > budget:
        raise SearchBudgetExceeded(
            f"{pair_count} congruence pairs exceed the pair budget of "
            f"{budget}; a larger --max-product raises it")
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
    alg = _load_alg(args.algebra, inputs)
    blocks = _partition(args.by, alg.size)
    theta = partition_congruence(alg, blocks)
    q, canonical = quotient(alg, theta)
    if not is_homomorphism(canonical, alg, q):  # pragma: no cover
        raise AssertionError("canonical map is not a homomorphism")
    strong = is_strong_homomorphism(canonical, alg, q)
    if not strong:  # pragma: no cover
        raise AssertionError("canonical map is not strong")
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


def _search_budget_error(res, depth: int, cap_note: str):
    from .malcev import DEFAULT_CANDIDATE_BUDGET, DEFAULT_TABLE_BUDGET
    limit, unit = {"table": (DEFAULT_TABLE_BUDGET, "distinct tables"),
                   "candidate": (DEFAULT_CANDIDATE_BUDGET, "candidates"),
                   }[res.exhausted]
    return SearchBudgetExceeded(
        f"{res.exhausted} budget of {limit} {unit} exhausted after "
        f"{res.tables_explored} derived operations, before settling depth "
        f"{depth}{cap_note}; a lower --depth or a positive --max-size "
        f"narrows the search")


def _cmd_malcev(args, inputs):
    alg = _load_alg(args.algebra, inputs)
    from .malcev import malcev_search
    cap = _effective_cap(args)
    res = malcev_search(alg, args.depth, max_term_size=cap)
    cap_note = f" and size <= {cap}" if cap is not None else ""
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
    if res.truncated:
        raise _search_budget_error(res, args.depth, cap_note)
    result = {
        "summary": f"no Mal'cev term within depth {args.depth}",
        "found": False,
        "depth": args.depth,
        "max_size": cap,
        "tables_explored": res.tables_explored,
    }
    checks = [
        f"exhausted all derived ternary operations of depth <= "
        f"{args.depth}{cap_note}: {res.tables_explored} distinct tables, "
        f"none satisfies both identities",
    ]
    return result, checks, False


def _cmd_biternary(args, inputs):
    alg = _load_alg(args.algebra, inputs)
    from .malcev import detect_biternary
    cap = _effective_cap(args)
    res = detect_biternary(alg, args.depth, max_term_size=cap)
    cap_note = f" and size <= {cap}" if cap is not None else ""
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
    if res.truncated:
        raise _search_budget_error(res, args.depth, cap_note)
    result = {
        "summary": f"no biternary pair within depth {args.depth}",
        "found": False,
        "depth": args.depth,
        "max_size": cap,
        "tables_explored": res.tables_explored,
    }
    checks = [
        f"exhausted all derived-operation pairs of depth <= "
        f"{args.depth}{cap_note} over {res.tables_explored} tables",
    ]
    return result, checks, False


def _cmd_translations(args, inputs):
    alg = _load_alg(args.algebra, inputs)
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
    alg = _load_alg(args.algebra, inputs)
    name = _mul_name(alg)
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
    alg = _load_alg(args.algebra, inputs)
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
    alg = _load_alg(args.algebra, inputs)
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
    alg = _load_alg(args.algebra, inputs)
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
    cls = _load_cls(args.cls, inputs)
    bound = args.max_product if args.max_product else cls.size_bound
    fr = free_algebra(cls.algebras, args.rank, size_bound=bound)
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
    cls = _load_cls(args.cls, inputs)
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
    bound = args.max_product if args.max_product else cls.size_bound
    fr = presented_algebra(cls.algebras, args.rank, relations,
                           size_bound=bound)
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
    source = _load_alg(args.algebra, inputs)
    budget = args.max_product if args.max_product else MAP_SEARCH_BUDGET
    rep = replica(cls.algebras, source, budget=budget)
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
    candidate = _load_alg(args.algebra, inputs)
    budget = args.max_product if args.max_product else MAP_SEARCH_BUDGET
    report = membership_in_closure(cls.algebras, candidate, budget=budget)
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--depth", type=int, default=4, metavar="D",
        help="composition depth bound for searches (default 4)")
    common.add_argument(
        "--max-size", type=int, default=8, metavar="S",
        help="term size cap for searches; 0 removes the cap (default 8)")
    common.add_argument(
        "--max-product", type=int, default=None, metavar="N",
        help="bound on constructed widths and search budgets; overrides a "
             "class file's size_bound (default 1000000 for map searches, "
             "check assignments, congruence-lattice joins and congruence "
             "pairs)")
    common.add_argument(
        "--format", choices=("text", "machine"), default="text",
        help="machine prints deterministic JSON with no timing data")
    common.add_argument(
        "--assert", dest="assert_flag", action="store_true",
        help="exit 1 when the checked property does not hold")

    parser = argparse.ArgumentParser(
        prog="malcev-lab",
        description="workbench for finite algebraic systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common],
                       help="parse and canonically print a term or formula")
    p.add_argument("text", help="the text to parse")
    p.add_argument("--sig", required=True, help="signature file (.sig)")
    p.add_argument("--kind", choices=("term", "formula", "quasiidentity"),
                   default="term")
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a term under an assignment")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("term", help="term text over the algebra's signature")
    p.add_argument("--at", required=True, metavar="VALUES",
                   help="comma separated values for x0, x1, ...")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("check", parents=[common],
                       help="check a quasiidentity on an algebra")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("formula", help="identity or quasiidentity text")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("subalg", parents=[common],
                       help="subuniverse generated by a seed set")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("--seed", default="", metavar="VALUES",
                   help="comma separated seed elements (default: constants)")
    p.set_defaults(handler=_cmd_subalg)

    p = sub.add_parser("homs", parents=[common],
                       help="all homomorphisms between two algebras")
    p.add_argument("source", help="source algebra file (.alg)")
    p.add_argument("target", help="target algebra file (.alg)")
    p.add_argument("--strong", action="store_true",
                   help="list only strong homomorphisms")
    p.set_defaults(handler=_cmd_homs)

    p = sub.add_parser("congruences", parents=[common],
                       help="list every congruence of an algebra")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_congruences)

    p = sub.add_parser("permutable", parents=[common],
                       help="check all congruence pairs for permutability")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_permutable)

    p = sub.add_parser("quotient", parents=[common],
                       help="quotient by a congruence partition")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("--by", required=True, metavar="PARTITION",
                   help="blocks like '{{0,2},{1,3}}' or '0 2 | 1 3'")
    p.add_argument("--out", metavar="FILE", help="write the quotient (.alg)")
    p.set_defaults(handler=_cmd_quotient)

    p = sub.add_parser("malcev", parents=[common],
                       help="search for a Mal'cev term within bounds")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_malcev)

    p = sub.add_parser("biternary", parents=[common],
                       help="search for a biternary operation pair")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_biternary)

    p = sub.add_parser("translations", parents=[common],
                       help="reversible translation maps and their closure")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_translations)

    qg = sub.add_parser("quasigroup", help="quasigroup-specific commands")
    qsub = qg.add_subparsers(dest="qcommand", required=True)

    p = qsub.add_parser("verify", parents=[common],
                        help="is the multiplication table a Latin square?")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_qg_verify)

    p = qsub.add_parser("mulgroup", parents=[common],
                        help="multiplication group of a quasigroup")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("--side", choices=("left", "right", "both"),
                   default="left")
    p.set_defaults(handler=_cmd_qg_mulgroup)

    p = qsub.add_parser("malcev", parents=[common],
                        help="division-based Mal'cev polynomial")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.add_argument("--flavor",
                   choices=("quasigroup", "right_eloop", "left_eloop"),
                   default="quasigroup")
    p.set_defaults(handler=_cmd_qg_malcev)

    p = qsub.add_parser("rectify", parents=[common],
                        help="check the division-rectification bijection")
    p.add_argument("algebra", help="algebra file (.alg)")
    p.set_defaults(handler=_cmd_qg_rectify)

    p = sub.add_parser("free", parents=[common],
                       help="free algebra over a class of generators")
    p.add_argument("cls", help="class file (.cls)")
    p.add_argument("--rank", type=int, required=True,
                   help="number of free generators")
    p.add_argument("--out", metavar="FILE", help="write the result (.alg)")
    p.set_defaults(handler=_cmd_free)

    p = sub.add_parser("present", parents=[common],
                       help="algebra presented by generators and relations")
    p.add_argument("cls", help="class file (.cls)")
    p.add_argument("--rank", type=int, required=True,
                   help="number of generators")
    p.add_argument("--relation", action="append", metavar="FORMULA",
                   help="relation over x0..x{rank-1}; repeatable")
    p.add_argument("--out", metavar="FILE", help="write the result (.alg)")
    p.set_defaults(handler=_cmd_present)

    p = sub.add_parser("replica", parents=[common],
                       help="replica of an algebra in a class")
    p.add_argument("cls", help="class file (.cls)")
    p.add_argument("algebra", help="source algebra file (.alg)")
    p.add_argument("--out", metavar="FILE", help="write the result (.alg)")
    p.set_defaults(handler=_cmd_replica)

    p = sub.add_parser("member", parents=[common],
                       help="decide membership in the class of generators")
    p.add_argument("cls", help="class file (.cls)")
    p.add_argument("algebra", help="candidate algebra file (.alg)")
    p.set_defaults(handler=_cmd_member)

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
    parser = _build_parser()
    args = parser.parse_args(argv)
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
