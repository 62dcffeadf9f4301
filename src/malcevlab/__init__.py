"""Workbench for finite algebraic systems.

Carriers are initial segments of the naturals; operations and predicates
are explicit tables.  The subpackages cover the term language, congruence
machinery, Mal'cev-style term searches, quasigroup constructions, and
free/presented algebras over finite generator classes.

The names of the derived-operation search (malcev_search,
detect_biternary, translation_group and the rest of the malcev module)
load on first access (PEP 562).  That module is the only user of numpy,
and importing numpy costs more than the rest of a command's start-up, so
importing the package, or running a command that searches nothing, does
not load it.
"""

from .terms import (
    Signature, Var, App, Term, Equation, PredicateAtom, Quasiidentity,
    identity, parse_term, parse_formula, parse_quasiidentity, print_term,
    print_formula, print_quasiidentity, eval_term, eval_formula,
    compile_evaluator, check_quasiidentity, CheckResult, term_size, term_depth, term_key,
    term_vars, formula_vars,
)
from .algebras import (
    FiniteAlgebra, algebra_from_nested, is_unitary, unitary_system,
    direct_product, product_encode, product_decode, flat_index,
    generate_subalgebra, subalgebra_as_algebra,
    is_homomorphism, is_strong_homomorphism, find_homomorphisms,
    find_isomorphism,
)
from .congruences import (
    Congruence, identity_congruence, full_congruence, partition_congruence,
    congruence_generated_by, join, all_congruences, is_stable_partition,
    compose_relation, compose_permute, quotient, kernel,
)
from .quasigroups import (
    QUASIGROUP_SIGNATURE, LatinSquare, latin_square, Equasigroup,
    equasigroup_from_latin, to_algebra, multiplication_group,
    malcev_polynomial, RectificationReport, rectification_check,
    TranslationGroup, composition_closure,
)
from .classes import (
    FreeAlgebra, free_algebra, presented_algebra, extend_assignment,
    UniversalPropertyReport, verify_universal_property,
    Replica, replica, MembershipReport, membership_in_closure,
)
from .fileformat import (
    load_signature, save_signature, load_algebra, save_algebra,
    ClassDefinition, load_class,
)
from . import errors

__version__ = "0.1.0"

_SEARCH_NAMES = (
    "MalcevSearchResult", "malcev_search",
    "find_malcev_term", "PermutabilityReport", "check_permutability_theorem",
    "BiternaryPair", "BiternarySearchResult", "detect_biternary",
    "find_biternary_pair", "malcev_from_biternary", "translation_group",
)

# every public name bound so far (the submodules included, as before the
# search names became lazy), then the search names
__all__ = [name for name in globals() if not name.startswith("_")]
__all__ += _SEARCH_NAMES


def __getattr__(name: str):
    if name in _SEARCH_NAMES:
        from . import malcev
        value = getattr(malcev, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SEARCH_NAMES))
