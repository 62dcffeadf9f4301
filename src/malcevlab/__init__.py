"""Workbench for finite algebraic systems.

Carriers are initial segments of the naturals; operations and predicates
are explicit tables.  The subpackages cover the term language, congruence
machinery, Mal'cev-style term searches, quasigroup constructions, and
free/presented algebras over finite generator classes.
"""

from .terms import (
    Signature, Var, App, Term, Equation, PredicateAtom, Quasiidentity,
    identity, parse_term, parse_formula, parse_quasiidentity, print_term,
    print_formula, print_quasiidentity, eval_term, eval_formula,
    check_quasiidentity, CheckResult, term_size, term_depth, term_key,
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
from .malcev import (
    TermEnumeration, MalcevSearchResult, malcev_search, find_malcev_term,
    PermutabilityReport, check_permutability_theorem,
    BiternaryPair, BiternarySearchResult, detect_biternary,
    find_biternary_pair, malcev_from_biternary,
    TranslationGroup, translation_group, composition_closure,
)
from .quasigroups import (
    QUASIGROUP_SIGNATURE, LatinSquare, latin_square, Equasigroup,
    equasigroup_from_latin, to_algebra, multiplication_group,
    malcev_polynomial, RectificationReport, rectification_check,
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
