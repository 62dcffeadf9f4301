"""Workbench for finite algebraic systems.

Carriers are initial segments of the naturals; operations and predicates
are explicit tables.  The subpackages cover the term language, congruence
machinery, Mal'cev-style term searches, quasigroup constructions, and
free/presented algebras over finite generator classes.

Importing the package loads no submodule.  Each public name, and each
submodule's own name, loads its submodule on first access (PEP 562),
which binds every name that submodule exports at once.  So a program
pays only for the modules it touches: the malcev module (the
derived-operation search) is the only user of numpy, and importing numpy
costs more than the rest of a command's start-up.
"""

__version__ = "0.1.0"

# each submodule and the public names it exports
_EXPORTS = {
    "errors": (),
    "terms": (
        "Signature", "Var", "App", "Term", "Equation", "PredicateAtom",
        "Quasiidentity", "identity", "parse_term", "parse_formula",
        "parse_quasiidentity", "print_term", "print_formula",
        "print_quasiidentity", "eval_term", "eval_formula",
        "compile_evaluator", "check_quasiidentity", "CheckResult",
        "term_size", "term_depth", "term_key", "term_vars", "formula_vars",
    ),
    "algebras": (
        "FiniteAlgebra", "algebra_from_nested", "is_unitary",
        "unitary_system", "direct_product", "product_encode",
        "product_decode", "flat_index", "generate_subalgebra",
        "subalgebra_as_algebra", "is_homomorphism", "is_strong_homomorphism",
        "find_homomorphisms", "find_isomorphism",
    ),
    "congruences": (
        "Congruence", "identity_congruence", "full_congruence",
        "partition_congruence", "congruence_generated_by", "join",
        "all_congruences", "is_stable_partition", "compose_relation",
        "compose_permute", "quotient", "kernel",
    ),
    "quasigroups": (
        "QUASIGROUP_SIGNATURE", "LatinSquare", "latin_square", "Equasigroup",
        "equasigroup_from_latin", "to_algebra", "multiplication_group",
        "malcev_polynomial", "RectificationReport", "rectification_check",
        "TranslationGroup", "composition_closure",
    ),
    "classes": (
        "FreeAlgebra", "free_algebra", "presented_algebra",
        "extend_assignment", "UniversalPropertyReport",
        "verify_universal_property", "Replica", "replica",
        "MembershipReport", "membership_in_closure",
    ),
    "fileformat": (
        "load_signature", "save_signature", "load_algebra", "save_algebra",
        "ClassDefinition", "load_class",
    ),
    "malcev": (
        "MalcevSearchResult", "malcev_search", "find_malcev_term",
        "PermutabilityReport", "check_permutability_theorem",
        "BiternaryPair", "BiternarySearchResult", "detect_biternary",
        "find_biternary_pair", "malcev_from_biternary", "translation_group",
    ),
}

# every public name and every submodule name -> the submodule that holds it
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in (module, *names)}

# the search module exports its names, not its own name
__all__ = [name for name in _MODULE_OF if name != "malcev"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    loaded = import_module(f".{module}", __name__)  # binds the submodule
    namespace = globals()
    namespace.update(
        {export: getattr(loaded, export) for export in _EXPORTS[module]})
    return namespace[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
