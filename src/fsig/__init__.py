"""Frobenius-splitting computations over prime fields.

Splitting numbers and signatures of pairs via colon-ideal reductions in a
polynomial ambient ring, splitting-prime candidates with rigorous
compatibility checks, splitting ratios, and the exact Newton-polyhedron
volume route for monomial pairs.

Importing the package loads none of its modules: each exported name, and
each submodule, is imported when first looked up (PEP 562), so a run loads
only the modules its mode needs.
"""

__version__ = "0.1.0"

_EXPORTS = {  # submodule -> the names the package exports from it
    "groebner": (
        "GroebnerBasis", "Ideal", "buchberger", "ideal_membership", "krull_dimension",
        "normal_form", "quotient_length",
    ),
    "ideals": (
        "ExactDivisionError", "bracket_power", "colon", "exact_divide", "ideal_equals",
        "ideal_power", "ideal_product", "ideal_sum", "intersection",
    ),
    "newton": (
        "ClippedPolytope", "NewtonPolyhedron", "clip", "clip_and_volume", "closure_membership",
        "lattice_count", "monomial_signature", "newton_polyhedron",
    ),
    "poly": (
        "DEGREVLEX", "InfeasibleError", "InternalInvariantError", "LEX", "PolyParseError",
        "PolyRing", "Polynomial", "PrimeField", "ResourceLimitError", "RingMismatchError",
        "TermOrder", "frobenius_power", "parse_polynomial", "poly_arith",
    ),
    "signature": (
        "MethodDisagreement", "Row", "SplittingReport", "compatibility_check", "is_f_pure",
        "maximal_bracket", "semigroup_data", "signature_sequence", "splitting_ideal",
        "splitting_number", "splitting_prime_candidate", "splitting_ratio",
    ),
    "systems": (
        "FGradedSystem", "PairSystem", "ProductSystem", "QuotientSystem", "make_system",
        "power_exponent", "verify_graded",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = tuple(_EXPORTS)

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ takes the import statement's own path, so -X importtime still
    # reports each module; loading it binds the submodule in this namespace
    __import__(f"{__name__}.{module}")
    submodule = globals()[module]
    return submodule if module == name else getattr(submodule, name)


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN) | set(_SUBMODULES))
