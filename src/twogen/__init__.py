"""Tools for counting two-generator numerical semigroups.

Counts n(g,2) of numerical semigroups <a,b> by genus, both from an
exhaustive census and from the divisor-pair characterization of 2g; for
prime-power genus p^k it reduces each defining gcd condition along the
Euclidean algorithm and assembles exact counting formulas out of
residue-class indicators, verified against the direct counts.

Importing the package loads none of its modules: each public name below is
looked up in its home module, which is imported then, the first time it is
used (PEP 562), so a `twogen` process pays only for the layers it runs.
"""

import importlib

_EXPORTS = {
    "arith": ("primitive_root",),
    "counting": (
        "NotOddPrime",
        "count_prime_power",
        "count_special",
        "row_modulus",
        "special_factorizations",
        "surviving_exponents",
    ),
    "factor_cache": ("FactorCache", "ParseError"),
    "factoring": ("Factorization", "FactorizationTimeout", "divisors", "factorize"),
    "indicators": (
        "Indicator",
        "decompose",
        "expand_power",
        "reduce_power",
        "strip_exponent",
    ),
    "modulus": ("ModulusReport", "dependence_check", "modulus_of"),
    "primes": ("is_prime",),
    "reduction": (
        "EuclideanTrace",
        "ReducedGcd",
        "euclidean_trace",
        "normalize_target",
        "reduce",
        "verify_reduction",
    ),
    "rendering": ("render",),
    "semigroup": (
        "BudgetExceeded",
        "NotCoprime",
        "TwoGeneratorSemigroup",
        "count_by_genus",
        "count_two_generator",
        "enumerate_by_genus",
        "gap_set",
        "sylvester_genus",
    ),
    "synthesis": (
        "CountingFormula",
        "ProductTerm",
        "SynthesisBlocked",
        "minimal_modulus",
        "synthesize",
        "verify_formula",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
