"""The package namespace: `import twogen` is lazy, and each public name is
the object defined in its home module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import twogen

# The public names, as the package exported them when it imported every layer.
PUBLIC = {
    "BudgetExceeded", "CountingFormula", "EuclideanTrace", "FactorCache",
    "Factorization", "FactorizationTimeout", "Indicator", "ModulusReport",
    "NotCoprime", "NotOddPrime", "ParseError", "ProductTerm",
    "ReducedGcd", "SynthesisBlocked", "TwoGeneratorSemigroup",
    "count_by_genus", "count_prime_power", "count_special", "count_two_generator",
    "decompose", "dependence_check", "divisors", "enumerate_by_genus",
    "euclidean_trace", "expand_power", "factorize", "gap_set", "is_prime",
    "minimal_modulus", "modulus_of", "normalize_target",
    "primitive_root", "reduce", "reduce_power", "render",
    "row_modulus", "special_factorizations", "strip_exponent",
    "surviving_exponents", "sylvester_genus", "synthesize", "verify_formula",
    "verify_reduction",
}


def test_all_lists_the_public_names():
    assert set(twogen.__all__) == PUBLIC
    assert PUBLIC <= set(dir(twogen))


def test_each_name_is_the_object_of_its_home_module():
    for name in twogen.__all__:
        obj = getattr(twogen, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("twogen."), name
        assert getattr(home, name) is obj, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        twogen.no_such_name  # noqa: B018
    assert not hasattr(twogen, "_no_such_private")


def _twogen_modules_after_import(module):
    """The twogen modules loaded by a fresh interpreter that imports `module`."""
    src = Path(twogen.__file__).resolve().parents[1]
    code = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('twogen')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_import_twogen_loads_no_layer():
    assert _twogen_modules_after_import("twogen") == "['twogen']\n"


def test_every_layer_imports_without_site_packages():
    # The package is pure standard library: with no site-packages, importing
    # every layer loads every twogen module and nothing fails, so a stray
    # import of a test dependency (sympy, hypothesis) in src is caught here.
    layers = ("cli", "synthesis", "rendering", "semigroup", "reduction", "indicators",
              "modulus", "factor_cache", "counting", "arith", "factoring", "primes")
    assert _twogen_modules_after_import(", ".join(f"twogen.{m}" for m in layers)) == (
        "['twogen', 'twogen.arith', 'twogen.cli', 'twogen.counting',"
        " 'twogen.factor_cache', 'twogen.factoring', 'twogen.indicators',"
        " 'twogen.modulus', 'twogen.primes', 'twogen.reduction', 'twogen.rendering',"
        " 'twogen.semigroup', 'twogen.synthesis']\n"
    )


def test_counting_imports_only_arith():
    # The direct count is an oracle for the reduction: it must not load the
    # layers it checks, only the integer layers primes <- factoring <- arith.
    assert _twogen_modules_after_import("twogen.counting") == (
        "['twogen', 'twogen.arith', 'twogen.counting', 'twogen.factoring', 'twogen.primes']\n"
    )


def test_rendering_imports_only_indicators_and_below():
    # Rendering reads the factor tuples of a formula, never the layers that
    # derive it, so synthesis may import it without a cycle.
    assert _twogen_modules_after_import("twogen.rendering") == (
        "['twogen', 'twogen.arith', 'twogen.factoring', 'twogen.indicators',"
        " 'twogen.primes', 'twogen.rendering']\n"
    )


def test_primes_import_no_other_layer():
    assert _twogen_modules_after_import("twogen.primes") == "['twogen', 'twogen.primes']\n"


def test_factoring_imports_only_primes():
    assert _twogen_modules_after_import("twogen.factoring") == (
        "['twogen', 'twogen.factoring', 'twogen.primes']\n"
    )
