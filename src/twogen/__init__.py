"""Tools for counting two-generator numerical semigroups.

Counts n(g,2) of numerical semigroups <a,b> by genus, both from an
exhaustive census and from the divisor-pair characterization of 2g; for
prime-power genus p^k it reduces each defining gcd condition along the
Euclidean algorithm and assembles exact counting formulas out of
residue-class indicators, verified against the direct counts.
"""

from .arith import (
    Factorization,
    FactorizationTimeout,
    NotInvertible,
    divisors,
    factorize,
    is_prime,
    mod_inverse,
    primitive_root,
    radical,
)
from .counting import (
    NotOddPrime,
    count_prime_power,
    count_special,
    special_factorizations,
    surviving_exponents,
)
from .factor_cache import FactorCache, ParseError
from .indicators import (
    Indicator,
    decompose,
    expand_power,
    reduce_power,
    strip_exponent,
)
from .modulus import ModulusReport, dependence_check, modulus_of, row_modulus
from .reduction import (
    EuclideanTrace,
    ReducedGcd,
    euclidean_trace,
    normalize_target,
    reduce,
    verify_reduction,
)
from .semigroup import (
    BudgetExceeded,
    NotCoprime,
    SemigroupNode,
    TwoGeneratorSemigroup,
    count_two_generator,
    enumerate_by_genus,
    gap_set,
    sylvester_genus,
)
from .synthesis import (
    CountingFormula,
    ProductTerm,
    SynthesisBlocked,
    minimal_modulus,
    render,
    synthesize,
    synthesize_rows,
    verify_formula,
)

__version__ = "0.1.0"
