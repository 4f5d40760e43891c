"""Mechanical derivation of closed-form counts n(p^k,2).

For each exponent i in 0..k the gcd condition gcd(p^i+1, 2p^(k-i)+1) = 1
is rewritten as a residue-class indicator: the boundary rows are immediate
(i = 0 always holds; i = k is an indicator mod 3 at argument p^k), the
rest reduce through the Euclidean trace to gcd(p^delta - a, c) and then to
indicators at argument p^delta.  Power arguments are stripped down to
first-power, prime-modulus factors, and the k+1 row contributions are
collected into a canonical formula: an integer constant plus a multiset of
indicator products.  The formula is then verifiable against the direct
count and reducible to its minimal governing modulus; `rendering` prints it.
"""

from __future__ import annotations

from typing import NamedTuple

from .counting import _survivor_counts
from .factoring import FactorizationTimeout
from .indicators import Indicator, _product, _residue_model, _sort_key, reduce_power
from .primes import class_counts, odd_flagged, odd_prime_flags
from .reduction import normalize_target, reduce
# render is not used here: bench/tracing.py wraps twogen.synthesis.render.
from .rendering import render  # noqa: F401


class SynthesisBlocked(FactorizationTimeout):
    """A number the derivation needed could not be factored in budget: a
    factoring timeout on the row modulus.

    `i` is the exponent row being derived and `modulus` (also `n`) its row
    modulus c, the number whose factorization ran out.
    """

    def __init__(self, k: int, i: int, modulus: int):
        super().__init__(modulus, modulus)
        self.args = (
            f"derivation for k={k} blocked at row i={i} on unfactored number {modulus}",
        )
        self.k = k
        self.i = i
        self.modulus = modulus


class _ProductTermFields(NamedTuple):
    factors: tuple[Indicator, ...]


class ProductTerm(_ProductTermFields):
    """A product of distinct prime-modulus indicators, kept sorted by (q, a).

    Indicators take values in {0,1}, so repeated factors collapse.
    """

    __slots__ = ()

    def __new__(cls, factors: tuple[Indicator, ...]) -> ProductTerm:
        normalized = tuple(sorted(set(factors), key=_sort_key))
        if not normalized:
            raise ValueError("a product term needs at least one factor")
        return tuple.__new__(cls, (normalized,))

    @classmethod
    def _of_sorted(cls, factors: tuple[Indicator, ...]) -> ProductTerm:
        """Build the term of factors already distinct, sorted by (q, a) and
        nonempty, as `reduce_power` returns them, skipping the sort."""
        return tuple.__new__(cls, (factors,))

    def __call__(self, n: int) -> int:
        result = 1
        for x in self.factors:
            result *= x(n)
        return result

    def __str__(self) -> str:
        return _product(self.factors)


def _term_key(term: ProductTerm) -> tuple:
    return (len(term.factors), tuple((x.q, x.a) for x in term.factors))


class _CountingFormulaFields(NamedTuple):
    k: int
    constant: int
    terms: tuple[ProductTerm, ...]


class CountingFormula(_CountingFormulaFields):
    """Canonical closed form for n(p^k,2): constant + multiset of products.

    Each of the k+1 exponent rows contributes exactly one summand, either 1
    (into the constant) or one product term, so
    constant + len(terms) == k + 1.  A derived formula keeps the rows it
    came from in `rows`, outside the tuple: equality, hash and repr ignore them.
    """

    rows: tuple[SynthesisRow, ...] = ()

    def __new__(cls, k: int, constant: int, terms, rows=()) -> CountingFormula:
        self = tuple.__new__(cls, (k, constant, tuple(sorted(terms, key=_term_key))))
        object.__setattr__(self, "rows", rows)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return CountingFormula, (*self, self.rows)

    def evaluate(self, p: int) -> int:
        return self.constant + sum(term(p) for term in self.terms)

    @property
    def natural_modulus(self) -> int:
        """Product of the distinct prime moduli appearing in the terms."""
        result = 1
        for q in sorted({x.q for term in self.terms for x in term.factors}):
            result *= q
        return result


class SynthesisRow(NamedTuple):
    """One derivation row: gcd(p^i+1, 2p^(k-i)+1) = gcd(p^exponent - residue,
    modulus), contributing `factors` (empty product = the row is always 1)."""

    i: int
    exponent: int
    residue: int
    modulus: int
    factors: tuple[Indicator, ...]


class FormulaCheck(NamedTuple):
    """Result of sweeping a formula against the direct gcd count."""

    k: int
    prime_bound: int
    primes_checked: int
    mismatches: tuple[tuple[int, int, int], ...]  # (p, formula value, direct count)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def synthesize(k: int, cache=None) -> CountingFormula:
    """Derive the canonical counting formula for n(p^k,2), keeping the
    per-exponent reduction table behind it in `rows`."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rows = [SynthesisRow(0, 0, 0, 1, ())]  # gcd(2, 2p^k + 1) = 1 for odd p
    for i in range(1, k):
        form = reduce(i, k - i)
        residue, c = normalize_target(form)
        if c == 1:
            rows.append(SynthesisRow(i, form.delta, 0, 1, ()))
            continue
        try:
            factors = reduce_power(residue, c, form.delta, cache)
        except FactorizationTimeout as exc:
            blocked = SynthesisBlocked(k, i, exc.n)
            blocked.cofactor, blocked.iterations = exc.cofactor, exc.iterations
            blocked.stage = exc.stage
            raise blocked from exc
        rows.append(SynthesisRow(i, form.delta, residue, c, factors))
    # i = k: gcd(p^k + 1, 2p^0 + 1) = gcd(p^k + 1, 3), an indicator of -1 mod 3.
    rows.append(SynthesisRow(k, k, 2, 3, reduce_power(2, 3, k, cache)))
    constant = sum(1 for row in rows if not row.factors)
    terms = tuple(ProductTerm._of_sorted(row.factors) for row in rows if row.factors)
    return CountingFormula(k, constant, terms, tuple(rows))


def verify_formula(formula: CountingFormula, prime_bound: int) -> FormulaCheck:
    """Compare the formula with the direct count at every odd prime <= bound.
    A term is 0 exactly at the classes a mod q of its factors X(a,q).  Both
    sides count off the same sieve flags, and the primes are listed only
    when the two lists of counts differ."""
    flags = odd_prime_flags(prime_bound)
    values = class_counts([t.factors for t in formula.terms], formula.constant, flags)
    counts = _survivor_counts(flags, formula.k)
    mismatches: tuple[tuple[int, int, int], ...] = ()
    if values != counts:
        primes = odd_flagged(flags)
        mismatches = tuple(
            (p, got, want) for p, got, want in zip(primes, values, counts) if got != want
        )
    return FormulaCheck(formula.k, prime_bound, flags.count(1), mismatches)


def minimal_modulus(formula: CountingFormula) -> int:
    """Smallest divisor m of the natural modulus such that the formula is
    constant on every residue class mod m intersected with the residues
    coprime to the natural modulus: the product of the primes q with a
    listed unit, a factor X(a,q) with a != 0.

    Write each factor X(a,q) as 1 - e_{q,a}, with e_{q,a} = [p = a mod q].
    On p coprime to the natural modulus e_{q,0} = 0 and e_{q,a}*e_{q,b} = 0
    for a != b, so each term expands into monomials with at most one e per
    prime.  While the listed units of no prime cover every unit mod q, these
    monomials are linearly independent functions of p, and the coefficient
    of e_{q,a} is minus the number of terms that list X(a,q), never 0: the
    value depends on the class of p mod q exactly when q lists a unit.

    A derived formula always qualifies.  Its row i lists X(a,q) only where
    q divides both p^i + 1 and 2p^(k-i) + 1, so q is odd, and p = 0 or 1
    (mod q) gives 2p^(k-i) + 1 = 1 or p^i + 1 = 2: X(1,q) is never listed.
    A formula whose listed units cover every unit of some q raises
    ValueError, since X(1,5) + X(2,5) + X(3,5) + X(4,5), for one, is
    constant on the units mod 5.
    """
    result = 1
    for q, (_, units, open_) in _residue_model(t.factors for t in formula.terms).items():
        if not open_:
            raise ValueError(f"the listed units of {q} cover every unit mod {q}")
        if units:
            result *= q
    return result
