"""Mechanical derivation of closed-form counts n(p^k,2).

For each exponent i in 0..k the gcd condition gcd(p^i+1, 2p^(k-i)+1) = 1
is rewritten as a residue-class indicator: the boundary rows are immediate
(i = 0 always holds; i = k is an indicator mod 3 at argument p^k), the
rest reduce through the Euclidean trace to gcd(p^delta - a, c) and then to
indicators at argument p^delta.  Power arguments are stripped down to
first-power, prime-modulus factors, and the k+1 row contributions are
collected into a canonical formula: an integer constant plus a multiset of
indicator products.  The formula is then verifiable against the direct
count, reducible to its minimal governing modulus, and renderable in flat,
factored, or case-table form.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .counting import _survivor_counts
from .factoring import FactorizationTimeout
from .indicators import Indicator, _sort_key, reduce_power
from .primes import class_counts, odd_prime_flags
from .reduction import normalize_target, reduce


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


# The most cells `render(..., "case-table")` prints: k = 37, the largest
# table at k <= 40, has 1,114,156; k = 41 has 8,912,944.
CASE_TABLE_CELLS = 2_000_000


class CaseTableTooLarge(ValueError):
    """The case table has more than CASE_TABLE_CELLS cells."""


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

    def __call__(self, n: int) -> int:
        result = 1
        for x in self.factors:
            result *= x(n)
        return result

    def __str__(self) -> str:
        return "*".join(str(x) for x in self.factors)


def _term_key(term: ProductTerm) -> tuple:
    return (len(term.factors), tuple((x.q, x.a) for x in term.factors))


class CountingFormula:
    """Canonical closed form for n(p^k,2): constant + multiset of products.

    Each of the k+1 exponent rows contributes exactly one summand, either 1
    (into the constant) or one product term, so
    constant + len(terms) == k + 1.  A derived formula keeps the rows it
    came from in `rows`, which equality, hash and repr ignore.
    """

    __slots__ = ("k", "constant", "terms", "rows")

    def __init__(
        self,
        k: int,
        constant: int,
        terms: tuple[ProductTerm, ...],
        rows: tuple[SynthesisRow, ...] = (),
    ):
        set_field = object.__setattr__
        set_field(self, "k", k)
        set_field(self, "constant", constant)
        set_field(self, "terms", tuple(sorted(terms, key=_term_key)))
        set_field(self, "rows", rows)

    def _key(self) -> tuple:
        return (self.k, self.constant, self.terms)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CountingFormula(k={self.k!r}, constant={self.constant!r},"
            f" terms={self.terms!r})"
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return CountingFormula, (*self._key(), self.rows)

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
    terms = tuple(ProductTerm(row.factors) for row in rows if row.factors)
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
        primes = itertools.compress(range(prime_bound + 1), flags)
        mismatches = tuple(
            (p, got, want) for p, got, want in zip(primes, values, counts) if got != want
        )
    return FormulaCheck(formula.k, prime_bound, flags.count(1), mismatches)


def _residue_model(terms) -> dict[int, tuple[list[int], list[int], bool]]:
    """Per prime of the terms, in increasing order: every residue its factors
    list, the listed units (nonzero residues), and whether the complement
    cell -- the units mod q that avoid every listed residue -- is nonempty."""
    listed: dict[int, set[int]] = {}
    for term in terms:
        for x in term.factors:
            listed.setdefault(x.q, set()).add(x.a)
    model = {}
    for q in sorted(listed):
        residues = sorted(listed[q])
        units = [a for a in residues if a != 0]
        model[q] = (residues, units, q - 1 > len(units))
    return model


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
    for q, (_, units, open_) in _residue_model(formula.terms).items():
        if not open_:
            raise ValueError(f"the listed units of {q} cover every unit mod {q}")
        if units:
            result *= q
    return result


# --- rendering ---------------------------------------------------------


def _collapsed(terms: tuple[ProductTerm, ...]) -> list[tuple[ProductTerm, int]]:
    """Multiset as (term, multiplicity) pairs, canonical order preserved."""
    return [(term, len(list(group))) for term, group in itertools.groupby(terms)]


def _fmt_summand(term: ProductTerm, count: int) -> str:
    return str(term) if count == 1 else f"{count}*{term}"


def _grouped(formula: CountingFormula):
    """Factor shared single indicators out of the term list.

    Returns (remaining [(term, count)], groups [(factor, inner_const,
    inner_terms [(cofactor, count)])]).  A factor is pulled when it appears
    in at least two summands, one of which has another factor to leave
    behind; this reproduces groupings like X*(3 + Y + Z).
    """
    remaining = _collapsed(formula.terms)
    groups = []
    all_factors = sorted(
        {x for term, _ in remaining for x in term.factors}, key=_sort_key
    )
    for x in all_factors:
        members = [(t, c) for t, c in remaining if x in t.factors]
        if sum(c for _, c in members) < 2:
            continue
        if not any(len(t.factors) > 1 for t, _ in members):
            continue
        inner_const = sum(c for t, c in members if len(t.factors) == 1)
        inner: dict[ProductTerm, int] = {}
        for t, c in members:
            if len(t.factors) > 1:
                cofactor = ProductTerm(tuple(f for f in t.factors if f != x))
                inner[cofactor] = inner.get(cofactor, 0) + c
        inner_terms = sorted(inner.items(), key=lambda item: _term_key(item[0]))
        groups.append((x, inner_const, inner_terms))
        remaining = [(t, c) for t, c in remaining if x not in t.factors]
    return remaining, groups


def _case_table_cells(remaining, groups) -> int:
    """The cells of the base table and of every adj table that the case
    table of `_grouped`'s (remaining, groups) prints, without enumerating
    them: per table, the product over its primes of their options in
    `_signature_table`."""
    tables = [remaining] if remaining else []
    tables += [inner_terms for _, _, inner_terms in groups if inner_terms]
    cells = 0
    for table in tables:
        model = _residue_model(term for term, _ in table)
        cells += math.prod(len(units) + open_ for _, units, open_ in model.values())
    return cells


def _signature_table(constant: int, term_counts) -> tuple[list[int], list[tuple[tuple[str, ...], int]]]:
    """Value of constant + sum(term_counts) per residue-signature cell.

    Cells range over, for each involved prime, either one of its listed
    units or the complement of all its listed residues; '!' marks the
    complement.
    """
    model = _residue_model(term for term, _ in term_counts)
    options: dict[int, list[tuple[str, int | None]]] = {}
    for q, (residues, units, open_) in model.items():
        options[q] = [(str(a), a) for a in units]
        if open_:
            options[q].append(("!" + "/".join(str(a) for a in residues), None))
    primes = list(model)
    rows = []
    for combo in itertools.product(*(options[q] for q in primes)):
        assign = {q: value for q, (_, value) in zip(primes, combo)}
        total = constant
        for term, count in term_counts:
            product = 1
            for x in term.factors:
                if assign[x.q] == x.a:
                    product = 0
                    break
            total += count * product
        rows.append((tuple(label for label, _ in combo), total))
    return primes, rows


def render(formula: CountingFormula, style: str = "factored") -> str:
    """Render the formula as text: 'flat', 'factored', or 'case-table'."""
    k = formula.k
    lhs = f"n(p^{k},2)"
    if style == "flat":
        parts = [str(formula.constant)]
        parts += [_fmt_summand(t, c) for t, c in _collapsed(formula.terms)]
        return f"{lhs} = {' + '.join(parts)}"
    if style == "factored":
        remaining, groups = _grouped(formula)
        parts = [str(formula.constant)]
        parts += [_fmt_summand(t, c) for t, c in remaining]
        for x, inner_const, inner_terms in groups:
            inner = ([str(inner_const)] if inner_const else []) + [
                _fmt_summand(t, c) for t, c in inner_terms
            ]
            parts.append(f"{x}*({' + '.join(inner)})")
        return f"{lhs} = {' + '.join(parts)}"
    if style == "case-table":
        return _render_case_table(formula)
    raise ValueError(f"unknown style {style!r}")


def _render_case_table(formula: CountingFormula) -> str:
    remaining, groups = _grouped(formula)
    lhs = f"n(p^{formula.k},2)"
    if not formula.terms:
        return f"{lhs} = {formula.constant}"
    size = _case_table_cells(remaining, groups)
    if size > CASE_TABLE_CELLS:
        raise CaseTableTooLarge(
            f"the case table for k={formula.k} has {size} cells, more than"
            f" {CASE_TABLE_CELLS}; use --style factored"
        )
    names = [f"adj{j}" for j in range(1, len(groups) + 1)]
    header = f"{lhs} = base(p)"
    if names:
        header += "".join(f" + {name}(p)" for name in names)
    lines = [header, ""]
    if remaining:
        primes, cells = _signature_table(formula.constant, remaining)
        mods = ", ".join(str(q) for q in primes)
        lines.append(f"base(p), by the class of p mod ({mods}):")
        for labels, value in cells:
            lines.append(f"  ({', '.join(labels)}) -> {value}")
    else:
        lines.append(f"base(p) = {formula.constant}")
    for name, (x, inner_const, inner_terms) in zip(names, groups):
        lines.append("")
        condition = f"p = {x.a} (mod {x.q})"
        if inner_terms:
            primes, cells = _signature_table(inner_const, inner_terms)
            mods = ", ".join(str(q) for q in primes)
            lines.append(
                f"{name}(p) = 0 when {condition}; otherwise, by the class of p mod ({mods}):"
            )
            for labels, value in cells:
                lines.append(f"  ({', '.join(labels)}) -> {value}")
        else:
            lines.append(f"{name}(p) = 0 when {condition}, else {inner_const}")
    return "\n".join(lines)
