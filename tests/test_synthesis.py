import itertools
import math
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twogen import arith
from twogen import indicators as indicators_mod
from twogen.factoring import FactorizationTimeout
from twogen.primes import class_counts, odd_primes_up_to
from twogen.counting import _surviving_exponents, count_prime_power
from twogen.factor_cache import FactorCache
from twogen.indicators import Indicator
from twogen.modulus import modulus_of
from twogen.synthesis import (
    CASE_TABLE_CELLS,
    CaseTableTooLarge,
    CountingFormula,
    FormulaCheck,
    ProductTerm,
    SynthesisBlocked,
    _case_table_cells,
    _grouped,
    _residue_model,
    minimal_modulus,
    render,
    synthesize,
    verify_formula,
)

from golden_formulas import GOLDEN
from sweep_flags import flags_of


def test_product_term_canonical():
    t1 = ProductTerm((Indicator(2, 11), Indicator(2, 3), Indicator(2, 3)))
    t2 = ProductTerm((Indicator(2, 3), Indicator(2, 11)))
    assert t1 == t2
    assert [str(x) for x in t1.factors] == ["X(2,3)", "X(2,11)"]
    with pytest.raises(ValueError):
        ProductTerm(())


def test_formula_canonical_order():
    shuffled = CountingFormula(9, 1, tuple(reversed(GOLDEN[9].terms)))
    assert shuffled == GOLDEN[9]


def test_golden_formulas():
    for k in range(1, 11):
        assert synthesize(k) == GOLDEN[k], k


def test_row_structure():
    rows = synthesize(9).rows
    assert len(rows) == 10
    assert rows[0].modulus == 1 and rows[0].factors == ()
    by_i = {row.i: row for row in rows}
    assert (by_i[5].residue, by_i[5].modulus) == (2, 33)
    assert (by_i[7].residue, by_i[7].modulus) == (8, 129)
    assert (by_i[9].exponent, by_i[9].modulus) == (9, 3)


def test_summand_count_invariant():
    for k in range(1, 17):
        formula = synthesize(k)
        assert formula.constant + len(formula.terms) == k + 1
        assert formula.constant >= 1


def test_formula_primes_divide_governing_modulus():
    for k in range(1, 13):
        formula = synthesize(k)
        m = modulus_of(k).modulus
        for term in formula.terms:
            for x in term.factors:
                assert m % x.q == 0


def test_evaluate_examples():
    assert GOLDEN[9].evaluate(5) == 5
    assert GOLDEN[1].evaluate(5) == 1
    assert GOLDEN[8].evaluate(3) == 9
    assert count_prime_power(3, 8) == 9


def test_verify_formula():
    for k in range(1, 9):
        check = verify_formula(synthesize(k), 500)
        assert check.ok and check.primes_checked == 94


def test_verify_large_formulas():
    # The largest derived formulas against the direct count.  Their rough
    # parts -- composites of primes above 2*10^4, and primes above the bound
    # of the proven Miller-Rabin bases -- `_survivor_counts` screens with
    # one gcd per batch of primes.
    for k in (90, 120, 128):
        assert verify_formula(synthesize(k), 20_000).ok, k


def test_verify_formula_needs_an_odd_prime():
    with pytest.raises(ValueError, match=r"^prime_bound must be >= 3, got 2$"):
        verify_formula(GOLDEN[3], 2)
    assert verify_formula(GOLDEN[3], 3).primes_checked == 1


@pytest.mark.parametrize(
    "prime_bound", [3, 4, 65_535, 65_536, 65_537, 131_071, 131_072, 131_073]
)
def test_verify_formula_at_the_edges_of_the_sweep(prime_bound):
    # One prime (3), and the bounds around the first two window edges of
    # the class sweep, 2^16 and 2^17; 65,537 and 131,071 are prime.  The
    # broken formula is off at every prime, so its mismatches list them all.
    broken = CountingFormula(10, GOLDEN[10].constant + 1, GOLDEN[10].terms)
    for formula in (GOLDEN[10], broken):
        check = verify_formula(formula, prime_bound)
        assert check == _reference_check(formula, prime_bound), prime_bound
    assert len(check.mismatches) == check.primes_checked


def test_verify_formula_catches_corruption():
    broken = CountingFormula(9, GOLDEN[9].constant + 1, GOLDEN[9].terms)
    check = verify_formula(broken, 100)
    assert not check.ok
    assert len(check.mismatches) == check.primes_checked


def _reference_check(formula: CountingFormula, prime_bound: int) -> FormulaCheck:
    """verify_formula as a loop over the per-prime direct count."""
    primes = odd_primes_up_to(prime_bound)
    mismatches = []
    for p in primes:
        got, want = formula.evaluate(p), len(_surviving_exponents(p, formula.k))
        if got != want:
            mismatches.append((p, got, want))
    return FormulaCheck(formula.k, prime_bound, len(primes), tuple(mismatches))


def test_verify_formula_reports_what_the_per_prime_count_reports():
    # Move the residue of the smallest q > 3 in one term of the k=30 formula.
    formula = synthesize(30)
    x, term = min(
        ((x, t) for t in formula.terms for x in t.factors if x.q > 3),
        key=lambda pair: pair[0].q,
    )
    moved = ProductTerm(
        tuple(y for y in term.factors if y != x) + (Indicator(x.a + 1, x.q),)
    )
    terms = list(formula.terms)
    terms.remove(term)
    mutant = CountingFormula(30, formula.constant, (*terms, moved))
    check = verify_formula(mutant, 20_000)
    assert check.mismatches
    assert check == _reference_check(mutant, 20_000)


def test_synthesize_validates_k():
    with pytest.raises(ValueError):
        synthesize(0)


def test_synthesis_blocked(monkeypatch):
    real = indicators_mod.factorize

    def flaky(n, cache=None, **kwargs):
        if n == 129:
            raise FactorizationTimeout(n, n)
        return real(n, cache, **kwargs)

    monkeypatch.setattr(indicators_mod, "factorize", flaky)
    with pytest.raises(SynthesisBlocked) as info:
        synthesize(9)
    assert info.value.modulus == 129
    assert info.value.k == 9


def test_synthesis_blocked_is_the_row_timeout(monkeypatch):
    real = indicators_mod.factorize
    cause = FactorizationTimeout(129, 43, 1234, "p-1")

    def flaky(n, cache=None, **kwargs):
        if n == 129:
            raise cause
        return real(n, cache, **kwargs)

    monkeypatch.setattr(indicators_mod, "factorize", flaky)
    with pytest.raises(FactorizationTimeout) as info:
        synthesize(9)
    blocked = info.value
    assert isinstance(blocked, SynthesisBlocked) and blocked.__cause__ is cause
    assert (blocked.k, blocked.i, blocked.modulus) == (9, 7, 129)
    assert (blocked.n, blocked.cofactor, blocked.iterations, blocked.stage) == (
        129, 43, 1234, "p-1"
    )
    assert str(blocked) == "derivation for k=9 blocked at row i=7 on unfactored number 129"


def test_synthesis_never_factors_q_minus_1(monkeypatch):
    # Row i=8 of k=10 is gcd(p^2 - 8, 17), split over the square roots of 8
    # mod 17.  Root extraction factors only the exponent, never q - 1 = 16,
    # so a derivation can block only on a row modulus.
    real = arith.factorize

    def flaky(n, cache=None, **kwargs):
        if n == 16:
            raise FactorizationTimeout(n, n)
        return real(n, cache, **kwargs)

    monkeypatch.setattr(arith, "factorize", flaky)
    monkeypatch.setattr(indicators_mod, "factorize", flaky)
    assert synthesize(10) == GOLDEN[10]


def test_natural_modulus():
    assert GOLDEN[9].natural_modulus == 3 * 5 * 11 * 17 * 43 * 257
    assert GOLDEN[2].natural_modulus == 1
    assert GOLDEN[4].natural_modulus == 7


MINIMAL = {1: 3, 2: 1, 3: 15, 4: 7, 5: 255, 6: 31, 7: 36465, 8: 27559}


def test_minimal_modulus_known_values():
    for k, expected in MINIMAL.items():
        assert minimal_modulus(synthesize(k)) == expected, k
    assert minimal_modulus(synthesize(9)) == 30998055


def test_minimal_modulus_k10():
    # the k = 10 value is determined mod M(10)/15 and by no smaller modulus
    assert minimal_modulus(synthesize(10)) == 7 * 17 * 73 * 127
    assert modulus_of(10).modulus == 15 * 7 * 17 * 73 * 127


def _minimal_modulus_brute(formula):
    """Directly scan residues coprime to the natural modulus, per divisor."""
    from twogen.factoring import divisors, factorize

    n = formula.natural_modulus
    if n == 1:
        return 1
    coprime = [r for r in range(1, n + 1) if math.gcd(r, n) == 1]
    values = {r: formula.evaluate(r) for r in coprime}
    for m in divisors(factorize(n)):
        classes = {}
        ok = True
        for r in coprime:
            expected = classes.setdefault(r % m, values[r])
            if values[r] != expected:
                ok = False
                break
        if ok:
            return m
    raise AssertionError("the natural modulus itself always works")


def _minimal_modulus_pattern_scan(formula):
    """The former minimal_modulus: per prime q, scan every combination of the
    other primes' evaluation patterns (one per listed unit, plus None for
    "avoids every listed residue" when such a unit exists) and test whether
    changing the pattern of q changes the value.  Exponential in the number
    of primes; kept as an oracle at sizes where it is cheap."""
    qs = sorted({x.q for term in formula.terms for x in term.factors})
    patterns = {}
    for q in qs:
        listed = sorted({x.a for term in formula.terms for x in term.factors if x.q == q})
        opts = [a for a in listed if a % q != 0]
        if q - 1 > len(opts):
            opts.append(None)
        patterns[q] = opts

    def value(assign):
        total = formula.constant
        for term in formula.terms:
            if all(assign[x.q] != x.a for x in term.factors):
                total += 1
        return total

    result = 1
    for q in qs:
        others = [r for r in qs if r != q]
        for combo in itertools.product(*(patterns[r] for r in others)):
            assign = dict(zip(others, combo))
            values = {value({**assign, q: pattern}) for pattern in patterns[q]}
            if len(values) > 1:
                result *= q
                break
    return result


def _minimal_modulus_normal_form(formula):
    """The former minimal_modulus: expand the formula into its multilinear
    normal form and take the product of the primes that keep a monomial
    with a nonzero coefficient.

    Write each factor X(a,q) as 1 - e_{q,a}, with e_{q,a} = [p = a mod q].
    On p coprime to the natural modulus e_{q,0} = 0, e_{q,a}*e_{q,b} = 0 for
    a != b, and when the listed units cover every unit mod q one of their
    indicators equals 1 minus the sum of the others.  Eliminating those
    leaves monomials in indicators that are linearly independent functions
    of p, so the expansion over them is unique.  Unlike minimal_modulus it
    also answers on formulas whose listed units cover every unit of a prime.
    """
    # For each prime whose listed units cover every unit: the last of them,
    # and the units whose indicators sum to 1 minus its indicator.
    eliminated = {
        q: (units[-1], units[:-1])
        for q, (_, units, open_) in _residue_model(formula.terms).items()
        if not open_
    }
    # A monomial is a tuple of (q, a) pairs, at most one per prime.
    coefficients: Counter[tuple] = Counter()
    for term in formula.terms:
        monomials = {(): 1}
        for q, group in itertools.groupby(term.factors, key=lambda x: x.q):
            # the product of the group's (1 - e_{q,a}) is 1 - sum of the e_{q,a}
            last, others = eliminated.get(q, (None, ()))
            linear = Counter({(): 1})
            for x in group:
                if x.a == last:
                    linear[()] -= 1
                    for b in others:
                        linear[((q, b),)] += 1
                elif x.a != 0:
                    linear[((q, x.a),)] -= 1
            monomials = {
                m + e: c * d for m, c in monomials.items() for e, d in linear.items()
            }
        coefficients.update(monomials)
    return math.prod({q for m, c in coefficients.items() if c for q, _ in m})


def test_minimal_modulus_matches_brute_force():
    for k in range(1, 6):
        formula = synthesize(k)
        assert minimal_modulus(formula) == _minimal_modulus_brute(formula)


# The pattern scan takes a second or more at k = 17, 19, 23, 25-29 and 31 on.
PATTERN_SCAN_KS = (*range(1, 17), 18, 20, 21, 22, 24, 30)


def test_minimal_modulus_matches_pattern_scan():
    cache = FactorCache()
    for k in PATTERN_SCAN_KS:
        formula = synthesize(k, cache)
        assert minimal_modulus(formula) == _minimal_modulus_pattern_scan(formula), k


def test_minimal_modulus_beyond_the_pattern_scan():
    # The scan needs 2^24 pattern combinations at k = 40 alone; the closed
    # form and the normal-form oracle cover the whole derivable range.
    cache = FactorCache()
    for k in range(1, 129):
        formula = synthesize(k, cache)
        assert (
            minimal_modulus(formula)
            == _minimal_modulus_normal_form(formula)
            == formula.natural_modulus
        ), k


@st.composite
def small_formulas(draw, cover=True):
    """Formulas over the primes 2, 3, 5 and 7, whose factors may sit on the
    class 0 and, with `cover`, list every unit of a prime; without it one
    drawn unit of each prime is never listed."""
    unlisted = {} if cover else {q: draw(st.integers(1, q - 1)) for q in (2, 3, 5, 7)}
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        factors = []
        for q in draw(st.sets(st.sampled_from((2, 3, 5, 7)), min_size=1)):
            classes = [a for a in range(q) if a != unlisted.get(q)]
            residues = draw(st.sets(st.sampled_from(classes), min_size=1))
            factors += [Indicator(a, q) for a in residues]
        terms.append(ProductTerm(tuple(factors)))
    constant = draw(st.integers(1, 3))
    return CountingFormula(constant + len(terms) - 1, constant, tuple(terms))


def _formula(constant, *terms):
    products = tuple(ProductTerm(tuple(Indicator(a, q) for a, q in t)) for t in terms)
    return CountingFormula(constant + len(products) - 1, constant, products)


@settings(max_examples=200, deadline=None)
# Most covering draws list every unit of some prime, so the closed form is
# checked on the draws that leave one unit of each unlisted.
@given(st.one_of(small_formulas(), small_formulas(cover=False)))
# every unit of 5 listed, one of them beside a class-0 factor
@example(_formula(1, [(1, 5)], [(2, 5), (0, 3)], [(3, 5), (4, 5)], [(2, 3), (4, 5)]))
# X(1,5)+X(2,5)+X(3,5)+X(4,5) = 3 off the class 0: no dependence on 5
@example(_formula(1, [(1, 5)], [(2, 5)], [(3, 5)], [(4, 5)], [(1, 7), (0, 5)]))
# X(1,2) vanishes on odd p, and X(0,7) is 1 on p coprime to 7
@example(_formula(2, [(1, 2), (3, 7)], [(0, 7), (2, 3)]))
# no prime covered, and X(0,5) is 1 off the class 0: 21 where the natural
# modulus is 105
@example(_formula(1, [(2, 3)], [(0, 5), (3, 7)]))
def test_minimal_modulus_matches_residue_scan(formula):
    brute = _minimal_modulus_brute(formula)
    assert _minimal_modulus_normal_form(formula) == brute
    listed = {}
    for term in formula.terms:
        for x in term.factors:
            listed.setdefault(x.q, set()).add(x.a)
    if any(set(range(1, q)) <= residues for q, residues in listed.items()):
        with pytest.raises(ValueError, match="cover every unit"):
            minimal_modulus(formula)
    else:
        assert minimal_modulus(formula) == brute


def _class_values(formula: CountingFormula, numbers) -> list[int]:
    """`formula.evaluate` at each of the sorted distinct `numbers`, as
    `verify_formula` takes it: one kill class per factor X(a,q) of a term."""
    flags = flags_of(numbers)
    return class_counts([t.factors for t in formula.terms], formula.constant, flags)


def test_class_counts_match_evaluate_on_derived_formulas():
    primes = odd_primes_up_to(10_000)
    for k in range(1, 41):
        formula = synthesize(k)
        assert _class_values(formula, primes) == [formula.evaluate(p) for p in primes]


def test_class_counts_read_the_classes_above_the_sweep():
    # Every q above the largest swept prime hits at most one swept integer,
    # its class a itself.  The mutant moves the residue of one such q onto a
    # swept prime where its term was 1.
    primes = odd_primes_up_to(200_000)
    largest = primes[-1]
    for k in (30, 60):
        formula = synthesize(k)
        term = next(
            t for t in formula.terms if any(q > largest for _, q in t.factors)
        )
        a, q = next(x for x in term.factors if x.q > largest)
        p0 = next(p for p in primes if term(p))
        moved = ProductTerm(
            tuple(Indicator(p0, q) if x == (a, q) else x for x in term.factors)
        )
        terms = list(formula.terms)
        terms[terms.index(term)] = moved
        mutant = CountingFormula(k, formula.constant, tuple(terms))
        assert mutant.evaluate(p0) == formula.evaluate(p0) - 1
        for f in (formula, mutant):
            assert _class_values(f, primes) == [f.evaluate(p) for p in primes]
        assert (p0, mutant.evaluate(p0), formula.evaluate(p0)) in (
            verify_formula(mutant, largest).mismatches
        )


@st.composite
def formulas_with_repeats(draw):
    """`small_formulas` with some of its terms listed again."""
    formula = draw(small_formulas())
    if not formula.terms:
        return formula
    repeats = tuple(draw(st.lists(st.sampled_from(formula.terms), max_size=4)))
    terms = formula.terms + repeats
    return CountingFormula(formula.k + len(repeats), formula.constant, terms)


@settings(max_examples=200, deadline=None)
@given(formulas_with_repeats())
# a repeated term, and X(0,7), which only n = 0 mod 7 kills
@example(_formula(1, [(0, 7), (2, 3)], [(0, 7), (2, 3)], [(1, 2)], [(0, 7)]))
def test_class_counts_match_evaluate_on_random_formulas(formula):
    # 1..420 meets every class mod 2*3*5*7 twice
    numbers = range(1, 421)
    assert _class_values(formula, numbers) == [formula.evaluate(n) for n in numbers]


def test_render_flat():
    assert render(GOLDEN[2], "flat") == "n(p^2,2) = 3"
    assert (
        render(GOLDEN[4], "flat") == "n(p^4,2) = 4 + X(3,7)"
    )
    flat9 = render(GOLDEN[9], "flat")
    assert "3*X(2,3)" in flat9 and "2*X(3,5)" in flat9
    assert "X(2,3)*X(2,11)" in flat9 and "X(2,3)*X(8,43)" in flat9


def test_render_factored():
    text = render(GOLDEN[9], "factored")
    assert text == (
        "n(p^9,2) = 1 + 2*X(3,5) + X(9,17) + X(128,257)"
        " + X(2,3)*(3 + X(2,11) + X(8,43))"
    )
    text10 = render(GOLDEN[10], "factored")
    assert "X(3,7)*(1 + X(36,73))" in text10
    assert "X(5,17)*X(12,17)" in text10
    text7 = render(GOLDEN[7], "factored")
    assert "X(2,3)*(3 + X(7,11))" in text7
    assert "X(2,5)*(1 + X(6,13))" in text7


def test_render_case_table():
    text = render(GOLDEN[9], "case-table")
    base_values = []
    adj_values = []
    section = None
    for line in text.splitlines():
        if line.startswith("base(p)"):
            section = "base"
        elif line.startswith("adj"):
            section = "adj"
        elif line.strip().startswith("("):
            value = int(line.split("->")[1])
            (base_values if section == "base" else adj_values).append(value)
    assert sorted(set(base_values)) == [1, 2, 3, 4, 5]
    assert sorted(set(adj_values)) == [3, 4, 5]
    assert "p = 2 (mod 3)" in text
    assert render(GOLDEN[2], "case-table") == "n(p^2,2) = 3"


def test_case_table_cell_count_matches_the_printed_cells():
    for k in range(1, 37):
        formula = synthesize(k)
        text = render(formula, "case-table")
        printed = sum(1 for line in text.splitlines() if line.startswith("  ("))
        assert _case_table_cells(*_grouped(formula)) == printed, k


def test_case_table_refuses_a_table_it_cannot_print():
    formula = synthesize(41)
    start = time.perf_counter()
    with pytest.raises(CaseTableTooLarge) as info:
        render(formula, "case-table")
    assert time.perf_counter() - start < 1
    assert isinstance(info.value, ValueError)
    assert str(info.value) == (
        f"the case table for k=41 has 8912944 cells, more than {CASE_TABLE_CELLS};"
        " use --style factored"
    )


def test_render_rejects_unknown_style():
    with pytest.raises(ValueError):
        render(GOLDEN[2], "latex")


def test_render_deterministic():
    for style in ("flat", "factored", "case-table"):
        assert render(synthesize(9), style) == render(synthesize(9), style)


def test_extension_to_larger_exponents():
    for k in (11, 12):
        formula = synthesize(k)
        assert formula.constant + len(formula.terms) == k + 1
        assert verify_formula(formula, 300).ok
