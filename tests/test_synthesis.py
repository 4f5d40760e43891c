import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twogen import arith
from twogen import indicators as indicators_mod
from twogen.arith import FactorizationTimeout
from twogen.counting import count_prime_power
from twogen.factor_cache import FactorCache
from twogen.indicators import Indicator
from twogen.modulus import modulus_of
from twogen.synthesis import (
    CountingFormula,
    ProductTerm,
    SynthesisBlocked,
    minimal_modulus,
    render,
    synthesize,
    synthesize_rows,
    verify_formula,
)

from golden_formulas import GOLDEN


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
    rows = synthesize_rows(9)
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


def test_verify_formula_catches_corruption():
    broken = CountingFormula(9, GOLDEN[9].constant + 1, GOLDEN[9].terms)
    check = verify_formula(broken, 100)
    assert not check.ok
    assert len(check.mismatches) == check.primes_checked


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
    from twogen.arith import divisors, factorize

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
    # The scan needs 2^24 pattern combinations here; the normal form finds
    # that the value depends on every prime of the natural modulus.
    formula = synthesize(40)
    assert minimal_modulus(formula) == formula.natural_modulus


@st.composite
def small_formulas(draw):
    """Formulas over the primes 2, 3, 5 and 7, whose factors may sit on the
    class 0 or list every unit of a prime."""
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        factors = []
        for q in draw(st.sets(st.sampled_from((2, 3, 5, 7)), min_size=1)):
            residues = draw(st.sets(st.integers(0, q - 1), min_size=1))
            factors += [Indicator(a, q) for a in residues]
        terms.append(ProductTerm(tuple(factors)))
    constant = draw(st.integers(1, 3))
    return CountingFormula(constant + len(terms) - 1, constant, tuple(terms))


def _formula(constant, *terms):
    products = tuple(ProductTerm(tuple(Indicator(a, q) for a, q in t)) for t in terms)
    return CountingFormula(constant + len(products) - 1, constant, products)


@settings(max_examples=200, deadline=None)
@given(small_formulas())
# every unit of 5 listed, one of them beside a class-0 factor
@example(_formula(1, [(1, 5)], [(2, 5), (0, 3)], [(3, 5), (4, 5)], [(2, 3), (4, 5)]))
# X(1,5)+X(2,5)+X(3,5)+X(4,5) = 3 off the class 0: no dependence on 5
@example(_formula(1, [(1, 5)], [(2, 5)], [(3, 5)], [(4, 5)], [(1, 7), (0, 5)]))
# X(1,2) vanishes on odd p, and X(0,7) is 1 on p coprime to 7
@example(_formula(2, [(1, 2), (3, 7)], [(0, 7), (2, 3)]))
def test_minimal_modulus_matches_residue_scan(formula):
    assert minimal_modulus(formula) == _minimal_modulus_brute(formula)


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
