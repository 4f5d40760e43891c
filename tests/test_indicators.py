import math

import pytest

from twogen.arith import primes_up_to
from twogen.indicators import (
    Indicator,
    decompose,
    expand_power,
    reduce_power,
    strip_exponent,
)


def test_indicator_normalizes_residue():
    assert Indicator(5, 3).a == 2
    assert Indicator(-1, 3).a == 2
    assert Indicator(8, 3) == Indicator(2, 3)


def test_indicator_requires_prime_modulus():
    with pytest.raises(ValueError):
        Indicator(2, 9)
    with pytest.raises(ValueError):
        Indicator(0, 1)


def test_eval_examples():
    assert Indicator(2, 3)(7) == 1
    assert Indicator(2, 3)(5) == 0
    assert Indicator(3, 5)(13) == 0


def test_eval_matches_gcd_characterization():
    for q in primes_up_to(100):
        for a in range(q):
            x = Indicator(a, q)
            for n in range(q):
                expected = 1 if math.gcd(n - a, q) == 1 else 0
                assert x(n) == expected


def test_eval_depends_only_on_class_of_n():
    x = Indicator(2, 7)
    for n in range(-20, 20):
        assert x(n) == x(n + 7) == x(n + 70)


def test_decompose_examples():
    assert decompose(2, 33) == (Indicator(2, 3), Indicator(2, 11))
    assert decompose(8, 129) == (Indicator(2, 3), Indicator(8, 43))
    assert decompose(255, 511) == (Indicator(3, 7), Indicator(36, 73))


def test_decompose_depends_on_radical_only():
    assert decompose(2, 9) == decompose(2, 3)
    assert decompose(7, 12) == decompose(7, 6)


def test_decompose_rejects_small_modulus():
    with pytest.raises(ValueError):
        decompose(1, 1)


def test_decompose_eval_agreement():
    samples = (0, 1, 2, 17)
    for q in range(2, 601):
        for a in samples:
            factors = decompose(a, q)
            for n in range(q):
                direct = 1 if math.gcd(n - a, q) == 1 else 0
                assert math.prod(x(n) for x in factors) == direct


def test_strip_exponent_examples():
    assert strip_exponent(Indicator(2, 17), 3) == (Indicator(8, 17), 1)
    assert strip_exponent(Indicator(2, 5), 3) == (Indicator(3, 5), 1)
    # s | q-1 with s/t = 1: residue unchanged
    assert strip_exponent(Indicator(3, 7), 3) == (Indicator(3, 7), 3)


def test_strip_exponent_exhaustive():
    for q in primes_up_to(60):
        for s in range(1, 13):
            for a in range(q):
                stripped, t = strip_exponent(Indicator(a, q), s)
                assert t >= 1 and (q - 1) % t == 0
                for n in range(q):
                    assert Indicator(a, q)(n**s) == stripped(n**t)


def test_expand_power_example_8_mod_17():
    # 8 = 5^2 = 12^2 (mod 17): the squared condition splits over both roots
    assert expand_power(Indicator(8, 17), 2) == (Indicator(5, 17), Indicator(12, 17))


def test_expand_power_non_residues():
    assert expand_power(Indicator(-1, 3), 2) == ()
    assert expand_power(Indicator(-2, 5), 2) == ()


def test_expand_power_identity():
    x = Indicator(3, 7)
    assert expand_power(x, 1) == (x,)


def test_expand_power_requires_divisor():
    with pytest.raises(ValueError):
        expand_power(Indicator(2, 7), 4)


def test_expand_power_exhaustive():
    for q in primes_up_to(60):
        for s in range(1, q):
            if (q - 1) % s != 0:
                continue
            for a in range(q):
                factors = expand_power(Indicator(a, q), s)
                if a != 0 and s > 1:
                    assert len(factors) in (0, s)
                for n in range(q):
                    product = 1
                    for f in factors:
                        product *= f(n)
                    assert Indicator(a, q)(n**s) == product


def test_reduce_power_examples():
    assert reduce_power(2, 9, 2) == ()
    assert reduce_power(8, 17, 2) == (Indicator(5, 17), Indicator(12, 17))
    assert reduce_power(-1, 3, 10) == ()


def test_reduce_power_sweep():
    for q in range(2, 101):
        for a in (0, 1, 2, q - 1):
            for s in (1, 2, 3, 6, 10):
                factors = reduce_power(a, q, s)
                assert list(factors) == sorted(set(factors), key=lambda x: (x.q, x.a))
                for n in range(q):
                    product = 1
                    for f in factors:
                        product *= f(n)
                    direct = 1 if math.gcd(n**s - a, q) == 1 else 0
                    assert product == direct, (a, q, s, n)


def test_reduce_power_validates():
    with pytest.raises(ValueError):
        reduce_power(1, 1, 2)
    with pytest.raises(ValueError):
        reduce_power(1, 6, 0)
