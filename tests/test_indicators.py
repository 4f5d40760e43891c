import math
import random

import pytest

from twogen.arith import primitive_root
from twogen.primes import primes_up_to
from twogen.indicators import (
    Indicator,
    _sort_key,
    decompose,
    expand_power,
    reduce_power,
    strip_exponent,
)


def _expand_power_coset_scan(x: Indicator, s: int) -> tuple[Indicator, ...]:
    """The former expand_power, kept as an oracle: step g^(s*i) through all
    (q-1)/s cosets of the smallest primitive root g until it hits a."""
    q = x.q
    if s == 1 or x.a == 0:
        return (x,)
    g = primitive_root(q)
    cosets = (q - 1) // s
    power = 1
    multiplier = pow(g, s, q)
    for i in range(cosets):
        if power == x.a:
            roots = [pow(g, i + j * cosets, q) for j in range(s)]
            return tuple(sorted((Indicator(r, q) for r in roots), key=_sort_key))
        power = power * multiplier % q
    return ()


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


def test_expand_power_matches_coset_scan():
    for q in primes_up_to(200):
        for s in range(1, q):
            if (q - 1) % s != 0:
                continue
            for a in range(q):
                x = Indicator(a, q)
                assert expand_power(x, s) == _expand_power_coset_scan(x, s), (a, q, s)


# Primes where the coset scan is out of reach.  q - 1 is 2^16 at the Fermat
# prime 65537, 2^32 * 3 * 5 * 17 * 257 * 65537 at 2^64 - 2^32 + 1, and
# 2^15 * 5 * 29 * 113 at 536903681; 2^61 - 2 has twelve distinct primes.
LARGE_PRIMES = {
    65537: (2, 4, 2**8, 2**12),
    2**61 - 1: (2, 3, 6, 30, 2 * 3**2 * 5 * 7),
    2**64 - 2**32 + 1: (2, 3, 5, 2**5, 2**10, 3 * 5 * 17),
    536903681: (2, 4, 5, 2**13, 8 * 5 * 29),
}


def test_expand_power_large_primes():
    for q, exponents in LARGE_PRIMES.items():
        g = primitive_root(q)  # an s-th power for no s > 1
        for s in exponents:
            assert (q - 1) % s == 0, (q, s)
            a = pow(123456789, s, q)
            roots = [x.a for x in expand_power(Indicator(a, q), s)]
            assert len(set(roots)) == s and roots == sorted(roots), (q, s)
            assert all(pow(r, s, q) == a for r in roots), (q, s)
            assert expand_power(Indicator(g, q), s) == (), (q, s)


def test_expand_power_proves_q_at_most_once(monkeypatch):
    import twogen.indicators as indicators

    q, s = 2**127 - 1, 2646  # s = 2 * 3^3 * 7^2 divides q - 1
    x = Indicator(pow(3, s, q), q)
    calls = []
    real = indicators.is_prime
    monkeypatch.setattr(indicators, "is_prime", lambda n: calls.append(n) or real(n))
    roots = expand_power(x, s)
    assert len(roots) == s and all(pow(r.a, s, q) == x.a for r in roots)
    assert len(calls) <= 1
    # Public construction still proves its modulus.
    calls.clear()
    Indicator(5, 7)
    assert calls == [7]


def test_expand_power_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2024)
    for _ in range(40):
        q = sympy.nextprime(rng.randrange(2, 10 ** rng.randint(2, 30)))
        exponents = [s for s in range(1, 65) if (q - 1) % s == 0]
        s = rng.choice(exponents)
        for a in (rng.randrange(1, q), pow(rng.randrange(1, q), s, q)):
            got = [x.a for x in expand_power(Indicator(a, q), s)]
            want = sympy.nthroot_mod(a, s, q, all_roots=True) or []
            assert got == sorted(want), (a, q, s)


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
