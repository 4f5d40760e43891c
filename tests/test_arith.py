import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogen.arith import (
    FactorizationTimeout,
    Factorization,
    NotInvertible,
    divisors,
    factorize,
    is_prime,
    mod_inverse,
    primes_up_to,
    primitive_root,
    radical,
)


def test_mod_inverse_examples():
    assert mod_inverse(2, 33) == 17
    assert mod_inverse(1, 5) == 1
    with pytest.raises(NotInvertible):
        mod_inverse(3, 6)


def test_mod_inverse_random_pairs():
    import math

    rng = random.Random(20260810)
    checked = 0
    while checked < 10_000:
        m = rng.randrange(2, 10**9)
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        assert mod_inverse(a, m) * a % m == 1
        checked += 1


def test_is_prime_examples():
    assert is_prime(257)
    assert not is_prime(1)
    assert not is_prime(511)  # 7 * 73
    assert not is_prime(0)
    assert is_prime(2)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5000))
    for n in range(5000):
        assert is_prime(n) == (n in sieve)


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(561)  # Carmichael number
    assert is_prime(2**89 - 1)  # beyond the deterministic witness bound


def test_factorize_examples():
    assert factorize(36465).factors == ((3, 1), (5, 1), (11, 1), (13, 1), (17, 1))
    assert factorize(513).factors == ((3, 3), (19, 1))
    assert factorize(1).factors == ()


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_uses_rho_beyond_trial_bound():
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_factorize_perfect_power():
    p = 1000003
    assert factorize(p**3).factors == ((p, 3),)


def test_factorize_timeout_on_tiny_budget():
    n = 1000003 * 1000033
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=10)
    assert info.value.n == n


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    fact = factorize(n)
    product = 1
    last = 1
    for p, e in fact.factors:
        assert p > last and e >= 1 and is_prime(p)
        product *= p**e
        last = p
    assert product == n


def test_factorization_check_rejects_lies():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (5, 1))).check()  # product mismatch
    with pytest.raises(ValueError):
        Factorization(15, ((15, 1),)).check()  # composite listed
    with pytest.raises(ValueError):
        Factorization(15, ((5, 1), (3, 1))).check()  # out of order
    Factorization(15, ((3, 1), (5, 1))).check()


def test_radical_examples():
    assert radical(4) == 2
    assert radical(12) == 6
    assert radical(18) == 6
    assert radical(1) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_radical_properties(n):
    r = radical(n)
    assert n % r == 0
    assert all(e == 1 for _, e in factorize(r).factors)
    assert radical(r) == r


def test_divisors_examples():
    assert divisors(factorize(10)) == [1, 2, 5, 10]
    assert divisors(factorize(1)) == [1]
    # divisor-count formula: (1+1) * (9+1)
    assert len(divisors(factorize(2 * 5**9))) == 20


def test_divisors_are_exact():
    for n in (36, 97, 360, 1024):
        assert divisors(factorize(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_primitive_root_examples():
    assert primitive_root(17) == 3
    assert primitive_root(2) == 1
    assert primitive_root(5) == 2


def test_primitive_root_generates_everything():
    for q in primes_up_to(300):
        g = primitive_root(q)
        seen = {pow(g, k, q) for k in range(1, q)}
        assert seen == set(range(1, q))


def test_primitive_root_is_smallest():
    for q in primes_up_to(100):
        g = primitive_root(q)
        for h in range(1, g):
            assert {pow(h, k, q) for k in range(1, q)} != set(range(1, q))


def test_primitive_root_requires_prime():
    with pytest.raises(ValueError):
        primitive_root(15)
