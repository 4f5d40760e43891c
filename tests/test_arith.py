import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogen.arith import (
    TRIAL_DIVISION_BOUND,
    FactorizationTimeout,
    Factorization,
    NotInvertible,
    _cyclotomic_pieces,
    _perfect_power,
    _rho_brent,
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
    assert info.value.iterations >= 10
    assert f"after {info.value.iterations} rho iterations" in str(info.value)


def test_factorize_timeout_names_the_whole_fermat_number():
    # 2^128 + 1 = Phi_256(2) is one cyclotomic piece with no factor below
    # the trial bound, so the stubborn cofactor is the number itself.
    n = 2**128 + 1
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=100_000)
    assert info.value.n == n
    assert info.value.cofactor == n
    assert info.value.iterations >= 100_000
    # Rho ran on x^256 + c, and each step was charged its 8 squarings.
    assert info.value.iterations % 8 == 0


@pytest.mark.parametrize(
    "n, budget, cost",
    [
        # x^256 + c on F7, whose budget runs out inside a gcd batch.
        (2**128 + 1, 100_000, 8),
        # x^2 + c on two Mersenne primes, whose budget runs out inside the
        # advance of x in the r = 32768 round.
        ((2**61 - 1) * (2**89 - 1), 70_000, 1),
    ],
)
def test_factorize_timeout_overshoots_by_less_than_one_batch(n, budget, cost):
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=budget)
    assert budget <= info.value.iterations <= budget + 128 * cost


def _factorize_plain(n: int) -> tuple[tuple[int, int], ...]:
    """The former factorize, kept as an oracle: trial division, then rho on
    x^2 + c with no cyclotomic split."""
    counts: dict[int, int] = {}
    m = n
    for d in [2] + list(range(3, TRIAL_DIVISION_BOUND + 1, 2)):
        if d * d > m:
            break
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        power = _perfect_power(c)
        if power is not None:
            pending.extend([power[0]] * power[1])
            continue
        factor, _ = _rho_brent(c, 10**8)
        pending += [factor, c // factor]
    return tuple(sorted(counts.items()))


def _phi_at_2(d: int) -> int:
    """Phi_d(2) by the Moebius product over j | d of (2^j - 1)^mu(d/j)."""
    num = den = 1
    for j in range(1, d + 1):
        if d % j:
            continue
        k, mu = d // j, 1
        for r in range(2, k + 1):
            if k % r == 0:
                k //= r
                mu = 0 if k % r == 0 else -mu
        if mu == 1:
            num *= 2**j - 1
        elif mu == -1:
            den *= 2**j - 1
    return num // den


def test_cyclotomic_pieces_multiply_out():
    split_pairs = 0
    for m in range(1, 201):
        for n, ds in (
            (2**m - 1, [d for d in range(2, m + 1) if m % d == 0]),
            (2**m + 1, [d for d in range(1, 2 * m + 1) if 2 * m % d == 0 and m % d]),
        ):
            pieces = _cyclotomic_pieces(n)
            assert math.prod(piece for _, piece in pieces) == n, n
            assert sorted({d for d, _ in pieces}) == ds, n
            for d in ds:
                parts = [piece for j, piece in pieces if j == d]
                phi = _phi_at_2(d)
                assert math.prod(parts) == phi, (n, d)
                o = d // 4
                if d % 8 == 4 and o > 1:
                    # The Aurifeuillian pair: the gcd with L, then the rest.
                    low = 2**o - 2 ** ((o + 1) // 2) + 1
                    assert low * (2**o + 2 ** ((o + 1) // 2) + 1) == 2 ** (2 * o) + 1
                    head = math.gcd(phi, low)
                    assert parts == [x for x in (head, phi // head) if x > 1], (n, d)
                    split_pairs += len(parts) == 2
                else:
                    assert parts == [phi], (n, d)
    assert split_pairs > 50


def test_cyclotomic_pieces_reject_other_forms():
    for n in (2, 4, 6, 10, 12, 36465, 2**64, 2**64 + 3, 3**40):
        assert _cyclotomic_pieces(n) == [], n


def test_factorize_matches_plain_oracle_on_two_powers():
    for m in range(1, 81):
        for n in (2**m - 1, 2**m + 1):
            assert factorize(n).factors == _factorize_plain(n), n


def test_cyclotomic_piece_primes_are_one_mod_lcm():
    # The congruence behind the x^e + c map: a prime of the piece for d is
    # 1 mod lcm(2, d), or it is the largest prime factor of d.
    for m in range(1, 61):
        for n in (2**m - 1, 2**m + 1):
            for d, piece in _cyclotomic_pieces(n):
                e = d if d % 2 == 0 else 2 * d
                largest = max(p for p, _ in factorize(d).factors) if d > 1 else 1
                for p, _ in factorize(piece).factors:
                    assert p % e == 1 or p == largest, (n, d, p)


def test_factorize_2_101_minus_1_within_reduced_budget():
    # Rho on x^202 + c needs 3.24 million squarings here, plain x^2 + c
    # about 7.2 million.
    fact = factorize(2**101 - 1, max_iterations=3_500_000)
    assert fact.factors == ((7432339208719, 1), (341117531003194129, 1))


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
