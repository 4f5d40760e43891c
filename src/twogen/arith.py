"""Integer kernel: modular helpers, primality, factorization, radicals.

Everything works on Python's arbitrary-precision ints.  Primality is
deterministic below ~3.3e24 (fixed Miller-Rabin witness set) and
probabilistic above (40 extra rounds, error < 4**-40).  Factorization runs
trial division up to a fixed bound, then Pollard rho with Brent's cycle
detection under an iteration budget; exhausting the budget raises
FactorizationTimeout instead of hanging, so a known factorization can be
supplied through a cache (see factor_cache) as the escape hatch.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

TRIAL_DIVISION_BOUND = 10_000
DEFAULT_RHO_BUDGET = 10_000_000

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# Miller-Rabin with the first 13 primes as witnesses is exact below this bound.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BELOW = 3_317_044_064_679_887_385_961_981
_MR_EXTRA_ROUNDS = 40


class NotInvertible(ValueError):
    """The residue shares a factor with the modulus."""


class FactorizationTimeout(RuntimeError):
    """The factoring budget ran out; carries the stubborn cofactor."""

    def __init__(self, n: int, cofactor: int):
        super().__init__(
            f"could not factor {n}: budget exhausted on cofactor {cofactor}"
        )
        self.n = n
        self.cofactor = cofactor


@dataclass(frozen=True)
class Factorization:
    """A prime factorization: value == prod(p**e), primes strictly increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def check(self) -> None:
        """Re-verify all invariants; raises ValueError on any violation."""
        if self.value < 1:
            raise ValueError(f"value must be positive, got {self.value}")
        product = 1
        last = 1
        for p, e in self.factors:
            if p <= last:
                raise ValueError(f"primes not strictly increasing at {p}")
            if e < 1:
                raise ValueError(f"exponent of {p} must be >= 1, got {e}")
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            product *= p**e
            last = p
        if product != self.value:
            raise ValueError(f"factors multiply to {product}, not {self.value}")


def mod_inverse(a: int, modulus: int) -> int:
    """Residue b with a*b == 1 mod modulus; NotInvertible if gcd(a, modulus) > 1."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {modulus}") from None


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for n < 3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses: tuple[int, ...] | list[int] = _MR_WITNESSES
    if n >= _MR_DETERMINISTIC_BELOW:
        # Probabilistic regime; bases drawn from an n-seeded stream so runs
        # stay reproducible.
        rng = random.Random(n)
        witnesses = list(_MR_WITNESSES)
        witnesses += [rng.randrange(2, n - 1) for _ in range(_MR_EXTRA_ROUNDS)]
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return [i for i in range(2, n + 1) if sieve[i]]


def odd_primes_up_to(n: int) -> list[int]:
    """All odd primes <= n."""
    return [p for p in primes_up_to(n) if p != 2]


def _iroot(n: int, k: int) -> int:
    """Integer floor of the k-th root of n."""
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # >= true root
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int] | None:
    """(base, k) with base**k == n and k >= 2, or None."""
    for k in range(2, n.bit_length() + 1):
        r = _iroot(n, k)
        if r < 2:
            return None
        if r**k == n:
            return r, k
    return None


def _rho_brent(n: int, budget: int) -> tuple[int | None, int]:
    """Hunt a nontrivial factor of odd composite n with Brent's rho.

    Returns (factor_or_None, iterations_used).  Parameters are drawn from an
    n-seeded RNG so results are reproducible run to run.
    """
    rng = random.Random(n)
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                count = min(m, r - k)
                for _ in range(count):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += count
            used += 2 * r
            r *= 2
            if g == 1 and used >= budget:
                return None, used
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                used += 1
        if g < n:
            return g, used
    return None, used


def factorize(n: int, cache=None, max_iterations: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1 by trial division then Pollard rho (Brent variant).

    Consults and updates `cache` (a factor_cache.FactorCache) when given.
    Raises FactorizationTimeout once `max_iterations` rho steps are spent.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    if cache is not None:
        hit = cache.get(n)
        if hit is not None:
            return hit
    counts: dict[int, int] = {}
    m = n
    while m % 2 == 0:
        counts[2] = counts.get(2, 0) + 1
        m //= 2
    d = 3
    while d <= TRIAL_DIVISION_BOUND and d * d <= m:
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
        d += 2
    budget = max_iterations
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        power = _perfect_power(c)
        if power is not None:
            base, k = power
            pending.extend([base] * k)
            continue
        factor, used = _rho_brent(c, budget)
        budget -= used
        if factor is None:
            raise FactorizationTimeout(n, c)
        pending.append(factor)
        pending.append(c // factor)
    result = Factorization(n, tuple(sorted(counts.items())))
    if cache is not None:
        cache.put(result)
    return result


def radical(n: int, cache=None) -> int:
    """Largest square-free divisor of n (product of its distinct primes)."""
    result = 1
    for p, _ in factorize(n, cache).factors:
        result *= p
    return result


def divisors(f: Factorization) -> list[int]:
    """All divisors of f.value in increasing order."""
    divs = [1]
    for p, e in f.factors:
        divs = [d * p**j for d in divs for j in range(e + 1)]
    return sorted(divs)


def primitive_root(q: int, cache=None) -> int:
    """Smallest generator of the multiplicative group mod the prime q."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    qm1 = q - 1
    prime_divs = [p for p, _ in factorize(qm1, cache).factors]
    for g in range(2, q):
        if all(pow(g, qm1 // r, q) != 1 for r in prime_divs):
            return g
    raise AssertionError(f"no primitive root found for prime {q}")
