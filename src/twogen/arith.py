"""Integer kernel: modular helpers, primality, factorization, radicals.

Everything works on Python's arbitrary-precision ints.  Primality is
deterministic below ~3.3e24 (fixed Miller-Rabin witness set) and
probabilistic above (40 extra rounds, error < 4**-40).  Factorization runs
trial division up to a fixed bound, then Pollard rho with Brent's cycle
detection under an iteration budget; exhausting the budget raises
FactorizationTimeout instead of hanging, so a known factorization can be
supplied through a cache (see factor_cache) as the escape hatch.

Every large number this package factors is 2^m - 1 or 2^m + 1, so
factorize recognises that form and uses the algebra of the Cunningham
tables (Brillhart et al., Factorizations of b^n +- 1) before rho: the
cofactor is split along the cyclotomic values Phi_d(2) and the
Aurifeuillian halves of Phi_4o(2), and each piece is hunted with the map
x^e + c, e = lcm(2, d), since the primes of Phi_d(2) are 1 mod e (Brent
& Pollard, 1981).  The split and the map change only the speed; every
prime is still proven by is_prime.
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
    """The factoring budget ran out; carries the stubborn cofactor and, when
    known, the rho iterations spent on n before giving up."""

    def __init__(self, n: int, cofactor: int, iterations: int | None = None):
        spent = "" if iterations is None else f" after {iterations} rho iterations"
        super().__init__(
            f"could not factor {n}: budget exhausted on cofactor {cofactor}{spent}"
        )
        self.n = n
        self.cofactor = cofactor
        self.iterations = iterations


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


def _rho_brent(n: int, budget: int, e: int = 2) -> tuple[int | None, int]:
    """Hunt a nontrivial factor of odd composite n with Brent's rho on the
    map x -> x^e + c.

    When every prime factor p of n has p = 1 (mod e), x^e takes only
    (p-1)/e values mod p and the cycle is about sqrt(e-1) times shorter
    (Brent & Pollard, 1981).  Each step is charged e.bit_length() - 1
    iterations, the squarings in x^e, so the budget counts squarings for
    every e.  The budget is checked after every batch of at most 128
    steps, so a hunt that runs out spends less than one batch beyond it.
    Returns (factor_or_None, iterations_used).  Parameters are drawn from
    an n-seeded RNG so results are reproducible run to run.
    """
    rng = random.Random(n)
    cost = e.bit_length() - 1
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            k = 0
            while k < r:
                count = min(m, r - k)
                for _ in range(count):
                    y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
                k += count
                used += count * cost
                if used >= budget:
                    return None, used
            k = 0
            while k < r and g == 1:
                ys = y
                count = min(m, r - k)
                for _ in range(count):
                    y = ((y * y if e == 2 else pow(y, e, n)) + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += count
                used += count * cost
                if g == 1 and used >= budget:
                    return None, used
            r *= 2
        if g == n:
            # Batched gcd overshot; replay one step at a time.
            g = 1
            while g == 1:
                ys = ((ys * ys if e == 2 else pow(ys, e, n)) + c) % n
                g = math.gcd(abs(x - ys), n)
                used += cost
        if g < n:
            return g, used
    return None, used


def _cyclotomic_pieces(n: int) -> list[tuple[int, int]]:
    """Split n = 2^m - 1 or 2^m + 1 into (d, piece) pairs whose pieces
    multiply to n; [] when n has neither form.

    2^m - 1 is the product of Phi_d(2) over d | m, and 2^m + 1 the product
    over d | 2m with d not dividing m.  Each Phi_d(2) comes from the
    divisor recursion Phi_d(2) = (2^d - 1) / prod(Phi_j(2), j | d, j < d).
    For d = 4o with o > 1 odd, Phi_d(2) is split once more by its gcd with
    L = 2^o - 2^((o+1)/2) + 1, the Aurifeuillian factorization of
    2^(2o) + 1 = L * (2^o + 2^((o+1)/2) + 1); that yields two pieces for d.
    Every prime factor of a piece for d is 1 (mod lcm(2, d)) except the
    largest prime of d, which can divide Phi_d(2) once.
    """
    if n >= 1 and n & (n + 1) == 0:
        m, plus = n.bit_length(), False
    elif n >= 3 and (n - 1) & (n - 2) == 0:
        m, plus = n.bit_length() - 1, True
    else:
        return []
    top = 2 * m if plus else m
    phi: dict[int, int] = {}
    for d in (d for d in range(1, top + 1) if top % d == 0):
        value = 2**d - 1
        for j, v in phi.items():
            if d % j == 0:
                value //= v
        phi[d] = value
    pieces = []
    for d, value in phi.items():
        if plus and m % d == 0:
            continue
        o = d // 4
        if d % 8 == 4 and o > 1:
            aurifeuillian = math.gcd(value, 2**o - 2 ** ((o + 1) // 2) + 1)
            pieces += [(d, aurifeuillian), (d, value // aurifeuillian)]
        else:
            pieces.append((d, value))
    return [(d, piece) for d, piece in pieces if piece > 1]


def factorize(n: int, cache=None, max_iterations: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1 by trial division then Pollard rho (Brent variant).

    When n = 2^j - 1 or 2^j + 1, the cofactor left by trial division is
    first split along the cyclotomic and Aurifeuillian pieces of n, and
    each piece is hunted with the rho map matching its primes' congruence.
    Consults and updates `cache` (a factor_cache.FactorCache) when given;
    only n itself is stored, never a piece.  Raises FactorizationTimeout
    once `max_iterations` rho squarings are spent.
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
    # Each pending entry carries the exponent e of its rho map: lcm(2, d)
    # inside a piece for d, 2 for whatever no piece covers.
    pending = []
    for d, piece in _cyclotomic_pieces(n) if m > 1 else ():
        g = math.gcd(m, piece)
        if g > 1:
            pending.append((g, d if d % 2 == 0 else 2 * d))
            m //= g
    if m > 1:
        pending.append((m, 2))
    budget = max_iterations
    while pending:
        c, e = pending.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        power = _perfect_power(c)
        if power is not None:
            base, k = power
            pending.extend([(base, e)] * k)
            continue
        factor, used = _rho_brent(c, budget, e)
        budget -= used
        if factor is None:
            raise FactorizationTimeout(n, c, max_iterations - budget)
        pending.append((factor, e))
        pending.append((c // factor, e))
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
