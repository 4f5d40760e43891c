"""Modular roots mod a prime: `power_roots`, the one power-congruence
solver of the package, and `primitive_root`, which shares its least
non-residue search.  The factoring of q-1 comes from `factoring`; the
primality test, and the sieve the primes of d = gcd(s, q-1) are read off,
from `primes`.
"""

from __future__ import annotations

import itertools
import math

from .factoring import factorize
from .primes import is_prime, primes_up_to


def _least_non_residue(q: int, primes: list[int]) -> int:
    """Smallest g >= 2 that is no r-th power mod the prime q for each r in `primes`."""
    powers = [(q - 1) // r for r in primes]
    return next(g for g in itertools.count(2) if all(pow(g, e, q) != 1 for e in powers))


def primitive_root(q: int, cache=None) -> int:
    """Smallest generator of the multiplicative group mod the prime q."""
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    return _least_non_residue(q, [p for p, _ in factorize(q - 1, cache).factors])


def power_roots(a: int, s: int, q: int) -> list[int]:
    """The sorted x in [0, q) with x^s = a mod the prime q, for s >= 1 and
    0 <= a < q.  With d = gcd(s, q-1), raising to s/d permutes the d-th
    powers, so there are none unless Euler's criterion a^((q-1)/d) = 1
    holds, and then x^s = a is x^d = a^e with e = (s/d)^-1 mod (q-1)/d, the
    RSA step; its d roots come from Adleman-Manders-Miller.  Write
    q-1 = t*m with t made of the primes of d; raising to d permutes the
    part of order m, so z = a^(d^-1 mod m) leaves b = a*z^-d in the cyclic
    part of order t, generated by c = g^m for any g that is no r-th power
    for each prime r of d.  A Pohlig-Hellman discrete log, one prime digit
    of t at a time, gives c^log = b with d | log, and the roots are
    z*c^(log/d + j*t/d) for j < d.
    """
    if a == 0:
        # x^s is divisible by q exactly when x is.
        return [0]
    d = math.gcd(s, q - 1)
    if d > 1 and pow(a, (q - 1) // d, q) != 1:
        return []
    if s > d:
        a = pow(a, pow(s // d, -1, (q - 1) // d), q)
    if d == 1:
        return [a]
    # Read off the sieve: the d roots returned below outweigh a sieve to d.
    primes = [r for r in primes_up_to(d) if d % r == 0]
    t, m, digits = 1, q - 1, []
    for r in primes:
        while m % r == 0:
            t, m = t * r, m // r
            digits.append(r)
    c = pow(_least_non_residue(q, primes), m, q)
    z = pow(a, pow(d, -1, m), q)
    b = a * pow(z, -d, q) % q
    log, done = 0, 1
    for r in digits:
        target = pow(b * pow(c, -log, q), t // (done * r), q)
        zeta = pow(c, t // r, q)  # of order r
        log += done * next(n for n in range(r) if pow(zeta, n, q) == target)
        done *= r
    return sorted(z * pow(c, log // d + j * (t // d), q) % q for j in range(d))
