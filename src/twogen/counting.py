"""Direct counts of two-generator numerical semigroups.

Two independent routes to the same number: a divisor-pair census of 2g
(pairs u*v = 2g with gcd(u+1, v+1) = 1, each in bijection with one
semigroup <u+1, v+1>), and for genus p^k the equivalent count of exponents
i with gcd(p^i + 1, 2 p^(k-i) + 1) = 1.  Every synthesized formula in this
package is tested against these.
"""

from __future__ import annotations

import math

from .arith import divisors, factorize, is_prime


class NotOddPrime(ValueError):
    pass


def special_factorizations(g: int, cache=None) -> list[tuple[int, int]]:
    """Unordered pairs (u, v), u <= v, with u*v = 2g and gcd(u+1, v+1) = 1."""
    if g < 1:
        raise ValueError(f"genus must be >= 1, got {g}")
    target = 2 * g
    pairs = []
    for u in divisors(factorize(target, cache)):
        if u * u > target:
            break
        v = target // u
        if math.gcd(u + 1, v + 1) == 1:
            pairs.append((u, v))
    return pairs


def count_special(g: int, cache=None) -> int:
    """n(g,2): the number of two-generator numerical semigroups of genus g."""
    return len(special_factorizations(g, cache))


def surviving_exponents(p: int, k: int) -> list[int]:
    """Exponents 0 <= i <= k with gcd(p^i + 1, 2 p^(k-i) + 1) = 1."""
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise NotOddPrime(f"{p} is not an odd prime")
    return _surviving_exponents(p, k)


def _surviving_exponents(p: int, k: int) -> list[int]:
    """surviving_exponents without validation, for sweeps over sieved odd
    primes that would otherwise pay a primality test per prime."""
    powers = [1]
    for _ in range(k):
        powers.append(powers[-1] * p)
    return [
        i
        for i in range(k + 1)
        if math.gcd(powers[i] + 1, 2 * powers[k - i] + 1) == 1
    ]


def count_prime_power(p: int, k: int) -> int:
    """n(p^k,2) for an odd prime p, by direct arbitrary-precision gcds."""
    return len(surviving_exponents(p, k))
