"""Direct counts of two-generator numerical semigroups.

Two independent routes to the same number: a divisor-pair census of 2g
(pairs u*v = 2g with gcd(u+1, v+1) = 1, each in bijection with one
semigroup <u+1, v+1>), and for genus p^k the equivalent count of exponents
i with gcd(p^i + 1, 2 p^(k-i) + 1) = 1.  Every synthesized formula in this
package is tested against these.

The genus-p^k count never takes a gcd of numbers the size of p^k.  With
j = k - i, the resultant R of x^i + 1 and 2x^j + 1 is a nonzero integer (the
roots of x^i + 1 lie on the unit circle, those of 2x^j + 1 do not), and it
lies in the ideal the two polynomials generate in Z[x].  So for every
integer p the row gcd divides R, and gcd(p^i + 1, 2 p^j + 1) is
gcd(R, p^i + 1 mod R, 2 p^j + 1 mod R): the same number, taken on residues
below R <= 3^k.  R has a closed form, so the count stays exact and uses
nothing of the reduction it checks.  For i >= 1, R = m_k(i)^gcd(i, k) with
m_k(i) the row modulus of M(k): only primes of M(k) can divide a row gcd.
"""

from __future__ import annotations

import functools
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


def _resultant(i: int, j: int) -> int:
    """|Res(x^i + 1, 2x^j + 1)| = |1 - (-1)^(j/d) (-2)^(i/d)|^d, d = gcd(i, j),
    for i + j >= 1: a multiple of gcd(p^i + 1, 2 p^j + 1) at every integer p."""
    d = math.gcd(i, j)
    return abs(1 - (-1) ** (j // d) * (-2) ** (i // d)) ** d


@functools.lru_cache(maxsize=32)
def _row_table(k: int) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The rows (i, k - i, R) for 0 <= i <= k, R = _resultant(i, k - i), and
    the lcm of their R."""
    rows = tuple((i, k - i, _resultant(i, k - i)) for i in range(k + 1))
    return math.lcm(*(r for _, _, r in rows)), rows


def _surviving_exponents(p: int, k: int) -> list[int]:
    """surviving_exponents without validation, for sweeps over sieved odd
    primes that would otherwise pay a primality test per prime.

    Each row gcd divides its resultant R, so it is taken on the powers of p
    modulo the lcm of the R (a multiple of every R), never on p^i itself.
    """
    lcm, rows = _row_table(k)
    p %= lcm
    powers = [1]
    for _ in range(k):
        powers.append(powers[-1] * p % lcm)
    survivors = []
    for i, j, r in rows:
        g = math.gcd(r, powers[i] % r + 1)
        if g == 1 or math.gcd(g, 2 * (powers[j] % g) + 1) == 1:
            survivors.append(i)
    return survivors


def count_prime_power(p: int, k: int) -> int:
    """n(p^k,2) for an odd prime p, by direct gcds reduced modulo each row's
    resultant."""
    return len(surviving_exponents(p, k))
