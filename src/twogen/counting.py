"""Direct counts of two-generator numerical semigroups.

Two independent routes to the same number: a divisor-pair census of 2g
(pairs u*v = 2g with gcd(u+1, v+1) = 1, each in bijection with one
semigroup <u+1, v+1>), and for genus p^k the equivalent count of exponents
i with gcd(p^i + 1, 2 p^(k-i) + 1) = 1.  Every synthesized formula in this
package is tested against these.

The genus-p^k count never takes a gcd of numbers the size of p^k.  With
j = k - i and d = gcd(i, j) = gcd(i, k), the resultant R of x^i + 1 and
2x^j + 1 is m^d with m = 2^(i/d) - (-1)^(k/d), a nonzero integer (the
roots of x^i + 1 lie on the unit circle, those of 2x^j + 1 do not), and R
lies in the ideal the two polynomials generate in Z[x].  So for every
integer p the row gcd divides R and has only primes of m: it is 1 exactly
when gcd(m, p^i + 1, 2 p^j + 1) is, which is taken on the powers of p mod
m.  The row test thus reads only the class of p mod m, so a table of it
over the m residues is exact for every p, and a sweep over at least m
primes looks the row up instead.  m = m_k(i) is `row_modulus`, the one
definition of the row modulus: `modulus` reads it to assemble M(k), so only
primes of M(k) can divide a row gcd with i >= 1.  Its closed form keeps the
count exact without any of the reduction it checks, which derives the same
constant on its own.

The rows whose m is above the number of primes swept share one screen.
Since 2 p^j (p^i + 1) - (2 p^j + 1) = 2 p^k - 1, every row gcd divides
2 p^k - 1; with L the lcm of those m, a prime with gcd(L, 2 p^k - 1) = 1
keeps all of them at once.  At any other prime each row gcd divides both
its m and g = gcd(L, 2 p^k - 1), so the row test with gcd(m, g) in place
of m still sees every prime of the row gcd and stays exact.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator, Sequence

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


def row_modulus(k: int, i: int) -> int:
    """m_k(i) = 2^(i/d) - (-1)^(k/d) with d = gcd(i, k), for 0 <= i <= k: the
    root of the resultant, |Res(x^i + 1, 2x^(k-i) + 1)| = m_k(i)^d, so it
    has the primes of every gcd(p^i + 1, 2 p^(k-i) + 1)."""
    d = math.gcd(i, k)
    return 2 ** (i // d) - (-1 if (k // d) % 2 else 1)


@functools.lru_cache(maxsize=32)
def _row_table(k: int) -> tuple[tuple[int, int, int], ...]:
    """The rows (i, k - i, row_modulus(k, i)) for 0 <= i <= k."""
    return tuple((i, k - i, row_modulus(k, i)) for i in range(k + 1))


def _row_survives(p: int, i: int, j: int, m: int) -> bool:
    """Whether gcd(p^i + 1, 2 p^j + 1) = 1, taken as gcd(m, p^i + 1, 2 p^j + 1)
    on powers of p mod m = row_modulus(i + j, i), the second power only when
    needed."""
    g = math.gcd(m, pow(p, i, m) + 1)
    return g == 1 or math.gcd(g, 2 * pow(p, j, g) + 1) == 1


def _surviving_exponents(p: int, k: int) -> list[int]:
    """surviving_exponents without validation: `_row_survives` on every row."""
    return [i for i, j, m in _row_table(k) if _row_survives(p, i, j, m)]


def _residue_table(m: int, rows) -> bytes:
    """Entry r: how many of the rows (i, j, m) survive at every p = r mod m.
    At most 2 d(k) of the rows of k share one m, d(k) the number of divisors
    of k, so every entry fits a byte for k below 83,160."""
    return bytes(
        sum(_row_survives(r, i, j, m) for i, j, _ in rows) for r in range(m)
    )


def _survivor_counts(primes: Sequence[int], k: int) -> Iterator[int]:
    """len(_surviving_exponents(p, k)) at each p of `primes`, in order.

    Rows whose m is at most len(primes) are tested once per residue mod m,
    rows that share m summed into one table.  The other, large rows are
    screened together: every row gcd divides 2 p^k - 1 and its row's m, so
    it divides g = gcd(L, 2 p^k - 1), L the lcm of the large m.  At g = 1
    every large row survives; otherwise each is tested at p with
    gcd(m, g) in place of m, which still has every prime of the row gcd.
    Without large rows the loop only reads the tables.
    """
    shared: dict[int, list[tuple[int, int, int]]] = {}
    large = []
    for row in _row_table(k):
        if row[2] <= len(primes):
            shared.setdefault(row[2], []).append(row)
        else:
            large.append(row)
    tables = [(m, _residue_table(m, rows)) for m, rows in shared.items()]
    lcm = math.lcm(*(m for _, _, m in large))
    for p in primes:
        count = sum(table[p % m] for m, table in tables)
        if large:
            g = math.gcd(lcm, 2 * pow(p, k, lcm) - 1)
            count += len(large) if g == 1 else sum(
                _row_survives(p, i, j, math.gcd(m, g)) for i, j, m in large
            )
        yield count


def count_prime_power(p: int, k: int) -> int:
    """n(p^k,2) for an odd prime p, by direct gcds reduced modulo each row's
    root modulus."""
    return len(surviving_exponents(p, k))
