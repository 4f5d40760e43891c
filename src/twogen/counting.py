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
m.  m = m_k(i) is `row_modulus`, the one definition of the row modulus:
`modulus` reads it to assemble M(k), so only primes of M(k) can divide a
row gcd with i >= 1.  Its closed form keeps the count exact without any of
the reduction it checks, which derives the same constant on its own.

A sweep over many primes reads the rows prime by prime of m instead: the
row gcd is 1 exactly when no prime q of m divides both p^i + 1 and
2 p^j + 1.  For each q the sweep names, that depends only on p mod q, so
each row has a list of kill classes x mod q.  A sweep takes the sieve's
flags, a bytearray with byte p set at each swept prime
(`primes.odd_prime_flags`), and `primes.class_counts` lays each window out
on the residues mod 30 it flags (8 for the primes above 5), applies each
class to each of them with one slice and reads the surviving rows back at
the flagged p, so no list of the primes is built unless a row keeps a
rough part (below).  The sweep names q by trial division by the swept
primes, read off the same flags only as far as the division goes, and, as
soon as `primes.is_prime` proves it prime (it is exact below 3.317e24,
Sorenson and Webster 2017), by the cofactor left of a row; a cofactor
above every swept prime can only hit p = x.  The classes
(x^i = -1, 2 x^j = -1 mod q) come from Bezout: with g = gcd(i, j) = u i + v j
they are empty or the g-th roots of t = (-1)^u (-1/2)^v.  Each row costs
two powers of t and, when both pass, one call of `arith.power_roots`,
whose classes are then checked.

What neither way names, the rough part r of m -- a composite of primes
the sweep does not flag (above its largest prime, or skipped by a sweep
that leaves primes out), or a prime too large to prove -- shares one
screen with the other rows' rough parts, which runs over the list of the
swept primes.  Over the odd primes up to 2*10^5 no row keeps one at any
k <= 52, 54, 56 or 60.  Since
2 p^j (p^i + 1) - (2 p^j + 1) = 2 p^k - 1, every row gcd divides
2 p^k - 1; with L the lcm of the rough parts, a prime with
gcd(L, 2 p^k - 1) = 1 keeps every rough part at once, and one gcd of L with
the product of 2 p^k - 1 over a batch of primes clears the whole batch.
At any other prime each row gcd's rough primes divide g = gcd(L, 2 p^k - 1),
so the row test with gcd(r, g) in place of m still sees all of them and
stays exact.
"""

from __future__ import annotations

import functools
import itertools
import math

from .arith import power_roots
from .factoring import divisors, factorize
from .primes import _MR_DETERMINISTIC_BELOW, class_counts, is_prime


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


# Primes per batch of the rough-part screen: one gcd for the whole batch,
# prime by prime only in a batch that fails.  Sweep timings are flat between
# 32 and 128.
_SCREEN_BATCH = 64


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(a, b) = u a + v b, for a, b >= 0."""
    u0, u1, v0, v1 = 1, 0, 0, 1
    while b:
        quotient, a, b = a // b, b, a % b
        u0, u1 = u1, u0 - quotient * u1
        v0, v1 = v1, v0 - quotient * v1
    return a, u0, v0


def _bad_residues(q: int, i: int, j: int) -> list[int]:
    """The x in [1, q) with x^i = -1 and 2 x^j = -1 (mod q), q an odd prime:
    the classes of p mod q at which q divides gcd(p^i + 1, 2 p^j + 1).

    With g = gcd(i, j) = u i + v j, each such x has x^g = t = (-1)^u (-1/2)^v,
    and each root of x^g = t is one when t^(i/g) = -1 and t^(j/g) = -1/2.  So
    the set is empty or the g-th roots of t, from `arith.power_roots`: none,
    or gcd(g, q - 1) of them.
    """
    g, u, v = _bezout(i, j)
    half = (q - 1) // 2  # -1/2 mod q
    t = pow(q - 1, u, q) * pow(half, v, q) % q
    if pow(t, i // g, q) != q - 1 or pow(t, j // g, q) != half:
        return []
    roots, d = power_roots(t, g, q), math.gcd(g, q - 1)
    if roots and len(roots) != d:
        raise ArithmeticError(f"x^{g} = {t} mod {q} has {len(roots)} roots, not {d}")
    return roots


def _prime_tables(
    flags: bytes, k: int
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int, int]]]:
    """The rows of k as `_survivor_counts` sweeps the odd primes p with
    flags[p] set.

    First, per row i, its kill classes: the (x, q) with q an odd prime of
    the row modulus and x a class at which q divides the row gcd at every
    p = x mod q, in increasing q.  The q are named two ways: by trial
    division of the odd parts of the row moduli by the swept primes, read
    off the flags lazily, so the division reads them only until nothing is
    left to divide; and as a cofactor, what is left of a row's odd part, as
    soon as `is_prime` proves it prime (it is exact below
    `_MR_DETERMINISTIC_BELOW`).  A cofactor above the largest swept prime
    can only hit p = x.  Second, the rows (i, j, r) whose rough part r --
    what neither way names: a composite of primes the flags do not set, or
    a prime too large to prove -- is above 1.  A sweep of every odd prime up
    to its largest one names every q up to it; one that leaves primes out
    hands theirs to the rough screen, which stays exact.
    """
    rows = _row_table(k)
    rough = [m // (m & -m) for _, _, m in rows]  # row gcds are odd
    kills: list[list[tuple[int, int]]] = [[] for _ in rows]

    def name(q: int, i: int, j: int) -> None:
        for x in _bad_residues(q, i, j):
            if pow(x, i, q) != q - 1 or (2 * pow(x, j, q) + 1) % q:
                raise ArithmeticError(f"k={k}, row {i}: {x} mod {q} is not bad")
            kills[i].append((x, q))

    def prove(i: int, j: int) -> None:
        if 1 < rough[i] < _MR_DETERMINISTIC_BELOW and is_prime(rough[i]):
            name(rough[i], i, j)
            rough[i] = 1

    for i, j, _ in rows:
        prove(i, j)
    left = math.prod(set(rough))
    # Lazy: the flags are read only as far as the division goes, on their
    # odd half, which holds every swept prime at half the ints to make.
    odd = range(1, len(flags), 2)
    for q in itertools.compress(odd, flags[1::2]) if left > 1 else ():
        if left % q:
            continue
        for i, j, _ in rows:
            if rough[i] % q == 0:
                while rough[i] % q == 0:
                    rough[i] //= q
                name(q, i, j)
                prove(i, j)
        if (left := math.prod(set(rough))) == 1:
            break
    return kills, [(i, j, r) for (i, j, _), r in zip(rows, rough) if r > 1]


def _survivor_counts(flags: bytes, k: int) -> list[int]:
    """len(_surviving_exponents(p, k)) at each p with flags[p] set, in
    increasing order; the flags are 0 or 1, and set only at odd primes.

    A row dies at p exactly when some prime q of its modulus divides both
    p^i + 1 and 2 p^j + 1.  For the q that `_prime_tables` names, that
    depends on p mod q only: `primes.class_counts` counts the rows that none
    of their kill classes hits, straight off the flags.  The primes it
    cannot name are in the rough parts r, which share one screen over the
    list of the swept primes, built only when some row has a rough part:
    every row gcd divides 2 p^k - 1, so its rough primes divide
    g = gcd(L, 2 p^k - 1), L the lcm of the r.  A batch of primes whose
    product of 2 p^k - 1 mod L is prime to L has g = 1 at each of its
    primes; in any other batch each prime with g != 1 tests its rows still
    alive with gcd(r, g) in place of the row modulus, which still has every
    rough prime of the row gcd.  At the primes up to 2*10^5 no rough part is
    left for any k <= 52, 54, 56 or 60.
    """
    kills, rough = _prime_tables(flags, k)
    groups = [classes for classes in kills if classes]
    counts = class_counts(groups, k + 1 - len(groups), flags)
    if not rough:
        return counts
    primes = list(itertools.compress(range(len(flags)), flags))
    lcm = math.lcm(*(r for _, _, r in rough))
    for start in range(0, len(primes), _SCREEN_BATCH):
        batch = primes[start : start + _SCREEN_BATCH]
        values = [2 * pow(p, k, lcm) - 1 for p in batch]
        product = 1
        for value in values:
            product = product * value % lcm
        if math.gcd(lcm, product) == 1:
            continue
        for n, (p, value) in enumerate(zip(batch, values), start):
            if (g := math.gcd(lcm, value)) == 1:
                continue
            for i, j, r in rough:
                alive = all(p % q != x for x, q in kills[i])
                if alive and not _row_survives(p, i, j, math.gcd(r, g)):
                    counts[n] -= 1
    return counts


def count_prime_power(p: int, k: int) -> int:
    """n(p^k,2) for an odd prime p, by direct gcds reduced modulo each row's
    root modulus."""
    return len(surviving_exponents(p, k))
