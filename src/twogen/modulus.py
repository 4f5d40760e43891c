"""The governing modulus M(k) and its per-exponent ingredients.

Row i of the prime-power count (1 <= i <= k) is decided by the class of p
modulo m_k(i) = 2^(i/gcd(i,k)) - (-1)^(k/gcd(i,k)), `counting.row_modulus`.
The radical of the product of all m_k(i) is the modulus M(k): n(p^k,2)
depends only on the class of p mod M(k).  The radical is assembled from the
factorizations of the distinct m_k(i) > 1, each factored once (never by
factoring the astronomically large product), and a modulus that resists
the factoring budget degrades the report to an explicit "incomplete" status
rather than failing the whole computation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .counting import _row_table, _survivor_counts
from .factoring import FactorizationTimeout, Factorization, factorize
from .primes import odd_flagged, odd_prime_flags


class ModulusReport(NamedTuple):
    """M(k) with its factorization and the per-row moduli m_k(i)."""

    k: int
    per_i: tuple[tuple[int, int], ...]  # (i, m_k(i))
    modulus: int  # radical of the product of all factorable m_k(i)
    factors: Factorization
    unfactored: tuple[int, ...]  # m_k(i) values whose factorization timed out

    @property
    def complete(self) -> bool:
        return not self.unfactored


class DependenceReport(NamedTuple):
    """Empirical check that n(p^k,2) is constant on residue classes mod M(k)."""

    k: int
    modulus: int
    primes_checked: int
    classes: tuple[tuple[int, int], ...]  # (residue mod M, count value)
    violations: tuple[tuple[int, int, int, int], ...]  # (p, residue, got, expected)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def values(self) -> set[int]:
        return {value for _, value in self.classes}


def _row_moduli(k: int) -> tuple[tuple[tuple[int, int], ...], list[int]]:
    """The pairs (i, m_k(i)) for 1 <= i <= k, read off `counting._row_table`,
    and the distinct m_k(i) > 1 in increasing order, the order they are factored in."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    per_i = tuple((i, m) for i, _, m in _row_table(k)[1:])
    return per_i, sorted({m for _, m in per_i} - {1})


def modulus_of(k: int, cache=None) -> ModulusReport:
    """Compute M(k) as the union of the prime supports of the m_k(i), each
    distinct m_k(i) > 1 factored once; one that times out is unfactored."""
    per_i, moduli = _row_moduli(k)
    primes: set[int] = set()
    unfactored = []
    for m in moduli:
        try:
            primes.update(p for p, _ in factorize(m, cache).factors)
        except FactorizationTimeout:
            unfactored.append(m)
    ordered = sorted(primes)
    factors = Factorization(math.prod(ordered), tuple((p, 1) for p in ordered))
    return ModulusReport(k, per_i, factors.value, factors, tuple(unfactored))


def dependence_check(k: int, prime_bound: int, cache=None) -> DependenceReport:
    """Group odd primes p <= bound (p not dividing M(k)) by p mod M(k) and
    confirm the direct count n(p^k,2) is constant within each group.  The
    sweep takes the sieve flags of every odd prime, and the primes of M(k)
    are skipped as the counts are read back.  k is checked before the sieve.
    Raises the FactorizationTimeout of the least unfactored m_k(i), hunting
    no larger one, and ValueError when every odd prime <= bound divides M(k)."""
    moduli = _row_moduli(k)[1]
    flags = odd_prime_flags(prime_bound)
    support: set[int] = set()
    for m in moduli:
        support.update(p for p, _ in factorize(m, cache).factors)
    m = math.prod(support)
    checked = flags.count(1) - sum(q <= prime_bound for q in support)
    if not checked:
        raise ValueError(
            f"no odd prime <= {prime_bound} is prime to M({k}) = {m}"
        )
    classes: dict[int, int] = {}
    violations = []
    for p, value in zip(odd_flagged(flags), _survivor_counts(flags, k)):
        if m % p == 0:
            continue
        residue = p % m
        expected = classes.setdefault(residue, value)
        if value != expected:
            violations.append((p, residue, value, expected))
    return DependenceReport(
        k, m, checked, tuple(sorted(classes.items())), tuple(violations)
    )
