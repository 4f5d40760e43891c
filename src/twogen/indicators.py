"""Residue-class indicator algebra.

An Indicator with residue a and prime modulus q is the 0/1 function that
is 0 exactly on the class a mod q; equivalently it is 1 iff
gcd(n - a, q) = 1, which is how it captures "this gcd equals 1" conditions.
For composite moduli the indicator splits into one factor per distinct
prime, so it only ever depends on the radical of the modulus.

An indicator evaluated at a power n^s is a product of indicators evaluated
at n itself, one X(r,q) per root r of x^s = a mod q, and the constant 1
when there is none: all of it is `arith.power_roots`, which reduces any
exponent to d = gcd(s, q-1) with the RSA step (raising to an exponent
coprime to q-1 permutes residues) and takes the d-th roots.
`strip_exponent` keeps only the first step, n^s = a as n^d = r^d, and
`expand_power` only the second, for s | q-1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import power_roots
from .factoring import factorize
from .primes import is_prime


class _IndicatorFields(NamedTuple):
    a: int
    q: int


class Indicator(_IndicatorFields):
    """1 if n is outside the class a mod q (q prime), else 0."""

    __slots__ = ()

    def __new__(cls, a: int, q: int) -> "Indicator":
        if not is_prime(q):
            raise ValueError(f"modulus must be prime, got {q}")
        return cls._of_prime(a, q)

    @classmethod
    def _of_prime(cls, a: int, q: int) -> "Indicator":
        """Build X(a,q) for a q already proven prime, skipping the check."""
        return tuple.__new__(cls, (a % q, q))

    def __call__(self, n: int) -> int:
        return 0 if (n - self.a) % self.q == 0 else 1

    def __str__(self) -> str:
        return f"X({self.a},{self.q})"


def _sort_key(x: Indicator) -> tuple[int, int]:
    return (x.q, x.a)


def _product(factors) -> str:
    """The text of a product of indicators, `X(a,q)*X(b,r)`; 1 when empty."""
    return "*".join(map(str, factors)) or "1"


def decompose(a: int, q: int, cache=None) -> tuple[Indicator, ...]:
    """Split the indicator of a mod q (any q >= 2) into one prime-modulus
    factor per distinct prime of q; their product is the indicator."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    primes = [p for p, _ in factorize(q, cache).factors]
    return tuple(Indicator._of_prime(a, p) for p in sorted(primes))


def strip_exponent(x: Indicator, s: int) -> tuple[Indicator, int]:
    """Rewrite x evaluated at n^s as an indicator at n^t, t = gcd(s, q-1).

    For any root r of x^s = a (`arith.power_roots`), n^s = r^s exactly when
    n/r has order dividing t, so the condition n^s = a becomes n^t = r^t.
    Without a root, a is no t-th power either and x is returned unchanged.
    """
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    q = x.q
    t = math.gcd(s, q - 1)
    roots = power_roots(x.a, s, q)
    if not roots:
        return x, t
    return Indicator._of_prime(pow(roots[0], t, q), q), t


def expand_power(x: Indicator, s: int) -> tuple[Indicator, ...]:
    """Rewrite x at n^s (s dividing q-1) as the product of X(r,q) at n over
    the s-th roots r of its residue (`arith.power_roots`); () when none."""
    q = x.q
    if s < 1 or (q - 1) % s != 0:
        raise ValueError(f"exponent {s} must divide q - 1 = {q - 1}")
    return tuple(Indicator._of_prime(r, q) for r in power_roots(x.a, s, q))


def reduce_power(a: int, q: int, s: int, cache=None) -> tuple[Indicator, ...]:
    """Fully reduce the indicator of a mod q at argument n^s to first-power,
    prime-modulus factors, distinct and sorted by (q, a): per prime p of q,
    in increasing order, one X(r, p) at n for each s-th root r of a mod p
    (`arith.power_roots`, sorted).  The empty tuple is the constant 1.
    It equals `decompose` followed by `power_roots` on each factor."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    return tuple(
        Indicator._of_prime(r, p)
        for p, _ in factorize(q, cache).factors
        for r in power_roots(a % p, s, p)
    )


def _residue_model(products) -> dict[int, tuple[list[int], list[int], bool]]:
    """Per prime of the products (tuples of factors X(a,q)), in increasing
    order: every residue its factors list, the listed units (nonzero
    residues), and whether the complement cell -- the units mod q that avoid
    every listed residue -- is nonempty.  `synthesis.minimal_modulus` keeps
    the primes that list a unit; the case table of `rendering` gives each
    prime one option per listed unit, and the complement when it is open."""
    listed: dict[int, set[int]] = {}
    for factors in products:
        for x in factors:
            listed.setdefault(x.q, set()).add(x.a)
    model = {}
    for q in sorted(listed):
        residues = sorted(listed[q])
        units = [a for a in residues if a != 0]
        model[q] = (residues, units, q - 1 > len(units))
    return model
