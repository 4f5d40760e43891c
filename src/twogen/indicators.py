"""Residue-class indicator algebra.

An Indicator with residue a and prime modulus q is the 0/1 function that
is 0 exactly on the class a mod q; equivalently it is 1 iff
gcd(n - a, q) = 1, which is how it captures "this gcd equals 1" conditions.
For composite moduli the indicator splits into one factor per distinct
prime, so it only ever depends on the radical of the modulus.

The two exponent-stripping tools rewrite an indicator evaluated at a power
n^s as a product of indicators evaluated at n itself: first the invertible
part of the exponent is absorbed into the residue (the RSA trick: raising
to an exponent coprime to q-1 permutes residues), then the remaining
exponent t | q-1 either kills the condition entirely (the residue has no
t-th root) or splits it over the t roots.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .arith import factorize, is_prime, mod_inverse


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


def decompose(a: int, q: int, cache=None) -> tuple[Indicator, ...]:
    """Split the indicator of a mod q (any q >= 2) into one prime-modulus
    factor per distinct prime of q; their product is the indicator."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    primes = [p for p, _ in factorize(q, cache).factors]
    return tuple(Indicator._of_prime(a, p) for p in sorted(primes))


def strip_exponent(x: Indicator, s: int) -> tuple[Indicator, int]:
    """Rewrite x evaluated at n^s as an indicator at n^t with t | q-1.

    Splits the exponent (reduced mod q-1, since n^s and n^s' agree on all
    residues whenever s = s' (mod q-1) and both are >= 1) as t*e with
    t = gcd of the reduced exponent and q-1, and e invertible mod q-1.
    Raising to e permutes residues mod q, with inverse d = e^-1 mod q-1,
    so the condition n^s = a becomes n^t = a^d.
    """
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    q = x.q
    group_order = q - 1
    if group_order == 1:
        return x, 1
    reduced = (s - 1) % group_order + 1
    t = math.gcd(reduced, group_order)
    step = group_order // t
    e = reduced // t
    while math.gcd(e, group_order) != 1:
        e += step
    d = mod_inverse(e, group_order)
    return Indicator._of_prime(pow(x.a, d, q), q), t


def expand_power(x: Indicator, s: int) -> tuple[Indicator, ...]:
    """Rewrite x at n^s (s dividing q-1) as a product of indicators at n.

    Returns the empty tuple -- the constant-1 product -- when the residue
    has no s-th root mod q, as Euler's criterion a^((q-1)/s) != 1 tells.
    Otherwise the condition n^s = a splits over the s roots of a, found by
    Adleman-Manders-Miller.  Write q-1 = t*m with t made of the primes of
    s; raising to s permutes the part of order m, so z = a^(s^-1 mod m)
    leaves b = a*z^-s in the cyclic part of order t, generated by c = g^m
    for any g that is no r-th power for each prime r of s.  A Pohlig-Hellman
    discrete log, one prime digit of t at a time, gives c^log = b with
    s | log, and the roots are z*c^(log/s + j*t/s) for j < s.
    """
    q, a = x.q, x.a
    if s < 1 or (q - 1) % s != 0:
        raise ValueError(f"exponent {s} must divide q - 1 = {q - 1}")
    if s == 1 or a == 0:
        # n^s is divisible by q exactly when n is.
        return (x,)
    if pow(a, (q - 1) // s, q) != 1:
        return ()
    primes = [r for r, _ in factorize(s).factors]
    t, m, digits = 1, q - 1, []
    for r in primes:
        while m % r == 0:
            t, m = t * r, m // r
            digits.append(r)
    g = 2
    while any(pow(g, (q - 1) // r, q) == 1 for r in primes):
        g += 1
    c = pow(g, m, q)
    z = pow(a, pow(s, -1, m), q)
    b = a * pow(z, -s, q) % q
    log, done = 0, 1
    for r in digits:
        target = pow(b * pow(c, -log, q), t // (done * r), q)
        zeta = pow(c, t // r, q)  # of order r
        log += done * next(d for d in range(r) if pow(zeta, d, q) == target)
        done *= r
    roots = [z * pow(c, log // s + j * (t // s), q) % q for j in range(s)]
    return tuple(sorted((Indicator._of_prime(r, q) for r in roots), key=_sort_key))


def reduce_power(a: int, q: int, s: int, cache=None) -> tuple[Indicator, ...]:
    """Fully reduce the indicator of a mod q at argument n^s to first-power,
    prime-modulus factors.  The empty tuple is the constant 1."""
    if q < 2:
        raise ValueError(f"modulus must be >= 2, got {q}")
    if s < 1:
        raise ValueError(f"exponent must be >= 1, got {s}")
    collected: set[Indicator] = set()
    for x in decompose(a, q, cache):
        if s > 1:
            x, t = strip_exponent(x, s)
            collected.update(expand_power(x, t))
        else:
            collected.add(x)
    return tuple(sorted(collected, key=_sort_key))
