"""Reduction of gcd(p^alpha + 1, 2 p^beta + 1) to a single residue test.

Working where 2 is invertible, p^alpha + 1 and p^beta + 2^-1 are both of
the shape p^r - (-1)^s * 2^t.  Running the Euclidean algorithm on the pair
(alpha, beta) and carrying (s, t) along with the remainders r rewrites the
gcd, step by step, into

    gcd(p^delta - sign * 2^rho,  2^(alpha/delta) - (-1)^((alpha-beta)/delta))

with delta = gcd(alpha, beta).  The second argument is an odd constant c
independent of p, so after folding sign * 2^rho into a residue a mod c the
whole gcd collapses to gcd(p^delta - a, c).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .primes import check_prime_bound, odd_primes_up_to


class EuclideanTrace(NamedTuple):
    """Remainders and quotients of the Euclidean algorithm on (alpha, beta),
    plus the sign exponents s and unit exponents t carried along.

    r[i] = a[i] * r[i+1] + r[i+2] for each quotient, with r ending in
    (gcd, 0); s and t satisfy the same two-term recurrence
    v[i+2] = v[i] - a[i] * v[i+1], started from s = (1, 1) and t = (0, -1).
    """

    r: tuple[int, ...]
    a: tuple[int, ...]
    s: tuple[int, ...]
    t: tuple[int, ...]

    @property
    def n(self) -> int:
        """Number of division steps; r[n] is the gcd and r[n+1] = 0."""
        return len(self.a)

    @property
    def gcd(self) -> int:
        return self.r[-2]


class ReducedGcd(NamedTuple):
    """The target shape gcd(p^delta - sign * 2^two_exp, modulus).

    two_exp may be negative (2 is treated as invertible); modulus is the
    odd constant 2^(alpha/delta) - (-1)^((alpha-beta)/delta).
    """

    delta: int
    sign: int
    two_exp: int
    modulus: int


class ReductionCheck(NamedTuple):
    """Result of sweeping the reduction identity over odd primes."""

    alpha: int
    beta: int
    prime_bound: int
    primes_checked: int
    counterexample: tuple[int, int, int] | None  # (p, lhs, rhs)

    @property
    def ok(self) -> bool:
        return self.counterexample is None


def euclidean_trace(alpha: int, beta: int) -> EuclideanTrace:
    """Run the Euclidean algorithm on (alpha, beta) tracking all four sequences."""
    if alpha < 1 or beta < 1:
        raise ValueError(f"need alpha, beta >= 1, got ({alpha}, {beta})")
    r = [alpha, beta]
    a: list[int] = []
    s = [1, 1]
    t = [0, -1]
    while r[-1] != 0:
        quot, rem = divmod(r[-2], r[-1])
        a.append(quot)
        s.append(s[-2] - quot * s[-1])
        t.append(t[-2] - quot * t[-1])
        r.append(rem)
    return EuclideanTrace(tuple(r), tuple(a), tuple(s), tuple(t))


def reduce(alpha: int, beta: int) -> ReducedGcd:
    """Reduce gcd(p^alpha + 1, 2 p^beta + 1) to its p-independent target shape.

    The sign is (-1)**s[n] as produced by the trace; no pattern in it is
    assumed anywhere.  The modulus is computed here, not read from
    `counting.row_modulus`: the direct count that checks it must not share it.
    """
    trace = euclidean_trace(alpha, beta)
    n = trace.n
    delta = trace.gcd
    sign = -1 if trace.s[n] % 2 else 1
    two_exp = trace.t[n]
    parity = ((alpha - beta) // delta) % 2
    modulus = 2 ** (alpha // delta) - (-1 if parity else 1)
    return ReducedGcd(delta, sign, two_exp, modulus)


def normalize_target(form: ReducedGcd) -> tuple[int, int]:
    """Fold sign * 2^two_exp into a residue a in [0, c), so the original gcd
    equals gcd(p^delta - a, c).  Negative two_exp uses the inverse of 2 mod c,
    which exists because c is odd.  c = 1 yields (0, 1)."""
    c = form.modulus
    if c == 1:
        return 0, 1
    return form.sign * pow(2, form.two_exp, c) % c, c


def verify_reduction(alpha: int, beta: int, prime_bound: int) -> ReductionCheck:
    """Check gcd(p^alpha+1, 2p^beta+1) == gcd(p^delta - a, c) for odd p <= bound."""
    check_prime_bound(prime_bound)
    form = reduce(alpha, beta)
    a, c = normalize_target(form)
    checked = 0
    for p in odd_primes_up_to(prime_bound):
        lhs = math.gcd(p**alpha + 1, 2 * p**beta + 1)
        rhs = math.gcd(p**form.delta - a, c)
        checked += 1
        if lhs != rhs:
            return ReductionCheck(alpha, beta, prime_bound, checked, (p, lhs, rhs))
    return ReductionCheck(alpha, beta, prime_bound, checked, None)
