"""Primes: the Miller-Rabin test, the sieve, and the class sweep over the
sieve's flags.

`is_prime` is deterministic below ~3.3e24 (Miller-Rabin, fewest proven
bases) and probabilistic above (40 extra rounds, error < 4**-40).  The one
sieve is `_prime_flags`, a bytearray of Eratosthenes flags that the lists of
primes, the flags of a sweep (`odd_prime_flags`) and the small-prime product
of `factoring` all read.  `class_counts` counts, at each flagged n, the
groups of residue classes that miss n.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import sys
from collections.abc import Sequence

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k prime bases (Jaeschke
# 1993; Sorenson and Webster 2015; OEIS A014233): Miller-Rabin with the
# first k bases of _MR_WITNESSES is exact below psi_k.
_MR_PSI = (
    2047,
    1_373_653,
    25_326_001,
    3_215_031_751,
    2_152_302_898_747,
    3_474_749_660_383,
    341_550_071_728_321,
    341_550_071_728_321,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    3_825_123_056_546_413_051,
    318_665_857_834_031_151_167_461,
    3_317_044_064_679_887_385_961_981,
)
_MR_DETERMINISTIC_BELOW = _MR_PSI[-1]
_MR_EXTRA_ROUNDS = 40

def check_prime_bound(prime_bound: int) -> None:
    """A sweep over the odd primes <= prime_bound needs at least one."""
    if prime_bound < 3:
        raise ValueError(f"prime_bound must be >= 3, got {prime_bound}")


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
    if n < _MR_DETERMINISTIC_BELOW:
        # The first k bases, for the least k with n < psi_k.
        witnesses = _MR_WITNESSES[: bisect.bisect_right(_MR_PSI, n) + 1]
    else:
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


def _prime_flags(n: int) -> bytearray:
    """Sieve of Eratosthenes: flags[i] == 1 iff i is prime, for 0 <= i <= n,
    n >= 1."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, by sieve of Eratosthenes."""
    if n < 2:
        return []
    return list(itertools.compress(range(n + 1), _prime_flags(n)))


def odd_primes_up_to(n: int) -> list[int]:
    """All odd primes <= n."""
    if n < 3:
        return []
    return list(itertools.compress(range(n + 1), odd_prime_flags(n)))


def odd_prime_flags(prime_bound: int) -> bytearray:
    """The flags a sweep over the odd primes p <= prime_bound takes: byte n
    is 1 exactly when n is an odd prime, for 0 <= n <= prime_bound.  Raises
    ValueError when no odd prime is that small."""
    check_prime_bound(prime_bound)
    flags = _prime_flags(prime_bound)
    flags[2] = 0
    return flags


_WINDOW = 1 << 16  # integers per window of `class_counts`
_WHEEL = 2 * 3 * 5  # the residues of a window's lanes
# Flag to mask byte: 0xFF at each unflagged position, 0 at each flagged one.
_UNFLAGGED = b"\xff" + bytes(255)


def class_counts(
    groups: Sequence[Sequence[tuple[int, int]]], constant: int, flags: bytes
) -> list[int]:
    """At each n with flags[n] == 1, in increasing order (every flag is 0 or
    1): `constant` >= 0 plus the number of groups with no class (a, q) that
    hits n = a (mod q).

    A segmented sieve on the wheel mod _WHEEL, window by window of _WINDOW
    integers that flag some n.  A window from lo lays out only its lanes,
    the r in [0, _WHEEL) at which it flags some n = r (mod _WHEEL) above
    lo, interleaved row by row: position len(lanes)*t + j is
    n = lo + _WHEEL*t + lanes[j] (8 lanes at the odd primes above 5).  Per
    group a bytearray of ones, each class zeroed on each lane j by one slice
    from t = (a - lo - lanes[j])/g * (_WHEEL/g)^-1 mod q/g, g =
    gcd(q, _WHEEL), when g | a - lo - lanes[j], adds to a total from
    `constant`, one digit per position, never carried.  A digit never
    reaches all ones, so one-byte digits are read back by setting the
    unflagged ones to 0xFF and deleting them.
    """
    # The all-ones digit is kept free: at one byte it marks the unflagged n.
    width = next(w for w in (1, 2, 4, 8) if constant + len(groups) < (1 << 8 * w) - 1)
    one = (1).to_bytes(width, sys.byteorder)
    low = one.index(1)  # the byte of a digit that holds its 1
    steps = []  # per class: a, g, the period q/g in rows, and (_WHEEL/g)^-1
    for group in groups:
        steps.append([])
        for a, q in group:
            g = math.gcd(q, _WHEEL)
            steps[-1].append((a, g, q // g, pow(_WHEEL // g, -1, q // g)))
    counts: list[int] = []
    for lo in range(0, len(flags), _WINDOW):
        # Up to the last flagged n; empty, as rfind gives -1, if none is.
        if not (window := flags[lo : flags.rfind(1, lo, lo + _WINDOW) + 1]):
            continue
        rows = -(-len(window) // _WHEEL)
        window += bytes(rows * _WHEEL - len(window))
        columns = [window[r::_WHEEL] for r in range(_WHEEL)]
        lanes = [r for r in range(_WHEEL) if 1 in columns[r]]
        size = rows * len(lanes)
        swept = bytearray(size)
        for j, r in enumerate(lanes):
            swept[j :: len(lanes)] = columns[r]
        ones = one * size
        total = constant * int.from_bytes(ones, sys.byteorder)
        for classes in steps:
            digits = bytearray(ones)
            for a, g, period, inverse in classes:
                for j, r in enumerate(lanes):
                    offset = a - lo - r
                    if offset % g == 0 and (t := offset // g * inverse % period) < rows:
                        start = width * (len(lanes) * t + j) + low
                        hits = (rows - 1 - t) // period + 1
                        digits[start :: width * len(lanes) * period] = bytes(hits)
            total += int.from_bytes(digits, sys.byteorder)
        if width == 1:
            total |= int.from_bytes(swept.translate(_UNFLAGGED), sys.byteorder)
            counts += total.to_bytes(size, sys.byteorder).translate(None, b"\xff")
        else:
            alive = memoryview(total.to_bytes(width * size, sys.byteorder))
            counts += itertools.compress(alive.cast("BHIQ"[width.bit_length() - 1]), swept)
    return counts
