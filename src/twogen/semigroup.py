"""Numerical-semigroup ground truth.

A numerical semigroup is a subset of the non-negative integers containing
0, closed under addition, with finite complement (the gap set; its size is
the genus).  This module provides the two-generator basics -- genus via
Sylvester's formula, explicit gap sets -- and an exhaustive census of all
numerical semigroups up to a genus bound.  The census is one depth-first
walk of the standard tree, whose children remove one minimal generator
beyond the Frobenius number; each child's gaps and minimal generators
follow from its parent's (Fromentin & Hivert, *Exploring the tree of
numerical semigroups*, 2016).  As there, the walk runs on bit vectors: each
node is a generator mask and a gap mask, and a census level holds each
semigroup as the two packed into one int.  The census is the independent
oracle the rest of the package is validated against.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from typing import NamedTuple

GENUS_CAP = 25
# Where the gap half of a census entry starts: every minimal generator of a
# semigroup of genus g <= GENUS_CAP is at most 2g + 1 < SHIFT.
SHIFT = 2 * GENUS_CAP + 2
_GENERATORS = (1 << SHIFT) - 1


class NotCoprime(ValueError):
    """The two generators share a factor, so they generate no numerical semigroup."""


class BudgetExceeded(ValueError):
    """The requested genus is beyond the enumeration cap GENUS_CAP."""


class _TwoGeneratorFields(NamedTuple):
    a: int
    b: int


class TwoGeneratorSemigroup(_TwoGeneratorFields):
    """The semigroup of all non-negative combinations x*a + y*b, gcd(a,b)=1."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> TwoGeneratorSemigroup:
        if a < 2 or b < 2:
            raise ValueError(f"generators must be >= 2, got ({a}, {b})")
        if a >= b:
            raise ValueError(f"generators must satisfy a < b, got ({a}, {b})")
        if math.gcd(a, b) != 1:
            raise NotCoprime(f"gcd({a}, {b}) != 1")
        return tuple.__new__(cls, (a, b))


_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\0\1")


def bit_flags(mask: int) -> bytes:
    """One byte per bit of a non-negative mask, lowest bit first: byte s is
    1 iff bit s is set.  `itertools.compress(labels, bit_flags(mask))` picks
    the labels of the set bits without a Python-level loop."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_TO_FLAG)


def sylvester_genus(s: TwoGeneratorSemigroup) -> int:
    """Genus of <a,b>: (a-1)(b-1)/2."""
    return (s.a - 1) * (s.b - 1) // 2


def gap_set(s: TwoGeneratorSemigroup) -> tuple[int, ...]:
    """The positive integers not representable as x*a + y*b with x, y >= 0."""
    frobenius = s.a * s.b - s.a - s.b
    member = 1  # bit n set iff n is representable
    for n in range(1, frobenius + 1):
        if (n >= s.a and member >> (n - s.a) & 1) or (n >= s.b and member >> (n - s.b) & 1):
            member |= 1 << n
    return tuple(n for n in range(1, frobenius + 1) if not member >> n & 1)


def _check_genus(max_genus: int) -> None:
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    if max_genus > GENUS_CAP:
        raise BudgetExceeded(f"genus {max_genus} exceeds the enumeration cap {GENUS_CAP}")


def _walk(max_genus: int) -> Iterator[tuple[int, int, int]]:
    """Preorder walk of the semigroup tree down to max_genus, yielding
    (genus, generator mask, gap mask); bit s of a mask is set iff s is a
    minimal generator, resp. a gap.

    The child S' = S minus m, for a minimal generator m above the Frobenius
    number F of S, has the gaps of S plus m.  If m is the multiplicity mu,
    S was ordinary and the generators of S' are m+1..2m+1.  Otherwise they
    are those of S without m, plus m + mu if it is irreducible in S': every
    generator of S lies in [mu, F + mu], and each x > m + mu is mu plus an
    element of S', so m + mu is the only candidate.  It is irreducible iff
    no s in 1..m+mu-1 has both s and m + mu - s in S', one bitset test
    against the gap mask reflected at width W, whose bit W - h is set iff
    h is a gap.  Children are visited in increasing m, so each genus comes
    out sorted by gap tuple, the path of the node in the tree.
    """
    # Gaps are below 2g and m + mu <= 3g + 2 for a parent of genus g < max_genus.
    width = 4 * max_genus + 4
    # (generators, gaps, reflected gaps, frobenius + 1, genus, multiplicity)
    stack = [(0b10, 0, 0, 0, 0, 1)]
    while stack:
        gens, holes, mirror, above, genus, mu = stack.pop()
        yield genus, gens, holes
        if genus == max_genus:
            continue
        genus += 1
        # Push in decreasing m so that the smallest m is popped first.
        m = gens.bit_length() - 1
        while m >= above:
            bit = 1 << m
            child_holes = holes | bit
            child_mirror = mirror | 1 << (width - m)
            if m == mu:
                ordinary = ((bit << 1) - 1) << (m + 1)  # m+1..2m+1
                stack.append((ordinary, child_holes, child_mirror, m + 1, genus, m + 1))
            else:
                child_gens = gens ^ bit
                new = m + mu
                if not ((1 << new) - 2) & ~(child_holes | child_mirror >> (width - new)):
                    child_gens |= 1 << new
                stack.append((child_gens, child_holes, child_mirror, m + 1, genus, mu))
            m = (gens & (bit - 1)).bit_length() - 1


def enumerate_by_genus(max_genus: int) -> list[list[int]]:
    """All numerical semigroups of genus 0..max_genus, one list per genus.

    Each semigroup is one int, `generators | gaps << SHIFT`: bit s is set
    iff s is a minimal generator, and bit SHIFT + s iff s is a gap.  Genus 0
    is `[0b10]`, the generator 1 and no gap.  Children of a semigroup S are
    S minus one minimal generator above the Frobenius number, which reaches
    every semigroup exactly once.  Levels are sorted by gap set, so output
    order is deterministic.
    """
    _check_genus(max_genus)
    levels: list[list[int]] = [[] for _ in range(max_genus + 1)]
    for genus, gens, holes in _walk(max_genus):
        levels[genus].append(gens | holes << SHIFT)
    return levels


def count_by_genus(max_genus: int) -> list[tuple[int, int]]:
    """(total, two-generator) census counts for genus 0..max_genus.

    Equal to the sizes and `count_two_generator` values of the levels of
    `enumerate_by_genus`, without building any level.
    """
    _check_genus(max_genus)
    totals = [0] * (max_genus + 1)
    pairs = [0] * (max_genus + 1)
    for genus, gens, _ in _walk(max_genus):
        totals[genus] += 1
        if gens.bit_count() == 2:
            pairs[genus] += 1
    return list(zip(totals, pairs))


def masks_of_genus(genus: int) -> Iterator[tuple[int, int]]:
    """(generator mask, gap mask) of each semigroup of the given genus, in
    the order of `enumerate_by_genus(genus)[genus]`, one at a time from the
    walk.  The genus is checked at the call, before any item is read."""
    _check_genus(genus)
    return ((gens, holes) for g, gens, holes in _walk(genus) if g == genus)


def count_two_generator(level: list[int]) -> int:
    """How many census entries have a minimal generating set of size exactly 2."""
    return sum(1 for entry in level if (entry & _GENERATORS).bit_count() == 2)
