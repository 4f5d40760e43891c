"""Numerical-semigroup ground truth.

A numerical semigroup is a subset of the non-negative integers containing
0, closed under addition, with finite complement (the gap set; its size is
the genus).  This module provides the two-generator basics -- genus via
Sylvester's formula, explicit gap sets -- and an exhaustive census up to a
genus bound, the oracle the rest of the package is validated against: one
depth-first walk of the standard tree, whose children remove one minimal
generator beyond the Frobenius number.  On bit masks, each child's gaps and
minimal generators follow from its parent's (Fromentin & Hivert, *Exploring
the tree of numerical semigroups*, 2016); the last genus is built straight
from its parents, and the counts take its size from their generators.  A
census level holds each semigroup as its two masks packed into one int.
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
_CHUNK = 1024  # entries added to the last level between two steps of the walk


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


def _walk(max_genus: int, levels: list[list[int]], root: int = 0b10) -> Iterator[None]:
    """Preorder walk of the semigroup tree from the entry root to max_genus
    that appends each entry to `levels[genus]`.  It yields each time
    `levels[max_genus]` has grown by _CHUNK entries, and at the end.

    The child S' = S minus m, for a minimal generator m above the Frobenius
    number F of S, has the gaps of S plus m.  If m is the multiplicity mu,
    S was ordinary and the generators of S' are m+1..2m+1.  Otherwise they
    are those of S without m, plus m + mu if it is irreducible in S': every
    generator of S lies in [mu, F + mu], and each x > m + mu is mu plus an
    element of S', so m + mu is the only candidate.  It is irreducible iff
    no s in 1..m+mu-1 has both s and m + mu - s in S', one bitset test
    against the gap mask reflected at width W, whose bit W - h is set iff
    h is a gap.  Children are visited in increasing m, so each genus comes
    out sorted by gap tuple, the path of the node in the tree.  Those of
    genus max_genus are built straight from their parent, never stacked.
    """
    # Gaps are below 2g and m + mu <= 3g + 2 for a parent of genus g < max_genus.
    width = 4 * max_genus + 4
    gens, holes = root & _GENERATORS, root >> SHIFT
    mirror, mu = int(f"{holes:0{width + 1}b}"[::-1], 2), (gens & -gens).bit_length() - 1
    # (generators, gaps, reflected gaps, frobenius + 1, genus, multiplicity)
    stack = [(gens, holes, mirror, holes.bit_length(), holes.bit_count(), mu)]
    deepest, mark = levels[max_genus], _CHUNK
    while stack:
        gens, holes, mirror, above, genus, mu = stack.pop()
        levels[genus].append(gens | holes << SHIFT)
        genus += 1
        if genus < max_genus:
            # Push in decreasing m so that the smallest m is popped first.
            m = gens.bit_length() - 1
            while m >= above:
                bit = 1 << m
                child_holes, child_mirror = holes | bit, mirror | 1 << (width - m)
                if m == mu:  # the generators m+1..2m+1
                    child_gens, child_mu = ((bit << 1) - 1) << (m + 1), m + 1
                else:
                    child_gens, child_mu, new = gens ^ bit, mu, m + mu
                    if not ((1 << new) - 2) & ~(child_holes | child_mirror >> (width - new)):
                        child_gens |= 1 << new
                stack.append((child_gens, child_holes, child_mirror, m + 1, genus, child_mu))
                m = (gens & (bit - 1)).bit_length() - 1
        elif genus == max_genus:
            rest = gens >> above << above  # the same children, in increasing m
            while rest:
                bit = rest & -rest
                rest, m, child_holes = rest ^ bit, bit.bit_length() - 1, holes | bit
                child_gens, new, child_mirror = gens ^ bit, m + mu, mirror | 1 << (width - m)
                if m == mu:
                    child_gens = ((bit << 1) - 1) << (m + 1)
                elif not ((1 << new) - 2) & ~(child_holes | child_mirror >> (width - new)):
                    child_gens |= 1 << new
                deepest.append(child_gens | child_holes << SHIFT)
            if len(deepest) >= mark:
                yield
                mark = len(deepest) + _CHUNK
    yield


def _steps(max_genus: int, root: int = 0b10) -> Iterator[list[list[int]]]:
    """The level lists of `_walk` at each of its steps, emptied after each."""
    levels: list[list[int]] = [[] for _ in range(max_genus + 1)]
    for _ in _walk(max_genus, levels, root):
        yield levels
        for level in levels:
            level.clear()


def enumerate_by_genus(max_genus: int) -> list[list[int]]:
    """All numerical semigroups of genus 0..max_genus, one list per genus.

    Each semigroup is one int, `generators | gaps << SHIFT`: bit s is set
    iff s is a minimal generator, and bit SHIFT + s iff s is a gap.  Genus 0
    is `[0b10]`, the generator 1 and no gap.  Levels are sorted by gap set,
    so output order is deterministic.
    """
    _check_genus(max_genus)
    levels: list[list[int]] = [[] for _ in range(max_genus + 1)]
    for _ in _walk(max_genus, levels):
        pass
    return levels


def count_by_genus(max_genus: int) -> list[tuple[int, int]]:
    """(total, two-generator) census counts for genus 0..max_genus.

    Equal to the sizes and `count_two_generator` values of the levels of
    `enumerate_by_genus`, keeping no level.  The walk stops at the parents of
    the last genus: each has a child per generator above its Frobenius number,
    with at most one generator fewer, so only those of at most three go on.
    """
    _check_genus(max_genus)
    if max_genus == 0:
        return [(1, 0)]
    totals, pairs = [0] * (max_genus + 1), [0] * (max_genus + 1)
    for levels in _steps(max_genus - 1):
        for entry in levels[-1]:
            gens = entry & _GENERATORS
            totals[-1] += (gens >> (entry >> SHIFT).bit_length()).bit_count()
            if gens.bit_count() <= 3:
                pairs[-1] += sum(count_two_generator(c[-1]) for c in _steps(max_genus, entry))
        for g, level in enumerate(levels):
            totals[g] += len(level)
            pairs[g] += count_two_generator(level)
    return list(zip(totals, pairs))


def masks_of_genus(genus: int) -> Iterator[tuple[int, int]]:
    """(generator mask, gap mask) of each semigroup of the given genus, in
    the order of `enumerate_by_genus(genus)[genus]`, _CHUNK or so at a time
    from the walk.  The genus is checked at the call, before any is read."""
    _check_genus(genus)
    return ((e & _GENERATORS, e >> SHIFT) for levels in _steps(genus) for e in levels[-1])


def count_two_generator(level: list[int]) -> int:
    """How many census entries have a minimal generating set of size exactly 2."""
    return sum(1 for entry in level if (entry & _GENERATORS).bit_count() == 2)
