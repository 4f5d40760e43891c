"""Numerical-semigroup ground truth.

A numerical semigroup is a subset of the non-negative integers containing
0, closed under addition, with finite complement (the gap set; its size is
the genus).  This module provides the two-generator basics -- genus via
Sylvester's formula, explicit gap sets -- and an exhaustive census of all
numerical semigroups up to a genus bound.  The census is one depth-first
walk of the standard tree, whose children remove one minimal generator
beyond the Frobenius number; each child's gaps and minimal generators
follow from its parent's (Fromentin & Hivert, *Exploring the tree of
numerical semigroups*, 2016).  The census is the independent oracle the
rest of the package is validated against.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterator
from dataclasses import dataclass

DEFAULT_GENUS_CAP = 25


class NotCoprime(ValueError):
    """The two generators share a factor, so they generate no numerical semigroup."""


class BudgetExceeded(RuntimeError):
    """The requested genus is beyond the configured enumeration cap."""


@dataclass(frozen=True)
class TwoGeneratorSemigroup:
    """The semigroup of all non-negative combinations x*a + y*b, gcd(a,b)=1."""

    a: int
    b: int

    def __post_init__(self):
        if self.a < 2 or self.b < 2:
            raise ValueError(f"generators must be >= 2, got ({self.a}, {self.b})")
        if self.a >= self.b:
            raise ValueError(f"generators must satisfy a < b, got ({self.a}, {self.b})")
        if math.gcd(self.a, self.b) != 1:
            raise NotCoprime(f"gcd({self.a}, {self.b}) != 1")


@dataclass(frozen=True, slots=True)
class SemigroupNode:
    """One census entry: minimal generators, gap set, genus."""

    generators: tuple[int, ...]
    gaps: tuple[int, ...]
    genus: int


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


def _check_genus(max_genus: int, genus_cap: int) -> None:
    if max_genus < 0:
        raise ValueError(f"max_genus must be >= 0, got {max_genus}")
    if max_genus > genus_cap:
        raise BudgetExceeded(
            f"genus {max_genus} exceeds the enumeration cap {genus_cap}"
        )


def _walk(max_genus: int) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Preorder walk of the semigroup tree down to max_genus, yielding
    (genus, minimal generators, gaps) with both tuples increasing.

    The child S' = S minus m, for a minimal generator m above the Frobenius
    number F of S, has the gaps of S plus m.  If m is the multiplicity mu,
    S was ordinary and the generators of S' are m+1..2m+1.  Otherwise they
    are those of S without m, plus m + mu if it is irreducible in S': every
    generator of S lies in [mu, F + mu], and each x > m + mu is mu plus an
    element of S', so m + mu is the only candidate.  Children are visited in
    increasing m, so each genus comes out sorted by gap tuple, the path of
    the node in the tree.
    """
    stack = [((1,), (), 0, -1)]  # (generators, gaps, gap bitmap, frobenius)
    while stack:
        gens, gaps, holes, frobenius = stack.pop()
        genus = len(gaps)
        yield genus, gens, gaps
        if genus == max_genus:
            continue
        mu = gens[0]
        # Push in decreasing m so that the smallest m is popped first.
        for i in range(len(gens) - 1, bisect.bisect_right(gens, frobenius) - 1, -1):
            m = gens[i]
            child_holes = holes | 1 << m
            if m == mu:
                child_gens = tuple(range(m + 1, 2 * m + 2))
            else:
                child_gens = gens[:i] + gens[i + 1 :]
                new = m + mu
                for g in child_gens:
                    if not child_holes >> (new - g) & 1:
                        break  # new = g + (new - g) inside S'
                else:
                    child_gens += (new,)
            stack.append((child_gens, gaps + (m,), child_holes, m))


def enumerate_by_genus(
    max_genus: int, genus_cap: int = DEFAULT_GENUS_CAP
) -> list[list[SemigroupNode]]:
    """All numerical semigroups of genus 0..max_genus, one list per genus.

    Children of a semigroup S are S minus one minimal generator above the
    Frobenius number, which reaches every semigroup exactly once.  Levels
    are sorted by gap set, so output order is deterministic.
    """
    _check_genus(max_genus, genus_cap)
    levels: list[list[SemigroupNode]] = [[] for _ in range(max_genus + 1)]
    for genus, gens, gaps in _walk(max_genus):
        levels[genus].append(SemigroupNode(gens, gaps, genus))
    return levels


def count_by_genus(
    max_genus: int, genus_cap: int = DEFAULT_GENUS_CAP
) -> list[tuple[int, int]]:
    """(total, two-generator) census counts for genus 0..max_genus.

    Equal to the sizes and `count_two_generator` values of the levels of
    `enumerate_by_genus`, without building any node.
    """
    _check_genus(max_genus, genus_cap)
    totals = [0] * (max_genus + 1)
    pairs = [0] * (max_genus + 1)
    for genus, gens, _ in _walk(max_genus):
        totals[genus] += 1
        if len(gens) == 2:
            pairs[genus] += 1
    return list(zip(totals, pairs))


def count_two_generator(nodes: list[SemigroupNode]) -> int:
    """How many census entries have a minimal generating set of size exactly 2."""
    return sum(1 for node in nodes if len(node.generators) == 2)
