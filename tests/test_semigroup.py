import math
from itertools import combinations

import pytest

from twogen.semigroup import (
    BudgetExceeded,
    NotCoprime,
    SemigroupNode,
    TwoGeneratorSemigroup,
    count_by_genus,
    count_two_generator,
    enumerate_by_genus,
    gap_set,
    sylvester_genus,
)


def test_two_generator_validation():
    with pytest.raises(NotCoprime):
        TwoGeneratorSemigroup(3, 6)
    with pytest.raises(ValueError):
        TwoGeneratorSemigroup(5, 3)
    with pytest.raises(ValueError):
        TwoGeneratorSemigroup(1, 2)
    TwoGeneratorSemigroup(2, 3)


def test_sylvester_examples():
    assert sylvester_genus(TwoGeneratorSemigroup(3, 5)) == 4
    assert sylvester_genus(TwoGeneratorSemigroup(2, 3)) == 1
    assert sylvester_genus(TwoGeneratorSemigroup(2, 9)) == 4


def test_gap_set_examples():
    assert gap_set(TwoGeneratorSemigroup(3, 5)) == (1, 2, 4, 7)
    assert gap_set(TwoGeneratorSemigroup(2, 3)) == (1,)
    assert gap_set(TwoGeneratorSemigroup(2, 5)) == (1, 3)
    assert gap_set(TwoGeneratorSemigroup(2, 9)) == (1, 3, 5, 7)


def test_gap_count_matches_genus_formula():
    for a in range(2, 61):
        for b in range(a + 1, 61):
            if math.gcd(a, b) != 1:
                continue
            s = TwoGeneratorSemigroup(a, b)
            assert len(gap_set(s)) == sylvester_genus(s)


def _brute_force_census(g):
    """Count genus-g semigroups by trying every subset of [1, 2g-1] as gaps."""
    if g == 0:
        return 1
    window = 2 * g + 1
    count = 0
    for gaps in combinations(range(1, 2 * g), g):
        gapset = set(gaps)
        members = [n for n in range(window) if n not in gapset]
        ok = True
        for x in members:
            for y in members:
                if x + y < window and x + y in gapset:
                    ok = False
                    break
            if not ok:
                break
        # closure above the window is automatic: everything > 2g-1 is a member
        if ok:
            count += 1
    return count


def test_enumeration_matches_brute_force():
    levels = enumerate_by_genus(5)
    for g in range(6):
        assert len(levels[g]) == _brute_force_census(g)


def test_enumeration_level_sizes():
    assert [len(lv) for lv in enumerate_by_genus(3)] == [1, 1, 2, 4]
    assert [len(lv) for lv in enumerate_by_genus(7)] == [1, 1, 2, 4, 7, 12, 23, 39]


def test_enumeration_genus_zero():
    levels = enumerate_by_genus(0)
    assert len(levels) == 1 and len(levels[0]) == 1
    node = levels[0][0]
    assert node.generators == (1,) and node.gaps == () and node.genus == 0


def test_enumeration_budget():
    for census in (enumerate_by_genus, count_by_genus):
        with pytest.raises(BudgetExceeded):
            census(26)
        with pytest.raises(BudgetExceeded):
            census(4, genus_cap=3)
        with pytest.raises(ValueError):
            census(-1)


def test_nodes_are_consistent():
    levels = enumerate_by_genus(12)
    for g, nodes in enumerate(levels):
        seen = set()
        for node in nodes:
            assert node.genus == g
            assert len(node.gaps) == g
            assert 0 not in node.gaps
            assert node.gaps not in seen
            seen.add(node.gaps)
            # additive consistency: gap minus member is again a gap
            gapset = set(node.gaps)
            members = [n for n in range(1, 2 * g + 2) if n not in gapset]
            for x in node.gaps:
                for s in members:
                    if s >= x:
                        break
                    assert x - s in gapset


def test_two_generator_nodes_have_coprime_generators():
    levels = enumerate_by_genus(10)
    for g, nodes in enumerate(levels):
        for node in nodes:
            if len(node.generators) == 2:
                a, b = node.generators
                s = TwoGeneratorSemigroup(a, b)
                assert sylvester_genus(s) == g
                assert gap_set(s) == node.gaps


def test_count_two_generator_examples():
    levels = enumerate_by_genus(4)
    assert count_two_generator(levels[1]) == 1  # only <2,3>
    assert count_two_generator(levels[0]) == 0
    assert count_two_generator(levels[4]) == 2  # <2,9> and <3,5>
    gens = {n.generators for n in levels[4] if len(n.generators) == 2}
    assert gens == {(2, 9), (3, 5)}


def test_enumeration_is_deterministic():
    assert enumerate_by_genus(8) == enumerate_by_genus(8)


# OEIS A007323: the number of numerical semigroups of genus g, g = 0..20.
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857,
    4806, 8045, 13467, 22464, 37396,
)


def _minimal_generators(mask, width):
    """Minimal generators of the semigroup with membership bitmap `mask`.

    All minimal generators of a genus-g semigroup are <= 2g+1, so a window
    of width 2g+2 sees every one of them together with all sum witnesses.
    """
    elements = [i for i in range(1, width) if mask >> i & 1]
    gens = []
    for m in elements:
        for x in elements:
            if 2 * x > m:
                gens.append(m)
                break
            if mask >> (m - x) & 1:
                break
    return tuple(gens)


def _enumerate_level_by_level(max_genus):
    """The census rebuilt from scratch at every node, one genus at a time:
    membership bitmaps, generators by pairwise sums, gaps by a mask scan,
    and each level sorted by gaps at the end."""
    width = 2 * max_genus + 2
    levels = []
    current = [((1 << width) - 1, -1)]  # (mask, frobenius)
    for g in range(max_genus + 1):
        nodes = []
        next_level = []
        for mask, frobenius in current:
            gens = _minimal_generators(mask, width)
            gaps = tuple(i for i in range(1, width) if not mask >> i & 1)
            nodes.append(SemigroupNode(gens, gaps, g))
            if g < max_genus:
                for m in gens:
                    if m > frobenius:
                        next_level.append((mask & ~(1 << m), m))
        nodes.sort(key=lambda node: node.gaps)
        levels.append(nodes)
        current = next_level
    return levels


@pytest.fixture(scope="module")
def census_20():
    return enumerate_by_genus(20)


def test_enumeration_matches_level_by_level_oracle():
    for g in range(17):
        assert enumerate_by_genus(g) == _enumerate_level_by_level(g), g


def test_enumeration_levels_sorted_by_gaps(census_20):
    for nodes in census_20:
        gaps = [node.gaps for node in nodes]
        assert gaps == sorted(gaps)


def test_enumeration_matches_oeis_a007323(census_20):
    assert tuple(len(nodes) for nodes in census_20) == A007323


def test_count_by_genus_matches_full_levels(census_20):
    expected = [(len(nodes), count_two_generator(nodes)) for nodes in census_20]
    for g in range(21):
        assert count_by_genus(g) == expected[: g + 1], g
