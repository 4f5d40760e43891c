import bisect
import math
import tracemalloc
from itertools import combinations

import pytest
from census_entries import decode, pack, unpack

from twogen import semigroup
from twogen.counting import count_special
from twogen.semigroup import (
    GENUS_CAP,
    SHIFT,
    BudgetExceeded,
    NotCoprime,
    TwoGeneratorSemigroup,
    count_by_genus,
    count_two_generator,
    enumerate_by_genus,
    gap_set,
    masks_of_genus,
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
    assert enumerate_by_genus(0) == [[0b10]]
    assert decode(0b10) == ((1,), ())


def test_enumeration_budget():
    assert issubclass(BudgetExceeded, ValueError)
    for census in (enumerate_by_genus, count_by_genus):
        with pytest.raises(BudgetExceeded):
            census(26)
        with pytest.raises(ValueError):
            census(-1)
    # The listing refuses at the call, before the first item is read.
    with pytest.raises(BudgetExceeded):
        masks_of_genus(26)
    with pytest.raises(ValueError):
        masks_of_genus(-1)


def test_nodes_are_consistent():
    levels = enumerate_by_genus(12)
    for g, entries in enumerate(levels):
        seen = set()
        for entry in entries:
            generators, gaps = decode(entry)
            assert len(gaps) == g
            assert 0 not in gaps and 0 not in generators
            assert max(generators) <= 2 * g + 1 < SHIFT
            assert gaps not in seen
            seen.add(gaps)
            # additive consistency: gap minus member is again a gap
            gapset = set(gaps)
            members = [n for n in range(1, 2 * g + 2) if n not in gapset]
            for x in gaps:
                for s in members:
                    if s >= x:
                        break
                    assert x - s in gapset


def test_two_generator_nodes_have_coprime_generators():
    levels = enumerate_by_genus(10)
    for g, entries in enumerate(levels):
        for generators, gaps in map(decode, entries):
            if len(generators) == 2:
                s = TwoGeneratorSemigroup(*generators)
                assert sylvester_genus(s) == g
                assert gap_set(s) == gaps


def test_count_two_generator_examples():
    levels = enumerate_by_genus(4)
    assert count_two_generator(levels[1]) == 1  # only <2,3>
    assert count_two_generator(levels[0]) == 0
    assert count_two_generator(levels[4]) == 2  # <2,9> and <3,5>
    gens = {gens for gens, _ in map(decode, levels[4]) if len(gens) == 2}
    assert gens == {(2, 9), (3, 5)}


def _mask(values):
    return sum(1 << s for s in values)


def test_node_masks_match_their_tuples():
    for entries in enumerate_by_genus(10):
        for entry in entries:
            generators, gaps = decode(entry)
            assert unpack(entry) == (_mask(generators), _mask(gaps))
            assert pack(*unpack(entry)) == entry
        decoded = [len(generators) == 2 for generators, _ in map(decode, entries)]
        assert count_two_generator(entries) == sum(decoded)


def test_census_nodes_take_at_most_112_bytes_each():
    # An entry, its int and list slot, comes to about 45 bytes on Python
    # 3.11, against 98 for the record node that packed the same int; the
    # bound sits between the two layouts, well under the name's 112.
    tracemalloc.start()
    try:
        levels = enumerate_by_genus(16)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    entries = sum(map(len, levels))
    assert entries == 11770
    assert held / entries <= 72, held / entries


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
    and each level sorted by gaps at the end, each entry packed as
    `enumerate_by_genus` packs it."""
    width = 2 * max_genus + 2
    levels = []
    current = [((1 << width) - 1, -1)]  # (mask, frobenius)
    for g in range(max_genus + 1):
        nodes = []
        next_level = []
        for mask, frobenius in current:
            gens = _minimal_generators(mask, width)
            gaps = tuple(i for i in range(1, width) if not mask >> i & 1)
            nodes.append((gaps, pack(_mask(gens), _mask(gaps))))
            if g < max_genus:
                for m in gens:
                    if m > frobenius:
                        next_level.append((mask & ~(1 << m), m))
        nodes.sort()
        levels.append([entry for _, entry in nodes])
        current = next_level
    return levels


@pytest.fixture(scope="module")
def census_20():
    return enumerate_by_genus(20)


def test_enumeration_matches_level_by_level_oracle():
    for g in range(17):
        assert enumerate_by_genus(g) == _enumerate_level_by_level(g), g


def test_enumeration_levels_sorted_by_gaps(census_20):
    for entries in census_20:
        gaps = [decode(entry)[1] for entry in entries]
        assert gaps == sorted(gaps)


def test_enumeration_matches_oeis_a007323(census_20):
    assert tuple(len(nodes) for nodes in census_20) == A007323


def test_count_by_genus_matches_full_levels(census_20):
    expected = [(len(nodes), count_two_generator(nodes)) for nodes in census_20]
    for g in range(21):
        assert count_by_genus(g) == expected[: g + 1], g


def test_masks_of_genus_match_the_last_level(census_20):
    for g in range(21):
        assert list(masks_of_genus(g)) == list(map(unpack, census_20[g])), g


def _walk_tuples(max_genus):
    """The census walk on tuples: the same preorder, with each child's gaps
    and generators built from its parent's tuples, and m + mu tested for
    irreducibility against every other generator."""
    stack = [((1,), (), 0, -1)]  # (generators, gaps, gap bitmap, frobenius)
    while stack:
        gens, gaps, holes, frobenius = stack.pop()
        genus = len(gaps)
        yield genus, gens, gaps
        if genus == max_genus:
            continue
        mu = gens[0]
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


def test_walk_matches_tuple_walk():
    for max_genus in range(17):
        grouped = [[] for _ in range(max_genus + 1)]
        for g, gens, gaps in _walk_tuples(max_genus):
            grouped[g].append(pack(_mask(gens), _mask(gaps)))
        assert enumerate_by_genus(max_genus) == grouped, max_genus


def test_walk_chunk_size_changes_no_output(monkeypatch):
    # A chunk of one entry hands the lists over after every parent of the
    # last genus, one of 10^9 only at the end; the default, 1,024, is
    # crossed from genus 14 on.
    def outputs(g):
        return enumerate_by_genus(g), count_by_genus(g), list(masks_of_genus(g))

    expected = [outputs(g) for g in range(17)]
    for chunk in (1, 10**9):
        monkeypatch.setattr(semigroup, "_CHUNK", chunk)
        for g in range(17):
            assert outputs(g) == expected[g], (chunk, g)


def test_count_by_genus_matches_tuple_walk():
    totals = [0] * 19
    pairs = [0] * 19
    for genus, gens, _ in _walk_tuples(18):
        totals[genus] += 1
        pairs[genus] += len(gens) == 2
    expected = list(zip(totals, pairs))
    for g in range(19):
        assert count_by_genus(g) == expected[: g + 1], g


# A007323 on from genus 21, up to the cap.
A007323_FROM_21 = (62194, 103246, 170963, 282828, 467224)


def test_count_by_genus_at_the_cap_matches_oeis_and_count_special():
    counts = count_by_genus(GENUS_CAP)
    assert tuple(total for total, _ in counts) == A007323 + A007323_FROM_21
    two_generator = [pairs for _, pairs in counts]
    assert two_generator == [0] + [count_special(g) for g in range(1, GENUS_CAP + 1)]
