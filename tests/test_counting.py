import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twogen.counting as counting_mod
from twogen.factor_cache import FactorCache
from twogen.counting import (
    NotOddPrime,
    _bad_residues,
    _prime_tables,
    _row_table,
    _survivor_counts,
    _surviving_exponents,
    count_prime_power,
    count_special,
    row_modulus,
    special_factorizations,
    surviving_exponents,
)
from twogen.factoring import factorize
from twogen.modulus import dependence_check, modulus_of
from twogen.primes import _MR_DETERMINISTIC_BELOW, is_prime, odd_prime_flags, odd_primes_up_to
from twogen.reduction import reduce
from twogen.semigroup import count_two_generator, enumerate_by_genus
from twogen.synthesis import synthesize

from sweep_flags import flags_of


def test_special_factorization_examples():
    assert special_factorizations(5) == [(1, 10)]  # gcd(3,6) kills {2,5}
    assert special_factorizations(1) == [(1, 2)]
    assert special_factorizations(7) == [(1, 14), (2, 7)]
    assert count_special(5) == 1
    assert count_special(7) == 2


def test_special_factorizations_are_special():
    for g in range(1, 200):
        for u, v in special_factorizations(g):
            assert u <= v and u * v == 2 * g
            assert math.gcd(u + 1, v + 1) == 1


def test_count_special_rejects_bad_genus():
    with pytest.raises(ValueError):
        count_special(0)


def test_count_prime_power_examples():
    assert count_prime_power(7, 1) == 2
    assert count_prime_power(3, 2) == 3
    assert count_prime_power(5, 9) == 5


def test_not_odd_prime():
    for p in (2, 9, 15, 1):
        with pytest.raises(NotOddPrime):
            count_prime_power(p, 3)
    with pytest.raises(ValueError):
        count_prime_power(3, 0)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(odd_primes_up_to(500)),
    st.integers(min_value=1, max_value=12),
)
def test_exponent_zero_always_survives(p, k):
    assert 0 in surviving_exponents(p, k)


def test_both_count_routes_agree():
    # count_special factors 2 p^k and walks divisors; count_prime_power
    # takes gcds directly -- entirely different code paths.
    for p in odd_primes_up_to(100):
        for k in range(1, 7):
            assert count_special(p**k) == count_prime_power(p, k), (p, k)


def test_counts_match_census():
    levels = enumerate_by_genus(10)
    for g in range(1, 11):
        assert count_two_generator(levels[g]) == count_special(g)


def _surviving_exponents_plain(p: int, k: int) -> list[int]:
    """The former direct count, kept as an oracle: gcds of p^i + 1 and
    2 p^(k-i) + 1 themselves, with no reduction."""
    powers = [1]
    for _ in range(k):
        powers.append(powers[-1] * p)
    return [
        i
        for i in range(k + 1)
        if math.gcd(powers[i] + 1, 2 * powers[k - i] + 1) == 1
    ]


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [row[:] for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        for r in range(c + 1, n):
            for s in range(c + 1, n):
                m[r][s] = (m[r][s] * m[c][c] - m[r][c] * m[c][s]) // prev
        prev = m[c][c]
    return sign * m[-1][-1]


def _sylvester_resultant(f: list[int], g: list[int]) -> int:
    """Res(f, g) for coefficient lists in decreasing degree, as the
    determinant of the Sylvester matrix."""
    df, dg = len(f) - 1, len(g) - 1
    n = df + dg
    rows = [[0] * r + f + [0] * (n - df - 1 - r) for r in range(dg)]
    rows += [[0] * r + g + [0] * (n - dg - 1 - r) for r in range(df)]
    return _bareiss_det(rows)


def _row_polynomials(i: int, j: int) -> tuple[list[int], list[int]]:
    """x^i + 1 and 2x^j + 1 as coefficient lists (x^0 + 1 is the constant 2)."""
    f = [1] + [0] * (i - 1) + [1] if i else [2]
    g = [2] + [0] * (j - 1) + [1] if j else [3]
    return f, g


def _resultant(i: int, j: int) -> int:
    """|Res(x^i + 1, 2x^j + 1)| in closed form, the row modulus to the gcd(i, j)."""
    return row_modulus(i + j, i) ** math.gcd(i, j)


def test_resultant_matches_the_sylvester_determinant():
    for i in range(21):
        for j in range(21):
            if i + j == 0:
                continue
            res = _sylvester_resultant(*_row_polynomials(i, j))
            assert abs(res) == _resultant(i, j), (i, j)


def test_row_gcds_divide_the_resultant():
    # The resultant lies in the ideal (x^i + 1, 2x^j + 1) of Z[x], so the
    # gcd of the two values divides it at every integer p, prime or not.
    # Its root, the row modulus, has the same primes, so the row gcd is 1
    # exactly when its gcd with the row modulus is.
    for i in range(21):
        for j in range(21):
            if i + j == 0:
                continue
            r, m = _resultant(i, j), row_modulus(i + j, i)
            for p in range(-49, 50):
                g = math.gcd(p**i + 1, 2 * p**j + 1)
                assert r % g == 0, (i, j, p)
                # the screen of `_survivor_counts`: 2p^j(p^i + 1) - (2p^j + 1)
                assert (2 * p ** (i + j) - 1) % g == 0, (i, j, p)
                assert (g == 1) == (math.gcd(m, g) == 1), (i, j, p)


def test_reduction_modulus_is_the_row_modulus():
    # The reduction derives its constant c on its own; the direct count
    # reads the closed form.  They must be the same number.
    for k in range(2, 129):
        for i in range(1, k):
            assert reduce(i, k - i).modulus == row_modulus(k, i), (k, i)


_PRIMES = odd_primes_up_to(20_000)


def _dependence_primes(k: int) -> list[int]:
    """The odd primes p <= 10^4 with p not dividing M(k), as
    `dependence_check(k, 10**4)` sweeps them."""
    modulus = modulus_of(k).modulus
    return [p for p in odd_primes_up_to(10_000) if modulus % p]


def _table_primes(primes, k: int) -> list[int]:
    """The primes q of the kill classes `_survivor_counts` applies when it
    sweeps `primes`."""
    return sorted({q for classes in _prime_tables(flags_of(primes), k)[0] for _, q in classes})


def test_the_table_boundary_cases_straddle_a_row_modulus():
    # The row of modulus 127 = 2^7 - 1 is prime, and 127 has kill classes at
    # k = 12: a sweep whose last prime is 113 names it as a proven cofactor,
    # one whose last prime is 127 by trial division.
    assert (7, 5, 127) in _row_table(12)


def test_the_prime_table_cases_straddle_a_table():
    # k = 12: row 11 has modulus 2047 = 23 * 89.  Below 23 the row is left
    # whole, a composite rough part; from 23 on, its cofactor 89 is proven
    # prime, so a sweep that ends below 89 (or 127) names the same classes
    # as one that ends at it.
    assert (11, 1, 2047) in _prime_tables(odd_prime_flags(19), 12)[1]
    assert not {23, 89} & set(_table_primes(odd_primes_up_to(19), 12))
    assert math.gcd(2047, 2 * 11**12 - 1) == 23  # p = 11 fails the screen
    tables = _prime_tables(odd_prime_flags(23), 12)
    assert tables[1] == []
    assert {23, 89, 127} <= set(_table_primes(odd_primes_up_to(23), 12))
    for last in (83, 89, 113, 127, 20_000):
        assert _prime_tables(odd_prime_flags(last), 12) == tables, last
    # k = 20: row 13 has the prime modulus 8191, above the last prime 8179
    # of the sweep, and its class 6143 mod 8191 hits the swept prime 6143.
    assert (6143, 8191) in _prime_tables(flags_of(_BELOW_8191), 20)[0][13]
    assert 6143 in _BELOW_8191


# The odd primes below 2^13 - 1 and 2^17 - 1, the prime moduli of row 13 at
# k = 20 and of row 17 at k = 30.
_BELOW_8191 = odd_primes_up_to(8190)
_BELOW_131071 = odd_primes_up_to(131_070)


def _bad_residues_scan(q: int, top: int) -> dict[tuple[int, int], list[int]]:
    """For 0 <= i, j <= top, not both 0: the x in [1, q) with x^i = -1 and
    2 x^j = -1 (mod q), by a scan of both congruences over every x."""
    minus_one = [[] for _ in range(top + 1)]  # x^i = -1
    minus_half = [[] for _ in range(top + 1)]  # 2 x^j = -1
    for x in range(1, q):
        power = 1
        for e in range(top + 1):
            if power == q - 1:
                minus_one[e].append(x)
            if (2 * power + 1) % q == 0:
                minus_half[e].append(x)
            power = power * x % q
    return {
        (i, j): sorted(set(minus_one[i]) & set(minus_half[j]))
        for i in range(top + 1)
        for j in range(top + 1)
        if i + j
    }


def test_bad_residues_match_a_scan_of_both_congruences():
    for q in odd_primes_up_to(299):
        for (i, j), bad in _bad_residues_scan(q, 40).items():
            assert _bad_residues(q, i, j) == bad, (q, i, j)


def test_tables_list_the_factors_of_the_derived_rows():
    # Row by row, with no sampling: the kill classes of a row are the
    # factors X(a,q) the derivation lists for it, at every k <= 60 but the
    # five whose rough parts keep a composite of two primes above 2*10^5.
    # There, a row's kill classes are those of its other primes.
    flags = odd_prime_flags(200_000)
    assert flags.count(1) == 17_983
    cache = FactorCache()
    rough_ks = []
    for k in range(1, 61):
        kills, rough = _prime_tables(flags, k)
        killed = {i: set(classes) for i, classes in enumerate(kills)}
        assert all(len(set(classes)) == len(classes) for classes in kills), k
        derived = {i: set() for i in range(k + 1)}
        for row in synthesize(k, cache).rows:
            derived[row.i] = set(row.factors)
        for i, _, r in rough:
            assert not is_prime(r), (k, i)
            derived[i] = {(a, q) for a, q in derived[i] if r % q}
        assert killed == derived, k
        if rough:
            rough_ks.append(k)
    assert rough_ks == [53, 55, 57, 58, 59]


def test_no_rough_part_is_left_up_to_k_52():
    # Trial division to the last prime and the proven cofactors name every
    # row prime, so `_survivor_counts` runs no screen at these k.
    flags = odd_prime_flags(200_000)
    for k in [*range(1, 53), 54, 56, 60]:
        assert _prime_tables(flags, k)[1] == [], k
    # 2^89 - 1, a prime of 27 digits above the bound of the proven
    # Miller-Rabin bases, stays in the screen.
    assert (89, 1, 2**89 - 1) in _prime_tables(flags, 90)[1]
    assert 2**89 - 1 > _MR_DETERMINISTIC_BELOW


_ROW_PRIME_CACHE = FactorCache()


@functools.cache
def _row_primes(k: int) -> list[tuple[int, int, int]]:
    """(i, j, q) for every row of k and every odd prime q of its modulus."""
    return [
        (i, j, q)
        for i, j, m in _row_table(k)
        for q, _ in factorize(m, _ROW_PRIME_CACHE).factors
        if q > 2
    ]


def test_bad_residues_are_the_derived_factors_at_every_row_prime():
    # `several` counts the pairs with more than one bad class: their q, of up
    # to 13 digits, are far beyond a scan of the classes.
    for k, pairs, several in ((60, 79, 10), (120, 195, 33), (128, 348, 40)):
        rows = {row.i: row for row in synthesize(k, _ROW_PRIME_CACHE).rows}
        assert len(_row_primes(k)) == pairs, k
        sizes = []
        for i, j, q in _row_primes(k):
            bad = _bad_residues(q, i, j)
            assert bad == [a for a, r in rows[i].factors if r == q], (k, i, q)
            assert len(bad) in (0, math.gcd(i, j, q - 1)), (k, i, q)
            for x in bad:
                assert pow(x, i, q) == q - 1 and (2 * pow(x, j, q) + 1) % q == 0
            sizes.append(len(bad))
        assert sum(size > 1 for size in sizes) == several, k


def test_bad_residues_match_sympy_at_large_row_primes():
    sympy = pytest.importorskip("sympy")
    checked = []
    for k in (120, 128):
        for i, j, q in _row_primes(k):
            if q < 10**12:
                continue
            minus_one = sympy.nthroot_mod(q - 1, i, q, all_roots=True) or []
            minus_half = sympy.nthroot_mod((q - 1) // 2, j, q, all_roots=True) or []
            bad = _bad_residues(q, i, j)
            assert bad == sorted(set(minus_one) & set(minus_half)), (k, i, q)
            checked.append(bool(bad))
    assert (len(checked), sum(checked)) == (45, 44)


def test_dependence_check_builds_the_tables_of_a_dense_sweep(monkeypatch):
    # The trial divisors of the tables are the swept primes, so
    # `dependence_check` sweeps every odd prime and skips the primes of M(k)
    # only as it reads the counts back: flags without them would hand their
    # rows to the rough screen.
    built = []
    real = counting_mod._prime_tables
    monkeypatch.setattr(
        counting_mod, "_prime_tables", lambda flags, k: built.append(real(flags, k)) or built[-1]
    )
    small = math.prod(odd_primes_up_to(10**4))
    for k in (9, 60):
        built.clear()
        dependence_check(k, 10**4)
        dense = real(odd_prime_flags(10**4), k)
        assert built == [dense], k
        # No rough part keeps a prime the sweep could have named.
        assert all(math.gcd(r, small) == 1 for _, _, r in dense[1]), k
        thinned = real(flags_of(_dependence_primes(k)), k)
        assert any(math.gcd(r, small) > 1 for _, _, r in thinned[1]), k
        assert (dense[1] == []) == (k == 9)


def _screen_hits(k: int) -> list[int]:
    """The primes p of `_PRIMES` with gcd(L, 2 p^k - 1) != 1, L the lcm of
    the row moduli above len(_PRIMES).  L has the rough parts of every row
    of a sweep of `_PRIMES`, so these include every prime at which
    `_survivor_counts` tests its rough parts one by one, and more."""
    moduli = (row_modulus(k, i) for i in range(k + 1))
    lcm = math.lcm(*(m for m in moduli if m > len(_PRIMES)))
    hits = [p for p in _PRIMES if math.gcd(lcm, 2 * pow(p, k, lcm) - 1) != 1]
    assert hits
    return hits


def _rough_hits(k: int) -> list[int]:
    """The primes p of `_PRIMES` with gcd(L, 2 p^k - 1) != 1, L the lcm of
    the rough parts of a sweep of `_PRIMES`: the primes at which
    `_survivor_counts` tests its rough parts one by one.  A sweep of fewer
    primes divides fewer primes out of each rough part, so these primes stay
    in the fallback when swept on their own."""
    lcm = math.lcm(*(r for _, _, r in _prime_tables(flags_of(_PRIMES), k)[1]))
    hits = [p for p in _PRIMES if math.gcd(lcm, 2 * pow(p, k, lcm) - 1) != 1]
    assert hits
    return hits


# The odd primes within 500 of 0, 2^16 and 2^17: a sweep of 267 primes,
# with the kill classes of every q <= 263, that crosses two window edges.
_WINDOW_EDGE_PRIMES = [
    p for p in odd_primes_up_to(131_572) if min(p % 65_536, -p % 65_536) <= 500
]


@pytest.mark.parametrize(
    "ks, primes_of",
    [
        pytest.param([*range(1, 13), 30, 60], lambda k: _PRIMES, id="sweep"),
        pytest.param([60], _screen_hits, id="screen hits"),
        pytest.param([58, 61, 120, 128], _rough_hits, id="rough screen hits"),
        pytest.param([60], lambda k: [127, 8191, 131071], id="row-modulus primes"),
        pytest.param([90, 120, 128], lambda k: _PRIMES[-300:], id="large k"),
        pytest.param(range(1, 13), lambda k: _PRIMES[-1:], id="one prime"),
        pytest.param(range(1, 13), lambda k: _PRIMES[-2:], id="two primes"),
        pytest.param([12], lambda k: odd_primes_up_to(113), id="below a table"),
        pytest.param([12], lambda k: odd_primes_up_to(127), id="at a table"),
        pytest.param([12], lambda k: odd_primes_up_to(83), id="below a prime table"),
        pytest.param([12], lambda k: odd_primes_up_to(89), id="at a prime table"),
        # 2047 = 23 * 89 left whole in the screen, which p = 11 fails
        pytest.param([12], lambda k: odd_primes_up_to(19), id="composite cofactor"),
        pytest.param([20], lambda k: _BELOW_8191, id="cofactor class hit"),
        pytest.param([30], lambda k: _BELOW_131071, id="cofactor above the sweep"),
        # row 89 of k = 90 keeps the prime 2^89 - 1 above the proven bound
        pytest.param(
            [90], lambda k: odd_primes_up_to(200_000)[-300:], id="unproven prime cofactor"
        ),
        pytest.param(range(2, 10), _dependence_primes, id="dependence"),
        # the first and last primes of the windows of `primes.class_counts`
        pytest.param(
            [9, 30, 60], lambda k: [65521, 65537, 131071, 131101], id="window edges"
        ),
        pytest.param([9, 30, 60], lambda k: _WINDOW_EDGE_PRIMES, id="across windows"),
        # k + 1 > 255 rows: counts above what one byte holds
        pytest.param([300], lambda k: odd_primes_up_to(3_000), id="k = 300"),
    ],
)
def test_surviving_exponents_match_the_plain_gcds(ks, primes_of):
    for k in ks:
        primes = primes_of(k)
        plain = [_surviving_exponents_plain(p, k) for p in primes]
        assert [_surviving_exponents(p, k) for p in primes] == plain, k
        assert _survivor_counts(flags_of(primes), k) == list(map(len, plain)), k


@pytest.mark.parametrize("k", [253, 254])
def test_survivor_counts_at_the_digit_width_boundary(k):
    # The most rows surviving at one p, 254 at k = 253, is the last count a
    # one-byte digit holds below the 0xFF that marks an unflagged n; 255 at
    # k = 254 is the first that needs two bytes.  Both sweeps keep 173-174
    # rows in the rough screen too.
    want = [len(_surviving_exponents(p, k)) for p in odd_primes_up_to(3000)]
    assert max(want) == k + 1
    assert _survivor_counts(odd_prime_flags(3000), k) == want


def test_surviving_exponents_match_the_plain_gcds_at_700_bits():
    rng = random.Random(20121)
    for _ in range(5):
        p = rng.getrandbits(700) | 1 << 699 | 1
        assert _surviving_exponents(p, 120) == _surviving_exponents_plain(p, 120), p

