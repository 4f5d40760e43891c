import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogen.arith import factorize, odd_primes_up_to
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
from twogen.modulus import modulus_of
from twogen.reduction import reduce
from twogen.semigroup import count_two_generator, enumerate_by_genus
from twogen.synthesis import synthesize


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
    return sorted({q for classes in _prime_tables(primes, k)[0] for _, q in classes})


def test_the_table_boundary_cases_straddle_a_row_modulus():
    # The row of modulus 127 = 2^7 - 1 is prime, and 127 has kill classes at
    # k = 12: `_survivor_counts` screens the row in the rough part of a list
    # of 126 primes, and applies its classes for a list of 127.
    assert (7, 5, 127) in _row_table(12)


def test_the_prime_table_cases_straddle_a_table():
    assert 89 not in _table_primes(_PRIMES[-88:], 12)
    assert 89 in _table_primes(_PRIMES[-89:], 12)
    assert 127 not in _table_primes(_PRIMES[-126:], 12)
    assert 127 in _table_primes(_PRIMES[-127:], 12)


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
    # factors X(a,q) with q <= len(primes) the derivation lists for it.
    primes = odd_primes_up_to(200_000)
    assert len(primes) == 17_983
    cache = FactorCache()
    for k in range(1, 61):
        kills = _prime_tables(primes, k)[0]
        killed = {i: set(classes) for i, classes in enumerate(kills)}
        assert all(len(set(classes)) == len(classes) for classes in kills), k
        derived = {i: set() for i in range(k + 1)}
        for row in synthesize(k, cache).rows:
            derived[row.i] = {(a, q) for a, q in row.factors if q <= len(primes)}
        assert killed == derived, k


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


def test_tables_do_not_depend_on_the_primes_swept():
    # `dependence_check` sweeps only primes that do not divide M(k), so the
    # primes of its kill classes must not come from the swept list.
    for k in (9, 60):
        swept = _dependence_primes(k)
        plain = _PRIMES[: len(swept)]
        assert swept != plain
        assert _table_primes(swept, k)
        assert _prime_tables(swept, k) == _prime_tables(plain, k), k


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
    `_survivor_counts` tests its rough parts one by one.  A shorter list
    divides fewer primes out of each rough part, so these primes stay in the
    fallback when swept on their own."""
    lcm = math.lcm(*(r for _, _, r in _prime_tables(_PRIMES, k)[1]))
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
        pytest.param([30, 60, 120], _rough_hits, id="rough screen hits"),
        pytest.param([60], lambda k: [127, 8191, 131071], id="row-modulus primes"),
        pytest.param([90, 120, 128], lambda k: _PRIMES[-300:], id="large k"),
        pytest.param(range(1, 13), lambda k: _PRIMES[-1:], id="one prime"),
        pytest.param(range(1, 13), lambda k: _PRIMES[-2:], id="two primes"),
        pytest.param([12], lambda k: _PRIMES[-126:], id="below a table"),
        pytest.param([12], lambda k: _PRIMES[-127:], id="at a table"),
        pytest.param([12], lambda k: _PRIMES[-88:], id="below a prime table"),
        pytest.param([12], lambda k: _PRIMES[-89:], id="at a prime table"),
        pytest.param(range(2, 10), _dependence_primes, id="dependence"),
        # the first and last primes of the windows of `arith.class_counts`
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
        assert list(_survivor_counts(primes, k)) == list(map(len, plain)), k


def test_surviving_exponents_match_the_plain_gcds_at_700_bits():
    rng = random.Random(20121)
    for _ in range(5):
        p = rng.getrandbits(700) | 1 << 699 | 1
        assert _surviving_exponents(p, 120) == _surviving_exponents_plain(p, 120), p

