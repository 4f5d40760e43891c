import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twogen.factoring
from twogen.arith import power_roots, primitive_root
from twogen.factoring import (
    PM1_B1,
    PM1_B2,
    PM1_WHEEL,
    RHO_SLICE,
    TRIAL_DIVISION_BOUND,
    FactorizationTimeout,
    Factorization,
    _advance,
    _cyclotomic_pieces,
    _perfect_power,
    _pm1_cost,
    _pollard_pm1,
    _rho_batches,
    _stage1_powers,
    divisors,
    factorize,
)
from twogen.primes import (
    _MR_PSI,
    _MR_WITNESSES,
    _WHEEL,
    _WINDOW,
    class_counts,
    is_prime,
    odd_primes_up_to,
    primes_up_to,
)

from sweep_flags import flags_of


def test_is_prime_examples():
    assert is_prime(257)
    assert not is_prime(1)
    assert not is_prime(511)  # 7 * 73
    assert not is_prime(0)
    assert is_prime(2)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5000))
    for n in range(5000):
        assert is_prime(n) == (n in sieve)


def test_odd_primes_are_the_primes_without_2():
    for n in range(1001):
        assert odd_primes_up_to(n) == [p for p in primes_up_to(n) if p != 2], n


def _class_counts_plain(groups, constant, flags):
    """`class_counts` number by number, at each n with flags[n] set."""
    return [
        constant + sum(all(n % q != a % q for a, q in group) for group in groups)
        for n, flag in enumerate(flags)
        if flag
    ]


# Moduli of every size up to three windows, small even ones, which meet only
# one parity of n, and moduli that share 2, 3 or 5 with the wheel, which meet
# only some of its lanes.
_MODULI = st.one_of(
    st.integers(1, 3 * _WINDOW),
    st.integers(1, 12).map(lambda h: 2 * h),
    st.integers(1, 3 * _WINDOW // 2).map(lambda h: 2 * h),
    st.sampled_from([2, 3, 5, 6, 10, 15, 30, 60, 210]),
    st.integers(1, 3 * _WINDOW // 15).map(lambda h: 15 * h),
)
_CLASSES = st.tuples(st.integers(0, 3 * _WINDOW), _MODULI)


@st.composite
def _sweep_flags(draw):
    """Flags over up to four windows, with repeats drawn: n of any residue
    mod _WHEEL, odd n only, or n of a few residues mod _WHEEL only, so a
    window lays out all its lanes, the odd ones, a few or one."""
    numbers = draw(st.lists(st.integers(0, 4 * _WINDOW), min_size=1, max_size=40))
    residues = draw(
        st.one_of(
            st.just(range(_WHEEL)),
            st.just(range(1, _WHEEL, 2)),
            st.lists(st.integers(0, _WHEEL - 1), min_size=1, max_size=3),
        )
    )
    return flags_of(n - n % _WHEEL + residues[n % len(residues)] for n in numbers)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_CLASSES, max_size=4), max_size=6),
    st.integers(0, 300),
    _sweep_flags(),
)
def test_class_counts_match_a_plain_count(groups, constant, flags):
    assert class_counts(groups, constant, flags) == _class_counts_plain(
        groups, constant, flags
    )


def test_class_counts_read_nothing_from_empty_flags():
    groups = [[(1, 3)], [(0, 2)]]
    for flags in (bytearray(), bytearray(1), bytearray(3 * _WINDOW)):
        assert class_counts(groups, 5, flags) == []


_EDGE_GROUPS = [
    [(0, 2)],
    [(1, 2), (3, 4)],
    [(_WINDOW - 1, _WINDOW)],
    [(1, 3), (2, 5)],
    [(_WINDOW, _WINDOW + 1)],
    [(2 * _WINDOW - 1, 3 * _WINDOW)],
    [(5, 7), (0, 11), (_WINDOW + 1, 2 * _WINDOW + 3)],
    [(_WINDOW + 3, 2 * _WINDOW), (7, 6)],
]


def test_class_counts_at_window_edges():
    # Every number next to the first three window edges, against classes
    # that start, end or step over a window: all of them, so every window
    # has its lanes at both ends, and the odd ones alone.
    edges = (0, _WINDOW, 2 * _WINDOW)
    numbers = [e + d for e in edges for d in (-2, -1, 0, 1) if e + d >= 0]
    for swept in (numbers, [n for n in numbers if n % 2]):
        flags = flags_of(swept)
        assert class_counts(_EDGE_GROUPS, 4, flags) == _class_counts_plain(
            _EDGE_GROUPS, 4, flags
        )


def test_class_counts_lay_out_each_window_on_its_own():
    # Window 0 flags 5 odd n, on 4 lanes; window 1 flags one even n among
    # odd ones, on 3 lanes; window 2 is empty; window 3 flags 2 odd n, on 2
    # lanes.  Even q meet one parity only.
    numbers = [1, 3, 9, 15, _WINDOW - 1]
    numbers += [_WINDOW + 1, _WINDOW + 4, 2 * _WINDOW - 1]
    numbers += [3 * _WINDOW + 1, 3 * _WINDOW + 7]
    groups = [[(1, 4)], [(0, 2)], [(1, 2)], [(3, 6), (9, 10)], [(4, 3)]]
    groups.append([(5, 2 * _WINDOW)])
    flags = flags_of(numbers)
    assert class_counts(groups, 0, flags) == _class_counts_plain(groups, 0, flags)
    assert class_counts(groups, 0, flags)[6] == 5  # n = 2^16 + 4: only (0, 2) hits it


# Classes whose q shares 2, 3 or 5 with the wheel, so each meets only some
# lanes, q prime to it, and q above the window.
_WHEEL_GROUPS = [
    [(0, 6)],
    [(5, 10), (7, 15)],
    [(29, 30)],
    [(1, 60), (59, 210)],
    [(3, 2), (4, 5)],
    [(10, 15), (2, 3)],
    [(11, 7), (0, 13)],
    [(2 * _WINDOW + 5, 2 * _WINDOW + 15)],
    [(_WINDOW + 31, 3 * _WINDOW), (_WINDOW - 1, _WINDOW + 1)],
]


@pytest.mark.parametrize(
    "numbers",
    [
        pytest.param([*range(400), *range(_WINDOW - 200, _WINDOW + 200)], id="every n"),
        pytest.param(
            [n for n in range(2 * _WINDOW + 500) if n % 3 == 0 or n % 5 == 0][::7],
            id="multiples of 3 and 5",
        ),
        pytest.param(
            [*range(11, _WINDOW, 150), *range(_WINDOW + 7, 2 * _WINDOW, 90)], id="one lane"
        ),
        pytest.param(
            [n for n in range(2 * _WINDOW + 500) if n % _WHEEL in (1, 7, 20, 25)][::3],
            id="some lanes",
        ),
        pytest.param(odd_primes_up_to(2 * _WINDOW + 1000), id="odd primes"),
    ],
)
def test_class_counts_on_the_lanes_of_the_wheel(numbers):
    flags = flags_of(numbers)
    assert class_counts(_WHEEL_GROUPS, 3, flags) == _class_counts_plain(
        _WHEEL_GROUPS, 3, flags
    )


def _no_carry_cases(size: int, constant: int):
    """`size` groups, each but the last hit at 2 mod 5 and the last at 0, and
    the counts `class_counts` must give on top of `constant`, at odd n
    only and at n of both parities: up to constant + size.  61 and 91 give
    their lane rows whose other lanes flag nothing."""
    groups = [[(2, 5)]] * (size - 1) + [[(0, 5)]]
    odd = [1, 3, 5, 7, 9, 11, 13, 61, 91, _WINDOW + 3]
    for numbers in (odd, odd + [2, 12]):
        flags = flags_of(numbers)
        want = _class_counts_plain(groups, constant, flags)
        assert max(want) == constant + size
        yield groups, flags, want


@pytest.mark.parametrize("size", [246, 247, 248, 255, 256, 300, 65_535, 65_536])
def test_class_counts_digits_do_not_carry(size):
    # Counts near the top of a byte and of two bytes, which must not carry
    # into a neighbour: 253 and 254 (7 + 247) are the last one-byte counts,
    # below the 0xFF that marks an unflagged n, and 255 the first two-byte
    # one.
    for groups, flags, want in _no_carry_cases(size, 7):
        assert class_counts(groups, 7, flags) == want


@pytest.mark.parametrize(
    "size, constant", [(5, 248), (5, 249), (5, 250), (5, 251), (6, 65_529), (6, 65_530)]
)
def test_class_counts_fold_the_constant_into_the_digits(size, constant):
    # The constant alone takes the counts to 253, 254 (249 + 5, the last
    # one-byte count), 255 and past it, and to 65,535 and past it
    # (65,530 + 6), so it sets the digit width too.
    for groups, flags, want in _no_carry_cases(size, constant):
        assert class_counts(groups, constant, flags) == want


def test_is_prime_agrees_with_sieve_below_2e6():
    # Crosses psi_1 = 2047 and psi_2 = 1373653, so the one- and two-base
    # tiers each meet the composites that need the next base.
    bound = 2 * 10**6
    flags = bytearray(bound + 1)
    for p in primes_up_to(bound):
        flags[p] = 1
    assert [n for n in range(bound + 1) if is_prime(n) != flags[n]] == []


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


def test_is_prime_rejects_each_psi():
    # psi_k fools the first k bases, so the tier below it must use k + 1.
    for k, psi in enumerate(_MR_PSI, start=1):
        assert all(_strong_probable_prime(psi, a) for a in _MR_WITNESSES[:k]), k
        assert not is_prime(psi), psi


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert not is_prime(561)  # Carmichael number
    assert is_prime(2**89 - 1)  # beyond the deterministic witness bound


def test_factorize_examples():
    assert factorize(36465).factors == ((3, 1), (5, 1), (11, 1), (13, 1), (17, 1))
    assert factorize(513).factors == ((3, 3), (19, 1))
    assert factorize(1).factors == ()


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_uses_rho_beyond_trial_bound():
    n = 1000003 * 1000033
    assert factorize(n).factors == ((1000003, 1), (1000033, 1))


def test_factorize_perfect_power():
    p = 1000003
    assert factorize(p**3).factors == ((p, 3),)


def test_factorize_timeout_on_tiny_budget():
    n = 1000003 * 1000033
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=10)
    assert info.value.n == n
    assert info.value.iterations >= 10
    assert f"after {info.value.iterations} rho iterations" in str(info.value)


def test_factorize_timeout_names_the_whole_fermat_number():
    # 2^128 + 1 = Phi_256(2) is one cyclotomic piece with no factor below
    # the trial bound, so the stubborn cofactor is the number itself.
    n = 2**128 + 1
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=100_000)
    assert info.value.n == n
    assert info.value.cofactor == n
    assert info.value.iterations >= 100_000
    # Rho ran on x^256 + c, and each step was charged its 8 squarings.
    assert info.value.iterations % 8 == 0


@pytest.mark.parametrize(
    "n, budget, cost",
    [
        # x^256 + c on F7, whose budget runs out inside a gcd batch.
        (2**128 + 1, 100_000, 8),
        # x^2 + c on two Mersenne primes, whose budget runs out inside the
        # advance of x in the r = 32768 round.
        ((2**61 - 1) * (2**89 - 1), 70_000, 1),
    ],
)
def test_factorize_timeout_overshoots_by_less_than_one_batch(n, budget, cost):
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=budget)
    assert budget <= info.value.iterations <= budget + 128 * cost


def _rho_brent(n: int, budget: int, e: int = 2) -> tuple[int | None, int]:
    """One rho hunt on x^e + c from the start, within `budget` squarings."""
    return _advance(_rho_batches(n, e), 0, budget)


def _factorize_plain(n: int) -> tuple[tuple[int, int], ...]:
    """The former factorize, kept as an oracle: trial division, then rho on
    x^2 + c with no cyclotomic split."""
    counts: dict[int, int] = {}
    m = n
    for d in itertools.chain([2], range(3, TRIAL_DIVISION_BOUND + 1, 2)):
        if d * d > m:
            break
        while m % d == 0:
            counts[d] = counts.get(d, 0) + 1
            m //= d
    pending = [m] if m > 1 else []
    while pending:
        c = pending.pop()
        if is_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        power = _perfect_power(c)
        if power is not None:
            pending.extend([power[0]] * power[1])
            continue
        factor, _ = _rho_brent(c, 10**8)
        pending += [factor, c // factor]
    return tuple(sorted(counts.items()))


def _phi_at_2(d: int) -> int:
    """Phi_d(2) by the Moebius product over j | d of (2^j - 1)^mu(d/j)."""
    num = den = 1
    for j in range(1, d + 1):
        if d % j:
            continue
        k, mu = d // j, 1
        for r in range(2, k + 1):
            if k % r == 0:
                k //= r
                mu = 0 if k % r == 0 else -mu
        if mu == 1:
            num *= 2**j - 1
        elif mu == -1:
            den *= 2**j - 1
    return num // den


def test_cyclotomic_pieces_multiply_out():
    split_pairs = 0
    for m in range(1, 201):
        for n, ds in (
            (2**m - 1, [d for d in range(2, m + 1) if m % d == 0]),
            (2**m + 1, [d for d in range(1, 2 * m + 1) if 2 * m % d == 0 and m % d]),
        ):
            pieces = _cyclotomic_pieces(n)
            assert math.prod(piece for _, piece in pieces) == n, n
            assert sorted({d for d, _ in pieces}) == ds, n
            for d in ds:
                parts = [piece for j, piece in pieces if j == d]
                phi = _phi_at_2(d)
                assert math.prod(parts) == phi, (n, d)
                o = d // 4
                if d % 8 == 4 and o > 1:
                    # The Aurifeuillian pair: the gcd with L, then the rest.
                    low = 2**o - 2 ** ((o + 1) // 2) + 1
                    assert low * (2**o + 2 ** ((o + 1) // 2) + 1) == 2 ** (2 * o) + 1
                    head = math.gcd(phi, low)
                    assert parts == [x for x in (head, phi // head) if x > 1], (n, d)
                    split_pairs += len(parts) == 2
                else:
                    assert parts == [phi], (n, d)
    assert split_pairs > 50


def test_cyclotomic_pieces_reject_other_forms():
    for n in (2, 4, 6, 10, 12, 36465, 2**64, 2**64 + 3, 3**40):
        assert _cyclotomic_pieces(n) == [], n


def test_factorize_matches_plain_oracle_on_two_powers():
    for m in range(1, 81):
        for n in (2**m - 1, 2**m + 1):
            assert factorize(n).factors == _factorize_plain(n), n


def test_cyclotomic_piece_primes_are_one_mod_lcm():
    # The congruence behind the x^e + c map: a prime of the piece for d is
    # 1 mod lcm(2, d), or it is the largest prime factor of d.
    for m in range(1, 61):
        for n in (2**m - 1, 2**m + 1):
            for d, piece in _cyclotomic_pieces(n):
                e = d if d % 2 == 0 else 2 * d
                largest = max(p for p, _ in factorize(d).factors) if d > 1 else 1
                for p, _ in factorize(piece).factors:
                    assert p % e == 1 or p == largest, (n, d, p)


def test_factorize_2_101_minus_1_within_reduced_budget(monkeypatch):
    # Rho on x^202 + c needs 3.24 million squarings here, plain x^2 + c
    # about 7.2 million.  p-1 would split it well inside the budget, so it
    # is priced out: the rho map alone has to succeed.
    monkeypatch.setattr(twogen.factoring, "_pm1_cost", lambda e: 10**18)
    fact = factorize(2**101 - 1, max_iterations=3_500_000)
    assert fact.factors == ((7432339208719, 1), (341117531003194129, 1))


def test_factorize_2_101_minus_1_within_half_a_million():
    # p-1 finds 7432339208719 (q - 1 = 2 * 3 * 101 * 44029 * 278557) in
    # stage 2, after the rho slice; rho on x^202 + c alone needs 3.24M.
    fact = factorize(2**101 - 1, max_iterations=500_000)
    assert fact.factors == ((7432339208719, 1), (341117531003194129, 1))


def _split_by_pm1(n: int, e: int) -> list[int]:
    """The primes of n, split by p-1 alone: no rho anywhere."""
    primes, pending = [], [n]
    while pending:
        c = pending.pop()
        if is_prime(c):
            primes.append(c)
            continue
        factor, _ = _pollard_pm1(c, e)
        assert factor is not None and 1 < factor < c, c
        pending += [factor, c // factor]
    return sorted(primes)


@pytest.mark.parametrize(
    "n, d, primes",
    [
        (2**101 - 1, 101, [7432339208719, 341117531003194129]),
        (2**125 - 1, 125, [269089806001, 4710883168879506001]),
        # Every prime of the piece has smooth q - 1: stage 1 alone splits it.
        (2**119 - 1, 119, [20231, 62983048367, 131105292137]),
    ],
    ids=["2^101-1", "2^125-1", "2^119-1"],
)
def test_pm1_alone_splits_the_hard_pieces(n, d, primes):
    (piece,) = [piece for j, piece in _cyclotomic_pieces(n) if j == d]
    for q in primes_up_to(TRIAL_DIVISION_BOUND):
        while piece % q == 0:
            piece //= q
    assert _split_by_pm1(piece, 2 * d) == primes


def _prime_needing(big: int, e: int = 2) -> int:
    """The smallest prime q = 1 + e*big*k, k >= 1, with the order of 3 mod
    q divisible by the prime `big`, so that p-1 with base 3 needs big."""
    k = 1
    while True:
        q = 1 + e * big * k
        if is_prime(q) and pow(3, (q - 1) // big, q) != 1:
            return q
        k += 1


# A safe prime: r - 1 = 2 * 500000000273, whose large prime p-1 never reaches.
SAFE_PRIME = 1000000000547


@pytest.mark.parametrize(
    "big, found",
    # <= B1, <= B2, and above B2 by more than the stage-2 wheel
    [(39989, True), (611953, True), (1500007, False)],
)
def test_pm1_finds_a_prime_with_smooth_q_minus_1(big, found):
    assert (big <= PM1_B2) == found
    q = _prime_needing(big)
    assert max(p for p, _ in factorize((q - 1) // big).factors) <= 1000
    factor, _ = _pollard_pm1(q * SAFE_PRIME)
    assert factor == (q if found else None)


def test_pm1_multiplies_e_into_the_exponent():
    # Every prime of a piece for d is 1 mod e = lcm(2, d), so p-1 with e in
    # the exponent needs only the rest of q - 1 to be smooth, even when d is
    # a prime above both bounds (stage 2 reaches past PM1_B2 by less than
    # two wheels).
    d = 1_010_069
    assert is_prime(d) and d > PM1_B2 + 2 * PM1_WHEEL
    e = 2 * d
    q, r = _prime_needing(d), _prime_needing(10**9 + 7, e)
    assert (q - 1) % e == 0 and (r - 1) % e == 0
    assert max(p for p, _ in factorize((q - 1) // e).factors) <= PM1_B1
    assert _pollard_pm1(q * r, e)[0] == q
    assert _pollard_pm1(q * r, 2)[0] is None


def test_pm1_returns_the_prime_that_completes_first():
    powers = _stage1_powers()
    index = powers.index(1009)
    before = 2 * math.prod(powers[:index])
    after = before * powers[index]
    q1, q2, q3 = _prime_needing(1009), _prime_needing(1013), _prime_needing(1009, 4)
    assert len({q1, q2, q3}) == 3
    for q in (q1, q3):
        assert pow(3, before, q) != 1 and pow(3, after, q) == 1
    assert pow(3, after, q2) != 1
    # q1 completes at 1009 and q2 later, so the gcd after 1009 is q1.
    assert _pollard_pm1(q1 * q2)[0] == q1
    # q1 and q3 complete together: the gcd is n, and p-1 gives up.
    assert _pollard_pm1(q1 * q3)[0] is None


def test_pm1_charges_its_whole_cost_when_it_fails():
    # F7's prime 59649589127497217 has q - 1 = 2^9 * 116503103764643.
    for e in (2, 256):
        assert _pollard_pm1(2**128 + 1, e) == (None, _pm1_cost(e))


def test_factorize_charges_pm1_against_the_budget():
    # Two safe primes: p-1 runs and fails, and then rho needs `needed`
    # squarings in all, more than the rho slice.
    n = 24398498963 * 39296689547
    found, needed = _rho_brent(n, 10**7)
    assert (found, needed) == (24398498963, 252_286)
    cost = _pm1_cost(2)
    assert needed > RHO_SLICE + 128
    assert factorize(n, max_iterations=needed + cost).factors == (
        (24398498963, 1),
        (39296689547, 1),
    )
    budget = needed + cost - 128
    with pytest.raises(FactorizationTimeout) as info:
        factorize(n, max_iterations=budget)
    assert info.value.stage == "p-1"
    assert budget <= info.value.iterations <= budget + 128


def test_factorize_timeout_names_the_stage():
    with pytest.raises(FactorizationTimeout) as info:
        factorize(1000003 * 1000033, max_iterations=10)
    assert info.value.stage == "rho"
    # F7 at a budget that covers the rho slice and p-1: p-1 runs, fails, and
    # the resumed rho runs out.
    budget = 400_000
    with pytest.raises(FactorizationTimeout) as info:
        factorize(2**128 + 1, max_iterations=budget)
    assert info.value.stage == "p-1"
    assert info.value.cofactor == 2**128 + 1
    assert f"after {info.value.iterations} rho and p-1 iterations" in str(info.value)
    # The resumed rho stops within one batch of 128 steps of x^256 + c.
    assert budget <= info.value.iterations <= budget + 128 * ((256).bit_length() - 1)


def test_factorize_with_pm1_before_rho_matches_plain_oracle(monkeypatch):
    # With no rho slice, p-1 is the first hunt on every composite piece.
    monkeypatch.setattr(twogen.factoring, "RHO_SLICE", 0)
    for m in range(1, 81):
        for n in (2**m - 1, 2**m + 1):
            assert factorize(n).factors == _factorize_plain(n), n


def test_small_prime_gcd_matches_trial_division_up_to_2e4():
    for n in range(1, 20_001):
        assert factorize(n).factors == _factorize_plain(n), n


@pytest.mark.parametrize(
    "n",
    [
        3 * 8191,  # a prime above the root of n, left in g after 3
        9967 * 9973,  # two primes near the bound: the walk reaches 9967
        3 * 9973**2,
        9973**3,
        9973,  # the largest prime below the bound
        10007,  # the least prime above it
        3 * 10007,
        2**5 * 3**4 * 5**3 * 7**2,
        math.prod(odd_primes_up_to(TRIAL_DIVISION_BOUND)) * 10007,
    ],
    ids=["3*8191", "9967*9973", "3*9973^2", "9973^3", "9973", "10007", "3*10007",
         "2^5*3^4*5^3*7^2", "all small primes*10007"],
)
def test_small_prime_gcd_edge_cases(n):
    assert factorize(n).factors == _factorize_plain(n)


@pytest.mark.parametrize("small", [3, 3 * 8191, 9973**2], ids=["3", "3*8191", "9973^2"])
def test_small_primes_are_stripped_before_rho(small):
    # The small primes leave with the gcd pass, the last one of g too: rho
    # then hunts exactly the cofactor it hunts when they are absent, and
    # runs out at the same iteration.
    cofactor = (2**61 - 1) * (2**89 - 1)
    with pytest.raises(FactorizationTimeout) as alone:
        factorize(cofactor, max_iterations=70_000)
    with pytest.raises(FactorizationTimeout) as info:
        factorize(small * cofactor, max_iterations=70_000)
    assert info.value.n == small * cofactor
    assert info.value.cofactor == cofactor
    assert info.value.iterations == alone.value.iterations


def test_cached_reads_do_not_build_the_small_prime_product():
    from twogen.factor_cache import FactorCache

    build = twogen.factoring._small_prime_product
    cache = FactorCache()
    cache.put(Factorization(15, ((3, 1), (5, 1))))
    build.cache_clear()
    assert factorize(15, cache=cache).factors == ((3, 1), (5, 1))
    assert build.cache_info().currsize == 0
    assert factorize(21, cache=cache).factors == ((3, 1), (7, 1))
    assert build.cache_info().currsize == 1
    assert build() == math.prod(odd_primes_up_to(TRIAL_DIVISION_BOUND))
    # Nor does importing the module, in a fresh interpreter.
    code = "import twogen.factoring as f; print(f._small_prime_product.cache_info().currsize)"
    src = str(Path(twogen.factoring.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "0\n"


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    fact = factorize(n)
    product = 1
    last = 1
    for p, e in fact.factors:
        assert p > last and e >= 1 and is_prime(p)
        product *= p**e
        last = p
    assert product == n


def test_factorization_check_rejects_lies():
    with pytest.raises(ValueError):
        Factorization(12, ((2, 1), (5, 1))).check()  # product mismatch
    with pytest.raises(ValueError):
        Factorization(15, ((15, 1),)).check()  # composite listed
    with pytest.raises(ValueError):
        Factorization(15, ((5, 1), (3, 1))).check()  # out of order
    Factorization(15, ((3, 1), (5, 1))).check()


def test_divisors_examples():
    assert divisors(factorize(10)) == [1, 2, 5, 10]
    assert divisors(factorize(1)) == [1]
    # divisor-count formula: (1+1) * (9+1)
    assert len(divisors(factorize(2 * 5**9))) == 20


def test_divisors_are_exact():
    for n in (36, 97, 360, 1024):
        assert divisors(factorize(n)) == [d for d in range(1, n + 1) if n % d == 0]


def test_primitive_root_examples():
    assert primitive_root(17) == 3
    assert primitive_root(2) == 1
    assert primitive_root(5) == 2


def test_primitive_root_generates_everything():
    for q in primes_up_to(300):
        g = primitive_root(q)
        seen = {pow(g, k, q) for k in range(1, q)}
        assert seen == set(range(1, q))


def test_primitive_root_is_smallest():
    for q in primes_up_to(100):
        g = primitive_root(q)
        for h in range(1, g):
            assert {pow(h, k, q) for k in range(1, q)} != set(range(1, q))


def test_primitive_root_requires_prime():
    with pytest.raises(ValueError):
        primitive_root(15)


def test_power_roots_at_every_exponent_match_a_scan():
    # s runs over two periods of q - 1, so most exponents do not divide it.
    for q in primes_up_to(100):
        for s in range(1, 2 * (q - 1) + 1):
            roots: dict[int, list[int]] = {}
            for x in range(q):
                roots.setdefault(pow(x, s, q), []).append(x)
            for a in range(q):
                assert power_roots(a, s, q) == roots.get(a, []), (a, s, q)


def test_power_roots_at_exponents_not_dividing_q_minus_1_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(40):
        q = sympy.nextprime(rng.randrange(2, 10 ** rng.randint(2, 30)))
        s = rng.choice([s for s in range(2, 200) if (q - 1) % s])
        for a in (rng.randrange(1, q), pow(rng.randrange(1, q), s, q)):
            want = sympy.nthroot_mod(a, s, q, all_roots=True) or []
            assert power_roots(a, s, q) == sorted(want), (a, s, q)
