import math

import pytest

from twogen import modulus as modulus_mod
from twogen.counting import _surviving_exponents, row_modulus
from twogen.factoring import FactorizationTimeout, factorize
from twogen.modulus import DependenceReport, dependence_check, modulus_of
from twogen.primes import odd_primes_up_to

TABLE_1_TO_10 = [3, 3, 15, 21, 255, 465, 36465, 82677, 30998055, 16548735]


def test_row_modulus_examples():
    assert row_modulus(9, 5) == 33
    assert row_modulus(9, 7) == 129
    assert row_modulus(2, 1) == 1
    assert row_modulus(10, 8) == 17


def test_row_modulus_odd_k_form():
    for k in (1, 3, 5, 7, 9, 11):
        for i in range(1, k + 1):
            d = math.gcd(i, k)
            assert row_modulus(k, i) == 2 ** (i // d) + 1


def test_first_ten_moduli():
    for k, expected in enumerate(TABLE_1_TO_10, start=1):
        assert modulus_of(k).modulus == expected


def test_modulus_9_prime_support():
    report = modulus_of(9)
    assert report.modulus == 30998055
    assert [p for p, _ in report.factors.factors] == [3, 5, 11, 17, 43, 257]


def test_modulus_3_per_row():
    report = modulus_of(3)
    assert report.per_i == ((1, 3), (2, 5), (3, 3))
    assert report.modulus == 15
    assert report.complete


def test_modulus_squarefree_and_odd():
    for k in range(1, 17):
        report = modulus_of(k)
        assert report.modulus % 2 == 1
        assert all(e == 1 for _, e in report.factors.factors)
        product = 1
        for p, _ in report.factors.factors:
            product *= p
        assert product == report.modulus


def test_modulus_rejects_bad_k():
    with pytest.raises(ValueError):
        modulus_of(0)


def test_incomplete_report(monkeypatch):
    real = factorize

    def flaky(n, cache=None, **kwargs):
        if n == 33:
            raise FactorizationTimeout(n, n)
        return real(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", flaky)
    report = modulus_of(9)
    assert not report.complete
    assert report.unfactored == (33,)
    # 33 = 3 * 11; 3 still enters through other rows, 11 is lost
    assert 11 not in [p for p, _ in report.factors.factors]
    assert report.modulus == 30998055 // 11


def test_dependence_small_k():
    report = dependence_check(2, 1000)
    assert report.ok
    assert report.values == {3}
    assert report.modulus == 3


def test_dependence_needs_an_odd_prime():
    with pytest.raises(ValueError, match=r"^prime_bound must be >= 3, got 1$"):
        dependence_check(1, 1)
    # 3 divides M(1) = 3, so a bound of 3 leaves no prime to compare
    with pytest.raises(ValueError, match=r"^no odd prime <= 3 is prime to M\(1\) = 3$"):
        dependence_check(1, 3)
    assert dependence_check(1, 5).ok


def test_dependence_checks_k_before_the_sieve(monkeypatch):
    def unsieved(bound):
        raise AssertionError(f"sieved to {bound}")

    monkeypatch.setattr(modulus_mod, "odd_prime_flags", unsieved)
    with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
        dependence_check(0, 10**10)


def test_dependence_needs_a_prime_outside_m_k():
    # 3 divides M(k) for every k, so a bound of 3 leaves no prime to sweep.
    for k in range(1, 5):
        m = modulus_of(k).modulus
        message = rf"^no odd prime <= 3 is prime to M\({k}\) = {m}$"
        with pytest.raises(ValueError, match=message):
            dependence_check(k, 3)


def test_dependence_check_at_a_window_edge():
    # 65,537 is the first prime of the second window of the class sweep.
    assert dependence_check(4, 65_537) == _reference_dependence(4, 65_537)


def test_dependence_k4_values():
    report = dependence_check(4, 10_000)
    assert report.ok
    assert report.values == {4, 5}
    assert report.modulus == 21
    # primes dividing M(k) are excluded from the grouping
    assert all(residue % 3 != 0 and residue % 7 != 0 for residue, _ in report.classes)


def test_dependence_k9():
    report = dependence_check(9, 2000)
    assert report.ok
    assert report.modulus == 30998055


def _reference_dependence(k: int, prime_bound: int) -> DependenceReport:
    """dependence_check as a loop over the per-prime direct count."""
    m = modulus_of(k).modulus
    classes: dict[int, int] = {}
    violations = []
    checked = 0
    for p in odd_primes_up_to(prime_bound):
        if m % p == 0:
            continue
        checked += 1
        residue = p % m
        value = len(_surviving_exponents(p, k))
        expected = classes.setdefault(residue, value)
        if value != expected:
            violations.append((p, residue, value, expected))
    return DependenceReport(
        k, m, checked, tuple(sorted(classes.items())), tuple(violations)
    )


def test_dependence_check_reports_what_the_per_prime_count_reports():
    for k in range(2, 10):
        assert dependence_check(k, 10_000) == _reference_dependence(k, 10_000), k


def test_dependence_check_raises_the_timeout_it_caught(monkeypatch):
    real = factorize
    raised = []

    def flaky(n, cache=None, **kwargs):
        if n == 33:
            raised.append(FactorizationTimeout(n, 11, 12345, "p-1"))
            raise raised[-1]
        return real(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", flaky)
    with pytest.raises(FactorizationTimeout) as info:
        dependence_check(9, 100)
    # The timeout modulus_of caught, not a new one: 33 is factored once.
    assert info.value is raised[0] and len(raised) == 1
    timeout = info.value
    assert (timeout.n, timeout.cofactor, timeout.iterations, timeout.stage) == (
        33, 11, 12345, "p-1",
    )


def test_each_distinct_row_modulus_is_factored_once(monkeypatch):
    real = factorize
    calls = []

    def counted(n, cache=None, **kwargs):
        calls.append(n)
        return real(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", counted)
    report = modulus_of(60)
    distinct = {m for _, m in report.per_i} - {1}
    assert len(calls) == len(distinct) == 27
    assert calls == sorted(distinct)


def test_a_modulus_shared_by_rows_is_hunted_once(monkeypatch):
    # 127 = 2^7 - 1 is the modulus of rows 7, 14, 21, 35 and 42 of k = 60.
    assert [i for i, m in modulus_of(60).per_i if m == 127] == [7, 14, 21, 35, 42]
    real = factorize
    raised = []

    def flaky(n, cache=None, **kwargs):
        if n == 127:
            raised.append(FactorizationTimeout(n, n))
            raise raised[-1]
        return real(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", flaky)
    report = modulus_of(60)
    assert len(raised) == 1
    assert report.unfactored == (127,)
    with pytest.raises(FactorizationTimeout) as info:
        dependence_check(60, 100)
    assert len(raised) == 2 and info.value is raised[1]


def test_dependence_check_hunts_nothing_after_the_first_timeout(monkeypatch):
    # The distinct row moduli of k = 9 in the order they are factored: the
    # budget runs out on 33, so 129 and 257 are never hunted.
    assert sorted({row_modulus(9, i) for i in range(1, 10)} - {1}) == [
        3, 5, 17, 33, 129, 257,
    ]
    real = factorize
    calls = []

    def flaky(n, cache=None, **kwargs):
        calls.append(n)
        if n == 33:
            raise FactorizationTimeout(n, 11, 12345, "p-1")
        return real(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", flaky)
    with pytest.raises(FactorizationTimeout) as info:
        dependence_check(9, 100)
    assert info.value.n == 33
    assert calls == [3, 5, 17, 33]
