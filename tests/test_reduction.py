import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twogen.primes import odd_primes_up_to
from twogen.reduction import (
    ReducedGcd,
    euclidean_trace,
    normalize_target,
    reduce,
    verify_reduction,
)


def test_trace_example_5_4():
    trace = euclidean_trace(5, 4)
    assert trace.r == (5, 4, 1, 0)
    assert trace.a == (1, 4)
    assert trace.s == (1, 1, 0, 1)
    assert trace.t == (0, -1, 1, -5)
    assert trace.n == 2
    assert trace.gcd == 1


def test_trace_example_equal_arguments():
    trace = euclidean_trace(3, 3)
    assert trace.r == (3, 3, 0)
    assert trace.a == (1,)
    assert trace.s == (1, 1, 0)
    assert trace.t == (0, -1, 1)


def test_trace_example_2_7():
    trace = euclidean_trace(2, 7)
    assert trace.gcd == 1
    assert trace.t[-1] == (-1) ** (trace.n + 1) * 2


def test_trace_preconditions():
    with pytest.raises(ValueError):
        euclidean_trace(9, 0)
    with pytest.raises(ValueError):
        euclidean_trace(0, 9)


def _check_trace_invariants(alpha, beta):
    trace = euclidean_trace(alpha, beta)
    n = trace.n
    r, a, s, t = trace.r, trace.a, trace.s, trace.t
    assert len(r) == n + 2 and len(s) == n + 2 and len(t) == n + 2
    assert r[0] == alpha and r[1] == beta and r[n + 1] == 0
    assert r[n] == math.gcd(alpha, beta)
    for i in range(n):
        assert r[i] == a[i] * r[i + 1] + r[i + 2]
        assert s[i + 2] == s[i] - a[i] * s[i + 1]
        assert t[i + 2] == t[i] - a[i] * t[i + 1]
    for i in range(1, n):
        assert 0 <= r[i + 1] < r[i]
    # closed forms for the final entries
    assert t[n + 1] == (-1) ** (n + 1) * r[0] // r[n]
    assert s[n + 1] == (-1) ** n * (r[0] - r[1]) // r[n]


def test_trace_invariants_small_grid():
    for alpha in range(1, 41):
        for beta in range(1, 41):
            _check_trace_invariants(alpha, beta)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 500), st.integers(1, 500))
def test_trace_invariants_random(alpha, beta):
    _check_trace_invariants(alpha, beta)


def test_reduce_examples_from_k9_table():
    # gcd(p^5+1, 2p^4+1) = gcd(p - 2, 33)
    form = reduce(5, 4)
    assert (form.delta, form.modulus) == (1, 33)
    assert normalize_target(form) == (2, 33)
    # gcd(p^7+1, 2p^2+1) = gcd(p - 8, 129)
    form = reduce(7, 2)
    assert (form.delta, form.modulus) == (1, 129)
    assert normalize_target(form) == (8, 129)
    # gcd(p^2+1, 2p^7+1) = gcd(2p - 1, 5), i.e. p = 3 (mod 5)
    form = reduce(2, 7)
    assert (form.delta, form.modulus) == (1, 5)
    assert normalize_target(form) == (3, 5)


def test_reduce_delta_is_gcd():
    for alpha in range(1, 25):
        for beta in range(1, 25):
            form = reduce(alpha, beta)
            assert form.delta == math.gcd(alpha, beta)
            assert form.sign in (-1, 1)
            assert form.modulus % 2 == 1 and form.modulus >= 1


def _form_of_trace(alpha, beta):
    """The target shape read off the whole trace: the oracle of `reduce`."""
    trace = euclidean_trace(alpha, beta)
    delta = trace.gcd
    sign = -1 if trace.s[trace.n] % 2 else 1
    parity = ((alpha - beta) // delta) % 2
    return ReducedGcd(delta, sign, trace.t[trace.n], 2 ** (alpha // delta) - (-1) ** parity)


def test_reduce_reads_the_end_of_the_trace():
    for alpha in range(1, 201):
        for beta in range(1, 201):
            assert reduce(alpha, beta) == _form_of_trace(alpha, beta), (alpha, beta)


@pytest.mark.parametrize("alpha, beta", [(0, 9), (9, 0), (0, 0), (-1, 3), (3, -2)])
def test_reduce_refuses_what_the_trace_refuses(alpha, beta):
    with pytest.raises(ValueError) as from_trace:
        euclidean_trace(alpha, beta)
    with pytest.raises(ValueError) as from_reduce:
        reduce(alpha, beta)
    assert str(from_reduce.value) == str(from_trace.value)
    assert str(from_reduce.value) == f"need alpha, beta >= 1, got ({alpha}, {beta})"


def test_normalize_examples():
    assert normalize_target(ReducedGcd(1, 1, 0, 1)) == (0, 1)
    assert normalize_target(ReducedGcd(1, -1, 1, 3)) == (1, 3)  # -2 = 1 (mod 3)
    assert normalize_target(ReducedGcd(1, 1, -5, 33)) == (32, 33)  # 2^-5 = -1 (mod 33)


def test_verify_reduction_success():
    check = verify_reduction(5, 4, 200)
    assert check.ok
    assert check.primes_checked == 45


def test_verify_reduction_trivial_modulus():
    check = verify_reduction(1, 1, 200)
    assert check.ok
    assert reduce(1, 1).modulus == 1


def test_verify_reduction_preconditions():
    with pytest.raises(ValueError):
        verify_reduction(9, 0, 100)
    with pytest.raises(ValueError):
        verify_reduction(2, 3, 2)


def test_reduction_identity_grid():
    for alpha in range(1, 13):
        for beta in range(1, 13):
            check = verify_reduction(alpha, beta, 100)
            assert check.ok, (alpha, beta, check.counterexample)


def test_gcd_is_odd_for_odd_primes():
    for p in odd_primes_up_to(300):
        for alpha, beta in ((1, 1), (2, 3), (5, 4), (6, 2), (7, 7)):
            assert math.gcd(p**alpha + 1, 2 * p**beta + 1) % 2 == 1


def test_sign_parity_consistency():
    # with beta = k - i, the exponent parity (alpha-beta)/delta matches k/delta
    for k in range(2, 25):
        for i in range(1, k):
            delta = math.gcd(i, k)
            assert ((2 * i - k) // delta) % 2 == ((k // delta)) % 2
