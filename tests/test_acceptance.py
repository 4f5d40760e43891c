"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import re

from twogen import cli
from twogen.primes import odd_primes_up_to
from twogen.counting import count_prime_power, count_special
from twogen.indicators import Indicator, decompose, expand_power, strip_exponent
from twogen.modulus import dependence_check
from twogen.reduction import euclidean_trace, normalize_target, reduce
from twogen.semigroup import count_two_generator, enumerate_by_genus
from twogen.synthesis import (
    SynthesisBlocked,
    minimal_modulus,
    synthesize,
    verify_formula,
)

from golden_formulas import GOLDEN


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:>2} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_table_of_moduli(capsys, tmp_path):
    expected = [3, 3, 15, 21, 255, 465, 36465, 82677, 30998055, 16548735]
    got = []
    for k in range(1, 11):
        code = cli.main(
            ["modulus", "--k", str(k), "--factor-cache", str(tmp_path / "f.txt")]
        )
        out = capsys.readouterr().out
        assert code == 0
        match = re.search(rf"^M\({k}\) = (\d+)", out, re.MULTILINE)
        got.append(int(match.group(1)) if match else None)
    with capsys.disabled():
        _report(1, "first ten governing moduli via CLI", got == expected)


def test_criterion_02_golden_formulas():
    ok = all(synthesize(k) == GOLDEN[k] for k in range(1, 11))
    _report(2, "derived formulas equal the transcribed closed forms", ok)


def test_criterion_03_oracle_equivalence_sweep():
    primes = odd_primes_up_to(2000)
    mismatches = 0
    for k in range(1, 11):
        formula = synthesize(k)
        for p in primes:
            if formula.evaluate(p) != count_prime_power(p, k):
                mismatches += 1
    _report(3, "formula == direct count, k <= 10, odd p <= 2000", mismatches == 0)


def test_criterion_04_reduction_identity():
    primes = odd_primes_up_to(300)
    powers = {p: [p**e for e in range(25)] for p in primes}
    ok = True
    for alpha in range(1, 25):
        for beta in range(1, 25):
            form = reduce(alpha, beta)
            a, c = normalize_target(form)
            for p in primes:
                lhs = math.gcd(powers[p][alpha] + 1, 2 * powers[p][beta] + 1)
                if lhs != math.gcd(powers[p][form.delta] - a, c):
                    ok = False
    _report(4, "gcd reduction identity, alpha,beta <= 24, p <= 300", ok)


def test_criterion_05_trace_closed_forms():
    ok = True
    for alpha in range(1, 201):
        for beta in range(1, 201):
            trace = euclidean_trace(alpha, beta)
            n = trace.n
            g = trace.r[n]
            if trace.t[n + 1] != (-1) ** (n + 1) * trace.r[0] // g:
                ok = False
            if trace.s[n + 1] != (-1) ** n * (trace.r[0] - trace.r[1]) // g:
                ok = False
    _report(5, "closed forms for the final trace entries, args <= 200", ok)


def test_criterion_06_census_cross_check():
    levels = enumerate_by_genus(18)
    ok = [len(lv) for lv in levels[:8]] == [1, 1, 2, 4, 7, 12, 23, 39]
    for g in range(1, 19):
        if count_two_generator(levels[g]) != count_special(g):
            ok = False
    _report(6, "genus-tree census vs divisor-pair count, g <= 18", ok)


def test_criterion_07_minimal_moduli():
    expected = [3, 1, 15, 7, 255, 31, 36465, 27559]
    got = [minimal_modulus(synthesize(k)) for k in range(1, 9)]
    ok = got == expected and minimal_modulus(synthesize(9)) == 30998055
    _report(7, "minimal moduli for k = 1..9", ok)


def test_criterion_08_dependence_property():
    ok = True
    for k in range(1, 11):
        report = dependence_check(k, 10_000)
        if not report.ok:
            ok = False
    _report(8, "count constant on classes mod M(k), k <= 10, p <= 10^4", ok)


def test_criterion_09_indicator_algebra_exhaustive():
    ok = True
    primes = [q for q in odd_primes_up_to(59)] + [2]
    for q in sorted(primes):
        for a in range(q):
            x = Indicator(a, q)
            # gcd characterization
            for n in range(q):
                if x(n) != (1 if math.gcd(n - a, q) == 1 else 0):
                    ok = False
            # exponent stripping
            for s in range(2, 13):
                stripped, t = strip_exponent(x, s)
                for n in range(q):
                    if x(n**s) != stripped(n**t):
                        ok = False
            # power expansion
            for s in range(1, q):
                if (q - 1) % s:
                    continue
                factors = expand_power(x, s)
                for n in range(q):
                    product = 1
                    for f in factors:
                        product *= f(n)
                    if x(n**s) != product:
                        ok = False
    # the named square-split identity: 8 = 5^2 = 12^2 (mod 17)
    if expand_power(Indicator(8, 17), 2) != (Indicator(5, 17), Indicator(12, 17)):
        ok = False
    _report(9, "indicator algebra exhaustive for prime q < 60", ok)


def test_criterion_10_extension_smoke():
    ok = True
    for k in range(11, 15):
        try:
            formula = synthesize(k)
        except SynthesisBlocked as exc:
            # acceptable outcome, provided the blocking modulus is named
            if not exc.modulus or exc.modulus <= 1:
                ok = False
            continue
        if not verify_formula(formula, 500).ok:
            ok = False
        if formula.constant + len(formula.terms) != k + 1:
            ok = False
    _report(10, "extension to k = 11..14 verifies or blocks loudly", ok)
