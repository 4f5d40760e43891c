"""The kill classes and rough parts of a sweep by plain trial division: the
odd part of every row is divided by every swept prime in turn, and a
cofactor is named as soon as `is_prime` proves it.  The slow oracle that
`counting._prime_tables`, which divides each cyclotomic piece of a row
only by the swept primes that can divide it, is checked against; runnable:

    PYTHONPATH=src python tests/trial_division_tables.py 200000 200 256

checks `_prime_tables` and `_survivor_counts` against it at each k over the
odd primes up to the bound, prints both table times and rough-row counts,
and exits 1 on any mismatch.
"""

from __future__ import annotations

import math
import sys
import time

import twogen.counting as counting
from twogen.counting import _bad_residues, _row_table
from twogen.factoring import _cyclotomic_pieces
from twogen.primes import _MR_DETERMINISTIC_BELOW, is_prime, odd_flagged, odd_prime_flags


def trial_division_tables(
    flags: bytes, k: int
) -> tuple[list[list[tuple[int, int]]], list[tuple[int, int, int]]]:
    """(kills, rough) as `counting._prime_tables` returns them, with the row
    primes named by trial division by every swept prime, read lazily off
    the flags, and by proven cofactors."""
    rows = _row_table(k)
    rough = [m // (m & -m) for _, _, m in rows]  # row gcds are odd
    kills: list[list[tuple[int, int]]] = [[] for _ in rows]

    def name(q: int, i: int, j: int) -> None:
        kills[i].extend((x, q) for x in _bad_residues(q, i, j))

    def prove(i: int, j: int) -> None:
        if 1 < rough[i] < _MR_DETERMINISTIC_BELOW and is_prime(rough[i]):
            name(rough[i], i, j)
            rough[i] = 1

    for i, j, _ in rows:
        prove(i, j)
    left = math.prod(set(rough))
    for q in odd_flagged(flags) if left > 1 else ():
        if left % q:
            continue
        for i, j, _ in rows:
            if rough[i] % q == 0:
                while rough[i] % q == 0:
                    rough[i] //= q
                name(q, i, j)
                prove(i, j)
        if (left := math.prod(set(rough))) == 1:
            break
    return kills, [(i, j, r) for (i, j, _), r in zip(rows, rough) if r > 1]


def table_mismatches(k: int, tables, oracle) -> list[str]:
    """What the tables of `_prime_tables` get wrong against the oracle's: the
    cyclotomic pieces of each row must multiply back to its odd part, each
    row must name every prime the oracle names and only primes of its row
    modulus, and keep a rough part only where the oracle keeps one."""
    (kills, rough), (slow_kills, slow_rough) = tables, oracle
    errors = []
    for (i, _, m), classes, slow in zip(_row_table(k), kills, slow_kills):
        odd = m // (m & -m)
        if math.prod(piece for _, piece in _cyclotomic_pieces(odd)) != odd:
            errors.append(f"k={k} row {i}: the pieces of {odd} do not multiply to it")
        primes, slow_primes = {q for _, q in classes}, {q for _, q in slow}
        if not slow_primes <= primes or any(m % q for q in primes):
            errors.append(f"k={k} row {i}: names {sorted(primes)}, oracle {sorted(slow_primes)}")
    if not {i for i, _, _ in rough} <= {i for i, _, _ in slow_rough}:
        errors.append(f"k={k}: rough rows {[i for i, _, _ in rough]} not within the oracle's")
    return errors


def oracle_survivor_counts(flags: bytes, k: int) -> list[int]:
    """`_survivor_counts` run on the oracle's tables."""
    fast = counting._prime_tables
    counting._prime_tables = trial_division_tables
    try:
        return counting._survivor_counts(flags, k)
    finally:
        counting._prime_tables = fast


def main(argv: list[str]) -> int:
    bound, *ks = map(int, argv)
    flags = odd_prime_flags(bound)
    failed = False
    for k in ks:
        start = time.perf_counter()
        tables = counting._prime_tables(flags, k)
        middle = time.perf_counter()
        oracle = trial_division_tables(flags, k)
        end = time.perf_counter()
        errors = table_mismatches(k, tables, oracle)
        if counting._survivor_counts(flags, k) != oracle_survivor_counts(flags, k):
            errors.append(f"k={k}: survivor counts differ from the oracle's")
        print(
            f"k={k}, odd primes <= {bound}: tables {1e3 * (middle - start):.1f} ms"
            f" (trial division {1e3 * (end - middle):.1f} ms), rough rows"
            f" {len(tables[1])} (trial division {len(oracle[1])})"
        )
        for error in errors:
            print(error)
        failed |= bool(errors)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
