"""Every row modulus m_k(i) > 2 of k <= 128 factored from an empty cache in
one process, with where the time went; runnable:

    PYTHONPATH=src python tests/row_moduli_factoring.py

prints the wall time, how many composite pieces each hunting stage split
(the first rho slice, p-1, the resumed rho), the slowest hunt, and the
`is_prime` calls per stored prime, and exits 1 unless the sha256 of the
sorted factorizations is ROW_MODULI_SHA256 or some stored prime was proven
twice.  The times are reported, never checked.
"""

from __future__ import annotations

import hashlib
import sys
import time
from collections import Counter

import twogen.factoring as factoring
from twogen.counting import row_modulus
from twogen.factor_cache import FactorCache, format_factors

MAX_K = 128
ROW_MODULI_SHA256 = "7e9584a0dd8e966802f1fbf50767c70b5b937fc4696068abed1ee18ec52a109d"


def main() -> int:
    moduli = sorted({row_modulus(k, i) for k in range(1, MAX_K + 1) for i in range(k + 1)} - {1, 2})
    proofs: Counter = Counter()
    splits: Counter = Counter()
    hunts = []  # (seconds, bits of the piece, stage that split it)
    real_is_prime, real_split, real_pm1 = factoring.is_prime, factoring._split, factoring._pollard_pm1
    pm1_found = []

    def is_prime(n):
        proofs[n] += 1
        return real_is_prime(n)

    def pollard_pm1(n, e=2):
        factor, used = real_pm1(n, e)
        pm1_found.append(factor is not None)
        return factor, used

    def split(n, e, budget):
        pm1_found.clear()
        start = time.perf_counter()
        factor, used, stage = real_split(n, e, budget)
        seconds = time.perf_counter() - start
        if factor is None:
            stage = "none"
        elif pm1_found:
            stage = "p-1" if pm1_found[0] else "resumed rho"
        else:
            stage = "rho slice" if used <= factoring.RHO_SLICE + 128 * e.bit_length() else "resumed rho"
        splits[stage] += 1
        hunts.append((seconds, n.bit_length(), stage))
        return factor, used, stage

    factoring.is_prime, factoring._split, factoring._pollard_pm1 = is_prime, split, pollard_pm1
    cache = FactorCache()
    start = time.perf_counter()
    try:
        for m in moduli:
            factoring.factorize(m, cache)
    finally:
        factoring.is_prime, factoring._split, factoring._pollard_pm1 = real_is_prime, real_split, real_pm1
    seconds = time.perf_counter() - start

    text = "".join(f"{n} = {format_factors(cache.get(n).factors)}\n" for n in cache.values())
    digest = hashlib.sha256(text.encode()).hexdigest()
    stored = {p for n in cache.values() for p, _ in cache.get(n).factors}
    on_stored = sum(proofs[p] for p in stored)
    slowest = max(hunts, default=(0.0, 0, "none"))
    print(f"{len(moduli)} row moduli of k <= {MAX_K} from an empty cache: {seconds:.2f} s")
    print(
        "pieces split: " + ", ".join(f"{splits[s]} by {s}" for s in ("rho slice", "p-1", "resumed rho"))
        + f"; {splits['none']} not split"
    )
    print(f"slowest hunt: {slowest[0]:.3f} s on a {slowest[1]}-bit piece, split by {slowest[2]}")
    print(
        f"is_prime: {sum(proofs.values())} calls, {on_stored} on the {len(stored)} stored primes"
        f" ({on_stored / max(len(stored), 1):.2f} per stored prime)"
    )
    print(f"sha256 of the sorted factorizations: {digest}")
    failed = False
    if digest != ROW_MODULI_SHA256:
        print(f"expected sha256 {ROW_MODULI_SHA256}")
        failed = True
    twice = sorted(p for p in stored if proofs[p] > 1)
    if twice:
        print(f"stored primes proven more than once: {twice}")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
