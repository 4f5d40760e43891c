"""The four benchmark workloads.

Each workload's `setup(seed, work_dir, launcher)` builds its inputs and
returns a list of items.  An item is one timed unit of work: `work()` makes
the calls into twogen (or runs one `twogen` process), and `check(output)`
returns `(fingerprint, error)`.  `error` is an invariant that failed; the
fingerprint is compared with the reference outputs in `expected.json`.

The seed only permutes the order of items; the set of items, and so the
work, is fixed.  Every call goes through an attribute of the `twogen`
package, so the tracing wrappers see it.  The in-process workloads import
twogen in their set-up; the cli worker never does, so its set-up time is
its own start plus one `twogen` process.
"""

from __future__ import annotations

import hashlib
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))

CALL_TIMEOUT_S = 60


@dataclass
class Item:
    key: str
    work: Callable[[], Any]
    check: Callable[[Any], tuple[Any, str | None]]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# --- derive --------------------------------------------------------------

DERIVE_KS = range(1, 63)
# minimal_modulus finishes in seconds at these k; k = 19, 23, 25-27, 29 and
# 31-35 take 4-13 s each with today's pattern scan.
MINIMAL_MODULUS_KS = frozenset([*range(1, 19), 20, 21, 22, 24, 28, 30, 36])
# Values asserted by tests/test_acceptance.py (criterion 7).
ACCEPTANCE_MINIMAL_MODULI = {
    1: 3, 2: 1, 3: 15, 4: 7, 5: 255, 6: 31, 7: 36465, 8: 27559, 9: 30998055,
}


def setup_derive(seed, work_dir, launcher):
    import twogen
    from golden_formulas import GOLDEN

    cache = twogen.FactorCache()
    ks = list(DERIVE_KS)
    random.Random(seed).shuffle(ks)

    def work(k):
        formula = twogen.synthesize(k, cache)
        text = twogen.render(formula, "factored")
        minimal = twogen.minimal_modulus(formula) if k in MINIMAL_MODULUS_KS else None
        return formula, text, minimal

    def check(k, output):
        formula, text, minimal = output
        if formula.constant + len(formula.terms) != k + 1:
            return None, f"constant + len(terms) != {k + 1}"
        if k in GOLDEN and formula != GOLDEN[k]:
            return None, "formula differs from tests/golden_formulas.GOLDEN"
        if k in ACCEPTANCE_MINIMAL_MODULI and minimal != ACCEPTANCE_MINIMAL_MODULI[k]:
            return None, f"minimal modulus {minimal} != {ACCEPTANCE_MINIMAL_MODULI[k]}"
        return {"render_sha256": _sha256(text), "minimal_modulus": minimal}, None

    return [
        Item(f"k={k}", lambda k=k: work(k), lambda out, k=k: check(k, out)) for k in ks
    ]


# --- sweep ---------------------------------------------------------------

SWEEP_FORMULA_KS = (9, 30, 60)
SWEEP_PRIME_BOUND = 200_000
DEPENDENCE_KS = (4, 9)
DEPENDENCE_PRIME_BOUND = 100_000


def setup_sweep(seed, work_dir, launcher):
    import twogen

    cache = twogen.FactorCache()
    formulas = {k: twogen.synthesize(k, cache) for k in SWEEP_FORMULA_KS}

    def check_verify(report):
        if not report.ok:
            return None, f"{len(report.mismatches)} mismatches, first {report.mismatches[0]}"
        return {"primes_checked": report.primes_checked}, None

    def check_dependence(report):
        if not report.ok:
            return None, f"{len(report.violations)} violations, first {report.violations[0]}"
        fingerprint = {
            "modulus": report.modulus,
            "primes_checked": report.primes_checked,
            "classes": len(report.classes),
        }
        return fingerprint, None

    items = [
        Item(
            f"verify k={k}",
            lambda k=k: twogen.verify_formula(formulas[k], SWEEP_PRIME_BOUND),
            check_verify,
        )
        for k in SWEEP_FORMULA_KS
    ]
    items += [
        Item(
            f"dependence k={k}",
            lambda k=k: twogen.dependence_check(k, DEPENDENCE_PRIME_BOUND, cache),
            check_dependence,
        )
        for k in DEPENDENCE_KS
    ]
    random.Random(seed).shuffle(items)
    return items


# --- census --------------------------------------------------------------

CENSUS_GENUS = 21
# OEIS A007323: numerical semigroups by genus, g = 0..21.
A007323 = (
    1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806,
    8045, 13467, 22464, 37396, 62194,
)


def setup_census(seed, work_dir, launcher):
    import twogen

    genera = list(range(1, CENSUS_GENUS + 1))
    random.Random(seed).shuffle(genera)

    def work():
        levels = twogen.enumerate_by_genus(CENSUS_GENUS)
        pairs = {
            g: (twogen.count_two_generator(levels[g]), twogen.count_special(g))
            for g in genera
        }
        return [len(level) for level in levels], pairs

    def check(output):
        sizes, pairs = output
        if tuple(sizes) != A007323[: CENSUS_GENUS + 1]:
            return None, f"level sizes {sizes} differ from OEIS A007323"
        bad = sorted(g for g, (census, special) in pairs.items() if census != special)
        if bad:
            return None, f"count_two_generator != count_special at genus {bad}"
        return None, None

    return [Item(f"census g={CENSUS_GENUS}", work, check)]


# --- cli -----------------------------------------------------------------

# Writes: each call factors the new 2^j +- 1 rows and rewrites the cache.
# modulus --k 129 would block on 2^128 + 1 (about 10 s per attempt).
CLI_MODULUS_KS = range(4, 129, 4)
# Reads: after `modulus --k 4, 8, 12, 16` every number these factor (the row
# moduli m_k(i) for k in 4, 8, 12, 16) is cached, so they never write.
CLI_WARM_AFTER = 4  # modulus calls before the first read
CLI_READS = (
    *(("derive", "--json", "--k", str(k)) for k in (4, 8, 12, 16)),
    *(("verify", "--k", str(k)) for k in (4, 8, 12, 16)),
    *(
        ("count", "--prime", str(p), "--power", str(k))
        for p, k in ((3, 16), (101, 12), (257, 9), (65537, 5))
    ),
    *(
        ("reduce", "--alpha", str(a), "--beta", str(b), "--verify")
        for a, b in ((5, 3), (12, 4), (16, 9), (7, 13))
    ),
    *(
        ("xreduce", "--a", str(a), "--q", str(q), "--s", str(s))
        for a, q, s in ((3, 31, 2), (8, 127, 3), (100, 511, 6), (5, 2047, 22))
    ),
)
CLI_SETUP_CALL = ("count", "--prime", "3", "--power", "1")


def cli_script(seed) -> list[tuple[str, ...]]:
    """Modulus calls in rising k, with the reads interleaved by the seed."""
    rng = random.Random(seed)
    writes = [("modulus", "--k", str(k)) for k in CLI_MODULUS_KS]
    reads = list(CLI_READS)
    rng.shuffle(reads)
    slots = ["w"] * (len(writes) - CLI_WARM_AFTER) + ["r"] * len(reads)
    rng.shuffle(slots)
    later_writes = iter(writes[CLI_WARM_AFTER:])
    reads_iter = iter(reads)
    script = writes[:CLI_WARM_AFTER]
    script += [next(later_writes) if slot == "w" else next(reads_iter) for slot in slots]
    return script


def setup_cli(seed, work_dir, launcher):
    """`launcher(args, item)` runs one twogen process and returns
    (exit code, stdout); every call shares one cache file in `work_dir`."""
    cache_args = ("--factor-cache", str(Path(work_dir) / "factors.txt"))

    def check(output):
        code, stdout = output
        if code != 0:
            return None, f"exit code {code}"
        return {"stdout_sha256": _sha256(stdout)}, None

    code, _ = launcher(CLI_SETUP_CALL + cache_args, "setup")
    if code != 0:
        raise RuntimeError(f"twogen {' '.join(CLI_SETUP_CALL)} exited with {code}")
    return [
        Item(" ".join(args), lambda args=args, i=i: launcher(args + cache_args, i), check)
        for i, args in enumerate(cli_script(seed))
    ]


def run_twogen(args, trace_args=()) -> tuple[int, str]:
    """One `twogen` process started from the source tree."""
    cmd = [sys.executable, str(ROOT / "bench" / "launch.py"), *trace_args, "--", *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CALL_TIMEOUT_S)
    return proc.returncode, proc.stdout


WORKLOADS = {
    "derive": setup_derive,
    "sweep": setup_sweep,
    "census": setup_census,
    "cli": setup_cli,
}
