import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from census_entries import decode
from jsonschema import validate

from twogen import cli
from twogen import indicators as indicators_mod
from twogen import modulus as modulus_mod
from twogen import primes as primes_mod
from twogen import synthesis as synthesis_mod
from twogen.factoring import FactorizationTimeout, factorize
from twogen.factor_cache import FactorCache
from twogen.semigroup import count_two_generator, enumerate_by_genus
from twogen.synthesis import FormulaCheck, SynthesisBlocked

DERIVE_SCHEMA = {
    "type": "object",
    "required": ["k", "constant", "terms", "natural_modulus", "minimal_modulus"],
    "properties": {
        "k": {"type": "integer", "minimum": 1},
        "constant": {"type": "integer", "minimum": 1},
        "terms": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 1,
                "items": {
                    "type": "object",
                    "required": ["a", "q"],
                    "properties": {
                        "a": {"type": "integer", "minimum": 0},
                        "q": {"type": "integer", "minimum": 2},
                    },
                    "additionalProperties": False,
                },
            },
        },
        "natural_modulus": {"type": "integer", "minimum": 1},
        "minimal_modulus": {"type": "integer", "minimum": 1},
    },
    "additionalProperties": False,
}


def _exact(**properties):
    """The schema of an object with exactly these keys."""
    return {
        "type": "object",
        "required": sorted(properties),
        "properties": properties,
        "additionalProperties": False,
    }


INT = {"type": "integer"}
INTS = {"type": "array", "items": INT}
PAIRS = {"type": "array", "items": {**INTS, "minItems": 2, "maxItems": 2}}
INDICATORS = {"type": "array", "items": _exact(a=INT, q=INT)}
MODULUS_SCHEMA = _exact(
    k=INT, per_i=PAIRS, M=INT, factors=PAIRS, complete={"type": "boolean"}, unfactored=INTS
)
REDUCE_FIELDS = {
    "alpha": INT, "beta": INT, "trace": _exact(r=INTS, a=INTS, s=INTS, t=INTS),
    "delta": INT, "sign": INT, "two_exp": INT, "modulus": INT, "residue": INT,
}


def run(capsys, tmp_path, *argv):
    code = cli.main([*argv, "--factor-cache", str(tmp_path / "factors.txt")])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_modulus_text(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "modulus", "--k", "5")
    assert code == 0
    assert "M(5) = 255 = 3 * 5 * 17" in out


def test_modulus_json(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "modulus", "--k", "9", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, MODULUS_SCHEMA)
    assert payload["M"] == 30998055
    assert payload["complete"] is True
    assert [1, 3] in payload["per_i"]


def test_count_genus(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "count", "--genus", "4")
    assert code == 0
    assert "n(4,2) = 2" in out


def test_count_genus_witnesses(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "count", "--genus", "7", "--witnesses")
    assert code == 0
    assert "{1, 14}" in out and "{2, 7}" in out


def test_count_prime_power(capsys, tmp_path):
    code, out, _ = run(
        capsys, tmp_path, "count", "--prime", "7", "--power", "1", "--witnesses"
    )
    assert code == 0
    assert "n(7^1,2) = 2" in out
    assert "surviving exponents: 0, 1" in out


def test_count_requires_one_mode(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "count")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run(capsys, tmp_path, "count", "--genus", "3", "--prime", "5")
    assert code == 2


def test_count_power_and_prime_need_each_other(capsys, tmp_path):
    code, out, err = run(capsys, tmp_path, "count", "--genus", "5", "--power", "3")
    assert (code, out) == (2, "")
    assert "--power requires --prime" in err
    code, out, err = run(capsys, tmp_path, "count", "--prime", "5")
    assert (code, out) == (2, "")
    assert "--prime requires --power" in err


def test_count_rejects_even_prime(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "count", "--prime", "2", "--power", "3")
    assert code == 2
    assert "odd prime" in err


def test_enumerate_table(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "enumerate", "--genus", "7", "--count-only")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["genus", "total", "two-generator"]
    totals = [int(line.split()[1]) for line in lines[1:9]]
    assert totals == [1, 1, 2, 4, 7, 12, 23, 39]


def test_enumerate_listing(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "enumerate", "--genus", "2")
    assert code == 0
    assert "gaps=[1,2] generators=[3,4,5]" in out
    assert "gaps=[1,3] generators=[2,5]" in out


def test_enumerate_json(capsys, tmp_path):
    code, out, _ = run(
        capsys, tmp_path, "enumerate", "--genus", "3", "--count-only", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["levels"][3] == {"genus": 3, "total": 4, "two_generator": 2}


def test_enumerate_json_listing_matches_one_dump(capsys, tmp_path):
    for genus in range(13):
        levels = enumerate_by_genus(genus)
        payload = {
            "levels": [
                {"genus": g, "total": len(level), "two_generator": count_two_generator(level)}
                for g, level in enumerate(levels)
            ],
            "semigroups": [
                {"gaps": list(gaps), "generators": list(generators)}
                for generators, gaps in map(decode, levels[genus])
            ],
        }
        code, out, _ = run(capsys, tmp_path, "enumerate", "--genus", str(genus), "--json")
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n", genus


# sha256 of the stdout of `twogen enumerate --genus 16` (4,825 lines) and of
# the same with --json, recorded from the tuple-based census, so the listing
# is pinned independently of the library it is formatted from.
ENUMERATE_16_SHA256 = {
    (): "c9b57251d04e58fcf3cd599bbdb5c45f251143d2d224e334e45ac4ba7b35cdf2",
    ("--json",): "aec8ecbe9d0c62afe0f8a9bb85c19a2a74f72b19f7967a0be5bb83be54e37cb8",
}


@pytest.mark.parametrize("extra", ENUMERATE_16_SHA256, ids=["text", "json"])
def test_enumerate_listing_is_pinned(capsys, tmp_path, extra):
    code, out, _ = run(capsys, tmp_path, "enumerate", "--genus", "16", *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_16_SHA256[extra]


# sha256 of the stdout of `twogen enumerate --genus g` for g = 0, 1, 2, text
# and --json, recorded from the listing written by json.dumps: genus 0 lists
# an empty gaps list, and genus 1 and 2 lists of one and two entries.
ENUMERATE_SMALL_SHA256 = {
    (0, ()): "ac5df91254a5e363ab4811db71d21a6169c26a76790e54598cc3a74a0469abe9",
    (0, ("--json",)): "14e180eaa787ce6c59c68512f971958d73855184cad013c4fcb7c06e57fc7e01",
    (1, ()): "ec7eedb019e6dba5bcb8d357334e7c76c8bc4313468dc36eb7e6e8b26f459cbd",
    (1, ("--json",)): "f721e01505db781e50278eee3d5a3e4740b9a7361b551466d6d5381721d56cb4",
    (2, ()): "ff865eedd8f1bbed533f89191cb7558c4a7fd5c47dc1d5f04ddd3f29aff23d39",
    (2, ("--json",)): "57cf1a8b08e6c78e5bfb86f98cde10af7249f1343ecd45c624a671d738a20694",
}


@pytest.mark.parametrize(
    "genus, extra",
    ENUMERATE_SMALL_SHA256,
    ids=[f"{g}-{'json' if extra else 'text'}" for g, extra in ENUMERATE_SMALL_SHA256],
)
def test_small_enumerate_listings_are_pinned(capsys, tmp_path, genus, extra):
    code, out, _ = run(capsys, tmp_path, "enumerate", "--genus", str(genus), *extra)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == ENUMERATE_SMALL_SHA256[genus, extra]


@pytest.mark.parametrize("extra", [(), ("--json",)], ids=["text", "json"])
def test_enumerate_listing_holds_no_level(tmp_path, monkeypatch, extra):
    # Genus 20 lists 37,396 semigroups; a stored level of them peaks near
    # 4 MB, a listing written one line at a time near 0.1 MB.
    argv = ["enumerate", *extra, "--factor-cache", str(tmp_path / "factors.txt")]
    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        assert cli.main([*argv, "--genus", "1"]) == 0  # warm the imports
        tracemalloc.start()
        try:
            code = cli.main([*argv, "--genus", "20"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 2**20, peak


def test_reduce_text(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "reduce", "--alpha", "5", "--beta", "4")
    assert code == 0
    assert "r = [5, 4, 1, 0]" in out
    assert "normalized: gcd(p^1 - 2, 33)" in out


def test_reduce_verify(capsys, tmp_path):
    code, out, _ = run(
        capsys, tmp_path, "reduce", "--alpha", "7", "--beta", "2", "--verify",
        "--prime-bound", "300",
    )
    assert code == 0
    assert "verified for 61 odd primes <= 300" in out


def test_reduce_rejects_zero_beta(capsys, tmp_path):
    code, _, err = run(capsys, tmp_path, "reduce", "--alpha", "9", "--beta", "0")
    assert code == 2
    assert "alpha, beta >= 1" in err


@pytest.fixture
def whole_ints():
    """Lift Python's limit on the digits of int <-> str for the test's own
    conversions, after the command has run under it, and restore it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()

    def lift() -> None:
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
        if limit is not None:
            sys.set_int_max_str_digits(0)

    yield lift
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def test_reduce_prints_a_modulus_of_any_length(capsys, tmp_path, whole_ints):
    # 2^20000 + 1 has 6,021 digits, above Python's default limit of 4,300.
    code, out, err = run(capsys, tmp_path, "reduce", "--alpha", "20000", "--beta", "19999")
    whole_ints()
    modulus = str(2**20000 + 1)
    assert (code, err) == (0, "")
    assert out == (
        "gcd(p^20000+1, 2p^19999+1)\n"
        "  r = [20000, 19999, 1, 0]\n"
        "  a = [1, 19999]\n"
        "  s = [1, 1, 0, 1]\n"
        "  t = [0, -1, 1, -20000]\n"
        f"  reduced: gcd(p^1 - 2^1, {modulus})\n"
        f"  normalized: gcd(p^1 - 2, {modulus})\n"
    )


def test_reduce_json_prints_a_modulus_of_any_length(capsys, tmp_path, whole_ints):
    code, out, err = run(
        capsys, tmp_path, "reduce", "--alpha", "20000", "--beta", "19999", "--json"
    )
    whole_ints()
    assert (code, err) == (0, "")
    payload = json.loads(out)
    validate(payload, _exact(**REDUCE_FIELDS))
    assert payload["modulus"] == 2**20000 + 1
    assert payload["trace"] == {
        "r": [20000, 19999, 1, 0], "a": [1, 19999], "s": [1, 1, 0, 1], "t": [0, -1, 1, -20000],
    }


def test_derive_text(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "derive", "--k", "9", "--style", "factored")
    assert code == 0
    assert (
        "n(p^9,2) = 1 + 2*X(3,5) + X(9,17) + X(128,257)"
        " + X(2,3)*(3 + X(2,11) + X(8,43))" in out
    )


def test_derive_rows(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "derive", "--k", "9", "--rows")
    assert code == 0
    assert "gcd(p^1 - 2, 33)" in out
    assert "gcd(p^1 - 8, 129)" in out


def test_derive_rows_derives_once(capsys, tmp_path, monkeypatch):
    calls = []
    real = synthesis_mod.reduce_power

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(synthesis_mod, "reduce_power", counting)
    counts = []
    for extra in ((), ("--rows",)):
        calls.clear()
        code, _, _ = run(capsys, tmp_path, "derive", "--k", "9", *extra)
        assert code == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_derive_json_schema(capsys, tmp_path):
    for k in range(1, 11):
        code, out, _ = run(capsys, tmp_path, "derive", "--k", str(k), "--json")
        assert code == 0
        payload = json.loads(out)
        validate(payload, DERIVE_SCHEMA)
        assert payload["constant"] + len(payload["terms"]) == k + 1
    code, out, _ = run(capsys, tmp_path, "derive", "--k", "9", "--json")
    payload = json.loads(out)
    assert payload["minimal_modulus"] == 30998055
    assert [{"a": 2, "q": 3}, {"a": 2, "q": 11}] in payload["terms"]


def test_verify_ok(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "verify", "--k", "7", "--prime-bound", "500")
    assert code == 0
    assert "matches the direct count" in out


def test_verify_mismatch_exit_code(capsys, tmp_path, monkeypatch):
    def fake_verify(formula, bound):
        return FormulaCheck(formula.k, bound, 1, ((3, 1, 2),))

    monkeypatch.setattr(synthesis_mod, "verify_formula", fake_verify)
    code, out, _ = run(capsys, tmp_path, "verify", "--k", "3")
    assert code == 1
    assert "MISMATCH at p=3" in out


def test_sweeps_need_an_odd_prime(capsys, tmp_path):
    for argv, bound in (
        (("verify", "--k", "3"), "2"),
        (("verify-dependence", "--k", "1"), "1"),
        (("reduce", "--alpha", "5", "--beta", "3"), "2"),
        (("reduce", "--alpha", "5", "--beta", "3", "--verify"), "2"),
    ):
        code, out, err = run(capsys, tmp_path, *argv, "--prime-bound", bound)
        assert (code, out) == (2, ""), argv
        assert err == f"error: prime_bound must be >= 3, got {bound}\n", argv


def test_only_the_sweeps_take_a_prime_bound(capsys, tmp_path):
    for argv in (
        ("count", "--genus", "4"),
        ("enumerate", "--genus", "3"),
        ("modulus", "--k", "3"),
        ("derive", "--k", "3"),
        ("minimal-modulus", "--k", "3"),
        ("xreduce", "--a", "2", "--q", "7", "--s", "3"),
    ):
        code, out, err = run(capsys, tmp_path, *argv, "--prime-bound", "-5")
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --prime-bound -5" in err, argv


# Every option of every subcommand: flag -> (type, required, default, choices).
_COMMON_OPTIONS = {
    "--factor-cache": (None, False, "./factors.txt", None),
    "--json": (None, False, False, None),
}
_K = {"--k": (int, True, None, None)}
_PRIME_BOUND = {"--prime-bound": (int, False, 2000, None)}
PARSER_CONTRACT = {
    "count": {
        "--genus": (int, False, None, None),
        "--prime": (int, False, None, None),
        "--power": (int, False, None, None),
        "--witnesses": (None, False, False, None),
    },
    "enumerate": {"--genus": (int, True, None, None), "--count-only": (None, False, False, None)},
    "reduce": {
        "--alpha": (int, True, None, None),
        "--beta": (int, True, None, None),
        "--verify": (None, False, False, None),
        **_PRIME_BOUND,
    },
    "modulus": _K,
    "verify-dependence": {**_K, **_PRIME_BOUND},
    "derive": {
        **_K,
        "--style": (None, False, "factored", ["flat", "factored", "case-table"]),
        "--rows": (None, False, False, None),
    },
    "verify": {**_K, **_PRIME_BOUND},
    "minimal-modulus": _K,
    "xreduce": {flag: (int, True, None, None) for flag in ("--a", "--q", "--s")},
}


def test_the_parser_holds_exactly_the_documented_options(capsys, tmp_path):
    (subparsers,) = (
        action for action in cli.build_parser()._actions if action.choices is not None
    )
    found = {
        name: {
            action.option_strings[0]: (
                action.type,
                action.required,
                action.default,
                action.choices,
            )
            for action in parser._actions
            if action.option_strings and action.option_strings[0] != "-h"
        }
        for name, parser in subparsers.choices.items()
    }
    assert found == {
        name: {**_COMMON_OPTIONS, **options} for name, options in PARSER_CONTRACT.items()
    }
    # An int option that is not given an int is a usage error that names it.
    for name, options in PARSER_CONTRACT.items():
        ints = [flag for flag, (kind, *_) in options.items() if kind is int]
        for flag in ints:
            argv = [name]
            for other in ints:
                argv += [other, "x" if other == flag else "1"]
            code, out, err = run(capsys, tmp_path, *argv)
            assert (code, out) == (2, ""), argv
            assert f"argument {flag}: invalid int value: 'x'" in err, argv


def test_verify_checks_the_bound_before_deriving(capsys, tmp_path, monkeypatch):
    def derive(k, cache=None):
        raise AssertionError("verify derived the formula before checking --prime-bound")

    monkeypatch.setattr(synthesis_mod, "synthesize", derive)
    code, out, err = run(capsys, tmp_path, "verify", "--k", "129", "--prime-bound", "2")
    assert (code, out) == (2, "")
    assert err == "error: prime_bound must be >= 3, got 2\n"


def test_verify_dependence_needs_a_prime_to_the_modulus(capsys, tmp_path):
    code, out, err = run(
        capsys, tmp_path, "verify-dependence", "--k", "3", "--prime-bound", "5"
    )
    assert (code, out) == (2, "")
    assert err == "error: no odd prime <= 5 is prime to M(3) = 15\n"


def test_verify_dependence(capsys, tmp_path):
    code, out, _ = run(
        capsys, tmp_path, "verify-dependence", "--k", "4", "--prime-bound", "2000"
    )
    assert code == 0
    assert "values [4, 5]" in out


def test_minimal_modulus_command(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "minimal-modulus", "--k", "8")
    assert code == 0
    assert "natural modulus 27559, minimal modulus 27559" in out
    code, out, _ = run(capsys, tmp_path, "minimal-modulus", "--k", "4", "--json")
    assert json.loads(out) == {"k": 4, "natural_modulus": 7, "minimal_modulus": 7}


def test_xreduce(capsys, tmp_path):
    code, out, _ = run(capsys, tmp_path, "xreduce", "--a", "8", "--q", "17", "--s", "2")
    assert code == 0
    assert "X(8,17)(n^2) = X(5,17)*X(12,17)" in out
    code, out, _ = run(capsys, tmp_path, "xreduce", "--a", "2", "--q", "9", "--s", "2")
    assert "X(2,9)(n^2) = 1" in out


def test_xreduce_refuses_a_residue_outside_the_modulus(capsys, tmp_path, monkeypatch):
    def factor(*args):
        raise AssertionError("xreduce factored before checking --a")

    monkeypatch.setattr(indicators_mod, "factorize", factor)
    for a in ("-1", "9", "7"):
        for extra in ((), ("--json",)):
            argv = ("xreduce", "--a", a, "--q", "7", "--s", "3", *extra)
            code, out, err = run(capsys, tmp_path, *argv)
            assert (code, out) == (2, ""), (a, extra)
            assert err == f"error: --a must be in [0, 7), got {a}\n", (a, extra)
    assert not (tmp_path / "factors.txt").exists()
    monkeypatch.undo()
    # Both ends of the range are residues.
    code, out, _ = run(capsys, tmp_path, "xreduce", "--a", "0", "--q", "7", "--s", "3")
    assert (code, out) == (0, "X(0,7)(n^3) = X(0,7)\n")
    code, out, _ = run(capsys, tmp_path, "xreduce", "--a", "6", "--q", "7", "--s", "3")
    assert (code, out) == (0, "X(6,7)(n^3) = X(3,7)*X(5,7)*X(6,7)\n")


def test_usage_errors(capsys, tmp_path):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    code, _, _ = run(capsys, tmp_path, "modulus", "--k", "0")
    assert code == 2
    code, _, err = run(capsys, tmp_path, "enumerate", "--genus", "30")
    assert code == 2
    assert "cap" in err
    for extra in ((), ("--count-only",), ("--json",)):
        code, out, err = run(capsys, tmp_path, "enumerate", "--genus", "26", *extra)
        assert (code, out) == (2, "")
        assert err == "error: genus 26 exceeds the enumeration cap 25\n"


# verify derives the formula, and so factors, before it sieves;
# verify-dependence sieves first.
@pytest.mark.parametrize("command, factored", [("verify", True), ("verify-dependence", False)])
def test_a_sweep_out_of_memory_exits_2(capsys, tmp_path, monkeypatch, command, factored):
    # A sieve to 10^10 needs 10 GB; the stub fails as a capped address space does.
    sieve = primes_mod._prime_flags

    def capped(n):
        if n > 10**9:
            raise MemoryError
        return sieve(n)

    monkeypatch.setattr(primes_mod, "_prime_flags", capped)
    code, out, err = run(capsys, tmp_path, command, "--k", "4", "--prime-bound", str(10**10))
    assert (code, out, err) == (2, "", "error: ran out of memory\n")
    assert (tmp_path / "factors.txt").exists() == factored  # what was factored is saved


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_a_sieve_past_the_address_space_prints_one_line(tmp_path):
    # A real MemoryError, in a child whose address space is capped at 1 GiB:
    # stderr holds the error line and nothing the interpreter adds.
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    src = Path(cli.__file__).resolve().parents[1]
    argv = ["verify-dependence", "--k", "4", "--prime-bound", str(10**10)]
    proc = subprocess.run(
        [sys.executable, "-m", "twogen.cli", *argv, "--factor-cache", str(tmp_path / "f.txt")],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, preexec_fn=cap, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", "error: ran out of memory\n")


def test_blocked_exit_code(capsys, tmp_path, monkeypatch):
    def blocked(k, cache=None):
        raise FactorizationTimeout(2**101 + 1, 2**101 + 1)

    monkeypatch.setattr(synthesis_mod, "synthesize", blocked)
    code, _, err = run(capsys, tmp_path, "derive", "--k", "9")
    assert code == 3
    assert "budget exhausted" in err


def test_synthesis_blocked_exit_code(capsys, tmp_path, monkeypatch):
    def blocked(k, cache=None):
        raise SynthesisBlocked(k, 4, 2047)

    monkeypatch.setattr(synthesis_mod, "synthesize", blocked)
    for command in ("derive", "verify", "minimal-modulus"):
        code, out, err = run(capsys, tmp_path, command, "--k", "9")
        assert (code, out) == (3, "")
        assert err == "error: derivation for k=9 blocked at row i=4 on unfactored number 2047\n"


# Runs one command in a fresh interpreter, without site-packages, and reports
# on stderr the exit code, the twogen modules loaded and which of json,
# dataclasses and inspect were.
_CHILD = """
import sys
from twogen import cli
code = cli.main(sys.argv[1:])
loaded = sorted(m for m in sys.modules if m == "twogen" or m.startswith("twogen."))
heavy = [m for m in ("json", "dataclasses", "inspect") if m in sys.modules]
print(repr((code, loaded, heavy)), file=sys.stderr)
"""


def _modules_loaded_by(tmp_path, *argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [*argv, "--factor-cache", str(tmp_path / "factors.txt")]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _CHILD, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_modulus_loads_only_its_layers(tmp_path):
    modulus_path = [
        "twogen", "twogen.arith", "twogen.cli", "twogen.counting",
        "twogen.factor_cache", "twogen.factoring", "twogen.modulus", "twogen.primes",
    ]
    assert _modules_loaded_by(tmp_path, "modulus", "--k", "8") == (0, modulus_path, [])
    assert _modules_loaded_by(tmp_path, "modulus", "--k", "8", "--json") == (
        0, modulus_path, ["json"],
    )
    code, loaded, _ = _modules_loaded_by(tmp_path, "derive", "--k", "4")
    assert code == 0
    assert {
        "twogen.synthesis", "twogen.rendering", "twogen.indicators", "twogen.reduction",
    } <= set(loaded)
    assert "twogen.semigroup" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("modulus", "--k", "12"),
        ("count", "--prime", "7", "--power", "6"),
        ("derive", "--json", "--k", "12"),
        ("verify", "--k", "12"),
        ("reduce", "--alpha", "5", "--beta", "3", "--verify"),
        ("xreduce", "--a", "8", "--q", "17", "--s", "2"),
        ("minimal-modulus", "--k", "12"),
        ("enumerate", "--genus", "8", "--count-only"),
    ],
    ids=lambda argv: argv[0],
)
def test_commands_load_neither_dataclasses_nor_inspect(tmp_path, argv):
    code, loaded, heavy = _modules_loaded_by(tmp_path, *argv)
    assert code == 0
    assert "dataclasses" not in heavy and "inspect" not in heavy


def test_byte_identical_reruns(capsys, tmp_path):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, tmp_path, "derive", "--k", "9", "--rows", "--json")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, tmp_path, "enumerate", "--genus", "6")
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_cache_file_persisted(capsys, tmp_path):
    path = tmp_path / "factors.txt"
    code = cli.main(["modulus", "--k", "7", "--factor-cache", str(path)])
    capsys.readouterr()
    assert code == 0
    assert path.exists()
    text = path.read_text()
    assert "36465" not in text  # only the row moduli get factored
    assert "65 = 5 * 13" in text and "33 = 3 * 11" in text
    # second run reuses the cache and leaves it unchanged
    code = cli.main(["modulus", "--k", "7", "--factor-cache", str(path)])
    capsys.readouterr()
    assert path.read_text() == text


def test_a_failed_cache_save_names_the_path(capsys, tmp_path):
    # The result is printed, then the save fails: the same stderr on every
    # run, naming the --factor-cache path rather than the temp file.
    path = tmp_path / "missing" / "factors.txt"
    runs = []
    for _ in range(2):
        code = cli.main(["modulus", "--k", "9", "--factor-cache", str(path)])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 2
    assert out.endswith("M(9) = 30998055 = 3 * 5 * 11 * 17 * 43 * 257\n")
    assert err == f"error: cannot save the factor cache to {path}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--genus", "16"), ("derive", "--k", "30", "--style", "case-table")],
    ids=["enumerate", "derive"],
)
def test_a_reader_that_stops_early_gets_exit_141(tmp_path, argv):
    # Both outputs are far larger than a pipe's buffer, so the command is
    # still writing when the reader closes its end after the first line.
    src = Path(cli.__file__).resolve().parents[1]
    cache = tmp_path / "factors.txt"
    proc = subprocess.Popen(
        [sys.executable, "-m", "twogen.cli", *argv, "--factor-cache", str(cache)],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert first and err == b""
    # derive factored from an empty cache and still saved what it factored.
    assert cache.exists() == (argv[0] == "derive")


def test_blocked_command_keeps_what_it_factored(capsys, tmp_path, monkeypatch):
    # verify-dependence factors the row moduli of k = 9 in increasing order,
    # 3, 5, 17, 33, 129 and 257, and stops at the first that times out.
    factored = []

    def blocked(n, cache=None, **kwargs):
        if n == 257:
            raise FactorizationTimeout(n, n)
        if n not in cache:
            factored.append(n)
        return factorize(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", blocked)
    path = tmp_path / "factors.txt"
    for _ in range(2):
        code, out, err = run(capsys, tmp_path, "verify-dependence", "--k", "9")
        assert (code, out) == (3, "")
        assert err == "error: could not factor 257: budget exhausted on cofactor 257\n"
        assert FactorCache.load(path).values() == [3, 5, 17, 33, 129]
    assert factored == [3, 5, 17, 33, 129]  # all in the first run



def test_a_failed_cache_save_keeps_the_blocked_code(capsys, tmp_path, monkeypatch):
    # The same blocked run as above, with a cache that cannot be saved: the
    # command's own code and message come first, the failed save after them.
    def blocked(n, cache=None, **kwargs):
        if n == 257:
            raise FactorizationTimeout(n, n)
        return factorize(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", blocked)
    path = tmp_path / "missing" / "factors.txt"
    code = cli.main(["verify-dependence", "--k", "9", "--factor-cache", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == (
        "error: could not factor 257: budget exhausted on cofactor 257\n"
        f"error: cannot save the factor cache to {path}: No such file or directory\n"
    )
    assert list(tmp_path.iterdir()) == []

# (argv, the schema of the payload with exactly its keys, some expected values)
JSON_CASES = [
    (("count", "--genus", "7"), _exact(genus=INT, count=INT), {"count": 2}),
    (
        ("count", "--genus", "7", "--witnesses"),
        _exact(genus=INT, count=INT, witnesses=PAIRS),
        {"witnesses": [[1, 14], [2, 7]]},
    ),
    (
        ("count", "--prime", "7", "--power", "1"),
        _exact(prime=INT, power=INT, count=INT),
        {"count": 2},
    ),
    (
        ("count", "--prime", "7", "--power", "1", "--witnesses"),
        _exact(prime=INT, power=INT, count=INT, witnesses=INTS),
        {"witnesses": [0, 1]},
    ),
    (("reduce", "--alpha", "5", "--beta", "4"), _exact(**REDUCE_FIELDS), {"residue": 2}),
    (
        ("reduce", "--alpha", "7", "--beta", "2", "--verify", "--prime-bound", "300"),
        _exact(
            **REDUCE_FIELDS,
            verified_primes=INT,
            counterexample={"anyOf": [{"type": "null"}, INTS]},
        ),
        {"verified_primes": 61, "counterexample": None},
    ),
    (
        ("verify", "--k", "7", "--prime-bound", "500"),
        _exact(k=INT, prime_bound=INT, primes_checked=INT, mismatches=INTS),
        {"primes_checked": 94, "mismatches": []},
    ),
    (
        ("verify-dependence", "--k", "4", "--prime-bound", "2000"),
        _exact(
            k=INT, modulus=INT, primes_checked=INT, classes=INT, values=INTS,
            violations=INTS,
        ),
        {"modulus": 21, "values": [4, 5], "violations": []},
    ),
    (
        ("xreduce", "--a", "8", "--q", "17", "--s", "2"),
        _exact(a=INT, q=INT, s=INT, factors=INDICATORS),
        {"factors": [{"a": 5, "q": 17}, {"a": 12, "q": 17}]},
    ),
]


@pytest.mark.parametrize(
    "argv, schema, expected", JSON_CASES, ids=[" ".join(case[0]) for case in JSON_CASES]
)
def test_json_payloads(capsys, tmp_path, argv, schema, expected):
    code, out, _ = run(capsys, tmp_path, *argv, "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, schema)
    assert {key: payload[key] for key in expected} == expected


# sha256 of the stdout of each call, recorded when the CLI still copied
# tuples into lists and spelled out record fields, so passing the records
# to json.dumps as they are is pinned to the same bytes.
EXACT_SHA256 = {
    "modulus --k 12 --json": "45d3534156aabad7d0187febbbdbddbef279f8dca239e312c88734d57106e22c",
    "count --genus 7 --json --witnesses": (
        "f0a20c3d919c082d4a9a9572cd03cd0591c1b9104a644f590d7f1b4d58144fd2"
    ),
    "count --prime 3 --power 4 --witnesses": (
        "3aa75f881f42029683132f62435e54480c05482b3bebf2a0145c66dbdde2e2d5"
    ),
    "count --prime 3 --power 4 --witnesses --json": (
        "2377ceeb95cadb0ada4c55798746884698e0286aae64d60ae11da592c221cfb7"
    ),
    "verify-dependence --k 6 --prime-bound 5000 --json": (
        "8bdae0b3aaac2ab04aed314fb19f357536646356bc9b17cad0384fb1789186d7"
    ),
    "reduce --alpha 5 --beta 3 --verify --json": (
        "1efef1c1755b25a4de5f657300178a332e92827abf190afbf081a5bf5db29d96"
    ),
    "xreduce --a 5 --q 2047 --s 22 --json": (
        "e6c82ba53179c06cd595e54305db4a1bcd33e083ec2690126b402eaa315d84e8"
    ),
    "xreduce --a 2 --q 7 --s 3": "aa2b2a7f4809967723798680522bc55e250a86d086d49620fe8f116cc04daf4f",
}


@pytest.mark.parametrize("call", EXACT_SHA256)
def test_outputs_are_byte_identical(capsys, tmp_path, call):
    code, out, _ = run(capsys, tmp_path, *call.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_SHA256[call]


def test_modulus_incomplete(capsys, tmp_path, monkeypatch):
    def flaky(n, cache=None, **kwargs):
        if n == 33:
            raise FactorizationTimeout(n, 11, 12345, "p-1")
        return factorize(n, cache, **kwargs)

    monkeypatch.setattr(modulus_mod, "factorize", flaky)
    code, out, err = run(capsys, tmp_path, "modulus", "--k", "9")
    assert (code, err) == (3, "")
    assert out.splitlines()[-3:] == [
        "M(9) = 2818005 = 3 * 5 * 17 * 43 * 257",
        "status: incomplete; M(9) is divisible by the above;",
        "unfactored: 33",
    ]
    code, out, err = run(capsys, tmp_path, "modulus", "--k", "9", "--json")
    assert (code, err) == (3, "")
    payload = json.loads(out)
    validate(payload, MODULUS_SCHEMA)
    assert (payload["M"], payload["complete"], payload["unfactored"]) == (2818005, False, [33])


def test_only_commands_that_factor_read_the_cache(capsys, tmp_path):
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("15 = 3 * 7\n")
    for argv in (
        ("enumerate", "--genus", "3", "--count-only"),
        ("reduce", "--alpha", "5", "--beta", "3"),
        ("count", "--prime", "7", "--power", "3"),
    ):
        expected = run(capsys, tmp_path, *argv)
        assert expected[0] == 0
        code = cli.main([*argv, "--factor-cache", str(corrupt)])
        out = capsys.readouterr()
        assert (code, out.out, out.err) == expected, argv
    for argv in (("modulus", "--k", "4"), ("derive", "--k", "4")):
        code = cli.main([*argv, "--factor-cache", str(corrupt)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, ""), argv
        assert out.err == "error: line 1: factors multiply to 21, not 15\n"
    assert corrupt.read_text() == "15 = 3 * 7\n"


# An argument out of range is refused with its own message, before the
# factor cache is opened.
REFUSED_BEFORE_THE_CACHE = {
    ("derive", "--k", "0"): "k must be >= 1, got 0",
    ("modulus", "--k", "0"): "k must be >= 1, got 0",
    ("verify", "--k", "0"): "k must be >= 1, got 0",
    ("minimal-modulus", "--k", "0"): "k must be >= 1, got 0",
    ("verify-dependence", "--k", "0"): "k must be >= 1, got 0",
    ("count", "--genus", "0"): "genus must be >= 1, got 0",
    ("xreduce", "--a", "1", "--q", "1", "--s", "1"): "modulus must be >= 2, got 1",
}


@pytest.mark.parametrize("argv", REFUSED_BEFORE_THE_CACHE, ids=" ".join)
def test_an_argument_out_of_range_is_refused_before_the_cache_is_read(
    capsys, tmp_path, monkeypatch, argv
):
    expected = (2, "", f"error: {REFUSED_BEFORE_THE_CACHE[argv]}\n")
    corrupt = tmp_path / "corrupt.txt"
    corrupt.write_text("15 = 3 * 7\n")
    code = cli.main([*argv, "--factor-cache", str(corrupt)])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == expected

    def unread(path):
        raise AssertionError(f"the factor cache {path} was read")

    monkeypatch.setattr(FactorCache, "load", unread)
    code, out, err = run(capsys, tmp_path, *argv)
    assert (code, out, err) == expected
    assert corrupt.read_text() == "15 = 3 * 7\n"


def test_derive_refuses_a_case_table_it_cannot_print(capsys, tmp_path):
    for extra in ((), ("--rows",)):
        code, out, err = run(
            capsys, tmp_path, "derive", "--k", "41", "--style", "case-table", *extra
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: the case table for k=41 has 8912944 cells, more than 2000000;"
            " use --style factored\n"
        )


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cli_examples() -> list[tuple[list[str], str]]:
    """(arguments, comment) of each `twogen ...` line of README's CLI block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "twogen", line
        examples.append((argv, comment.strip()))
    return examples


def test_readme_cli_examples_run(capsys, tmp_path):
    # The outputs README states next to its examples, and the formula its
    # introduction quotes.
    intro = re.search(r"^ *(n\(p\^9,2\) = .*)$", README.read_text(), re.M).group(1)
    stated = [
        "n(4,2) = 2",
        "M(9) = 30998055 = 3 * 5 * 11 * 17 * 43 * 257",
        "X(8,17)(n^2) = X(5,17)*X(12,17)",
    ]
    examples = _readme_cli_examples()
    assert len(examples) == 11
    assert [comment for _, comment in examples if comment in stated] == stated
    stdout = []
    for argv, comment in examples:
        code, out, _ = run(capsys, tmp_path, *argv)
        assert code == 0, argv
        if comment in stated:
            assert comment in out.splitlines(), argv
        stdout.append(out)
    assert intro in "".join(stdout).splitlines()
