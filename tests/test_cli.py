import json

import pytest
from jsonschema import validate

from twogen import cli
from twogen import synthesis as synthesis_mod
from twogen.arith import FactorizationTimeout
from twogen.synthesis import FormulaCheck

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

    monkeypatch.setattr(cli, "verify_formula", fake_verify)
    code, out, _ = run(capsys, tmp_path, "verify", "--k", "3")
    assert code == 1
    assert "MISMATCH at p=3" in out


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


def test_usage_errors(capsys, tmp_path):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main([]) == 2
    code, _, _ = run(capsys, tmp_path, "modulus", "--k", "0")
    assert code == 2
    code, _, err = run(capsys, tmp_path, "enumerate", "--genus", "30")
    assert code == 2
    assert "cap" in err


def test_blocked_exit_code(capsys, tmp_path, monkeypatch):
    def blocked(k, cache=None):
        raise FactorizationTimeout(2**101 + 1, 2**101 + 1)

    monkeypatch.setattr(cli, "synthesize", blocked)
    code, _, err = run(capsys, tmp_path, "derive", "--k", "9")
    assert code == 3
    assert "budget exhausted" in err


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
