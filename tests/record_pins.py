"""Record the sha256 of the stdout of each pinned `twogen` call into
pins.json beside this script.

The pinned calls are `derive --json`, `modulus` and `minimal-modulus` at
every k <= 128, `enumerate --count-only --genus 25`, the listing
`enumerate --genus 20` as text and as --json, `verify --k 60
--prime-bound 200000 --json`, the text renderings `derive --rows`
(factored) and `derive --style flat` at every k <= 128, and `derive
--style case-table` at every k <= 30: every output up to the derivation
frontier.
A refactor must leave them unchanged, so re-record only for a change of
output that is meant, and say so where the change is logged.

Run from the root of the repository:

    PYTHONPATH=src python tests/record_pins.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from unittest import mock

from twogen import cli
from twogen.factor_cache import FactorCache

PINS = Path(__file__).with_name("pins.json")
FRONTIER = 128
CASE_TABLE_K = 30  # past k = 30 the tables run to 166,419 lines (k = 34) and more

CALLS = (
    [f"derive --k {k} --json" for k in range(1, FRONTIER + 1)]
    + [f"modulus --k {k}" for k in range(1, FRONTIER + 1)]
    + [f"minimal-modulus --k {k}" for k in range(1, FRONTIER + 1)]
    + [
        "enumerate --count-only --genus 25",
        "enumerate --genus 20",
        "enumerate --genus 20 --json",
        "verify --k 60 --prime-bound 200000 --json",
    ]
    + [f"derive --k {k} --rows" for k in range(1, FRONTIER + 1)]
    + [f"derive --k {k} --style flat" for k in range(1, FRONTIER + 1)]
    + [f"derive --k {k} --style case-table" for k in range(1, CASE_TABLE_K + 1)]
)


@contextlib.contextmanager
def shared_cache():
    """Every `cli.main` call in the block loads one in-memory FactorCache
    and saves nothing, so each number is factored once across the calls."""
    cache = FactorCache()
    with mock.patch.object(FactorCache, "load", classmethod(lambda cls, path: cache)), \
            mock.patch.object(FactorCache, "save", lambda self, path: None):
        yield


def digest(call: str) -> str:
    """The sha256 of the stdout of `twogen <call>`; raises AssertionError
    when the call does not exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(call.split())
    assert code == cli.EXIT_OK, f"twogen {call} exited {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> None:
    with shared_cache():
        pins = {call: digest(call) for call in CALLS}
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {len(pins)} pins to {PINS}")


if __name__ == "__main__":
    main()
