"""Every output up to the derivation frontier k = 128, pinned by the sha256
of its stdout (pins.json, written by record_pins.py)."""

import json

from record_pins import CALLS, PINS, digest, shared_cache


def test_pins_list_every_pinned_call():
    assert list(json.loads(PINS.read_text())) == CALLS


def test_outputs_match_their_pins():
    pins = json.loads(PINS.read_text())
    with shared_cache():
        for call in CALLS:
            assert digest(call) == pins[call], f"stdout of `twogen {call}` differs from its pin"
