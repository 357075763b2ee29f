"""The certified ledger is byte-identical to the pinned digests.

Runs every suite once at the default seed and degree 2, and the calculus
suite at degree 3, where the product path dominates, and compares the
sha256 of each suite's JSONL ledger with the digest pinned for the same
(suite, degree, seed) in benchmarks/pins.json.
"""

import hashlib
import json
from pathlib import Path

from kmink import suites

PINS = Path(__file__).resolve().parent.parent / "benchmarks" / "pins.json"


def _pins():
    return json.loads(PINS.read_text(encoding="utf-8"))["ledger_sha256"]


def _digest(records):
    return hashlib.sha256(suites.render_jsonl(records).encode("utf-8")).hexdigest()


def test_ledgers_match_pins():
    pins = _pins()
    records = suites.run_suite("all", suites.RunConfig(seed=42, max_degree=2))
    for name in suites.SUITE_NAMES:
        digest = _digest([r for r in records if r.suite == name])
        assert digest == pins[f"{name}/deg2/seed42"], name


def test_degree3_calculus_ledger_matches_pin():
    records = suites.run_suite("calculus", suites.RunConfig(seed=42, max_degree=3))
    assert _digest(records) == _pins()["calculus/deg3/seed42"]
