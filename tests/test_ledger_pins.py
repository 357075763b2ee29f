"""The certified ledger is byte-identical to the pinned digests.

Runs every suite once at the default seed and degree 2 and compares the
sha256 of each suite's JSONL ledger with the digest pinned for the same
(suite, degree, seed) in benchmarks/pins.json.
"""

import hashlib
import json
from pathlib import Path

from kmink import suites

PINS = Path(__file__).resolve().parent.parent / "benchmarks" / "pins.json"


def test_ledgers_match_pins():
    pins = json.loads(PINS.read_text(encoding="utf-8"))["ledger_sha256"]
    records = suites.run_suite("all", suites.RunConfig(seed=42, max_degree=2))
    for name in suites.SUITE_NAMES:
        ledger = suites.render_jsonl([r for r in records if r.suite == name])
        digest = hashlib.sha256(ledger.encode("utf-8")).hexdigest()
        assert digest == pins[f"{name}/deg2/seed42"], name
