"""The six demos print exactly the pinned text.

Each demo runs in a fresh interpreter on this checkout's `src`; the sha256
of its standard output must equal the digest recorded when the demo was
last changed on purpose.  A demo writes no files, so the run has no side
effects.  To re-pin after an intended change of a demo's output, print
`hashlib.sha256(stdout).hexdigest()` for it and update DIGESTS.
"""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from tests import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

DIGESTS = {
    "01_noncommutative_coordinates.py":
        "eab50ba1556d8cfc55248a9f4442003f19cf835adcf2754b1c074f1530273481",
    "02_momentum_hopf_algebra.py":
        "01159310f623e6053179e4aec81dbe7d5b537cb2544a10a06af87a93eb3eb08f",
    "03_differential_calculus.py":
        "b2401f0b5827611b6cfa0322733874a1fca479cacbba613c65a18715371ee012",
    "04_dirac_operator.py":
        "fae4bb3afde962be81ff94271b817348b1cb49bfa2c4bc4d099401dfe4481391",
    "05_gauge_theory.py":
        "7995e3d539d8f8d7893ccd2464a9b61c09a580fc7c88b20150665ec07cd1d279",
    "06_expressions_and_ledger.py":
        "95e6341c9b516ffc2038a9483666fc33304bf0a8c3cdb646aedee958e814ef07",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout_matches_pin(name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=child_env(), cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DIGESTS[name]
