"""Tier-1 tests of kmink."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """The environment of a child interpreter that imports this checkout's
    `src`: pytest's `pythonpath` setting reaches only the pytest process."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)
