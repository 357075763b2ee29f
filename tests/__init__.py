"""Tier-1 tests of kmink."""

import os
from pathlib import Path

from kmink.action import act
from kmink.minkowski import PositionElement
from kmink.momentum import MomentumElement
from kmink.scalars import ONE

SRC = str(Path(__file__).resolve().parent.parent / "src")


def child_env():
    """The environment of a child interpreter that imports this checkout's
    `src`: pytest's `pythonpath` setting reaches only the pytest process."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC if not path else SRC + os.pathsep + path)


def apply_word(word, a):
    """The mixed word `word` evaluated as an operator on the position
    element `a`: each term p m acts by m and multiplies by p on the left.
    It only acts and multiplies positions, so it shares no code with the
    mixed-word normal form."""
    acc = PositionElement()
    for (p, m), c in word.terms.items():
        acted = act(MomentumElement({m: ONE}), a)
        acc = acc + (PositionElement({p: ONE}) * acted).scale(c)
    return acc
