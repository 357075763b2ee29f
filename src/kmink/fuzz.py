"""Deterministic random fixtures for the verification suites and tests.

Coefficients are drawn from {0, +-1, +-i, +-1/2} and degrees stay small:
normal ordering is superlinear in degree, and small exact fixtures keep
the term blow-up bounded.  At most two plane-wave labels are used.
"""

from __future__ import annotations

from fractions import Fraction

from .forms import OneForm
from .minkowski import PlaneWave, PositionElement, W_IDENTITY
from .momentum import MomentumElement
from .scalars import ScalarValue
from .terms import IndexedMap

COEFFS = (
    ScalarValue.number(1),
    ScalarValue.number(-1),
    ScalarValue.number(0, 1),
    ScalarValue.number(0, -1),
    ScalarValue.number(Fraction(1, 2)),
    ScalarValue.number(Fraction(-1, 2)),
)

WAVE_LABELS = (1, 2)


def rand_coeff(rng):
    return COEFFS[rng.randrange(len(COEFFS))]


def _rand_exponents(rng, max_degree):
    """(spatial exponents, time exponent) of a monomial of degree at most
    `max_degree`, each factor's slot drawn in turn."""
    spatial, time = [0, 0, 0], 0
    for _ in range(rng.randint(0, max_degree)):
        slot = rng.randrange(4)
        if slot == 0:
            time += 1
        else:
            spatial[slot - 1] += 1
    return tuple(spatial), time


def rand_position(rng, max_degree, n_terms=3, waves=False):
    acc = PositionElement.zero()
    for _ in range(n_terms):
        a, d = _rand_exponents(rng, max_degree)
        w = W_IDENTITY
        if waves and rng.random() < 0.5:
            w = PlaneWave.label(WAVE_LABELS[rng.randrange(len(WAVE_LABELS))])
        acc = acc + PositionElement.monomial(a, d, w, rand_coeff(rng))
    return acc


def rand_momentum(rng, max_degree, n_terms=3):
    acc = MomentumElement.zero()
    for _ in range(n_terms):
        b, d = _rand_exponents(rng, max_degree)
        lam = rng.randint(-1, 1)
        acc = acc + MomentumElement.monomial(b, d, lam, rand_coeff(rng))
    return acc


def rand_spinor(rng, max_degree):
    return IndexedMap.collect((r, rand_position(rng, max_degree, n_terms=1))
                              for r in range(4))


def rand_oneform(rng, max_degree):
    return OneForm.collect((i, rand_position(rng, max_degree, n_terms=1))
                           for i in range(5))

