"""Laws of the shared sparse term-map base, on each algebra built on it."""

import random

from hypothesis import given, settings, strategies as st

from kmink import dirac
from kmink.action import word
from kmink.fuzz import rand_momentum, rand_oneform, rand_position, rand_spinor
from kmink.scalars import ScalarValue


def _position(rng):
    return rand_position(rng, 2, waves=True)


def _momentum(rng):
    return rand_momentum(rng, 2)


def _heisenberg(rng):
    return word(rand_position(rng, 1, n_terms=2, waves=True),
                rand_momentum(rng, 1, n_terms=2))


def _two_form(rng):
    return rand_oneform(rng, 1).wedge(rand_oneform(rng, 1))


def _one_form(rng):
    return rand_oneform(rng, 2)


def _spinor(rng):
    return rand_spinor(rng, 2)


REPS = (dirac.GammaRep(dirac.GAMMA4_ZERO),
        dirac.GammaRep(dirac.Gamma4("unit", ScalarValue.number(2))),
        dirac.GammaRep(dirac.Gamma4("gamma5", ScalarValue.number(1))))


def _dirac_operator(rng):
    return dirac.clifford_image(rng.randrange(5), REPS[rng.randrange(len(REPS))])


UNITAL = (_position, _momentum, _heisenberg)


@st.composite
def pairs(draw, makers=UNITAL + (_two_form, _one_form, _spinor, _dirac_operator)):
    """Two values of one term-map class, drawn from the fuzz fixtures."""
    make = draw(st.sampled_from(makers))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return make(rng), make(rng)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_additive_group_laws(pair):
    a, b = pair
    assert (a + (-a)).terms == {}
    assert (a + b) - b == a
    assert a.scale(0).is_zero()


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_equal_values_hash_equal(pair):
    a, b = pair
    rebuilt = (b + a) - b  # equal to a, with its terms inserted in another order
    assert rebuilt == a
    assert hash(rebuilt) == hash(a)


@settings(max_examples=30, deadline=None)
@given(pairs(makers=UNITAL))
def test_zeroth_power_is_the_unit(pair):
    a, _ = pair
    unit = a ** 0
    assert unit == type(a).scalar(1)
    assert unit * a == a == a * unit
