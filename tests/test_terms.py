"""Laws of the shared sparse term-map base, on each algebra built on it."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from kmink import dirac
from kmink.action import word
from kmink.fuzz import (rand_coeff, rand_momentum, rand_oneform, rand_polynomial,
                        rand_position, rand_spinor)
from kmink.minkowski import PositionElement, PositionTensor
from kmink.momentum import MomentumTensor
from kmink.scalars import ONE, ScalarValue


def _scalar(rng):
    """c kappa^n k[j,mu]^e E[j]^p summed over three terms."""
    acc = ScalarValue()
    for _ in range(3):
        j = rng.randint(1, 2)
        acc = acc + (rand_coeff(rng) * ScalarValue.kappa(rng.randint(-2, 2))
                     * ScalarValue.k(j, rng.randrange(4), rng.randint(0, 2))
                     * ScalarValue.E(j, rng.randint(-1, 1)))
    return acc


def _position(rng):
    return rand_position(rng, 2, waves=True)


def _momentum(rng):
    return rand_momentum(rng, 2)


def _heisenberg(rng):
    return word(rand_position(rng, 1, n_terms=2, waves=True),
                rand_momentum(rng, 1, n_terms=2))


def _position_tensor(rng):
    make = lambda: rand_position(rng, 1, n_terms=2, waves=True)
    return PositionTensor.outer(make(), make()) + PositionTensor.outer(make(), make())


def _momentum_tensor(rng):
    make = lambda: rand_momentum(rng, 1, n_terms=2)
    return MomentumTensor.outer(make(), make()) + MomentumTensor.outer(make(), make())


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


UNITAL = (_scalar, _position, _momentum, _heisenberg)
TENSORS = (_position_tensor, _momentum_tensor)


@st.composite
def pairs(draw, makers=UNITAL + TENSORS + (_two_form, _one_form, _spinor,
                                           _dirac_operator)):
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


def test_scalar_embedding_rejects_non_scalars():
    for bad in (2.5, "x"):
        with pytest.raises(TypeError):
            ScalarValue.scalar(bad)
        with pytest.raises(TypeError):
            PositionElement.scalar(bad)


def _reference_tensor_product(t, u):
    """t * u written out: outer(l1 l2, r1 r2) scaled by c1 c2 for every pair
    of terms, with the leg products from the element algebra."""
    cls, El = type(t), t.ELEMENT
    acc = cls()
    for (l1, r1), c1 in t.terms.items():
        for (l2, r2), c2 in u.terms.items():
            acc = acc + cls.outer(El({l1: ONE}) * El({l2: ONE}),
                                  El({r1: ONE}) * El({r2: ONE})).scale(c1 * c2)
    return acc


@settings(max_examples=60, deadline=None)
@given(pairs(makers=TENSORS))
def test_tensor_product_matches_reference(pair):
    t, u = pair
    got, want = t * u, _reference_tensor_product(t, u)
    assert got.terms == want.terms
    assert got.render() == want.render()


def _reference_dot(cls, pairs):
    """sum x * y written out: every term pair's normal form from
    `cls.mono_mul`, scaled with plain ScalarValue `*` and summed with `+`."""
    out = {}
    for x, y in pairs:
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                for k3, c3 in cls.mono_mul(k1, k2):
                    term = c1 * c2 * c3
                    out[k3] = out[k3] + term if k3 in out else term
    return cls({k: c for k, c in out.items() if not c.is_zero()})


ALGEBRAS = (_position, _momentum, _heisenberg) + TENSORS


@settings(max_examples=60, deadline=None)
@given(pairs(makers=ALGEBRAS))
def test_product_and_dot_match_the_written_out_sum(pair):
    """The core's product and sum of products, on every algebra that
    states a `mono_mul`, against the sum over term pairs; a pair and its
    negation cancel."""
    x, y = pair
    cls = type(x)
    got, want = x * y, _reference_dot(cls, [(x, y)])
    assert got.terms == want.terms
    assert got.render() == want.render()
    listed = [(x, y), (y, x), (x, x), (y, -y)]
    assert cls.dot(iter(listed)).terms == _reference_dot(cls, listed).terms
    assert cls.dot([(x, y), (-x, y)]).terms == {}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((rand_polynomial, rand_position, rand_momentum)),
       st.integers(0, 2**32 - 1))
def test_coproduct_is_an_algebra_map(make, seed):
    """Delta(ab) = Delta(a) Delta(b), the law that lets one coproduct
    extend the generator images to every monomial."""
    rng = random.Random(seed)
    kwargs = {"waves": True} if make is rand_position else {}
    a, b = (make(rng, 2, n_terms=2, **kwargs) for _ in range(2))
    assert (a * b).coproduct() == a.coproduct() * b.coproduct()
