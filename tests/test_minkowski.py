"""Normal ordering, star, Hopf structure and plane waves of the
coordinate algebra."""

import random

from kmink.fuzz import rand_position
from kmink.minkowski import (
    PlaneWave,
    PositionElement,
    PositionTensor,
    W_IDENTITY,
)
from kmink.scalars import ScalarValue

I = ScalarValue.number(0, 1)
IMK = I * ScalarValue.kappa(-1)
X = [PositionElement.x(mu) for mu in range(4)]
ONE = PositionElement.one()


def test_defining_commutators():
    # [x^mu, x^nu] = (i/kappa)(delta_0^mu x^nu - delta_0^nu x^mu), 16 cases
    for mu in range(4):
        for nu in range(4):
            lhs = X[mu] * X[nu] - X[nu] * X[mu]
            rhs = PositionElement.zero()
            if mu == 0:
                rhs = rhs + X[nu].scale(IMK)
            if nu == 0:
                rhs = rhs - X[mu].scale(IMK)
            assert lhs == rhs, (mu, nu)


def test_normal_order_example():
    assert X[0] * X[1] == X[1] * X[0] + X[1].scale(IMK)
    assert X[1] * X[2] == X[2] * X[1]


def test_associativity_fuzz():
    rng = random.Random(7)
    for _ in range(100):
        a = rand_position(rng, 3, n_terms=2, waves=True)
        b = rand_position(rng, 3, n_terms=2, waves=True)
        c = rand_position(rng, 3, n_terms=2, waves=True)
        assert (a * b) * c == a * (b * c)


def test_star_properties():
    rng = random.Random(11)
    assert (X[0] * X[1]).star() == X[0] * X[1] - X[1].scale(IMK)
    assert X[2].scale(I).star() == X[2].scale(-I)
    for _ in range(30):
        a = rand_position(rng, 2, waves=True)
        b = rand_position(rng, 2, waves=True)
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a


def test_star_fixes_generators():
    for mu in range(4):
        assert X[mu].star() == X[mu]


def test_plane_wave_product_law():
    w1 = PositionElement.wave(PlaneWave.label(1))
    w2 = PositionElement.wave(PlaneWave.label(2))
    ek1_inv = ScalarValue.E(1, -1)
    expected = PlaneWave(
        tuple(ScalarValue.k(1, m) + ek1_inv * ScalarValue.k(2, m) for m in (1, 2, 3)),
        ((1, 1), (2, 1)),
    )
    assert w1 * w2 == PositionElement.wave(expected)


def test_plane_wave_star_and_unitarity():
    w = PlaneWave.label(1)
    elem = PositionElement.wave(w)
    ek = ScalarValue.E(1)
    expected = PlaneWave(
        tuple(-(ek * ScalarValue.k(1, m)) for m in (1, 2, 3)), ((1, -1),)
    )
    assert elem.star() == PositionElement.wave(expected)
    assert elem * elem.star() == ONE
    assert elem.star() * elem == ONE


def test_coproduct_primitive_and_grouplike():
    for mu in range(4):
        want = PositionTensor.outer(ONE, X[mu]) + PositionTensor.outer(X[mu], ONE)
        assert X[mu].coproduct() == want
    assert ONE.coproduct() == PositionTensor.outer(ONE, ONE)
    w = PositionElement.wave(PlaneWave.label(1))
    assert w.coproduct() == PositionTensor.outer(w, w)


def test_equal_tensors_render_equal():
    """A tensor renders in a canonical order, not in insertion order."""
    w = PositionElement.wave(PlaneWave.label(1))
    first = PositionTensor.outer(X[0], X[1]) + PositionTensor.outer(w, X[0])
    second = PositionTensor.outer(w, X[0]) + PositionTensor.outer(X[0], X[1])
    assert first == second
    assert list(first.terms) != list(second.terms)
    assert first.render() == second.render()


def test_grouplike_rule_against_series_oracle():
    # the exponential of a primitive element is group-like: check the
    # group-like coproduct rule against the order-3 polynomial truncation
    from kmink.suites import _grouplike_series_residual

    assert _grouplike_series_residual(3).is_zero()


def test_plane_wave_product_against_series_oracle():
    from kmink.suites import wave_product_series_residual

    assert wave_product_series_residual(4).is_zero()


def test_counit_examples():
    for mu in range(4):
        assert X[mu].counit().is_zero()
    assert (PositionElement.scalar(5) + X[1]).counit() == ScalarValue.number(5)


def test_antipode():
    assert X[0].antipode() == -X[0]
    # S(x^0 x^1) = x^1 x^0 after reordering
    assert (X[0] * X[1]).antipode() == X[1] * X[0]
    w = PositionElement.wave(PlaneWave.label(1))
    assert w.antipode() == w.star()  # real symbolic momenta
    assert w.antipode() * w == ONE


def test_antipode_involutive():
    # the coproduct is cocommutative, so S^2 = id across the algebra
    rng = random.Random(31)
    for _ in range(25):
        a = rand_position(rng, 2, waves=True)
        assert a.antipode().antipode() == a


def test_antipode_antihomomorphism_fuzz():
    rng = random.Random(37)
    for _ in range(25):
        a = rand_position(rng, 2, n_terms=2, waves=True)
        b = rand_position(rng, 2, n_terms=2, waves=True)
        assert (a * b).antipode() == b.antipode() * a.antipode()


def test_hopf_axioms_on_polynomials():
    """The counit and antipode axioms on polynomials and on draws with plane
    waves.  A wave is group-like, so its counit is 1."""
    w = PositionElement.wave(PlaneWave.label(1))
    assert w.counit() == ScalarValue.number(1)
    assert w.coproduct().left_counit() == w
    rng, wave_rng = random.Random(13), random.Random(13)
    draws = [rand_position(rng, 2) for _ in range(25)]
    draws += [rand_position(wave_rng, 2, waves=True) for _ in range(40)]
    for a in draws:
        delta = a.coproduct()
        assert delta.left_counit() == a
        folded = delta.multiply_legs(lambda e: e.antipode())
        assert folded == PositionElement.scalar(a.counit())


def test_coassociativity_with_waves():
    rng = random.Random(29)
    for _ in range(20):
        delta = rand_position(rng, 2, waves=True).coproduct()
        assert delta.coproduct_left() == delta.coproduct_right()


def test_coproduct_is_algebra_map():
    rng = random.Random(17)
    for _ in range(15):
        a = rand_position(rng, 2, n_terms=2)
        b = rand_position(rng, 2, n_terms=2)
        assert (a * b).coproduct() == a.coproduct() * b.coproduct()


def test_monomial_rejects_zero_coeff():
    elem = PositionElement.monomial((1, 0, 0), 0, W_IDENTITY, ScalarValue.number(0))
    assert elem.is_zero()


def test_render_parseable_roundtrip():
    from kmink.expr import evaluate_text

    rng = random.Random(23)
    for _ in range(20):
        a = rand_position(rng, 2, waves=True)
        assert evaluate_text(a.render()) == a
