"""Hopf structure of the momentum algebra and the named constants."""

import random
from fractions import Fraction

from kmink import momentum as mom
from kmink.fuzz import rand_momentum
from kmink.momentum import MomentumElement, MomentumTensor
from kmink.scalars import ScalarValue
from kmink.terms import Matrix

P = [MomentumElement.P(mu) for mu in range(4)]
ONE = MomentumElement.one()
I = ScalarValue.number(0, 1)


def p_squared():
    """P_1^2 + P_2^2 + P_3^2."""
    return MomentumElement.dot((P[m], P[m]) for m in (1, 2, 3))


def u_correction():
    """(1/2 kappa^2) exp(P_0/kappa) P^2, the quadratic correction of the
    published table."""
    return (MomentumElement.exp_weight(1) * p_squared()).scale(
        ScalarValue.number(Fraction(1, 2)) * ScalarValue.kappa(-2))


def test_commutativity():
    rng = random.Random(3)
    for _ in range(30):
        p = rand_momentum(rng, 3)
        q = rand_momentum(rng, 3)
        assert p * q == q * p


def test_coproduct_generators():
    want = MomentumTensor.outer(P[0], ONE) + MomentumTensor.outer(ONE, P[0])
    assert P[0].coproduct() == want
    e_minus = MomentumElement.exp_weight(-1)
    for m in (1, 2, 3):
        want = MomentumTensor.outer(P[m], ONE) + MomentumTensor.outer(e_minus, P[m])
        assert P[m].coproduct() == want
    assert ONE.coproduct() == MomentumTensor.outer(ONE, ONE)


def test_coproduct_multiplicative_example():
    lhs = (P[1] * MomentumElement.exp_weight(1)).coproduct()
    rhs = P[1].coproduct() * MomentumElement.exp_weight(1).coproduct()
    assert lhs == rhs


def test_antipode_closed_forms():
    assert P[0].antipode() == -P[0]
    e_plus = MomentumElement.exp_weight(1)
    for m in (1, 2, 3):
        assert P[m].antipode() == -(e_plus * P[m])
        assert P[m].antipode().antipode() == P[m]
    lam = MomentumElement.exp_weight(2)
    assert lam.antipode() == MomentumElement.exp_weight(-2)


def test_counit():
    assert (P[0] * P[0] + MomentumElement.scalar(3)).counit() == ScalarValue.number(3)
    assert MomentumElement.exp_weight(5).counit() == ScalarValue.number(1)


def test_coassociativity_on_f_entries():
    f = mom.f_matrix()
    probes = [P[0], P[1], MomentumElement.exp_weight(1),
              MomentumElement.exp_weight(-2) * P[2] * P[0]]
    probes += [f[i][j] for i in range(5) for j in range(5)]
    for q in probes:
        assert q.coproduct().coproduct_left() == q.coproduct().coproduct_right()


def test_counit_axiom():
    """(counit (x) id) coproduct = id on the generators, a group-like
    exponential, the entries of f and random momenta: 40 cases."""
    f = mom.f_matrix()
    rng = random.Random(19)
    probes = P + [MomentumElement.exp_weight(1)] + [f[i][j] for i in range(5) for j in range(5)]
    probes += [rand_momentum(rng, 2) for _ in range(10)]
    for q in probes:
        assert q.coproduct().left_counit() == q


def test_antipode_axiom():
    f = mom.f_matrix()
    probes = P + [f[i][j] for i in range(5) for j in range(5)]
    for q in probes:
        folded = q.coproduct().multiply_legs(lambda e: e.antipode())
        assert folded == MomentumElement.scalar(q.counit())


def test_star_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_momentum(rng, 2)
        q = rand_momentum(rng, 2)
        assert (p * q).star() == p.star() * q.star()


def test_f_matrix_closed_forms():
    f = mom.f_matrix()
    ch, sh = mom.ch(), mom.sh()
    e_plus = MomentumElement.exp_weight(1)
    u = u_correction()
    assert f[0][0] == ch + u
    assert f[4][4] == ch - u
    assert f[0][4] == sh + u
    assert f[4][0] == sh - u
    inv_k = ScalarValue.kappa(-1)
    for m in (1, 2, 3):
        assert f[0][m] == P[m].scale(-1 * inv_k)
        assert f[4][m] == P[m].scale(inv_k)
        assert f[m][0] == (e_plus * P[m]).scale(-1 * inv_k)
        assert f[m][4] == (e_plus * P[m]).scale(-1 * inv_k)
        for n in (1, 2, 3):
            assert f[n][m] == (ONE if m == n else MomentumElement.zero())


def test_orthogonality_and_coproduct_systems():
    records = [*mom.f_orthogonality(), *mom.f_coproducts()]
    assert [r[1] for r in records] == ["1.25"] * 25 + ["1.26"] * 25 + ["1.23"] * 25 + ["2.6"] * 5
    assert len({r[0] for r in records}) == 80
    assert not [r for r in records if not r[2].is_zero()]


def test_box_identities():
    records = list(mom.box_identities())
    assert [r[1] for r in records] == ["1.12", "2.9"]
    assert all(r[2].is_zero() for r in records)


def test_group_element_series_is_exact():
    x = mom._nilpotent()
    assert isinstance(x, Matrix)
    assert not (x * x).is_zero()
    assert x * x * x == Matrix()


def test_derivatives_from_f():
    f = mom.f_matrix()
    d = mom.derivatives()
    ik = I * ScalarValue.kappa(1)
    assert d[0] == f[4][0].scale(ik)
    assert d[0] == (mom.sh() - u_correction()).scale(ik)
    for m in (1, 2, 3):
        assert d[m] == f[4][m].scale(ik)
        assert d[m] == P[m].scale(I)
    assert d[4] == (f[4][4] - ONE).scale(ik)


def test_vector_fields_from_f():
    f = mom.f_matrix()
    e = mom.vector_fields()
    ik = I * ScalarValue.kappa(1)
    for i in range(4):
        assert e[i] == f[i][4].scale(ik)
    assert e[4] == f[4][4].scale(ik)
    assert e[0] == (mom.sh() + u_correction()).scale(ik)
    assert e[4] == (mom.ch() - u_correction()).scale(ik)
    e_plus = MomentumElement.exp_weight(1)
    for m in (1, 2, 3):
        assert e[m] == (e_plus * P[m]).scale(-I)


def test_box_kappa_limit():
    limit = mom.box().kappa_expand(0)
    want = p_squared() - P[0] * P[0]
    assert limit == want


def test_antihermitian_derivatives():
    for d in mom.derivatives():
        assert d.star() == -d
