"""Gamma matrices, Dirac operators, the quantum Clifford bundle."""

import random

from kmink import dirac
from kmink import momentum as mom
from kmink.action import act_f
from kmink.forms import OneForm
from kmink.fuzz import rand_position, rand_spinor
from kmink.minkowski import PositionElement
from kmink.scalars import ScalarValue
from kmink.terms import IndexedMap, Matrix

X = [PositionElement.x(mu) for mu in range(4)]
REP_ZERO = dirac.GAMMA4_ZERO
REP_UNIT = dirac.Gamma4("unit", ScalarValue.number(2))
REP_G5 = dirac.Gamma4("gamma5", ScalarValue.number(1))
ALL_REPS = (REP_ZERO, REP_UNIT, REP_G5)


def test_clifford_relations():
    assert dirac.check_clifford_relations().is_zero()


def test_dirac_square_zero_choice():
    assert dirac.check_dirac_square(REP_ZERO).is_zero()


def test_dirac_square_unit_choice_residual():
    residual = dirac.check_dirac_square(REP_UNIT)
    # residual = lam^2 del4^2 Id + 2 lam gamma^mu del_mu del_4
    d = mom.derivatives()
    lam = ScalarValue.number(2)
    want = dirac.op_from_matrix(dirac.ID4, (d[4] * d[4]).scale(lam * lam))
    for mu in range(4):
        want = want + dirac.op_from_matrix(
            REP_ZERO.gammas[mu], (d[mu] * d[4]).scale(lam * ScalarValue.number(2))
        )
    assert (residual - want).is_zero()


def test_dirac_square_gamma5_choice_residual():
    residual = dirac.check_dirac_square(REP_G5)
    d4 = mom.derivatives()[4]
    want = dirac.op_from_matrix(dirac.ID4, d4 * d4)
    assert (residual - want).is_zero()


def test_representation_memos_hit_by_value():
    unit = dirac.build_dirac(dirac.Gamma4("unit", 2))
    assert dirac.build_dirac(dirac.Gamma4("unit", 2)) is unit
    # an int coefficient is coerced, so it is the scalar's memo key
    assert isinstance(dirac.Gamma4("unit", 2).coeff, ScalarValue)
    assert dirac.build_dirac(REP_UNIT) is unit
    assert dirac.clifford_image(1, dirac.Gamma4("gamma5")) is dirac.clifford_image(1, REP_G5)
    assert REP_UNIT.gammas[4] == dirac.ID4.scale(2) and REP_ZERO.gammas[4] == dirac.ZERO4


def test_dirac_kills_constant_spinor():
    psi = IndexedMap({0: PositionElement.one(), 3: PositionElement.one()})
    for rep in ALL_REPS:
        out = dirac.op_apply(dirac.build_dirac(rep), psi)
        assert out.is_zero()


def test_clifford_image_counit_action():
    # on a constant spinor tau^mu_c acts as gamma^mu
    psi = IndexedMap({0: PositionElement.one()})
    for mu in range(4):
        got = dirac.op_apply(dirac.clifford_image(mu, REP_ZERO), psi)
        gam = REP_ZERO.gammas[mu]
        want = IndexedMap({r: PositionElement.scalar(v)
                           for (r, c), v in gam.terms.items() if c == 0})
        assert (got - want).is_zero()


def test_clifford_image_no_gamma4_term_when_zero():
    img = dirac.clifford_image(4, REP_ZERO)
    f = mom.f_matrix()
    want = Matrix()
    for j in range(4):
        want = want + dirac.op_from_matrix(REP_ZERO.gammas[j], f[4][j])
    assert (img - want).is_zero()


def test_diagram_commutes():
    rng = random.Random(71)
    for rep in ALL_REPS:
        for _ in range(50):
            a = rand_position(rng, 2, n_terms=2)
            psi = rand_spinor(rng, 2)
            residual = dirac.check_diagram(a, psi, rep)
            assert residual.is_zero()


def test_diagram_examples():
    psi_const = IndexedMap({0: PositionElement.one()})
    assert dirac.check_diagram(X[0], psi_const, REP_ZERO).is_zero()
    assert dirac.check_diagram(PositionElement.one(), psi_const, REP_ZERO).is_zero()
    psi = IndexedMap({1: X[2]})
    assert dirac.check_diagram(X[1] * X[0], psi, REP_ZERO).is_zero()


def test_clifford_apply_on_a_basis_form_is_its_clifford_image():
    rng = random.Random(89)
    for rep in ALL_REPS:
        psi = rand_spinor(rng, 2)
        for i in range(5):
            got = dirac.clifford_apply(OneForm.basis(i), psi, rep)
            assert got == dirac.op_apply(dirac.clifford_image(i, rep), psi)


def _bimodule_residual(i, rep, a, psi):
    """tau^i_c (a psi) - sum_j (f^i_j |> a) tau^j_c psi, eq. 1.21."""
    lhs = dirac.op_apply(dirac.clifford_image(i, rep), psi.left_mul(a))
    rhs = IndexedMap()
    for j in range(5):
        fa = act_f(i, j, a)
        if fa.is_zero():
            continue
        rhs = rhs + dirac.op_apply(dirac.clifford_image(j, rep), psi).left_mul(fa)
    return lhs - rhs


def test_clifford_bimodule_relation():
    rng = random.Random(73)
    for rep in ALL_REPS:
        for _ in range(10):
            a = rand_position(rng, 2, n_terms=2)
            psi = rand_spinor(rng, 2)
            for i in range(5):
                assert _bimodule_residual(i, rep, a, psi).is_zero()


def test_clifford_bimodule_relation_for_the_nonzero_gamma4_choices():
    """The `clifford-bimodule-*` checks of `suite_dirac` use gamma_4 = 0;
    the law holds as well for the unit and gamma5 choices at lambda = 1,
    on a few seeded witnesses each."""
    for rep in (dirac.Gamma4("unit"), dirac.Gamma4("gamma5")):
        rng = random.Random(f"bimodule/{rep.kind}")
        for _ in range(3):
            a = rand_position(rng, 2, n_terms=2)
            psi = rand_spinor(rng, 2)
            for i in range(5):
                assert _bimodule_residual(i, rep, a, psi).is_zero()


def test_published_clifford_variant_differs():
    # the metric-lowered contraction breaks the diagram; kept only as a report
    diff = (dirac.clifford_image(1, REP_ZERO)
            - dirac.clifford_image_published(1, REP_ZERO))
    assert not diff.is_zero()


def test_antihermiticity_report():
    assert dirac.check_antihermiticity() == [(i, "0") for i in range(5)]


def test_clifford_image_classical_limit():
    for mu in range(4):
        img = dirac.clifford_image(mu, REP_ZERO).map_coeffs(lambda p: p.kappa_expand(0))
        gam = dirac.op_from_matrix(REP_ZERO.gammas[mu], mom.MomentumElement.one())
        assert (img - gam).is_zero()
