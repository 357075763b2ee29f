"""One-forms, two-forms, exterior derivative, metric form."""

import random

from hypothesis import given, settings, strategies as st

from kmink.action import act_derivative, act_f
from kmink.forms import (
    OneForm,
    TwoForm,
    check_metric_centrality,
    check_tau4_definition,
    exterior_d,
)
from kmink.fuzz import rand_oneform, rand_position
from kmink.minkowski import PositionElement, dot
from kmink.momentum import METRIC5
from kmink.scalars import ScalarValue

I = ScalarValue.number(0, 1)
IMK = I * ScalarValue.kappa(-1)
X = [PositionElement.x(mu) for mu in range(4)]
TAU = [OneForm.basis(i) for i in range(5)]


def test_right_mul_examples():
    # tau^0 x^0 = x^0 tau^0 - (i/kappa) tau^4
    got = TAU[0].right_mul(X[0])
    want = TAU[0].left_mul(X[0]) + TAU[4].scale(-IMK)
    assert got == want
    # tau^1 x^2 = x^2 tau^1
    assert TAU[1].right_mul(X[2]) == TAU[1].left_mul(X[2])
    # tau^4 x^1 = x^1 tau^4 - (i/kappa) tau^1   (Eq. 1.15 second line)
    got = TAU[4].right_mul(X[1])
    want = TAU[4].left_mul(X[1]) + TAU[1].scale(-IMK)
    assert got == want


def test_bimodule_relations_all_cases():
    for i in range(5):
        for nu in range(4):
            lhs = TAU[i].right_mul(X[nu]) - TAU[i].left_mul(X[nu])
            rhs = OneForm()
            if i < 4:
                if i == 0:
                    rhs = rhs + TAU[nu].scale(IMK)
                if i == nu:
                    rhs = rhs - (TAU[0] + TAU[4]).scale(
                        IMK * ScalarValue.number(METRIC5[i])
                    )
            else:
                rhs = TAU[nu].scale(-IMK)
            assert (lhs - rhs).is_zero(), (i, nu)


def test_exterior_d_examples():
    for mu in range(4):
        assert exterior_d(X[mu]) == TAU[mu]
    assert exterior_d(PositionElement.one()).is_zero()
    want = TAU[0].left_mul(X[0].scale(2)) + TAU[4].scale(-IMK)
    assert exterior_d(X[0] * X[0]) == want


def test_leibniz_rule():
    rng = random.Random(43)
    for _ in range(60):
        a = rand_position(rng, 3, n_terms=2, waves=True)
        b = rand_position(rng, 3, n_terms=2, waves=True)
        lhs = exterior_d(a * b)
        rhs = exterior_d(b).left_mul(a) + exterior_d(a).right_mul(b)
        assert (lhs - rhs).is_zero()


def test_bimodule_associativity():
    rng = random.Random(47)
    for _ in range(30):
        w = rand_oneform(rng, 2)
        a = rand_position(rng, 2, n_terms=2)
        b = rand_position(rng, 2, n_terms=2)
        assert w.right_mul(a).right_mul(b) == w.right_mul(a * b)


def test_wedge_and_two_forms():
    assert TAU[0].wedge(TAU[0]).is_zero()
    w = TAU[2].left_mul(X[1]).exterior_d()
    assert w == TAU[1].wedge(TAU[2])
    # constant right factor passes through: (x^0 tau^0) ^ tau^1 = x^0 tau^0^tau^1
    got = TAU[0].left_mul(X[0]).wedge(TAU[1])
    assert got.entries() == {(0, 1): X[0], (1, 0): -X[0]}


def test_two_form_entries_read_both_orders_and_raise_with_the_metric():
    # (0, 1) pairs a time index with a space index, so raising flips its
    # sign; (1, 2) pairs two space indices, so raising keeps it.
    f01, f12 = X[0] * X[1], X[2].scale(I)
    strength = TwoForm({(0, 1): f01, (1, 2): f12})
    low, up = strength.entries(), strength.entries(raised=True)
    assert set(low) == set(up) == {(0, 1), (1, 0), (1, 2), (2, 1)}
    for (i, j), f in low.items():
        assert f == (strength.terms[i, j] if i < j else -strength.terms[j, i])
        assert up[i, j] == f.scale(METRIC5[i] * METRIC5[j])
    assert (up[0, 1], up[1, 0], up[1, 2]) == (-f01, f01, f12)
    assert TwoForm().entries(raised=True) == {}


def test_d_squared_zero():
    rng = random.Random(53)
    for _ in range(40):
        a = rand_position(rng, 3, n_terms=2, waves=True)
        assert exterior_d(a).exterior_d().is_zero()


def test_star_form():
    assert TAU[0].star() == TAU[0]
    assert TAU[1].scale(I).star() == TAU[1].scale(-I)
    got = TAU[0].left_mul(X[0]).star()
    want = TAU[0].left_mul(X[0]) + TAU[4].scale(-IMK)
    assert got == want
    rng = random.Random(59)
    for _ in range(20):
        # hermitian-coefficient forms: polynomial coefficients fixed by star
        comps = []
        for _i in range(5):
            a = rand_position(rng, 2, n_terms=1)
            comps.append(a + a.star())
        w = OneForm.collect(enumerate(comps))
        assert w.star().star() == w


def test_metric_centrality():
    rng = random.Random(61)
    assert check_metric_centrality(PositionElement.one()).is_zero()
    assert check_metric_centrality(X[0]).is_zero()
    assert check_metric_centrality(X[1] * X[0]).is_zero()
    for _ in range(50):
        a = rand_position(rng, 2, n_terms=2)
        assert check_metric_centrality(a).is_zero()


def test_metric_index_round_trip():
    # lowering then raising any form index with g_44 = -1 is the identity
    for i in range(5):
        assert METRIC5[i] * METRIC5[i] == 1


def test_tau4_definition_check():
    literal, corrected = check_tau4_definition()
    assert corrected.is_zero()
    assert not literal.is_zero()
    # the literal-coefficient residual is ((3/4) - (3/16) kappa) tau^0
    from fractions import Fraction

    want = OneForm.basis(0).scale(
        ScalarValue.number(Fraction(3, 4))
        - ScalarValue.number(Fraction(3, 16)) * ScalarValue.kappa(1)
    )
    assert literal == want


def test_tau4_contraction_intermediate():
    # the traced commutator itself: [tau^mu, x_mu] = (i/kappa)(-3 tau^0 - 4 tau^4)
    acc = OneForm()
    for mu in range(4):
        x_mu = X[mu].scale(METRIC5[mu])
        acc = acc + (TAU[mu].right_mul(x_mu) - TAU[mu].left_mul(x_mu))
    want = (TAU[0].scale(-3) + TAU[4].scale(-4)).scale(IMK)
    assert acc == want


def test_lower_raise_consistency_via_f():
    # index gymnastics consistency: the contraction used in Eq. 1.25 applied
    # to a coefficient through the action ring
    rng = random.Random(67)
    from kmink import momentum as mom
    from kmink.action import act

    f = mom.f_matrix()
    flow = mom.f_lowered()
    for _ in range(10):
        a = rand_position(rng, 2)
        for i in range(5):
            for j in range(5):
                acc = PositionElement.zero()
                for k in range(5):
                    acc = acc + act(flow[k][j], act(f[k][i], a))
                want = a if i == j else PositionElement.zero()
                assert acc == want


# -- the index sums against per-pair references -------------------------------

Z = PositionElement.zero()


def reference_right_mul(w, b):
    """(a_i tau^i) b = sum_i a_i f^i_j(b) tau^j, one product per (i, j)."""
    out = {}
    for i, a in w.terms.items():
        for j in range(5):
            out[j] = out.get(j, Z) + a * act_f(i, j, b)
    return OneForm({j: v for j, v in out.items() if not v.is_zero()})


def _fold(components):
    """A TwoForm from a dict of (k, j) components: (k, j) - (j, k) at k < j."""
    out = {}
    for k in range(5):
        for j in range(k + 1, 5):
            v = components.get((k, j), Z) - components.get((j, k), Z)
            if not v.is_zero():
                out[k, j] = v
    return TwoForm(out)


def reference_wedge(w, v):
    """(a_i tau^i) ^ (b_j tau^j) = sum_i a_i f^i_k(b_j) tau^k ^ tau^j."""
    comps = {}
    for j, b in v.terms.items():
        for i, a in w.terms.items():
            for k in range(5):
                comps[k, j] = comps.get((k, j), Z) + a * act_f(i, k, b)
    return _fold(comps)


def reference_form_d(w):
    """d(a_i tau^i) = del_j(a_i) tau^j ^ tau^i."""
    comps = {}
    for i, a in w.terms.items():
        for j in range(5):
            comps[j, i] = comps.get((j, i), Z) + act_derivative(j, a)
    return _fold(comps)


def wavy_oneform(rng):
    """A one-form whose coefficients are fuzz elements with waves."""
    return OneForm.collect((i, rand_position(rng, 1, n_terms=2, waves=True))
                           for i in range(5) if rng.random() < 0.7)


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False))
def test_form_sums_match_per_pair_references(rng):
    w = wavy_oneform(rng)
    v = rand_oneform(rng, 1)
    b = rand_position(rng, 2, waves=True)
    assert w.right_mul(b) == reference_right_mul(w, b)
    assert w.wedge(v) == reference_wedge(w, v)
    assert v.wedge(w) == reference_wedge(v, w)
    assert w.exterior_d() == reference_form_d(w)


def grouped_wedge(w, v):
    """The wedge as one `dot` per i < j slot: each a_i f^i_k(b_j) lands in
    its (k, j) slot, or negated in the (j, k) one when j < k, and k = j
    never arises."""
    neg = {i: -a for i, a in w.terms.items()}
    pairs = {}
    for j, b in v.terms.items():
        for i, a in w.terms.items():
            for k in range(5):
                if k != j:
                    key, left = ((k, j), a) if k < j else ((j, k), neg[i])
                    pairs.setdefault(key, []).append((left, act_f(i, k, b)))
    return TwoForm({key: s for key, p in pairs.items() if (s := dot(p)).terms})


def test_wedge_matches_the_grouped_slot_sums():
    rng = random.Random(71)
    for _ in range(20):
        w, v = (rand_oneform(rng, 2).left_mul(rand_position(rng, 1, n_terms=2, waves=True))
                for _side in range(2))
        assert w.wedge(v) == grouped_wedge(w, v)


# -- the two-form bimodule -------------------------------------------------------


def rand_twoform(rng):
    """A two-form over every i < j slot, each coefficient drawn with waves."""
    return TwoForm.collect(((i, j), rand_position(rng, 1, n_terms=1, waves=True))
                           for i in range(5) for j in range(i + 1, 5))


def test_two_form_collect_folds_the_lower_triangle():
    c = X[0] * X[1] + PositionElement.one()
    for i in range(5):
        for j in range(i + 1, 5):
            assert TwoForm.collect([((j, i), c)]) == TwoForm.collect([((i, j), -c)])
            assert TwoForm.collect([((j, i), c), ((i, j), c)]).is_zero()
        assert TwoForm.collect([((i, i), c)]).is_zero()


def test_two_form_bimodule_laws():
    rng = random.Random(79)
    for _ in range(4):
        F = rand_twoform(rng)
        a = rand_position(rng, 1, n_terms=2, waves=True)
        b = rand_position(rng, 1, n_terms=2, waves=True)
        assert F.right_mul(a).right_mul(b) == F.right_mul(a * b)
        assert F.left_mul(a).right_mul(b) == F.right_mul(b).left_mul(a)


def test_two_form_right_mul_passes_through_the_wedge():
    # (omega ^ eta) b = omega ^ (eta b)
    rng = random.Random(83)
    for _ in range(4):
        w, v = rand_oneform(rng, 1), wavy_oneform(rng)
        b = rand_position(rng, 1, n_terms=2, waves=True)
        assert w.wedge(v).right_mul(b) == w.wedge(v.right_mul(b))
    assert TAU[1].wedge(TAU[2]).right_mul(X[3]) == TAU[1].wedge(TAU[2]).left_mul(X[3])
