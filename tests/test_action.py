"""Cross-relations, the left action and its module-algebra laws."""

import random

from kmink import momentum as mom
from kmink.action import (
    HeisenbergElement,
    act,
    act_derivative,
    act_f,
    act_f_lowered,
    word,
)
from kmink.fuzz import rand_momentum, rand_position
from kmink.minkowski import PlaneWave, PositionElement
from kmink.momentum import METRIC5, MomentumElement
from kmink.scalars import ScalarValue

I = ScalarValue.number(0, 1)
IMK = I * ScalarValue.kappa(-1)
X = [PositionElement.x(mu) for mu in range(4)]
P = [MomentumElement.P(mu) for mu in range(4)]


def heis(value):
    return HeisenbergElement.coerce(value)


def test_cross_relations_generator_cases():
    # P_0 x^0 = x^0 P_0 - i
    assert word(P[0], X[0]) == word(X[0], P[0]) - heis(PositionElement.scalar(I))
    # P_0 x^m = x^m P_0
    for m in (1, 2, 3):
        assert word(P[0], X[m]) == word(X[m], P[0])
    # P_m x^0 = (x^0 + i/kappa) P_m
    for m in (1, 2, 3):
        shifted = X[0] + PositionElement.scalar(IMK)
        assert word(P[m], X[0]) == word(shifted, P[m])
    # P_m x^n = x^n P_m - i delta
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            want = word(X[n], P[m])
            if m == n:
                want = want - heis(PositionElement.scalar(I))
            assert word(P[m], X[n]) == want


def test_exponential_cross_relations():
    for lam in (-2, -1, 1, 3):
        e_lam = MomentumElement.exp_weight(lam)
        shift = PositionElement.scalar(ScalarValue.number(-lam) * IMK)
        assert word(e_lam, X[0]) == word(X[0] + shift, e_lam)
        assert word(e_lam, X[1]) == word(X[1], e_lam)


def test_plane_wave_cross_relations():
    w = PositionElement.wave(PlaneWave.label(1))
    k0 = ScalarValue.k(1, 0)
    # P_0 W = W (P_0 + k_0)
    assert word(P[0], w) == word(w, P[0]) + word(w).scale(k0)
    # P_m W = W (P_m + k_m) (spatial exp eigenvalue; the E shift applies to
    # the pure time factor only, checked through the eigenvalue property)
    for m in (1, 2, 3):
        got = act(P[m], w)
        assert got == w.scale(ScalarValue.k(1, m))
    e_lam = MomentumElement.exp_weight(2)
    assert word(e_lam, w) == word(w, e_lam).scale(ScalarValue.E(1, 2))


def test_action_pairing_examples():
    assert act(P[0], X[0]) == PositionElement.scalar(-I)
    assert act(P[1], X[0]).is_zero()
    for mu in range(4):
        for nu in range(4):
            want = PositionElement.scalar(-I) if mu == nu else PositionElement.zero()
            assert act(P[mu], X[nu]) == want


def test_action_agrees_with_coproduct_pairing_on_generators():
    # Independent route: act(p, x^nu) = (p, x^nu) + x^nu eps(p) from the
    # primitive coproduct of x^nu.  The pairing of a monomial against a
    # single generator reads off its P-linear part, with a pure exponential
    # exp(lam P_0/kappa) pairing to -i lam/kappa against x^0.
    rng = random.Random(19)
    for _ in range(25):
        p = rand_momentum(rng, 2)
        for nu in range(4):
            paired = ScalarValue()
            for (b, d, lam), c in p.terms.items():
                nb = b[0] + b[1] + b[2]
                if nb + d == 1:
                    if (d == 1 and nu == 0) or (nu and nb == 1 and b[nu - 1] == 1):
                        paired = paired + c * (-I)
                elif nb == 0 and d == 0 and lam and nu == 0:
                    paired = paired + c * ScalarValue.number(-lam) * IMK
            want = PositionElement.scalar(paired) + X[nu].scale(p.counit())
            assert act(p, X[nu]) == want, (p.render(), nu)


def test_action_derivative_examples():
    assert act_derivative(0, X[0]) == PositionElement.one()
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            want = PositionElement.one() if m == n else PositionElement.zero()
            assert act_derivative(m, X[n]) == want
        assert act_derivative(4, X[m]).is_zero()
    assert act_derivative(4, X[0]).is_zero()
    assert act_derivative(4, X[0] * X[0]) == PositionElement.scalar(-IMK)


def test_action_f_examples():
    assert act_f(0, 4, X[0]) == PositionElement.scalar(-IMK)
    assert act_f(0, 0, X[0]) == X[0]


def test_module_algebra_law():
    rng = random.Random(29)
    f = mom.f_matrix()
    probes = [P[0], P[1], P[2], P[3]] + list(mom.derivatives()) + [
        f[0][0], f[0][4], f[4][0], f[1][0], f[4][4]
    ]
    for _ in range(40):
        p = probes[rng.randrange(len(probes))]
        a = rand_position(rng, 2, waves=True)
        b = rand_position(rng, 2, waves=True)
        lhs = act(p, a * b)
        rhs = PositionElement.zero()
        for (kl, kr), c in p.coproduct().terms.items():
            left = act(MomentumElement({kl: ScalarValue.number(1)}), a)
            right = act(MomentumElement({kr: ScalarValue.number(1)}), b)
            rhs = rhs + (left * right).scale(c)
        assert lhs == rhs


def test_operator_identity():
    # [del_i, a] = del_j(a) f^j_i as normal-ordered mixed words
    rng = random.Random(31)
    f = mom.f_matrix()
    d = mom.derivatives()
    for _ in range(10):
        a = rand_position(rng, 2, waves=False)
        for i in range(5):
            lhs = word(d[i], a) - word(a, d[i])
            rhs = HeisenbergElement()
            for j in range(5):
                da = act_derivative(j, a)
                if da.is_zero():
                    continue
                rhs = rhs + (HeisenbergElement.from_position(da)
                             * HeisenbergElement.from_momentum(f[j][i]))
            assert lhs == rhs


def test_vector_field_relations():
    e = mom.vector_fields()
    for mu in range(4):
        for nu in range(4):
            lhs = word(e[mu], X[nu]) - word(X[nu], e[mu])
            term = MomentumElement.zero()
            if mu == 0:
                term = term + e[nu]
            if mu == nu:
                term = term - (e[0] + e[4]).scale(METRIC5[mu])
            assert lhs == HeisenbergElement.from_momentum(term.scale(IMK))
    for mu in range(4):
        lhs = word(e[4], X[mu]) - word(X[mu], e[4])
        assert lhs == HeisenbergElement.from_momentum(e[mu].scale(-IMK))


def test_hermiticity_relation():
    rng = random.Random(37)
    flow = mom.f_lowered()
    for _ in range(50):
        a = rand_position(rng, 2, waves=True)
        i, j = rng.randrange(5), rng.randrange(5)
        assert act_f(i, j, a.star()).star() == act(flow[j][i], a)


def test_vacuum_normalization():
    rng = random.Random(41)
    one = PositionElement.one()
    for _ in range(20):
        p = rand_momentum(rng, 2)
        assert act(p, one) == PositionElement.scalar(p.counit())


def test_act_f_lowered_matches_table():
    a = X[0] * X[1]
    for i in range(5):
        for j in range(5):
            assert act_f_lowered(i, j, a) == act(mom.f_lowered()[i][j], a)


def test_word_rewriting_terminates_on_nested_products():
    w = word(P[1], X[1], P[0], X[0])
    assert w == word(P[1], X[1]) * word(P[0], X[0])


def test_heisenberg_associativity():
    # global soundness of the cross-relations: reordering in either
    # association must agree, plane waves included
    rng = random.Random(53)
    for _ in range(40):
        words = []
        for _w in range(3):
            h = HeisenbergElement.coerce(rand_position(rng, 2, n_terms=1, waves=True))
            h = h * HeisenbergElement.coerce(rand_momentum(rng, 2, n_terms=1))
            words.append(h)
        h1, h2, h3 = words
        assert (h1 * h2) * h3 == h1 * (h2 * h3)


def test_mixed_word_products_are_composed_operators():
    """Representation oracle: (u v)(a) = u(v(a)) for wave-carrying words
    x p and elements a.  `apply` only acts and multiplies positions, so it
    shares no code with the mixed-word normal form that forms u v."""
    for seed in range(40):
        rng = random.Random(seed)
        u, v = (word(rand_position(rng, 2, waves=True), rand_momentum(rng, 2))
                for _ in range(2))
        a = rand_position(rng, 2, waves=True)
        assert (u * v).apply(a) == u.apply(v.apply(a)), seed
