"""The coordinate product, star, left action and mixed-word normal forms
against a differential-operator realization on commuting variables, which
shares no code with the engine.

On polynomials in commuting (s, t1, t2, t3) the time-ordered monomial
(x^0)^t x^a is s^t t^a, and by the realization technique of Meljanac and
Stojic (Eur. Phys. J. C 47 (2006) 531) the generators act as

    x^0    -> multiplication by s
    x^m    -> the shift s -> s - i/kappa, then multiplication by t_m
    P_0    -> -i d/ds
    P_m    -> -i d/dt_m, then the shift s -> s + i/kappa
    Exp[l] -> the shift s -> s - i l/kappa

(these satisfy [x^0, x^m] = i x^m / kappa and the engine's commutation
rules).  The engine's normal-ordered key (a, t) is the ordered product
x^a (x^0)^t, so its image is those operators applied to 1 in turn.  The
engine is read only through term keys and `render()` text.
"""

import re
from fractions import Fraction

import sympy as sp
from hypothesis import example, given, settings, strategies as st

from kmink.action import HeisenbergElement, act
from kmink.minkowski import W_IDENTITY, PositionElement
from kmink.momentum import MomentumElement
from kmink.scalars import ScalarValue
from tests.test_normal_forms import deep_momentum_keys

S = sp.Symbol("s")
T = sp.symbols("t1 t2 t3")
KAPPA = sp.Symbol("kappa")
IK = sp.I / KAPPA
PROBE = S ** 2 * T[0] + S * T[1] * T[2] + T[2] ** 2 + S


def shift(f, by):
    return sp.expand(f.subs(S, S + by))


def x_op(mu, f):
    return S * f if mu == 0 else T[mu - 1] * shift(f, -IK)


def p_op(mu, f):
    if mu == 0:
        return -sp.I * sp.diff(f, S)
    return shift(-sp.I * sp.diff(f, T[mu - 1]), IK)


def position_image(a, t, f=sp.Integer(1)):
    """x^a (x^0)^t applied to f: the rightmost factor acts first."""
    for _ in range(t):
        f = x_op(0, f)
    for m in (3, 2, 1):
        for _ in range(a[m - 1]):
            f = x_op(m, f)
    return f


def momentum_image(momkey, f):
    """P_1^b1 P_2^b2 P_3^b3 P_0^d Exp[l] applied to f (momenta commute)."""
    b, d, lam = momkey
    f = shift(f, -lam * IK)
    for _ in range(d):
        f = p_op(0, f)
    for m in (1, 2, 3):
        for _ in range(b[m - 1]):
            f = p_op(m, f)
    return f


def scalar_image(text):
    """A rendered coefficient as a sympy expression in kappa."""
    text = re.sub(r"(\d+(?:/\d+)?)i\b", r"(\1*I)", text).replace("^", "**")
    return sp.sympify(text, locals={"kappa": KAPPA, "I": sp.I})


def engine_image(a):
    """The image of a wave-free position element, from its keys and text."""
    acc = sp.Integer(0)
    for (mono, t, w), c in a.terms.items():
        assert w is W_IDENTITY or w.is_identity()
        acc += scalar_image(c.render()) * position_image(mono, t)
    return sp.expand(acc)


@st.composite
def gaussians(draw):
    """(engine scalar, sympy number) of a nonzero (a + b i)/d."""
    re_, im_ = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5))
                    .filter(lambda v: v != (0, 0)))
    den = draw(st.integers(1, 4))
    return (ScalarValue.number(Fraction(re_, den), Fraction(im_, den)),
            sp.Rational(re_, den) + sp.I * sp.Rational(im_, den))


@st.composite
def polynomials(draw, max_degree=3, max_terms=3):
    """(engine element, [(a, t, sympy coefficient)]) of a wave-free
    polynomial sum c x^a (x^0)^t."""
    engine, terms = PositionElement.zero(), []
    for _ in range(draw(st.integers(1, max_terms))):
        a = draw(st.tuples(*[st.integers(0, max_degree)] * 3)
                 .filter(lambda v: sum(v) <= max_degree))
        t = draw(st.integers(0, max_degree - sum(a)))
        coeff, image = draw(gaussians())
        kap = draw(st.integers(-1, 1))
        engine = engine + PositionElement.monomial(a, t, W_IDENTITY,
                                                   coeff * ScalarValue.kappa(kap))
        terms.append((a, t, image * KAPPA ** kap))
    return engine, terms


def left_multiply(terms, f):
    """Left multiplication by sum c x^a (x^0)^t, applied to f."""
    return sp.expand(sum((c * position_image(a, t, f) for a, t, c in terms),
                         sp.Integer(0)))


def test_realization_satisfies_the_defining_relations():
    f = PROBE
    for m in (1, 2, 3):
        lhs = x_op(0, x_op(m, f)) - x_op(m, x_op(0, f))
        assert sp.expand(lhs - IK * x_op(m, f)) == 0
        # P_m x^0 = (x^0 + i/kappa) P_m
        lhs = p_op(m, x_op(0, f)) - x_op(0, p_op(m, f)) - IK * p_op(m, f)
        assert sp.expand(lhs) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=6), gaussians())
def test_words_and_star_match_the_realization(word, coeff):
    """A word c x^mu1 ... x^mun normal-orders to its operator product, and
    its star is the reversed word with the conjugate coefficient."""
    c, c_image = coeff
    engine = PositionElement.scalar(c)
    for mu in word:
        engine = engine * PositionElement.x(mu)
    image, reversed_image = c_image, sp.conjugate(c_image)
    for mu in reversed(word):
        image = x_op(mu, image)
    for mu in word:
        reversed_image = x_op(mu, reversed_image)
    assert engine_image(engine) == sp.expand(image)
    assert engine_image(engine.star()) == sp.expand(reversed_image)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_degree=2), polynomials(max_degree=2))
def test_position_product_matches_the_realization(f, g):
    (f_engine, f_terms), (g_engine, g_terms) = f, g
    want = left_multiply(f_terms, left_multiply(g_terms, sp.Integer(1)))
    assert engine_image(f_engine * g_engine) == want


def _monomial(a, t):
    return PositionElement.monomial(a, t, W_IDENTITY), [(a, t, sp.Integer(1))]


@settings(max_examples=40, deadline=None)
@given(deep_momentum_keys(), polynomials())
@example(((0, 0, 0), 0, 1), _monomial((0, 0, 0), 2))
def test_act_matches_the_realization(momkey, poly):
    engine, terms = poly
    got = act(MomentumElement({momkey: ScalarValue.number(1)}), engine)
    assert engine_image(got) == sp.expand(momentum_image(momkey, left_multiply(terms, sp.Integer(1))))


@settings(max_examples=25, deadline=None)
@given(deep_momentum_keys(), polynomials(max_degree=2, max_terms=2))
@example(((1, 0, 0), 0, 0), _monomial((1, 0, 0), 1))
def test_mixed_word_normal_form_matches_the_realization(momkey, poly):
    """The normal form of P * g, as the operator sum c x^a (x^0)^t P', equals
    P composed with left multiplication by g, on a probe polynomial."""
    engine, terms = poly
    word = (HeisenbergElement.from_momentum(MomentumElement({momkey: ScalarValue.number(1)}))
            * HeisenbergElement.from_position(engine))
    want = momentum_image(momkey, left_multiply(terms, PROBE))
    got = sp.Integer(0)
    for ((mono, t, w), mk), c in word.terms.items():
        assert w.is_identity()
        got += scalar_image(c.render()) * position_image(mono, t, momentum_image(mk, PROBE))
    assert sp.expand(got - want) == 0
