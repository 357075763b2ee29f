"""Ring axioms and expansion rules for the exact coefficient ring."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from kmink.scalars import GaussianRational, ScalarValue


def num(re, im=0):
    return ScalarValue.number(re, im)


I = num(0, 1)
KAPPA_INV = ScalarValue.kappa(-1)


def rand_scalars(expandable=False):
    coeffs = st.sampled_from([0, 1, -1, Fraction(1, 2), Fraction(-3, 2)])
    ims = st.sampled_from([0, 1, -1])
    # Truncation by final kappa exponent is a ring map only on the
    # subring of nonpositive kappa degrees (the domain of every
    # classical-limit coefficient), so the expansion property draws
    # from there; plain ring axioms use the full Laurent range.
    kaps = st.integers(min_value=-2, max_value=0 if expandable else 2)
    kexp = st.integers(min_value=0, max_value=2)
    eexp = st.integers(min_value=-2, max_value=2)

    def build(c, im, kap, ke, ee):
        return (num(c, im) * ScalarValue.kappa(kap) * ScalarValue.k(1, 0, ke)
                * ScalarValue.E(1, ee))

    mono = st.builds(build, coeffs, ims, kaps, kexp, eexp)
    return st.lists(mono, min_size=1, max_size=3).map(
        lambda parts: sum(parts[1:], parts[0])
    )


@settings(max_examples=60, deadline=None)
@given(rand_scalars(), rand_scalars(), rand_scalars())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(rand_scalars())
def test_canonical_zero(a):
    assert (a - a).is_zero()
    assert not (a - a).terms


@settings(max_examples=60, deadline=None)
@given(rand_scalars(), rand_scalars())
def test_conj_ring_homomorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=40, deadline=None)
@given(rand_scalars(expandable=True), rand_scalars(expandable=True),
       st.integers(min_value=0, max_value=3))
def test_kappa_expand_multiplicative(a, b, n):
    lhs = (a * b).kappa_expand(n)
    rhs = (a.kappa_expand(n) * b.kappa_expand(n)).kappa_expand(n)
    assert lhs == rhs


def test_additive_inverse_example():
    assert ((I * KAPPA_INV) + (-(I * KAPPA_INV))).is_zero()
    assert num(1) + num(1) == num(2)


def test_ch_from_exponentials():
    half = num(Fraction(1, 2))
    ch = half * ScalarValue.E(1) + half * ScalarValue.E(1, -1)
    sh = half * ScalarValue.E(1) - half * ScalarValue.E(1, -1)
    assert sh * sh - ch * ch == num(-1)


def test_exponential_group_law():
    assert ScalarValue.E(1) * ScalarValue.E(1, -1) == num(1)
    assert (I * KAPPA_INV) * (I * KAPPA_INV) == num(-1) * ScalarValue.kappa(-2)


def test_conj_examples():
    assert (I * KAPPA_INV).conj() == num(0, -1) * KAPPA_INV
    assert num(3, 2).conj() == num(3, -2)
    assert (I * ScalarValue.k(1, 1) * ScalarValue.E(1)).conj() == (
        num(0, -1) * ScalarValue.k(1, 1) * ScalarValue.E(1)
    )


def test_kappa_expand_examples():
    assert ScalarValue.E(1).kappa_expand(0) == num(1)
    assert ScalarValue.E(1).kappa_expand(1) == num(1) + ScalarValue.k(1, 0) * KAPPA_INV
    half = num(Fraction(1, 2))
    sh = half * ScalarValue.E(1) - half * ScalarValue.E(1, -1)
    assert sh.kappa_expand(1) == ScalarValue.k(1, 0) * KAPPA_INV


def test_inverse():
    g = num(2) * ScalarValue.kappa(3) * ScalarValue.E(2, -1)
    assert g * g.inverse() == num(1)
    with pytest.raises(ValueError):
        (num(1) + ScalarValue.kappa(1)).inverse()
    with pytest.raises(ValueError):
        ScalarValue.k(1, 1).inverse()


def test_k_symbol_exponent_restrictions():
    with pytest.raises(ValueError):
        ScalarValue.k(1, 1, -1)
    with pytest.raises(ValueError):
        ScalarValue.k(1, 5)


def test_render_canonical_example():
    value = (num(Fraction(3, 2), 1) * ScalarValue.kappa(-2)
             * ScalarValue.k(1, 0, 2) * ScalarValue.E(1, -1))
    assert value.render() == "(3/2 + 1i) * kappa^-2 * k[1,0]^2 * E[1]^-1"


def test_gaussian_rational_reciprocal():
    g = GaussianRational(Fraction(3), Fraction(-2))
    r = g.reciprocal()
    assert (g * r) == GaussianRational(1)


# -- oracle: GaussianRational against a plain pair of Fractions ----------------

PARTS = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60))
PAIRS = st.tuples(PARTS, PARTS)


def pair_text(re, im):
    """The grammar text of re + im*i, written out for the pair."""
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    return f"({re} {'+' if im > 0 else '-'} {abs(im)}i)"


def assert_matches(g, pair):
    """`g` is canonical, holds the pair's value and renders as the pair."""
    re, im = pair
    assert g.d > 0
    assert gcd(g.a, g.b, g.d) == 1
    assert (g.a, g.b) == (re * g.d, im * g.d)
    assert (g.re, g.im) == (re, im)
    assert g.render() == pair_text(re, im)


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS)
def test_gaussian_rational_matches_fraction_pairs(p, q):
    (pr, pi), (qr, qi) = p, q
    x, y = GaussianRational(pr, pi), GaussianRational(qr, qi)
    assert_matches(x, p)
    assert_matches(x + y, (pr + qr, pi + qi))
    assert_matches(x - y, (pr - qr, pi - qi))
    assert_matches(x * y, (pr * qr - pi * qi, pr * qi + pi * qr))
    assert_matches(-x, (-pr, -pi))
    assert_matches(x.conj(), (pr, -pi))
    norm = pr * pr + pi * pi
    if norm:
        assert_matches(x.reciprocal(), (pr / norm, -pi / norm))
    else:
        with pytest.raises(ZeroDivisionError):
            x.reciprocal()
    assert (x == y) == (p == q)
    assert x.is_zero() == (p == (0, 0))


@settings(max_examples=200, deadline=None)
@given(PAIRS, PAIRS)
def test_equal_gaussian_rationals_hash_equal(p, q):
    x, y = GaussianRational(*p), GaussianRational(*q)
    same = (x + y) - y
    assert same == x
    assert hash(same) == hash(x)
    assert (x * y) - (y * x) == GaussianRational()
    assert hash((x - x)) == hash(GaussianRational())
