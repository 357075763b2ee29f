"""Ring axioms and expansion rules for the exact coefficient ring."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from kmink.scalars import LIMIT, GaussianRational, ScalarValue, add_product, from_sum


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


# -- oracle: packed monomial keys against a plain tuple model ------------------
#
# The model holds a scalar as {(kappa_exp, ks, es): Fraction}, with ks the
# sorted ((j, mu), e) pairs of its k symbols and es the sorted (j, e) pairs of
# its E symbols, and does the arithmetic on those tuples.  Any exponent
# outside [-LIMIT, LIMIT) must make the engine raise ValueError.

def near_limit(lo):
    """Small exponents from `lo`, plus ones at the edges of the range."""
    edges = st.integers(LIMIT - 2, LIMIT - 1)
    if lo < 0:
        edges = edges | st.integers(-LIMIT, -LIMIT + 1)
    return st.integers(lo, 3) | edges


LAURENT = near_limit(-3)
MODEL_MONOMIALS = st.tuples(
    st.sampled_from([1, -1, 2, Fraction(-3, 2)]),
    LAURENT,
    st.dictionaries(st.tuples(st.integers(1, 4), st.integers(0, 3)),
                    near_limit(1), max_size=2),
    st.dictionaries(st.integers(1, 4), LAURENT.filter(bool), max_size=2),
)
MODEL_POLYS = st.lists(MODEL_MONOMIALS, min_size=1, max_size=3)


def in_range(*exps):
    return all(-LIMIT <= e < LIMIT for e in exps)


def model_key(kap, ks, es):
    return (kap, tuple(sorted((v, e) for v, e in ks.items() if e)),
            tuple(sorted((j, e) for j, e in es.items() if e)))


def model_add(poly, key, c):
    c = poly.get(key, 0) + c
    if c:
        poly[key] = c
    else:
        poly.pop(key, None)


def model_of(monos):
    poly = {}
    for c, kap, ks, es in monos:
        model_add(poly, model_key(kap, ks, es), Fraction(c))
    return poly


def engine_of(monos):
    acc = ScalarValue()
    for c, kap, ks, es in monos:
        term = num(c) * ScalarValue.kappa(kap)
        for (j, mu), e in ks.items():
            term = term * ScalarValue.k(j, mu, e)
        for j, e in es.items():
            term = term * ScalarValue.E(j, e)
        acc = acc + term
    return acc


def model_mul(p, q):
    """The product, or None when an exponent leaves the range."""
    out = {}
    for (kap1, ks1, es1), c1 in p.items():
        for (kap2, ks2, es2), c2 in q.items():
            ks, es = dict(ks1), dict(es1)
            for v, e in ks2:
                ks[v] = ks.get(v, 0) + e
            for j, e in es2:
                es[j] = es.get(j, 0) + e
            if not in_range(kap1 + kap2, *ks.values(), *es.values()):
                return None
            model_add(out, model_key(kap1 + kap2, ks, es), c1 * c2)
    return out


def model_render(poly):
    if not poly:
        return "0"
    parts = []
    for kap, ks, es in sorted(poly):
        c = poly[kap, ks, es]
        factors = [("kappa" if kap == 1 else f"kappa^{kap}")] if kap else []
        factors += [f"k[{j},{mu}]" + (f"^{e}" if e != 1 else "") for (j, mu), e in ks]
        factors += [f"E[{j}]" + (f"^{e}" if e != 1 else "") for j, e in es]
        if not factors:
            parts.append(str(c))
        else:
            parts.append(" * ".join(factors if c == 1 else [str(c)] + factors))
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


@settings(max_examples=120, deadline=None)
@given(MODEL_POLYS, MODEL_POLYS)
def test_packed_product_and_render_match_tuple_model(a, b):
    x, y = engine_of(a), engine_of(b)
    assert x.render() == model_render(model_of(a))
    want = model_mul(model_of(a), model_of(b))
    if want is None:
        with pytest.raises(ValueError):
            x * y
    else:
        assert (x * y).render() == model_render(want)


@settings(max_examples=120, deadline=None)
@given(MODEL_MONOMIALS)
def test_packed_inverse_matches_tuple_model(mono):
    c, kap, ks, es = mono
    x = engine_of([mono])
    if ks or not in_range(-kap, *(-e for e in es.values())):
        with pytest.raises(ValueError):
            x.inverse()
        return
    inv = model_of([(1 / Fraction(c), -kap, {}, {j: -e for j, e in es.items()})])
    assert x.inverse().render() == model_render(inv)
    assert x * x.inverse() == num(1)


def model_kappa_expand(poly, order):
    """The expansion, or None when an exponent leaves the range."""
    out = {}
    for (kap, ks, es), c in poly.items():
        pieces = [(kap, dict(ks), c)]
        for j, p in es:
            pieces = [(kap1 - n, {**ks1, (j, 0): ks1.get((j, 0), 0) + n},
                       c1 * Fraction(p ** n, factorial(n)))
                      for kap1, ks1, c1 in pieces for n in range(order + 1)]
        for kap1, ks1, c1 in pieces:
            if not in_range(kap1, *ks1.values()):
                return None
            if kap1 >= -order:
                model_add(out, model_key(kap1, ks1, {}), c1)
    return out


@settings(max_examples=80, deadline=None)
@given(MODEL_POLYS, st.integers(0, 2))
def test_packed_kappa_expand_matches_tuple_model(monos, order):
    x = engine_of(monos)
    want = model_kappa_expand(model_of(monos), order)
    if want is None:
        with pytest.raises(ValueError):
            x.kappa_expand(order)
    else:
        assert x.kappa_expand(order).render() == model_render(want)


@settings(max_examples=80, deadline=None)
@given(MODEL_POLYS, st.integers(0, 4))
def test_packed_filter_k_degree_matches_tuple_model(monos, degree):
    want = {key: c for key, c in model_of(monos).items()
            if sum(e for _, e in key[1]) <= degree}
    assert engine_of(monos).filter_k_degree(degree).render() == model_render(want)


def test_exponent_limit_examples():
    assert LIMIT == 2 ** 30
    half = LIMIT // 2
    assert ScalarValue.kappa(-LIMIT).render() == f"kappa^{-LIMIT}"
    assert ScalarValue.E(4, LIMIT - 1).render() == f"E[4]^{LIMIT - 1}"
    for make in (lambda: ScalarValue.kappa(LIMIT), lambda: ScalarValue.E(1, -LIMIT - 1),
                 lambda: ScalarValue.k(2, 3, LIMIT), lambda: ScalarValue.kappa(-LIMIT).inverse(),
                 lambda: ScalarValue.kappa(LIMIT - 1) * ScalarValue.kappa(1),
                 lambda: ScalarValue.E(3, -LIMIT) * ScalarValue.E(3, -1),
                 lambda: ScalarValue.k(1, 0, LIMIT - 1) * ScalarValue.k(1, 0),
                 # powers scale every field at once; none may carry into the next
                 lambda: ScalarValue.kappa(half) ** 2,
                 lambda: ScalarValue.kappa(half) ** 4,
                 lambda: ScalarValue.E(2, -half) ** 3,
                 lambda: (ScalarValue.kappa(-1) * ScalarValue.k(1, 0, half)) ** 2,
                 lambda: (num(1, 1) * ScalarValue.kappa(half) + num(1)) ** 4):
        with pytest.raises(ValueError, match="out of range"):
            make()
    edge = ScalarValue.kappa(LIMIT - 1) * ScalarValue.kappa(-LIMIT)
    assert edge == ScalarValue.kappa(-1)
    assert ScalarValue.E(2, -half) ** 2 == ScalarValue.E(2, -LIMIT)
    assert (num(1, 1) * ScalarValue.kappa(-1)) ** 4 == num(-4) * ScalarValue.kappa(-4)


# -- oracle: the fused accumulator against naive GaussianRational sums ---------
#
# `add_product` keeps unreduced integer triples and `from_sum` reduces each
# once; the oracle forms every product and partial sum with the (reduced)
# GaussianRational operations.  Keys come from a small pool so that products
# collide, and denominators up to 60 make the accumulated denominators differ.

POOL_KEYS = [next(iter((ScalarValue.kappa(e) * ScalarValue.k(1, 0, f)).terms))
             for e in (-1, 0, 1) for f in (0, 1)]
NUMERATORS = st.integers(-6, 6)
DENOMINATORS = st.integers(1, 60)
COEFFS = st.one_of(
    st.builds(lambda n, d: GaussianRational(Fraction(n, d)), NUMERATORS, DENOMINATORS),
    st.builds(lambda n, d: GaussianRational(0, Fraction(n, d)), NUMERATORS, DENOMINATORS),
    st.builds(lambda n, m, d, e: GaussianRational(Fraction(n, d), Fraction(m, e)),
              NUMERATORS, NUMERATORS, DENOMINATORS, DENOMINATORS),
).filter(lambda c: not c.is_zero())
TERM_DICTS = st.dictionaries(st.sampled_from(POOL_KEYS), COEFFS, max_size=4)


def naive_sum(pairs):
    out = {}
    for t1, t2 in pairs:
        for k1, c1 in t1.items():
            for k2, c2 in t2.items():
                key = k1 + k2
                out[key] = out[key] + c1 * c2 if key in out else c1 * c2
    return {key: c for key, c in out.items() if not c.is_zero()}


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(TERM_DICTS, TERM_DICTS), min_size=1, max_size=4), st.booleans())
def test_fused_accumulator_matches_naive_sums(pairs, cancel):
    if cancel:  # the first product again, negated: its keys must cancel
        t1, t2 = pairs[0]
        pairs.append(({k: -c for k, c in t1.items()}, t2))
    acc = {}
    for t1, t2 in pairs:
        assert add_product(acc, t1, t2) is acc
    got = from_sum(acc).terms
    assert list(got.items()) == list(naive_sum(pairs).items())
    for c in got.values():
        assert c.d > 0 and gcd(c.a, c.b, c.d) == 1 and not c.is_zero()


# -- powers: square-and-multiply ---------------------------------------------

def repeated(x, n):
    acc = num(1)
    for _ in range(n):
        acc = acc * x
    return acc


@settings(max_examples=60, deadline=None)
@given(rand_scalars(), st.integers(0, 7))
def test_power_matches_repeated_multiplication(a, n):
    assert a ** n == repeated(a, n)
    for key, c in a.terms.items():
        mono = ScalarValue({key: c})
        assert mono ** n == repeated(mono, n)


@settings(max_examples=120, deadline=None)
@given(MODEL_MONOMIALS, st.integers(0, 5))
def test_monomial_power_matches_tuple_model(mono, n):
    c, kap, ks, es = mono
    x = engine_of([mono])
    if not in_range(kap * n, *(e * n for e in ks.values()), *(e * n for e in es.values())):
        with pytest.raises(ValueError, match="out of range"):
            x ** n
        return
    want = model_of([(Fraction(c) ** n, kap * n, {v: e * n for v, e in ks.items()},
                      {j: e * n for j, e in es.items()})])
    assert (x ** n).render() == model_render(want)

