"""Laws of the memoised normal forms, on values drawn with general
Gaussian-rational coefficients, three wave labels and `W{...}` waves whose
spatial entries carry E symbols."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from kmink import momentum as mom
from kmink.action import (
    HeisenbergElement,
    _act_monomial,
    _axis,
    _pass_momentum,
    act,
    word,
)
from kmink.minkowski import (
    PlaneWave,
    PositionElement,
    W_IDENTITY,
    _drift,
    _mono_mul,
    binomial_shift,
    dot,
)
from kmink.momentum import MomentumElement
from kmink.scalars import I, LIMIT, ONE, ScalarValue
from kmink.terms import _coproduct_image, accumulate, contract, share

LABELS = (1, 2, 3)

F = mom.f_matrix()
PROBES = ([MomentumElement.P(mu) for mu in range(4)] + list(mom.derivatives())
          + [F[0][0], F[0][4], F[4][0], F[1][0], F[4][4]])


@st.composite
def gaussians(draw):
    """A nonzero (a + b i)/d with small integers a, b and d."""
    a, b = draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9))
                .filter(lambda ab: ab != (0, 0)))
    d = draw(st.integers(1, 12))
    return ScalarValue.number(Fraction(a, d), Fraction(b, d))


@st.composite
def spatial_entries(draw):
    """0, or c * E[j]^p * k[l,m]: a momentum entry after rescaling."""
    if draw(st.booleans()):
        return ScalarValue.number(0)
    c = draw(gaussians())
    p = draw(st.integers(-2, 2))
    return (c * ScalarValue.E(draw(st.sampled_from(LABELS)), p)
            * ScalarValue.k(draw(st.sampled_from(LABELS)), draw(st.integers(1, 3))))


@st.composite
def waves(draw):
    kind = draw(st.sampled_from(("none", "label", "general")))
    if kind == "none":
        return W_IDENTITY
    if kind == "label":
        return PlaneWave.label(draw(st.sampled_from(LABELS)))
    spatial = tuple(draw(spatial_entries()) for _ in range(3))
    time = [(j, draw(st.integers(-2, 2))) for j in LABELS if draw(st.booleans())]
    return PlaneWave(spatial, time)


@st.composite
def position_keys(draw, max_degree=2):
    a = draw(st.sampled_from([t for t in product(range(max_degree + 1), repeat=3)
                              if sum(t) <= max_degree]))
    d = draw(st.integers(0, max_degree - sum(a)))
    return (a, d, draw(waves()))


@st.composite
def positions(draw, max_terms=2):
    acc = PositionElement.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        a, d, w = draw(position_keys())
        acc = acc + PositionElement.monomial(a, d, w, draw(gaussians()))
    return acc


@st.composite
def scalars(draw):
    """c1 kappa^n, or c1 kappa^n + c2 E[j]^p: coefficients with one or two
    monomials, so that products of coefficients have several terms."""
    acc = draw(gaussians()) * ScalarValue.kappa(draw(st.integers(-2, 2)))
    if draw(st.booleans()):
        e = ScalarValue.E(draw(st.sampled_from(LABELS)), draw(st.integers(-1, 1)))
        acc = acc + draw(gaussians()) * e
    return acc


@st.composite
def rich_positions(draw, max_terms=2):
    """Like `positions`, with `scalars` coefficients."""
    acc = PositionElement.zero()
    for _ in range(draw(st.integers(1, max_terms))):
        a, d, w = draw(position_keys())
        acc = acc + PositionElement.monomial(a, d, w, draw(scalars()))
    return acc


@st.composite
def momentum_keys(draw):
    b = draw(st.tuples(*[st.integers(0, 1)] * 3))
    return (b, draw(st.integers(0, 1)), draw(st.integers(-1, 1)))


@st.composite
def deep_momentum_keys(draw):
    """Keys with powers up to P_m^2, P_0^3 and Exp[+-2], so that steps
    compose."""
    b = draw(st.tuples(*[st.integers(0, 2)] * 3))
    return (b, draw(st.integers(0, 3)), draw(st.integers(-2, 2)))


@st.composite
def heisenbergs(draw):
    p = MomentumElement({draw(momentum_keys()): draw(gaussians())})
    return HeisenbergElement.coerce(draw(positions(max_terms=1))) * p


@settings(max_examples=40, deadline=None)
@given(positions(), positions(), positions())
def test_position_product_is_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25, deadline=None)
@given(heisenbergs(), heisenbergs(), heisenbergs())
def test_heisenberg_product_is_associative(h1, h2, h3):
    assert (h1 * h2) * h3 == h1 * (h2 * h3)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PROBES), positions(), positions())
def test_module_algebra_law(p, a, b):
    """act(p, a b) = sum act(p(1), a) act(p(2), b) over p's coproduct."""
    rhs = PositionElement.zero()
    for (kl, kr), c in p.coproduct().terms.items():
        left = act(MomentumElement({kl: ScalarValue.number(1)}), a)
        right = act(MomentumElement({kr: ScalarValue.number(1)}), b)
        rhs = rhs + (left * right).scale(c)
    assert act(p, a * b) == rhs


# -- the closed form against the rewrite rules, one factor at a time ------------

IMK = ScalarValue.number(0, 1) * ScalarValue.kappa(-1)


def _lmul_x0(terms):
    """x^0 x^a = x^a (x^0 + i|a|/kappa); x^0 meets no wave."""
    out = {}
    for (a, d, w), c in terms.items():
        accumulate(out, (a, d + 1, w), c)
        if sum(a):
            accumulate(out, (a, d, w), c * ScalarValue.number(sum(a)) * IMK)
    return out


def _lmul_xm(m, terms):
    return {(tuple(n + (i == m) for i, n in enumerate(a)), d, w): c
            for (a, d, w), c in terms.items()}


def _lmul_time_exp(time, terms):
    """exp(i K x^0) x^m = E_K^-1 x^m exp(i K x^0) and
    exp(i K x^0) exp(i v.x) = exp(i E_K^-1 v.x) exp(i K x^0)."""
    e_inv = ScalarValue.number(1)
    for j, n in time:
        e_inv = e_inv * ScalarValue.E(j, -n)
    out = {}
    for (a, d, w), c in terms.items():
        for _ in range(sum(a)):
            c = c * e_inv
        merged = {}
        for j, n in time + w.time:
            merged[j] = merged.get(j, 0) + n
        wave = PlaneWave(tuple(e_inv * v for v in w.spatial),
                         tuple((j, n) for j, n in merged.items() if n))
        accumulate(out, (a, d, wave), c)
    return out


def _lmul_spatial_exp(q, terms):
    """exp(i q.x) commutes with x^m and carries each x^0 to its left as
    x^0 + q.x/kappa, by x^0 exp(i q.x) = exp(i q.x) (x^0 - q.x/kappa)."""
    qk = [s * ScalarValue.kappa(-1) for s in q]
    out = {}
    for (a, d, w), c in terms.items():
        cur = {((0, 0, 0), 0, PlaneWave(tuple(s + v for s, v in zip(q, w.spatial)),
                                        w.time)): c}
        for _ in range(d):
            nxt = _lmul_x0(cur)
            for m in range(3):
                for key, cc in _lmul_xm(m, cur).items():
                    accumulate(nxt, key, cc * qk[m])
            cur = nxt
        for (a2, d2, w2), cc in cur.items():
            accumulate(out, (tuple(x + y for x, y in zip(a, a2)), d2, w2), cc)
    return out


def reference_mono_mul(key1, key2):
    """x^a x0^d exp(i q.x) exp(i K x^0) times `key2`, multiplied onto it
    from the left one canonical factor at a time."""
    a, d, w = key1
    terms = _lmul_spatial_exp(w.spatial, _lmul_time_exp(w.time, {key2: ScalarValue.number(1)}))
    for _ in range(d):
        terms = _lmul_x0(terms)
    for m in range(3):
        for _ in range(a[m]):
            terms = _lmul_xm(m, terms)
    return PositionElement(terms)


@settings(max_examples=80, deadline=None)
@given(position_keys(max_degree=4), position_keys(max_degree=4))
def test_closed_form_matches_factor_by_factor_rewriting(k1, k2):
    assert PositionElement(_mono_mul.__wrapped__(k1, k2)) == reference_mono_mul(k1, k2)


@settings(max_examples=40, deadline=None)
@given(waves(), waves())
def test_plane_waves_are_interned_and_form_a_group(w, v):
    """Equal waves built separately are one object, and the group law has
    the inverse and the identity of a group."""
    again = PlaneWave(tuple(s + ScalarValue.number(0) for s in w.spatial), list(w.time))
    assert again is w
    assert PlaneWave.label(2) is PlaneWave.label(2)
    assert w * w.inverse() is W_IDENTITY
    assert w.inverse() * w is W_IDENTITY
    assert w * W_IDENTITY is w and W_IDENTITY * w is w
    assert (w * v).inverse() is v.inverse() * w.inverse()


@settings(max_examples=40, deadline=None)
@given(waves())
def test_a_wave_star_is_formed_once_and_is_an_involution(w):
    """W(q, K)* = W(q*, K)^-1, one instance per wave; the identity is its
    own star."""
    assert W_IDENTITY.star() is W_IDENTITY
    star = w.star()
    assert star is w.star()
    assert star is PlaneWave(tuple(s.conj() for s in w.spatial), w.time).inverse()
    assert star.star() is w


# Each memoised normal form with a strategy for its arguments.
MEMOS = (
    (_coproduct_image, st.one_of(st.tuples(st.just(PositionElement), position_keys()),
                                 st.tuples(st.just(MomentumElement), momentum_keys()))),
    (binomial_shift, st.tuples(st.integers(-3, 3), st.integers(0, 4))),
    (_drift, st.tuples(waves().map(lambda w: w.spatial), st.integers(1, 3))),
    (_mono_mul, st.tuples(position_keys(), position_keys())),
    (_axis, st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(0, 3), waves(),
                      st.booleans())),
    (_pass_momentum, st.tuples(deep_momentum_keys(), position_keys(), st.just(False))),
    (_pass_momentum, st.tuples(deep_momentum_keys(), position_keys(), st.just(True))),
    (_act_monomial, st.tuples(st.sampled_from(PROBES), position_keys())),
    (HeisenbergElement.mono_mul, st.tuples(st.tuples(position_keys(), momentum_keys()),
                                           st.tuples(position_keys(), momentum_keys()))),
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_memoised_forms_equal_a_recomputation(data):
    """Every memo, `_pass_momentum` with and without `vacuum`, hands out the
    pairs of its closed form recomputed, each key and coefficient the shared
    instance of its value."""
    for memo, arguments in MEMOS:
        args = data.draw(arguments)
        got = memo(*args)
        again = memo.__wrapped__(*args)
        assert got == tuple(again.items())
        for (key, coeff), (key2, coeff2) in zip(got, again.items()):
            assert share(key2) is key and share(coeff2) is coeff


# -- closed-form momentum passing against the one-generator step table ---------

_P0 = ((0, 0, 0), 1, 0)
_PM = (((1, 0, 0), 0, 0), ((0, 1, 0), 0, 0), ((0, 0, 1), 0, 0))


def _generators(momkey):
    """The generators of a momentum monomial in the order they pass a
    position monomial, each as a momentum key."""
    b, d, lam = momkey
    gens = [((0, 0, 0), 0, lam)] if lam else []
    gens += [_P0] * d
    for m in range(3):
        gens += [_PM[m]] * b[m]
    return gens


def reference_step(gen, poskey, vacuum=False):
    """One generator (Exp[l], P_0 or P_m, as a momentum key) past one
    position monomial, by the rules of the `action` docstring: (position
    key, remainder key, ScalarValue) triples, each remainder `gen` or the
    unit.  With `vacuum`, the pieces with a P remainder are left out."""
    b, d, lam = gen
    a, t, w = poskey
    pieces = []
    if lam:
        # x^a (x0 - i lam/kappa)^t E_K^lam W Exp[lam]
        ew = w.e_power(lam)
        for r, coeff in binomial_shift(-lam, t):
            pieces.append(((a, r, w), gen, coeff * ew))
    elif d:
        # x^a x0^t W (P_0 + K) - i t x^a x0^(t-1) W
        if not vacuum:
            pieces.append((poskey, gen, ONE))
        k0 = w.time_scalar()
        if not k0.is_zero():
            pieces.append((poskey, mom.KEY_UNIT, k0))
        if t:
            pieces.append(((a, t - 1, w), mom.KEY_UNIT, ScalarValue.number(-t) * I))
    else:
        # -i a_m x^(a-e_m) x0^t W + x^a (x0 + i/kappa)^t W (E_K^-1 P_m + q_m)
        m = b.index(1)
        if a[m]:
            na = list(a)
            na[m] -= 1
            pieces.append(((tuple(na), t, w), mom.KEY_UNIT, ScalarValue.number(-a[m]) * I))
        qm = w.spatial[m]
        if not (vacuum and qm.is_zero()):
            ew_inv = w.e_power(-1)
            for r, coeff in binomial_shift(1, t):
                if not vacuum:
                    pieces.append(((a, r, w), gen, coeff * ew_inv))
                if not qm.is_zero():
                    pieces.append(((a, r, w), mom.KEY_UNIT, coeff * qm))
    return pieces


def reference_pass_momentum(momkey, poskey):
    """momkey * poskey normal ordered one generator at a time, every
    remainder kept, as a HeisenbergElement."""
    terms = {(poskey, mom.KEY_UNIT): ONE}
    for gen in _generators(momkey):
        out = {}
        for (pos, rem), c in terms.items():
            for p2, r2, c2 in reference_step(gen, pos):
                accumulate(out, (p2, mom.key_mul(r2, rem)), c * c2)
        terms = out
    return HeisenbergElement(terms)


def reference_act_key(momkey, poskey):
    """momkey |> poskey with the generators acting in turn, each step giving
    only its pieces with no P remainder; an Exp remainder goes to 1."""
    terms = {poskey: ONE}
    for gen in _generators(momkey):
        out = {}
        for pos, c in terms.items():
            for p2, _rem, c2 in reference_step(gen, pos, True):
                accumulate(out, p2, c * c2)
        terms = out
    return PositionElement(terms)


@st.composite
def merged_position_keys(draw):
    """A position key whose wave is often a product of two waves, so its
    time part may carry several labels and its spatial part E symbols."""
    a, d, w = draw(position_keys(max_degree=4))
    return (a, d, w * draw(waves()) if draw(st.booleans()) else w)


@settings(max_examples=150, deadline=None)
@given(st.one_of(momentum_keys(), deep_momentum_keys()), merged_position_keys())
@example(((2, 0, 0), 0, 1), ((1, 0, 0), 3, PlaneWave.label(1)))
@example(((0, 1, 1), 2, -2), ((0, 2, 1), 1, PlaneWave.label(1) * PlaneWave.label(2)))
def test_closed_form_passing_matches_the_step_table(mk, k):
    """`_pass_momentum` with and without `vacuum`, each one closed
    expansion, equals the normal form built one generator at a time, and
    its `vacuum` expansion equals the vacuum projection of the full one."""
    full = HeisenbergElement(_pass_momentum.__wrapped__(mk, k, False))
    assert full == reference_pass_momentum(mk, k)
    acted = PositionElement(_pass_momentum.__wrapped__(mk, k, True))
    assert acted == reference_act_key(mk, k)
    assert acted == _vacuum(full)


def _vacuum(h):
    """The vacuum projection of a mixed word, written out: a term with any
    P power goes, an exponential weight goes to 1."""
    out = {}
    for (pk, (b, d, _lam)), c in h.terms.items():
        if b == (0, 0, 0) and d == 0:
            out[pk] = out[pk] + c if pk in out else c
    return PositionElement({k: c for k, c in out.items() if not c.is_zero()})


def _generator_factors(momkey):
    """The momentum monomial as a list of single generators."""
    b, d, lam = momkey
    gens = [MomentumElement.P(m + 1) for m in range(3) for _ in range(b[m])]
    gens += [MomentumElement.P(0)] * d
    return gens + ([MomentumElement.exp_weight(lam)] if lam else [])


@settings(max_examples=60, deadline=None)
@given(st.one_of(deep_momentum_keys(), st.sampled_from(PROBES)), position_keys(),
       gaussians())
@example(((0, 0, 0), 2, 1), ((0, 0, 0), 3, W_IDENTITY), ScalarValue.number(1))
def test_act_is_the_vacuum_projection_of_the_normal_form(p, k, c):
    """act(p, ·) on one monomial equals the vacuum projection of p * monomial,
    with the word formed at once and, for a momentum monomial, one generator
    factor at a time."""
    if not isinstance(p, MomentumElement):
        p = MomentumElement({p: c})
    mono = PositionElement({k: ScalarValue.number(1)})
    got = PositionElement(dict(_act_monomial(p, k)))
    assert got == _vacuum(HeisenbergElement.from_momentum(p)
                          * HeisenbergElement.from_position(mono))
    if len(p.terms) == 1:
        (momkey, cp), = p.terms.items()
        assert got == _vacuum(word(*_generator_factors(momkey), mono)).scale(cp)


@settings(max_examples=40, deadline=None)
@given(positions())
def test_share_returns_the_first_stored_equal_value(a):
    first = share(a)
    rebuilt = (a + a) - a  # equal to a, built afresh
    assert rebuilt is not first
    assert share(rebuilt) is first
    coeff = next(iter(a.terms.values()))
    copy = coeff + ScalarValue.number(0)
    assert share(copy) is share(coeff)
    assert share(1) is not share(ScalarValue.number(1))


# -- the contraction kernel ----------------------------------------------------


def reference_dot(pairs):
    """sum x * y written out: every term pair's normal form from `_mono_mul`,
    scaled with plain ScalarValue `*` and summed with `+`."""
    out = {}
    for x, y in pairs:
        for k1, c1 in x.terms.items():
            for k2, c2 in y.terms.items():
                for k3, c3 in _mono_mul(k1, k2):
                    term = c1 * c2 * c3
                    out[k3] = out[k3] + term if k3 in out else term
    return PositionElement({k: c for k, c in out.items() if not c.is_zero()})


pair_lists = st.lists(st.tuples(rich_positions(), rich_positions(max_terms=1)),
                      max_size=4)


@settings(max_examples=60, deadline=None)
@given(pair_lists)
def test_dot_equals_the_written_out_sum(pairs):
    got = dot(iter(pairs))
    want = reference_dot(pairs)
    assert got.terms == want.terms
    assert got.render() == want.render()


@settings(max_examples=30, deadline=None)
@given(pair_lists, rich_positions(), rich_positions())
def test_dot_cancels_a_pair_and_its_negation(pairs, x, y):
    """A pair plus its negation contributes nothing: no zero coefficient
    is left behind, alone or beside other pairs."""
    alone = dot([(x, y), (-x, y)])
    assert alone.terms == {} and alone.render() == "0"
    assert dot(pairs + [(x, y), (x.scale(-1), y)]).terms == reference_dot(pairs).terms


def test_dot_drops_terms_that_cancel_across_monomial_pairs():
    """x0 x1 - x1 x0 = (i/kappa) x1: the x1 x0 terms of two different
    monomial pairs cancel after normal ordering, and no zero is kept."""
    x0, x1 = PositionElement.x(0), PositionElement.x(1)
    got = dot([(x0, x1), (-x1, x0)])
    want = x1.scale(ScalarValue.number(0, 1) * ScalarValue.kappa(-1))
    assert got.terms == want.terms
    assert got.render() == want.render() == "1i * kappa^-1 * x1"


def test_dot_of_no_pairs_is_zero():
    assert dot([]).terms == {}
    assert dot(iter(())).render() == "0"


def test_products_past_the_exponent_limit_raise():
    """A kappa exponent past LIMIT raises through `dot`, `*` and `act`; the
    last exponent in range still multiplies."""
    top = PositionElement.scalar(ScalarValue.kappa(LIMIT - 1))
    kappa = PositionElement.scalar(ScalarValue.kappa(1))
    x0 = PositionElement.x(0)
    assert (top * kappa.scale(ScalarValue.kappa(-1))) == top
    with pytest.raises(ValueError):
        dot([(top, kappa)])
    with pytest.raises(ValueError):
        dot([(x0, x0), (top, kappa)])
    with pytest.raises(ValueError):
        top * kappa
    with pytest.raises(ValueError):
        x0.scale(ScalarValue.kappa(LIMIT - 1)) * (x0 + kappa)
    p = MomentumElement.P(0).scale(ScalarValue.kappa(1))
    with pytest.raises(ValueError):
        act(p, x0.scale(ScalarValue.kappa(LIMIT - 1)))


# -- the act shortcuts -----------------------------------------------------------


def _general_act(p, a):
    """act(p, a) through `_act_monomial` for every operator, trivial ones
    included."""
    return PositionElement(contract(
        (ca.terms, _act_monomial(p, poskey)) for poskey, ca in a.terms.items()))


@settings(max_examples=40, deadline=None)
@given(rich_positions())
def test_trivial_operators_skip_the_contraction(a):
    """The unit operator returns its operand itself and the zero operator
    gives zero; both agree with the general route.  A unit operator whose
    coefficient is an equal but unshared one (as a derived f^m_m is) takes
    the same shortcut."""
    unit, zero = MomentumElement.one(), MomentumElement()
    assert act(unit, a) is a
    assert act(unit, a) == _general_act(unit, a)
    assert act(zero, a).is_zero()
    assert act(zero, a) == _general_act(zero, a)
    fresh_one = ScalarValue.number(1)
    assert fresh_one is not ONE
    unshared = MomentumElement({mom.KEY_UNIT: fresh_one})
    assert act(unshared, a) is a
    assert act(unshared, a) == a
    assert act(unshared, a) == _general_act(unshared, a)
