"""The kappa-Minkowski coordinate algebra in normal-ordered form.

Elements are finite sums

    c * (x^1)^a1 (x^2)^a2 (x^3)^a3 * (x^0)^d * W

where W = exp(i q.x_spatial) * exp(i K x^0) is an ordered plane wave
(spatial factor to the left), q is a triple of scalar entries and K an
integer combination of the base time symbols k[j,0].  Normal order is
canonical: spatial coordinates (mutually commuting), then x^0 powers,
then the plane wave.  The commutation rules

    x^0 x^m           = x^m (x^0 + i/kappa)
    x^0 exp(i q.x)    = exp(i q.x) (x^0 - (1/kappa) q.x)
    exp(i K x^0) x^m  = E_K^-1 x^m exp(i K x^0)
    exp(i K x^0) exp(i q.x) = exp(i E_K^-1 q.x) exp(i K x^0)

with E_K the Laurent monomial in the E symbols representing exp(K/kappa),
compose into one closed normal form for a product of two monomials:

    x^a x0^d W  x^b x0^t V
        = E_K^-|b| x^(a+b) (x0 + i|b|/kappa)^d (x0 + q.x/kappa)^t (W V)

for W with momentum (q, K).  The waves multiply by the group law of the
bicrossproduct (Majid and Ruegg, Phys. Lett. B 334 (1994) 348)

    (S_q T_K)(S_v T_L) = S_(q + E_K^-1 v) T_(K+L),

S_q = exp(i q.x) and T_K = exp(i K x^0); a wave is interned, one instance
per value.  No infinite series ever appears.

As a `terms.HopfAlgebra` the algebra states only data: that normal form
(`mono_mul`), the generators x^1, x^2, x^3, x^0 (each primitive, with
antipode -x^mu), the letter `x`, and a wave's `inverse`, `star` and
`render` as its label hooks; the term-map core builds the rest.  The
normal form and its parts `binomial_shift` and `_drift` are memoised by
`terms.normal_form`, and the star of each wave by `terms.memo`.
"""

from __future__ import annotations

from math import comb

from .scalars import I, ONE, ZERO, ScalarValue
from .terms import HopfAlgebra, TensorSquare, TermMap, memo, normal_form

_KAPPA_INV = ScalarValue.kappa(-1)
IMK = I * _KAPPA_INV  # i/kappa, the structure constant of the algebra

_ZSPATIAL = (ZERO, ZERO, ZERO)
_AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# Every plane wave built so far, keyed by its normalised (spatial, time).
_WAVES = {}


class PlaneWave:
    """Ordered exponential exp(i q.x_spatial) exp(i K x^0).

    `spatial` is a triple of ScalarValue entries (products of k and E
    symbols appear after rescaling); `time` is a sorted tuple of
    (label, integer) pairs denoting K = sum n_j * k[j,0].  Construction
    returns the one instance for each value, so waves compare and hash by
    identity.
    """

    __slots__ = ("spatial", "time")

    def __new__(cls, spatial=_ZSPATIAL, time=()):
        counts = {}
        for j, n in time:
            counts[j] = counts.get(j, 0) + n
        key = (tuple(spatial), tuple(sorted((j, n) for j, n in counts.items() if n)))
        wave = _WAVES.get(key)
        if wave is None:
            wave = _WAVES[key] = object.__new__(cls)
            wave.spatial, wave.time = key
        return wave

    @staticmethod
    def label(j):
        """The standard symbolic wave W[j] with momentum (k[j,0], k[j,1..3])."""
        return PlaneWave(
            (ScalarValue.k(j, 1), ScalarValue.k(j, 2), ScalarValue.k(j, 3)), ((j, 1),)
        )

    def is_identity(self):
        return self is W_IDENTITY

    def time_scalar(self):
        """K as a ScalarValue, sum of n_j * k[j,0]."""
        acc = ZERO
        for j, n in self.time:
            acc = acc + ScalarValue.number(n) * ScalarValue.k(j, 0)
        return acc

    def e_power(self, p):
        """The Laurent monomial for exp(p*K/kappa) = prod E[j]^(p*n_j)."""
        acc = ONE
        for j, n in self.time:
            acc = acc * ScalarValue.E(j, p * n)
        return acc

    def __mul__(self, other):
        """The group law (S_q T_K)(S_v T_L) = S_(q + E_K^-1 v) T_(K+L)."""
        if other is W_IDENTITY:
            return self
        if self is W_IDENTITY:
            return other
        ek_inv = self.e_power(-1)
        return PlaneWave(tuple(q + ek_inv * v for q, v in zip(self.spatial, other.spatial)),
                         self.time + other.time)

    def inverse(self):
        """W^-1 = W(-E_K q, -K); equals star(W) for real momenta."""
        ek = self.e_power(1)
        return PlaneWave(
            tuple(-(ek * s) if s else s for s in self.spatial),
            tuple((j, -n) for j, n in self.time),
        )

    @memo
    def star(self):
        """W(q, K)* = W(q*, K)^-1, with E and k symbols real; formed once
        per wave (waves are interned, so the memo keys them by identity)."""
        return PlaneWave(tuple(s.conj() for s in self.spatial), self.time).inverse()

    def render(self):
        if self.is_identity():
            return "1"
        parts = []
        for j, n in self.time:
            t = f"k[{j},0]" if n == 1 else f"{n}*k[{j},0]"
            parts.append(t)
        time_text = " + ".join(parts) if parts else "0"
        sp = "; ".join(s.render() for s in self.spatial)
        return "W{" + sp + "; " + time_text + "}"

    def __repr__(self):
        return f"<PlaneWave {self.render()}>"


W_IDENTITY = PlaneWave()
KEY_UNIT = ((0, 0, 0), 0, W_IDENTITY)


@normal_form
def binomial_shift(n, t):
    """The coefficients of (x^0 + s)^t = sum_r C(t, r) s^(t-r) x0^r for the
    shift s = n i/kappa, as {r: coefficient} with zeros dropped, each power
    of s one product after the last: the one binomial expansion of the
    engine."""
    out, power, shift = [], ONE, ScalarValue.number(n) * IMK
    for r in range(t, -1, -1):
        if power:
            out.append((r, ScalarValue.number(comb(t, r)) * power))
        if r:
            power = power * shift
    return dict(reversed(out))


@normal_form
def _drift(q, t):
    """(x^0 + q.x/kappa)^t, the image of x0^t carried left past exp(i q.x):
    a wave-free polynomial.  Its products go through `dot`, not `*`, so the
    traced `PositionElement.__mul__` counts only products asked for from
    outside the normal form."""
    base = PositionElement({((0, 0, 0), 1, W_IDENTITY): ONE, **{
        (axis, 0, W_IDENTITY): s * _KAPPA_INV for axis, s in zip(_AXES, q) if s}})
    acc = base
    for _ in range(t - 1):
        acc = dot(((acc, base),))
    return acc.terms


@normal_form
def _mono_mul(key1, key2):
    """Normal form of the monomial `key1` times the monomial `key2`: the
    closed form of the module docstring."""
    (a, d, w), (b, t, v) = key1, key2
    nb = b[0] + b[1] + b[2]
    poly = {((0, 0, 0), r, W_IDENTITY): c for r, c in binomial_shift(nb, d)}
    if t and any(w.spatial):
        drift = PositionElement(dict(_drift(w.spatial, t)))
        poly = dot(((PositionElement(poly), drift),)).terms
    elif t:
        poly = {(e, r + t, W_IDENTITY): c for (e, r, _w), c in poly.items()}
    scale = w.e_power(-nb) if nb and w.time else ONE
    ab, wv = (a[0] + b[0], a[1] + b[1], a[2] + b[2]), w * v
    return {((ab[0] + e[0], ab[1] + e[1], ab[2] + e[2]), r, wv): c if scale is ONE else c * scale
            for (e, r, _w), c in poly.items()}


class PositionElement(HopfAlgebra):
    """Normal-ordered element of the kappa-Minkowski algebra."""

    __slots__ = ()

    UNIT = KEY_UNIT
    LETTER = "x"
    LABEL_INVERSE = staticmethod(PlaneWave.inverse)
    LABEL_STAR = staticmethod(PlaneWave.star)
    LABEL_TEXT = staticmethod(PlaneWave.render)

    mono_mul = staticmethod(_mono_mul)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def x(mu):
        if mu == 0:
            return PositionElement({((0, 0, 0), 1, W_IDENTITY): ONE})
        if 1 <= mu <= 3:
            return PositionElement({(_AXES[mu - 1], 0, W_IDENTITY): ONE})
        raise ValueError(f"coordinate index {mu} out of range 0..3")

    @staticmethod
    def wave(w):
        return PositionElement({((0, 0, 0), 0, w): ONE})

    # -- algebra -------------------------------------------------------------

    # The core's product, defined on this class because benchmarks/traced.py
    # times the position product under the name `PositionElement.__mul__`.
    def __mul__(self, other):
        return TermMap.__mul__(self, other)

    # -- inspection ----------------------------------------------------------

    def has_waves(self):
        return any(not w.is_identity() for (_a, _d, w) in self.terms)

    def _render_order(self):
        return sorted(self.terms, key=_render_key)


def _render_key(key):
    """Sort key of a monomial: coordinate exponents, then the plane wave."""
    a, d, w = key
    return a, d, w.time, w.render()


class PositionTensor(TensorSquare):
    """Element of the tensor square with componentwise product."""

    __slots__ = ()

    ELEMENT = PositionElement
    UNIT = (KEY_UNIT, KEY_UNIT)

    def _render_order(self):
        return sorted(self.terms, key=lambda lr: (_render_key(lr[0]), _render_key(lr[1])))


PositionElement.TENSOR = PositionTensor
dot = PositionElement.dot
# x^1, x^2, x^3 and x^0: all primitive, with S(x^mu) = -x^mu.
PositionElement.GENERATORS = tuple(PositionElement.x(mu) for mu in (1, 2, 3, 0))
PositionElement.GENERATOR_IMAGES = tuple(map(PositionTensor.primitive,
                                             PositionElement.GENERATORS))
PositionElement.GENERATOR_ANTIPODES = tuple(-x for x in PositionElement.GENERATORS)
