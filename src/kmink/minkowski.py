"""The kappa-Minkowski coordinate algebra in normal-ordered form.

Elements are finite sums

    c * (x^1)^a1 (x^2)^a2 (x^3)^a3 * (x^0)^d * W

where W = exp(i q.x_spatial) * exp(i K x^0) is an ordered plane wave
(spatial factor to the left), q is a triple of scalar entries and K an
integer combination of the base time symbols k[j,0].  Normal order is
canonical: spatial coordinates (mutually commuting), then x^0 powers,
then the plane wave.  The product is driven by the closed rewrite rules

    x^0 x^m           = x^m (x^0 + i/kappa)
    x^0 exp(i q.x)    = exp(i q.x) (x^0 - (1/kappa) q.x)
    exp(i K x^0) x^m  = E_K^-1 x^m exp(i K x^0)
    exp(i K x^0) exp(i q.x) = exp(i E_K^-1 q.x) exp(i K x^0)

with E_K the Laurent monomial in the E symbols representing exp(K/kappa).
No infinite series ever appears.

`PositionElement.mono_mul` is the normal form of one monomial times
another.  `dot` sums many products sum x * y: it sums the coefficient
products per distinct monomial pair, expands each pair's normal form
once, and contracts the results in place (`terms.contract`).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .scalars import I, ONE, ZERO, ScalarValue, add_product, from_sum
from .terms import TensorSquare, TermMap, accumulate, contract, share

IMK = I * ScalarValue.kappa(-1)  # i/kappa, the structure constant of the algebra

_ZSPATIAL = (ZERO, ZERO, ZERO)


class PlaneWave:
    """Ordered exponential exp(i q.x_spatial) exp(i K x^0).

    `spatial` is a triple of ScalarValue entries (products of k and E
    symbols appear after rescaling); `time` is a sorted tuple of
    (label, integer) pairs denoting K = sum n_j * k[j,0].
    """

    __slots__ = ("spatial", "time", "_hash")

    def __init__(self, spatial=_ZSPATIAL, time=()):
        self.spatial = tuple(spatial)
        self.time = tuple(sorted((j, n) for j, n in time if n))
        self._hash = None

    @staticmethod
    def label(j):
        """The standard symbolic wave W[j] with momentum (k[j,0], k[j,1..3])."""
        return PlaneWave(
            (ScalarValue.k(j, 1), ScalarValue.k(j, 2), ScalarValue.k(j, 3)), ((j, 1),)
        )

    def is_identity(self):
        return not self.time and all(s.is_zero() for s in self.spatial)

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

    def inverse(self):
        """W^-1 = W(-E_K q, -K); equals star(W) for real momenta."""
        ek = self.e_power(1)
        return PlaneWave(
            tuple(-(ek * s) for s in self.spatial),
            tuple((j, -n) for j, n in self.time),
        )

    def star(self):
        ek = self.e_power(1)
        return PlaneWave(
            tuple(-(ek * s.conj()) for s in self.spatial),
            tuple((j, -n) for j, n in self.time),
        )

    def __eq__(self, other):
        return self.spatial == other.spatial and self.time == other.time

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.spatial, self.time))
        return self._hash

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


def _merge_time(t1, t2):
    acc = dict(t1)
    for j, n in t2:
        v = acc.get(j, 0) + n
        if v:
            acc[j] = v
        else:
            del acc[j]
    return tuple(sorted(acc.items()))


# -- left multiplication by single canonical factors -------------------------
# Each takes and returns a term dict {(a, d, W): ScalarValue}.


def _lmul_x0(terms):
    out = {}
    for (a, d, w), c in terms.items():
        accumulate(out, (a, d + 1, w), c)
        na = a[0] + a[1] + a[2]
        if na:
            accumulate(out, (a, d, w), c * ScalarValue.number(na) * IMK)
    return out


def _lmul_x0_power(n, terms):
    """Multiply from the left by (x^0)^n: x^0 x^a = x^a (x^0 + i|a|/kappa)
    and x^0 meets no wave, so each term expands binomially."""
    out = {}
    for (a, d, w), c in terms.items():
        na = a[0] + a[1] + a[2]
        if not na:
            accumulate(out, (a, d + n, w), c)
            continue
        shift = ScalarValue.number(na) * IMK
        for r in range(n, -1, -1):
            coeff = ScalarValue.number(comb(n, r)) * shift ** (n - r)
            accumulate(out, (a, d + r, w), c * coeff)
    return out


def _lmul_xm(m, terms):
    out = {}
    for (a, d, w), c in terms.items():
        na = list(a)
        na[m - 1] += 1
        accumulate(out, (tuple(na), d, w), c)
    return out


def _lmul_time_exp(time, terms):
    """Multiply from the left by exp(i K x^0), K given as a time tuple."""
    if not time:
        return dict(terms)
    probe = PlaneWave((ZERO, ZERO, ZERO), time)
    ek_inv = probe.e_power(-1)
    out = {}
    for (a, d, w), c in terms.items():
        na = a[0] + a[1] + a[2]
        coeff = c * probe.e_power(-na) if na else c
        spatial = tuple(ek_inv * s for s in w.spatial)
        accumulate(out, (a, d, PlaneWave(spatial, _merge_time(time, w.time))), coeff)
    return out


def _lmul_spatial_exp(q, terms):
    """Multiply from the left by exp(i q.x_spatial)."""
    if all(s.is_zero() for s in q):
        return dict(terms)
    out = {}
    qk = tuple(ScalarValue.kappa(-1) * s for s in q)
    for (a, d, w), c in terms.items():
        merged = PlaneWave(
            tuple(q[m] + w.spatial[m] for m in range(3)), w.time
        )
        cur = {((0, 0, 0), 0, merged): c}
        # (x^0 + (1/kappa) q.x)^d, applied one factor at a time
        for _ in range(d):
            nxt = _lmul_x0(cur)
            for m in (1, 2, 3):
                if qk[m - 1].is_zero():
                    continue
                for key, cc in _lmul_xm(m, cur).items():
                    accumulate(nxt, key, cc * qk[m - 1])
            cur = nxt
        for (a2, d2, w2), cc in cur.items():
            key = ((a[0] + a2[0], a[1] + a2[1], a[2] + a2[2]), d2, w2)
            accumulate(out, key, cc)
    return out


@lru_cache(maxsize=200000)
def _mono_mul(key1, key2):
    """Normal form of the monomial `key1` times the monomial `key2`, as a
    tuple of (key, ScalarValue) pairs with shared keys and coefficients."""
    a, d, w = key1
    cur = {key2: ONE}
    if w.time:
        cur = _lmul_time_exp(w.time, cur)
    if any(not s.is_zero() for s in w.spatial):
        cur = _lmul_spatial_exp(w.spatial, cur)
    if d:
        cur = _lmul_x0_power(d, cur)
    return tuple(
        (share(((a[0] + a2[0], a[1] + a2[1], a[2] + a2[2]), d2, w2)), share(c))
        for (a2, d2, w2), c in cur.items()
    )


def dot(pairs):
    """sum x * y over an iterable of (x, y) PositionElement pairs.

    The coefficient products are first summed per distinct monomial pair,
    so each pair's normal form is expanded once however many (x, y) share
    it; a pair whose products cancel is never expanded."""
    groups = {}
    for x, y in pairs:
        for key1, c1 in x.terms.items():
            for key2, c2 in y.terms.items():
                acc = groups.get((key1, key2))
                if acc is None:
                    acc = groups[key1, key2] = {}
                add_product(acc, c1.terms, c2.terms)
    return PositionElement(contract(
        (c, _mono_mul(key1, key2)) for (key1, key2), acc in groups.items()
        if (c := from_sum(acc).terms)
    ))


class PositionElement(TermMap):
    """Normal-ordered element of the kappa-Minkowski algebra."""

    __slots__ = ()

    UNIT = KEY_UNIT

    mono_mul = staticmethod(_mono_mul)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def x(mu):
        if mu == 0:
            return PositionElement({((0, 0, 0), 1, W_IDENTITY): ONE})
        if 1 <= mu <= 3:
            a = [0, 0, 0]
            a[mu - 1] = 1
            return PositionElement({(tuple(a), 0, W_IDENTITY): ONE})
        raise ValueError(f"coordinate index {mu} out of range 0..3")

    @staticmethod
    def wave(w):
        return PositionElement({((0, 0, 0), 0, w): ONE})

    @staticmethod
    def monomial(a, d, w, coeff=ONE):
        coeff = ScalarValue._coerce(coeff)
        if coeff.is_zero():
            return PositionElement()
        return PositionElement({(tuple(a), d, w): coeff})

    # -- algebra -------------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, PositionElement):
            return PositionElement(contract(
                ((c1 * c2).terms, _mono_mul(key1, key2))
                for key1, c1 in self.terms.items()
                for key2, c2 in other.terms.items()
            ))
        if isinstance(other, (int, ScalarValue)):
            return self.scale(other)
        return NotImplemented

    def _reverse_factors(self, image):
        """The antimultiplicative map sending each term c x^a x0^d W to
        c' W' x0^d x^a, with (W', c') = image(a, d, W, c): x^mu goes to
        itself, up to the sign that `image` puts in c'."""
        out = PositionElement()
        for (a, d, w), c in self.terms.items():
            w2, c2 = image(a, d, w, c)
            piece = PositionElement({((0, 0, 0), 0, w2): c2})
            if d:
                piece = piece * PositionElement({((0, 0, 0), d, W_IDENTITY): ONE})
            if a != (0, 0, 0):
                piece = piece * PositionElement({(a, 0, W_IDENTITY): ONE})
            out = out + piece
        return out

    def star(self):
        """Antilinear antihomomorphism fixing the generators x^mu."""
        return self._reverse_factors(lambda a, d, w, c: (w.star(), c.conj()))

    def antipode(self):
        """S(x^mu) = -x^mu extended antimultiplicatively; S(W) = W^-1."""
        return self._reverse_factors(lambda a, d, w, c: (
            w.inverse(), c * ScalarValue.number(-1 if (sum(a) + d) % 2 else 1)))

    def counit(self):
        """Coefficient of the identity monomial with trivial plane wave."""
        return self.terms.get(KEY_UNIT, ZERO)

    def coproduct(self):
        """Algebra map with primitive x^mu and group-like plane waves."""
        out = PositionTensor()
        for (a, d, w), c in self.terms.items():
            t = PositionTensor({(KEY_UNIT, KEY_UNIT): c})
            for m in (1, 2, 3):
                if a[m - 1]:
                    t = t * _primitive_power_tensor(PositionElement.x(m), a[m - 1])
            if d:
                t = t * _primitive_power_tensor(PositionElement.x(0), d)
            if not w.is_identity():
                key = ((0, 0, 0), 0, w)
                t = t * PositionTensor({(key, key): ONE})
            out = out + t
        return out

    # -- inspection ----------------------------------------------------------

    def has_waves(self):
        return any(not w.is_identity() for (_a, _d, w) in self.terms)

    def _render_order(self):
        return sorted(self.terms, key=_render_key)

    def _factors(self, key):
        a, d, w = key
        factors = []
        for m in (1, 2, 3):
            if a[m - 1] == 1:
                factors.append(f"x{m}")
            elif a[m - 1]:
                factors.append(f"x{m}^{a[m-1]}")
        if d == 1:
            factors.append("x0")
        elif d:
            factors.append(f"x0^{d}")
        if not w.is_identity():
            factors.append(w.render())
        return factors


def _render_key(key):
    """Sort key of a monomial: coordinate exponents, then the plane wave."""
    a, d, w = key
    return a, d, w.time, w.render()


def _primitive_power_tensor(gen, n):
    """(gen (x) 1 + 1 (x) gen)^n expanded binomially (the summands commute)."""
    key = next(iter(gen.terms))
    out = {}
    for r in range(n + 1):
        out[(_power_key(key, r), _power_key(key, n - r))] = ScalarValue.number(comb(n, r))
    return PositionTensor(out)


def _power_key(key, n):
    a, d, _w = key
    return ((a[0] * n, a[1] * n, a[2] * n), d * n, W_IDENTITY)


class PositionTensor(TensorSquare):
    """Element of the tensor square with componentwise product."""

    __slots__ = ()

    ELEMENT = PositionElement

    def left_counit(self):
        """(counit (x) id), landing back in the algebra."""
        out = {}
        for (l, r), c in self.terms.items():
            if l == KEY_UNIT:
                accumulate(out, r, c)
        return PositionElement(out)

    def _render_order(self):
        return sorted(self.terms, key=lambda lr: (_render_key(lr[0]), _render_key(lr[1])))
