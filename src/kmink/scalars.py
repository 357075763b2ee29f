"""Exact coefficient ring shared by every algebra in the engine.

A scalar is a finite sum of monomials

    (a + b i) * kappa^n * k[j,mu]^e * ... * E[j]^p * ...

with exact rational a, b.  kappa is the deformation mass scale and may
carry any integer exponent (Laurent).  k[j,mu] (mu = 0..3) is the formal
mu-th momentum component attached to plane-wave label j; its exponent is
never negative.  E[j] abbreviates exp(k[j,0]/kappa) but is kept as an
independent Laurent generator so the ring stays decidable; the
transcendental identification is invoked only by `kappa_expand`.

A monomial is stored under one packed int key: each symbol's exponent
sits in its own 32-bit field, so a monomial product is one integer add.
kappa owns the lowest field; each k[j,mu] and E[j] takes the next field
the first time it is used.  Every exponent must lie in [-2^30, 2^30):
building or multiplying past that raises ValueError, never a wrong key.
`decode` turns a key back into (kappa_exp, k exponents, E exponents);
`render` orders monomials by that tuple.

A ScalarValue is a `terms.TermMap` over these keys with GaussianRational
coefficients; it keeps its own product, powers, constructors and render.
Values are immutable and hashable; all operations are pure.  Sums of
many products are accumulated in place instead, fraction-free: an
accumulator is a mutable {key: [a, b, d]} dict of unreduced Gaussian
rationals (a + b i)/d, `add_product` multiplies and adds on those
integers, and `from_sum` reduces each entry once and freezes the dict
into a ScalarValue at the end.  This is the single-denominator integer
representation of FLINT's fmpq_poly.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import factorial, gcd, lcm

from .terms import TermMap, accumulate, share


class GaussianRational:
    """Complex number (a + b*i)/d with integer a, b and d.

    The triple is kept canonical: d > 0, gcd(a, b, d) == 1, and zero is
    (0, 0, 1), so equality and hashing compare the integers directly.  The
    rational parts are read through the `re` and `im` properties.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        # Both parts are in lowest terms, so over their least common
        # denominator the triple is already canonical.
        d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * (d // re.denominator)
        self.b = im.numerator * (d // im.denominator)
        self.d = d

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gaussian(self.a + other.a, self.b + other.b, d1)
        return _gaussian(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    def __sub__(self, other):
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _gaussian(self.a - other.a, self.b - other.b, d1)
        return _gaussian(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __mul__(self, other):
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        # purely real / purely imaginary fast paths dominate in practice
        if not b1:
            return _gaussian(a1 * a2, a1 * b2, self.d * other.d)
        if not a1:
            return _gaussian(-b1 * b2, b1 * a2, self.d * other.d)
        return _gaussian(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    def __neg__(self):
        return _gaussian(-self.a, -self.b, self.d)

    def conj(self):
        return _gaussian(self.a, -self.b, self.d)

    def reciprocal(self):
        a, b = self.a, self.b
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero GaussianRational")
        return _gaussian(self.d * a, -self.d * b, n)

    def is_zero(self):
        return not self.a and not self.b

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def render(self):
        """Grammar form: `3/2`, `-1i`, `(3/2 + 1i)`, `(3/2 - 1i)`."""
        if not self.b:
            return str(self.re)
        if not self.a:
            return f"{self.im}i"
        sign = "+" if self.b > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}i)"


_new = object.__new__


def _gaussian(a, b, d):
    """(a + b*i)/d for d > 0, reduced to the canonical triple."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussianRational)
    z.a = a
    z.b = b
    z.d = d
    return z


GR_ONE = GaussianRational(1)

# -- packed monomial keys ------------------------------------------------------
#
# A monomial key is one int, sum(e_v << (WIDTH * slot(v))), with each
# symbol's signed exponent e_v in a WIDTH-bit field.  kappa owns slot 0;
# each k[j,mu] and E[j] takes the next slot the first time it is used, so
# only kappa's slot exists at import.  Every exponent lies in [-LIMIT, LIMIT):
# constructors check it directly, and products and inverses through the
# guard.  Adding _BIAS (LIMIT in every slot) turns each field into
# e_v + LIMIT in [0, 2 * LIMIT), so no field borrows from the next and slot i
# reads as ((key + _BIAS) >> WIDTH * i & MASK) - LIMIT.
#
# Guard: a monomial product is the sum of two in-range keys, so each of its
# fields lies in [-2 * LIMIT, 2 * LIMIT).  After the bias an out-of-range
# field reads in [2 * LIMIT, 3 * LIMIT), or is negative and borrows 2^WIDTH
# from the field above, reading in [3 * LIMIT, 4 * LIMIT).  Either way it sets
# its field's top bit, which _GUARD collects: a negative top field shows the
# bit in two's complement too, so no separate sign test is needed.  A
# guarded key raises ValueError rather than alias another monomial.

WIDTH = 32
LIMIT = 1 << (WIDTH - 2)
MASK = (1 << WIDTH) - 1
KEY_ONE = 0
KAPPA_UNIT = 1  # the key of kappa^1: slot 0

_UNITS = {}  # ("k", (j, mu)) or ("E", j) -> the key of that symbol^1
_K_FIELDS = []  # ((j, mu), shift) in symbol order
_E_FIELDS = []  # (j, shift) in symbol order
_BIAS = LIMIT
_GUARD = 1 << (WIDTH - 1)


def _overflow():
    raise ValueError(f"exponent out of range: exponents must lie in [-{LIMIT}, {LIMIT})")


def _unit(kind, var):
    """The key of k[var] (kind "k", var = (j, mu)) or E[var] (kind "E"),
    taking the next slot the first time the symbol is used."""
    unit = _UNITS.get((kind, var))
    if unit is None:
        global _BIAS, _GUARD
        shift = WIDTH * (len(_UNITS) + 1)
        unit = _UNITS[(kind, var)] = 1 << shift
        insort(_K_FIELDS if kind == "k" else _E_FIELDS, (var, shift))
        _BIAS |= LIMIT << shift
        _GUARD |= 1 << (shift + WIDTH - 1)
    return unit


def _power_key(unit, e):
    """The key of a symbol to the power e, given the key of its first power."""
    if not -LIMIT <= e < LIMIT:
        _overflow()
    return unit * e


def _checked(key):
    """`key` if every field lies in range; see the layout comment."""
    if (key + _BIAS) & _GUARD:
        _overflow()
    return key


def add_product(acc, t1, t2):
    """Add the product of the term dicts `t1` and `t2` into the accumulator
    `acc` in place and return it.

    An accumulator is a mutable {key: [a, b, d]} dict whose entries are
    unreduced Gaussian rationals (a + b*i)/d with d > 0: each coefficient
    product is multiplied out on the integers and added over the common
    denominator (over lcm(d, d') when the two differ), and nothing is
    reduced until `from_sum`, which pays one gcd per key.  Keys enter in
    the order of their first product.  Every product key passes the
    guard; sums that vanish stay in `acc` until `from_sum`."""
    bias, guard = _BIAS, _GUARD
    get = acc.get
    for k1, c1 in t1.items():
        a1, b1, d1 = c1.a, c1.b, c1.d
        for k2, c2 in t2.items():
            key = k1 + k2
            if (key + bias) & guard:
                _overflow()
            # the fast paths of GaussianRational.__mul__, unreduced
            a2, b2 = c2.a, c2.b
            if not b1:
                a, b = a1 * a2, a1 * b2
            elif not a1:
                a, b = -b1 * b2, b1 * a2
            else:
                a, b = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2
            d = d1 * c2.d
            v = get(key)
            if v is None:
                acc[key] = [a, b, d]
            elif v[2] == d:
                v[0] += a
                v[1] += b
            else:
                dv = v[2]
                m = lcm(dv, d)
                sv, s = m // dv, m // d
                v[0] = v[0] * sv + a * s
                v[1] = v[1] * sv + b * s
                v[2] = m
    return acc


def from_sum(acc):
    """The ScalarValue of an `add_product` accumulator: each surviving
    [a, b, d] reduced once to its canonical GaussianRational, zero sums
    dropped, keys in accumulator order."""
    return ScalarValue({k: _gaussian(a, b, d) for k, (a, b, d) in acc.items() if a or b})


def decode(key):
    """The key as (kappa_exp, ks, es): ks the sorted ((j, mu), e) pairs of
    its k symbols and es the sorted (j, e) pairs of its E symbols, each with
    a nonzero exponent.  Sorting by this tuple is the rendering order."""
    t = key + _BIAS
    ks = tuple((v, e) for v, sh in _K_FIELDS if (e := (t >> sh & MASK) - LIMIT))
    es = tuple((v, e) for v, sh in _E_FIELDS if (e := (t >> sh & MASK) - LIMIT))
    return (t & MASK) - LIMIT, ks, es


class ScalarValue(TermMap):
    """Canonical finite sum of coefficient monomials.

    `terms` maps monomial keys to nonzero GaussianRational coefficients;
    the empty map is the canonical zero.  Never mutate a ScalarValue.
    """

    __slots__ = ()

    # -- constructors ------------------------------------------------------

    @staticmethod
    def number(re=0, im=0):
        g = GaussianRational(re, im)
        return ScalarValue({} if g.is_zero() else {KEY_ONE: g})

    @staticmethod
    def from_gaussian(g):
        return ScalarValue({} if g.is_zero() else {KEY_ONE: g})

    @staticmethod
    def kappa(n=1):
        return ScalarValue({_power_key(KAPPA_UNIT, n): GR_ONE})

    @staticmethod
    def k(label, mu, exp=1):
        if not 0 <= mu <= 3:
            raise ValueError(f"momentum component index {mu} out of range 0..3")
        if exp < 0:
            raise ValueError("k symbols only carry nonnegative exponents")
        if exp == 0:
            return ONE
        return ScalarValue({_power_key(_unit("k", (label, mu)), exp): GR_ONE})

    @staticmethod
    def E(label, exp=1):
        if exp == 0:
            return ONE
        return ScalarValue({_power_key(_unit("E", label), exp): GR_ONE})

    @classmethod
    def scalar(cls, s):
        """`s` as a ScalarValue: a scalar is its own embedding."""
        out = cls._coerce(s)
        if out is NotImplemented:
            raise TypeError(f"{type(s).__name__} is not a scalar")
        return out

    # -- ring operations ---------------------------------------------------

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, ScalarValue):
            return x
        if isinstance(x, GaussianRational):
            return cls.from_gaussian(x)
        if isinstance(x, (int, Fraction)):
            return cls.number(x)
        return NotImplemented

    def __add__(self, other):
        if other.__class__ is not ScalarValue:
            other = ScalarValue._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return ScalarValue(out)

    __radd__ = __add__

    def scale(self, s):
        """`self * s`: the core's coefficient-wise scale would multiply a
        GaussianRational by a ScalarValue."""
        return self * s

    def __mul__(self, other):
        if other.__class__ is not ScalarValue:
            other = ScalarValue._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if len(other.terms) == 1:
            (k2, c2), = other.terms.items()
            if k2 == KEY_ONE and c2 == GR_ONE:
                return self
            return ScalarValue(
                {_checked(k1 + k2): c1 * c2 for k1, c1 in self.terms.items()}
            )
        return from_sum(add_product({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        # square-and-multiply: each square x^(2^j) has 2^j <= n, so it stays
        # in range whenever the result does
        acc, x = ONE, self
        while n:
            if n & 1:
                acc = acc * x
            n >>= 1
            if n:
                x = x * x
        return acc

    def conj(self):
        """i -> -i on coefficients; kappa, k and E symbols denote reals."""
        return ScalarValue({k: c.conj() for k, c in self.terms.items()})

    def inverse(self):
        """Reciprocal of a single monomial with no k symbols."""
        if len(self.terms) != 1:
            raise ValueError("only monomial scalars are invertible")
        (key, c), = self.terms.items()
        t = key + _BIAS
        if any(t >> shift & MASK != LIMIT for _, shift in _K_FIELDS):
            raise ValueError("k symbols are not invertible (nonnegative exponents)")
        return ScalarValue({_checked(-key): c.reciprocal()})

    # -- expansion and inspection ------------------------------------------

    def kappa_expand(self, order):
        """Replace each E[j]^p by the order-`order` series of exp(p*k[j,0]/kappa)
        and drop every monomial with kappa exponent below -order."""
        if order < 0:
            raise ValueError("expansion order must be nonnegative")
        # Per label j: E[j]'s field shift and the key of k[j,0] / kappa.
        steps = [(shift, _unit("k", (j, 0)) - KAPPA_UNIT) for j, shift in _E_FIELDS]
        bias = _BIAS
        out = {}
        for key, coeff in self.terms.items():
            t = key + bias
            pieces = [(key, coeff)]
            for shift, step in steps:
                p = (t >> shift & MASK) - LIMIT
                if not p:
                    continue
                facs = [GaussianRational(Fraction(p ** n, factorial(n)))
                        for n in range(order + 1)]
                grown = []
                for key1, c1 in pieces:
                    key1 -= p << shift  # drop E[j]^p
                    for n, fac in enumerate(facs):
                        grown.append((_checked(key1 + n * step), c1 * fac))
                pieces = grown
            for key1, c1 in pieces:
                if ((key1 + bias) & MASK) - LIMIT >= -order:
                    accumulate(out, key1, c1)
        return ScalarValue(out)

    def filter_k_degree(self, max_degree):
        """Keep only monomials whose total k-symbol degree is <= max_degree."""
        bias = _BIAS
        shifts = [shift for _, shift in _K_FIELDS]
        return ScalarValue(
            {key: c for key, c in self.terms.items()
             if sum(((key + bias) >> shift & MASK) - LIMIT for shift in shifts) <= max_degree}
        )

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (kap, ks, es), key in sorted((decode(key), key) for key in self.terms):
            coeff = self.terms[key]
            factors = []
            if kap:
                factors.append("kappa" if kap == 1 else f"kappa^{kap}")
            for (j, mu), e in ks:
                factors.append(f"k[{j},{mu}]" if e == 1 else f"k[{j},{mu}]^{e}")
            for j, e in es:
                factors.append(f"E[{j}]" if e == 1 else f"E[{j}]^{e}")
            if not factors:
                parts.append(coeff.render())
            elif coeff == GR_ONE:
                parts.append(" * ".join(factors))
            else:
                parts.append(" * ".join([coeff.render()] + factors))
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-") and not p.startswith("-("):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text


ZERO = ScalarValue()
ONE = share(ScalarValue.number(1))  # so a shared unit coefficient `is ONE`
I = ScalarValue.number(0, 1)
HALF = ScalarValue.number(Fraction(1, 2))
