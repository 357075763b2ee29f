"""Exact coefficient ring shared by every algebra in the engine.

A scalar is a finite sum of monomials

    (a + b i) * kappa^n * k[j,mu]^e * ... * E[j]^p * ...

with exact rational a, b.  kappa is the deformation mass scale and may
carry any integer exponent (Laurent).  k[j,mu] (mu = 0..3) is the formal
mu-th momentum component attached to plane-wave label j; its exponent is
never negative.  E[j] abbreviates exp(k[j,0]/kappa) but is kept as an
independent Laurent generator so the ring stays decidable; the
transcendental identification is invoked only by `kappa_expand`.

Values are immutable and hashable; all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm


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


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)

# Monomial key: (kappa_exp, ks, es) with ks a sorted tuple of
# ((label, mu), exp>0) and es a sorted tuple of (label, exp != 0).
KEY_ONE = (0, (), ())


def _merge_exponents(base, extra):
    """Add two sorted (name, exp) tuples, dropping zero exponents."""
    if not extra:
        return base
    if not base:
        return extra
    if len(base) == 1 and len(extra) == 1:
        (n1, e1), = base
        (n2, e2), = extra
        if n1 == n2:
            e = e1 + e2
            return ((n1, e),) if e else ()
        return base + extra if n1 < n2 else extra + base
    acc = dict(base)
    for name, e in extra:
        v = acc.get(name, 0) + e
        if v:
            acc[name] = v
        else:
            del acc[name]
    return tuple(sorted(acc.items()))


def _mul_keys(x, y):
    if y == KEY_ONE:
        return x
    if x == KEY_ONE:
        return y
    return (x[0] + y[0], _merge_exponents(x[1], y[1]), _merge_exponents(x[2], y[2]))


class ScalarValue:
    """Canonical finite sum of coefficient monomials.

    `terms` maps monomial keys to nonzero GaussianRational coefficients;
    the empty map is the canonical zero.  Never mutate a ScalarValue.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._hash = None

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
        return ScalarValue({(n, (), ()): GR_ONE})

    @staticmethod
    def k(label, mu, exp=1):
        if not 0 <= mu <= 3:
            raise ValueError(f"momentum component index {mu} out of range 0..3")
        if exp < 0:
            raise ValueError("k symbols only carry nonnegative exponents")
        if exp == 0:
            return ONE
        return ScalarValue({(0, (((label, mu), exp),), ()): GR_ONE})

    @staticmethod
    def E(label, exp=1):
        if exp == 0:
            return ONE
        return ScalarValue({(0, (), ((label, exp),)): GR_ONE})

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, ScalarValue):
            return x
        if isinstance(x, GaussianRational):
            return ScalarValue.from_gaussian(x)
        if isinstance(x, (int, Fraction)):
            return ScalarValue.number(x)
        return NotImplemented

    def __add__(self, other):
        other = ScalarValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key, GR_ZERO) + c
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v
        return ScalarValue(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = ScalarValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return ScalarValue._coerce(other) - self

    def __neg__(self):
        return ScalarValue({k: -c for k, c in self.terms.items()})

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
                {_mul_keys(k1, k2): c1 * c2 for k1, c1 in self.terms.items()}
            )
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _mul_keys(k1, k2)
                v = out.get(key, GR_ZERO) + c1 * c2
                if v.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = v
        return ScalarValue(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        acc = ONE
        for _ in range(n):
            acc = acc * self
        return acc

    def conj(self):
        """i -> -i on coefficients; kappa, k and E symbols denote reals."""
        return ScalarValue({k: c.conj() for k, c in self.terms.items()})

    def inverse(self):
        """Reciprocal of a single monomial with no k symbols."""
        if len(self.terms) != 1:
            raise ValueError("only monomial scalars are invertible")
        (kap, ks, es), c = next(iter(self.terms.items()))
        if ks:
            raise ValueError("k symbols are not invertible (nonnegative exponents)")
        key = (-kap, (), tuple(sorted((j, -e) for j, e in es)))
        return ScalarValue({key: c.reciprocal()})

    # -- expansion and inspection ------------------------------------------

    def kappa_expand(self, order):
        """Replace each E[j]^p by the order-`order` series of exp(p*k[j,0]/kappa)
        and drop every monomial with kappa exponent below -order."""
        if order < 0:
            raise ValueError("expansion order must be nonnegative")
        out = {}
        for (kap, ks, es), coeff in self.terms.items():
            pieces = [((kap, ks), coeff)]
            for j, p in es:
                grown = []
                for (kap1, ks1), c1 in pieces:
                    for n in range(order + 1):
                        key = (kap1 - n, _merge_exponents(ks1, (((j, 0), n),)) if n else ks1)
                        fac = GaussianRational(Fraction(p ** n, factorial(n)))
                        grown.append((key, c1 * fac))
                pieces = grown
            for (kap1, ks1), c1 in pieces:
                if kap1 < -order:
                    continue
                key = (kap1, ks1, ())
                v = out.get(key, GR_ZERO) + c1
                if v.is_zero():
                    out.pop(key, None)
                else:
                    out[key] = v
        return ScalarValue(out)

    def filter_k_degree(self, max_degree):
        """Keep only monomials whose total k-symbol degree is <= max_degree."""
        return ScalarValue(
            {k: c for k, c in self.terms.items() if sum(e for _, e in k[1]) <= max_degree}
        )

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        other = ScalarValue._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- rendering ----------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for (kap, ks, es) in sorted(self.terms):
            coeff = self.terms[(kap, ks, es)]
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

    def __repr__(self):
        return f"<ScalarValue {self.render()}>"


ZERO = ScalarValue()
ONE = ScalarValue.number(1)
I = ScalarValue.number(0, 1)
HALF = ScalarValue.number(Fraction(1, 2))


def binomial(n, r):
    return ScalarValue.number(comb(n, r))
