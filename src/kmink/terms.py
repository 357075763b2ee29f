"""Sparse term maps: the one container behind every algebra element.

Each element of the construction is a finite sum `sum c * monomial`.  A
term map stores it as a dict from a hashable monomial key to a nonzero
coefficient; the empty dict is the canonical zero, so equality is dict
equality.  Coefficients are ring values with `+`, `-`, `*` and
`is_zero()`: ScalarValues for the algebras, PositionElements for
forms.  Values are immutable; never mutate `terms` after
construction.

An algebra states only its monomial rules: `UNIT`, the key of its unit;
`mono_mul(key1, key2)`, the normal form of one monomial times another as
(key, ScalarValue) pairs; for a Hopf algebra, `TENSOR` (its
`TensorSquare` class) and `GENERATOR_IMAGES`, the coproducts of its
three spatial generators and its time generator; and `_factors(key)`,
how one monomial renders.  A Hopf algebra's monomial key is (spatial
exponents, time exponent, group-like label), normal ordered in that
order (x^a x0^d W, or P^b P_0^d exp(lam P_0/kappa)), so its coproduct
is the product of its generator images' powers and of g (x) g for its
group-like factor g.  The core owns all that is built from them: the
product, the sum of products `dot`, powers, and the coproduct, the
algebra map fixed by the generator images.  A `TensorSquare` multiplies
legwise through its element's
`mono_mul`.  Sums accumulate in place (sparse accumulation, Monagan and
Pearce 2010): `contract` keeps one fraction-free `scalars.add_product`
accumulator per output key and reduces each coefficient once at the end.
The coefficient ring `scalars.ScalarValue` is a term map too, with
GaussianRational coefficients and its own product.

An `IndexedMap` is the same container over plain index keys (a row, a
`(row, col)` pair, a name) whose coefficients are algebra elements or
term maps: one-forms, spinors, 4x4 operators and families of residuals.
It has no product.
"""

from __future__ import annotations

from functools import lru_cache

from . import scalars  # read at call time: scalars imports this module


# Every value `share` has returned, keyed by (type, value); never evicted.
_SHARED = {}


def share(x):
    """The first value equal to `x` (and of its type) passed here, stored if
    new: the caches of normal forms keep each distinct immutable key and
    coefficient once, however many entries hold it."""
    return _SHARED.setdefault((type(x), x), x)


def accumulate(out, key, coeff):
    """Add `coeff` to `out[key]` in place, dropping the key when the sum
    vanishes; the single accumulate step of every term map."""
    v = out.get(key)
    v = coeff if v is None else v + coeff
    if v.is_zero():
        out.pop(key, None)
    else:
        out[key] = v


def contract(images, out=None):
    """Sum of c * image over (c, image) pairs, as a {key: ScalarValue} dict:
    c is a scalar term dict and image a tuple of (key, ScalarValue) pairs
    (a normal form or an action).  Each output key has one in-place
    `scalars.add_product` accumulator of unreduced integer triples, taken
    from `out` where it already holds one; the ScalarValues are reduced and
    built once at the end, zeros dropped."""
    add_product, from_sum = scalars.add_product, scalars.from_sum
    out = {} if out is None else out
    for c, image in images:
        for key, ci in image:
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            add_product(acc, c, ci.terms)
    return {key: s for key, acc in out.items() if (s := from_sum(acc)).terms}


@lru_cache(maxsize=100000)
def _coproduct_image(cls, key):
    """The coproduct of one monomial (x^a x0^d g) of the algebra `cls`, as
    shared (key, ScalarValue) pairs: the product, in normal order, of the
    powers of the generator images `cls.GENERATOR_IMAGES`, then g (x) g for
    a group-like g other than the unit's."""
    spatial, d, g = key
    factors = [gen ** e for gen, e in zip(cls.GENERATOR_IMAGES, (*spatial, d)) if e]
    if g != cls.UNIT[2]:
        g = (cls.UNIT[0], cls.UNIT[1], g)
        factors.append(cls.TENSOR({(g, g): scalars.ONE}))
    image = factors[0] if factors else cls.TENSOR.one()
    for factor in factors[1:]:
        image = image * factor
    return tuple((share(k), share(c)) for k, c in image.terms.items())


class TermMap:
    """Finite linear combination of monomial keys; see the module docstring."""

    __slots__ = ("terms", "_hash")

    # Key of the multiplicative unit; None for maps with no scalar embedding.
    UNIT = None
    # (key1, key2) -> normal form of the product; None for maps with no product.
    mono_mul = None

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def scalar(cls, s):
        if cls.UNIT is None:
            raise TypeError(f"{cls.__name__} has no unit to carry a scalar")
        s = scalars.ScalarValue.scalar(s)
        return cls({} if s.is_zero() else {cls.UNIT: s})

    @classmethod
    def one(cls):
        return cls.scalar(scalars.ONE)

    @classmethod
    def _coerce(cls, x):
        """`x` as an element of `cls`, or NotImplemented."""
        if isinstance(x, cls):
            return x
        if cls.UNIT is not None and isinstance(x, (int, scalars.ScalarValue)):
            return cls.scalar(x)
        return NotImplemented

    # -- linear structure ----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self.__class__(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return self.__class__({k: -c for k, c in self.terms.items()})

    def scale(self, s):
        """Multiply every coefficient by the scalar `s`."""
        s = scalars.ScalarValue._coerce(s)
        if s.is_zero():
            return self.__class__()
        out = {}
        for key, c in self.terms.items():
            accumulate(out, key, c * s)
        return self.__class__(out)

    def __rmul__(self, other):
        if isinstance(other, (int, scalars.ScalarValue)):
            return self.scale(other)
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other * self

    # -- the algebra, from `mono_mul` -------------------------------------------

    @classmethod
    def dot(cls, pairs):
        """sum x * y over an iterable of (x, y) pairs of `cls` elements.
        Each distinct monomial pair is normal-ordered once and feeds one
        accumulator: the output one if its normal form is one monomial with
        a unit coefficient (every momentum product), else its own, which is
        contracted with that normal form at the end (if it does not cancel)."""
        add_product, from_sum, one = scalars.add_product, scalars.from_sum, scalars.ONE
        mono_mul = cls.mono_mul
        out, feeds, rest = {}, {}, []
        for x, y in pairs:
            for key1, c1 in x.terms.items():
                t1 = c1.terms
                for key2, c2 in y.terms.items():
                    acc = feeds.get((key1, key2))
                    if acc is None:
                        image = mono_mul(key1, key2)
                        if len(image) == 1 and image[0][1] is one:
                            acc = out.get(image[0][0])
                            if acc is None:
                                acc = out[image[0][0]] = {}
                        else:
                            acc = {}
                            rest.append((acc, image))
                        feeds[key1, key2] = acc
                    add_product(acc, t1, c2.terms)
        return cls(contract(((c, image) for acc, image in rest
                             if (c := from_sum(acc).terms)), out))

    def __mul__(self, other):
        if other.__class__ is not self.__class__:
            if isinstance(other, (int, scalars.ScalarValue)):
                return self.scale(other)
            other = self._coerce(other)
        if other is NotImplemented or self.mono_mul is None:
            return NotImplemented
        return self.dot(((self, other),))

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"{type(self).__name__} only takes nonnegative powers")
        acc = self if n else self.one()
        for _ in range(n - 1):
            acc = acc * self
        return acc

    def coproduct(self):
        """The algebra map fixed by the generator images: each monomial is
        the ordered product of its generator powers, so its image is the
        product of their images' powers (memoised per monomial)."""
        cls = type(self)
        return self.TENSOR(contract((c.terms, _coproduct_image(cls, key))
                                    for key, c in self.terms.items()))

    def map_coeffs(self, fn):
        """Apply `fn` to every coefficient, dropping those that vanish."""
        out = {}
        for key, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[key] = v
        return self.__class__(out)

    # -- comparison ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms.items()))
        return self._hash

    # -- rendering -------------------------------------------------------------

    def render(self):
        if not self.terms:
            return "0"
        return " + ".join(self._render_term(key, self.terms[key])
                          for key in self._render_order())

    def _render_order(self):
        return sorted(self.terms)

    def _render_term(self, key, c):
        """`c * f1 * f2 ...` over the monomial's factors: a unit coefficient
        is dropped and a coefficient that is a sum is parenthesized."""
        ctext = c.render()
        if "+" in ctext or " - " in ctext:
            ctext = f"({ctext})"
        factors = self._factors(key)
        if not factors:
            return ctext
        mono = " * ".join(factors)
        return mono if c == scalars.ONE else f"{ctext} * {mono}"

    def _factors(self, key):
        """Rendered factors of one monomial, empty for the unit."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.render()}>"


class TensorSquare(TermMap):
    """Element of A (x) A for a term-map algebra A = `ELEMENT`, keyed by
    pairs of A's monomial keys; a subclass sets `UNIT` to the pair of A's
    unit keys."""

    __slots__ = ()

    ELEMENT = None

    @classmethod
    def outer(cls, a, b):
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                accumulate(out, (k1, k2), c1 * c2)
        return cls(out)

    @classmethod
    def primitive(cls, x):
        """x (x) 1 + 1 (x) x, the coproduct of a primitive generator."""
        one = cls.ELEMENT.one()
        return cls.outer(x, one) + cls.outer(one, x)

    @classmethod
    def mono_mul(cls, key1, key2):
        """(l1 (x) r1)(l2 (x) r2) = l1 l2 (x) r1 r2, each leg through
        `ELEMENT.mono_mul`; a unit left-leg coefficient is not multiplied."""
        (l1, r1), (l2, r2) = key1, key2
        mono_mul, one = cls.ELEMENT.mono_mul, scalars.ONE
        right = mono_mul(r1, r2)
        return tuple(((kl, kr), cr if cl is one else cl * cr)
                     for kl, cl in mono_mul(l1, l2) for kr, cr in right)

    def multiply_legs(self, fn_left):
        """m o (fn_left (x) id): transform left legs, then multiply out."""
        elem, one = self.ELEMENT, scalars.ONE
        return elem.dot((fn_left(elem({l: one})), elem({r: c}))
                        for (l, r), c in self.terms.items())

    def _render_term(self, key, c):
        l, r = key
        lt = self.ELEMENT({l: scalars.ONE}).render()
        rt = self.ELEMENT({r: scalars.ONE}).render()
        return f"({c.render()}) * ({lt}) (x) ({rt})"


class IndexedMap(TermMap):
    """Family of nonzero algebra elements or term maps indexed by sortable
    keys, rendered `key: value; ...`."""

    __slots__ = ()

    @classmethod
    def collect(cls, items):
        """The sum of `(key, coeff)` pairs; zero coefficients drop out."""
        out = {}
        for key, c in items:
            accumulate(out, key, c)
        return cls(out)

    def left_mul(self, b):
        """Multiply every entry by `b` from the left."""
        return self.map_coeffs(lambda c: b * c)

    def render(self):
        if not self.terms:
            return "0"
        return "; ".join(f"{key}: {self.terms[key].render()}"
                         for key in self._render_order())
