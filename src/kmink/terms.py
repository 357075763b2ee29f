"""Sparse term maps: the one container behind every algebra element.

Each element of the construction is a finite sum `sum c * monomial`.  A
term map stores it as a dict from a hashable monomial key to a nonzero
coefficient; the empty dict is the canonical zero, so equality is dict
equality.  Coefficients are ring values with `+`, `-`, `*` and
`is_zero()`: ScalarValues for the algebras, PositionElements for
forms.  Values are immutable; never mutate `terms` after
construction.

A subclass supplies its key layout (the `UNIT` key and how one monomial
renders and orders), its monomial product `mono_mul` (one key times
another, as (key, coefficient) pairs), its own `__mul__` and its
structure maps; the coefficient ring `scalars.ScalarValue` is such a
subclass too, with GaussianRational coefficients.  The core owns
`contract`, the in-place sum of many coefficient-times-image products
(sparse accumulation, Monagan and Pearce 2010): one fraction-free
`scalars.add_product` accumulator per output key, each coefficient
reduced once when the sum is frozen.  It also owns the legwise product
of every `TensorSquare`.

An `IndexedMap` is the same container over plain index keys (a row, a
`(row, col)` pair, a name) whose coefficients are algebra elements or
term maps: one-forms, spinors, 4x4 operators and families of residuals.
"""

from __future__ import annotations

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


def contract(images):
    """Sum of c * image over (c, image) pairs, as a {key: ScalarValue} dict:
    c is a scalar term dict and image a tuple of (key, ScalarValue) pairs
    (a normal form or an action).  Each output key has one in-place
    `scalars.add_product` accumulator of unreduced integer triples; the
    ScalarValues are reduced and built once at the end, zeros dropped."""
    add_product, from_sum = scalars.add_product, scalars.from_sum
    out = {}
    for c, image in images:
        for key, ci in image:
            acc = out.get(key)
            if acc is None:
                acc = out[key] = {}
            add_product(acc, c, ci.terms)
    return {key: s for key, acc in out.items() if (s := from_sum(acc)).terms}


class TermMap:
    """Finite linear combination of monomial keys; see the module docstring."""

    __slots__ = ("terms", "_hash")

    # Key of the multiplicative unit; None for maps with no scalar embedding.
    UNIT = None

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
        return NotImplemented

    def __pow__(self, n):
        if n < 0:
            raise ValueError(f"{type(self).__name__} only takes nonnegative powers")
        acc = self.one()
        for _ in range(n):
            acc = acc * self
        return acc

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
    pairs of A's monomial keys."""

    __slots__ = ()

    ELEMENT = None

    @classmethod
    def outer(cls, a, b):
        out = {}
        for k1, c1 in a.terms.items():
            for k2, c2 in b.terms.items():
                accumulate(out, (k1, k2), c1 * c2)
        return cls(out)

    def __mul__(self, other):
        """(a (x) b)(c (x) d) = ac (x) bd, each leg through `ELEMENT.mono_mul`."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        mono_mul = self.ELEMENT.mono_mul
        out = {}
        for (l1, r1), c1 in self.terms.items():
            for (l2, r2), c2 in other.terms.items():
                c, right = c1 * c2, mono_mul(r1, r2)
                for kl, cl in mono_mul(l1, l2):
                    ccl = c * cl
                    for kr, cr in right:
                        accumulate(out, (kl, kr), ccl * cr)
        return self.__class__(out)

    def multiply_legs(self, fn_left):
        """m o (fn_left (x) id): transform left legs, then multiply out."""
        elem, one = self.ELEMENT, scalars.ONE
        acc = elem()
        for (l, r), c in self.terms.items():
            acc = acc + (fn_left(elem({l: one})) * elem({r: one})).scale(c)
        return acc

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
