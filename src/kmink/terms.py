"""Sparse term maps: the one container behind every algebra element.

Each element of the construction is a finite sum `sum c * monomial`.  A
term map stores it as a dict from a hashable monomial key to a nonzero
coefficient; the empty dict is the canonical zero, so equality is dict
equality.  Coefficients are ring values with `+`, `-`, `*` and
`is_zero()`: ScalarValues for the algebras, PositionElements for
forms.  Values are immutable; never mutate `terms` after
construction.

An algebra states only its monomial rules: `UNIT`, the key of its unit,
and `mono_mul(key1, key2)`, the normal form of one monomial times another
as (key, ScalarValue) pairs; the core builds the product, the sum of
products `dot` and powers.  A `HopfAlgebra` (the coordinates or the
momenta) keys a monomial by (spatial exponents, time exponent, group-like
label), normal ordered in that order (x^a x0^d W, or
P^b P_0^d exp(lam P_0/kappa)), and states only data: its `GENERATORS`
(three spatial, then time) with their coproducts `GENERATOR_IMAGES` and
antipodes `GENERATOR_ANTIPODES`, its `TENSOR` square, the `LETTER` of its
monomial text and the label hooks `LABEL_INVERSE`, `LABEL_STAR` and
`LABEL_TEXT`.  From them the core builds the coproduct (g (x) g for a
label g), the antipode and the star (antihomomorphisms: the images of a
monomial's factors multiplied in reverse order), the counit (0 on the
generators, 1 on every label) and the monomial text.  A `TensorSquare`
multiplies legwise through its element's
`mono_mul`.  Sums accumulate in place (sparse accumulation, Monagan and
Pearce 2010): `collect` is how any term map is built from (key,
coefficient) pairs, adding equal keys and dropping zeros, and `contract`
keeps one fraction-free `scalars.add_product` accumulator per output key
and reduces each coefficient once at the end.  The coefficient ring
`scalars.ScalarValue` is a term map too, with GaussianRational
coefficients and its own product.

Everything the engine caches goes through `memo`, a least-recently-used
table under the one bound `MEMO_SIZE`: the fixed objects (`f` and what is
read off it, the Dirac operators, the gauge constructions, the star of a
wave), each gauge construction's nested f-actions and, by `normal_form`,
every closed normal form (a monomial product, a coproduct, antipode or
star image, a binomial shift, momentum passing, the action), handed out
as a tuple of (key, coefficient) pairs, each `share`d, so a distinct key
or coefficient is stored once however many entries hold it.  The bound has room to
spare: the largest memo, `action._pass_momentum`, holds 4,394 entries
after `verify --suite calculus --max-degree 3 --seed 42`.

An `IndexedMap` is the same container over plain index keys (a row, a
`(row, col)` pair, a name) whose coefficients are algebra elements or
term maps: one-forms, spinors and families of residuals.  It has no
product.  A `Matrix` is an IndexedMap over (row, col) keys with the
matrix product: the gamma matrices, Dirac operators and `f`.

A `Record` is the small value type for everything that is not a sum of
terms: expression nodes, gamma-matrix choices, gauge configurations and
the suites' records and run settings.
"""

from __future__ import annotations

from functools import lru_cache, wraps

from . import scalars  # read at call time: scalars imports this module


# Every value `share` has returned, keyed by (type, value); never evicted.
_SHARED = {}

# Entries each `memo` keeps before it evicts the least recent.
MEMO_SIZE = 200000


def share(x):
    """The first value equal to `x` (and of its type) passed here, stored if
    new: the caches of normal forms keep each distinct immutable key and
    coefficient once, however many entries hold it."""
    return _SHARED.setdefault((type(x), x), x)


def memo(fn):
    """`fn` memoised by its (hashable) arguments under `MEMO_SIZE`: the one
    cache policy of the engine.  The memo has `cache_info()`, and
    `__wrapped__` is `fn` itself."""
    return lru_cache(maxsize=MEMO_SIZE)(fn)


def normal_form(fn):
    """Memoise the closed form `fn`, which returns a {key: coefficient}
    dict, as a tuple of shared (key, coefficient) pairs in the dict's
    order.  As for `memo`, `__wrapped__` is `fn` itself."""
    @memo
    def pairs(*args):
        return tuple((share(k), share(c)) for k, c in fn(*args).items())
    return wraps(fn)(pairs)


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


@normal_form
def _coproduct_image(cls, key):
    """The coproduct of one monomial (x^a x0^d g) of the algebra `cls`: the
    product, in normal order, of the powers of the generator images
    `cls.GENERATOR_IMAGES`, then g (x) g for a group-like g other than the
    unit's."""
    spatial, d, g = key
    factors = [gen ** e for gen, e in zip(cls.GENERATOR_IMAGES, (*spatial, d)) if e]
    if g != cls.UNIT[2]:
        g = (cls.UNIT[0], cls.UNIT[1], g)
        factors.append(cls.TENSOR({(g, g): scalars.ONE}))
    image = factors[0] if factors else cls.TENSOR.one()
    for factor in factors[1:]:
        image = image * factor
    return image.terms


@normal_form
def _reverse_image(cls, key, star):
    """The star (`star` true) or the antipode of one monomial (x^a x0^d g)
    of the algebra `cls`: the images of g, x0^d and the spatial powers
    multiplied in that order, through `dot`, so that the traced `__mul__`
    counts only products asked for from outside the normal form."""
    spatial, d, g = key
    gens = cls.GENERATORS if star else cls.GENERATOR_ANTIPODES
    image = cls({(cls.UNIT[0], cls.UNIT[1],
                  cls.LABEL_STAR(g) if star else cls.LABEL_INVERSE(g)): scalars.ONE})
    for gen, e in zip(reversed(gens), (d, *reversed(spatial))):
        for _ in range(e):
            image = cls.dot(((image, gen),))
    return image.terms


class TermMap:
    """Finite linear combination of monomial keys; see the module docstring.

    Equality compares maps of one class, plus one coercion: a ScalarValue
    equals the element of an algebra with a unit that carries it.  So a
    map whose only term is its unit hashes as that coefficient, and equal
    values hash equal.  A plain number equals no term map: arithmetic
    coerces it, comparison does not (`ScalarValue.number(2) != 2`).
    """

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
    def collect(cls, items):
        """The sum of `(key, coeff)` pairs; zero coefficients drop out."""
        out = {}
        for key, c in items:
            accumulate(out, key, c)
        return cls(out)

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
        """Coefficient by coefficient in one pass, never forming `-other`."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, c in other.terms.items():
            v = out.get(key)
            if v is None:
                out[key] = -c
            else:
                v = v - c
                if v.is_zero():
                    del out[key]
                else:
                    out[key] = v
        return self.__class__(out)

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
        if other.__class__ is not self.__class__:
            if self.UNIT is None or other.__class__ is not scalars.ScalarValue:
                return NotImplemented
            other = self.scalar(other)
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            terms = self.terms
            if len(terms) == 1 and self.UNIT in terms:  # hashes as its scalar
                self._hash = hash(terms[self.UNIT])
            else:
                self._hash = hash(frozenset(terms.items()))
        return self._hash

    # -- rendering -------------------------------------------------------------

    def render(self):
        """The terms' `_render_term(key, c)` texts, joined by ` + `."""
        if not self.terms:
            return "0"
        return " + ".join(self._render_term(key, self.terms[key])
                          for key in self._render_order())

    def _render_order(self):
        return sorted(self.terms)

    def __repr__(self):
        return f"<{type(self).__name__} {self.render()}>"


class HopfAlgebra(TermMap):
    """The one owner of the Hopf-algebra key layout (spatial exponents, time
    exponent, group-like label): a subclass states the data of the module
    docstring, and the structure maps are built here from it."""

    __slots__ = ()

    @classmethod
    def monomial(cls, spatial, d, label, coeff=None):
        """coeff (default 1) * the monomial; zero for a zero coefficient."""
        coeff = scalars.ONE if coeff is None else scalars.ScalarValue._coerce(coeff)
        return cls() if coeff.is_zero() else cls({(tuple(spatial), d, label): coeff})

    @staticmethod
    def _is_label(key):
        """Whether the monomial `key` is a group-like label alone."""
        return not key[1] and not any(key[0])

    def coproduct(self):
        """The algebra map fixed by the generator images (memoised per
        monomial)."""
        cls = type(self)
        return self.TENSOR(contract((c.terms, _coproduct_image(cls, key))
                                    for key, c in self.terms.items()))

    def antipode(self):
        """S: each generator goes to its `GENERATOR_ANTIPODES` entry and each
        label to `LABEL_INVERSE` of it, extended antimultiplicatively."""
        cls = type(self)
        return cls(contract((c.terms, _reverse_image(cls, key, False))
                            for key, c in self.terms.items()))

    def star(self):
        """The antilinear antihomomorphism fixing the generators; each label
        goes to `LABEL_STAR` of it."""
        cls = type(self)
        return cls(contract((c.conj().terms, _reverse_image(cls, key, True))
                            for key, c in self.terms.items()))

    def counit(self):
        """The generators go to 0 and every group-like label to 1."""
        return sum((c for key, c in self.terms.items() if self._is_label(key)),
                   scalars.ZERO)

    def _factors(self, key):
        """Rendered factors of one monomial, empty for the unit."""
        spatial, d, label = key
        factors = [f"{self.LETTER}{m}" if e == 1 else f"{self.LETTER}{m}^{e}"
                   for m, e in zip((1, 2, 3, 0), (*spatial, d)) if e]
        if label != self.UNIT[2]:
            factors.append(self.LABEL_TEXT(label))
        return factors

    def _render_term(self, key, c):
        """`c * f1 * f2 ...` over the monomial's factors: a unit coefficient
        is dropped and a coefficient of more than one term is
        parenthesized (a lone complex number brings its own parentheses)."""
        ctext = c.render()
        if len(c.terms) > 1:
            ctext = f"({ctext})"
        factors = self._factors(key)
        if not factors:
            return ctext
        mono = " * ".join(factors)
        return mono if c == scalars.ONE else f"{ctext} * {mono}"


class TensorSquare(TermMap):
    """Element of A (x) A for a Hopf algebra A = `ELEMENT`, keyed by pairs
    of A's monomial keys; a subclass sets `UNIT` to the pair of A's unit
    keys."""

    __slots__ = ()

    ELEMENT = None

    @classmethod
    def outer(cls, a, b):
        return cls.collect(((k1, k2), c1 * c2)
                           for k1, c1 in a.terms.items() for k2, c2 in b.terms.items())

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

    def left_counit(self):
        """(counit (x) id), landing back in the algebra: a left leg that is
        a label alone counts 1, any other 0."""
        return self.ELEMENT.collect((r, c) for (l, r), c in self.terms.items()
                                    if HopfAlgebra._is_label(l))

    def coproduct_left(self):
        """(coproduct (x) id): a three-leg tensor as an IndexedMap keyed by
        triples of monomial keys."""
        return IndexedMap.collect(((l1, l2, r), c * c1) for (l, r), c in self.terms.items()
                                  for (l1, l2), c1 in _coproduct_image(self.ELEMENT, l))

    def coproduct_right(self):
        """(id (x) coproduct)."""
        return IndexedMap.collect(((l, r1, r2), c * c1) for (l, r), c in self.terms.items()
                                  for (r1, r2), c1 in _coproduct_image(self.ELEMENT, r))

    def _render_term(self, key, c):
        l, r = key
        lt = self.ELEMENT({l: scalars.ONE}).render()
        rt = self.ELEMENT({r: scalars.ONE}).render()
        return f"({c.render()}) * ({lt}) (x) ({rt})"


class IndexedMap(TermMap):
    """Family of nonzero algebra elements or term maps indexed by sortable
    keys, rendered `key: value; ...`; built, like any term map, by
    `TermMap.collect`."""

    __slots__ = ()

    def left_mul(self, b):
        """Multiply every entry by `b` from the left."""
        return self.map_coeffs(lambda c: b * c)

    def render(self):
        if not self.terms:
            return "0"
        return "; ".join(f"{key}: {self.terms[key].render()}"
                         for key in self._render_order())


class Matrix(IndexedMap):
    """Square matrix of scalars or momentum elements, keyed by (row, col):
    the 4x4 gamma and Dirac matrices and the 5x5 `f`.  Its side is one
    more than its largest index, and it renders as the dense grid with
    `0` for absent entries."""

    __slots__ = ()

    def __mul__(self, other):
        return Matrix.collect(((r, c), a * b) for (r, k), a in self.terms.items()
                              for (k2, c), b in other.terms.items() if k == k2)

    def render(self):
        if not self.terms:
            return "0"
        side = 1 + max(max(key) for key in self.terms)
        return "\n".join(
            "[" + ", ".join(self.terms[(r, c)].render() if (r, c) in self.terms else "0"
                            for c in range(side)) + "]"
            for r in range(side)
        )


class Record:
    """A value record.  Its fields are its class's `__slots__`, filled in
    order from the constructor's positional and keyword arguments; a field
    not given takes its value from the class's `DEFAULTS` {field: value}.
    Two records are equal when they are of one class with equal fields.  A
    record is frozen and hashable: a changed value is a new record."""

    __slots__ = ()

    DEFAULTS = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self), self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__} takes {len(names)} fields, not {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__} got an unexpected or repeated "
                                f"field {name!r}")
            values[name] = value
        for name in names:
            if name in values:
                object.__setattr__(self, name, values[name])
            elif name in self.DEFAULTS:
                object.__setattr__(self, name, self.DEFAULTS[name])
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen "
                             f"{type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return (f"{type(self).__name__}("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
                + ")")
