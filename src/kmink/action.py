"""Cross-commutation of momenta past coordinates and the induced left action.

Mixed words live in the Heisenberg double: every element is kept in the
normal form `sum c * (position monomial) * (momentum monomial)` with all
momentum factors strictly to the right.  Reordering uses only the closed
rules

    P_0 x^0 = x^0 P_0 - i                 P_0 x^m = x^m P_0
    P_m x^0 = (x^0 + i/kappa) P_m         P_m x^n = x^n P_m - i delta
    Exp[l] x^0 = (x^0 - i l/kappa) Exp[l] Exp[l] x^m = x^m Exp[l]
    P_0 T = T (P_0 + K)                   P_m S = S (P_m + q_m)
    P_m T = E_K^-1 T P_m                  Exp[l] T = E_K^l T Exp[l]

for plane-wave factors S = exp(i q.x_spatial), T = exp(i K x^0), so the
action on any polynomial-plus-plane-wave element terminates in finitely
many exact steps.

Momenta commute, so a momentum monomial P_1^b1 P_2^b2 P_3^b3 P_0^d Exp[l]
passes a position monomial one generator at a time: Exp[l] once, P_0 d
times, then each P_m b_m times.  `_step` is the one table of the rules
above: one generator past one position monomial, each piece with the
momentum remainder it leaves on the right.  The left action `act` is a
module action, (PQ) |> f = P |> (Q |> f): it applies the generators in
turn, asking each step only for its pieces with no P remainder, and sends
an Exp remainder to 1 (the momentum counit), so it never forms a momentum
remainder.  The full normal form `_pass_momentum`, which keeps
every remainder, serves mixed words only: `HeisenbergElement.mono_mul`
is the memoised normal form of one mixed monomial times another, built
from `_pass_momentum` and the position `_mono_mul`, and the term-map core
forms products and sums of products of mixed words from it.
"""

from __future__ import annotations

from functools import lru_cache

from . import momentum as mom
from .minkowski import KEY_UNIT, PositionElement, _mono_mul, binomial_shift
from .scalars import I, ONE, ScalarValue
from .terms import TermMap, accumulate, contract, share

MOM_UNIT = ((0, 0, 0), 0, 0)
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


@lru_cache(maxsize=200000)
def _step(gen, poskey, vacuum=False):
    """Commute one generator (Exp[l], P_0 or P_m, as a momentum key) past
    one position monomial.

    Returns a tuple of (position key, remainder momentum key, ScalarValue)
    triples, with distinct position-remainder pairs, whose sum is the
    normal form of gen * poskey; each remainder is `gen` or the unit.  With
    `vacuum`, the pieces with a P remainder are left out: they are the ones
    the left action drops, and for P_m they are a binomial expansion.
    """
    b, d, lam = gen
    a, t, w = poskey
    pieces = []
    if lam:
        # x^a (x0 - i lam/kappa)^t E_K^lam W Exp[lam]
        ew = w.e_power(lam)
        for r, coeff in enumerate(binomial_shift(-lam, t)):
            pieces.append(((a, r, w), gen, coeff * ew))
    elif d:
        # x^a x0^t W (P_0 + K) - i t x^a x0^(t-1) W
        if not vacuum:
            pieces.append((poskey, gen, ONE))
        k0 = w.time_scalar()
        if not k0.is_zero():
            pieces.append((poskey, MOM_UNIT, k0))
        if t:
            pieces.append(((a, t - 1, w), MOM_UNIT, ScalarValue.number(-t) * I))
    else:
        # -i a_m x^(a-e_m) x0^t W + x^a (x0 + i/kappa)^t W (E_K^-1 P_m + q_m)
        m = b.index(1)
        if a[m]:
            na = list(a)
            na[m] -= 1
            pieces.append(((tuple(na), t, w), MOM_UNIT, ScalarValue.number(-a[m]) * I))
        qm = w.spatial[m]
        if not (vacuum and qm.is_zero()):
            ew_inv = w.e_power(-1)
            for r, coeff in enumerate(binomial_shift(1, t)):
                if not vacuum:
                    pieces.append(((a, r, w), gen, coeff * ew_inv))
                if not qm.is_zero():
                    pieces.append(((a, r, w), MOM_UNIT, coeff * qm))
    return tuple((share(p), share(r), share(c)) for p, r, c in pieces)


@lru_cache(maxsize=200000)
def _pass_momentum(momkey, poskey):
    """Commute one momentum monomial past one position monomial.

    Returns a tuple of (position key, momentum key, ScalarValue) triples
    whose sum is the normal form of momkey * poskey.
    """
    terms = {(poskey, MOM_UNIT): ONE}
    for gen in _generators(momkey):
        out = {}
        for (pos, rem), c in terms.items():
            for p2, r2, c2 in _step(gen, pos):
                accumulate(out, (p2, mom.key_mul(r2, rem)), c * c2)
        terms = out
    return tuple((share(p), share(m), share(c)) for (p, m), c in terms.items())


def act(p, a):
    """Left action of a momentum element on a position element.

    The vacuum projection of the normal form of p * a: any P power kills
    a term, exponential weights go to 1.
    """
    return PositionElement(contract(
        (ca.terms, _act_monomial(p, poskey)) for poskey, ca in a.terms.items()
    ))


@lru_cache(maxsize=200000)
def _act_key(momkey, poskey):
    """momkey |> poskey as shared (key, ScalarValue) pairs: the generators
    act in turn, each step giving only its pieces with no P remainder; an
    Exp remainder goes to 1."""
    terms = {poskey: ONE}
    for gen in _generators(momkey):
        out = {}
        for pos, c in terms.items():
            for p2, _rem, c2 in _step(gen, pos, True):
                accumulate(out, p2, c2 if c is ONE else c * c2)
        if not out:
            return ()
        terms = out
    return tuple((share(k), share(c)) for k, c in terms.items())


@lru_cache(maxsize=200000)
def _act_monomial(p, poskey):
    """act(p, ·) on one position monomial, as a tuple of (key, ScalarValue)
    pairs with shared keys and coefficients."""
    out = contract((cp.terms, _act_key(momkey, poskey)) for momkey, cp in p.terms.items())
    return tuple((share(k), share(c)) for k, c in out.items())


def act_derivative(i, a):
    """del_i applied to a position element."""
    return act(mom.derivatives()[i], a)


def act_f(i, j, a):
    """f^i_j applied to a position element."""
    return act(mom.f_matrix()[i][j], a)


def act_f_lowered(i, j, a):
    """f_i^j (indices moved with the 5-metric) applied to a position element."""
    return act(mom.f_lowered()[i][j], a)


class HeisenbergElement(TermMap):
    """Normal-ordered mixed word: position part left, momentum part right."""

    __slots__ = ()

    UNIT = (KEY_UNIT, MOM_UNIT)

    @staticmethod
    def from_position(a):
        return HeisenbergElement({(k, MOM_UNIT): c for k, c in a.terms.items()})

    @staticmethod
    def from_momentum(p):
        return HeisenbergElement({(KEY_UNIT, k): c for k, c in p.terms.items()})

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, PositionElement):
            return cls.from_position(x)
        if isinstance(x, mom.MomentumElement):
            return cls.from_momentum(x)
        return super()._coerce(x)

    @staticmethod
    @lru_cache(maxsize=200000)
    def mono_mul(key1, key2):
        """(p1 m1)(p2 m2) = p1 (m1 p2) m2: m1 passes p2 (`_pass_momentum`),
        each piece's position part multiplies p1 (`_mono_mul`) and its
        momentum part m2; shared (key, ScalarValue) pairs."""
        (p1, m1), (p2, m2) = key1, key2
        images = []
        for pmid, mmid, cmid in _pass_momentum(m1, p2):
            mk = mom.key_mul(mmid, m2)
            images.append((cmid.terms, tuple(((pk, mk), c) for pk, c in _mono_mul(p1, pmid))))
        return tuple((share(k), share(c)) for k, c in contract(images).items())

    @classmethod
    def coerce(cls, x):
        out = cls._coerce(x)
        if out is NotImplemented:
            raise TypeError(f"cannot interpret {type(x).__name__} as a mixed word")
        return out

    def commutator(self, other):
        other = HeisenbergElement.coerce(other)
        return self * other - other * self

    def apply(self, a):
        """Evaluate the word as an operator on a position element."""
        acc = PositionElement()
        for (p, m), c in self.terms.items():
            acted = act(mom.MomentumElement({m: ONE}), a)
            acc = acc + (PositionElement({p: ONE}) * acted).scale(c)
        return acc

    def _render_order(self):
        return sorted(
            self.terms, key=lambda k: (k[0][0], k[0][1], k[0][2].render(), k[1])
        )

    def _render_term(self, key, c):
        p, m = key
        ptext = PositionElement({p: ONE}).render()
        mtext = mom.MomentumElement({m: ONE}).render()
        return f"({c.render()}) * [{ptext}] * [{mtext}]"


def word(*factors):
    """Normal-order a product of position/momentum factors left to right."""
    acc = HeisenbergElement.one()
    for f in factors:
        acc = acc * f
    return acc

