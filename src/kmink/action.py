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
many exact steps.  The left action is normal ordering followed by the
vacuum projection, i.e. the momentum counit (P -> 0, Exp[l] -> 1).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from . import momentum as mom
from .minkowski import KEY_UNIT, PositionElement, _mono_mul
from .scalars import I, ONE, ScalarValue
from .terms import TermMap, accumulate, share

MOM_UNIT = ((0, 0, 0), 0, 0)


@lru_cache(maxsize=200000)
def _pass_momentum(momkey, poskey):
    """Commute one momentum monomial past one position monomial.

    Returns a tuple of (position key, momentum key, ScalarValue) triples
    whose sum is the normal form of momkey * poskey.
    """
    b, d, lam = momkey
    a, t, w = poskey
    if lam != 0:
        # peel the whole exponential: closed-form shift and rescale
        shift = ScalarValue.number(-lam) * I * ScalarValue.kappa(-1)
        ew = w.e_power(lam)
        out = {}
        for r in range(t + 1):
            coeff = ScalarValue.number(comb(t, r)) * (shift ** (t - r)) * ew
            for p2, m2, c2 in _pass_momentum((b, d, 0), (a, r, w)):
                key = (p2, (m2[0], m2[1], m2[2] + lam))
                accumulate(out, key, c2 * coeff)
        return _shared_triples(out)
    if d > 0:
        pieces = [((a, t, w), ((0, 0, 0), 1, 0), ONE)]
        k0 = w.time_scalar()
        if not k0.is_zero():
            pieces.append(((a, t, w), MOM_UNIT, k0))
        if t > 0:
            pieces.append(((a, t - 1, w), MOM_UNIT, ScalarValue.number(-t) * I))
        return _continue((b, d - 1, 0), pieces)
    for m in (1, 2, 3):
        if b[m - 1]:
            nb = list(b)
            nb[m - 1] -= 1
            pieces = []
            if a[m - 1]:
                na = list(a)
                na[m - 1] -= 1
                pieces.append(
                    ((tuple(na), t, w), MOM_UNIT, ScalarValue.number(-a[m - 1]) * I)
                )
            pm_key = ((int(m == 1), int(m == 2), int(m == 3)), 0, 0)
            ew_inv = w.e_power(-1)
            qm = w.spatial[m - 1]
            shift = I * ScalarValue.kappa(-1)
            for r in range(t + 1):
                coeff = ScalarValue.number(comb(t, r)) * (shift ** (t - r))
                pieces.append(((a, r, w), pm_key, coeff * ew_inv))
                if not qm.is_zero():
                    pieces.append(((a, r, w), MOM_UNIT, coeff * qm))
            return _continue((tuple(nb), 0, 0), pieces)
    return ((share(poskey), MOM_UNIT, ONE),)


def _continue(rest, pieces):
    out = {}
    for pos1, mk1, c1 in pieces:
        if rest == MOM_UNIT:
            accumulate(out, (pos1, mk1), c1)
            continue
        for p2, m2, c2 in _pass_momentum(rest, pos1):
            key = (
                p2,
                (
                    (m2[0][0] + mk1[0][0], m2[0][1] + mk1[0][1], m2[0][2] + mk1[0][2]),
                    m2[1] + mk1[1],
                    m2[2] + mk1[2],
                ),
            )
            accumulate(out, key, c1 * c2)
    return _shared_triples(out)


def _shared_triples(out):
    return tuple((share(p), share(m), share(c)) for (p, m), c in out.items())


def act(p, a):
    """Left action of a momentum element on a position element.

    Normal-orders p * a and applies the vacuum projection (the momentum
    counit: any P power kills the term, exponential weights go to 1).
    """
    out = {}
    for poskey, ca in a.terms.items():
        for key, c in _act_monomial(p, poskey):
            accumulate(out, key, ca * c)
    return PositionElement(out)


@lru_cache(maxsize=200000)
def _act_monomial(p, poskey):
    """act(p, ·) on one position monomial, as a tuple of (key, ScalarValue)
    pairs with shared keys and coefficients."""
    out = {}
    for momkey, cp in p.terms.items():
        for p2, m2, c2 in _pass_momentum(momkey, poskey):
            if m2[0] == (0, 0, 0) and m2[1] == 0:
                accumulate(out, p2, cp * c2)
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

    @classmethod
    def coerce(cls, x):
        out = cls._coerce(x)
        if out is NotImplemented:
            raise TypeError(f"cannot interpret {type(x).__name__} as a mixed word")
        return out

    def __mul__(self, other):
        if isinstance(other, (int, ScalarValue)):
            return self.scale(other)
        other = HeisenbergElement.coerce(other)
        out = {}
        for (p1, m1), c1 in self.terms.items():
            for (p2, m2), c2 in other.terms.items():
                c = c1 * c2
                for pmid, mmid, cmid in _pass_momentum(m1, p2):
                    cc = c * cmid
                    mk = (
                        (mmid[0][0] + m2[0][0], mmid[0][1] + m2[0][1],
                         mmid[0][2] + m2[0][2]),
                        mmid[1] + m2[1],
                        mmid[2] + m2[2],
                    )
                    for pk, cpos in _mono_mul(p1, pmid):
                        accumulate(out, (pk, mk), cc * cpos)
        return HeisenbergElement(out)

    def __rmul__(self, other):
        if isinstance(other, (int, ScalarValue)):
            return self.scale(other)
        return HeisenbergElement.coerce(other) * self

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
        acc = acc * HeisenbergElement.coerce(f)
    return acc

