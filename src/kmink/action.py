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

for plane-wave factors S = exp(i q.x_spatial), T = exp(i K x^0), the
cross relations of the bicrossproduct (Majid and Ruegg, Phys. Lett. B 334
(1994) 348).  On a normal-ordered monomial x^a x0^t W, with W of momentum
(q, K), they make each generator a sum of commuting operators:

    P_m    = -i d_m + sigma (E_K^-1 R_m + q_m)
    P_0    = -i d_0 + R_0 + K
    Exp[l] = E_K^l sigma^-l R_Exp[l]

Here d_mu differentiates x^a x0^t in x^mu, sigma is the shift
x^0 -> x^0 + i/kappa, and R puts its generator into the momentum
remainder on the right.  d_m touches only x^a, d_0 and sigma only x^0,
and R only the remainder, so the monomial P^b P_0^d Exp[l] passes in
closed form: each factor (-i d + c1 R + c0)^n is one binomial sum, and
their product applies sigma^s (s the net shift count) to the x^0 power
left by d_0, one `binomial_shift`.  `_pass_momentum` is that expansion;
`HeisenbergElement.mono_mul`, the normal form of one mixed monomial times
another, is built from it and `PositionElement.mono_mul`, and the
term-map core forms products and sums of products of mixed words from it.
The left action `act` is the vacuum projection of the same expansion
(`_pass_momentum` with `vacuum`): the terms with a P remainder drop out
and an Exp remainder goes to 1, the momentum counit.  Every one of these
closed forms is memoised by the one policy of the core,
`terms.normal_form`.
"""

from __future__ import annotations

from math import comb, perm

from . import momentum as mom
from .minkowski import KEY_UNIT, PositionElement, binomial_shift
from .scalars import ONE, ScalarValue
from .terms import TermMap, contract, normal_form, share

_NO_AXIS = (((0, 0), ONE),)  # a generator to the power 0


@normal_form
def _axis(axis, n, e, w, vacuum):
    """(-i d + c1 R + c0)^n on a coordinate power of exponent e, on the
    monomial's wave w of momentum (q, K): P_m^n on x^m for axis = m - 1 in
    0..2 (c1 = E_K^-1, c0 = q_m), or P_0^n on x^0 for axis 3 (c1 = 1,
    c0 = K).  As {(j, k): coefficient}, j the order of d and k the power
    of R, with coefficient C(n, j) e!/(e-j)! (-i)^j C(n-j, k) c1^k
    c0^(n-j-k).  With `vacuum` only k = 0; a vanishing c0 keeps only its
    zeroth power."""
    c1, c0 = (ONE, w.time_scalar()) if axis == 3 else (w.e_power(-1), w.spatial[axis])
    pieces = {}
    for j in range(min(n, e) + 1):
        rest, lead = n - j, comb(n, j) * perm(e, j)
        for k in ((0,) if vacuum else range(rest + 1)):
            p = rest - k
            if p and c0.is_zero():
                continue
            num = lead * comb(rest, k)
            coeff = ScalarValue.number(*((num, 0), (0, -num), (-num, 0), (0, num))[j % 4])
            if k:
                coeff = coeff * c1 ** k
            if p:
                coeff = coeff * c0 ** p
            pieces[j, k] = coeff
    return pieces


@normal_form
def _pass_momentum(momkey, poskey, vacuum):
    """The normal form of momkey * poskey in closed form (module docstring):
    keys are (position key, momentum key) pairs, built from shared parts,
    or with `vacuum` position keys alone, the terms with a P remainder left
    out and an Exp remainder sent to 1."""
    (b, d, lam), (a, t, w) = momkey, poskey
    # (d_m orders, R_m powers, net sigma count, coefficient) over P^b Exp[lam]
    combos = [((), (), -lam, w.e_power(lam) if lam else ONE)]
    for m in range(3):
        pieces = _axis(m, b[m], a[m], w, vacuum) if b[m] else _NO_AXIS
        combos = [(js + (j,), ks + (k,), s + b[m] - j, cm if c is ONE else c * cm)
                  for js, ks, s, c in combos for (j, k), cm in pieces]
    p0 = _axis(3, d, t, w, vacuum) if d else _NO_AXIS
    rlam = 0 if vacuum else lam
    images = []
    for js, ks, s, c in combos:
        pa = (a[0] - js[0], a[1] - js[1], a[2] - js[2])
        for (r, k0), c0 in p0:
            rem = (ks, k0, rlam)
            images.append(((c if c0 is ONE else c * c0).terms, tuple(
                ((pa, u, w) if vacuum else (share((pa, u, w)), share(rem)), cu)
                for u, cu in binomial_shift(s, t - r))))
    return contract(images)


def act(p, a):
    """Left action of a momentum element on a position element.

    The vacuum projection of the normal form of p * a: any P power kills
    a term, exponential weights go to 1.  The zero operator gives zero and
    the unit operator (one unit term whose coefficient equals `ONE`) gives
    `a` itself, both without a contraction: values are immutable, so
    returning `a` is safe.
    """
    terms = p.terms
    if not terms:
        return PositionElement()
    if len(terms) == 1 and terms.get(mom.KEY_UNIT) == ONE:
        return a
    return PositionElement(contract(
        (ca.terms, _act_monomial(p, poskey)) for poskey, ca in a.terms.items()
    ))


@normal_form
def _act_monomial(p, poskey):
    """act(p, ·) on one position monomial."""
    return contract((cp.terms, _pass_momentum(momkey, poskey, True))
                    for momkey, cp in p.terms.items())


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

    UNIT = (KEY_UNIT, mom.KEY_UNIT)

    @staticmethod
    def from_position(a):
        return HeisenbergElement({(k, mom.KEY_UNIT): c for k, c in a.terms.items()})

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
    @normal_form
    def mono_mul(key1, key2):
        """(p1 m1)(p2 m2) = p1 (m1 p2) m2: m1 passes p2 (`_pass_momentum`),
        each piece's position part multiplies p1 (`PositionElement.mono_mul`)
        and its momentum part m2."""
        (p1, m1), (p2, m2) = key1, key2
        images = []
        for (pmid, mmid), cmid in _pass_momentum(m1, p2, False):
            mk = mom.key_mul(mmid, m2)
            images.append((cmid.terms, tuple(((pk, mk), c)
                                             for pk, c in PositionElement.mono_mul(p1, pmid))))
        return contract(images)

    @classmethod
    def coerce(cls, x):
        out = cls._coerce(x)
        if out is NotImplemented:
            raise TypeError(f"cannot interpret {type(x).__name__} as a mixed word")
        return out

    def commutator(self, other):
        other = HeisenbergElement.coerce(other)
        return self * other - other * self

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

