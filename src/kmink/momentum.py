"""The dual momentum Hopf algebra: commutative exponential-polynomials.

Elements are finite sums

    c * P_1^b1 P_2^b2 P_3^b3 * P_0^d * exp(lam * P_0 / kappa)

with integer weight lam.  The coproduct is deformed,

    coproduct(P_0) = P_0 (x) 1 + 1 (x) P_0
    coproduct(P_m) = P_m (x) 1 + exp(-P_0/kappa) (x) P_m

and the hyperbolic functions of P_0/kappa are always stored expanded in
the weight basis, never as atomic functions, so equality is term-map
comparison.  The product (`key_mul`: exponents add) and these generator
images are all this module states; the term-map core builds the product,
sums of products and the coproduct from them.

This module also builds the named constants of the calculus: the 5x5
f-matrix, the derivatives del[0..4], the vector fields e[0..4] and the
deformed wave operator `box`, all exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .scalars import HALF, I, ONE, ZERO, ScalarValue, decode
from .terms import IndexedMap, TensorSquare, TermMap, accumulate

# The five-dimensional metric diag(1,-1,-1,-1,-1); g_44 = -1 is fixed here
# and every index-lowering site uses this single table.
METRIC5 = (1, -1, -1, -1, -1)

KEY_UNIT = ((0, 0, 0), 0, 0)


def key_mul(m1, m2):
    """Key of the product of two momentum monomials: exponents add."""
    (b1, d1, l1), (b2, d2, l2) = m1, m2
    return (b1[0] + b2[0], b1[1] + b2[1], b1[2] + b2[2]), d1 + d2, l1 + l2


class MomentumElement(TermMap):
    """Element of the commutative momentum algebra."""

    __slots__ = ()

    UNIT = KEY_UNIT

    # -- constructors ------------------------------------------------------

    @staticmethod
    def P(mu):
        if mu == 0:
            return MomentumElement({((0, 0, 0), 1, 0): ONE})
        if 1 <= mu <= 3:
            b = [0, 0, 0]
            b[mu - 1] = 1
            return MomentumElement({(tuple(b), 0, 0): ONE})
        raise ValueError(f"momentum index {mu} out of range 0..3")

    @staticmethod
    def exp_weight(lam):
        """exp(lam * P_0 / kappa)."""
        return MomentumElement({((0, 0, 0), 0, lam): ONE})

    @staticmethod
    def monomial(b, d, lam, coeff=ONE):
        coeff = ScalarValue._coerce(coeff)
        if coeff.is_zero():
            return MomentumElement()
        return MomentumElement({(tuple(b), d, lam): coeff})

    # -- ring --------------------------------------------------------------

    @staticmethod
    def mono_mul(key1, key2):
        """The product of two monomials, a single monomial: momenta commute."""
        return ((key_mul(key1, key2), ONE),)

    # The core's product and coproduct, defined on this class because
    # benchmarks/traced.py times them under these names.
    def __mul__(self, other):
        return TermMap.__mul__(self, other)

    def coproduct(self):
        return TermMap.coproduct(self)

    def antipode(self):
        """S(P_0) = -P_0, S(P_m) = -exp(P_0/kappa) P_m, S(exp(l)) = exp(-l)."""
        out = {}
        for (b, d, lam), c in self.terms.items():
            nb = b[0] + b[1] + b[2]
            sign = -1 if (nb + d) % 2 else 1
            accumulate(out, (b, d, nb - lam), c * ScalarValue.number(sign))
        return MomentumElement(out)

    def counit(self):
        """Set P_mu to 0 and exp(lam P_0/kappa) to 1."""
        acc = ZERO
        for (b, d, _lam), c in self.terms.items():
            if b == (0, 0, 0) and d == 0:
                acc = acc + c
        return acc

    def star(self):
        """P_mu and exp(lam P_0/kappa) are hermitian; conjugate coefficients."""
        return MomentumElement({k: c.conj() for k, c in self.terms.items()})

    # -- expansion and inspection ------------------------------------------

    def kappa_expand(self, order):
        """Expand exp(lam P_0/kappa) in powers of P_0/kappa and drop all
        monomials of total kappa order below -order (coefficients included).

        The weight series runs far enough to saturate positive kappa
        prefactors in the coefficient, so e.g. kappa^2 sh^2 keeps its
        finite P_0^2 part at order 0.
        """
        out = {}
        for (b, d, lam), c in self.terms.items():
            for key, g in c.kappa_expand(order).terms.items():
                kap = decode(key)[0]
                mono = ScalarValue({key: g})
                if lam == 0:
                    if kap >= -order:
                        accumulate(out, (b, d, 0), mono)
                    continue
                for n in range(max(0, kap + order) + 1):
                    if kap - n < -order:
                        break
                    fac = ScalarValue.number(Fraction(lam ** n, factorial(n)))
                    accumulate(out, (b, d + n, 0), mono * fac * ScalarValue.kappa(-n))
        return MomentumElement(out)

    def _factors(self, key):
        b, d, lam = key
        factors = []
        for m in (1, 2, 3):
            if b[m - 1] == 1:
                factors.append(f"P{m}")
            elif b[m - 1]:
                factors.append(f"P{m}^{b[m-1]}")
        if d == 1:
            factors.append("P0")
        elif d:
            factors.append(f"P0^{d}")
        if lam:
            factors.append(f"Exp[{lam}]")
        return factors


class MomentumTensor(TensorSquare):
    """Element of the tensor square of the momentum algebra."""

    __slots__ = ()

    ELEMENT = MomentumElement
    UNIT = (KEY_UNIT, KEY_UNIT)

    def coproduct_left(self):
        """(coproduct (x) id): a three-leg tensor as an IndexedMap keyed by
        triples of monomial keys."""
        return IndexedMap.collect(
            ((l1, l2, r), c * c1) for (l, r), c in self.terms.items()
            for (l1, l2), c1 in MomentumElement({l: ONE}).coproduct().terms.items())

    def coproduct_right(self):
        """(id (x) coproduct)."""
        return IndexedMap.collect(
            ((l, r1, r2), c * c1) for (l, r), c in self.terms.items()
            for (r1, r2), c1 in MomentumElement({r: ONE}).coproduct().terms.items())


MomentumElement.TENSOR = MomentumTensor
# The coproduct images of P_1, P_2, P_3 (P_m (x) 1 + exp(-P_0/kappa) (x) P_m)
# and of the primitive P_0.
MomentumElement.GENERATOR_IMAGES = tuple(
    MomentumTensor.outer(MomentumElement.P(m), MomentumElement.one())
    + MomentumTensor.outer(MomentumElement.exp_weight(-1), MomentumElement.P(m))
    for m in (1, 2, 3)) + (MomentumTensor.primitive(MomentumElement.P(0)),)


# -- named constants ----------------------------------------------------------


def ch():
    """cosh(P_0/kappa) in the weight basis."""
    return (MomentumElement.exp_weight(1) + MomentumElement.exp_weight(-1)).scale(HALF)


def sh():
    """sinh(P_0/kappa) in the weight basis."""
    return (MomentumElement.exp_weight(1) - MomentumElement.exp_weight(-1)).scale(HALF)


def p_squared():
    """P_1^2 + P_2^2 + P_3^2."""
    return MomentumElement.dot((MomentumElement.P(m), MomentumElement.P(m)) for m in (1, 2, 3))


def _u():
    """(1/2 kappa^2) exp(P_0/kappa) P^2, the recurring quadratic correction."""
    return (MomentumElement.exp_weight(1) * p_squared()).scale(
        HALF * ScalarValue.kappa(-2)
    )


@lru_cache(maxsize=1)
def f_matrix():
    """The 5x5 matrix of momentum elements governing tau^i a = f^i_j(a) tau^j."""
    u = _u()
    C, S = ch(), sh()
    inv_k = ScalarValue.kappa(-1)
    e_plus = MomentumElement.exp_weight(1)
    f = [[MomentumElement.zero() for _ in range(5)] for _ in range(5)]
    f[0][0] = C + u
    f[0][4] = S + u
    f[4][0] = S - u
    f[4][4] = C - u
    for m in (1, 2, 3):
        pm = MomentumElement.P(m)
        f[0][m] = pm.scale(-inv_k)
        f[m][0] = (e_plus * pm).scale(-inv_k)
        f[m][m] = MomentumElement.one()
        f[m][4] = (e_plus * pm).scale(-inv_k)
        f[4][m] = pm.scale(inv_k)
    return tuple(tuple(row) for row in f)


@lru_cache(maxsize=1)
def f_lowered():
    """f_i^j = g_ii g^jj f^i_j (diagonal 5-metric, no sum)."""
    f = f_matrix()
    return tuple(
        tuple(
            f[i][j].scale(METRIC5[i] * METRIC5[j]) for j in range(5)
        )
        for i in range(5)
    )


@lru_cache(maxsize=1)
def derivatives():
    """del[0..4]: del_0 = i kappa f^4_0, del_m = i kappa f^4_m,
    del_4 = i kappa (f^4_4 - 1)."""
    f = f_matrix()
    ik = I * ScalarValue.kappa(1)
    d = [f[4][0].scale(ik)]
    d += [f[4][m].scale(ik) for m in (1, 2, 3)]
    d.append((f[4][4] - MomentumElement.one()).scale(ik))
    return tuple(d)


@lru_cache(maxsize=1)
def vector_fields():
    """e[0..4], the covariant vector fields:

        e^0 = i kappa (sh + u),  e^m = -i exp(P_0/kappa) P_m,
        e^4 = i kappa (ch - u).
    """
    u = _u()
    ik = I * ScalarValue.kappa(1)
    e_plus = MomentumElement.exp_weight(1)
    out = [(sh() + u).scale(ik)]
    out += [(e_plus * MomentumElement.P(m)).scale(-I) for m in (1, 2, 3)]
    out.append((ch() - u).scale(ik))
    return tuple(out)


@lru_cache(maxsize=1)
def box():
    """The deformed massless wave operator g^{mu nu} e_mu e_nu (4d sum)."""
    e = vector_fields()
    return MomentumElement.dot((e[mu].scale(METRIC5[mu]), e[mu]) for mu in range(4))


def kronecker(i, j):
    return MomentumElement.one() if i == j else MomentumElement.zero()


# -- verification -------------------------------------------------------------


def verify_f_identities():
    """Exact checks of the orthogonality and coproduct systems.

    Returns a list of (identity id, equation tag, residual), 50
    orthogonality cases plus 30 coproducts.
    """
    f = f_matrix()
    flow = f_lowered()
    results = []
    dot = MomentumElement.dot
    for j in range(5):
        for i in range(5):
            res = dot((flow[k][j], f[k][i]) for k in range(5)) - kronecker(i, j)
            results.append((f"f_k^{j} f^k_{i} = delta", "1.25", res))
    for j in range(5):
        for i in range(5):
            res = dot((f[j][k], flow[i][k]) for k in range(5)) - kronecker(i, j)
            results.append((f"f^{j}_k f_{i}^k = delta", "1.26", res))
    for i in range(5):
        for k in range(5):
            lhs = f[i][k].coproduct()
            rhs = MomentumTensor()
            for j in range(5):
                rhs = rhs + MomentumTensor.outer(f[i][j], f[j][k])
            res = lhs - rhs
            results.append((f"coproduct(f^{i}_{k}) = f^{i}_j (x) f^j_{k}", "1.23", res))
    d = derivatives()
    for i in range(5):
        lhs = d[i].coproduct()
        rhs = MomentumTensor.outer(MomentumElement.one(), d[i])
        for j in range(5):
            rhs = rhs + MomentumTensor.outer(d[j], f[j][i])
        res = lhs - rhs
        results.append((f"coproduct(del_{i}) = 1 (x) del_{i} + del_j (x) f^j_{i}",
                        "2.6", res))
    return results


def verify_box_identities():
    """box = kappa^2 + (e^4)^2 and del_0^2 - sum del_m^2 = box, exactly,
    as (identity id, equation tag, residual), plus the reported order-0
    limit of box."""
    e = vector_fields()
    d = derivatives()
    results = []
    res1 = box() - MomentumElement.scalar(ScalarValue.kappa(2)) - e[4] * e[4]
    results.append(("box = kappa^2 + (e^4)^2", "1.12", res1))
    res2 = MomentumElement.dot((d[m].scale(METRIC5[m]), d[m]) for m in range(4)) - box()
    results.append(("del_0^2 - sum del_m^2 = box", "2.9", res2))
    limit = box().kappa_expand(0)
    results.append(
        ("box at kappa order 0 (sign convention: -(P_0^2 - P^2))", "derived-convention",
         limit)
    )
    return results
