"""The dual momentum Hopf algebra: commutative exponential-polynomials.

Elements are finite sums

    c * P_1^b1 P_2^b2 P_3^b3 * P_0^d * exp(lam * P_0 / kappa)

with integer weight lam.  The coproduct is deformed,

    coproduct(P_0) = P_0 (x) 1 + 1 (x) P_0
    coproduct(P_m) = P_m (x) 1 + exp(-P_0/kappa) (x) P_m

and the hyperbolic functions of P_0/kappa are always stored expanded in
the weight basis, never as atomic functions, so equality is term-map
comparison.  As a `terms.HopfAlgebra` it states only data: the product
(`key_mul`: exponents add), the generators P_1, P_2, P_3, P_0, these
images, the antipodes S(P_m) = -exp(P_0/kappa) P_m and S(P_0) = -P_0, the
letter `P`, and its label hooks (lam inverts to -lam, is its own star and
reads `Exp[lam]`); the term-map core builds the rest.

This module also builds the named constants of the calculus, all exact.
The 5x5 matrix f of tau^i a = f^i_j(a) tau^j is the AN(3) group element in
bicrossproduct coordinates, built once as a product of matrices; its
coproduct f (x) f (eq. 1.23) says it is group-like.  The vector fields
e[0..4] are its column 4, the derivatives del[0..4] its row 4, and the
deformed wave operator `box` is built from the vector fields.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import HALF, I, ONE, ScalarValue, decode
from .terms import HopfAlgebra, Matrix, TensorSquare, TermMap, memo

# The five-dimensional metric diag(1,-1,-1,-1,-1); g_44 = -1 is fixed here
# and every index-lowering site uses this single table.
METRIC5 = (1, -1, -1, -1, -1)

KEY_UNIT = ((0, 0, 0), 0, 0)


def key_mul(m1, m2):
    """Key of the product of two momentum monomials: exponents add."""
    (b1, d1, l1), (b2, d2, l2) = m1, m2
    return (b1[0] + b2[0], b1[1] + b2[1], b1[2] + b2[2]), d1 + d2, l1 + l2


class MomentumElement(HopfAlgebra):
    """Element of the commutative momentum algebra."""

    __slots__ = ()

    UNIT = KEY_UNIT
    LETTER = "P"
    LABEL_INVERSE = staticmethod(lambda lam: -lam)
    LABEL_STAR = staticmethod(lambda lam: lam)  # exp(lam P_0/kappa) is hermitian
    LABEL_TEXT = staticmethod("Exp[{}]".format)

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
        return HopfAlgebra.coproduct(self)

    # -- expansion ---------------------------------------------------------

    def kappa_expand(self, order):
        """Expand exp(lam P_0/kappa) in powers of P_0/kappa and drop all
        monomials of total kappa order below -order (coefficients included).

        The weight series runs far enough to saturate positive kappa
        prefactors in the coefficient, so e.g. kappa^2 sh^2 keeps its
        finite P_0^2 part at order 0.
        """
        pairs = []
        for (b, d, lam), c in self.terms.items():
            for key, g in c.kappa_expand(order).terms.items():
                top = decode(key)[0] + order  # powers of P_0/kappa up to top are kept
                mono = ScalarValue({key: g})
                if lam == 0:
                    if top >= 0:
                        pairs.append(((b, d, 0), mono))
                    continue
                pairs.extend(((b, d + n, 0), mono * ScalarValue.number(
                    Fraction(lam ** n, factorial(n))) * ScalarValue.kappa(-n))
                             for n in range(top + 1))
        return MomentumElement.collect(pairs)


class MomentumTensor(TensorSquare):
    """Element of the tensor square of the momentum algebra."""

    __slots__ = ()

    ELEMENT = MomentumElement
    UNIT = (KEY_UNIT, KEY_UNIT)


MomentumElement.TENSOR = MomentumTensor
# P_1, P_2, P_3 and P_0.  Their coproducts P_m (x) 1 + exp(-P_0/kappa) (x) P_m
# and the primitive P_0; their antipodes -exp(P_0/kappa) P_m and -P_0.
MomentumElement.GENERATORS = tuple(MomentumElement.P(mu) for mu in (1, 2, 3, 0))
MomentumElement.GENERATOR_IMAGES = tuple(
    MomentumTensor.outer(MomentumElement.P(m), MomentumElement.one())
    + MomentumTensor.outer(MomentumElement.exp_weight(-1), MomentumElement.P(m))
    for m in (1, 2, 3)) + (MomentumTensor.primitive(MomentumElement.P(0)),)
MomentumElement.GENERATOR_ANTIPODES = tuple(
    -(MomentumElement.exp_weight(1) * MomentumElement.P(m)) for m in (1, 2, 3)) + (
    -MomentumElement.P(0),)


# -- named constants ----------------------------------------------------------


def ch():
    """cosh(P_0/kappa) in the weight basis."""
    return (MomentumElement.exp_weight(1) + MomentumElement.exp_weight(-1)).scale(HALF)


def sh():
    """sinh(P_0/kappa) in the weight basis."""
    return (MomentumElement.exp_weight(1) - MomentumElement.exp_weight(-1)).scale(HALF)


def _diagonal(entries):
    return Matrix({(i, i): x for i, x in enumerate(entries)})


def _nilpotent():
    """X = -(1/kappa) sum_m P_m (E_0m - E_4m + E_m0 + E_m4), with X^3 = 0."""
    inv_k = ScalarValue.kappa(-1)
    return Matrix.collect(
        (key, MomentumElement.P(m).scale(sign * inv_k)) for m in (1, 2, 3)
        for key, sign in (((0, m), -1), ((4, m), 1), ((m, 0), -1), ((m, 4), -1)))


@memo
def _group_element():
    """f as one Matrix: the AN(3) group element in bicrossproduct
    coordinates, exp(X) exp((P_0/kappa)(E_04 + E_40)).  X is nilpotent, so
    exp(X) = 1 + X + X^2/2 exactly; the second factor is the ch/sh boost
    block on (0, 4)."""
    x, one = _nilpotent(), MomentumElement.one()
    boost = Matrix({(0, 0): ch(), (0, 4): sh(), (4, 0): sh(), (4, 4): ch(),
                    **{(m, m): one for m in (1, 2, 3)}})
    return (_diagonal([one] * 5) + x + (x * x).scale(HALF)) * boost


def _rows(matrix):
    return tuple(tuple(matrix.terms.get((i, j), MomentumElement.zero()) for j in range(5))
                 for i in range(5))


@memo
def f_matrix():
    """The 5x5 matrix of momentum elements governing tau^i a = f^i_j(a) tau^j."""
    return _rows(_group_element())


@memo
def f_lowered():
    """f_i^j = g_ii g^jj f^i_j, the product g f g with g = diag(METRIC5)."""
    g = _diagonal([MomentumElement.scalar(s) for s in METRIC5])
    return _rows(g * _group_element() * g)


@memo
def derivatives():
    """del[0..4], row 4 of f: del_i = i kappa (f^4_i - delta^4_i)."""
    ik = I * ScalarValue.kappa(1)
    return tuple((f - kronecker(4, i)).scale(ik) for i, f in enumerate(f_matrix()[4]))


@memo
def vector_fields():
    """e[0..4], the covariant vector fields, column 4 of f: e^A = i kappa f^A_4."""
    ik = I * ScalarValue.kappa(1)
    return tuple(row[4].scale(ik) for row in f_matrix())


@memo
def box():
    """The deformed massless wave operator g^{mu nu} e_mu e_nu (4d sum)."""
    e = vector_fields()
    return MomentumElement.dot((e[mu].scale(METRIC5[mu]), e[mu]) for mu in range(4))


def kronecker(i, j):
    return MomentumElement.one() if i == j else MomentumElement.zero()


# -- verification -------------------------------------------------------------


def f_orthogonality():
    """The 50 orthogonality cases, eqs. 1.25 and 1.26, as (check id,
    equation tag, residual)."""
    f, flow, dot = f_matrix(), f_lowered(), MomentumElement.dot
    for j in range(5):
        for i in range(5):
            res = dot((flow[k][j], f[k][i]) for k in range(5)) - kronecker(i, j)
            yield f"f_k^{j}f^k_{i}=delta", "1.25", res
    for j in range(5):
        for i in range(5):
            res = dot((f[j][k], flow[i][k]) for k in range(5)) - kronecker(i, j)
            yield f"f^{j}_kf_{i}^k=delta", "1.26", res


def f_coproducts():
    """The 30 coproduct cases, eqs. 1.23 and 2.6, as (check id, equation
    tag, residual)."""
    f, d, outer = f_matrix(), derivatives(), MomentumTensor.outer
    for i in range(5):
        for k in range(5):
            rhs = sum((outer(f[i][j], f[j][k]) for j in range(5)), MomentumTensor())
            yield f"coproduct(f^{i}_{k})=f^{i}_j(x)f^j_{k}", "1.23", f[i][k].coproduct() - rhs
    for i in range(5):
        rhs = sum((outer(d[j], f[j][i]) for j in range(5)),
                  outer(MomentumElement.one(), d[i]))
        yield (f"coproduct(del_{i})=1(x)del_{i}+del_j(x)f^j_{i}", "2.6",
               d[i].coproduct() - rhs)


def box_identities():
    """box = kappa^2 + (e^4)^2 (eq. 1.12) and del_0^2 - sum del_m^2 = box
    (eq. 2.9), exactly, as (check id, equation tag, residual)."""
    e, d = vector_fields(), derivatives()
    yield ("box=kappa^2+(e^4)^2", "1.12",
           box() - MomentumElement.scalar(ScalarValue.kappa(2)) - e[4] * e[4])
    yield ("del_0^2-sumdel_m^2=box", "2.9",
           MomentumElement.dot((d[m].scale(METRIC5[m]), d[m]) for m in range(4)) - box())
