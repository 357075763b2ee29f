"""Gamma matrices, the Dirac operator family and the Connes-diagram check.

The gamma matrices are fixed in the Dirac representation with exact
Gaussian-rational entries; the fifth matrix gamma_4 is one of zero,
lambda * Id, or lambda * gamma5 with a symbolic scalar lambda.  The
Dirac operator D = gamma^i del_i is a 4x4 matrix of momentum elements
acting componentwise on spinors, 4-columns of position elements keyed by
row, and the Clifford image of a basis one-form is the matrix operator

    tau^i_c = gamma^j f^i_j,

and a one-form acts by Connes' map pi(omega) psi = omega_i (tau^i_c psi),
`clifford_apply`.  [D, a] psi = pi(da) psi is then an exact identity, and
pi(tau^i)(a psi) = pi(tau^i a) psi is the bimodule law of tau^i.
(Contracting the gamma index against the metric-lowered slot instead
breaks both; the residual of that variant is reported, not asserted.)
"""

from __future__ import annotations

from .action import act
from .forms import exterior_d
from .minkowski import dot
from .momentum import (
    METRIC5,
    box,
    derivatives,
    f_lowered,
    f_matrix,
)
from .scalars import ONE, ZERO, ScalarValue
from .terms import IndexedMap, Matrix, Record, memo

DIM = 4


def _mat(rows):
    return Matrix.collect(((r, c), ScalarValue._coerce(v))
                          for r, row in enumerate(rows) for c, v in enumerate(row))


def op_from_matrix(mat, p):
    """mat (x) p: scale a momentum element into a constant matrix."""
    return mat.map_coeffs(p.scale)


_i = ScalarValue.number(0, 1)

GAMMA0 = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
GAMMA1 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
GAMMA2 = _mat([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]).scale(_i)
GAMMA3 = _mat([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
GAMMA5 = (GAMMA0 * GAMMA1 * (GAMMA2 * GAMMA3)).scale(_i)
ID4 = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
ZERO4 = Matrix()


class Gamma4(Record):
    """A gamma-matrix representation, fixed by its fifth slot: kind in
    {"zero", "unit", "gamma5"}, and its scalar coefficient."""

    __slots__ = ("kind", "coeff")

    def __init__(self, kind, coeff=ONE):
        scalar = ScalarValue._coerce(coeff)
        if scalar is NotImplemented:
            raise ValueError(f"a gamma4 coefficient is a scalar, not {type(coeff).__name__}")
        super().__init__(kind, scalar)  # equal coefficients are one memo key

    @property
    def gammas(self):
        """gamma^0..gamma^3 plus the chosen fifth matrix."""
        return (GAMMA0, GAMMA1, GAMMA2, GAMMA3, self.matrix())

    def matrix(self):
        if self.kind == "zero":
            return ZERO4
        if self.kind == "unit":
            return ID4.scale(self.coeff)
        if self.kind == "gamma5":
            return GAMMA5.scale(self.coeff)
        raise ValueError(f"unknown gamma4 kind {self.kind!r}")


GAMMA4_ZERO = Gamma4("zero", ZERO)


def check_clifford_relations():
    """Residuals of gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu} Id
    (16 cases), of the gamma5 anticommutators and of gamma5^2 = Id, keyed
    by the relation."""
    gams = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)
    items = []
    for mu in range(4):
        for nu in range(4):
            anti = gams[mu] * gams[nu] + gams[nu] * gams[mu]
            want = ID4.scale(2 * METRIC5[mu] if mu == nu else 0)
            items.append((f"{{gamma{mu}, gamma{nu}}}", anti - want))
    for mu in range(4):
        items.append((f"{{gamma5, gamma{mu}}}", GAMMA5 * gams[mu] + gams[mu] * GAMMA5))
    items.append(("gamma5^2 - Id", GAMMA5 * GAMMA5 - ID4))
    return IndexedMap.collect(items)


def op_apply(op, psi):
    """Apply a matrix momentum operator to a spinor, an IndexedMap from
    row to position element, via the left action."""
    return IndexedMap.collect((r, act(p, psi.terms[c]))
                              for (r, c), p in op.terms.items() if c in psi.terms)


def _gamma_sum(rep, coeffs):
    """gamma^j coeffs[j], summed over the five gamma slots of `rep`."""
    out = Matrix()
    for g, p in zip(rep.gammas, coeffs):
        out = out + op_from_matrix(g, p)
    return out


@memo
def build_dirac(rep):
    """D = gamma^0 del_0 + .. + gamma^3 del_3 + gamma_4 del_4, built once
    per representation."""
    return _gamma_sum(rep, derivatives())


@memo
def clifford_image(i, rep):
    """tau^i_c = gamma^j f^i_j, the matrix operator representing tau^i,
    built once per (i, representation)."""
    return _gamma_sum(rep, f_matrix()[i])


def clifford_image_published(i, rep):
    """gamma^j f_j^i with the metric-lowered slot, kept only for the report."""
    return _gamma_sum(rep, [row[i] for row in f_lowered()])


def clifford_apply(omega, psi, rep):
    """pi(omega) psi = sum_i omega_i (tau^i_c psi): the one-form
    omega = omega_i tau^i acting on a spinor through the Clifford images."""
    images = [(w, op_apply(clifford_image(i, rep), psi).terms) for i, w in omega.terms.items()]
    return IndexedMap.collect(
        (r, dot((w, image[r]) for w, image in images if r in image)) for r in range(DIM)
    )


def check_diagram(a, psi, rep):
    """Residual of [D, a] psi = pi(da) psi."""
    d_op = build_dirac(rep)
    lhs = op_apply(d_op, psi.left_mul(a)) - op_apply(d_op, psi).left_mul(a)
    return lhs - clifford_apply(exterior_d(a), psi, rep)


def check_dirac_square(rep):
    """D^2 - box * Id; asserted to vanish only for the gamma_4 = 0 choice."""
    d_op = build_dirac(rep)
    return d_op * d_op - op_from_matrix(ID4, box())


def check_antihermiticity():
    """star(del_i) + del_i for each i; all five vanish with the engine star."""
    return [(i, (d.star() + d).render()) for i, d in enumerate(derivatives())]
