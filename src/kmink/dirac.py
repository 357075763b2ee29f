"""Gamma matrices, the Dirac operator family and the Connes-diagram check.

The gamma matrices are fixed in the Dirac representation with exact
Gaussian-rational entries; the fifth matrix gamma_4 is one of zero,
lambda * Id, or lambda * gamma5 with a symbolic scalar lambda.  The
Dirac operator D = gamma^i del_i is a 4x4 matrix of momentum elements
acting on spinors (4-columns of position elements) componentwise, and
the Clifford image of a basis one-form is the matrix operator

    tau^i_c = gamma^j f^i_j

which makes [D, a] psi = del_i(a) (tau^i_c psi) an exact identity and
satisfies the same bimodule law as tau^i.  (Contracting the gamma index
against the metric-lowered slot instead breaks both; the residual of
that variant is reported, not asserted.)
"""

from __future__ import annotations

from dataclasses import dataclass

from .action import act, act_derivative
from .minkowski import PositionElement
from .momentum import (
    METRIC5,
    MomentumElement,
    box,
    derivatives,
    f_lowered,
    f_matrix,
)
from .scalars import ONE, ZERO, ScalarValue

DIM = 4


def _mat(rows):
    return tuple(tuple(ScalarValue._coerce(v) for v in row) for row in rows)


def _zeros():
    return tuple(tuple(ZERO for _ in range(DIM)) for _ in range(DIM))


# -- 4x4 matrices of scalars or momentum elements -------------------------------


def op_zero():
    return tuple(tuple(MomentumElement.zero() for _ in range(DIM)) for _ in range(DIM))


def op_from_matrix(mat, p):
    """mat (x) p: scale a momentum element into a constant matrix."""
    return tuple(tuple(p.scale(mat[r][c]) for c in range(DIM)) for r in range(DIM))


def op_add(a, b):
    return tuple(tuple(a[r][c] + b[r][c] for c in range(DIM)) for r in range(DIM))


def op_sub(a, b):
    return tuple(tuple(a[r][c] - b[r][c] for c in range(DIM)) for r in range(DIM))


def op_scale(a, s):
    return tuple(tuple(a[r][c] * s for c in range(DIM)) for r in range(DIM))


def op_mul(a, b):
    out = []
    for r in range(DIM):
        row = []
        for c in range(DIM):
            acc = a[r][0] * b[0][c]
            for k in range(1, DIM):
                acc = acc + a[r][k] * b[k][c]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def op_is_zero(a):
    return all(p.is_zero() for row in a for p in row)


_i = ScalarValue.number(0, 1)

GAMMA0 = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
GAMMA1 = _mat([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
GAMMA2 = tuple(
    tuple(ScalarValue.number(0, v) for v in row)
    for row in [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
)
GAMMA3 = _mat([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]])
GAMMA5 = op_scale(op_mul(op_mul(GAMMA0, GAMMA1), op_mul(GAMMA2, GAMMA3)), _i)
ID4 = _mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
ZERO4 = _zeros()


@dataclass(frozen=True)
class Gamma4:
    """The fifth gamma slot: kind in {"zero", "unit", "gamma5"}."""

    kind: str
    coeff: ScalarValue = ONE

    def matrix(self):
        if self.kind == "zero":
            return ZERO4
        if self.kind == "unit":
            return op_scale(ID4, self.coeff)
        if self.kind == "gamma5":
            return op_scale(GAMMA5, self.coeff)
        raise ValueError(f"unknown gamma4 kind {self.kind!r}")


GAMMA4_ZERO = Gamma4("zero", ZERO)


@dataclass(frozen=True)
class GammaRep:
    """A gamma-matrix representation together with the gamma_4 choice."""

    gamma4: Gamma4 = GAMMA4_ZERO

    @property
    def gammas(self):
        """gamma^0..gamma^3 plus the chosen fifth matrix."""
        return (GAMMA0, GAMMA1, GAMMA2, GAMMA3, self.gamma4.matrix())


def check_clifford_relations():
    """gamma^mu gamma^nu + gamma^nu gamma^mu = 2 g^{mu nu} Id, 16 cases,
    plus gamma5 anticommutation and gamma5^2 = Id."""
    gams = (GAMMA0, GAMMA1, GAMMA2, GAMMA3)
    failures = []
    for mu in range(4):
        for nu in range(4):
            anti = op_add(op_mul(gams[mu], gams[nu]), op_mul(gams[nu], gams[mu]))
            want = op_scale(ID4, ScalarValue.number(2 * METRIC5[mu] if mu == nu else 0))
            if not op_is_zero(op_sub(anti, want)):
                failures.append((mu, nu))
    for mu in range(4):
        anti = op_add(op_mul(GAMMA5, gams[mu]), op_mul(gams[mu], GAMMA5))
        if not op_is_zero(anti):
            failures.append(("gamma5", mu))
    sq = op_sub(op_mul(GAMMA5, GAMMA5), ID4)
    if not op_is_zero(sq):
        failures.append(("gamma5", "square"))
    return failures


def op_render(a):
    lines = []
    for r in range(DIM):
        lines.append("[" + ", ".join(a[r][c].render() for c in range(DIM)) + "]")
    return "\n".join(lines)


def op_kappa_expand(a, order):
    return tuple(tuple(p.kappa_expand(order) for p in row) for row in a)


def spinor_zero():
    return tuple(PositionElement.zero() for _ in range(DIM))


def op_apply(op, psi):
    """Apply a matrix momentum operator to a spinor via the left action."""
    out = []
    for r in range(DIM):
        acc = PositionElement.zero()
        for c in range(DIM):
            if op[r][c].is_zero() or psi[c].is_zero():
                continue
            acc = acc + act(op[r][c], psi[c])
        out.append(acc)
    return tuple(out)


def spinor_left_mul(a, psi):
    return tuple(a * comp for comp in psi)


def spinor_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def spinor_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def spinor_is_zero(psi):
    return all(a.is_zero() for a in psi)


def build_dirac(rep):
    """D = gamma^0 del_0 + .. + gamma^3 del_3 + gamma_4 del_4."""
    d = derivatives()
    out = op_zero()
    for i, g in enumerate(rep.gammas):
        out = op_add(out, op_from_matrix(g, d[i]))
    return out


def clifford_image(i, rep):
    """tau^i_c = gamma^j f^i_j, the matrix operator representing tau^i."""
    f = f_matrix()
    out = op_zero()
    for j, g in enumerate(rep.gammas):
        out = op_add(out, op_from_matrix(g, f[i][j]))
    return out


def clifford_image_published(i, rep):
    """gamma^j f_j^i with the metric-lowered slot, kept only for the report."""
    flow = f_lowered()
    out = op_zero()
    for j, g in enumerate(rep.gammas):
        out = op_add(out, op_from_matrix(g, flow[j][i]))
    return out


def check_diagram(a, psi, rep):
    """Residual of [D, a] psi = sum_i del_i(a) (tau^i_c psi)."""
    d_op = build_dirac(rep)
    lhs = spinor_sub(
        op_apply(d_op, spinor_left_mul(a, psi)),
        spinor_left_mul(a, op_apply(d_op, psi)),
    )
    rhs = spinor_zero()
    for i in range(5):
        da = act_derivative(i, a)
        if da.is_zero():
            continue
        rhs = spinor_add(rhs, spinor_left_mul(da, op_apply(clifford_image(i, rep), psi)))
    return spinor_sub(lhs, rhs)


def check_dirac_square(rep):
    """D^2 - box * Id; asserted to vanish only for the gamma_4 = 0 choice."""
    d_op = build_dirac(rep)
    sq = op_mul(d_op, d_op)
    residual = op_sub(sq, op_from_matrix(ID4, box()))
    return residual, rep.gamma4.kind == "zero"


def check_antihermiticity():
    """star(del_i) + del_i for each i; all five vanish with the engine star."""
    return [(i, (d.star() + d).render()) for i, d in enumerate(derivatives())]
