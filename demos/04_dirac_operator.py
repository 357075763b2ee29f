#!/usr/bin/env python3
"""Dirac operators and the commutative square with the calculus.

A one-parameter family D = gamma^i del_i is admissible: the fifth
matrix may be zero, a multiple of the identity, or a multiple of
gamma5.  For the zero choice D^2 equals the deformed wave operator on
the nose, and for every choice the commutator calculus [D, a] realizes
the exterior derivative through the Clifford image of the basis forms.
"""

from kmink import (
    Gamma4,
    GAMMA4_ZERO,
    MomentumElement,
    PositionElement,
    ScalarValue,
)
from kmink import dirac
from kmink.terms import IndexedMap

x = [PositionElement.x(mu) for mu in range(4)]

print("== Clifford relations ==")
print("failures:", list(dirac.check_clifford_relations().terms))

print()
print("== D^2 against the wave operator ==")
residual = dirac.check_dirac_square(GAMMA4_ZERO)
print("gamma4 = 0:        D^2 - box * Id =", residual.render())
for kind in ("unit", "gamma5"):
    residual = dirac.check_dirac_square(Gamma4(kind, ScalarValue.number(1)))
    top_left = residual.terms.get((0, 0), MomentumElement.zero()).render()
    print(f"gamma4 = {kind:6s}:   residual[0][0] = {top_left}  (reported only)")

print()
print("== the commutative square [D, a] psi = del_i(a) tau^i_c psi ==")
psi = IndexedMap({0: x[2], 2: x[1] * x[0], 3: PositionElement.one()})
for kind, rep in (
    ("zero", GAMMA4_ZERO),
    ("unit", Gamma4("unit", ScalarValue.number(1))),
    ("gamma5", Gamma4("gamma5", ScalarValue.number(1))),
):
    res = dirac.check_diagram(x[1] * x[0], psi, rep)
    print(f"gamma4 = {kind:6s}: residual spinor zero? {res.is_zero()}")

print()
print("== Clifford image of the basis forms ==")
img = dirac.clifford_image(1, GAMMA4_ZERO)
print("tau^1_c entries (row 0):",
      [img.terms.get((0, c), MomentumElement.zero()).render() for c in range(4)])
limit = img.map_coeffs(lambda p: p.kappa_expand(0))
print("tau^1_c at kappa order 0 equals gamma^1?",
      limit == dirac.op_from_matrix(dirac.GAMMA1, MomentumElement.one()))

print()
print("== antihermiticity of the components ==")
for i, text in dirac.check_antihermiticity():
    print(f"star(del_{i}) + del_{i} =", text)
