#!/usr/bin/env python3
"""The dual momentum algebra and its deformed coproduct.

Momenta commute, but the coproduct twists the spatial directions by
exp(-P_0/kappa).  The f-matrix built from these elements controls the
whole differential calculus; its orthogonality and coproduct systems
are certified here entry by entry.
"""

from kmink import MomentumElement, box, derivatives, f_matrix, vector_fields
from kmink.momentum import box_identities, f_coproducts, f_orthogonality

P = [MomentumElement.P(mu) for mu in range(4)]

print("== deformed coproduct ==")
print("coproduct(P0) =", P[0].coproduct().render())
print("coproduct(P1) =", P[1].coproduct().render())
print("antipode(P1)  =", P[1].antipode().render())

print()
print("== the f-matrix (a sample of entries) ==")
f = f_matrix()
for (i, j) in ((0, 0), (0, 1), (1, 0), (4, 0), (0, 4), (4, 4)):
    print(f"f[{i},{j}] =", f[i][j].render())

print()
print("== derivatives and vector fields ==")
d = derivatives()
e = vector_fields()
print("del[0] =", d[0].render())
print("del[1] =", d[1].render())
print("del[4] =", d[4].render())
print("e[0]   =", e[0].render())
print("e[4]   =", e[4].render())

print()
print("== certified identity systems ==")
records = [*f_orthogonality(), *f_coproducts()]
bad = [r for r in records if not r[2].is_zero()]
print(f"orthogonality + coproduct systems: {len(records)} identities,"
      f" {len(bad)} failures")

box_checks = {eq: residual for _id, eq, residual in box_identities()}
print(f"eq 1.12: box = kappa^2 + (e^4)^2: residual = {box_checks['1.12'].render()}")
print(f"eq 2.9: del_0^2 - sum del_m^2 = box: residual = {box_checks['2.9'].render()}")
print("eq derived-convention: box at kappa order 0 (sign convention: -(P_0^2 - P^2)):"
      f" residual = {box().kappa_expand(0).render()}")

print()
print("== the wave operator ==")
print("box                    =", box().render())
print("box at kappa order 0   =", box().kappa_expand(0).render())
print("  (minus the classical wave-operator symbol P0^2 - P^2)")
