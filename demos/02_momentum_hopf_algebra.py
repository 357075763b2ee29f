#!/usr/bin/env python3
"""The dual momentum algebra and its deformed coproduct.

Momenta commute, but the coproduct twists the spatial directions by
exp(-P_0/kappa).  The f-matrix built from these elements controls the
whole differential calculus; its orthogonality and coproduct systems
are certified here entry by entry.
"""

from kmink import MomentumElement, box, derivatives, f_matrix, vector_fields
from kmink.momentum import verify_box_identities, verify_f_identities

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
records = verify_f_identities()
bad = [r for r in records if not r[2].is_zero()]
print(f"orthogonality + coproduct systems: {len(records)} identities,"
      f" {len(bad)} failures")

for name, eq, residual in verify_box_identities():
    print(f"eq {eq}: {name}: residual = {residual.render()}")

print()
print("== the wave operator ==")
print("box                    =", box().render())
print("box at kappa order 0   =", box().kappa_expand(0).render())
print("  (minus the classical wave-operator symbol P0^2 - P^2)")
