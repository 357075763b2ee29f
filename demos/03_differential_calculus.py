#!/usr/bin/env python3
"""The five-dimensional bicovariant differential calculus.

One-forms need a fifth basis element tau^4 beyond the four dx^mu; the
basis forms do not commute with coordinates, and the commutation is
governed by the f-matrix action tau^i a = f^i_j(a) tau^j.
"""

from fractions import Fraction

from kmink import OneForm, PositionElement, ScalarValue, exterior_d
from kmink.forms import check_metric_centrality, check_tau4_definition

x = [PositionElement.x(mu) for mu in range(4)]
tau = [OneForm.basis(i) for i in range(5)]

print("== exterior derivative ==")
print("d(x0)    =", exterior_d(x[0]).render())
print("d(x0^2)  =", exterior_d(x[0] * x[0]).render())
print("  (note the tau[4] component: normal ordering leaks into the")
print("   fifth direction at order 1/kappa)")

print()
print("== forms do not commute with coordinates ==")
print("tau[0] * x0 =", tau[0].right_mul(x[0]).render())
print("tau[4] * x1 =", tau[4].right_mul(x[1]).render())

print()
print("== Leibniz rule, exactly ==")
a, b = x[0] * x[1], x[2]
lhs = exterior_d(a * b)
rhs = exterior_d(b).left_mul(a) + exterior_d(a).right_mul(b)
print("d(ab) - a db - (da) b =", (lhs - rhs).render())

print()
print("== d squared ==")
print("d(d(x0 * x1 * x0)) =",
      "0" if exterior_d(x[0] * x[1] * x[0]).exterior_d().is_zero() else "NONZERO")

print()
print("== the tau^4 recipe ==")
literal, corrected = check_tau4_definition()
print("corrected coefficient 3i/kappa: residual =", corrected.render())
print("published coefficient 3i/4:     residual =", literal.render())
print("  (the corrected coefficient reproduces tau[4] exactly; the")
print("   published one leaves the tau[0] component shown above)")

print()
print("== the metric form is central ==")
probe = x[1] * x[0] + x[2].scale(ScalarValue.number(Fraction(1, 2)))
residual = check_metric_centrality(probe)
print("s^2 a - a s^2 residual components:",
      "all zero" if residual.is_zero() else residual.render())
