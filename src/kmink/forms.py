"""Bicovariant differential calculus: one-forms, two-forms, metric form.

One-forms are kept in left-coefficient canonical form a_i tau^i over the
five basis forms tau^0..tau^4; right coefficients exist only transiently,
re-expanded through the f-action

    tau^i a = f^i_j(a) tau^j.

The exterior derivative is d a = del_i(a) tau^i with d tau^i = 0, and the
basis wedges are antisymmetric, so two-forms store only i < j components:
a wedge or exterior derivative folds each (i, j) into its i < j slot, with
its sign, in one dict.  The index sums sum_i a_i f^i_j(b) of `right_mul`
and `wedge` are each one `minkowski.dot`, which expands each distinct
monomial pair once.
"""

from __future__ import annotations

from fractions import Fraction

from .action import act_derivative, act_f
from .minkowski import PositionElement, dot
from .momentum import METRIC5
from .scalars import I, ScalarValue
from .terms import IndexedMap, TermMap


class OneForm(IndexedMap):
    """Left-coefficient expansion sum_i a_i tau^i: `terms` maps i to a
    nonzero PositionElement a_i."""

    __slots__ = ()

    @staticmethod
    def basis(i):
        return OneForm({i: PositionElement.one()})

    def right_mul(self, b):
        """omega * b = (sum_i a_i f^i_j(b)) tau^j via the f-action."""
        rows = [(a, [act_f(i, j, b) for j in range(5)]) for i, a in self.terms.items()]
        return OneForm.collect((j, dot((a, fb[j]) for a, fb in rows)) for j in range(5))

    def star(self):
        """(a_i tau^i)* = f^i_j(a_i*) tau^j; the tau^i are hermitian."""
        starred = [(i, a.star()) for i, a in self.terms.items()]
        return OneForm.collect((j, fb) for i, astar in starred for j in range(5)
                               if (fb := act_f(i, j, astar)).terms)

    def wedge(self, other):
        """(a_i tau^i) ^ (b_j tau^j) = a_i f^i_k(b_j) tau^k ^ tau^j; the
        (k, j) and (j, k) sums fold into one with k < j."""
        neg = {i: -a for i, a in self.terms.items()}
        pairs = {}
        for j, b in other.terms.items():
            for i, a in self.terms.items():
                for k in range(5):
                    if k != j:
                        key, left = ((k, j), a) if k < j else ((j, k), neg[i])
                        pairs.setdefault(key, []).append((left, act_f(i, k, b)))
        return TwoForm({key: v for key, p in pairs.items() if (v := dot(p)).terms})

    def exterior_d(self):
        """d(a_i tau^i) = del_j(a_i) tau^j ^ tau^i, using d tau^i = 0; each
        (j, i) folds into canonical j < i storage with its sign."""
        folds = [(j, i, act_derivative(j, a)) for i, a in self.terms.items()
                 for j in range(5) if j != i]
        return TwoForm.collect(((j, i), da) if j < i else ((i, j), -da) for j, i, da in folds)

    render = TermMap.render  # a ` + ` sum of terms, not a `key: value` list

    def _render_term(self, i, c):
        return f"({c.render()}) * tau[{i}]"


class TwoForm(TermMap):
    """Strictly upper-triangular components over tau^i ^ tau^j, i < j:
    `terms` maps (i, j) to a nonzero PositionElement."""

    __slots__ = ()

    def entries(self, raised=False):
        """{(i, j): F_ij} over both orders of each stored component, (j, i)
        the negation of (i, j); with `raised`, F^ij, which carries the real
        metric sign METRIC5[i] * METRIC5[j]."""
        out = {}
        for (i, j), f in self.terms.items():
            if raised and METRIC5[i] != METRIC5[j]:
                f = -f
            out[i, j], out[j, i] = f, -f
        return out

    def _render_term(self, key, c):
        i, j = key
        return f"({c.render()}) * tau[{i}]^tau[{j}]"


def exterior_d(a):
    """d a = del_i(a) tau^i."""
    return OneForm.collect((i, act_derivative(i, a)) for i in range(5))


def check_metric_centrality(a):
    """Residual tensor of s^2 a - a s^2, commuting a through both legs,
    keyed by (l, k).

    (tau^i (x) tau^j) a = f^i_l(f^j_k(a)) tau^l (x) tau^k, so the (l, k)
    component of s^2 a is sum_i METRIC5[i] f^i_l(f^i_k(a)).
    """
    inners = [[act_f(i, k, a) for i in range(5)] for k in range(5)]
    s2_a = IndexedMap.collect(((l, k), outer.scale(METRIC5[i]))
                              for l in range(5) for k in range(5)
                              for i, inner in enumerate(inners[k])
                              if inner.terms and (outer := act_f(i, l, inner)).terms)
    a_s2 = IndexedMap.collect(((l, l), a.scale(METRIC5[l])) for l in range(5))
    return s2_a - a_s2


def tau4_candidate(c):
    """(i kappa / 4) * ([tau^mu, x_mu] + c * tau^0) as a OneForm."""
    acc = OneForm()
    for mu in range(4):
        x_mu = PositionElement.x(mu).scale(METRIC5[mu])
        tau_mu = OneForm.basis(mu)
        acc = acc + (tau_mu.right_mul(x_mu) - tau_mu.left_mul(x_mu))
    acc = acc + OneForm.basis(0).scale(c)
    quarter_ik = ScalarValue.number(Fraction(1, 4)) * I * ScalarValue.kappa(1)
    return acc.scale(quarter_ik)


def check_tau4_definition():
    """Evaluate the tau^4 recipe for the literal and corrected coefficients.

    Returns (literal_residual, corrected_residual) as OneForms relative to
    tau^4; the corrected coefficient 3i/kappa reproduces tau^4 exactly.
    """
    literal = tau4_candidate(ScalarValue.number(0, Fraction(3, 4)))
    corrected = tau4_candidate(ScalarValue.number(0, 3) * ScalarValue.kappa(-1))
    tau4 = OneForm.basis(4)
    return literal - tau4, corrected - tau4
