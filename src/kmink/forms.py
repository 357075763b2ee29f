"""Bicovariant differential calculus: the bimodule of one- and two-forms.

One-forms are kept in left-coefficient canonical form a_i tau^i over the
five basis forms tau^0..tau^4.  A right coefficient is re-expanded through
the f-action

    tau^i a = f^i_j(a) tau^j,

which only `OneForm.right_mul` and `TwoForm.right_mul` apply; the wedge,
the star and the metric check are built on them.  d a = del_i(a) tau^i
with d tau^i = 0.  The basis wedges are antisymmetric, so a two-form
stores only i < j components, and `TwoForm.collect` folds (j, i) into
-(i, j).  Each index sum of a `right_mul` is one `minkowski.dot`.
"""

from __future__ import annotations

from fractions import Fraction

from .action import act_derivative, act_f
from .minkowski import PositionElement, dot
from .momentum import METRIC5
from .scalars import I, ScalarValue
from .terms import IndexedMap, TermMap, memo


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
        """(a_i tau^i)* = tau^i a_i*; the tau^i are hermitian."""
        return sum((OneForm.basis(i).right_mul(a.star()) for i, a in self.terms.items()),
                   OneForm())

    def wedge(self, other):
        """omega ^ (b_j tau^j) = (omega b_j) ^ tau^j."""
        return TwoForm.collect(((k, j), c) for j, b in other.terms.items()
                               for k, c in self.right_mul(b).terms.items())

    def exterior_d(self):
        """d(a_i tau^i) = del_j(a_i) tau^j ^ tau^i, using d tau^i = 0."""
        return TwoForm.collect(((j, i), act_derivative(j, a)) for i, a in self.terms.items()
                               for j in range(5) if j != i)

    render = TermMap.render  # a ` + ` sum of terms, not a `key: value` list

    def _render_term(self, i, c):
        return f"({c.render()}) * tau[{i}]"


class TwoForm(IndexedMap):
    """Strictly upper-triangular components over tau^i ^ tau^j, i < j:
    `terms` maps (i, j) to a nonzero PositionElement."""

    __slots__ = ()

    @classmethod
    def collect(cls, items):
        """The sum of `((i, j), c)` pairs over tau^i ^ tau^j: a (j, i) pair
        with j > i counts as ((i, j), -c), and an (i, i) pair drops."""
        return super().collect(((i, j), c) if i < j else ((j, i), -c)
                               for (i, j), c in items if i != j)

    def right_mul(self, b):
        """(F_kl tau^k ^ tau^l) b = F_kl f^k_m(f^l_n(b)) tau^m ^ tau^n over
        the stored (k, l): one `dot` per m < n slot, which takes the (n, m)
        term with a minus sign; each nested action is computed once."""
        acts = memo(act_f)
        signed = [(k, l, f, -f) for (k, l), f in self.terms.items()]
        return TwoForm.collect(
            ((m, n), dot(pair for k, l, f, neg in signed
                         for pair in ((f, acts(k, m, acts(l, n, b))),
                                      (neg, acts(k, n, acts(l, m, b))))))
            for m in range(5) for n in range(m + 1, 5))

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

    render = TermMap.render  # a ` + ` sum of terms, not a `key: value` list

    def _render_term(self, key, c):
        i, j = key
        return f"({c.render()}) * tau[{i}]^tau[{j}]"


def exterior_d(a):
    """d a = del_i(a) tau^i."""
    return OneForm.collect((i, act_derivative(i, a)) for i in range(5))


def check_metric_centrality(a):
    """Residual tensor of s^2 a - a s^2, commuting a through both legs,
    keyed by (l, k): (tau^i (x) tau^i) a = f^i_l(f^i_k(a)) tau^l (x) tau^k,
    two right products by tau^i, so s^2 a is sum_i METRIC5[i] f^i_l(f^i_k(a))."""
    s2_a = IndexedMap.collect(((l, k), outer.scale(METRIC5[i]))
                              for i, tau_i in enumerate(map(OneForm.basis, range(5)))
                              for k, inner in tau_i.right_mul(a).terms.items()
                              for l, outer in tau_i.right_mul(inner).terms.items())
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
