"""Deformed U(1) gauge sector: connection, curvature, transformations,
invariants, field equations and the classical limit.

A configuration is five potentials A_0..A_4 in the coordinate algebra
plus a charge g.  The field strength is implemented in two conventions:

    literal:  F_ij = del_i(A_j) - del_j(A_i) + i   A_k [f^k_i(A_j) - f^k_j(A_i)]
    charged:  F_ij = del_i(A_j) - del_j(A_i) + i g A_k [f^k_i(A_j) - f^k_j(A_i)]

The literal form is the published one; the charged form is what the
curvature two-form Omega = d omega + g omega ^ omega extracts for any g
(with the i<j normalization i F_ij tau^i ^ tau^j = Omega) and what makes
the covariant-derivative commutator identity exact for any g.  The two
coincide at g = 1, where the covariance suite runs with zero residuals.

Every index contraction of products -- the sum over k in F_ij, the
divergence correction, the invariants C and C_pm, the covariance
right-hand sides and the unitarity collapse -- is one `minkowski.dot`
per output component, with factors shared by all terms (U F_kl, U
nabla_m F^{mn}) multiplied once outside the index loops.  The mixed-word
sums of the covariant derivative and its commutator identity are one
`HeisenbergElement.dot` each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .action import HeisenbergElement, act_f, act_f_lowered, act_derivative
from .forms import OneForm, TwoForm
from .minkowski import PositionElement, dot
from .momentum import METRIC5, derivatives, f_matrix
from .scalars import I, ONE, ScalarValue
from .terms import IndexedMap, accumulate


@dataclass(frozen=True)
class GaugeConfig:
    """Five gauge potentials plus the gauge charge."""

    A: tuple
    g: ScalarValue = ONE

    def __post_init__(self):
        if len(self.A) != 5:
            raise ValueError("a gauge configuration carries five potentials")
        g = ScalarValue._coerce(self.g)
        if g is NotImplemented:
            raise ValueError(f"the charge must be a scalar, not {type(self.g).__name__}")
        object.__setattr__(self, "g", g)  # equal charges hash equal

    @staticmethod
    def from_potentials(*A, g=ONE):
        pots = list(A) + [PositionElement.zero()] * (5 - len(A))
        return GaugeConfig(tuple(pots), g)

    def connection_form(self):
        """omega = i A_k tau^k."""
        return OneForm.collect((k, a.scale(I)) for k, a in enumerate(self.A))


def read_config_text(text):
    """Parse a plain-text fixture: lines `A0..A4 = <expr>` and `g = <expr>`.

    Missing potentials default to zero; the charge defaults to one.
    """
    from .expr import evaluate_text

    pots = {f"A{k}": PositionElement.zero() for k in range(5)}
    charge = ONE
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected `name = expression`")
        name, rhs = (part.strip() for part in line.split("=", 1))
        value = evaluate_text(rhs)
        if name == "g":
            if not isinstance(value, ScalarValue):
                raise ValueError(f"line {lineno}: the charge must be a scalar")
            charge = value
        elif name in pots:
            if isinstance(value, ScalarValue):
                value = PositionElement.scalar(value)
            if not isinstance(value, PositionElement):
                raise ValueError(f"line {lineno}: {name} must be a position element")
            pots[name] = value
        else:
            raise ValueError(f"line {lineno}: unknown field {name!r}")
    return GaugeConfig(tuple(pots[f"A{k}"] for k in range(5)), charge)


def check_unitary(u):
    """U U* = U* U = 1 in the coordinate algebra."""
    one = PositionElement.one()
    return (u * u.star()) == one and (u.star() * u) == one


def _require_unitary(u):
    if not check_unitary(u):
        raise ValueError("gauge transformations need a unitary element")


def render_strength(strength):
    """`F[i,j] = ...` for each stored i < j component of a strength
    two-form, joined by `; `."""
    if strength.is_zero():
        return "0"
    return "; ".join(
        f"F[{i},{j}] = {v.render()}" for (i, j), v in sorted(strength.terms.items())
    )


@lru_cache(maxsize=64)
def field_strength(cfg, charged=False):
    """F_ij = del_i(A_j) - del_j(A_i) + i [g] A_k [f^k_i(A_j) - f^k_j(A_i)].

    `charged=False` is the published convention (no charge in the
    quadratic term); `charged=True` inserts it.  Returns the TwoForm with
    components F_ij, i < j.  Memoised per (cfg, charged): the covariance
    checks ask for the same strength several times.
    """
    A = cfg.A
    quad_factor = I * cfg.g if charged else I
    dA = [[act_derivative(i, A[j]) for j in range(5)] for i in range(5)]
    out = {}
    for i in range(5):
        for j in range(i + 1, 5):
            quad = dot((A[k], act_f(k, i, A[j]) - act_f(k, j, A[i])) for k in range(5))
            accumulate(out, (i, j), dA[i][j] - dA[j][i] + quad.scale(quad_factor))
    return TwoForm(out)


def curvature_form(cfg):
    """Omega = d omega + g omega ^ omega via the forms module."""
    omega = cfg.connection_form()
    return omega.exterior_d() + omega.wedge(omega).scale(cfg.g)


def extract_strength(two_form):
    """Components from i F_ij tau^i ^ tau^j = Omega with the i<j sum."""
    return two_form.scale(-I)


def curvature_cross_check(cfg):
    """Compare the Omega route against both strength conventions.

    Returns (residual vs charged, residual vs literal) as TwoForms; the
    charged residual is identically zero for any g.
    """
    omega_f = extract_strength(curvature_form(cfg))
    return (omega_f - field_strength(cfg, charged=True),
            omega_f - field_strength(cfg, charged=False))


@lru_cache(maxsize=64)
def gauge_transform(cfg, u):
    """A_k -> U A_j f^j_k(U*) - (i/g) U del_k(U*).  Memoised per (cfg, u)."""
    _require_unitary(u)
    ustar = u.star()
    inv_g = cfg.g.inverse()
    u_a = [(j, u * a) for j, a in enumerate(cfg.A) if not a.is_zero()]
    new_A = []
    for k in range(5):
        acc = dot((uaj, act_f(j, k, ustar)) for j, uaj in u_a)
        new_A.append(acc - (u * act_derivative(k, ustar)).scale(I * inv_g))
    return GaugeConfig(tuple(new_A), cfg.g)


def check_f_covariance(cfg, u, charged=False):
    """Residual TwoForm of F~_ij = U F_kl f^k_i(f^l_j(U*))."""
    _require_unitary(u)
    ustar = u.star()
    f_old = field_strength(cfg, charged=charged)
    f_new = field_strength(gauge_transform(cfg, u), charged=charged)
    u_f = {(k, l): u * fk for k in range(5) for l in range(5)
           if not (fk := f_old.component(k, l)).is_zero()}
    rhs = {}
    for i in range(5):
        for j in range(i + 1, 5):
            accumulate(rhs, (i, j), dot(
                (ufkl, act_f(k, i, act_f(l, j, ustar))) for (k, l), ufkl in u_f.items()
            ))
    return f_new - TwoForm(rhs)


# -- covariant derivatives as mixed-word operators ------------------------------


def covariant_derivative_op(cfg, k, charged=True):
    """nabla_k = del_k + i g A_j f^j_k as a normal-ordered mixed word."""
    f, ig = f_matrix(), I * cfg.g
    quad = HeisenbergElement.dot(
        (HeisenbergElement.from_position(A_j.scale(ig)), HeisenbergElement.from_momentum(f[j][k]))
        for j, A_j in enumerate(cfg.A) if not A_j.is_zero())
    return HeisenbergElement.from_momentum(derivatives()[k]) + quad


def apply_covariant_derivative(cfg, k, a):
    """nabla_k acting on an algebra element."""
    quad = dot((A_j, act_f(j, k, a)) for j, A_j in enumerate(cfg.A) if not A_j.is_zero())
    return act_derivative(k, a) + quad.scale(I * cfg.g)


def check_commutator_identity(cfg, i, j):
    """[nabla_i, nabla_j] - i g F_mn f^m_i f^n_j with the charged strength.

    Exact as an identity between normal-ordered mixed words for any g.
    """
    nb_i = covariant_derivative_op(cfg, i)
    nb_j = covariant_derivative_op(cfg, j)
    lhs = nb_i * nb_j - nb_j * nb_i
    f = f_matrix()
    strength = field_strength(cfg, charged=True)
    rhs = HeisenbergElement.dot(
        (HeisenbergElement.from_position(fmn),
         HeisenbergElement.from_momentum(f[m][i] * f[n][j]))
        for m in range(5) for n in range(5)
        if not (fmn := strength.component(m, n)).is_zero())
    return lhs - rhs.scale(I * cfg.g)


def check_bianchi(cfg, i, j, k):
    """Cyclic sum of nested covariant-derivative commutators (Jacobi)."""
    ops = [covariant_derivative_op(cfg, idx) for idx in (i, j, k)]
    a, b, c = ops
    acc = a.commutator(b.commutator(c))
    acc = acc + c.commutator(a.commutator(b))
    acc = acc + b.commutator(c.commutator(a))
    return acc


# -- divergence and invariants ---------------------------------------------------


@lru_cache(maxsize=64)
def divergence(cfg, charged=False):
    """nabla_m F^{mk} = del_m F^{mk} + i g (A_j f^j_m(F^{mk})
    - F^{mn} f_m^j(f_n^k(A_j))), as an IndexedMap keyed by k.  Memoised
    per (cfg, charged), like `field_strength`."""
    strength = field_strength(cfg, charged=charged)
    raised = {(m, n): strength.raised(m, n) for m in range(5) for n in range(5)}
    neg_raised = {mn: -f for mn, f in raised.items() if not f.is_zero()}
    out = {}
    for k in range(5):
        acc = PositionElement.zero()
        for m in range(5):
            fmk = raised[m, k]
            if fmk.is_zero():
                continue
            acc = acc + act_derivative(m, fmk)
        pairs = []
        for j in range(5):
            if cfg.A[j].is_zero():
                continue
            for m in range(5):
                fmk = raised[m, k]
                if not fmk.is_zero():
                    pairs.append((cfg.A[j], act_f(j, m, fmk)))
            for (m, n), neg_fmn in neg_raised.items():
                pairs.append((neg_fmn, act_f_lowered(m, j, act_f_lowered(n, k, cfg.A[j]))))
        accumulate(out, k, acc + dot(pairs).scale(I * cfg.g))
    return IndexedMap(out)


def check_divergence_covariance(cfg, u, charged=False):
    """Residual, keyed by k, of nabla~_m F~^{mk} = U nabla_m F^{mn} f_n^k(U*)."""
    _require_unitary(u)
    ustar = u.star()
    div_old = divergence(cfg, charged=charged)
    div_new = divergence(gauge_transform(cfg, u), charged=charged)
    u_div = [(n, u * div_n) for n, div_n in div_old.terms.items()]
    rhs = IndexedMap.collect(
        (k, dot((udn, act_f_lowered(n, k, ustar)) for n, udn in u_div)) for k in range(5)
    )
    return div_new - rhs


@lru_cache(maxsize=64)
def invariants(cfg, charged=False):
    """C = F^{ij} F*_ij, C_+ = F_ij f^i_k(f^j_l(F^{kl})),
    C_- = f^i_k(f^j_l(F*_ij)) F^{kl}*.  Memoised per (cfg, charged), like
    `field_strength`."""
    strength = field_strength(cfg, charged=charged)
    # (F_ij, F^ij, F_ij*, F^ij*) for each nonzero component, in (i, j) order.
    comps = {}
    for i in range(5):
        for j in range(5):
            f_low = strength.component(i, j)
            if not f_low.is_zero():
                f_up = strength.raised(i, j)
                comps[i, j] = (f_low, f_up, f_low.star(), f_up.star())
    plus, minus = [], []
    for (i, j), (f_low, _, f_low_star, _) in comps.items():
        for (k, l), (_, fkl_up, _, fkl_up_star) in comps.items():
            plus.append((f_low, act_f(i, k, act_f(j, l, fkl_up))))
            minus.append((act_f(i, k, act_f(j, l, f_low_star)), fkl_up_star))
    c = dot((f_up, f_low_star) for f_low, f_up, f_low_star, _ in comps.values())
    return c, dot(plus), dot(minus)


def check_invariant_covariance(cfg, u, charged=False):
    """Residuals of C~ = U C U* and C~_pm = U C_pm U*, plus C_- - C_+*,
    keyed by name."""
    _require_unitary(u)
    old = invariants(cfg, charged=charged)
    new = invariants(gauge_transform(cfg, u), charged=charged)
    items = [(name, n - (u * o * u.star()))
             for name, o, n in zip(("C", "C_plus", "C_minus"), old, new)]
    items.append(("C_minus - star(C_plus)", old[2] - old[1].star()))
    return IndexedMap.collect(items)


def _nested_f_lowered(a):
    """Table of f_k^i(f_l^j(a)), keyed by (k, l, i, j)."""
    inner = [[act_f_lowered(l, j, a) for j in range(5)] for l in range(5)]
    return {(k, l, i, j): act_f_lowered(k, i, inner[l][j])
            for k in range(5) for l in range(5) for i in range(5) for j in range(5)}


def check_star_collapse(u):
    """Residual, keyed by (k, l, u, v), of
    sum_ij f_k^i(f_l^j(U*)) f_i^u(f_j^v(U)) = delta_k^u delta_l^v."""
    _require_unitary(u)
    left = _nested_f_lowered(u.star())
    right = _nested_f_lowered(u)
    sums = IndexedMap.collect(
        ((k, l, uu, v), dot((left[k, l, i, j], right[i, j, uu, v])
                            for i in range(5) for j in range(5)))
        for k in range(5) for l in range(5) for uu in range(5) for v in range(5)
    )
    one = PositionElement.one()
    delta = IndexedMap({(k, l, k, l): one for k in range(5) for l in range(5)})
    return sums - delta


# -- classical limit --------------------------------------------------------------


def _classical_mul(a, b):
    """Commutative product of plane-wave-free polynomials: exponents add."""
    out = {}
    for (a1, d1, w1), c1 in a.terms.items():
        for (a2, d2, w2), c2 in b.terms.items():
            if not (w1.is_identity() and w2.is_identity()):
                raise ValueError("classical calculus needs polynomial elements")
            key = ((a1[0] + a2[0], a1[1] + a2[1], a1[2] + a2[2]), d1 + d2, w1)
            accumulate(out, key, c1 * c2)
    return PositionElement(out)


def _classical_partial(mu, a):
    """Formal partial derivative on the commuting monomial basis."""
    out = PositionElement.zero()
    for (ax, d, w), c in a.terms.items():
        if not w.is_identity():
            raise ValueError("classical calculus needs polynomial elements")
        if mu == 0:
            if d:
                out = out + PositionElement.monomial(ax, d - 1, w, c * ScalarValue.number(d))
        else:
            if ax[mu - 1]:
                na = list(ax)
                na[mu - 1] -= 1
                out = out + PositionElement.monomial(
                    tuple(na), d, w, c * ScalarValue.number(ax[mu - 1])
                )
    return out


def classical_lagrangian(cfg):
    """-1/4 F_{mu nu} F^{mu nu} + 1/2 del_mu A_4 del^mu A_4, computed with the
    independent commutative calculus from the same potentials."""
    from fractions import Fraction

    A = cfg.A
    f_cl = [[None] * 4 for _ in range(4)]
    for mu in range(4):
        for nu in range(4):
            f_cl[mu][nu] = _classical_partial(mu, A[nu]) - _classical_partial(nu, A[mu])
    acc = PositionElement.zero()
    for mu in range(4):
        for nu in range(4):
            up = f_cl[mu][nu].scale(METRIC5[mu] * METRIC5[nu])
            acc = acc + _classical_mul(f_cl[mu][nu], up)
    lagrangian = acc.scale(ScalarValue.number(Fraction(-1, 4)))
    for mu in range(4):
        da4 = _classical_partial(mu, A[4])
        if da4.is_zero():
            continue
        lagrangian = lagrangian + _classical_mul(da4, da4.scale(METRIC5[mu])).scale(
            ScalarValue.number(Fraction(1, 2))
        )
    return lagrangian


def classical_limit(cfg, charged=False):
    """Order-0 kappa expansion of -C/4 minus the classical Lagrangian.

    The configuration must be polynomial (no plane waves).
    """
    from fractions import Fraction

    for a in cfg.A:
        if a.has_waves():
            raise ValueError("the classical limit needs polynomial potentials")
    c, _cp, _cm = invariants(cfg, charged=charged)
    engine = c.scale(ScalarValue.number(Fraction(-1, 4))).map_coeffs(
        lambda s: s.kappa_expand(0)
    )
    return engine - classical_lagrangian(cfg)
