"""Deformed U(1) gauge sector: connection, curvature, transformations,
invariants, field equations and the classical limit.

A configuration is five potentials A_0..A_4 in the coordinate algebra
plus a charge g.  Its field strength carries the charge:

    F_ij = del_i(A_j) - del_j(A_i) + i g A_k [f^k_i(A_j) - f^k_j(A_i)]

It is what the curvature two-form Omega = d omega + g omega ^ omega
extracts for any g (with the i<j normalization i F_ij tau^i ^ tau^j =
Omega), what makes the covariant-derivative commutator identity exact
and what transforms covariantly under A_k -> U A_j f^j_k(U*) - (i/g)
U del_k(U*).  The published form, with no charge in the quadratic term,
is the strength of the same potentials at g = 1:
`field_strength(GaugeConfig(cfg.A))`.

The gauge transformation and the F-covariance right-hand side are the
bimodule products of `forms`: A_k tau^k -> (U A_k tau^k) U* - (i/g) U dU*
and F -> (U F) U*.  Every other index contraction -- the sum over k in
F_ij, the divergence, the invariants C and C_pm and the unitarity
collapse -- is one `minkowski.dot` per output component, a factor shared
by all terms (U nabla_m F^{mn}) multiplied once.  A strength is read
through `TwoForm.entries`, both orders of its stored components, so each
is starred once.  `divergence`, `invariants` and the star collapse keep
their nested f-actions f^i_k(f^j_l(X)) in a `terms.memo` of their own.
The mixed-word sums are one `HeisenbergElement.dot` each.
"""

from __future__ import annotations

from .action import HeisenbergElement, act_f, act_f_lowered, act_derivative
from .forms import OneForm, TwoForm, exterior_d
from .minkowski import PositionElement, dot
from .momentum import METRIC5, derivatives, f_matrix
from .scalars import I, ONE, ScalarValue
from .terms import IndexedMap, Record, memo


class GaugeConfig(Record):
    """Five gauge potentials A plus the gauge charge g."""

    __slots__ = ("A", "g")

    def __init__(self, A, g=ONE):
        if len(A) != 5:
            raise ValueError("a gauge configuration carries five potentials")
        charge = ScalarValue._coerce(g)
        if charge is NotImplemented:
            raise ValueError(f"the charge must be a scalar, not {type(g).__name__}")
        super().__init__(tuple(A), charge)  # equal charges hash equal

    def connection_form(self):
        """omega = i A_k tau^k."""
        return OneForm.collect((k, a.scale(I)) for k, a in enumerate(self.A))


def read_config_text(text):
    """Parse a plain-text fixture: lines `A0..A4 = <expr>` and `g = <expr>`.

    Missing potentials default to zero; the charge defaults to one.  A field
    given twice is an error.  Every error names its line, and a syntax error
    its column within that line.
    """
    from .expr import ExprError, evaluate, parse

    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0]
        if not code.strip():
            continue
        if "=" not in code:
            raise ValueError(f"line {lineno}: expected `name = expression`")
        name, rhs = code.split("=", 1)
        offset = len(code) - len(rhs.lstrip())  # of the expression in the line
        name, rhs = name.strip(), rhs.strip()
        if name in fields:
            raise ValueError(f"line {lineno}: {name} is given twice")
        try:
            tree = parse(rhs)
        except ExprError as exc:  # positioned within `rhs`
            pos = offset + exc.pos
            raise ExprError(exc.message, pos, (lineno, pos + 1)) from None
        try:
            value = evaluate(tree)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if name == "g":
            if not isinstance(value, ScalarValue):
                raise ValueError(f"line {lineno}: the charge must be a scalar")
        elif name in ("A0", "A1", "A2", "A3", "A4"):
            if isinstance(value, ScalarValue):
                value = PositionElement.scalar(value)
            if not isinstance(value, PositionElement):
                raise ValueError(f"line {lineno}: {name} must be a position element")
        else:
            raise ValueError(f"line {lineno}: unknown field {name!r}")
        fields[name] = value
    return GaugeConfig(tuple(fields.get(f"A{k}", PositionElement.zero()) for k in range(5)),
                       fields.get("g", ONE))


def _require_unitary(u):
    """U U* = U* U = 1 in the coordinate algebra, or a ValueError."""
    one, ustar = PositionElement.one(), u.star()
    if u * ustar != one or ustar * u != one:
        raise ValueError("gauge transformations need a unitary element")


def render_strength(strength):
    """`F[i,j] = ...` for each stored i < j component of a strength
    two-form, joined by `; `."""
    if strength.is_zero():
        return "0"
    return "; ".join(
        f"F[{i},{j}] = {v.render()}" for (i, j), v in sorted(strength.terms.items())
    )


@memo
def field_strength(cfg):
    """F_ij = del_i(A_j) - del_j(A_i) + i g A_k [f^k_i(A_j) - f^k_j(A_i)].

    Returns the TwoForm with components F_ij, i < j.  Memoised per cfg: the
    covariance checks ask for the same strength several times.
    """
    A = cfg.A
    quad_factor = I * cfg.g
    dA = [[act_derivative(i, A[j]) for j in range(5)] for i in range(5)]
    return TwoForm.collect(
        ((i, j), dA[i][j] - dA[j][i]
         + dot((A[k], act_f(k, i, A[j]) - act_f(k, j, A[i])) for k in range(5)).scale(quad_factor))
        for i in range(5) for j in range(i + 1, 5))


def curvature_form(cfg):
    """Omega = d omega + g omega ^ omega via the forms module."""
    omega = cfg.connection_form()
    return omega.exterior_d() + omega.wedge(omega).scale(cfg.g)


def curvature_cross_check(cfg):
    """Compare the components read off i F_ij tau^i ^ tau^j = Omega (the
    i<j sum) with the strength and with the published form.

    Returns (residual vs strength, residual vs published form) as TwoForms;
    the first is identically zero for any g.
    """
    omega_f = curvature_form(cfg).scale(-I)
    return omega_f - field_strength(cfg), omega_f - field_strength(GaugeConfig(cfg.A))


@memo
def gauge_transform(cfg, u):
    """A_k tau^k -> (U A_k tau^k) U* - (i/g) U dU*.  Memoised per (cfg, u)."""
    _require_unitary(u)
    ustar = u.star()
    try:
        inv_g = cfg.g.inverse()
    except ValueError:
        raise ValueError("gauge transformations need an invertible charge, "
                         f"not g = {cfg.g.render()}") from None
    moved = (OneForm.collect(enumerate(cfg.A)).left_mul(u).right_mul(ustar)
             - exterior_d(ustar).left_mul(u).scale(I * inv_g))
    return GaugeConfig(tuple(moved.terms.get(k, PositionElement.zero()) for k in range(5)), cfg.g)


def check_f_covariance(cfg, u):
    """Residual TwoForm of F~ = (U F) U*: F~_ij = U F_kl f^k_i(f^l_j(U*))."""
    moved = field_strength(gauge_transform(cfg, u))
    return moved - field_strength(cfg).left_mul(u).right_mul(u.star())


# -- covariant derivatives as mixed-word operators ------------------------------


def covariant_derivative_op(cfg, k):
    """nabla_k = del_k + i g A_j f^j_k as a normal-ordered mixed word."""
    f, ig = f_matrix(), I * cfg.g
    quad = HeisenbergElement.dot(
        (HeisenbergElement.from_position(A_j.scale(ig)), HeisenbergElement.from_momentum(f[j][k]))
        for j, A_j in enumerate(cfg.A) if not A_j.is_zero())
    return HeisenbergElement.from_momentum(derivatives()[k]) + quad


def check_commutator_identity(cfg, i, j):
    """[nabla_i, nabla_j] - i g F_mn f^m_i f^n_j.

    Exact as an identity between normal-ordered mixed words for any g.
    """
    nb_i = covariant_derivative_op(cfg, i)
    nb_j = covariant_derivative_op(cfg, j)
    lhs = nb_i * nb_j - nb_j * nb_i
    f = f_matrix()
    rhs = HeisenbergElement.dot(
        (HeisenbergElement.from_position(fmn),
         HeisenbergElement.from_momentum(f[m][i] * f[n][j]))
        for (m, n), fmn in field_strength(cfg).entries().items())
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


@memo
def divergence(cfg):
    """nabla_m F^{mk} = del_m F^{mk} + i g (A_j f^j_m(F^{mk})
    - F^{mn} f_m^j(f_n^k(A_j))), as an IndexedMap keyed by k.  Memoised
    per cfg, like `field_strength`."""
    raised = field_strength(cfg).entries(raised=True)
    acts = memo(act_f_lowered)
    items = []
    for k in range(5):
        column = [(m, raised[m, k]) for m in range(5) if (m, k) in raised]
        acc = PositionElement.zero()
        for m, fmk in column:
            acc = acc + act_derivative(m, fmk)
        pairs = []
        for j, a_j in enumerate(cfg.A):
            if a_j.is_zero():
                continue
            pairs.extend((a_j, act_f(j, m, fmk)) for m, fmk in column)
            # -F^{mn} f_m^j(f_n^k(A_j)), summed as F^{nm} f_m^j(f_n^k(A_j))
            pairs.extend((f_nm, acts(m, j, acts(n, k, a_j))) for (n, m), f_nm in raised.items())
        items.append((k, acc + dot(pairs).scale(I * cfg.g)))
    return IndexedMap.collect(items)


def check_divergence_covariance(cfg, u):
    """Residual, keyed by k, of nabla~_m F~^{mk} = U nabla_m F^{mn} f_n^k(U*)."""
    div_new = divergence(gauge_transform(cfg, u))
    ustar = u.star()
    u_div = [(n, u * div_n) for n, div_n in divergence(cfg).terms.items()]
    rhs = IndexedMap.collect(
        (k, dot((udn, act_f_lowered(n, k, ustar)) for n, udn in u_div)) for k in range(5)
    )
    return div_new - rhs


@memo
def invariants(cfg):
    """C = F^{ij} F*_ij, C_+ = F_ij f^i_k(f^j_l(F^{kl})),
    C_- = f^i_k(f^j_l(F*_ij)) F^{kl}*.  Memoised per cfg, like
    `field_strength`."""
    strength = field_strength(cfg)
    starred = strength.map_coeffs(lambda f: f.star())  # each stored F_ij once
    low, up = strength.entries(), strength.entries(raised=True)
    low_star, up_star = starred.entries(), starred.entries(raised=True)
    acts = memo(act_f)
    plus, minus = [], []
    for (i, j), f_low in low.items():
        for (k, l), fkl_up in up.items():
            plus.append((f_low, acts(i, k, acts(j, l, fkl_up))))
            minus.append((acts(i, k, acts(j, l, low_star[i, j])), up_star[k, l]))
    c = dot((up[ij], low_star[ij]) for ij in low)
    return c, dot(plus), dot(minus)


def check_invariant_covariance(cfg, u):
    """Residuals of C~ = U C U* and C~_pm = U C_pm U*, plus C_- - C_+*,
    keyed by name."""
    new = invariants(gauge_transform(cfg, u))
    old = invariants(cfg)
    ustar = u.star()
    items = [(name, n - (u * o * ustar))
             for name, o, n in zip(("C", "C_plus", "C_minus"), old, new)]
    items.append(("C_minus - star(C_plus)", old[2] - old[1].star()))
    return IndexedMap.collect(items)


def _nested_f_lowered(a):
    """Table of f_k^i(f_l^j(a)), keyed by (k, l, i, j)."""
    acts = memo(act_f_lowered)
    return {(k, l, i, j): acts(k, i, acts(l, j, a))
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
    if a.has_waves() or b.has_waves():
        raise ValueError("classical calculus needs polynomial elements")
    return PositionElement.collect(
        (((a1[0] + a2[0], a1[1] + a2[1], a1[2] + a2[2]), d1 + d2, w1), c1 * c2)
        for (a1, d1, w1), c1 in a.terms.items() for (a2, d2, _w2), c2 in b.terms.items())


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


def classical_limit(cfg):
    """Order-0 kappa expansion of -C/4 minus the classical Lagrangian.

    The configuration must be polynomial (no plane waves).
    """
    from fractions import Fraction

    for a in cfg.A:
        if a.has_waves():
            raise ValueError("the classical limit needs polynomial potentials")
    c, _cp, _cm = invariants(cfg)
    engine = c.scale(ScalarValue.number(Fraction(-1, 4))).map_coeffs(
        lambda s: s.kappa_expand(0)
    )
    return engine - classical_lagrangian(cfg)
