"""Verification suites: every published identity re-derived exactly.

A suite `suite_<name>(cfg, check)` states each check as `check(check_id,
equation, value)`: a stable id, the equation tag it certifies, and a value.
A residual value (a term map, or a scalar) is asserted: it passes exactly
when zero, and a failure shows it rendered.  A `str` is `reported`: a
computed-but-not-asserted result, such as a documented discrepancy in the
published formulas, a convention reconciliation or a limit expansion.

`run_checks` alone turns those calls into records.  Each record's `wall_ms`
is the time since the previous record of its run, so a suite's first record
also pays for its set-up and for the caches it fills.  A suite that raises
keeps the records made before the raise, followed by one `fail` record,
`<suite>-raised`, whose residual is the exception's type and message.

Suites are deterministic in (seed, max_degree); records are
order-normalized so the machine-readable output is byte-identical across
runs.  Wall times are in the human table only; the JSON ledger has none.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from . import dirac, fuzz, gauge, momentum as mom
from .action import HeisenbergElement, act, act_derivative, act_f, word
from .forms import (
    OneForm,
    TwoForm,
    check_metric_centrality,
    check_tau4_definition,
    exterior_d,
)
from .minkowski import IMK, PlaneWave, PositionElement, PositionTensor, dot
from .scalars import I, ONE, ScalarValue
from .terms import IndexedMap, Record


class CheckRecord(Record):
    # status: "pass" | "fail" | "reported"
    __slots__ = ("suite", "check_id", "equation", "status", "residual", "wall_ms")
    DEFAULTS = {"residual": "0", "wall_ms": 0.0}


class RunConfig(Record):
    __slots__ = ("seed", "max_degree")
    DEFAULTS = {"seed": 42, "max_degree": 2}


# -- hopf ---------------------------------------------------------------------


def suite_hopf(cfg, check):
    rng = random.Random(cfg.seed)

    x = [PositionElement.x(mu) for mu in range(4)]
    one = PositionElement.one()

    for mu in range(4):
        delta = x[mu].coproduct()
        want = PositionTensor.outer(one, x[mu]) + PositionTensor.outer(x[mu], one)
        check(f"coproduct-x{mu}-primitive", "1.4", delta - want)
        check(f"counit-x{mu}", "1.4", x[mu].counit())
        check(f"antipode-x{mu}", "1.4", x[mu].antipode() + x[mu])

    res = (x[0] * x[1]).antipode() - x[1] * x[0]
    check("antipode-antihom-x0x1", "1.4", res)

    for n in range(6):
        a = fuzz.rand_position(rng, cfg.max_degree)
        back = a.coproduct().left_counit()
        check(f"counit-axiom-{n:02d}", "1.4", back - a)
        folded = a.coproduct().multiply_legs(lambda e: e.antipode())
        want = PositionElement.scalar(a.counit())
        check(f"antipode-axiom-{n:02d}", "1.4", folded - want)

    w1 = PositionElement.wave(PlaneWave.label(1))
    key = next(iter(w1.terms))
    delta = w1.coproduct()
    want = PositionTensor({(key, key): ONE})
    check("coproduct-wave-grouplike", "1.4", delta - want)
    check("coproduct-wave-series-oracle", "derived-convention", _grouplike_series_residual(3))

    p = [mom.MomentumElement.P(mu) for mu in range(4)]
    e_minus = mom.MomentumElement.exp_weight(-1)
    mone = mom.MomentumElement.one()

    delta = p[0].coproduct()
    want = mom.MomentumTensor.outer(p[0], mone) + mom.MomentumTensor.outer(mone, p[0])
    check("coproduct-P0-primitive", "1.5", delta - want)
    for m in (1, 2, 3):
        delta = p[m].coproduct()
        want = (mom.MomentumTensor.outer(p[m], mone)
                + mom.MomentumTensor.outer(e_minus, p[m]))
        check(f"coproduct-P{m}", "1.5", delta - want)
        res = p[m].antipode() + mom.MomentumElement.exp_weight(1) * p[m]
        check(f"antipode-P{m}", "1.5", res)
        res = p[m].antipode().antipode() - p[m]
        check(f"antipode-squared-P{m}", "1.5", res)
    check("antipode-P0", "1.5", p[0].antipode() + p[0])
    check("counit-P0sq-plus-3", "1.5", (p[0] * p[0] + mom.MomentumElement.scalar(3)).counit() - 3)

    f = mom.f_matrix()
    gens = [p[0], p[1], mom.MomentumElement.exp_weight(1)] + [f[i][j] for i in range(5) for j in range(5)]
    for idx, q in enumerate(gens):
        delta = q.coproduct()
        check(f"coassociativity-{idx:02d}", "1.5",
              delta.coproduct_left() - delta.coproduct_right())
    for idx, q in enumerate([p[0], p[1], p[2], p[3]] + [f[i][j] for i in range(5) for j in range(5)]):
        folded = q.coproduct().multiply_legs(lambda e: e.antipode())
        want = mom.MomentumElement.scalar(q.counit())
        check(f"antipode-axiom-mom-{idx:02d}", "1.5", folded - want)

    for n in range(6):
        a = fuzz.rand_momentum(rng, cfg.max_degree)
        b = fuzz.rand_momentum(rng, cfg.max_degree)
        res = (a * b).star() - a.star() * b.star()
        check(f"star-multiplicative-mom-{n:02d}", "1.5", res)

    for check_id, eq, residual in mom.f_coproducts():
        check(check_id, eq, residual)


def _grouplike_series_residual(order):
    """Order-`order` oracle: the coproduct of the truncated exponential of
    a label-1 wave minus the truncated outer square, term by term."""
    series = _truncated_wave(PlaneWave.label(1), order)
    delta = series.coproduct()
    square = PositionTensor.outer(series, series)
    return delta - square.map_coeffs(lambda v: v.filter_k_degree(order))


def _graded_wave(w, order):
    """Polynomial truncation of exp(i q.x) exp(i K x^0) to total momentum
    degree <= order, as its homogeneous pieces: entry n is
    sum over a + b = n of (i q.x)^a (i K x^0)^b / (a! b!)."""
    from math import factorial

    spatial_lin = PositionElement.zero()
    for m in (1, 2, 3):
        spatial_lin = spatial_lin + PositionElement.x(m).scale(I * w.spatial[m - 1])
    time_lin = PositionElement.x(0).scale(I * w.time_scalar())
    spows, tpows = [PositionElement.one()], [PositionElement.one()]
    for _ in range(order):
        spows.append(spows[-1] * spatial_lin)
        tpows.append(tpows[-1] * time_lin)
    graded = [PositionElement.zero()] * (order + 1)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            coeff = ScalarValue.number(Fraction(1, factorial(a) * factorial(b)))
            graded[a + b] = graded[a + b] + (spows[a] * tpows[b]).scale(coeff)
    return graded


def _truncated_wave(w, order):
    """The sum of `_graded_wave(w, order)`; the independent series oracle
    for plane-wave laws."""
    return sum(_graded_wave(w, order), PositionElement.zero())


def wave_product_series_residual(order=4):
    """Engine plane-wave product vs the order-`order` truncated-series
    oracle, compared term by term after kappa expansion and k-degree cut.

    The left side is the Cauchy product of the two graded series, the
    pieces with n1 + n2 <= order only.  That is exact: label waves carry no
    E symbols, so every coefficient of piece n has k-degree n, the
    coordinate product adds only powers of i/kappa, and k-degree adds; a
    product with n1 + n2 > order therefore lies wholly above the cut.
    """
    w1, w2 = PlaneWave.label(1), PlaneWave.label(2)
    g1, g2 = _graded_wave(w1, order), _graded_wave(w2, order)
    lhs = dot((g1[n1], g2[n2]) for n1 in range(order + 1) for n2 in range(order + 1 - n1))
    product = PositionElement.wave(w1) * PositionElement.wave(w2)
    (_a, _d, w12), coeff = next(iter(product.terms.items()))
    rhs = _truncated_wave(w12, order).scale(coeff)
    lhs = lhs.map_coeffs(lambda s: s.kappa_expand(order).filter_k_degree(order))
    rhs = rhs.map_coeffs(lambda s: s.kappa_expand(order).filter_k_degree(order))
    return lhs - rhs


# -- action ---------------------------------------------------------------------


def suite_action(cfg, check):
    rng = random.Random(cfg.seed + 1)

    x = [PositionElement.x(mu) for mu in range(4)]
    p = [mom.MomentumElement.P(mu) for mu in range(4)]

    for mu in range(4):
        for nu in range(4):
            lhs = word(x[mu], x[nu]) - word(x[nu], x[mu])
            rhs = HeisenbergElement.coerce(
                (x[nu].scale(IMK) if mu == 0 else PositionElement.zero())
                - (x[mu].scale(IMK) if nu == 0 else PositionElement.zero())
            )
            check(f"xx-commutator-{mu}{nu}", "1.2", lhs - rhs)

    for mu in range(4):
        for nu in range(4):
            lhs = word(p[mu], x[nu]) - word(x[nu], p[mu])
            if mu == 0:
                want = HeisenbergElement.coerce(
                    PositionElement.scalar(-I) if nu == 0 else PositionElement.zero()
                )
            elif nu == 0:
                want = HeisenbergElement.from_momentum(p[mu]).scale(IMK)
            else:
                want = HeisenbergElement.coerce(
                    PositionElement.scalar(-I) if mu == nu else PositionElement.zero()
                )
            check(f"cross-relation-P{mu}-x{nu}", "1.9", lhs - want)

    e_lam = mom.MomentumElement.exp_weight(1)
    lhs = word(e_lam, x[0]) - word(x[0], e_lam)
    want = HeisenbergElement.from_momentum(e_lam).scale(-IMK)
    check("cross-relation-Exp-x0", "1.9", lhs - want)
    lhs = word(e_lam, x[1]) - word(x[1], e_lam)
    check("cross-relation-Exp-x1", "1.9", lhs)

    for mu in range(4):
        for nu in range(4):
            got = act(p[mu], x[nu])
            want = PositionElement.scalar(-I) if mu == nu else PositionElement.zero()
            check(f"pairing-P{mu}-x{nu}", "1.6", got - want)

    w1 = PositionElement.wave(PlaneWave.label(1))
    for mu in range(4):
        got = act(p[mu], w1)
        want = w1.scale(ScalarValue.k(1, mu))
        check(f"wave-eigenvalue-P{mu}", "1.5", got - want)
    check("wave-unitarity", "0.11", w1 * w1.star() - PositionElement.one())
    check("wave-product-series-oracle", "1.5", wave_product_series_residual(4))

    f = mom.f_matrix()
    probes = [p[0], p[1], p[2], mom.derivatives()[0], mom.derivatives()[4],
              f[0][0], f[0][4], f[4][0], f[1][0]]
    for n in range(8):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True)
        b = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True)
        q = probes[rng.randrange(len(probes))]
        lhs = act(q, a * b)
        rhs = dot((act(mom.MomentumElement({kl: ONE}), a).scale(c),
                   act(mom.MomentumElement({kr: ONE}), b))
                  for (kl, kr), c in q.coproduct().terms.items())
        check(f"module-algebra-law-{n:02d}", "1.22", lhs - rhs)

    d = mom.derivatives()
    for i in range(5):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=False)
        lhs = word(d[i], a) - word(a, d[i])
        rhs = HeisenbergElement.dot(
            (HeisenbergElement.from_position(act_derivative(j, a)),
             HeisenbergElement.from_momentum(f[j][i])) for j in range(5))
        check(f"operator-identity-del{i}", "2.5", lhs - rhs)

    e = mom.vector_fields()
    for mu in range(4):
        for nu in range(4):
            lhs = word(e[mu], x[nu]) - word(x[nu], e[mu])
            term = mom.MomentumElement.zero()
            if mu == 0:
                term = term + e[nu]
            if mu == nu:
                term = term - (e[0] + e[4]).scale(mom.METRIC5[mu])
            rhs = HeisenbergElement.from_momentum(term.scale(IMK))
            check(f"vector-field-relation-{mu}{nu}", "1.11", lhs - rhs)
    for mu in range(4):
        lhs = word(e[4], x[mu]) - word(x[mu], e[4])
        rhs = HeisenbergElement.from_momentum(e[mu].scale(-IMK))
        check(f"vector-field-relation-4{mu}", "1.11", lhs - rhs)

    for check_id, eq, residual in (*mom.f_orthogonality(), *mom.box_identities()):
        check(check_id, eq, residual)
    check("box-kappa-order0", "derived-convention", mom.box().kappa_expand(0).render())

    flow = mom.f_lowered()
    for n in range(8):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True)
        i, j = rng.randrange(5), rng.randrange(5)
        lhs = act_f(i, j, a.star()).star()
        rhs = act(flow[j][i], a)
        check(f"hermiticity-relation-{n:02d}", "1.28", lhs - rhs)

    for n in range(4):
        q = fuzz.rand_momentum(rng, cfg.max_degree)
        got = act(q, PositionElement.one())
        want = PositionElement.scalar(q.counit())
        check(f"vacuum-normalization-{n:02d}", "1.5", got - want)

    for n in range(5):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True, n_terms=2)
        b = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True, n_terms=2)
        c = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=True, n_terms=2)
        res = (a * b) * c - a * (b * c)
        check(f"associativity-{n:02d}", "1.2", res)
        res = (a * b).star() - b.star() * a.star()
        check(f"star-antihom-{n:02d}", "1.2", res)
        res = a.star().star() - a
        check(f"star-involution-{n:02d}", "1.2", res)


# -- calculus ---------------------------------------------------------------------


def suite_calculus(cfg, check):
    rng = random.Random(cfg.seed + 2)

    x = [PositionElement.x(mu) for mu in range(4)]

    for mu in range(4):
        res = exterior_d(x[mu]) - OneForm.basis(mu)
        check(f"d-x{mu}-is-tau{mu}", "1.14", res)
    check("d-constant", "2.2", exterior_d(PositionElement.one()))
    want = OneForm.basis(0).left_mul(x[0].scale(2)) + OneForm.basis(4).scale(-IMK)
    check("d-x0-squared", "2.2", exterior_d(x[0] * x[0]) - want)

    for i in range(5):
        tau_i = OneForm.basis(i)
        for nu in range(4):
            lhs = tau_i.right_mul(x[nu]) - tau_i.left_mul(x[nu])
            rhs = OneForm()
            if i < 4:
                if i == 0:
                    rhs = rhs + OneForm.basis(nu).scale(IMK)
                if i == nu:
                    rhs = rhs - (OneForm.basis(0) + OneForm.basis(4)).scale(
                        IMK * ScalarValue.number(mom.METRIC5[i])
                    )
            else:
                rhs = OneForm.basis(nu).scale(-IMK)
            check(f"bimodule-tau{i}-x{nu}", "1.15", lhs - rhs)

    n_pairs = 100 if cfg.max_degree >= 3 else 20
    for n in range(n_pairs):
        a = fuzz.rand_position(rng, cfg.max_degree, waves=True, n_terms=2)
        b = fuzz.rand_position(rng, cfg.max_degree, waves=True, n_terms=2)
        lhs = exterior_d(a * b)
        rhs = exterior_d(b).left_mul(a) + exterior_d(a).right_mul(b)
        check(f"leibniz-{n:03d}", "2.3", lhs - rhs)

    for n in range(10):
        w = fuzz.rand_oneform(rng, cfg.max_degree)
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), n_terms=2)
        b = fuzz.rand_position(rng, min(cfg.max_degree, 2), n_terms=2)
        res = w.right_mul(a).right_mul(b) - w.right_mul(a * b)
        check(f"bimodule-assoc-{n:02d}", "1.22", res)

    for n in range(10):
        a = fuzz.rand_position(rng, cfg.max_degree, waves=True, n_terms=2)
        check(f"d-squared-{n:02d}", "1.16", exterior_d(a).exterior_d())

    check("wedge-antisymmetry-diagonal", "1.16", OneForm.basis(0).wedge(OneForm.basis(0)))
    w12 = OneForm.basis(2).left_mul(x[1]).exterior_d()
    want = OneForm.basis(1).wedge(OneForm.basis(2))
    check("d-of-x1-tau2", "1.16", w12 - want)

    lit, corr = check_tau4_definition()
    check("tau4-corrected-coefficient", "1.14", corr)
    check("tau4-published-coefficient-residual", "1.14", lit.render())

    for n in range(8):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), waves=False, n_terms=2)
        check(f"metric-centrality-{n:02d}", "1.18", check_metric_centrality(a))

    for i in range(5):
        res = OneForm.basis(i).star() - OneForm.basis(i)
        check(f"star-tau{i}-hermitian", "1.27", res)
    for n in range(6):
        w = fuzz.rand_oneform(rng, min(cfg.max_degree, 2))
        check(f"star-form-involution-{n:02d}", "1.27", w.star().star() - w)
    res = OneForm.basis(0).left_mul(x[0]).star() - (
        OneForm.basis(0).left_mul(x[0]) + OneForm.basis(4).scale(-IMK)
    )
    check("star-form-x0tau0", "1.27", res)


# -- dirac ---------------------------------------------------------------------


def suite_dirac(cfg, check):
    rng = random.Random(cfg.seed + 3)

    check("clifford-relations", "2.8", dirac.check_clifford_relations())

    rep_zero = dirac.GAMMA4_ZERO
    reps = (rep_zero, dirac.Gamma4("unit"), dirac.Gamma4("gamma5"))  # lambda = 1

    check("dirac-square-gamma4-zero", "2.9", dirac.check_dirac_square(rep_zero))
    for rep_k in reps[1:]:
        check(f"dirac-square-residual-{rep_k.kind}", "2.9",
              dirac.check_dirac_square(rep_k).render())

    n_pairs = 50 if cfg.max_degree >= 2 else 12
    for rep_k in reps:
        for n in range(n_pairs):
            a = fuzz.rand_position(rng, min(cfg.max_degree, 2), n_terms=2)
            psi = fuzz.rand_spinor(rng, min(cfg.max_degree, 2))
            check(f"diagram-{rep_k.kind}-{n:02d}", "0.8", dirac.check_diagram(a, psi, rep_k))

    for n in range(6):
        a = fuzz.rand_position(rng, min(cfg.max_degree, 2), n_terms=2)
        psi = fuzz.rand_spinor(rng, min(cfg.max_degree, 2))
        i = rng.randrange(5)
        tau_i = OneForm.basis(i)
        res = (dirac.clifford_apply(tau_i, psi.left_mul(a), rep_zero)
               - dirac.clifford_apply(tau_i.right_mul(a), psi, rep_zero))
        check(f"clifford-bimodule-{n:02d}", "1.21", res)

    for i, text in dirac.check_antihermiticity():
        check(f"antihermiticity-del{i}", "derived-convention", f"star(del_{i}) + del_{i} = {text}")

    for mu in range(4):
        check(f"clifford-image-limit-{mu}", "derived-convention",
              _clifford_image_limit_residual(rep_zero, mu))

    diff = dirac.clifford_image(1, rep_zero) - dirac.clifford_image_published(1, rep_zero)
    check("clifford-image-published-variant-difference", "2.10", diff.render())


def _clifford_image_limit_residual(rep, mu):
    """tau^mu_c at kappa order 0 minus gamma^mu."""
    img = dirac.clifford_image(mu, rep).map_coeffs(lambda p: p.kappa_expand(0))
    return img - dirac.op_from_matrix(rep.gammas[mu], mom.MomentumElement.one())


# -- gauge ---------------------------------------------------------------------


def gauge_fixtures():
    x = [PositionElement.x(mu) for mu in range(4)]
    z = PositionElement.zero()
    cfg1 = gauge.GaugeConfig((z, x[0], z, z, z))
    cfg2 = gauge.GaugeConfig((x[1], x[0], z, x[3], x[2]))
    cfg3 = gauge.GaugeConfig(
        (PositionElement.scalar(ScalarValue.number(1, 1)), x[2], x[1], z, x[0])
    )
    u1 = PositionElement.wave(PlaneWave.label(1))
    u2 = PositionElement.wave(PlaneWave.label(2))
    return (cfg1, cfg2, cfg3), (u1, u2)


def suite_gauge(cfg, check):
    x = [PositionElement.x(mu) for mu in range(4)]
    z = PositionElement.zero()
    configs, unitaries = gauge_fixtures()

    want = TwoForm.collect([((0, 1), PositionElement.one())])
    check("strength-linear-example", "3.8", gauge.field_strength(configs[0]) - want)
    check("strength-zero-config", "3.8", gauge.field_strength(gauge.GaugeConfig((z,) * 5)))
    const_cfg = gauge.GaugeConfig(tuple(
        PositionElement.scalar(ScalarValue.number(n - 2)) for n in range(5)
    ))
    check("strength-constant-config", "3.8", gauge.field_strength(const_cfg))

    for idx, c in enumerate(configs):
        res_charged, res_literal = gauge.curvature_cross_check(c)
        check(f"curvature-two-route-g1-{idx}", "3.5/3.7",
              IndexedMap.collect([("charged", res_charged),
                                  ("literal", res_literal)]))
    live = gauge.GaugeConfig((z, x[1], z, z, z), ScalarValue.number(2))
    res_charged, res_literal = gauge.curvature_cross_check(live)
    check("curvature-two-route-g2-charged", "3.5/3.7", res_charged)
    literal_text = str({k: v.render() for k, v in sorted(res_literal.terms.items())})
    check("curvature-two-route-g2-literal", "3.5/3.7",
          "Omega extraction equals the charged convention for any g; literal-form "
          "residual at g=2: " + literal_text)

    moved = gauge.gauge_transform(configs[0], PositionElement.one())
    check("transform-identity-unitary", "3.4",
          moved.connection_form() - configs[0].connection_form())
    for uidx, u in enumerate(unitaries):
        pure = gauge.gauge_transform(gauge.GaugeConfig((z,) * 5), u)
        check(f"pure-gauge-flatness-{uidx}", "3.4", gauge.field_strength(pure))

    for cidx, c in enumerate(configs):
        _covariance_checks(c, unitaries, check, f"cfg{cidx}-")

    live2 = gauge.GaugeConfig((x[1], x[0], z, x[3], x[2]), ScalarValue.number(2))
    for i in range(5):
        for j in range(i + 1, 5):
            check(f"commutator-identity-{i}{j}", "3.10",
                  gauge.check_commutator_identity(live2, i, j))
    for (i, j, k) in ((0, 1, 2), (0, 1, 4), (1, 2, 3), (2, 3, 4)):
        check(f"bianchi-{i}{j}{k}", "3.11", gauge.check_bianchi(live2, i, j, k))

    for uidx, u in enumerate(unitaries[:1]):
        check(f"star-collapse-{uidx}", "3.18", gauge.check_star_collapse(u))

    c_val, cp, cm = gauge.invariants(configs[0])
    check("invariant-C-golden", "3.15", c_val - PositionElement.scalar(-2))
    want = IndexedMap({4: PositionElement.scalar(ScalarValue.kappa(-1))})
    check("divergence-golden", "3.12", gauge.divergence(configs[0]) - want)


def _covariance_checks(cfg, unitaries, check, tag=""):
    """Eqs. 3.9, 3.13 and 3.16 for `cfg` under each unitary."""
    for n, u in enumerate(unitaries):
        check(f"F-covariance-{tag}U{n}", "3.9", gauge.check_f_covariance(cfg, u))
        check(f"divergence-covariance-{tag}U{n}", "3.13",
              gauge.check_divergence_covariance(cfg, u))
        check(f"invariant-covariance-{tag}U{n}", "3.16", gauge.check_invariant_covariance(cfg, u))


def gauge_config_checks(cfg, unitaries, check):
    """The checks of `kmink gauge verify`: covariance of one configuration
    under each unitary, and its curvature read two ways (eqs. 3.5/3.7), the
    strength asserted and the published form reported."""
    _covariance_checks(cfg, unitaries, check)
    res_strength, res_published = gauge.curvature_cross_check(cfg)
    check("curvature-two-route-strength", "3.5/3.7", res_strength)
    check("curvature-two-route-published", "3.5/3.7", res_published.render())


# -- limit ---------------------------------------------------------------------


def suite_limit(cfg, check):
    x = [PositionElement.x(mu) for mu in range(4)]
    z = PositionElement.zero()
    fixtures = [
        ("A4-x1", gauge.GaugeConfig((z, z, z, z, x[1]))),
        ("A1-x0", gauge.GaugeConfig((z, x[0], z, z, z))),
        ("mixed-deg2", gauge.GaugeConfig((x[1], x[0] * x[0], z, z, x[1] * x[2]))),
    ]
    for name, c in fixtures:
        check(f"classical-lagrangian-{name}", "3.25", gauge.classical_limit(c))
    check("box-kappa-order0", "1.12", mom.box().kappa_expand(0).render())
    e1 = ScalarValue.E(1)
    res = e1.kappa_expand(1) - (ScalarValue.number(1)
                                + ScalarValue.k(1, 0) * ScalarValue.kappa(-1))
    check("kappa-expand-E-order1", "3.25", res)
    sh_scalar = (ScalarValue.E(1) - ScalarValue.E(1, -1)) * ScalarValue.number(
        Fraction(1, 2)
    )
    res = sh_scalar.kappa_expand(1) - ScalarValue.k(1, 0) * ScalarValue.kappa(-1)
    check("kappa-expand-sh-order1", "3.25", res)
    for mu in range(4):
        check(f"clifford-image-limit-{mu}", "2.10",
              _clifford_image_limit_residual(dirac.GAMMA4_ZERO, mu))


SUITES = {
    "hopf": suite_hopf,
    "action": suite_action,
    "calculus": suite_calculus,
    "dirac": suite_dirac,
    "gauge": suite_gauge,
    "limit": suite_limit,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name, cfg=None):
    """Run one suite (or "all"); returns order-normalized records."""
    cfg = cfg or RunConfig()
    if name == "all":
        names = list(SUITE_NAMES)
    elif name in SUITES:
        names = [name]
    else:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(SUITE_NAMES)} or all")
    records = []
    for n in names:
        records.extend(run_checks(n, SUITES[n], cfg))
    records.sort(key=lambda r: (r.suite, r.check_id))
    return records


def run_checks(suite, fn, *args):
    """The records of `fn(*args, check)`, in the order of its `check` calls,
    each built once with its own `wall_ms`.  If `fn` raises, one
    `<suite>-raised` fail record follows the records made before the raise,
    and the traceback goes to standard error."""
    records = []
    last = time.perf_counter()

    def add(check_id, equation, status, residual):
        nonlocal last
        now = time.perf_counter()
        records.append(CheckRecord(suite, check_id, equation, status, residual,
                                   round((now - last) * 1000.0, 3)))
        last = now

    def check(check_id, equation, value):
        if isinstance(value, str):
            add(check_id, equation, "reported", value)
        elif value.is_zero():
            add(check_id, equation, "pass", "0")
        else:
            add(check_id, equation, "fail", value.render())

    try:
        fn(*args, check)
    except Exception as exc:  # an engine fault is a failed check, not a usage error
        add(f"{suite}-raised", "n/a", "fail", f"{type(exc).__name__}: {exc}")
        import traceback

        traceback.print_exc()
    return records


def render_table(records):
    lines = []
    width = max((len(r.check_id) for r in records), default=10)
    for r in records:
        mark = {"pass": "PASS", "fail": "FAIL", "reported": "INFO"}[r.status]
        residual = "" if r.status == "pass" else f"  residual: {r.residual}"
        lines.append(
            f"[{mark}] {r.suite:8s} {r.check_id:<{width}s}  eq {r.equation:8s}"
            f" {r.wall_ms:8.2f} ms{residual}"
        )
    n_fail = sum(r.status == "fail" for r in records)
    n_pass = sum(r.status == "pass" for r in records)
    n_rep = sum(r.status == "reported" for r in records)
    lines.append(f"  {n_pass} passed, {n_fail} failed, {n_rep} reported")
    return "\n".join(lines)


def render_jsonl(records):
    """Line-delimited machine-readable report; no timings, byte-stable."""
    import json

    lines = []
    for r in records:
        lines.append(json.dumps(
            {"suite": r.suite, "id": r.check_id, "equation": r.equation,
             "status": r.status, "residual": r.residual},
            sort_keys=True,
        ))
    return "\n".join(lines) + "\n"
