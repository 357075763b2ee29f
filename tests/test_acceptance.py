"""Acceptance gate: every criterion exact, one pass/fail line each.

Everything is exact-symbolic: a criterion passes only when its residual
is identically zero in the coefficient ring (reported-only items are
labelled as such).  Stated runtime budgets are asserted as wall-clock
bounds.  Run visibly with  pytest tests/test_acceptance.py -v -s
"""

import random
import time

from kmink import dirac, gauge, momentum as mom, suites
from kmink.action import HeisenbergElement, act, act_f, word
from kmink.expr import parse, render
from kmink.forms import check_metric_centrality, check_tau4_definition, exterior_d
from kmink.fuzz import rand_oneform, rand_position, rand_spinor
from kmink.minkowski import PlaneWave, PositionElement
from kmink.momentum import METRIC5, MomentumElement
from kmink.scalars import ScalarValue

from tests import apply_word

I = ScalarValue.number(0, 1)
IMK = I * ScalarValue.kappa(-1)
X = [PositionElement.x(mu) for mu in range(4)]


def _report(number, title, ok, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] acceptance {number:2d}: {title} ({elapsed:.2f}s)")
    return ok


def test_criterion_01_dirac_square():
    t0 = time.perf_counter()
    ok = dirac.check_dirac_square(dirac.GAMMA4_ZERO).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(1, "D^2 = box for gamma_4 = 0 (Eq. 2.9)", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_02_box_identity():
    t0 = time.perf_counter()
    res = mom.box() - MomentumElement.scalar(ScalarValue.kappa(2)) \
        - mom.vector_fields()[4] * mom.vector_fields()[4]
    ok = res.is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(2, "box = kappa^2 + (e^4)^2 (Eq. 1.12)", ok, elapsed)
    assert elapsed < 1.0


def test_criterion_03_f_orthogonality():
    t0 = time.perf_counter()
    records = list(mom.f_orthogonality())
    ok = len(records) == 50 and all(r[2].is_zero() for r in records)
    elapsed = time.perf_counter() - t0
    assert _report(3, "f-matrix orthogonality, 50 entries (Eqs. 1.25/1.26)",
                   ok, elapsed)
    assert elapsed < 5.0


def test_criterion_04_coproduct_laws():
    t0 = time.perf_counter()
    records = list(mom.f_coproducts())
    ok = len(records) == 30 and all(r[2].is_zero() for r in records)
    elapsed = time.perf_counter() - t0
    assert _report(4, "coproduct laws, 30 identities (Eqs. 1.23/2.6)", ok, elapsed)
    assert elapsed < 10.0


def test_criterion_05_cross_and_vector_relations():
    t0 = time.perf_counter()
    ok = True
    p = [MomentumElement.P(mu) for mu in range(4)]
    for mu in range(4):
        for nu in range(4):
            lhs = word(p[mu], X[nu]) - word(X[nu], p[mu])
            if mu == 0:
                want = HeisenbergElement.coerce(
                    PositionElement.scalar(-I) if nu == 0 else PositionElement.zero())
            elif nu == 0:
                want = HeisenbergElement.from_momentum(p[mu]).scale(IMK)
            else:
                want = HeisenbergElement.coerce(
                    PositionElement.scalar(-I) if mu == nu else PositionElement.zero())
            ok = ok and (lhs - want).is_zero()
    e = mom.vector_fields()
    for mu in range(4):
        for nu in range(4):
            lhs = word(e[mu], X[nu]) - word(X[nu], e[mu])
            term = MomentumElement.zero()
            if mu == 0:
                term = term + e[nu]
            if mu == nu:
                term = term - (e[0] + e[4]).scale(METRIC5[mu])
            ok = ok and (lhs - HeisenbergElement.from_momentum(term.scale(IMK))).is_zero()
        lhs = word(e[4], X[mu]) - word(X[mu], e[4])
        ok = ok and (lhs - HeisenbergElement.from_momentum(e[mu].scale(-IMK))).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(5, "cross-relations (Eq. 1.9) and vector fields (Eq. 1.11)",
                   ok, elapsed)


def test_criterion_06_leibniz_and_bimodule():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    ok = True
    for _ in range(100):
        a = rand_position(rng, 3, n_terms=2, waves=True)
        b = rand_position(rng, 3, n_terms=2, waves=True)
        lhs = exterior_d(a * b)
        rhs = exterior_d(b).left_mul(a) + exterior_d(a).right_mul(b)
        ok = ok and (lhs - rhs).is_zero()
    for _ in range(100):
        w = rand_oneform(rng, 3)
        a = rand_position(rng, 3, n_terms=1, waves=True)
        b = rand_position(rng, 3, n_terms=1, waves=True)
        ok = ok and (w.right_mul(a).right_mul(b) - w.right_mul(a * b)).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(6, "Leibniz (Eq. 2.3) and bimodule law (Eq. 1.22), 100+100 pairs",
                   ok, elapsed)
    assert elapsed < 60.0


def test_criterion_07_connes_diagram():
    t0 = time.perf_counter()
    rng = random.Random(2025)
    reps = (
        dirac.GAMMA4_ZERO,
        dirac.Gamma4("unit", ScalarValue.number(1)),
        dirac.Gamma4("gamma5", ScalarValue.number(1)),
    )
    ok = True
    for rep in reps:
        for _ in range(50):
            a = rand_position(rng, 2, n_terms=2)
            psi = rand_spinor(rng, 2)
            ok = ok and dirac.check_diagram(a, psi, rep).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(7, "Connes diagram (0.8), 50 pairs per gamma_4 choice",
                   ok, elapsed)


def test_criterion_08_plane_wave_sector():
    t0 = time.perf_counter()
    ok = suites.wave_product_series_residual(4).is_zero()
    w1 = PositionElement.wave(PlaneWave.label(1))
    ok = ok and w1 * w1.star() == PositionElement.one()
    ok = ok and w1.star() * w1 == PositionElement.one()
    for mu in range(4):
        ok = ok and act(MomentumElement.P(mu), w1) == w1.scale(ScalarValue.k(1, mu))
    elapsed = time.perf_counter() - t0
    assert _report(8, "plane-wave sector: order-4 series oracle, unitarity, "
                      "eigenvalues", ok, elapsed)


def test_criterion_09_gauge_covariance():
    t0 = time.perf_counter()
    configs, unitaries = suites.gauge_fixtures()
    ok = True
    for cfg in configs:
        for u in unitaries:
            ok = ok and gauge.check_f_covariance(cfg, u).is_zero()
            ok = ok and gauge.check_divergence_covariance(cfg, u).is_zero()
            ok = ok and gauge.check_invariant_covariance(cfg, u).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(9, "gauge covariance (Eqs. 3.9/3.13/3.16) and C_- = C_+* "
                      "(Eq. 3.20), 3 configs x 2 unitaries", ok, elapsed)
    assert elapsed < 300.0


def test_criterion_10_bianchi():
    t0 = time.perf_counter()
    rng = random.Random(2026)
    configs, _ = suites.gauge_fixtures()
    live = gauge.GaugeConfig(configs[1].A, ScalarValue.number(2))
    ok = True
    for triple in ((0, 1, 2), (0, 1, 4), (1, 2, 3), (2, 3, 4), (0, 2, 3)):
        op = gauge.check_bianchi(live, *triple)
        ok = ok and op.is_zero()
        for _ in range(10):
            ok = ok and apply_word(op, rand_position(rng, 2, n_terms=2)).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(10, "Bianchi identities (Eq. 3.11) as exact operator statements",
                   ok, elapsed)


def test_criterion_11_classical_limit():
    t0 = time.perf_counter()
    z = PositionElement.zero()
    fixtures = (
        gauge.GaugeConfig((z, z, z, z, X[1])),
        gauge.GaugeConfig((z, X[0], z, z, z)),
        gauge.GaugeConfig((X[1], X[0] * X[0], z, z, X[1] * X[2])),
    )
    ok = all(gauge.classical_limit(cfg).is_zero() for cfg in fixtures)
    elapsed = time.perf_counter() - t0
    assert _report(11, "classical limit of -C/4 (Eq. 3.25), 3 polynomial fixtures",
                   ok, elapsed)


def test_criterion_12_tau4_consistency():
    t0 = time.perf_counter()
    literal, corrected = check_tau4_definition()
    ok = corrected.is_zero() and not literal.is_zero()
    elapsed = time.perf_counter() - t0
    print(f"      documented discrepancy (Eq. 1.14 literal): {literal.render()}")
    assert _report(12, "tau^4 recipe: corrected 3i/kappa exact, literal reported",
                   ok, elapsed)


def test_criterion_13_hermiticity_and_centrality():
    t0 = time.perf_counter()
    rng = random.Random(2027)
    flow = mom.f_lowered()
    ok = True
    for _ in range(50):
        a = rand_position(rng, 2, waves=True)
        i, j = rng.randrange(5), rng.randrange(5)
        ok = ok and act_f(i, j, a.star()).star() == act(flow[j][i], a)
    for _ in range(50):
        a = rand_position(rng, 2, n_terms=2)
        ok = ok and check_metric_centrality(a).is_zero()
    elapsed = time.perf_counter() - t0
    assert _report(13, "hermiticity relation (Eq. 1.28) and metric centrality "
                       "(Eq. 1.18), 50 random each", ok, elapsed)


def test_criterion_14_parser_and_reports():
    t0 = time.perf_counter()
    from .test_expr import random_ast

    rng = random.Random(2028)
    ok = True
    for _ in range(200):
        ast = random_ast(rng, rng.randint(1, 4))
        ok = ok and parse(render(ast)) == ast
    cfg = suites.RunConfig(seed=11, max_degree=1)
    first = suites.render_jsonl(suites.run_suite("limit", cfg))
    second = suites.render_jsonl(suites.run_suite("limit", cfg))
    ok = ok and first == second and first.encode() == second.encode()
    elapsed = time.perf_counter() - t0
    assert _report(14, "parser round-trip (200 expressions) and byte-identical "
                       "reports", ok, elapsed)
