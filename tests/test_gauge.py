"""Deformed U(1) sector: strength, curvature, covariance, invariants,
field equations and the classical limit."""

import random
from fractions import Fraction

import pytest

from kmink import gauge
from kmink.action import act_derivative, act_f, act_f_lowered
from kmink.cli import main
from kmink.forms import TwoForm
from kmink.fuzz import rand_position
from kmink.minkowski import PlaneWave, PositionElement, dot
from kmink.momentum import METRIC5
from kmink.scalars import I, ONE, ScalarValue
from kmink.suites import gauge_fixtures
from kmink.terms import IndexedMap, memo

from tests import apply_word

X = [PositionElement.x(mu) for mu in range(4)]
Z = PositionElement.zero()
U1 = PositionElement.wave(PlaneWave.label(1))
U2 = PositionElement.wave(PlaneWave.label(2))
CFG_LINEAR = gauge.GaugeConfig((Z, X[0], Z, Z, Z))
CFG_FULL = gauge.GaugeConfig((X[1], X[0], Z, X[3], X[2]))
CFG_MIXED = gauge.GaugeConfig(
    (PositionElement.scalar(ScalarValue.number(1, 1)), X[2], X[1], Z, X[0])
)
ALL_CFGS = (CFG_LINEAR, CFG_FULL, CFG_MIXED)


def test_config_checks_and_coerces():
    with pytest.raises(ValueError, match="five potentials"):
        gauge.GaugeConfig((Z,) * 4)
    with pytest.raises(ValueError, match="must be a scalar"):
        gauge.GaugeConfig((Z,) * 5, X[0])
    plain, coerced = gauge.GaugeConfig(CFG_FULL.A, 1), gauge.GaugeConfig(CFG_FULL.A, ONE)
    assert isinstance(plain.g, ScalarValue)
    assert plain == coerced and hash(plain) == hash(coerced)
    assert plain == CFG_FULL
    with pytest.raises(AttributeError):
        plain.g = ONE


def test_field_strength_examples():
    strength = gauge.field_strength(CFG_LINEAR)
    assert strength.entries() == {(0, 1): PositionElement.one(), (1, 0): -PositionElement.one()}
    assert gauge.field_strength(gauge.GaugeConfig((Z,) * 5)).is_zero()
    const = gauge.GaugeConfig(tuple(PositionElement.scalar(n) for n in range(5)))
    assert gauge.field_strength(const).is_zero()


def test_curvature_two_routes():
    for cfg in ALL_CFGS:
        res_strength, res_published = gauge.curvature_cross_check(cfg)
        assert res_strength.is_zero()
        assert res_published.is_zero()  # g = 1: the published form is the strength
    live = gauge.GaugeConfig((Z, X[1], Z, Z, Z), ScalarValue.number(2))
    res_strength, res_published = gauge.curvature_cross_check(live)
    assert res_strength.is_zero()  # Omega extraction matches the strength for any g
    assert not res_published.is_zero()  # and differs from the published form at g != 1


def test_curvature_zero_and_classical_components():
    assert gauge.curvature_form(gauge.GaugeConfig((Z,) * 5)).is_zero()
    omega = gauge.curvature_form(CFG_LINEAR)
    extracted = omega.scale(-I)  # i F_ij tau^i ^ tau^j = Omega
    assert extracted.entries()[0, 1] == PositionElement.one()


def test_gauge_transform_identity():
    assert gauge.gauge_transform(CFG_LINEAR, PositionElement.one()).A == CFG_LINEAR.A


def test_gauge_transform_rejects_non_unitary():
    with pytest.raises(ValueError):
        gauge.gauge_transform(CFG_LINEAR, X[1])
    with pytest.raises(ValueError):
        gauge.gauge_transform(CFG_LINEAR, U1 + U2)


def test_pure_gauge_flatness():
    zero_cfg = gauge.GaugeConfig((Z,) * 5)
    for u in (U1, U2, U1 * U2):
        pure = gauge.gauge_transform(zero_cfg, u)
        assert gauge.field_strength(pure).is_zero()


def test_strength_covariance():
    for cfg in ALL_CFGS:
        for u in (U1, U2):
            assert gauge.check_f_covariance(cfg, u).is_zero()


def test_divergence_covariance():
    for cfg in ALL_CFGS:
        for u in (U1, U2):
            assert gauge.check_divergence_covariance(cfg, u).is_zero()


def test_invariant_covariance_and_conjugation():
    for cfg in ALL_CFGS:
        for u in (U1, U2):
            assert gauge.check_invariant_covariance(cfg, u).is_zero()


def test_invariants_golden_value():
    c, c_plus, c_minus = gauge.invariants(CFG_LINEAR)
    assert c == PositionElement.scalar(-2)
    assert c_plus == PositionElement.scalar(-2)
    assert c_minus == c_plus.star()


def test_c_minus_is_star_of_c_plus():
    rng = random.Random(79)
    for _ in range(6):
        cfg = gauge.GaugeConfig(tuple(rand_position(rng, 1, n_terms=1)
                                    for _ in range(5)))
        _c, c_plus, c_minus = gauge.invariants(cfg)
        assert c_minus == c_plus.star()


def test_commutator_identity_exact():
    live = gauge.GaugeConfig(CFG_FULL.A, ScalarValue.number(2))
    for i in range(5):
        for j in range(i + 1, 5):
            assert gauge.check_commutator_identity(live, i, j).is_zero()


def test_commutator_identity_on_elements():
    rng = random.Random(83)
    live = gauge.GaugeConfig(CFG_FULL.A, ScalarValue.number(2))
    op01 = gauge.check_commutator_identity(live, 0, 1)
    for _ in range(50):
        a = rand_position(rng, 2, n_terms=2)
        assert apply_word(op01, a).is_zero()


def test_bianchi_identities():
    live = gauge.GaugeConfig(CFG_FULL.A, ScalarValue.number(2))
    for triple in ((0, 1, 2), (0, 1, 4), (1, 2, 3), (2, 3, 4), (0, 2, 4)):
        assert gauge.check_bianchi(live, *triple).is_zero()


def test_star_collapse():
    assert gauge.check_star_collapse(U1).is_zero()


def test_divergence_golden():
    div = gauge.divergence(CFG_LINEAR)
    want = IndexedMap({4: PositionElement.scalar(ScalarValue.kappa(-1))})
    assert (div - want).is_zero()
    assert gauge.divergence(gauge.GaugeConfig((Z,) * 5)).is_zero()


def apply_covariant_derivative(cfg, k, a):
    """nabla_k = del_k + i g A_j f^j_k acting on an algebra element, entry by
    entry: the reference for the mixed-word operator."""
    quad = dot((A_j, act_f(j, k, a)) for j, A_j in enumerate(cfg.A) if not A_j.is_zero())
    return act_derivative(k, a) + quad.scale(I * cfg.g)


def test_covariant_derivative_reduces_to_derivative():
    zero_cfg = gauge.GaugeConfig((Z,) * 5)
    a = X[0] * X[1]
    for k in range(5):
        assert apply_covariant_derivative(zero_cfg, k, a) == act_derivative(k, a)


def test_covariant_derivative_componentwise_on_spinors():
    psi = IndexedMap({0: X[0], 2: X[1] * X[2], 3: PositionElement.one()})
    got = psi.map_coeffs(lambda comp: apply_covariant_derivative(CFG_FULL, 1, comp))
    op = gauge.covariant_derivative_op(CFG_FULL, 1)
    want = psi.map_coeffs(lambda comp: apply_word(op, comp))
    assert (got - want).is_zero()


def test_operator_and_elementwise_covariant_derivative_agree():
    a = X[0] * X[1]
    for k in range(5):
        op = gauge.covariant_derivative_op(CFG_FULL, k)
        assert apply_word(op, a) == apply_covariant_derivative(CFG_FULL, k, a)


def test_classical_limit_fixtures():
    fixtures = [
        gauge.GaugeConfig((Z, Z, Z, Z, X[1])),
        gauge.GaugeConfig((Z, X[0], Z, Z, Z)),
        gauge.GaugeConfig((X[1], X[0] * X[0], Z, Z, X[1] * X[2])),
    ]
    for cfg in fixtures:
        assert gauge.classical_limit(cfg).is_zero()


def test_classical_lagrangian_values():
    half = ScalarValue.number(Fraction(1, 2))
    cfg = gauge.GaugeConfig((Z, Z, Z, Z, X[1]))
    assert gauge.classical_lagrangian(cfg) == PositionElement.scalar(-half)
    cfg = gauge.GaugeConfig((Z, X[0], Z, Z, Z))
    assert gauge.classical_lagrangian(cfg) == PositionElement.scalar(half)


def test_classical_limit_rejects_waves():
    with pytest.raises(ValueError):
        gauge.classical_limit(gauge.GaugeConfig((U1, Z, Z, Z, Z)))


def test_charge_must_be_invertible():
    bad = gauge.GaugeConfig((Z,) * 5, ScalarValue.k(1, 0))
    with pytest.raises(ValueError, match="invertible charge, not g = k"):
        gauge.gauge_transform(bad, U1)


@pytest.mark.parametrize("charge", ["0", "1 + kappa"], ids=["zero", "two-term"])
def test_cli_names_a_non_invertible_charge(tmp_path, capsys, charge):
    """`gauge verify` and `gauge transform` need 1/g and say so, naming
    g; `fstrength` and `limit` need no inverse and still run."""
    path = tmp_path / "cfg.txt"
    path.write_text(f"A1 = x0\ng = {charge}\n")
    shown = gauge.read_config_text(f"g = {charge}").g.render()
    for argv in (["verify"], ["transform", "--unitary", "W[1]"]):
        assert main(["gauge", *argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "gauge transformations need an invertible charge" in err
        assert f"g = {shown}" in err and "monomial" not in err
    if charge == "0":
        assert main(["gauge", "fstrength", "--config", str(path)]) == 0
        assert main(["gauge", "limit", "--config", str(path)]) == 0


def test_read_config_text():
    cfg = gauge.read_config_text(
        "# comment\n"
        "A1 = x0        # trailing comment\n"
        "A4 = x1 * x2\n"
        "g = 2\n"
    )
    assert cfg.A[1] == X[0]
    assert cfg.A[4] == X[1] * X[2]
    assert cfg.A[0].is_zero() and cfg.A[2].is_zero() and cfg.A[3].is_zero()
    assert cfg.g == ScalarValue.number(2)
    cfg = gauge.read_config_text("A0 = 1/2")
    assert cfg.A[0] == PositionElement.scalar(ScalarValue.number(Fraction(1, 2)))
    with pytest.raises(ValueError):
        gauge.read_config_text("A9 = x0")
    with pytest.raises(ValueError):
        gauge.read_config_text("just text")
    with pytest.raises(ValueError):
        gauge.read_config_text("g = x0")
    with pytest.raises(ValueError):
        gauge.read_config_text("A1 = P0")


@pytest.mark.parametrize("text, error", [
    ("# c\nA0 = x0\nA1 = x0 +", "unexpected token None (line 3, column 10)"),
    ("A0 = x0\n  A4  =  1/0  # comment", "zero denominator in a number (line 2, column 10)"),
    ("A0 = x0\n\nA2 = tau[0] + x0", "line 3: cannot add OneForm and PositionElement"),
], ids=["parse", "parse-indented", "evaluate"])
def test_fixture_errors_name_the_fixture_line(tmp_path, capsys, text, error):
    """A fixture's syntax error is positioned in the fixture, not within
    the right-hand side alone; an evaluation error names its line."""
    with pytest.raises(ValueError) as info:
        gauge.read_config_text(text)
    assert str(info.value) == error
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["gauge", "fstrength", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("text, line", [("A1 = x0\nA1 = x1", "line 2: A1"),
                                        ("g = 2\n# comment\ng = 3", "line 3: g")],
                         ids=["potential", "charge"])
def test_a_field_given_twice_is_an_error(tmp_path, capsys, text, line):
    with pytest.raises(ValueError, match=f"{line} is given twice"):
        gauge.read_config_text(text)
    path = tmp_path / "cfg.txt"
    path.write_text(text)
    assert main(["gauge", "fstrength", "--config", str(path)]) == 2
    assert f"{line} is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("g", [ScalarValue.number(2), 2], ids=["scalar", "int"])
def test_transform_at_g2_still_covariant_in_charged_convention(g):
    cfg = gauge.GaugeConfig(CFG_LINEAR.A, g)
    assert isinstance(cfg.g, ScalarValue)
    assert gauge.gauge_transform(cfg, U1).g == ScalarValue.number(2)
    assert gauge.check_f_covariance(cfg, U1).is_zero()
    assert gauge.check_divergence_covariance(cfg, U1).is_zero()
    assert gauge.check_invariant_covariance(cfg, U1).is_zero()


def test_equal_charges_are_one_memo_key():
    """An int charge is coerced, so it equals and hashes like its scalar."""
    as_int = gauge.GaugeConfig(CFG_LINEAR.A, 2)
    as_scalar = gauge.GaugeConfig(CFG_LINEAR.A, ScalarValue.number(2))
    assert as_int == as_scalar
    assert hash(as_int) == hash(as_scalar)


def test_a_list_config_is_its_tuple_config():
    as_list = gauge.GaugeConfig([Z, X[1], Z, Z, Z])
    as_tuple = gauge.GaugeConfig((Z, X[1], Z, Z, Z))
    assert isinstance(as_list.A, tuple)
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    assert gauge.field_strength(as_list) == gauge.field_strength(as_tuple)
    assert not gauge.field_strength(as_list).is_zero()


def test_charge_must_be_a_scalar():
    with pytest.raises(ValueError):
        gauge.GaugeConfig(CFG_LINEAR.A, X[0])
    with pytest.raises(ValueError):
        gauge.GaugeConfig(CFG_LINEAR.A, "2")


def test_strength_memo_tells_charges_apart():
    """Configs with equal potentials and different g are different memo
    keys: each strength, divergence and invariant triple equals a fresh,
    unmemoised computation."""
    cfg_g1 = gauge.GaugeConfig((X[1], X[0], Z, Z, Z))
    cfg_g2 = gauge.GaugeConfig((X[1], X[0], Z, Z, Z), ScalarValue.number(2))
    for fn in (gauge.field_strength, gauge.divergence, gauge.invariants):
        first = fn(cfg_g1)
        second = fn(cfg_g2)
        assert first != second
        assert first == fn.__wrapped__(cfg_g1)
        assert second == fn.__wrapped__(cfg_g2)


# -- reference: invariants and divergence with every component re-read --------
#
# Each reference writes the charge out.  The published, charge-free form is
# the g = 1 case.

def _component(strength, i, j):
    """The (i, j) component, read from both orders of the stored ones; a
    missing or diagonal pair is zero."""
    return strength.entries().get((i, j), Z)


def _raised(strength, i, j):
    """The (i, j) component with both indices moved by the 5-metric."""
    return _component(strength, i, j).scale(METRIC5[i] * METRIC5[j])


def reference_invariants(cfg):
    """C, C_+ and C_- with each component read, raised and starred inside
    the loops, as written in the definitions."""
    strength = reference_field_strength(cfg)
    c = c_plus = c_minus = Z
    for i in range(5):
        for j in range(5):
            f_low = _component(strength, i, j)
            if f_low.is_zero():
                continue
            c = c + _raised(strength, i, j) * f_low.star()
            for k in range(5):
                for l in range(5):
                    fkl_up = _raised(strength, k, l)
                    if fkl_up.is_zero():
                        continue
                    acted = act_f(i, k, act_f(j, l, fkl_up))
                    if not acted.is_zero():
                        c_plus = c_plus + f_low * acted
                    acted2 = act_f(i, k, act_f(j, l, f_low.star()))
                    if not acted2.is_zero():
                        c_minus = c_minus + acted2 * fkl_up.star()
    return c, c_plus, c_minus


def reference_divergence(cfg):
    """nabla_m F^{mk} with every raised component read inside the loops."""
    strength = reference_field_strength(cfg)
    out = {}
    for k in range(5):
        acc = Z
        for m in range(5):
            acc = acc + act_derivative(m, _raised(strength, m, k))
        correction = Z
        for j in range(5):
            for m in range(5):
                correction = correction + cfg.A[j] * act_f(j, m, _raised(strength, m, k))
            for m in range(5):
                for n in range(5):
                    acted = act_f_lowered(m, j, act_f_lowered(n, k, cfg.A[j]))
                    correction = correction - _raised(strength, m, n) * acted
        value = acc + correction.scale(I * cfg.g)
        if not value.is_zero():
            out[k] = value
    return IndexedMap(out)


@pytest.mark.parametrize("g", [1, 2])
def test_hoisted_invariants_and_divergence_match_reference(g):
    cfg = gauge.GaugeConfig((X[1], X[0] * X[2], U1, Z, X[3]), ScalarValue.number(g))
    assert gauge.invariants.__wrapped__(cfg) == reference_invariants(cfg)
    assert gauge.divergence.__wrapped__(cfg) == reference_divergence(cfg)


def reference_field_strength(cfg):
    """F_ij = del_i(A_j) - del_j(A_i) + i g A_k [f^k_i(A_j) - f^k_j(A_i)],
    one `+` per k and a plain product for each A_k term."""
    factor = I * cfg.g
    A = cfg.A
    out = {}
    for i in range(5):
        for j in range(i + 1, 5):
            value = act_derivative(i, A[j]) - act_derivative(j, A[i])
            for k in range(5):
                inner = act_f(k, i, A[j]) - act_f(k, j, A[i])
                value = value + (A[k] * inner).scale(factor)
            if not value.is_zero():
                out[i, j] = value
    return TwoForm(out)


@pytest.mark.parametrize("g", [1, 2])
def test_field_strength_matches_reference(g):
    cfg = gauge.GaugeConfig((X[1], X[0] * X[2], U1, Z, X[3]), ScalarValue.number(g))
    got = gauge.field_strength.__wrapped__(cfg)
    assert got == reference_field_strength(cfg)
    assert not got.is_zero()


# -- reference: the covariance checks and the action table with plain nesting --

# At g = 2 the covariance residuals are zero by design, so the tests compare
# the right-hand sides, U F_kl f^k_i(f^l_j(U*)) and U nabla_m F^{mn}
# f_n^k(U*): they have 10 and 5 nonzero components, so a wrong action cannot
# hide behind a zero residual.
CFG_LIVE = gauge.GaugeConfig((X[1], X[0], Z, X[3], X[2]), ScalarValue.number(2))


def reference_f_covariance_rhs(cfg, u):
    """U F_kl f^k_i(f^l_j(U*)), each action a plain nested `act_f` call
    inside the loops."""
    f_old = gauge.field_strength(cfg)
    ustar = u.star()
    out = {}
    for i in range(5):
        for j in range(i + 1, 5):
            value = Z
            for k in range(5):
                for l in range(5):
                    acted = act_f(k, i, act_f(l, j, ustar))
                    value = value + u * _component(f_old, k, l) * acted
            if not value.is_zero():
                out[i, j] = value
    return TwoForm(out)


def reference_divergence_covariance_rhs(cfg, u):
    """U nabla_m F^{mn} f_n^k(U*), the divergence the loop reference above
    and each action a plain `act_f_lowered` call."""
    div_old = reference_divergence(cfg)
    ustar = u.star()
    out = {}
    for k in range(5):
        value = Z
        for n in range(5):
            value = value + u * div_old.terms.get(n, Z) * act_f_lowered(n, k, ustar)
        if not value.is_zero():
            out[k] = value
    return IndexedMap(out)


def reference_gauge_transform(cfg, u):
    """A_k -> U A_j f^j_k(U*) - (i/g) U del_k(U*), one product per (j, k)."""
    ustar = u.star()
    shift = I * cfg.g.inverse()
    new_A = []
    for k in range(5):
        value = Z
        for j in range(5):
            value = value + u * cfg.A[j] * act_f(j, k, ustar)
        new_A.append(value - (u * act_derivative(k, ustar)).scale(shift))
    return gauge.GaugeConfig(tuple(new_A), cfg.g)


@pytest.mark.parametrize("u", [U1, U2], ids=["U1", "U2"])
@pytest.mark.parametrize("cfg", [*gauge_fixtures()[0], CFG_LIVE],
                         ids=["fixture0", "fixture1", "fixture2", "live"])
def test_gauge_transform_matches_the_index_formula(cfg, u):
    assert gauge.gauge_transform.__wrapped__(cfg, u) == reference_gauge_transform(cfg, u)


@pytest.mark.parametrize("u", [U1, U2], ids=["U1", "U2"])
def test_covariance_checks_match_plain_nested_actions(u):
    moved = gauge.gauge_transform(CFG_LIVE, u)
    f_res = gauge.check_f_covariance(CFG_LIVE, u)
    div_res = gauge.check_divergence_covariance(CFG_LIVE, u)
    assert f_res.is_zero() and div_res.is_zero()
    f_rhs = gauge.field_strength(moved) - f_res
    div_rhs = gauge.divergence(moved) - div_res
    assert len(f_rhs.terms) == 10 and len(div_rhs.terms) == 5
    assert f_rhs == reference_f_covariance_rhs(CFG_LIVE, u)
    assert div_rhs == reference_divergence_covariance_rhs(CFG_LIVE, u)


@pytest.mark.parametrize("a", [U1 * U2, X[0] * X[1] + X[2].scale(I) + ONE],
                         ids=["wave", "polynomial"])
def test_action_table_matches_direct_nesting(a):
    table = gauge._nested_f_lowered(a)
    assert len(table) == 625
    for (k, l, i, j), got in table.items():
        assert got == act_f_lowered(k, i, act_f_lowered(l, j, a))
    calls = []

    def counted(i, j, b):
        calls.append((i, j))
        return act_f_lowered(i, j, b)

    acts = memo(counted)  # as each gauge construction builds its table
    twin = PositionElement(dict(a.terms))  # equal to a, another object
    assert twin == a and twin is not a
    first = acts(0, 4, a)
    assert acts(0, 4, a) is first and acts(0, 4, twin) is first  # computed once
    assert calls == [(0, 4)]
    assert acts(1, 1, a) is a  # the unit operator
    assert acts(1, 2, a).is_zero()  # a vanishing f-entry
    assert acts(0, 4, Z).is_zero()
    assert acts(2, 3, acts(0, 4, twin)) == act_f_lowered(2, 3, act_f_lowered(0, 4, a))
