"""Grammar round-trip, parse errors and evaluator semantics."""

import random
from fractions import Fraction

import pytest

from kmink import expr
from kmink.action import HeisenbergElement
from kmink.forms import OneForm, TwoForm
from kmink.minkowski import PlaneWave, PositionElement
from kmink.momentum import box, derivatives, f_matrix
from kmink.scalars import ScalarValue


def test_parse_examples():
    ast = expr.parse("x0 * x1 - x1 * x0")
    assert ast == expr.Sub(
        expr.Mul(expr.Sym("x0"), expr.Sym("x1")),
        expr.Mul(expr.Sym("x1"), expr.Sym("x0")),
    )
    ast = expr.parse("act(del[0], x0^2)")
    assert ast == expr.Call("act", (expr.Sym("del", (0,)), expr.Pow(expr.Sym("x0"), 2)))


def test_nodes_are_frozen_records():
    a, b = expr.Sym("x0"), expr.Num(Fraction(1, 2))
    assert expr.Add(a, b) != expr.Sub(a, b)
    assert expr.Add(a, b) == expr.Add(expr.Sym("x0"), expr.Num(Fraction(1, 2)))
    assert hash(expr.Add(a, b)) == hash(expr.Add(expr.Sym("x0"), expr.Num(Fraction(1, 2))))
    assert expr.Num(Fraction(1, 2)) == expr.Num(Fraction(1, 2), Fraction(0))
    assert expr.Sym("x0") == expr.Sym("x0", ())
    assert repr(expr.Pow(a, 2)) == "Pow(base=Sym(name='x0', args=()), exp=2)"
    with pytest.raises(AttributeError):
        expr.Add(a, b).left = b
    with pytest.raises(AttributeError):
        del expr.Neg(a).value


def test_parse_errors():
    with pytest.raises(expr.ExprError):
        expr.parse("tau[9]")
    with pytest.raises(expr.ExprError):
        expr.parse("tau[5]")
    with pytest.raises(expr.ExprError):
        expr.parse("x0 +")
    with pytest.raises(expr.ExprError):
        expr.parse("unknown_symbol")
    with pytest.raises(expr.ExprError):
        expr.parse("k[1,7]")
    with pytest.raises(expr.ExprError):
        expr.parse("x0 ^ x1")
    with pytest.raises(expr.ExprError):
        expr.parse("(x0")
    err = None
    try:
        expr.parse("x0 @ x1")
    except expr.ExprError as exc:
        err = exc
    assert err is not None and err.pos == 3
    assert "line 1, column 4" in str(err)
    try:
        expr.parse("x0 +\nx1 * tau[7]")
    except expr.ExprError as exc:
        err = exc
    assert "line 2" in str(err)


def test_eval_examples():
    assert expr.evaluate_text("[x0, x1]") == PositionElement.x(1).scale(
        ScalarValue.number(0, 1) * ScalarValue.kappa(-1)
    )
    assert expr.evaluate_text("act(del[0], x0^2)") == PositionElement.x(0).scale(2)
    assert expr.evaluate_text("box") == box()
    assert expr.evaluate_text("f[4,4]") == f_matrix()[4][4]
    assert expr.evaluate_text("del[2]") == derivatives()[2]
    assert expr.evaluate_text("1/2 * E[1] + 1/2 * E[1]^-1") == (
        ScalarValue.E(1) + ScalarValue.E(1, -1)
    ) * ScalarValue.number(Fraction(1, 2))
    assert expr.evaluate_text("W[1] * star(W[1])") == PositionElement.one()
    value = expr.evaluate_text("[P0, x0]")
    assert value == HeisenbergElement.coerce(
        PositionElement.scalar(ScalarValue.number(0, -1))
    )


def test_eval_forms():
    d = expr.evaluate_text("d(x0^2)")
    assert isinstance(d, OneForm)
    w = expr.evaluate_text("wedge(tau[0], tau[1])")
    assert isinstance(w, TwoForm)
    assert expr.evaluate_text("wedge(tau[0], tau[0])").is_zero()
    assert isinstance(expr.evaluate_text("d(d(x0 * x1))"), TwoForm)
    assert expr.evaluate_text("d(d(x0 * x1))").is_zero()


def test_eval_type_errors():
    with pytest.raises(expr.EvalError):
        expr.evaluate_text("tau[0] + x0")
    with pytest.raises(expr.EvalError):
        expr.evaluate_text("tau[0] * tau[1]")
    with pytest.raises(expr.EvalError):
        expr.evaluate_text("act(x0, x0)")
    with pytest.raises(expr.EvalError):
        expr.evaluate_text("star(wedge(tau[0], tau[1]))")


def test_wave_literal_round_trip():
    w = PlaneWave(
        (ScalarValue.k(1, 1) + ScalarValue.E(2, -1) * ScalarValue.k(2, 1),
         ScalarValue.k(1, 2), ScalarValue()),
        ((1, 1), (2, -2)),
    )
    elem = PositionElement.wave(w)
    assert expr.evaluate_text(elem.render()) == elem


def test_value_renders_parse_back():
    rng = random.Random(89)
    from kmink.fuzz import rand_momentum, rand_position

    for _ in range(25):
        a = rand_position(rng, 2, waves=True)
        assert expr.evaluate_text(a.render()) == a
        p = rand_momentum(rng, 2)
        assert expr.evaluate_text(p.render()) == p


# -- AST round-trip fuzz -------------------------------------------------------

_SYMBOLS = (
    expr.Sym("kappa"), expr.Sym("box"), expr.Sym("x0"), expr.Sym("x1"),
    expr.Sym("x2"), expr.Sym("x3"), expr.Sym("P0"), expr.Sym("P1"),
    expr.Sym("P2"), expr.Sym("P3"), expr.Sym("k", (1, 0)), expr.Sym("k", (2, 3)),
    expr.Sym("E", (1,)), expr.Sym("Exp", (-1,)), expr.Sym("W", (1,)),
    expr.Sym("tau", (0,)), expr.Sym("tau", (4,)), expr.Sym("del", (2,)),
    expr.Sym("e", (4,)), expr.Sym("f", (0, 4)),
)


def random_ast(rng, depth):
    if depth == 0:
        if rng.random() < 0.4:
            re = Fraction(rng.randint(0, 5), rng.randint(1, 4))
            if rng.random() < 0.3:
                return expr.Num(Fraction(0), re if re else Fraction(1))
            return expr.Num(re)
        return _SYMBOLS[rng.randrange(len(_SYMBOLS))]
    kind = rng.randrange(9)
    if kind in (0, 1):
        return expr.Add(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 2:
        return expr.Sub(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind in (3, 4):
        return expr.Mul(random_ast(rng, depth - 1), random_ast(rng, depth - 1))
    if kind == 5:
        return expr.Neg(random_ast(rng, depth - 1))
    if kind == 6:
        return expr.Pow(random_ast(rng, 0), rng.choice((-2, -1, 2, 3)))
    if kind == 7:
        name = rng.choice(sorted(expr._FUNCTIONS))
        arity = expr._FUNCTIONS[name][0]
        return expr.Call(name, tuple(random_ast(rng, depth - 1) for _ in range(arity)))
    return expr.Comm(random_ast(rng, depth - 1), random_ast(rng, depth - 1))


def test_round_trip_corpus():
    rng = random.Random(97)
    names = set()
    for n in range(200):
        ast = random_ast(rng, rng.randint(1, 4))
        text = expr.render(ast)
        assert expr.parse(text) == ast, text
        names.update(name for name in expr._FUNCTIONS if f"{name}(" in text)
    assert names == set(expr._FUNCTIONS)


def test_round_trip_functions():
    cases = [
        "star(x0 * x1)",
        "d(x0^2 + x1 * x2)",
        "wedge(d(x0), tau[1])",
        "act(f[0,4], x0)",
        "[del[0], x0]",
        "W{k[1,1]; 0; E[1]^-1 * k[2,2]; k[1,0] + -2*k[2,0]}",
    ]
    for text in cases:
        ast = expr.parse(text)
        assert expr.parse(expr.render(ast)) == ast
