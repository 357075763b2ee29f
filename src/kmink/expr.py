"""Expression grammar: lexer, recursive-descent parser, renderer, evaluator.

The published grammar, round-trip safe (parse(render(ast)) == ast):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := '-' factor | power
    power   := atom ('^' sint)?
    atom    := NUMBER 'i'? | symbol | '(' expr ')' | '[' expr ',' expr ']'
             | function '(' expr (',' expr)* ')'
    symbol  := name ('[' sint (',' sint)* ']')?
             | 'W{' expr ';' expr ';' expr ';' expr '}'
    NUMBER  := INT ('/' INT)?

The vocabulary is data: `_SYMBOLS` gives each symbol name (`kappa`, `box`,
`x0..x3`, `P0..P3`, `k[j,mu]`, `E[j]`, `Exp[l]`, `W[j]`, `tau[i]`,
`del[i]`, `e[i]`, `f[i,j]`) its index ranges and its value, and
`_FUNCTIONS` gives each function (`star`, `d`, `wedge`, `act`) its arity
and evaluator.  The parser and the evaluator read these tables; the
renderer has one rule for all symbols and one for all calls.

`[A,B]` is the commutator; products are left associative.  The W{...}
literal names an arbitrary ordered plane wave (three spatial entries and
an integer combination of time symbols) so every engine value renders
back into the grammar.

The AST nodes are immutable records (`terms.Record`) that no other module
builds: a node's fields cannot be reassigned, and two nodes are equal, and
hash equal, when they are of one kind with equal fields, so
`Add(a, b) != Sub(a, b)`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import momentum as mom
from .action import HeisenbergElement, act
from .forms import OneForm, TwoForm, exterior_d
from .minkowski import PlaneWave, PositionElement
from .scalars import MAX_DIGITS, GaussianRational, ScalarValue, decode
from .terms import Record


class ExprError(ValueError):
    """Positioned syntax or semantic error in an expression."""

    def __init__(self, message, pos=None, where=None):
        self.message, self.pos = message, pos
        if where is not None:
            line, col = where
            super().__init__(f"{message} (line {line}, column {col})")
        elif pos is not None:
            super().__init__(f"{message} (at offset {pos})")
        else:
            super().__init__(message)


def _line_col(text, pos):
    line = text.count("\n", 0, pos) + 1
    col = pos - (text.rfind("\n", 0, pos) + 1) + 1
    return line, col


# -- AST ------------------------------------------------------------------------


class Num(Record):
    __slots__ = ("re", "im")  # Fractions
    DEFAULTS = {"im": Fraction(0)}


class Sym(Record):
    __slots__ = ("name", "args")
    DEFAULTS = {"args": ()}


class WaveLit(Record):
    __slots__ = ("spatial", "time")  # spatial: three sub-expressions; time: one


class Add(Record):
    __slots__ = ("left", "right")


class Sub(Record):
    __slots__ = ("left", "right")


class Mul(Record):
    __slots__ = ("left", "right")


class Pow(Record):
    __slots__ = ("base", "exp")  # exp: an int


class Neg(Record):
    __slots__ = ("value",)


class Call(Record):
    __slots__ = ("name", "args")  # name: a `_FUNCTIONS` key; args: sub-expressions


class Comm(Record):
    __slots__ = ("left", "right")


# -- lexer ----------------------------------------------------------------------

_PUNCT = set("+-*^()[]{},;")


def _lex(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _PUNCT:
            tokens.append((c, c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            num = text[i:j]
            den = None
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                k = j
                while k < n and text[k].isdigit():
                    k += 1
                den = text[j:k]
                j = k
            imag = False
            if j < n and text[j] == "i" and not (j + 1 < n and text[j + 1].isalnum()):
                imag = True
                j += 1
            if max(len(num), len(den or "")) > MAX_DIGITS:
                raise ExprError(f"a number has more than {MAX_DIGITS} digits, "
                                f"more than kmink reads", i)
            if den is not None and int(den) == 0:
                raise ExprError("zero denominator in a number", i)
            value = Fraction(int(num), int(den) if den else 1)
            tokens.append(("NUM", (value, imag), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("IDENT", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    tokens.append(("EOF", None, n))
    return tokens


# -- parser ---------------------------------------------------------------------

# Deepest nesting of brackets, calls and unary minus that parse accepts; it
# keeps the recursive parser, renderer and evaluator well inside Python's
# recursion limit.
MAX_DEPTH = 100

# Largest |exponent| (and |index|) that parse accepts.  It caps the number
# of products a power takes, not its work: a scalar power squares and
# multiplies (about 2 log2 n products), an element power takes n - 1
# products whose coefficients grow with n, so its time grows faster than
# linearly in n.
MAX_EXPONENT = 1000


class _Parser:
    def __init__(self, text):
        self.tokens = _lex(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "EOF":
            raise ExprError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return node

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nested deeper than {MAX_DEPTH} levels",
                            self.peek()[2])

    def expr(self):
        self.enter()
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            right = self.term()
            node = Add(node, right) if op == "+" else Sub(node, right)
        self.depth -= 1
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            self.next()
            node = Mul(node, self.factor())
        return node

    def factor(self):
        if self.peek()[0] == "-":
            self.next()
            self.enter()
            node = Neg(self.factor())
            self.depth -= 1
            return node
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.next()
            return Pow(base, self.signed_int("exponents"))
        return base

    def signed_int(self, noun):
        """A signed integer literal; `noun` (plural) names it in errors."""
        neg = False
        if self.peek()[0] == "-":
            self.next()
            neg = True
        tok = self.expect("NUM")
        value, imag = tok[1]
        if imag or value.denominator != 1:
            raise ExprError(f"{noun} must be integers", tok[2])
        if abs(value) > MAX_EXPONENT:
            raise ExprError(f"{noun} must be at most {MAX_EXPONENT} in absolute value",
                            tok[2])
        return -int(value) if neg else int(value)

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "NUM":
            self.next()
            frac, imag = value
            return Num(Fraction(0), frac) if imag else Num(frac)
        if kind == "(":
            return self.group("(,)", 1, self.expr)[0]
        if kind == "[":
            return Comm(*self.group("[,]", 2, self.expr))
        if kind == "IDENT":
            return self.symbol_or_call()
        raise ExprError(f"unexpected token {value!r}", pos)

    def group(self, marks, count, item):
        """`count` items read by `item`, between the opening and closing
        marks of `marks` (as "[,]") and separated by its middle mark."""
        self.expect(marks[0])
        items = [item()]
        for _ in range(count - 1):
            self.expect(marks[1])
            items.append(item())
        self.expect(marks[2])
        return tuple(items)

    def symbol_or_call(self):
        kind, name, pos = self.next()
        if name in _FUNCTIONS:
            return Call(name, self.group("(,)", _FUNCTIONS[name][0], self.expr))
        if name == "W" and self.peek()[0] == "{":
            entries = self.group("{;}", 4, self.expr)
            return WaveLit(entries[:3], entries[3])
        if name not in _SYMBOLS:
            raise ExprError(f"unknown symbol {name!r}", pos)
        ranges = _SYMBOLS[name][0]
        args = self.group("[,]", len(ranges), lambda: self.signed_int("indices")) if ranges else ()
        if any(r is not None and a not in r for r, a in zip(ranges, args)):
            raise ExprError(f"index out of range in {name}{list(args)}", pos)
        return Sym(name, args)


def parse(text):
    """Parse grammar text into an AST; raises ExprError with line/column."""
    try:
        return _Parser(text).parse()
    except ExprError as exc:
        if exc.pos is None:
            raise
        raise ExprError(exc.message, exc.pos, _line_col(text, exc.pos)) from None


# -- renderer ---------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW = 1, 2, 3, 4

_INFIX = {Add: "+", Sub: "-", Mul: "*"}


def _chain(node):
    """Unwind a left-associative `+`/`-` or `*` chain without recursing:
    its leftmost operand and its links from left to right."""
    kinds = (Mul,) if isinstance(node, Mul) else (Add, Sub)
    links = []
    while isinstance(node, kinds):
        links.append(node)
        node = node.left
    links.reverse()
    return node, links


def _prec(node):
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, Mul):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, Pow):
        return _PREC_POW
    return 5


def render(node):
    """Canonical text for an AST; inverse of parse on the node structure."""
    if isinstance(node, Num):
        if node.im:
            return f"{node.im}i" if not node.re else f"({node.re} + {node.im}i)"
        return str(node.re)
    if isinstance(node, Sym):
        if node.args:
            return f"{node.name}[{','.join(str(a) for a in node.args)}]"
        return node.name
    if isinstance(node, WaveLit):
        inner = "; ".join(render(e) for e in node.spatial) + "; " + render(node.time)
        return "W{" + inner + "}"
    if isinstance(node, (Add, Sub, Mul)):
        prec = _prec(node)
        first, links = _chain(node)
        return _wrap(first, prec) + "".join(
            f" {_INFIX[type(link)]} {_wrap(link.right, prec + 1)}" for link in links
        )
    if isinstance(node, Neg):
        return f"-{_wrap(node.value, _PREC_NEG)}"
    if isinstance(node, Pow):
        return f"{_wrap(node.base, _PREC_POW + 1)}^{node.exp}"
    if isinstance(node, Call):
        return f"{node.name}({', '.join(render(a) for a in node.args)})"
    if isinstance(node, Comm):
        return f"[{render(node.left)}, {render(node.right)}]"
    raise TypeError(f"cannot render {type(node).__name__}")


def _wrap(node, min_prec):
    text = render(node)
    return f"({text})" if _prec(node) < min_prec else text


# -- evaluator ---------------------------------------------------------------------


class EvalError(ValueError):
    pass


# The algebras that mix, through the Heisenberg double, in sums and products.
_ALGEBRAS = (mom.MomentumElement, PositionElement, HeisenbergElement)


def _is_scalar(v):
    return isinstance(v, ScalarValue)


def evaluate(node):
    """Evaluate an AST into a scalar, momentum, position, form or mixed word."""
    if isinstance(node, Num):
        return ScalarValue.from_gaussian(GaussianRational(node.re, node.im))
    if isinstance(node, Sym):
        return _SYMBOLS[node.name][1](*node.args)
    if isinstance(node, WaveLit):
        return _eval_wave(node)
    if isinstance(node, (Add, Sub, Mul)):
        first, links = _chain(node)
        acc = evaluate(first)
        for link in links:
            right = evaluate(link.right)
            if isinstance(link, Mul):
                acc = _mul(acc, right)
            else:
                acc = _add(acc, right if isinstance(link, Add) else _neg(right))
        return acc
    if isinstance(node, Neg):
        return _neg(evaluate(node.value))
    if isinstance(node, Pow):
        return _pow(evaluate(node.base), node.exp)
    if isinstance(node, Call):
        return _FUNCTIONS[node.name][1](*(evaluate(a) for a in node.args))
    if isinstance(node, Comm):
        left, right = evaluate(node.left), evaluate(node.right)
        return _add(_mul(left, right), _neg(_mul(right, left)))
    raise EvalError(f"cannot evaluate {type(node).__name__}")


def _eval_wave(node):
    spatial = []
    for sub in node.spatial:
        v = evaluate(sub)
        if not _is_scalar(v):
            raise EvalError("plane-wave spatial entries must be scalars")
        spatial.append(v)
    t = evaluate(node.time)
    if not _is_scalar(t):
        raise EvalError("plane-wave time entry must be a scalar")
    time = []
    for key, c in t.terms.items():
        kap, ks, es = decode(key)
        if kap or es or len(ks) != 1 or ks[0][1] != 1 or ks[0][0][1] != 0:
            raise EvalError("plane-wave time must be an integer combination of k[j,0]")
        if c.b or c.d != 1:
            raise EvalError("plane-wave time coefficients must be integers")
        time.append((ks[0][0][0], c.a))
    return PositionElement.wave(PlaneWave(tuple(spatial), tuple(sorted(time))))


def _add(a, b):
    a, b = _promote_pair(a, b)
    if type(a) is not type(b):
        raise EvalError(f"cannot add {type(a).__name__} and {type(b).__name__}")
    return a + b


def _neg(a):
    return -a


def _mul(a, b):
    if _is_scalar(a) and isinstance(b, (OneForm, TwoForm)):
        return b.scale(a)
    if _is_scalar(b) and isinstance(a, (OneForm, TwoForm)):
        return a.scale(b)
    if isinstance(a, PositionElement) and isinstance(b, OneForm):
        return b.left_mul(a)
    if isinstance(a, OneForm) and isinstance(b, PositionElement):
        return a.right_mul(b)
    if isinstance(a, OneForm) and isinstance(b, OneForm):
        raise EvalError("use wedge(...) to multiply forms")
    if isinstance(a, (OneForm, TwoForm)) or isinstance(b, (OneForm, TwoForm)):
        raise EvalError(f"cannot multiply {type(a).__name__} and {type(b).__name__}")
    a, b = _promote_pair(a, b)
    return a * b


def _pow(a, n):
    if _is_scalar(a):
        return a ** n
    if n < 0:
        raise EvalError("negative powers need a scalar base")
    if isinstance(a, _ALGEBRAS):
        return a ** n
    raise EvalError(f"cannot raise {type(a).__name__} to a power")


def _star(a):
    if _is_scalar(a):
        return a.conj()
    if isinstance(a, (mom.MomentumElement, PositionElement, OneForm)):
        return a.star()
    raise EvalError(f"star is not defined on {type(a).__name__}")


def _ext_d(a):
    if _is_scalar(a):
        a = PositionElement.scalar(a)
    if isinstance(a, PositionElement):
        return exterior_d(a)
    if isinstance(a, OneForm):
        return a.exterior_d()
    raise EvalError(f"d is not defined on {type(a).__name__}")


def _wedge(a, b):
    if not isinstance(a, OneForm) or not isinstance(b, OneForm):
        raise EvalError("wedge needs two one-forms")
    return a.wedge(b)


def _act(p, a):
    if _is_scalar(p):
        p = mom.MomentumElement.scalar(p)
    if _is_scalar(a):
        a = PositionElement.scalar(a)
    if not isinstance(p, mom.MomentumElement) or not isinstance(a, PositionElement):
        raise EvalError("act needs a momentum expression and a position expression")
    return act(p, a)


def _promote_pair(a, b):
    """Lift scalars into the partner algebra; mix momenta and positions
    through the Heisenberg double."""
    if _is_scalar(a) and _is_scalar(b):
        return a, b
    if _is_scalar(a):
        return _lift_scalar(a, b), b
    if _is_scalar(b):
        return a, _lift_scalar(b, a)
    if type(a) is type(b):
        return a, b
    if isinstance(a, _ALGEBRAS) and isinstance(b, _ALGEBRAS):
        return HeisenbergElement.coerce(a), HeisenbergElement.coerce(b)
    return a, b


def _lift_scalar(s, like):
    if isinstance(like, _ALGEBRAS):
        return type(like).scalar(s)
    raise EvalError(f"cannot combine a scalar with {type(like).__name__}")


# -- vocabulary ---------------------------------------------------------------------

_ANY, _MU, _I = None, range(4), range(5)  # index ranges: any integer, 0..3, 0..4

_SYMBOLS = {
    # name -> (the range of each index, the value as a callable of the indices)
    "kappa": ((), ScalarValue.kappa),
    "box": ((), mom.box),
    **{f"x{mu}": ((), partial(PositionElement.x, mu)) for mu in _MU},
    **{f"P{mu}": ((), partial(mom.MomentumElement.P, mu)) for mu in _MU},
    "k": ((_ANY, _MU), ScalarValue.k),
    "E": ((_ANY,), ScalarValue.E),
    "Exp": ((_ANY,), mom.MomentumElement.exp_weight),
    "W": ((_ANY,), lambda j: PositionElement.wave(PlaneWave.label(j))),
    "tau": ((_I,), OneForm.basis),
    "del": ((_I,), lambda i: mom.derivatives()[i]),
    "e": ((_I,), lambda i: mom.vector_fields()[i]),
    "f": ((_I, _I), lambda i, j: mom.f_matrix()[i][j]),
}

_FUNCTIONS = {
    # name -> (arity, the function of its evaluated arguments)
    "star": (1, _star),
    "d": (1, _ext_d),
    "wedge": (2, _wedge),
    "act": (2, _act),
}


def evaluate_text(text):
    return evaluate(parse(text))
