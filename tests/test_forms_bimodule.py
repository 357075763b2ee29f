"""The bimodule of forms has one home, `forms`: the f-twist tau^i a =
f^i_j(a) tau^j is applied only by `OneForm.right_mul` and
`TwoForm.right_mul`, and a two-form is built only through
`TwoForm.collect`, which folds (j, i) into -(i, j), outside `forms`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"

TWIST_OWNERS = {"OneForm.right_mul", "TwoForm.right_mul"}


def scoped_nodes(source):
    """(qualified name of the enclosing function or class, node) for every
    node of `source`; module-level nodes have the scope ''."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            out.append((inner, child))
            visit(child, inner)

    visit(ast.parse(source), "")
    return out


def twoform_constructions(source):
    """Scopes of the direct `TwoForm(...)` calls in `source`."""
    return [scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "TwoForm"]


def act_f_scopes(source):
    """Scopes that name `act_f` (an import does not name it)."""
    return {scope for scope, node in scoped_nodes(source)
            if isinstance(node, ast.Name) and node.id == "act_f"}


def test_the_checkers_see_what_they_guard():
    source = ("w = TwoForm({(0, 1): a})\n"
              "v = TwoForm.collect([((1, 0), a)])\n"
              "class OneForm:\n"
              "    def right_mul(self, b):\n        return act_f(0, 0, b)\n"
              "    def star(self):\n        return [act_f]\n"
              "def f():\n    return TwoForm()\n")
    assert twoform_constructions(source) == ["", "f"]
    assert act_f_scopes(source) == {"OneForm.right_mul", "OneForm.star"}


def test_only_forms_builds_a_two_form_directly():
    offenders = {path.name: scopes for path in sorted(SRC.glob("*.py"))
                 if path.name != "forms.py"
                 and (scopes := twoform_constructions(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders


def test_only_the_right_products_apply_the_f_twist_in_forms():
    scopes = act_f_scopes((SRC / "forms.py").read_text(encoding="utf-8"))
    assert scopes <= TWIST_OWNERS, sorted(scopes - TWIST_OWNERS)
