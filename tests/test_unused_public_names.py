"""No public kmink function or class goes unused: each module-level `def`
or `class` of src/kmink without a leading `_` is named somewhere in
src/kmink other than at its own definition (read, imported or read as an
attribute), or is exported in `kmink.__all__`.  A helper that only tests
call lives in the tests."""

import ast
from pathlib import Path

import kmink

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"


def public_definitions(tree):
    """Names of the module-level functions and classes of `tree` that have
    no leading underscore."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(tree):
    """Every name that `tree` reads, imports or reads as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
    return used


def unused_public(sources, exported=()):
    """(module, name) for each public definition in `sources`, a dict from
    module name to source text, that no module names and `exported` does
    not list."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(names_used, trees.values()), exported)
    return [(module, name) for module, tree in trees.items()
            for name in public_definitions(tree) if name not in used]


def test_the_checker_sees_unused_names():
    sources = {"a": "def used():\n    pass\n\n\ndef unused():\n    return 1\n\n\n"
                    "class Shown:\n    pass\n\n\ndef _private():\n    pass\n",
               "b": "from .a import used\n\n\ndef main():\n    return used()\n"}
    assert unused_public(sources) == [("a", "unused"), ("a", "Shown"), ("b", "main")]
    assert unused_public(sources, exported=("Shown", "main")) == [("a", "unused")]
    # a use in the defining module counts, as does an attribute read
    assert unused_public({"a": "def g():\n    pass\n\n\nX = g()\n"}) == []
    assert unused_public({"a": "def g():\n    pass\n",
                          "b": "from . import a\n\nX = a.g()\n"}) == []


def test_every_public_name_has_a_src_use():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    offenders = unused_public(sources, exported=kmink.__all__)
    assert not offenders, offenders
