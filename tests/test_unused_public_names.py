"""No public kmink function, class or method goes unused: each
module-level `def` or `class` of src/kmink without a leading `_`, and each
such `def` in the body of a module-level class, is named somewhere in
src/kmink other than at its own definition (read, imported or read as an
attribute), or, for a module-level name, is exported in `kmink.__all__`.
A helper that only tests call lives in the tests."""

import ast
from pathlib import Path

import kmink

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree):
    """Names of the module-level functions and classes of `tree` that have
    no leading underscore."""
    return [node.name for node in tree.body
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and not node.name.startswith("_")]


def public_methods(tree):
    """(class, method) for each method without a leading underscore defined
    in the body of a module-level class of `tree`."""
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, FUNCTIONS) and not item.name.startswith("_")]


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
    not list, and (module, "Class.method") for each public method that no
    module names."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    used = set().union(*map(names_used, trees.values()))
    named = used | set(exported)
    return ([(module, name) for module, tree in trees.items()
             for name in public_definitions(tree) if name not in named]
            + [(module, f"{cls}.{name}") for module, tree in trees.items()
               for cls, name in public_methods(tree) if name not in used])


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


def test_the_checker_sees_unused_methods():
    sources = {"a": "class C:\n    def read(self):\n        pass\n\n"
                    "    def idle(self):\n        pass\n\n"
                    "    def _own(self):\n        pass\n\n"
                    "    def __add__(self, other):\n        pass\n",
               "b": "from .a import C\n\nX = C().read()\n"}
    assert unused_public(sources) == [("a", "C.idle")]
    # exporting the class does not excuse its methods
    assert unused_public(sources, exported=("C",)) == [("a", "C.idle")]
    # a method read in its own class counts
    assert unused_public({"a": "class C:\n    def g(self):\n        return self.g\n\n\n"
                               "X = C()\n"}) == []


def test_every_public_name_has_a_src_use():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    offenders = unused_public(sources, exported=kmink.__all__)
    assert not offenders, offenders
