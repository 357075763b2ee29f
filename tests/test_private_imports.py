"""No kmink module imports a `_`-prefixed name from another kmink module:
what one module needs from another is public there, and a private name
can change without a look at its callers."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"


def private_imports(source):
    """(line, name) for each `_`-prefixed name that `source` imports from
    kmink, relatively or by the absolute package name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module == "kmink" or module.startswith("kmink."):
                names = [module] + [alias.name for alias in node.names]
            else:
                continue
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names
                     if alias.name == "kmink" or alias.name.startswith("kmink.")]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if any(part.startswith("_") and not part.startswith("__")
                            for part in name.split(".")))
    return found


def test_the_checker_sees_private_imports():
    assert private_imports("from .expr import _act, evaluate") == [(1, "_act")]
    assert private_imports("def f():\n    from kmink.minkowski import _mono_mul") == [
        (2, "_mono_mul")]
    assert private_imports("import kmink._hidden") == [(1, "kmink._hidden")]
    assert private_imports("from __future__ import annotations\n"
                           "from collections import _chain\n"
                           "from . import dirac") == []


def test_no_module_imports_a_private_name_of_another():
    offenders = {path.name: found for path in sorted(SRC.glob("*.py"))
                 if (found := private_imports(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders
