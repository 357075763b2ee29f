"""Only the term-map core sums in place: no kmink module but `terms` and
`scalars` imports `accumulate` or reads it off another module.  Every
other module builds a term map from (key, coefficient) pairs with
`TermMap.collect`, so how equal keys add and zero sums drop is decided in
one place."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"
CORE = ("scalars.py", "terms.py")


def accumulate_uses(source):
    """Lines on which `source` imports `accumulate` from kmink, relatively
    or by the absolute package name, or reads it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if ((node.level or module == "kmink" or module.startswith("kmink."))
                    and any(alias.name == "accumulate" for alias in node.names)):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "accumulate":
            lines.append(node.lineno)
    return lines


def test_the_checker_sees_accumulate():
    assert accumulate_uses("from .terms import IndexedMap, accumulate") == [1]
    assert accumulate_uses("def f():\n    from kmink.terms import accumulate") == [2]
    assert accumulate_uses("from . import terms\nterms.accumulate(out, key, c)") == [2]
    assert accumulate_uses("from itertools import accumulate\n"
                           "from .terms import IndexedMap\n"
                           "IndexedMap.collect(items)") == []


def test_only_the_core_accumulates_in_place():
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name not in CORE
                 and (lines := accumulate_uses(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders
