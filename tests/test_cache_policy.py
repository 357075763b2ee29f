"""One cache policy: every memo of kmink is a `terms.memo`.  No kmink module
but `terms` imports `lru_cache` or `cache` from `functools` or reads them
off it, and every cache that a kmink module or class holds (anything with
`cache_info()`) is bounded by the one `terms.MEMO_SIZE`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import kmink
from kmink import terms

SRC = Path(__file__).resolve().parent.parent / "src" / "kmink"
CACHES = ("lru_cache", "cache")


def functools_cache_uses(source):
    """Lines on which `source` imports `lru_cache` or `cache` from
    `functools`, or reads either off the `functools` module."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.module == "functools" and any(a.name in CACHES for a in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            lines.append(node.lineno)
    return lines


def held_caches():
    """(qualified name, cache) for each object with `cache_info()` that a
    kmink module defines, or that a class it defines holds."""
    found = {}
    for info in pkgutil.iter_modules(kmink.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"kmink.{info.name}")
        for name, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__:
                continue  # imported: counted where it is defined
            holders = [(f"{module.__name__}.{name}", value)]
            if isinstance(value, type):
                holders += [(f"{module.__name__}.{name}.{attr}", getattr(v, "__func__", v))
                            for attr, v in vars(value).items()]
            found.update((qualname, obj) for qualname, obj in holders
                         if callable(getattr(obj, "cache_info", None)))
    return found


def test_the_checker_sees_functools_caches():
    assert functools_cache_uses("from functools import lru_cache") == [1]
    assert functools_cache_uses("import functools\n\n@functools.cache\ndef f():\n"
                                "    pass\n") == [3]
    assert functools_cache_uses("from functools import partial, wraps\n"
                                "from .terms import memo") == []


def test_only_terms_imports_a_functools_cache():
    offenders = {path.name: lines for path in sorted(SRC.glob("*.py"))
                 if path.name != "terms.py"
                 and (lines := functools_cache_uses(path.read_text(encoding="utf-8")))}
    assert not offenders, offenders


def test_every_held_cache_has_the_one_bound():
    caches = held_caches()
    # the walk reaches module functions, static methods and methods alike
    assert {"kmink.gauge.field_strength", "kmink.momentum.f_matrix",
            "kmink.action.HeisenbergElement.mono_mul",
            "kmink.minkowski.PlaneWave.star"} <= set(caches)
    offenders = {name: cache.cache_info().maxsize for name, cache in caches.items()
                 if cache.cache_info().maxsize != terms.MEMO_SIZE}
    assert not offenders, offenders
