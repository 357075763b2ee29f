"""The per-layer tracer in benchmarks/traced.py binds to names: every target
it wraps must exist on the current code, each as its own function."""

import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parent.parent / "benchmarks" / "traced.py"


def _traced():
    spec = importlib.util.spec_from_file_location("kmink_bench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_its_own_function():
    traced = _traced()
    targets = [(name, module, attr) for name, module, attr, _hook in traced.SPANNED]
    targets += list(traced.COUNTED)
    names_of = {}
    for name, module, attr in targets:
        fn = traced._resolve(module, attr)
        assert fn is not None, f"{module}.{attr} no longer resolves"
        names_of.setdefault(fn, set()).add(name)
    shared = {fn.__qualname__: names for fn, names in names_of.items() if len(names) > 1}
    assert not shared, f"one function counted under several names: {shared}"
