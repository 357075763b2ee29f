"""One traced ``kmink`` invocation: every layer boundary wrapped from outside.

    python3 traced.py REPORT_PATH KMINK_ARGS...

Each public function or method named in SPANNED and COUNTED is replaced, in
every ``kmink.*`` namespace that holds it (module globals, dicts such as
``suites.SUITES``, class attributes such as ``__rmul__ = __mul__``), by a
wrapper.  Nothing in ``kmink`` itself changes.

- A spanned call records (name, parent span, start, end) into packed
  arrays.  Spans stay in memory until the run ends.
- A counted call (the coefficient ring, L0) only bumps a counter: spanning
  tens of millions of sub-microsecond calls would swamp what it measures.

After ``kmink.cli.main`` returns, every wrapper is put back and the restore
is checked.  REPORT_PATH then receives the counters as JSON, and
REPORT_PATH + ".spans" the spans as packed arrays (see ``write_spans``).
A target that a later version of ``kmink`` no longer has is listed under
``missing`` and its metrics are left out; the run does not fail.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

SUITE_NAMES = ("hopf", "action", "calculus", "dirac", "gauge", "limit")

# (span name, module, attribute, hook).  Several targets may share a name;
# the reader merges them.  hook "repeat" counts calls whose arguments equal
# an earlier call's; hook "terms" tracks the largest result's term count.
SPANNED = (
    ("minkowski.mul", "kmink.minkowski", "PositionElement.__mul__", "terms"),
    ("action.act", "kmink.action", "act", "repeat"),
    ("forms.right_mul", "kmink.forms", "OneForm.right_mul", None),
    ("forms.exterior_d", "kmink.forms", "exterior_d", None),
    ("forms.exterior_d", "kmink.forms", "OneForm.exterior_d", None),
    ("momentum.mul", "kmink.momentum", "MomentumElement.__mul__", None),
    ("momentum.coproduct", "kmink.momentum", "MomentumElement.coproduct", None),
    ("dirac.check_diagram", "kmink.dirac", "check_diagram", None),
    ("dirac.op_apply", "kmink.dirac", "op_apply", None),
    ("gauge.field_strength", "kmink.gauge", "field_strength", "repeat"),
    ("gauge.check_star_collapse", "kmink.gauge", "check_star_collapse", None),
    ("gauge.covariance", "kmink.gauge", "check_f_covariance", None),
    ("gauge.covariance", "kmink.gauge", "check_divergence_covariance", None),
    ("gauge.covariance", "kmink.gauge", "check_invariant_covariance", None),
    ("gauge.divergence", "kmink.gauge", "divergence", None),
    ("gauge.invariants", "kmink.gauge", "invariants", None),
) + tuple((f"suites.{s}", "kmink.suites", f"suite_{s}", None) for s in SUITE_NAMES)

# (counter name, module, attribute).
COUNTED = (
    ("scalars.mul", "kmink.scalars", "ScalarValue.__mul__"),
    ("scalars.add", "kmink.scalars", "ScalarValue.__add__"),
) + tuple(("scalars.gaussian", "kmink.scalars", f"GaussianRational.{op}")
          for op in ("__add__", "__sub__", "__mul__", "__neg__", "conj", "reciprocal"))


class Tracer:
    """Wrappers, their records, and the patches that installed them."""

    def __init__(self):
        self.names = []
        self.counts = {}
        self.repeats = {}
        self.peak_terms = 0
        self.missing = []
        self._patches = []
        self._seen = {}
        self._stack = [-1]
        self._name, self._parent = array("i"), array("i")
        self._start, self._end = array("d"), array("d")

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, name, hook):
        name_id = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        seen = self._seen.setdefault(name, set()) if hook == "repeat" else None
        signature = inspect.signature(fn) if hook == "repeat" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                self._note_repeat(seen, name, signature.bind(*args, **kwargs))
            idx = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook == "terms":
                terms = getattr(result, "terms", None)
                if terms is not None and len(terms) > self.peak_terms:
                    self.peak_terms = len(terms)
            return result

        return wrapper

    def _note_repeat(self, seen, name, bound):
        """Count a call whose arguments, defaults filled in, equal an
        earlier call's."""
        bound.apply_defaults()
        key = tuple(bound.arguments.items())
        try:
            if key in seen:
                self.repeats[name] = self.repeats.get(name, 0) + 1
            else:
                seen.add(key)
        except TypeError:  # unhashable arguments: never a repeat
            pass

    def count(self, fn, name):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    # -- install / restore ------------------------------------------------------

    def install(self):
        for name, module, attr, hook in SPANNED:
            fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            else:
                self._rebind(fn, self.span(fn, name, hook))
        for name, module, attr in COUNTED:
            fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
            else:
                self._rebind(fn, self.count(fn, name))

    def _rebind(self, original, wrapper):
        """Replace `original` by `wrapper` wherever a kmink namespace holds it."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "kmink" and not mod_name.startswith("kmink."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, original, wrapper)
                elif type(value) is dict:
                    for dkey, dval in list(value.items()):
                        if dval is original:
                            self._patch(value, dkey, original, wrapper)
                elif isinstance(value, type) and value.__module__.startswith("kmink"):
                    for ckey, cval in list(vars(value).items()):
                        if cval is original:
                            self._patch(value, ckey, original, wrapper)

    def _patch(self, holder, key, original, wrapper):
        _set(holder, key, wrapper)
        self._patches.append((holder, key, original))

    def restore(self):
        """Put every original back, then check that each one is in place."""
        for holder, key, original in reversed(self._patches):
            _set(holder, key, original)
        stale = [key for holder, key, original in self._patches
                 if _get(holder, key) is not original]
        if stale:
            raise RuntimeError(f"wrappers not restored: {stale}")

    # -- output -----------------------------------------------------------------

    def write_spans(self, path):
        """Packed spans: int64 count n, then n int32 name ids, n int32 parent
        indices (-1 for a root), n float64 starts, n float64 ends."""
        n = len(self._start)
        with open(path, "wb") as handle:
            array("q", [n]).tofile(handle)
            for column in (self._name, self._parent, self._start, self._end):
                column.tofile(handle)


def _resolve(module, attr):
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    *owners, last = attr.split(".")
    for owner in owners:
        obj = getattr(obj, owner, None)
        if obj is None:
            return None
    if owners:
        return vars(obj).get(last)  # defined on this class, not inherited
    return getattr(obj, last, None)


def _set(holder, key, value):
    if type(holder) is dict:
        holder[key] = value
    else:
        setattr(holder, key, value)


def _get(holder, key):
    return holder[key] if type(holder) is dict else getattr(holder, key)


def _pass_momentum_info():
    """Hits and misses of action._pass_momentum's cache, a private read:
    None when a later kmink has no such cache."""
    try:
        info = importlib.import_module("kmink.action")._pass_momentum.cache_info()
    except (ImportError, AttributeError):
        return None
    return {"hits": info.hits, "misses": info.misses}


def main(argv):
    report_path, kmink_args = argv[0], argv[1:]
    import kmink.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = kmink.cli.main(kmink_args)
    finally:
        tracer.restore()
    tracer.write_spans(report_path + ".spans")
    report = {
        "exit": code,
        "span_names": tracer.names,
        "counts": {name: cell[0] for name, cell in tracer.counts.items()},
        "repeats": tracer.repeats,
        "peak_terms": tracer.peak_terms,
        "pass_momentum": _pass_momentum_info(),
        "missing": tracer.missing,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
