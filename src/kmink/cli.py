"""Command-line driver.

    kmink parse <expr>
    kmink eval <expr>         e.g. "act(del[0], x0^2)" or "d(x0^2)"
    kmink verify --suite <name> [--seed N] [--max-degree D] [--json PATH]
    kmink gauge fstrength|transform|verify|limit --config PATH [--unitary U]

Exit codes: 0 pass, 1 assertion failure (a suite that raises is one), 2 usage
or parse error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import sys

from . import suites
from .expr import EvalError, evaluate, parse as parse_expr, render
from .minkowski import PositionElement
from .scalars import ScalarValue

# The engine's values are acyclic, so reference counting frees them and the
# cyclic collector, which `main` switches off while a command runs, would
# only walk the normal-form caches.  At exit the interpreter collects again
# over every live object; freezing them first lets that pass skip the caches.
atexit.register(gc.freeze)


def _cmd_parse(args):
    ast = parse_expr(args.expr)
    print(render(ast))
    return 0


def _cmd_eval(args):
    print(evaluate(parse_expr(args.expr)).render())
    return 0


def _cmd_verify(args):
    cfg = suites.RunConfig(seed=args.seed, max_degree=args.max_degree)
    records = suites.run_suite(args.suite, cfg)
    code = _report(records)
    if args.json:
        try:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(suites.render_jsonl(records))
        except OSError as exc:
            raise ValueError(f"cannot write {args.json!r}: {exc.strerror}") from None
    return code


def _report(records):
    """Print the table of `records`; return the exit code of their verdict."""
    print(suites.render_table(records))
    return 1 if any(r.status == "fail" for r in records) else 0


def _load_gauge_config(path):
    from . import gauge

    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc.strerror}") from None
    return gauge.read_config_text(text)


# The largest `verify --max-degree`; the fuzzed work grows steeply past it.
MAX_DEGREE = 8


def _degree(text):
    value = int(text)
    if not 0 <= value <= MAX_DEGREE:
        raise argparse.ArgumentTypeError(
            f"must be nonnegative and at most {MAX_DEGREE}, got {value}")
    return value


def _eval_unitary(text):
    value = evaluate(parse_expr(text))
    if isinstance(value, ScalarValue):  # a constant phase, lifted as `A0 = 1` is
        value = PositionElement.scalar(value)
    if not isinstance(value, PositionElement):
        raise EvalError("the unitary must be a position expression")
    return value


def _cmd_gauge(args):
    from . import gauge

    cfg = _load_gauge_config(args.config)
    if args.gauge_verb == "fstrength":
        print(gauge.render_strength(gauge.field_strength(cfg)))
        return 0
    if args.gauge_verb == "transform":
        new_cfg = gauge.gauge_transform(cfg, _eval_unitary(args.unitary))
        for k in range(5):
            print(f"A{k} = {new_cfg.A[k].render()}")
        return 0
    if args.gauge_verb == "limit":
        residual = gauge.classical_limit(cfg)
        print(f"classical Lagrangian = {gauge.classical_lagrangian(cfg).render()}")
        print(f"kappa->infinity residual of -C/4 = {residual.render()}")
        return 0 if residual.is_zero() else 1
    # gauge verify.  Each transform is made (and memoised for the checks)
    # first, so a non-unitary U or a non-invertible charge is a usage error.
    unitaries = [_eval_unitary(u) for u in (args.unitary_list or ["W[1]", "W[2]"])]
    for u in unitaries:
        gauge.gauge_transform(cfg, u)
    return _report(suites.run_checks("gauge", suites.gauge_config_checks, cfg, unitaries))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kmink",
        description="Exact symbolic verification engine for the kappa-Minkowski "
                    "algebra, its differential calculus, Dirac operators and the "
                    "deformed U(1) gauge theory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse an expression and print its canonical form")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("eval", help="evaluate an expression to canonical normal form")
    p.add_argument("expr")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", default="all",
                   choices=list(suites.SUITE_NAMES) + ["all"])
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--max-degree", type=_degree, default=2)
    p.add_argument("--json", default=None, help="write line-delimited records here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gauge", help="work with a gauge fixture file")
    gsub = p.add_subparsers(dest="gauge_verb", required=True)
    g = gsub.add_parser("fstrength", help="field strength of a configuration")
    g.add_argument("--config", required=True)
    g.set_defaults(func=_cmd_gauge)
    g = gsub.add_parser("transform", help="gauge-transform a configuration")
    g.add_argument("--config", required=True)
    g.add_argument("--unitary", required=True, help="unitary expression, e.g. W[1]")
    g.set_defaults(func=_cmd_gauge)
    g = gsub.add_parser("verify", help="covariance checks for a configuration")
    g.add_argument("--config", required=True)
    g.add_argument("--unitary", dest="unitary_list", action="append",
                   help="unitary expression (repeatable; default W[1] and W[2])")
    g.set_defaults(func=_cmd_gauge)
    g = gsub.add_parser("limit", help="classical limit of a configuration")
    g.add_argument("--config", required=True)
    g.set_defaults(func=_cmd_gauge)
    return parser


def main(argv=None):
    """Run one command with the cyclic collector off (see `gc.freeze`
    above), then restore the caller's collector setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:  # ExprError and EvalError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
