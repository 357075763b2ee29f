#!/usr/bin/env python3
"""The expression grammar and the certified identity ledger.

Everything the engine computes can be written, parsed and re-rendered in
one grammar; the verification suites turn the whole construction into a
machine-readable list of pass/fail records.
"""

from kmink import evaluate_text, parse, render
from kmink.suites import RunConfig, render_jsonl, run_suite

print("== parse / render round trip ==")
for text in (
    "x0 * x1 - x1 * x0",
    "act(del[0], x0^2)",
    "wedge(d(x0), tau[1])",
    "star(W[1]) * W[1]",
    "[e[4], x1]",
):
    ast = parse(text)
    print(f"{text:28s} ->", render(ast))

print()
print("== evaluation ==")
for text in (
    "[x0, x1]",
    "act(f[0,4], x0)",
    "(1/2) * E[1] + (1/2) * E[1]^-1",
    "[P1, x1]",
):
    print(f"{text:34s} =", evaluate_text(text).render())

print()
print("== the ledger ==")
records = run_suite("limit", RunConfig(seed=1, max_degree=1))
print(f"suite 'limit': {len(records)} records;"
      f" failures: {sum(r.status == 'fail' for r in records)}")
print("first three machine-readable lines:")
for line in render_jsonl(records).splitlines()[:3]:
    print(" ", line)
