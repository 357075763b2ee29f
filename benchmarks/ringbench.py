"""Coefficient-ring (L0) microbenchmark, run untraced in a child process.

    python3 ringbench.py REPORT_PATH

Multiplies and adds every ordered pair of a fixed operand mix of
``ScalarValue``s: Gaussian rationals with denominators 1, 2, 4 and 8, times
``kappa^n``, ``E[j]`` and ``k[j,mu]``, some of them sums of two or three
such monomials.  Writes ``{"ops_per_s", "ops", "checksum"}`` to
REPORT_PATH: the median rate over BATCHES timed batches, and the sha256 of
one pass's rendered results, which the parent compares with a pinned value
so that a broken ring cannot read as fast.
"""

import hashlib
import json
import statistics
import sys
import time
from fractions import Fraction as Q

from kmink.scalars import ScalarValue as S

BATCHES = 7
BATCH_S = 0.2

GAUSSIANS = ((1, 0), (Q(1, 2), 0), (0, Q(-3, 4)), (Q(5, 8), Q(1, 2)),
             (-2, Q(7, 8)), (Q(-1, 4), 1))
FACTORS = (S.number(1), S.kappa(1), S.kappa(-2), S.E(1), S.E(2, -1),
           S.k(1, 0), S.k(2, 3), S.kappa(-1) * S.k(1, 2) * S.E(1))


def operands():
    singles = [S.number(re, im) * f
               for n, (re, im) in enumerate(GAUSSIANS)
               for f in FACTORS[n % 2::2]]
    pairs = [singles[i] + singles[i + 5] for i in range(0, 18, 3)]
    triples = [singles[i] + singles[i + 7] + singles[i + 13] for i in (0, 4, 9)]
    return singles + pairs + triples


def one_pass(ops):
    out = []
    for a in ops:
        for b in ops:
            out.append(a * b)
            out.append(a + b)
    return out


def main(report_path):
    ops = operands()
    first = one_pass(ops)
    rates = []
    for _ in range(BATCHES):
        passes = 0
        t0 = time.perf_counter()
        while True:
            last = one_pass(ops)
            passes += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= BATCH_S:
                break
        rates.append(passes * len(first) / elapsed)
    if last != first:
        raise RuntimeError("ring results changed between passes")
    digest = hashlib.sha256("\n".join(v.render() for v in first).encode()).hexdigest()
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump({"ops_per_s": statistics.median(rates), "ops": len(first),
                   "checksum": digest}, handle)


if __name__ == "__main__":
    main(sys.argv[1])
