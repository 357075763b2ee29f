#!/usr/bin/env python3
"""Benchmark of ``kmink verify``, end to end and module by module.

    python3 benchmarks/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program under test is the
checkout's own ``src/kmink`` (it is not installed).  Every ``kmink verify``
invocation is a fresh child process, one at a time: a closed loop with one
client, because that is how a user pays for a verdict (the action cache and
the f-matrix tables start cold in every process).

``--trace 0`` runs the workload's round of invocations, then its
invocations again in turn until ``--seconds`` have passed, and reports the
end-to-end metrics from per-invocation medians.  ``--trace 1`` runs the coefficient-ring microbench,
one untraced round and one traced round (``traced.py``), and reports the
per-layer metrics.  Either way every ledger is checked against the sha256
pinned in ``pins.json``; a run with a failure prints ``"correct": false``,
no metrics, and exits 1.  The last line of standard output is the result as
JSON; the lines before it repeat it for a reader, with the machine it ran
on.  Details and samples go to ``.bench_out/`` in the checkout.

See README.md in this directory for why each workload exists.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import sys
import time
from array import array
from pathlib import Path

from traced import COUNTED, SPANNED, SUITE_NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Ledgers are pinned for these kmink seeds; every invocation uses one of them.
PIN_SEEDS = (42, 7, 11)
# Set-up probes (children that only import kmink.cli) run in threes after
# invocations, so that they sample the whole run, up to this many per run.
SETUP_PROBES = 24
DEADLINE_S = 170.0

# suites, --max-degree, and how many of PIN_SEEDS one round runs.  The gauge
# suite reads no seed, so one seed per round is its whole workload; the
# others draw fuzz fixtures from the seed, so a round runs all three pinned
# seeds and its work is the same whatever the workload seed.
WORKLOADS = {
    "gauge": (("gauge",), 2, 1),
    "calculus-deg3": (("calculus",), 3, 3),
    "suites-deg2": (("hopf", "action", "calculus", "dirac", "limit"), 2, 3),
}

# Per-layer metrics: name, unit, and where the value comes from.
#   ("count", c)          a counter bumped by traced.py
#   ("calls", s)          number of spans named s
#   ("incl", s)           seconds covered by spans named s
#   ("self", s)           their self time: duration minus direct children
#   ("repeat", s)         share of calls to s repeating an earlier call's args
#   (other,)              a value measure_traced computes itself
LAYER_METRICS = [
    ("scalars.mul_calls", "count", ("count", "scalars.mul")),
    ("scalars.add_calls", "count", ("count", "scalars.add")),
    ("scalars.gaussian_ops", "count", ("count", "scalars.gaussian")),
    ("scalars.ring_ops_per_s", "1/s", ("ring",)),
    ("minkowski.mul_calls", "count", ("calls", "minkowski.mul")),
    ("minkowski.mul_s", "s", ("incl", "minkowski.mul")),
    ("minkowski.mul_self_s", "s", ("self", "minkowski.mul")),
    ("minkowski.peak_terms", "count", ("peak_terms", "minkowski.mul")),
    ("action.act_calls", "count", ("calls", "action.act")),
    ("action.act_s", "s", ("incl", "action.act")),
    ("action.act_self_s", "s", ("self", "action.act")),
    ("action.act_repeat_ratio", "ratio", ("repeat", "action.act")),
    ("action.pass_momentum_hit_ratio", "ratio", ("pm_hit_ratio",)),
    ("action.pass_momentum_misses", "count", ("pm_misses",)),
    ("forms.right_mul_calls", "count", ("calls", "forms.right_mul")),
    ("forms.right_mul_s", "s", ("incl", "forms.right_mul")),
    ("forms.exterior_d_s", "s", ("incl", "forms.exterior_d")),
    ("momentum.mul_calls", "count", ("calls", "momentum.mul")),
    ("momentum.mul_s", "s", ("incl", "momentum.mul")),
    ("momentum.coproduct_s", "s", ("incl", "momentum.coproduct")),
    ("dirac.check_diagram_calls", "count", ("calls", "dirac.check_diagram")),
    ("dirac.check_diagram_s", "s", ("incl", "dirac.check_diagram")),
    ("dirac.op_apply_s", "s", ("incl", "dirac.op_apply")),
    ("gauge.field_strength_calls", "count", ("calls", "gauge.field_strength")),
    ("gauge.field_strength_repeat_ratio", "ratio", ("repeat", "gauge.field_strength")),
    ("gauge.field_strength_s", "s", ("incl", "gauge.field_strength")),
    ("gauge.check_star_collapse_s", "s", ("incl", "gauge.check_star_collapse")),
    ("gauge.covariance_s", "s", ("incl", "gauge.covariance")),
    ("gauge.divergence_s", "s", ("incl", "gauge.divergence")),
    ("gauge.invariants_s", "s", ("incl", "gauge.invariants")),
] + [(f"suites.{s}_s", "s", ("incl", f"suites.{s}")) for s in SUITE_NAMES] + [
    ("suites.records", "count", ("records",)),
    ("trace.overhead_ratio", "ratio", ("overhead",)),
]


class BenchFailure(Exception):
    """An invocation failed or its output is wrong; the run has no result."""


# -- child processes -------------------------------------------------------------


class Child:
    """Outcome of one child process: wall from just before spawn to reaping,
    CPU and peak RSS from its rusage, and the JSON report it wrote."""

    def __init__(self, script, report, args, env, deadline):
        stderr = OUT / "child.err"
        report.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / script), str(report), *args]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        self.spawned = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
        status, usage, self.timed_out = _reap(pid, deadline)
        self.wall = time.monotonic() - self.spawned
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.exit = os.waitstatus_to_exitcode(status)
        try:
            self.report = json.loads(report.read_text())
        except (OSError, ValueError):  # not written, or cut short
            self.report = None
        self.stderr = stderr.read_text(errors="replace")[-2000:]

    def check(self, what):
        if self.timed_out:
            raise BenchFailure(f"{what}: killed at the run's deadline")
        if self.exit != 0 or self.report is None:
            raise BenchFailure(f"{what}: exit {self.exit}\n{self.stderr}")


def _reap(pid, deadline):
    """Wait for `pid` until `deadline` (monotonic); kill it past that.
    Returns (wait status, rusage, whether it was killed)."""
    timed_out = False
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        finally:
            os.close(fd)
        if not ready:
            timed_out = True
            os.kill(pid, signal.SIGKILL)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    _, status, usage = os.wait4(pid, 0)
    return status, usage, timed_out


class Session:
    """One benchmark run: the children's environment, the run's deadline,
    the pinned digests, and how many verify invocations were attempted."""

    def __init__(self, pins):
        # The caller's environment without KMINK_* (KMINK_THREADS) and
        # PYTHON* settings, with the checkout's src/ on the path.
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("KMINK_", "PYTHON"))}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["PYTHONHASHSEED"] = "0"
        self.deadline = time.monotonic() + DEADLINE_S
        self.pins = pins
        self.attempted = 0

    def spawn(self, script, report, args=()):
        return Child(script, report, list(args), self.env, self.deadline)

    def invoke(self, call, script="child.py", report=OUT / "plain.json"):
        """Run one verify invocation and check its ledger; returns the Child,
        the ledger's digest and its record count."""
        ledger = OUT / "ledger.jsonl"
        ledger.unlink(missing_ok=True)
        self.attempted += 1
        child = self.spawn(script, report, verify_args(call, ledger))
        child.check(f"{script} verify {call}")
        return (child, *self.check_ledger(call, ledger))

    def run_round(self, calls, script="child.py", tag="plain"):
        """Run one round; returns its Child list, the ledgers' digests in
        call order and their total record count.  Invocation i reports to
        .bench_out/<tag>-<i>.json."""
        children, digests, records = [], [], 0
        for i, call in enumerate(calls):
            child, digest, n = self.invoke(call, script, OUT / f"{tag}-{i}.json")
            children.append(child)
            digests.append(digest)
            records += n
        return children, digests, records

    def check_ledger(self, call, ledger):
        """Check a ledger for fail records and against its pinned sha256.
        Returns (digest, record count)."""
        suite, degree, seed = call
        what = f"{suite} deg {degree} seed {seed}"
        try:
            data = ledger.read_bytes()
            records = [json.loads(line) for line in data.splitlines()]
            failed = [r["id"] for r in records if r["status"] == "fail"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise BenchFailure(f"{what}: unreadable ledger: {exc!r}") from exc
        if failed:
            raise BenchFailure(f"{what}: fail records {failed[:5]}")
        digest = hashlib.sha256(data).hexdigest()
        want = self.pins["ledger_sha256"].get(f"{suite}/deg{degree}/seed{seed}")
        if digest != want:
            raise BenchFailure(f"{what}: ledger sha256 {digest} differs from the pinned {want}")
        return digest, len(records)

    def probe(self):
        """Spawn a child that only imports kmink.cli; returns its set-up time."""
        child = self.spawn("child.py", OUT / "probe.json")
        child.check("set-up probe")
        return child.report["ready"] - child.spawned


# -- workload --------------------------------------------------------------------


def plan(workload, seed):
    """One round: (suite, degree, kmink seed) per invocation.  The workload
    seed picks which pinned seeds run and in what order."""
    suites, degree, n_seeds = WORKLOADS[workload]
    rng = random.Random(seed)
    seeds = rng.sample(PIN_SEEDS, n_seeds)
    calls = [(s, degree, n) for n in seeds for s in suites]
    rng.shuffle(calls)
    return calls


def verify_args(call, ledger):
    suite, degree, seed = call
    return ["verify", "--suite", suite, "--max-degree", str(degree),
            "--seed", str(seed), "--json", str(ledger)]


# -- end to end ------------------------------------------------------------------


def measure_end_to_end(session, calls, seconds):
    """One round, then the round's invocations again in turn until `seconds`
    have passed.  wall_s and cpu_s add up, over a round's invocations, the
    median of each one's samples, so that a run ends at most one invocation
    after `seconds`.  setup_s is the median set-up sample, probes and
    invocations alike, times the invocations in a round."""
    session.probe()  # untimed: it may compile bytecode into a fresh checkout
    samples = [[] for _ in calls]
    setups, probes, records = [], [], 0
    t0 = time.monotonic()
    k = 0
    while k < len(calls) or time.monotonic() - t0 < seconds:
        i = k % len(calls)
        child, _, n = session.invoke(calls[i])
        samples[i].append(child)
        setups.append(child.report["ready"] - child.spawned)
        if k < len(calls):
            records += n
        if len(probes) < SETUP_PROBES:
            probes.extend(session.probe() for _ in range(3))
        k += 1
        if k >= len(calls):  # the next invocation has run before: stop if it would overrun
            slowest = max(c.wall for c in samples[k % len(calls)])
            if time.monotonic() + slowest > session.deadline:
                break

    def per_round(field):
        return sum(statistics.median(getattr(c, field) for c in s) for s in samples)

    wall = per_round("wall")
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (len(calls) * statistics.median(setups + probes), "s"),
        "cpu_s": (per_round("cpu"), "s"),
        "peak_rss_mb": (max(statistics.median(c.rss_mb for c in s) for s in samples), "MB"),
        "records_per_s": (records / wall, "1/s"),
    }
    detail = {"calls": [{"wall_s": [c.wall for c in s], "cpu_s": [c.cpu for c in s],
                         "rss_mb": [c.rss_mb for c in s]} for s in samples],
              "setup_samples": setups + probes}
    return metrics, detail


# -- traced ----------------------------------------------------------------------


def read_spans(path):
    with open(path, "rb") as handle:
        count = array("q")
        count.fromfile(handle, 1)
        n = count[0]
        columns = [array("i"), array("i"), array("d"), array("d")]
        for column in columns:
            column.fromfile(handle, n)
    return columns


def span_totals(report, spans_path, totals):
    """Add one traced invocation's spans to `totals`: per span name, the
    call count, covered seconds (nested same-name spans counted once) and
    self seconds (duration minus the durations of direct children)."""
    names, parents, starts, ends = read_spans(spans_path)
    n = len(names)
    child_time = [0.0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child_time[p] += ends[i] - starts[i]
    covered_until = {}
    for i in range(n):  # spans are stored in start order
        name = report["span_names"][names[i]]
        t = totals.setdefault(name, {"calls": 0, "incl": 0.0, "self": 0.0})
        dur = ends[i] - starts[i]
        t["calls"] += 1
        t["self"] += dur - child_time[i]
        if starts[i] >= covered_until.get(name, float("-inf")):
            t["incl"] += dur
            covered_until[name] = ends[i]


def measure_traced(session, calls):
    """The ring microbench, then one untraced and one traced round."""
    session.probe()  # compiles bytecode into a fresh checkout
    ring = session.spawn("ringbench.py", OUT / "ring.json")
    ring.check("ring microbench")
    want = session.pins["ring_checksum"]
    if ring.report["checksum"] != want:
        raise BenchFailure(f"ring microbench checksum {ring.report['checksum']} "
                           f"differs from the pinned {want}")
    plain, plain_digests, records = session.run_round(calls)
    traced, traced_digests, _ = session.run_round(calls, script="traced.py", tag="traced")
    if traced_digests != plain_digests:
        raise BenchFailure("the traced ledgers differ from the untraced ones")

    spans, counts, repeats = {}, {}, {}
    peak_terms, missing = 0, set()
    pm = {"hits": 0, "misses": 0}
    for i, child in enumerate(traced):
        rep = child.report
        span_totals(rep, OUT / f"traced-{i}.json.spans", spans)
        for name, value in rep["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in rep["repeats"].items():
            repeats[name] = repeats.get(name, 0) + value
        peak_terms = max(peak_terms, rep["peak_terms"])
        missing.update(rep["missing"])
        info = rep["pass_momentum"]
        pm = None if pm is None or info is None else {k: pm[k] + info[k] for k in pm}

    targets = {}
    for name, module, attr, *_ in SPANNED + COUNTED:
        targets.setdefault(name, []).append(f"{module}.{attr}")
    absent = {name for name, wanted in targets.items() if missing.issuperset(wanted)}
    sources = {
        "ring": ring.report["ops_per_s"],
        "records": records,
        "overhead": sum(c.wall for c in traced) / sum(c.wall for c in plain),
        "peak_terms": peak_terms,
    }
    if pm is not None:
        looked_up = pm["hits"] + pm["misses"]
        sources["pm_hit_ratio"] = pm["hits"] / looked_up if looked_up else 0.0
        sources["pm_misses"] = pm["misses"]

    metrics = {}
    for name, unit, (kind, *key) in LAYER_METRICS:
        if key and key[0] in absent:
            continue
        if kind == "count":
            metrics[name] = (counts.get(key[0], 0), unit)
        elif kind in ("calls", "incl", "self", "repeat"):
            t = spans.get(key[0], {"calls": 0, "incl": 0.0, "self": 0.0})
            if kind == "repeat":
                value = repeats.get(key[0], 0) / t["calls"] if t["calls"] else 0.0
            else:
                value = t[kind]
            metrics[name] = (value, unit)
        elif kind in sources:  # absent only when kmink dropped what it reads
            metrics[name] = (sources[kind], unit)
    samples = {"ring": ring.report, "plain_wall_s": [c.wall for c in plain],
               "traced_wall_s": [c.wall for c in traced], "missing": sorted(missing),
               "spans": spans, "counts": counts, "repeats": repeats,
               "pass_momentum": pm}
    return metrics, samples


# -- main ------------------------------------------------------------------------


def machine():
    """Python version, usable CPUs (as `nproc` counts them) and CPU model."""
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model or platform.processor()}


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through _reap, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    pins_path = HERE / "pins.json"
    if not (SRC / "kmink" / "cli.py").is_file() or not pins_path.is_file():
        print(f"error: no kmink sources under {SRC} or no {pins_path.name}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    session = Session(json.loads(pins_path.read_text()))
    calls = plan(args.workload, args.seed)
    info = machine()
    print(f"machine: Python {info['python']}, nproc {info['nproc']}, {info['cpu_model']}")
    print(f"workload {args.workload}, seed {args.seed}: "
          + ", ".join(f"{s} deg {d} seed {n}" for s, d, n in calls))
    try:
        if args.trace:
            metrics, samples = measure_traced(session, calls)
        else:
            metrics, samples = measure_end_to_end(session, calls, args.seconds)
    except BenchFailure as exc:
        attempted = max(1, session.attempted)
        print(f"FAILED: {exc}", file=sys.stderr)
        print(f"failed_ops = 1/{attempted} invocations; no timing is valid")
        print(result_line(False, attempted, 1, {}))
        return 1

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ops = 0/{session.attempted} invocations")
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": info, "calls": calls,
              "metrics": metrics, "samples": samples}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(result_line(True, session.attempted, 0, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
