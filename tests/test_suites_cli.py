"""Suite orchestration, report determinism and the command-line driver."""

import contextlib
import gc
import io
import json
import random
import subprocess
import sys
import time

import pytest

from kmink import dirac, suites
from kmink.action import word
from kmink.cli import main
from kmink.forms import OneForm
from kmink.fuzz import rand_spinor
from kmink.minkowski import PositionElement
from kmink.momentum import MomentumElement
from kmink.scalars import MAX_DIGITS
from kmink.terms import IndexedMap
from tests import child_env


def run_cli(*argv):
    """`kmink ARGV` run in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_suite_names_cover_spec():
    assert set(suites.SUITE_NAMES) == {
        "hopf", "action", "calculus", "dirac", "gauge", "limit"
    }


def test_limit_suite_green():
    records = suites.run_suite("limit")
    assert records
    assert all(r.status != "fail" for r in records)


def test_report_determinism():
    cfg = suites.RunConfig(seed=7, max_degree=1)
    first = suites.render_jsonl(suites.run_suite("limit", cfg))
    second = suites.render_jsonl(suites.run_suite("limit", cfg))
    assert first == second
    for line in first.strip().splitlines():
        record = json.loads(line)
        assert set(record) == {"suite", "id", "equation", "status", "residual"}


def test_run_config_and_check_record_fields():
    cfg = suites.RunConfig()
    assert (cfg.seed, cfg.max_degree) == (42, 2)
    assert suites.RunConfig(seed=7).max_degree == 2
    record = suites.CheckRecord("limit", "id", "1.12", "pass")
    assert (record.residual, record.wall_ms) == ("0", 0.0)
    for value, field in ((cfg, "seed"), (record, "wall_ms")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert hash(cfg) == hash(suites.RunConfig(seed=42))


def test_each_record_carries_its_own_wall_ms(monkeypatch):
    """A record's wall is the time since the previous record of its run;
    the first also pays for what the suite does before its first check."""
    def fake(cfg, check):
        for n in range(3):
            check(f"c{n}", "eq", PositionElement.zero())

    ticks = iter([10.0, 10.5, 10.75, 12.0])
    monkeypatch.setattr(suites.time, "perf_counter", lambda: next(ticks))
    records = suites.run_checks("fake", fake, suites.RunConfig())
    assert [(r.check_id, r.wall_ms) for r in records] == [
        ("c0", 500.0), ("c1", 250.0), ("c2", 1250.0)]


def test_a_suites_walls_sum_to_at_most_its_own_wall():
    cfg = suites.RunConfig(max_degree=1)
    for name in ("hopf", "limit"):
        t0 = time.perf_counter()
        records = suites.run_checks(name, suites.SUITES[name], cfg)
        outer_ms = (time.perf_counter() - t0) * 1000.0
        walls = [r.wall_ms for r in records]
        assert len(set(walls)) > 1 and min(walls) >= 0, (name, walls)
        # each wall is rounded to the microsecond
        assert sum(walls) <= outer_ms + 0.0005 * len(walls), (name, sum(walls), outer_ms)


def test_a_raising_suite_is_a_fail_record(monkeypatch, tmp_path, capsys):
    def boom(cfg, check):
        raise ValueError("engine fault")

    fake = {name: (lambda cfg, check: None) for name in suites.SUITE_NAMES}
    fake.update(hopf=boom, limit=suites.suite_limit)
    monkeypatch.setattr(suites, "SUITES", fake)
    path = tmp_path / "report.jsonl"
    assert main(["verify", "--suite", "all", "--max-degree", "1", "--json", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "FAIL" in out and "engine fault" in err and "Traceback" in err
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {"suite": "hopf", "id": "hopf-raised", "equation": "n/a",
                          "status": "fail", "residual": "ValueError: engine fault"}
    rest = records[1:]
    assert rest and all(r["suite"] == "limit" and r["status"] != "fail" for r in rest)


def test_a_suite_that_raises_keeps_the_records_before_the_raise(capsys):
    def partial(cfg, check):
        check("first", "1.1", PositionElement.zero())
        check("second", "1.2", "a reported text")
        raise ZeroDivisionError("late fault")

    records = suites.run_checks("fake", partial, suites.RunConfig())
    assert [(r.check_id, r.status, r.residual) for r in records] == [
        ("first", "pass", "0"),
        ("second", "reported", "a reported text"),
        ("fake-raised", "fail", "ZeroDivisionError: late fault"),
    ]
    assert "late fault" in capsys.readouterr().err


def test_the_table_shows_a_reported_zero():
    def fake(check):
        check("held", "1.1", PositionElement.zero())
        check("zero", "1.2", "0")

    lines = suites.render_table(suites.run_checks("fake", fake)).splitlines()
    assert lines[0].endswith(" ms") and "residual" not in lines[0]
    assert lines[1].startswith("[INFO]") and lines[1].endswith(" ms  residual: 0")


def test_records_sorted_and_tagged():
    records = suites.run_suite("limit")
    keys = [(r.suite, r.check_id) for r in records]
    assert keys == sorted(keys)
    for r in records:
        assert r.equation


def test_check_status_and_text_come_from_the_residual():
    """A residual passes when zero and otherwise fails with its rendering,
    whatever its kind; a `str` is reported as it is."""
    x0 = PositionElement.x(0)
    tau0 = OneForm.basis(0)
    residuals = [
        x0,
        tau0.left_mul(x0),
        tau0.wedge(OneForm.basis(1)),
        rand_spinor(random.Random(5), 1),
        dirac.clifford_image(1, dirac.GAMMA4_ZERO),
        IndexedMap({"C": x0}),
        word(x0, MomentumElement.P(0)),
    ]

    def fake(values, check):
        for n, value in enumerate(values):
            check(f"fail-{n}", "eq", value)
            check(f"pass-{n}", "eq", value - value)
        check("text", "eq", "0 but reported")

    records = suites.run_checks("s", fake, residuals)
    assert len(records) == 2 * len(residuals) + 1
    for value, failed, passed in zip(residuals, records[0::2], records[1::2]):
        assert (failed.suite, failed.status) == ("s", "fail")
        assert failed.residual == value.render() != "0"
        assert (passed.status, passed.residual) == ("pass", "0")
    assert (records[-1].status, records[-1].residual) == ("reported", "0 but reported")


@pytest.mark.parametrize("text, want", [
    ("(3/2 - 1i) * x1", "(3/2 - 1i) * x1"),
    ("(2 - 1i) * kappa * P2", "(2 - 1i) * kappa * P2"),
    ("(1 + kappa) * x3", "(1 + kappa) * x3"),
    ("(1+1i)*tau[0]", "((1 + 1i)) * tau[0]"),
])
def test_cli_parenthesizes_a_coefficient_once(text, want):
    """A coefficient of one term is printed as it renders; a sum is wrapped
    once by the algebra, and a one-form wraps each coefficient once more.
    The printed text evaluates to itself."""
    code, out, _ = run_cli("eval", text)
    assert code == 0 and out.strip() == want
    code, again, _ = run_cli("eval", want)
    assert code == 0 and again == out


def test_cli_mixed_word_wraps_its_coefficient_once():
    code, out, _ = run_cli("eval", "(1+1i) * x1 * P1")
    assert code == 0 and out.strip() == "((1 + 1i)) * [x1] * [P1]"


def test_cli_parse_eval_and_errors():
    code, out, _ = run_cli("parse", "x0 * x1 - x1 * x0")
    assert code == 0 and out.strip() == "x0 * x1 - x1 * x0"
    code, out, _ = run_cli("eval", "[x0, x1]")
    assert code == 0 and out.strip() == "1i * kappa^-1 * x1"
    code, _, err = run_cli("parse", "tau[9]")
    assert code == 2 and "out of range" in err
    code, _, err = run_cli("eval", "tau[0] + x0")
    assert code == 2
    code, _, _ = run_cli("bogus-verb")
    assert code == 2
    code, _, err = run_cli("eval", "1/0")
    assert code == 2 and "zero denominator" in err
    code, _, err = run_cli("eval", "(" * 3000 + "x0" + ")" * 3000)
    assert code == 2 and "nested deeper" in err
    for degree in ("-3", "9", "1000000"):
        code, _, err = run_cli("verify", "--suite", "limit", "--max-degree", degree)
        assert code == 2 and "nonnegative and at most 8" in err, degree
    code, out, _ = run_cli("verify", "--suite", "limit", "--max-degree", "8")
    assert code == 0 and "0 failed" in out
    code, _, err = run_cli("verify", "--suite", "limit", "--json", "/nonexistent/dir/x.jsonl")
    assert code == 2 and "cannot write" in err
    for n in (1000, 3000):
        code, out, _ = run_cli("eval", " + ".join(["x0"] * n))
        assert code == 0 and out.strip() == f"{n} * x0"
    code, out, _ = run_cli("eval", " * ".join(["x1"] * 1000))
    assert code == 0 and out.strip() == "x1^1000"
    code, out, _ = run_cli("eval", "x1^1000")
    assert code == 0 and out.strip() == "x1^1000"
    code, out, _ = run_cli("eval", "k[1,0]^1000")
    assert code == 0 and out.strip() == "k[1,0]^1000"
    for base in ("k[1,0]", "kappa", "E[1]", "(E[1]^-1)"):
        code, _, err = run_cli("eval", f"((({base}^1000)^1000)^1000)^1000")
        assert code == 2 and "out of range" in err
    # kappa^(2^29), then ^4: in range until the last power
    code, _, err = run_cli("eval", "((((kappa^512)^512)^512)^4)^4")
    assert code == 2 and "out of range" in err
    for text in ("x0^1000000000", "kappa^1000000000", "kappa^-1001"):
        code, _, err = run_cli("eval", text)
        assert code == 2 and "at most 1000" in err
    # a bad symbol index is named as an index, not as an exponent
    for text, want in (("del[2i]", "indices must be integers"),
                       ("f[1/2,0]", "indices must be integers"),
                       ("e[99999999999999999999]", "indices must be at most 1000")):
        code, _, err = run_cli("eval", text)
        assert code == 2 and want in err and "exponent" not in err
    # a number literal past the printable digit count is a positioned parse error
    code, _, err = run_cli("parse", "1" * (MAX_DIGITS + 700))
    assert code == 2 and f"more than {MAX_DIGITS} digits" in err and "column 1" in err
    assert "set_int_max_str_digits" not in err
    # deep momentum powers pass in one closed expansion, with no recursion
    for text, want in (("act(P0^400, x0^2)", "0"),
                       ("P0^400 * x0", "(-400i) * [1] * [P0^399] + (1) * [x0] * [P0^400]"),
                       ("act(P0^1000*P1^1000, x1)", "0"),
                       ("act(P0^2, x0^2)", "-2")):
        code, out, _ = run_cli("eval", text)
        assert code == 0 and out.strip() == want
    chain = " - ".join(["x0"] * 1000)
    code, out, _ = run_cli("parse", chain)
    assert code == 0 and out.strip() == chain


def test_cli_act_and_d():
    code, out, _ = run_cli("eval", "act(del[0], x0^2)")
    assert code == 0 and out.strip() == "2 * x0"
    code, out, _ = run_cli("eval", "d(x0^2)")
    assert code == 0 and "tau[4]" in out
    # `eval` is the one evaluation command: `act` and `d` are usage errors
    for argv in (("act", "del[0]", "x0^2"), ("d", "x0^2")):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "") and "invalid choice" in err


def test_cli_eval_errors_exit_2_with_their_cause():
    for text, message in (
        ("tau[0] * tau[1]", "use wedge(...) to multiply forms"),
        ("tau[0] * P1", "cannot multiply OneForm and MomentumElement"),
        ("x0 * wedge(tau[0], tau[1])", "cannot multiply PositionElement and TwoForm"),
        ("0^-1", "zero has no inverse"),
        ("P0 * x0 + tau[0]", "cannot add HeisenbergElement and OneForm"),
    ):
        assert run_cli("eval", text) == (2, "", f"error: {message}\n")


def test_cli_verify_json(tmp_path):
    path = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        "verify", "--suite", "limit", "--seed", "3", "--max-degree", "1",
        "--json", str(path),
    )
    assert code == 0
    assert "passed" in out
    lines = path.read_text().strip().splitlines()
    assert all(json.loads(line)["suite"] == "limit" for line in lines)
    code2, _, _ = run_cli(
        "verify", "--suite", "limit", "--seed", "3", "--max-degree", "1",
        "--json", str(path) + ".2",
    )
    assert code2 == 0
    assert path.read_text() == (tmp_path / "report.jsonl.2").read_text()


def test_cli_verify_gamma4_flag():
    """`verify` has no `--gamma4` option: the suites fix gamma_4 = 0."""
    code, out, err = run_cli(
        "verify", "--suite", "limit", "--gamma4", "gamma5:2", "--max-degree", "1",
    )
    assert code == 2 and not out and "--gamma4" in err


def test_package_runs_as_the_cli():
    """`python -m kmink` is the command line, with its exit codes."""
    for argv, want in ((("eval", "x1 * x2"), 0), (("eval", "(x0"), 2)):
        proc = subprocess.run([sys.executable, "-m", "kmink", *argv],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == want, proc.stderr
        if want == 0:
            assert proc.stdout.strip() == "x1 * x2"


def test_main_entry_direct(capsys):
    assert main(["eval", "x1 * x2"]) == 0
    assert "x1 * x2" in capsys.readouterr().out
    assert main(["eval", "(x0"]) == 2


def test_eval_names_the_coefficient_digit_limit(capsys):
    assert main(["eval", "((3*kappa)^1000)^10"]) == 2
    err = capsys.readouterr().err
    assert f"more than {MAX_DIGITS} digits" in err
    assert "set_int_max_str_digits" not in err


def test_main_restores_the_collector_setting(capsys):
    """`main` runs with the cyclic collector off and leaves it as it found
    it: on success, on an exit-2 error and on an argparse usage error."""
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in ((["eval", "x0 * x1"], 0), (["eval", "tau[0] + x0"], 2),
                               (["bogus-verb"], 2)):
                assert main(argv) == code
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()


# More cyclic garbage than one `main` call may leave behind; the argument
# parser alone leaves a few hundred objects (its actions point back at it).
MAX_CYCLIC_GARBAGE = 500


def _cyclic_garbage(argv):
    """The objects in reference cycles that one `main(argv)` call leaves,
    run with the collector off."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        main(argv)
        return gc.collect()
    finally:
        (gc.enable if was else gc.disable)()


def test_a_run_without_the_collector_leaves_bounded_cyclic_garbage(capsys):
    """The engine's values are acyclic, so a suite run with the collector
    off leaves no more cycles than a bare `parse`: only the parser's."""
    verify = _cyclic_garbage(["verify", "--suite", "calculus", "--max-degree", "1"])
    bare = _cyclic_garbage(["parse", "x0"])
    capsys.readouterr()
    assert verify < MAX_CYCLIC_GARBAGE
    assert verify <= bare


def test_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys, kmink.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=child_env())
    assert (proc.returncode, proc.stdout.strip()) == (0, "[]")


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    failing = [suites.CheckRecord("limit", "synthetic", "1.12", "fail", "residual")]
    monkeypatch.setattr(suites, "run_suite", lambda name, cfg=None: failing)
    assert main(["verify", "--suite", "limit"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_gauge_cli_round_trip(tmp_path):
    cfg = tmp_path / "fixture.kmg"
    cfg.write_text("A1 = x0\ng = 1\n")
    code, out, _ = run_cli("gauge", "fstrength", "--config", str(cfg))
    assert code == 0 and out.strip() == "F[0,1] = 1"
    code, out, _ = run_cli("gauge", "verify", "--config", str(cfg),
                           "--unitary", "W[1]")
    assert code == 0 and "FAIL" not in out
    # at g = 1 the published form is the strength: its residual is a shown 0
    published_line = out.splitlines()[-2]
    assert "curvature-two-route-published" in published_line
    assert published_line.endswith(" ms  residual: 0")
    # at g = 2 the strength carries the charge that the transform divides
    # out, so every covariance check passes; the published form, which
    # `fstrength` prints for the same potentials at g = 1, differs from it
    live = tmp_path / "live.kmg"
    live.write_text("A1 = x0\nA4 = x1\ng = 2\n")
    code, out, _ = run_cli("gauge", "verify", "--config", str(live))
    lines = out.splitlines()
    assert code == 0 and [line.split()[0] for line in lines[:-1]] == ["[PASS]"] * 7 + ["[INFO]"]
    assert lines[-1] == "  7 passed, 0 failed, 1 reported"
    assert "curvature-two-route-published" in lines[-2] and "residual: " in lines[-2]
    published = "F[0,1] = 1 + kappa^-1 * x1; F[0,4] = -1 * kappa^-1 * x0; F[1,4] = 1"
    charged = "F[0,1] = 1 + 2 * kappa^-1 * x1; F[0,4] = -2 * kappa^-1 * x0; F[1,4] = 1"
    code, out, _ = run_cli("gauge", "fstrength", "--config", str(live))
    assert code == 0 and out == charged + "\n"
    for text in ("A1 = x0\nA4 = x1\ng = 1\n", "A1 = x0\nA4 = x1\n"):
        live.write_text(text)
        code, out, _ = run_cli("gauge", "fstrength", "--config", str(live))
        assert code == 0 and out == published + "\n"
    code, _, err = run_cli("gauge", "fstrength", "--config", str(live), "--charged")
    assert code == 2 and "--charged" in err
    code, out, err = run_cli("gauge", "verify", "--config", str(live), "--unitary", "x0")
    assert (code, out) == (2, "") and "need a unitary element" in err
    cfg2 = tmp_path / "poly.kmg"
    cfg2.write_text("A4 = x1\n")
    code, out, _ = run_cli("gauge", "limit", "--config", str(cfg2))
    assert code == 0 and "residual of -C/4 = 0" in out
    bad = tmp_path / "bad.kmg"
    bad.write_text("A7 = x0\n")
    code, _, err = run_cli("gauge", "fstrength", "--config", str(bad))
    assert code == 2 and "unknown field" in err
    code, _, err = run_cli("gauge", "fstrength", "--config",
                           str(tmp_path / "missing.kmg"))
    assert code == 2 and "cannot read config" in err


def test_gauge_cli_lifts_a_constant_phase(tmp_path):
    """A scalar unitary is a constant phase, lifted to a position element as
    a fixture's `A0 = 1` is; a scalar that is not a phase is not unitary."""
    cfg = tmp_path / "live.kmg"
    cfg.write_text("A1 = x0\nA4 = x1\ng = 2\n")
    for phase in ("1", "-1", "1i"):
        code, out, err = run_cli("gauge", "verify", "--config", str(cfg), "--unitary", phase)
        assert (code, err) == (0, "") and "FAIL" not in out, phase
    code, out, _ = run_cli("gauge", "transform", "--config", str(cfg), "--unitary", "1i")
    assert code == 0 and out.splitlines()[1:2] == ["A1 = x0"]
    code, out, err = run_cli("gauge", "verify", "--config", str(cfg), "--unitary", "2")
    assert (code, out) == (2, "") and "gauge transformations need a unitary element" in err
