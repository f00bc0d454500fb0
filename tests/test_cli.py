"""Command-line front end: flag parsing, rendering, and exit codes."""

import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from test_golden import golden_text

import udyn
from udyn.cli import build_parser, main, parse_point, parse_radius
from udyn.exactnum import InvalidArgument, QuadExt
from udyn.oracle import CheckEntry, VerificationReport
from udyn.radiusmaps import Radius


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ flag parsing


def test_parse_point_rational():
    assert parse_point("2/3", F(9)) == F(2, 3)
    assert parse_point("-7", F(9)) == F(-7)


def test_parse_point_extension():
    assert parse_point("1+2*sqrt(a)", F(2)) == QuadExt(1, 2, 2)
    assert parse_point("3/4-1/2*sqrt(a)", F(5)) == QuadExt(F(3, 4), F(-1, 2), 5)
    assert parse_point("5*sqrt(a)", F(2)) == QuadExt(0, 5, 2)
    assert parse_point("-sqrt(a)", F(2)) == QuadExt(0, -1, 2)
    assert parse_point("sqrt(a)", F(2)) == QuadExt(0, 1, 2)
    assert parse_point("2-sqrt(a)", F(2)) == QuadExt(2, -1, 2)


def test_parse_point_rejects_garbage():
    for text in ("bogus", "1++2*sqrt(a)", "sqrt(b)", "1/0"):
        with pytest.raises(InvalidArgument):
            parse_point(text, F(2))


def test_parse_radius():
    assert parse_radius("0", 3) == Radius.zero(3)
    assert parse_radius("1", 3) == Radius.from_exponent(3, 0)
    assert parse_radius("3^-2", 3) == Radius.from_val(3, 2)
    assert parse_radius("3^-3/2", 3) == Radius.from_exponent(3, -3)


def test_parse_radius_rejects_garbage():
    with pytest.raises(InvalidArgument):
        parse_radius("2^4", 3)  # base mismatch
    with pytest.raises(InvalidArgument):
        parse_radius("7", 3)  # not a power of p
    with pytest.raises(InvalidArgument):
        parse_radius("3^1/3", 3)  # exponent not in the half-integer lattice


# ----------------------------------------------------------------- classify


def test_classify_json_case(capsys):
    code, out, _ = run(
        capsys, "classify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["case"] == "T1.2"
    assert "DISCREPANCY" in data["flags"]


def test_classify_text_carries_all_claims(capsys):
    code, out, _ = run(
        capsys, "classify", "--p", "3", "--a", "9", "--b", "3", "--c", "1"
    )
    assert code == 0
    jcode, jout, _ = run(
        capsys, "classify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--output", "json",
    )
    for claim in json.loads(jout)["claims"]:
        assert f"[{claim['tag']}] {claim['kind']}" in out
    assert "flags: DISCREPANCY" in out


# -------------------------------------------------------------------- orbit


def test_orbit_valuation_column(capsys):
    code, out, _ = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "9", "--n", "3", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)["orbit"]
    assert data["valuations"] == ["2", "6", "10"]
    assert data["points"][1] == "2916/25"
    assert data["termination"] == {"kind": "completed", "steps": 2}


def test_orbit_single_point(capsys):
    code, out, _ = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "0", "--n", "1", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)["orbit"]
    assert data["valuations"] == ["TOP"]


def test_orbit_pole_terminates(capsys):
    code, out, _ = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "-1", "--n", "5", "--output", "json",
    )
    assert code == 0
    assert json.loads(out)["orbit"]["termination"]["kind"] == "pole-hit"


def test_orbit_truncated_start_at_the_pole_is_the_exact_pole_hit(capsys):
    # -1 is the pole -c: checked before the lift, as the exact run checks it
    def orbit_json(*flags):
        code, out, _ = run(
            capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
            "--x", "-1", "--n", "3", *flags, "--output", "json",
        )
        assert code == 0
        return json.loads(out)["orbit"]

    exact, truncated = orbit_json(), orbit_json("--force-truncated")
    assert truncated["termination"] == exact["termination"] == {"index": 0, "kind": "pole-hit"}
    assert truncated["valuations"] == exact["valuations"] == ["0"]
    assert len(truncated["points"]) == 1


def test_orbit_truncated_mode(capsys):
    code, out, _ = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "9", "--n", "40", "--force-truncated", "--precision", "128",
        "--output", "json",
    )
    assert code == 0
    vals = json.loads(out)["orbit"]["valuations"]
    assert vals[:3] == ["2", "6", "10"]
    assert len(vals) == 40


def test_orbit_truncated_sqrt_start_matches_exact_golden(capsys):
    code, out, _ = run(
        capsys, "orbit", "--p", "3", "--a", "1/3", "--b", "1", "--c", "3",
        "--x", "1+2*sqrt(a)", "--n", "5", "--force-truncated", "--output", "json",
    )
    assert code == 0
    data = json.loads(out)["orbit"]
    row = (3, "1/3", "1", "3", "1+2*sqrt(a)", 5)
    exact = json.loads(golden_text("orbit", row))["orbit"]
    assert data["valuations"] == exact["valuations"]
    assert data["termination"] == exact["termination"]
    assert data["x"] == exact["x"]


@pytest.mark.parametrize(
    "coeffs, x",
    [(("9", "3", "1"), "7/5"), (("9", "3", "1"), "0"), (("1/3", "1", "3"), "1+2*sqrt(a)")],
)
def test_orbit_truncated_single_point_is_the_lifted_start(capsys, coeffs, x):
    def orbit_json(n):
        code, out, _ = run(
            capsys, "orbit", "--p", "3", "--a", coeffs[0], "--b", coeffs[1], "--c", coeffs[2],
            "--x", x, "--n", n, "--force-truncated", "--precision", "8", "--output", "json",
        )
        assert code == 0
        return json.loads(out)["orbit"]

    one, two = orbit_json("1"), orbit_json("2")
    assert one["points"] == two["points"][:1]
    assert one["valuations"] == two["valuations"][:1]


def test_orbit_uncertified_start_ends_alike_at_every_length(capsys):
    # at 1 digit the start 1 + sqrt(5) over Q_2 has no certified valuation:
    # one point or more, the orbit ends at index 0 with no point
    ends = []
    for n in ("1", "2"):
        code, out, err = run(
            capsys, "orbit", "--p", "2", "--a", "5", "--b", "1", "--c", "3",
            "--x", "1+sqrt(a)", "--force-truncated", "--precision", "1", "--n", n,
            "--output", "json",
        )
        assert (code, err) == (0, "")
        ends.append(json.loads(out)["orbit"])
    assert ends[0] == ends[1]
    assert ends[0]["points"] == [] and ends[0]["valuations"] == []
    assert ends[0]["termination"] == {"index": 0, "kind": "precision-exhausted"}


@pytest.mark.parametrize("n", ["0", "-1"])
def test_orbit_rejects_n_below_one(capsys, n):
    code, out, err = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "9", "--n", n,
    )
    assert (code, out) == (1, "")
    assert "--n must be >= 1" in err


@pytest.mark.parametrize("precision", ["0", "-1"])
def test_orbit_truncated_rejects_precision_below_one(capsys, precision):
    code, out, err = run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "9", "--n", "3", "--force-truncated", "--precision", precision,
    )
    assert code == 1
    assert out == ""
    assert "--precision must be >= 1" in err


def test_orbit_exact_size_budget_returns_promptly(capsys):
    argv = ("orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1", "--x", "7/5", "--n", "40")
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv, "--output", "json")
    # point 10 alone costs ~0.1 s and point 11 ~0.6 s; 39 steps never return
    assert time.perf_counter() - start < 10
    assert code == 0
    data = json.loads(out)["orbit"]
    assert data["termination"] == {"kind": "size-budget", "index": 8}
    assert len(data["valuations"]) == 8
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "--force-truncated" in out.splitlines()[-1]


# ------------------------------------------------------------- radius orbit


def test_radius_orbit_text(capsys):
    code, out, _ = run(
        capsys, "radius-orbit", "--p", "3", "--a", "9", "--b", "1", "--c", "9",
        "--r", "3^2",
    )
    assert code == 0
    assert "trajectory: 3^2 -> 1" in out
    assert "needs-critical-value" in out
    # the README's example: a start inside the two-cycle interval
    code, out, _ = run(
        capsys, "radius-orbit", "--p", "3", "--a", "9", "--b", "1", "--c", "9",
        "--r", "3^-3/2",
    )
    assert code == 0
    assert "trajectory: 3^-3/2 -> 3^-1/2\n" in out
    assert 'verdict: {"kind":"cycle","radii":["3^-1/2","3^-3/2"]}' in out


@pytest.mark.parametrize("horizon", ["0", "-5"])
def test_radius_orbit_rejects_horizon_below_one(capsys, horizon):
    # checked before the parameters: a degenerate set still reports the horizon
    for b in ("1", "9"):
        code, out, err = run(
            capsys, "radius-orbit", "--p", "3", "--a", "9", "--b", b, "--c", "9",
            "--r", "3^2", "--horizon", horizon,
        )
        assert code == 1
        assert out == ""
        assert "--horizon must be >= 1" in err


# ------------------------------------------------------------- fixed points


def test_fixed_points_json(capsys):
    code, out, _ = run(
        capsys, "fixed-points", "--p", "3", "--a", "4", "--b", "1", "--c", "3",
        "--output", "json",
    )
    assert code == 0
    points = json.loads(out)["fixed_points"]["points"]
    assert [d["which"] for d in points] == ["x0", "x1", "x2"]
    assert points[1]["location"] == "1"
    assert points[1]["multiplier"] == "3/2"
    assert points[2]["location"] == "-5/3"
    assert points[2]["multiplier"] == "17/2"


@pytest.mark.parametrize("precision", ["0", "-4"])
def test_fixed_points_rejects_precision_below_one(capsys, precision):
    # a = 7 is a 3-adic square, so the roots are lifted to --precision digits
    code, out, err = run(
        capsys, "fixed-points", "--p", "3", "--a", "7", "--b", "-8", "--c", "1",
        "--precision", precision,
    )
    assert code == 1
    assert out == ""
    assert "--precision must be >= 1" in err


# ------------------------------------------------------------------- verify


def test_verify_worked_example_exits_clean(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--a", "4", "--b", "1", "--c", "3",
        "--samples", "50", "--seed", "7",
    )
    assert code == 0
    assert "result: PASS" in out
    assert "FLAGGED" in out  # the boundary fixed-point location is rendered
    assert "FAIL" not in out.replace("0 FAIL", "")


def test_verify_text_prints_portrait_flags(capsys):
    code, out, _ = run(
        capsys, "verify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--samples", "4",
    )
    assert code == 0
    assert "portrait flags: DISCREPANCY" in out


# one flag, two flags and none
@pytest.mark.parametrize("row", [(3, 9, 3, 1), (3, 3, 1, 6), (3, "1/3", 3, 1)])
def test_verify_text_prints_what_the_json_carries(capsys, row):
    argv = [f"--{k}={v}" for k, v in zip("pabc", row)] + ["--samples", "4"]
    _, text, _ = run(capsys, "verify", *argv)
    _, doc, _ = run(capsys, "verify", *argv, "--output", "json")
    body = json.loads(doc)["verification"]
    statuses = [c["status"] for c in body["checks"]]
    counts = ", ".join(f"{statuses.count(s)} {s}" for s in ("PASS", "FLAGGED", "INCONCLUSIVE", "FAIL"))
    tail = text.splitlines()[-3:]
    assert tail == [
        f"summary: {len(statuses)} checks — {counts}",
        f"portrait flags: {', '.join(body['flags']) or '(none)'}",
        "result: PASS",
    ]
    entries = [line.split()[:2] for line in text.splitlines()[2:-3] if not line.startswith(" ")]
    assert entries == [[c["status"], c["name"]] for c in body["checks"]]


def test_verify_json_is_byte_stable(capsys):
    argv = (
        "verify", "--p", "3", "--a", "4", "--b", "1", "--c", "3",
        "--samples", "10", "--seed", "3", "--output", "json",
    )
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["schema"] == 1


def test_verify_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("UDYN_SEED", "7")
    _, via_env, _ = run(
        capsys, "verify", "--p", "3", "--a", "4", "--b", "1", "--c", "3",
        "--samples", "10", "--output", "json",
    )
    monkeypatch.delenv("UDYN_SEED")
    _, via_flag, _ = run(
        capsys, "verify", "--p", "3", "--a", "4", "--b", "1", "--c", "3",
        "--samples", "10", "--seed", "7", "--output", "json",
    )
    assert via_env == via_flag


@pytest.mark.parametrize(
    "row, samples",
    [(("5", "2", "1", "3"), "0"), (("3", "9", "3", "1"), "0"), (("3", "9", "3", "1"), "-3")],
    ids=["T2.B", "T2.A", "T2.A-negative"],
)
def test_verify_rejects_sample_count_below_one(capsys, row, samples):
    flags = [f"--{k}={v}" for k, v in zip("pabc", row)]
    code, out, err = run(capsys, "verify", *flags, "--samples", samples)
    assert code == 1
    assert out == ""
    assert "sample count must be >= 1" in err


@pytest.mark.parametrize("horizon", ["0", "-2"])
def test_verify_rejects_horizon_below_one(capsys, horizon):
    code, out, err = run(
        capsys, "verify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--horizon", horizon,
    )
    assert code == 1
    assert out == ""
    assert "horizon must be >= 1" in err


@pytest.mark.parametrize("precision", ["0", "-3"])
def test_verify_rejects_precision_below_one(capsys, precision):
    code, out, err = run(
        capsys, "verify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--precision", precision,
    )
    assert code == 1
    assert out == ""
    assert "precision must be >= 1" in err


# --------------------------------------------------------------------- grid


def test_grid_aggregates_and_exit_codes(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text(
        "# roster\n"
        "3 9 3 1\n"
        "   \n"
        "2 20 4 1  # trailing comment\n"
    )
    code, out, _ = run(capsys, "grid", str(grid), "--samples", "6")
    assert code == 0
    assert out.count("PASS") >= 2
    assert "summary: 2 parameter set(s)" in out


def test_grid_degenerate_row_exits_3(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("3 9 3 1\n3 1 3 1\n")
    code, out, _ = run(capsys, "grid", str(grid), "--samples", "6")
    assert code == 3
    assert "DEGENERATE" in out


def test_grid_fail_outranks_degenerate_row(capsys, tmp_path, monkeypatch):
    def failing(params, sample_count, horizon, seed, precision):
        report = VerificationReport(params, seed, horizon)
        report.checks.append(CheckEntry("fake", "T", 1, "FAIL", {"x": "0"}))
        return report

    monkeypatch.setattr("udyn.cli.run_verification", failing)
    grid = tmp_path / "grid.txt"
    grid.write_text("3 1 3 1\n3 9 3 1\n")
    code, out, _ = run(capsys, "grid", str(grid))
    assert code == 2
    assert "DEGENERATE" in out
    assert "1 FAIL, 1 DEGENERATE" in out


def test_grid_json_shape(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("3 9 3 1\n")
    code, out, _ = run(
        capsys, "grid", str(grid), "--samples", "6", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)["grid"]
    assert data["summary"] == {"rows": 1, "degenerate": 0, "fail": 0, "pass": 1}
    assert data["rows"][0]["status"] == "PASS"


@pytest.mark.parametrize("rows", ["3 9 3 1\n", "3 1 3 1\n"], ids=["valid", "degenerate"])
def test_grid_rejects_sample_count_below_one(capsys, tmp_path, rows):
    grid = tmp_path / "grid.txt"
    grid.write_text(rows)
    code, out, err = run(capsys, "grid", str(grid), "--samples", "0")
    assert code == 1
    assert out == ""
    assert "--samples must be >= 1" in err


def test_grid_rejects_horizon_below_one_before_reading(capsys, tmp_path):
    # the file is never opened: a missing one still reports the horizon
    (tmp_path / "grid.txt").write_text("3 9 3 1\n")
    for path in (tmp_path / "absent.txt", tmp_path / "grid.txt"):
        code, out, err = run(capsys, "grid", str(path), "--horizon", "0")
        assert code == 1
        assert out == ""
        assert "--horizon must be >= 1" in err
        assert "cannot read grid file" not in err


def test_grid_rejects_precision_below_one_before_reading(capsys, tmp_path):
    (tmp_path / "grid.txt").write_text("3 9 3 1\n")
    for path in (tmp_path / "absent.txt", tmp_path / "grid.txt"):
        code, out, err = run(capsys, "grid", str(path), "--precision", "0")
        assert code == 1
        assert out == ""
        assert "--precision must be >= 1" in err
        assert "cannot read grid file" not in err


def test_grid_bad_line_is_usage_error(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("3 9 3\n")
    code, _, err = run(capsys, "grid", str(grid))
    assert code == 1
    assert "expected 'p a b c'" in err


def test_grid_validates_every_line_before_the_first_verification(capsys, tmp_path, monkeypatch):
    calls = []

    def counting(params, *args):
        calls.append(params)
        raise AssertionError("a grid with a bad line must not be verified")

    monkeypatch.setattr("udyn.cli.run_verification", counting)
    grid = tmp_path / "g.txt"
    grid.write_text("3 9 3 1\n2 20 4 1\n3 4 1 3\n4 9 3 1\n")
    code, out, err = run(capsys, "grid", str(grid))
    assert (code, out, calls) == (1, "", [])
    assert f"{grid}:4: p must be prime, got 4" in err


def test_grid_missing_file_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "grid", str(tmp_path / "absent.txt"))
    assert code == 1
    assert "cannot read grid file" in err


# --------------------------------------------------------------- exit codes


def test_degenerate_parameters_exit_3(capsys):
    code, _, err = run(
        capsys, "classify", "--p", "3", "--a", "1", "--b", "3", "--c", "1"
    )
    assert code == 3
    assert "DegenerateParams" in err


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "verify", "--p", "3", "--a", "9")[0] == 1
    assert run(capsys, "bogus")[0] == 1
    assert run(
        capsys, "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--x", "junk", "--n", "2",
    )[0] == 1
    assert run(
        capsys, "radius-orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
        "--r", "2^1",
    )[0] == 1


def test_closed_stdout_exits_1_without_traceback():
    # ~144 KB of output: more than a pipe holds, so the writer always meets
    # the closed pipe
    argv = [
        "orbit", "--p", "3", "--a", "9", "--b", "3", "--c", "1", "--x", "7/5",
        "--n", "200", "--force-truncated", "--precision", "1536",
    ]
    src = str(Path(udyn.__file__).resolve().parent.parent)
    script = "import sys; from udyn.cli import main; sys.exit(main())"
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout.readline().startswith(b"params:")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err
    assert err == ""


def test_uncertified_prime_exits_1(capsys):
    code, _, err = run(
        capsys, "classify", "--p", "3317044064679887385961981",
        "--a", "2", "--b", "1", "--c", "3",
    )
    assert code == 1
    assert "not certified" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


# ---------------------------------------------------------- parser surface

_ROW = ("--p", "3", "--a", "9", "--b", "3", "--c", "1")
_ROW_NS = {"p": 3, "a": F(9), "b": F(3), "c": F(1)}
_RUN = ("--samples", "2", "--horizon", "3", "--seed", "4", "--precision", "70")
_RUN_NS = {"samples": 2, "horizon": 3, "seed": 4, "precision": 70}

# command -> (argv with defaults only, argv with every flag set, the
# Namespace of the latter, a usage error)
PARSER_SURFACE = {
    "classify": (_ROW, (*_ROW, "--output", "json"), _ROW_NS, ("--p", "3")),
    "fixed-points": (
        _ROW, (*_ROW, "--output", "json", "--precision", "8"),
        {**_ROW_NS, "precision": 8}, (*_ROW, "--output", "xml"),
    ),
    "orbit": (
        (*_ROW, "--x", "7/5"),
        (*_ROW, "--output", "json", "--x", "7/5", "--n", "3", "--force-truncated",
         "--precision", "8"),
        {**_ROW_NS, "x": "7/5", "n": 3, "force_truncated": True, "precision": 8},
        ("--x", "7/5", "--p", "3"),
    ),
    "radius-orbit": (
        (*_ROW, "--r", "3^1"), (*_ROW, "--output", "json", "--r", "3^1", "--horizon", "9"),
        {**_ROW_NS, "r": "3^1", "horizon": 9}, (*_ROW, "--r", "3^1", "--output", "xml"),
    ),
    "verify": (_ROW, (*_ROW, "--output", "json", *_RUN), {**_ROW_NS, **_RUN_NS}, ("--p", "3")),
    "grid": (
        ("g.txt",), ("g.txt", "--output", "json", *_RUN), {"file": "g.txt", **_RUN_NS},
        ("g.txt", "--output", "xml"),
    ),
}


def _parse(capsys, parser, argv):
    """(the Namespace's fields or the exit code, stdout, stderr) of one parse."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("command", list(PARSER_SURFACE))
def test_one_command_parser_parses_as_the_full_parser(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    defaults, every_flag, every_ns, error = PARSER_SURFACE[command]
    for tail in (defaults, every_flag, ("--help",), error, ("--output", "xml")):
        argv = [command, *tail]
        alone, full = (_parse(capsys, build_parser(c), argv) for c in (command, None))
        assert alone == full, argv
    # the surface itself: every flag parses, help exits 0, a usage error exits 1
    output = {"command": command, "output": "json"}
    assert _parse(capsys, build_parser(command), [command, *every_flag])[0] == {
        **output, **every_ns
    }
    helped = _parse(capsys, build_parser(command), [command, "--help"])
    assert helped[0] == 0 and helped[1].startswith(f"usage: udyn {command} [-h]")
    code, out, err = _parse(capsys, build_parser(command), [command, *error])
    assert (code, out) == (1, "") and f"udyn {command}: error: " in err


_TOP_HELP = """usage: udyn [-h] command ...

Exact dynamics of f(x) = a*x*((x+b)/(x+c))^2 over the p-adic numbers:
classification, orbits, and brute-force verification.

positional arguments:
  command
    classify    phase portrait for the parameters
    fixed-points
                the three fixed points of f
    orbit       iterate f from a point
    radius-orbit
                iterate the induced radius map
    verify      run every claim check for the parameters
    grid        verify every parameter set in a file

options:
  -h, --help    show this help message and exit
"""


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["--help"], (0, _TOP_HELP, "")),
        ([], (1, "", "usage: udyn [-h] command ...\n"
              "udyn: error: the following arguments are required: command\n")),
        (["bogus"], (1, "", "usage: udyn [-h] command ...\n"
                     "udyn: error: argument command: invalid choice: 'bogus' (choose from "
                     "'classify', 'fixed-points', 'orbit', 'radius-orbit', 'verify', 'grid')\n")),
    ],
    ids=["help", "no-argument", "unknown-command"],
)
def test_full_parser_text_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *argv) == expected


def test_main_builds_only_the_named_subparser(capsys, monkeypatch):
    added = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    code, out, _ = run(capsys, "verify", *_ROW, "--samples", "1", "--horizon", "2")
    assert code == 0 and out.startswith("params: p=3 a=9 b=3 c=1")
    assert added == ["verify"]
    added.clear()
    assert run(capsys, "--help")[0] == 0
    assert added == list(PARSER_SURFACE)
