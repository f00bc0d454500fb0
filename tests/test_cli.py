"""Command-line front end: flag parsing, rendering, and exit codes."""

import json
from fractions import Fraction as F

import pytest

from udyn.cli import main, parse_point, parse_radius
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


# ------------------------------------------------------------- radius orbit


def test_radius_orbit_text(capsys):
    code, out, _ = run(
        capsys, "radius-orbit", "--p", "3", "--a", "9", "--b", "1", "--c", "9",
        "--r", "3^2",
    )
    assert code == 0
    assert "trajectory: 3^2 -> 1" in out
    assert "needs-critical-value" in out


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


def test_grid_bad_line_is_usage_error(capsys, tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("3 9 3\n")
    code, _, err = run(capsys, "grid", str(grid))
    assert code == 1
    assert "expected 'p a b c'" in err


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


def test_uncertified_prime_exits_1(capsys):
    code, _, err = run(
        capsys, "classify", "--p", "3317044064679887385961981",
        "--a", "2", "--b", "1", "--c", "3",
    )
    assert code == 1
    assert "not certified" in err


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
