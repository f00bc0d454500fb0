"""Verification-harness tests: critical values, the claim checks, and the
frozen discrepancy surface of the default parameter grid."""

import json
from fractions import Fraction as F

import pytest
from test_golden import golden_text

from udyn.exactnum import InvalidArgument, TruncatedPadic
from udyn.mapengine import PoleHit, validate_params
from udyn.oracle import (
    CheckEntry,
    WrongSphere,
    check_fixed_points,
    check_lemma1,
    check_radius_lemmas,
    critical_value_at,
    default_grid,
    run_verification,
)
from udyn.oracle import _interval_reachable  # tested directly: it is a certificate
from udyn.portrait import classify
from udyn.radiusmaps import Radius, lambda_interval


def entry(report, name):
    found = [e for e in report.checks if e.name == name]
    assert len(found) == 1, (name, [e.name for e in report.checks])
    return found[0]


# ------------------------------------------------------------ crit values


def test_critical_value_on_b_sphere():
    params = validate_params(3, 9, 3, 1)
    # f(6) = 4374/49 and v3(4374) = 7
    assert critical_value_at(F(6), params, "b") == Radius.from_val(3, 7)


def test_critical_value_truncated_input_matches_exact():
    params = validate_params(3, 9, 3, 1)
    x = TruncatedPadic.from_rational(F(6), 3, 48)
    assert critical_value_at(x, params, "b") == Radius.from_val(3, 7)


def test_critical_value_exact_zero_image():
    params = validate_params(3, 9, 3, 1)
    assert critical_value_at(F(-3), params, "b") == Radius.zero(3)


def test_critical_value_pole():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(PoleHit):
        critical_value_at(F(-1), params, "c")


def test_critical_value_wrong_sphere():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(WrongSphere):
        critical_value_at(F(1), params, "b")
    assert issubclass(WrongSphere, InvalidArgument)


def test_critical_value_rejects_unknown_sphere():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(InvalidArgument):
        critical_value_at(F(6), params, "d")


# ------------------------------------------------------------- the bridge


@pytest.mark.parametrize("quad", [(3, 9, 3, 1), (3, 4, 1, 3), (3, 2, 3, 1)])
def test_lemma1_bridge_passes(quad):
    params = validate_params(*quad)
    (result,) = check_lemma1(params, sample_count=12, horizon=10, seed=3)
    assert result.status == "PASS"
    assert result.samples > 0


# ------------------------------------------------------------ fixed points


def test_fixed_point_checks_pass_when_characters_are_stated():
    entries = check_fixed_points(validate_params(3, 4, 1, 3))
    assert all(e.status == "PASS" for e in entries), [
        (e.name, e.status) for e in entries
    ]


def test_fixed_point_character_flag_when_unstated():
    entries = {e.name: e for e in check_fixed_points(validate_params(5, 2, 1, 3))}
    assert entries["fp-character:x1"].status == "FLAGGED"
    assert entries["fp-character:x2"].status == "FLAGGED"
    assert "no character" in entries["fp-character:x1"].note


# --------------------------------------------------- interval reachability


def test_interval_reachable_certifies_trapped_classes():
    spec = validate_params(3, 9, 1, 9).radius_spec()
    lam = lambda_interval(spec)
    # Even-valuation rational radii bounce between the critical spheres.
    assert _interval_reachable(Radius.from_val(3, 0), spec, lam, 2) is False
    assert _interval_reachable(Radius.from_val(3, 4), spec, lam, 2) is False
    # Odd-valuation radii fall into the interval through the zones alone.
    assert _interval_reachable(Radius.from_val(3, -1), spec, lam, 2) is True
    # Half-integer cancellation depths would open a path in one step.
    assert _interval_reachable(Radius.from_val(3, 0), spec, lam, 1) is True


def test_interval_reachable_all_integer_radii_trapped():
    spec = validate_params(3, 3, 1, 6).radius_spec()
    lam = lambda_interval(spec)
    # The interval contains no integer-valuation radius at all, and the
    # walk preserves integrality, so every integer start is trapped --
    # whichever granularity the cancellation depths use.
    for v in (-2, -1, 0, 1, 2, 3):
        assert _interval_reachable(Radius.from_val(3, v), spec, lam, 2) is False
        assert _interval_reachable(Radius.from_val(3, v), spec, lam, 1) is False
    # Half-integer starts never meet a critical sphere and enter directly.
    assert _interval_reachable(Radius.from_exponent(3, -5), spec, lam, 1) is True


# ------------------------------------------------------- flagged surfaces


def test_expansion_flag_sits_on_pole_sphere():
    report = run_verification(validate_params(3, 9, 3, 1))
    for which in ("x1", "x2"):
        e = entry(report, f"portrait:T1.2.4:fp-expansion:{which}")
        assert e.status == "FLAGGED"
        assert "pole" in e.note
        assert set(e.counterexample) == {"x", "v_before", "v_after"}


def test_distance_flag_reports_exact_value():
    report = run_verification(validate_params(3, 9, 3, 1))
    e = entry(report, "portrait:T1.2.3:fp-distance")
    assert e.status == "FLAGGED"
    assert e.note == "stated 1 but the exact distance is 3^-1"
    report2 = run_verification(validate_params(2, 48, 4, 1))
    e2 = entry(report2, "portrait:T1.2.3:fp-distance")
    assert e2.status == "FLAGGED"
    assert "2^-3" in e2.note


def test_entry_flag_carries_trapped_radii():
    report = run_verification(validate_params(3, 9, 1, 9))
    e = entry(report, "portrait:T3.IV:enters-region")
    assert e.status == "FLAGGED"
    assert "impossible" in e.note
    assert e.counterexample["blocked_radii"]
    rad = entry(report, "radius:lambda-entry:p=3(va=2,vb=0,vc=2)")
    assert rad.status == "FLAGGED"
    assert rad.counterexample["trapped_radii"]


# ------------------------------------------------------------ determinism


def test_verification_is_deterministic():
    params = validate_params(3, 9, 3, 1)
    one = run_verification(params, sample_count=10, seed=5).to_json()
    two = run_verification(params, sample_count=10, seed=5).to_json()
    assert one == two


def test_report_shape():
    report = run_verification(validate_params(3, 2, 3, 1), sample_count=6)
    data = report.to_dict()
    assert data["schema"] == 1
    body = data["verification"]
    assert body["params"] == {"p": 3, "a": "2", "b": "3", "c": "1"}
    names = [c["name"] for c in body["checks"]]
    assert len(names) == len(set(names))
    for c in body["checks"]:
        assert set(c) == {"name", "tag", "samples", "status", "counterexample", "note"}


def test_worked_parameter_set_verifies_clean():
    report = run_verification(validate_params(3, 4, 1, 3), sample_count=50, seed=7)
    assert not report.has_fail
    assert report.passed
    assert report.has_flag  # boundary fixed-point location is surfaced


# ------------------------------------------------------------- grid pins


GRID_SURFACE = {
    (3, "9", "3", "1"): {
        "portrait:T1.2.3:fp-distance": "FLAGGED",
        "portrait:T1.2.4:fp-expansion:x1": "FLAGGED",
        "portrait:T1.2.4:fp-expansion:x2": "FLAGGED",
    },
    (3, "2", "3", "1"): {
        "portrait:T1.3:fp-location:x1": "FLAGGED",
        "portrait:T1.3:fp-location:x2": "FLAGGED",
    },
    (3, "1/3", "3", "1"): {},
    (3, "9", "1", "2"): {},
    (5, "2", "1", "3"): {
        "fp-character:x1": "FLAGGED",
        "fp-character:x2": "FLAGGED",
        "portrait:T2.B:fp-character:x1": "FLAGGED",
        "portrait:T2.B:fp-character:x2": "FLAGGED",
    },
    (3, "1/9", "1", "2"): {},
    (3, "27", "1", "6"): {},
    (3, "9", "1", "6"): {
        "portrait:T3.III.c:eventually-constant-radius": "INCONCLUSIVE",
    },
    (3, "81", "2", "9"): {},
    (3, "3", "1", "6"): {
        "fp-character:x1": "FLAGGED",
        "fp-character:x2": "FLAGGED",
        "portrait:T3.IV:enters-region": "FLAGGED",
        "portrait:T3.IV:fp-character:x1": "FLAGGED",
        "portrait:T3.IV:fp-character:x2": "FLAGGED",
        "radius:lambda-entry:p=3(va=1,vb=0,vc=1)": "FLAGGED",
    },
    (3, "4", "1", "3"): {
        "portrait:T3.V.c:eventually-constant-radius": "INCONCLUSIVE",
        "portrait:T3.V.e:fp-location:x1": "FLAGGED",
    },
    (3, "4", "1", "9"): {
        "portrait:T3.V.e:fp-location:x1": "FLAGGED",
    },
    (3, "1/3", "1", "3"): {},
    (2, "3", "4", "1"): {},
    (2, "20", "4", "1"): {
        "portrait:T1.2.2:conditional-limit-zero": "INCONCLUSIVE",
        "portrait:T1.2.3:fp-distance": "FLAGGED",
    },
    (2, "48", "4", "1"): {
        "portrait:T1.2.3:fp-distance": "FLAGGED",
    },
}


def test_default_grid_surface_is_frozen():
    grid = default_grid()
    assert len(grid) == len(GRID_SURFACE)
    for params in grid:
        key = (params.p, str(params.a), str(params.b), str(params.c))
        report = run_verification(params)
        surface = {e.name: e.status for e in report.checks if e.status != "PASS"}
        assert surface == GRID_SURFACE[key], key
        assert not report.has_fail, key
        # the same run, byte for byte, against the pinned CLI output
        assert report.to_json() + "\n" == golden_text("verify", key), key
        classified = json.dumps(classify(params).to_dict(), sort_keys=True, separators=(",", ":"))
        assert classified + "\n" == golden_text("classify", key), key


def test_radius_lemmas_have_no_failures():
    entries = check_radius_lemmas()
    assert entries
    assert all(isinstance(e, CheckEntry) for e in entries)
    assert not any(e.status == "FAIL" for e in entries)
