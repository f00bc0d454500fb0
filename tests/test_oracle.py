"""Verification-harness tests: critical values, the claim checks, and the
frozen discrepancy surface of the default parameter grid."""

import dataclasses
import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_golden import EXTRA_ROWS, golden_text, radius_window_specs, sweep_rows

from udyn import mapengine, oracle, portrait
from udyn.exactnum import (
    TOP,
    InvalidArgument,
    PrecisionExhausted,
    QuadExt,
    TruncatedPadic,
    TruncatedQuad,
)
from udyn.mapengine import (
    Completed,
    DegenerateParams,
    OrbitRecord,
    PoleHit,
    PrecisionExhaustedAt,
    orbit,
    validate_params,
)
from udyn.oracle import (
    CheckEntry,
    WrongSphere,
    check_fixed_points,
    check_lemma1,
    check_portrait,
    check_radius_lemmas,
    critical_value_at,
    default_grid,
    run_verification,
)
from udyn.oracle import _interval_reachable  # tested directly: it is a certificate
from udyn.oracle import _Context, _run_orbit, _sample
from udyn.portrait import case_of, classify
from udyn.radiusmaps import Radius, RadiusMapSpec, canonical_json, lambda_interval, radius_step


def context(params, sample_count=20, horizon=25, seed=0, precision=96):
    """The run context of ``run_verification`` with its default counts."""
    return _Context.of(params, sample_count, horizon, seed, precision)


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
    (result,) = check_lemma1(context(params, sample_count=12, horizon=10, seed=3))
    assert result.status == "PASS"
    assert result.samples > 0


def _precision_limited_critical_value(x, params, which):
    raise PrecisionExhausted("patched")


def _critical_value_one_step_off(x, params, which):
    return _TRUE_CRITICAL_VALUE(x, params, which).scaled_by_power(-2)


def _orbit_cut_to_start(x0, params, steps):
    rec = _TRUE_RUN_ORBIT(x0, params, steps)
    return OrbitRecord(rec.points[:1], rec.valuations[:1], PrecisionExhaustedAt(1))


_TRUE_CRITICAL_VALUE = critical_value_at
_TRUE_RUN_ORBIT = _run_orbit

# Every verdict branch of the bridge on (3, 9, 3, 1), 12 samples, horizon
# 10, seed 3; the expected entries were written by the code before the
# bridge ran through the sampling engine.
LEMMA1_BRANCHES = (
    (None, None, ("PASS", 9, None, "")),
    (
        "critical_value_at",
        _precision_limited_critical_value,
        ("PASS", 9, None, "5 sample(s) precision-limited"),
    ),
    (
        "critical_value_at",
        _critical_value_one_step_off,
        (
            "FAIL",
            4,
            {"x": "9021/9445", "step": 1, "expected": "3^-6", "got": "3^-5"},
            "",
        ),
    ),
    (
        "_run_orbit",
        _orbit_cut_to_start,
        ("INCONCLUSIVE", 9, None, "8 sample(s) precision-limited"),
    ),
)


@pytest.mark.parametrize(
    "attr, patch, expected",
    LEMMA1_BRANCHES,
    ids=("unpatched", "critical-value-exhausted", "critical-value-off", "orbit-cut-to-start"),
)
def test_lemma1_bridge_branches_are_pinned(monkeypatch, attr, patch, expected):
    if attr is not None:
        monkeypatch.setattr(oracle, attr, patch)
    ctx = context(validate_params(3, 9, 3, 1), sample_count=12, horizon=10, seed=3)
    (result,) = check_lemma1(ctx)
    assert result.name == "lemma1-bridge" and result.tag == "L1"
    assert (result.status, result.samples, result.counterexample, result.note) == expected


def _reference_bridge(ctx, claim, t, i, radius, x0, rec):
    """The bridge as it stood before it walked exponents: ``Radius``
    objects stepped by ``radius_step`` off the critical spheres, and the
    point's own critical value (``critical_value_at``) on them."""
    if not rec.points:
        return oracle._PENDING
    params, spec = ctx.params, ctx.spec
    vals = rec.valuations
    r = Radius.from_val(params.p, vals[0])
    for j in range(len(rec.points) - 1):
        use = next((name for q2, name in spec.spheres if r.is_finite and r.q2 == q2), None)
        if use is None:
            r = radius_step(r, spec)
        else:
            try:
                r = oracle.critical_value_at(rec.points[j], params, use)
            except PrecisionExhausted:
                return oracle._PENDING
            except PoleHit:
                return None
        got = Radius.from_val(params.p, vals[j + 1])
        if got != r:
            return {"x": str(x0), "step": j + 1, "expected": str(r), "got": str(got)}
        if r.is_zero:
            break
    return oracle._PENDING if isinstance(rec.termination, PrecisionExhaustedAt) else None


def _bridge_verdicts(ctx):
    """(start, new verdict, reference verdict) of every sample
    ``check_lemma1`` draws for ``ctx``."""
    plan = oracle._BRIDGE
    out = []
    for i, radius, x0 in oracle._draws(ctx, plan, ctx.probes, ctx.seed):
        rec = _run_orbit(x0, ctx.params, plan.steps(ctx.horizon, i))
        args = (ctx, None, oracle._Tally(), i, radius, x0, rec)
        out.append((x0, oracle._judge_bridge(*args), _reference_bridge(*args)))
    return out


def _critical_value_off_admissibly(x, params, which):
    """The true critical value one step inside its admissible range:
    smaller on the |b| sphere, larger on the |c| sphere."""
    return _TRUE_CRITICAL_VALUE(x, params, which).scaled_by_power(-2 if which == "b" else 2)


@pytest.mark.parametrize("off", [False, True], ids=["true-critical-values", "off-admissibly"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_bridge_matches_the_radius_walk_over_the_grid(monkeypatch, seed, off):
    if off:  # a wrong critical value, still inside its sphere's bound
        monkeypatch.setattr(oracle, "critical_value_at", _critical_value_off_admissibly)
    verdicts = [v for params in default_grid() for v in _bridge_verdicts(context(params, seed=seed))]
    assert [(new, str(x0)) for x0, new, _ in verdicts] == [(ref, str(x0)) for x0, _, ref in verdicts]
    # half-integer starts in Q_p(sqrt(a)) and FAIL records are among them
    assert any(isinstance(x0, QuadExt) for x0, _, _ in verdicts)
    assert any(isinstance(new, dict) for _, new, _ in verdicts) == off


@st.composite
def _bridge_rows(draw):
    """p in {2, 3, 5, 7}, nondegenerate a, b, c = p**v * m/n with v in
    [-3, 3] and p-units 1 <= |m|, n <= 50."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    unit = st.integers(1, 50).filter(lambda m: m % p)

    def coefficient():
        m = draw(unit) * draw(st.sampled_from([1, -1]))
        return F(m, draw(unit)) * F(p) ** draw(st.integers(-3, 3))

    try:
        return validate_params(p, coefficient(), coefficient(), coefficient())
    except DegenerateParams:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(params=_bridge_rows(), seed=st.integers(0, 50))
@example(params=validate_params(3, F(1, 3), 3, 1), seed=7)  # ramified sqrt(a)
@example(params=validate_params(2, F(2, 3), 1, 4), seed=0)  # ramified at p = 2
def test_bridge_matches_the_radius_walk_on_drawn_rows(params, seed):
    ctx = context(params, sample_count=8, seed=seed)
    for x0, new, ref in _bridge_verdicts(ctx):
        assert new == ref, str(x0)


_W = validate_params(3, 9, 3, 1)  # |b| = 3^-1, |c| = 1: the pole -1 is on the |c| sphere
_COARSE_MINUS_B = TruncatedPadic.from_rational(F(-3), 3, 1)  # x + b has no certified digit


@pytest.mark.parametrize(
    "points, vals, end, expected",
    [
        # a zero start stays at zero
        ((F(0), F(0), F(0)), (TOP, TOP, TOP), Completed(2), None),
        # and a record that leaves zero is a FAIL on both walks
        ((F(0), F(1)), (TOP, 0), Completed(1), {"x": "0", "step": 1, "expected": "0", "got": "1"}),
        # x = -b: the critical value is the zero radius, matched by f(x) = 0
        ((F(-3), F(0), F(0)), (1, TOP, TOP), Completed(2), None),
        # a critical value that is the pole
        ((F(-1), F(1)), (0, 0), Completed(1), None),
        # a critical value beyond the working precision
        ((_COARSE_MINUS_B, F(1)), (1, 0), Completed(1), oracle._PENDING),
        # an uncertified start
        ((), (), PrecisionExhaustedAt(0), oracle._PENDING),
    ],
    ids=["zero-start", "zero-start-left", "critical-value-zero", "pole", "precision", "no-start"],
)
def test_bridge_records_match_the_radius_walk(points, vals, end, expected):
    ctx = context(_W, sample_count=1, horizon=1)
    x0 = points[0] if points else F(1)
    args = (ctx, None, oracle._Tally(), 0, None, x0, OrbitRecord(points, vals, end))
    assert oracle._judge_bridge(*args) == _reference_bridge(*args) == expected


def test_bridge_builds_no_spec(monkeypatch):
    ctx = context(_W, sample_count=12, horizon=10, seed=3)
    built, visits = [], []
    init = RadiusMapSpec.__init__

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_crit(x, params, which):
        visits.append(which)
        return _TRUE_CRITICAL_VALUE(x, params, which)

    monkeypatch.setattr(RadiusMapSpec, "__init__", counted_init)
    monkeypatch.setattr(oracle, "critical_value_at", counted_crit)
    (result,) = check_lemma1(ctx)
    assert result.status == "PASS"
    assert visits and built == []


def _portrait_entry(params, seed, kind, exceptional=True):
    ctx = context(params, seed=seed)
    if not exceptional:
        ctx = ctx._replace(portrait=dataclasses.replace(ctx.portrait, exceptional=None))
    entries = oracle.check_portrait(ctx)
    (found,) = [e for e in entries if e.name.endswith(f":{kind}")]
    return found.to_dict()


def _landing_shifted(min_steps):
    """A _run_orbit whose last valuation is 2 too high (the radius p**-2
    times too small) on orbits of at least ``min_steps`` steps."""

    def run(x0, params, steps):
        rec = _TRUE_RUN_ORBIT(x0, params, steps)
        if steps < min_steps:
            return rec
        vals = rec.valuations[:-1] + (rec.valuations[-1] + 2,)
        return OrbitRecord(rec.points, vals, rec.termination)

    return run


def test_returns_to_sphere_fail_is_pinned(monkeypatch):
    # moves the landing of every ladder element k >= 2 off the sphere
    monkeypatch.setattr(oracle, "_run_orbit", _landing_shifted(3))
    assert _portrait_entry(validate_params(3, 4, 1, 3), 3, "returns-to-sphere") == {
        "name": "portrait:T3.V.d:returns-to-sphere",
        "tag": "T3.V.d",
        "samples": 5,
        "status": "FAIL",
        "counterexample": {"x": "45896/9733", "k": 2, "expected": "1", "got": "3^-2"},
        "note": "",
    }


def test_enters_sphere_fail_is_pinned(monkeypatch):
    # ladder element k >= 2 lands off the sphere after its k steps; both
    # sides of the counterexample are radii
    monkeypatch.setattr(oracle, "_run_orbit", _landing_shifted(2))
    assert _portrait_entry(validate_params(3, 4, 1, 3), 3, "enters-sphere") == {
        "name": "portrait:T3.V.b:enters-sphere",
        "tag": "T3.V.b",
        "samples": 13,
        "status": "FAIL",
        "counterexample": {"x": "579879/2384", "k": 2, "expected": "1", "got": "3^-2"},
        "note": "",
    }


def test_returns_to_sphere_without_ladder_is_pinned():
    params = validate_params(3, 4, 1, 3)
    assert _portrait_entry(params, 0, "returns-to-sphere", exceptional=False) == {
        "name": "portrait:T3.V.d:returns-to-sphere",
        "tag": "T3.V.d",
        "samples": 0,
        "status": "INCONCLUSIVE",
        "counterexample": None,
        "note": "no ladder",
    }


def _ending_at_zero(x0, params, steps):
    """A _run_orbit whose orbit lands on exact zero after its start."""
    rec = _TRUE_RUN_ORBIT(x0, params, steps)
    return OrbitRecord(rec.points[:1], rec.valuations[:1] + (TOP,), rec.termination)


def test_exact_zero_certifies_zero(monkeypatch):
    # the zero radius reads as fixed to limit_classify, so an exact zero
    # must certify zero before any verdict is read
    monkeypatch.setattr(oracle, "_run_orbit", _ending_at_zero)
    assert _portrait_entry(validate_params(3, 9, 1, 2), 0, "limit-zero")["status"] == "PASS"
    escape = _portrait_entry(validate_params(3, F(1, 9), 1, 2), 0, "escape")
    assert escape["status"] == "FAIL"
    assert escape["counterexample"]["certified"] == "zero"
    assert escape["counterexample"]["claimed"] == "infinity"


# ------------------------------------------------------------ planted defects


def _lead_kind(old, new):
    """A row edit that gives the lead claim of kind ``old`` the kind ``new``."""

    def edit(row):
        lead = tuple((tag, new if kind == old else kind, where) for tag, kind, where in row.lead)
        return row._replace(lead=lead)

    return edit


def _row_fate(new):
    return lambda row: row._replace(fate=new)


# Each planted defect swaps one case's claimed limit for a wrong one; the
# rows of that case among default_grid() and EXTRA_ROWS must FAIL at seed 0.
PLANTED_DEFECTS = (
    pytest.param("T2.A", _row_fate("escape"), id="T2.A-fate"),
    pytest.param("T2.C", _row_fate("limit-zero"), id="T2.C-fate"),
    pytest.param("T3.II", _row_fate("escape"), id="T3.II-fate"),
    pytest.param("T1.2", _row_fate("escape"), id="T1.2-fate"),
    pytest.param("T1.4.3-5", _row_fate("limit-zero"), id="T1.4.3-5-escape-to-limit-zero"),
    pytest.param(
        "T1.4.3-5", _row_fate("eventually-constant-radius"), id="T1.4.3-5-escape-to-constant"
    ),
    pytest.param("T1.4.2", _lead_kind("escape", "limit-zero"), id="T1.4.2-escape-to-limit-zero"),
    pytest.param("T1.4.2", _lead_kind("siegel", "basin"), id="T1.4.2-siegel-to-basin"),
    pytest.param("T3.III", _row_fate("limit-zero"), id="T3.III-constant-to-limit-zero"),
    pytest.param("T3.V", _row_fate("escape"), id="T3.V-constant-to-escape"),
)
_ROWS = default_grid() + tuple(
    validate_params(p, F(a), F(b), F(c)) for p, a, b, c in EXTRA_ROWS
)


@pytest.mark.parametrize("case, edit", PLANTED_DEFECTS)
def test_planted_claim_swap_fails(monkeypatch, case, edit):
    monkeypatch.setitem(portrait._CASES, case, edit(portrait._CASES[case]))
    rows = [params for params in _ROWS if case_of(params.radius_spec())[1] == case]
    assert rows
    for params in rows:
        report = run_verification(params, seed=0)
        assert report.has_fail, (params.to_dict(), report.counts())


# ------------------------------------------------------------ fixed points


def _counted(monkeypatch, fn):
    """Replaces every binding of ``fn`` in the udyn modules by a wrapper
    that records its calls, and returns the record."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (mapengine, portrait, oracle):
        for key, val in list(vars(mod).items()):
            if val is fn:
                monkeypatch.setattr(mod, key, counted)
    return calls


# a row with rational fixed points and one with fixed points in Q_3(sqrt(a))
@pytest.mark.parametrize("quad", [(3, 9, 3, 1), (3, F(1, 3), 1, 3)])
def test_one_run_computes_each_role_once(monkeypatch, quad):
    fps = _counted(monkeypatch, mapengine.fixed_points)
    probes = _counted(monkeypatch, oracle._probe_radii)
    portraits = _counted(monkeypatch, portrait.classify)
    run_verification(validate_params(*quad), sample_count=4, horizon=6)
    # the portrait's fixed points, and the conjugate branch of fp-branch-swap
    assert len(fps) == 2
    assert len(probes) == 1
    assert len(portraits) == 1


def test_fixed_point_checks_pass_when_characters_are_stated():
    entries = check_fixed_points(context(validate_params(3, 4, 1, 3)))
    assert all(e.status == "PASS" for e in entries), [
        (e.name, e.status) for e in entries
    ]


def test_wrong_x0_multiplier_fails_fp_lambda0(monkeypatch):
    # fp-lambda0 compares the x0 multiplier with f'(0) from derivative_at
    right = mapengine._fp_zero

    def wrong(params):
        return right(params)._replace(multiplier=right(params).multiplier + 1)

    monkeypatch.setattr(mapengine, "_fp_zero", wrong)
    params = validate_params(3, 4, 1, 3)
    lam0 = entry(run_verification(params, sample_count=4, horizon=6), "fp-lambda0")
    assert lam0.status == "FAIL"
    assert lam0.counterexample == {"expected": "4/9", "got": "13/9"}


def test_fixed_point_character_flag_when_unstated():
    entries = {e.name: e for e in check_portrait(context(validate_params(5, 2, 1, 3)))}
    for which in ("x1", "x2"):
        e = entries[f"portrait:T2.B:fp-character:{which}"]
        assert (e.status, e.note) == ("FLAGGED", "the applicable case leaves this unspecified")


def _radius_lemmas(params):
    return check_radius_lemmas([params.radius_spec()])


def _fixed_point_checks(params):
    return check_fixed_points(context(params))


def _times_p(value):
    """A radius multiplied by p; for the radius map's step rule on exponents,
    a finite image's exponent raised by 2 (a critical sphere's row as is)."""
    if isinstance(value, Radius):
        return value.scaled_by_power(2)
    return value + 2 if isinstance(value, int) else value


# A fault planted in one engine function (its radius multiplied by p), the
# row and check family it is run on, and each entry that must then take its
# FAIL branch, with the counterexample and note it must carry.  The radius
# lemmas step radii through the map's rule on exponents, ``_image``.
PLANTED_FAULTS = (
    pytest.param(
        oracle,
        "_image",
        (3, 3, 1, 6),
        _radius_lemmas,
        {
            "radius:fix-set:p=3(va=1,vb=0,vc=1)": ({"radius": "3^-1/2"}, ""),
            "radius:lambda-two-cycle:p=3(va=1,vb=0,vc=1)": (
                {"radius": "3^-1/2", "after_two_steps": "3^1/2"},
                "",
            ),
        },
        id="radius-step",
    ),
    pytest.param(
        oracle,
        "separation_identity",
        (3, 9, 3, 1),
        _fixed_point_checks,
        {"fp-separation": ({"actual": "3^-1", "identity": "1"}, "")},
        id="fp-separation",
    ),
)


@pytest.mark.parametrize("module, attr, row, run, failing", PLANTED_FAULTS)
def test_planted_fault_takes_the_fail_branch(monkeypatch, module, attr, row, run, failing):
    params = validate_params(*row)
    before = {e.name: e.status for e in run(params)}
    assert all(before[name] != "FAIL" for name in failing), before
    real = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *args: _times_p(real(*args)))
    after = {e.name: e for e in run(params)}
    for name, (cex, note) in failing.items():
        assert (after[name].status, after[name].counterexample, after[name].note) == (
            "FAIL",
            cex,
            note,
        ), name


def test_planted_identity_fault_fails_fp_separation_alone(monkeypatch):
    # a wrong separation identity, in every module that binds it: the engine's
    # |x1 - x2| is held to the identity by one entry, and fp-distance only
    # compares the stated distance with the identity
    real = portrait.separation_identity
    for module in (portrait, oracle):
        monkeypatch.setattr(module, "separation_identity", lambda params: _times_p(real(params)))
    report = run_verification(validate_params(3, 9, 3, 1), sample_count=4, horizon=6)
    assert [e.name for e in report.checks if e.status == "FAIL"] == ["fp-separation"]


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


@pytest.mark.parametrize("horizon", [0, -1])
def test_run_verification_rejects_horizon_below_one(monkeypatch, horizon):
    def no_classify(params):
        raise AssertionError("classified before the horizon was checked")

    monkeypatch.setattr("udyn.oracle.classify", no_classify)
    with pytest.raises(InvalidArgument, match="horizon must be >= 1"):
        run_verification(validate_params(3, 9, 3, 1), horizon=horizon)


@pytest.mark.parametrize("precision", [0, -1])
def test_run_verification_rejects_precision_below_one(monkeypatch, precision):
    def no_classify(params):
        raise AssertionError("classified before the precision was checked")

    monkeypatch.setattr("udyn.oracle.classify", no_classify)
    with pytest.raises(InvalidArgument, match="precision must be >= 1"):
        run_verification(validate_params(3, 9, 3, 1), precision=precision)


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


def _spy_widths(monkeypatch, run=None):
    """Records the width of every projective orbit _run_orbit tries."""
    widths = []
    run = run or oracle.projective_orbit

    def spy(x, params, n, digits):
        widths.append(digits)
        return run(x, params, n, digits)

    monkeypatch.setattr(oracle, "projective_orbit", spy)
    return widths


def test_sampled_orbit_retries_with_doubled_digits(monkeypatch):
    # the orbit of 311/172 on (3, 9, 3, 1) runs out of digits within 25
    # steps at 2, 4, 8 and 16 digits (at steps 2, 3, 8 and 16), so
    # _run_orbit doubles the width until 32 digits carry all 25 steps
    params = validate_params(3, 9, 3, 1)
    widths = _spy_widths(monkeypatch)
    retried = _run_orbit(F(311, 172), params, 25)
    assert widths == [16, 32]
    assert retried.termination == Completed(25)
    widths.clear()
    monkeypatch.setattr(oracle, "_START_DIGITS", 2)
    narrow = _run_orbit(F(311, 172), params, 25)
    assert widths == [2, 4, 8, 16, 32]
    assert (narrow.valuations, narrow.termination) == (retried.valuations, retried.termination)


def test_sampled_orbit_at_minus_b_tries_one_width(monkeypatch):
    # f(-b) = 0 exactly; the lifted -b exhausted the precision at step 1 at
    # every width, so the sample tried 11 widths and stayed undecided
    params = validate_params(3, 9, 3, 1)
    widths = _spy_widths(monkeypatch)
    rec = _run_orbit(-params.b, params, 25)
    assert widths == [oracle._START_DIGITS]
    assert (rec.valuations, rec.termination) == ((1,) + (TOP,) * 25, Completed(25))


def test_sampled_orbit_keeps_the_retry_ceiling(monkeypatch):
    # an orbit that never finishes is tried up to at least 12,288 digits,
    # the widest try of a 96-digit start under the former 8,192 ceiling
    def exhausted(x, params, n, digits):
        return OrbitRecord((), (), PrecisionExhaustedAt(0))

    widths = _spy_widths(monkeypatch, exhausted)
    rec = _run_orbit(F(311, 172), validate_params(3, 9, 3, 1), 25)
    assert rec.termination == PrecisionExhaustedAt(0)
    assert widths[0] == oracle._START_DIGITS
    assert widths == [widths[0] << i for i in range(len(widths))]
    assert widths[-1] >= 12_288


# default_grid() and the extra row whose critical spheres lie furthest apart
_WIDTH_ROWS = default_grid() + (validate_params(2, F(25, 528), F(656, 49), F(136, 39)),)


def _grid_bytes():
    return [canonical_json(run_verification(params).to_dict()) for params in _WIDTH_ROWS]


@pytest.mark.parametrize("width", (1, 4, 16))
def test_report_does_not_depend_on_the_start_width(monkeypatch, width):
    # every verdict reads certified valuations, so a narrower start only
    # retries more; the conditional qualifier once read a 4-digit point
    # whose critical value was uncertified, and dropped the sample
    monkeypatch.setattr(oracle, "_START_DIGITS", 96)
    wide = _grid_bytes()
    monkeypatch.setattr(oracle, "_START_DIGITS", width)
    assert _grid_bytes() == wide


def test_sampled_orbit_normalises_only_the_points_it_reads(monkeypatch):
    # a rational start steps with no unit inverse: no unit division runs
    # until a point is read, and then one per point, once
    params = validate_params(3, 9, 3, 1)
    # the ladder of this orbit ends at 32 digits
    expected = orbit(F(311, 172), params, 25, precision=32).points[7]
    calls = []
    div = mapengine._div_units

    def spy(*args):
        calls.append(args)
        return div(*args)

    monkeypatch.setattr(mapengine, "_div_units", spy)
    rec = _run_orbit(F(311, 172), params, 25)
    assert rec.termination == Completed(25)
    assert calls == []
    assert rec.points[7] == expected
    assert len(calls) == 1
    assert rec.points[7] is rec.points[-19]
    assert len(calls) == 1


def test_enters_sphere_does_not_pass_an_orbit_that_ended_before_step_k(monkeypatch):
    params = validate_params(3, 4, 1, 3)
    assert _portrait_entry(params, 3, "enters-sphere")["status"] == "PASS"
    monkeypatch.setattr(oracle, "_run_orbit", _orbit_cut_to_start)
    cut = _portrait_entry(params, 3, "enters-sphere")
    assert (cut["status"], cut["note"]) == ("INCONCLUSIVE", "12 orbit(s) ended before step k")


# ----------------------------------------------------- scaling invariance


@st.composite
def _scaled_cases(draw):
    """(params, k): p in {2, 3, 5, 7, 13}, nondegenerate a, b, c =
    p**v * m/n with v in [-8, 8] and p-units 1 <= |m|, n <= 10**6, and a
    shift k in [-8, 8]."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13]))
    unit = st.integers(1, 10**6).filter(lambda m: m % p)

    def coefficient():
        m = draw(unit) * draw(st.sampled_from([1, -1]))
        return F(m, draw(unit)) * F(p) ** draw(st.integers(-8, 8))

    try:
        params = validate_params(p, coefficient(), coefficient(), coefficient())
    except DegenerateParams:
        assume(False)
    return params, draw(st.integers(-8, 8))


def _statuses(params):
    return [e.status for e in run_verification(params, sample_count=8).checks]


# a true limit-zero claim (valuations 8, 4, -7) and a true escape claim
# (-12, 13, 10) that FAILed while limits were judged at |x| = 2**-20 and 2**20
_ZERO_ROW = (2, F(180993792, 352927), F(13051952, 295609), F(-856269, 73659776))
_ESCAPE_ROW = (2, F(179241, 3019894784), F(-5454749696, 830639), F(771423232, 257819))


@settings(max_examples=100, deadline=None)
@given(case=_scaled_cases())
@example(case=(validate_params(*_ZERO_ROW), -4))
@example(case=(validate_params(*_ESCAPE_ROW), -8))
def test_verify_statuses_are_invariant_under_scaling(case):
    # x = p**k * y conjugates f_{a,b,c} to f_{a,b/p**k,c/p**k}, and scales
    # every probe sphere and sample with it: the statuses agree in order
    # (the radius-lemma names carry the valuations, so names differ)
    params, k = case
    lam = F(params.p) ** k
    conjugate = validate_params(params.p, params.a, params.b / lam, params.c / lam)
    assert _statuses(conjugate) == _statuses(params)


# ------------------------------------------------------------ determinism


def test_ramified_samples_run_no_exact_quad_arithmetic(monkeypatch):
    # a start of half-integer valuation is its radius walk: no exact quad
    # product, no engine orbit and no TruncatedQuad, and the engine's
    # valuations
    params = validate_params(3, F(1, 3), 3, 1)
    x0 = _sample(Radius.from_val(3, F(-1, 2)), params, 1, 0)[0]
    assert isinstance(x0, QuadExt)
    exact = orbit(x0, params, 6)
    engine = mapengine.projective_orbit(x0, params, 25, 64)
    calls = []
    mul = QuadExt.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(QuadExt, "__mul__", counted)
    monkeypatch.setattr(QuadExt, "__rmul__", counted)
    monkeypatch.setattr(oracle, "projective_orbit", lambda *a: calls.append(a))
    of = TruncatedQuad._of.__func__
    monkeypatch.setattr(
        TruncatedQuad, "_of", classmethod(lambda cls, *a: calls.append(a) or of(cls, *a))
    )
    rec = _run_orbit(x0, params, 25)
    assert calls == []
    assert rec.termination == Completed(25)
    assert len(rec.valuations) == 26 and rec.valuations == engine.valuations
    # the exact orbit meets its size budget sooner, and agrees on its prefix
    assert rec.valuations[: len(exact.valuations)] == exact.valuations


def test_verification_is_deterministic():
    params = validate_params(3, 9, 3, 1)
    one = canonical_json(run_verification(params, sample_count=10, seed=5).to_dict())
    two = canonical_json(run_verification(params, sample_count=10, seed=5).to_dict())
    assert one == two


def test_report_shape():
    report = run_verification(validate_params(3, 2, 3, 1), sample_count=6)
    data = report.to_dict()
    assert data["schema"] == 1
    body = data["verification"]
    assert body["params"] == {"p": 3, "a": "2", "b": "3", "c": "1"}
    # every field of the report is in the document, the portrait flags included
    assert set(body) == {f.name for f in dataclasses.fields(report)}
    assert body["flags"] == ["BOUNDARY"]
    names = [c["name"] for c in body["checks"]]
    assert len(names) == len(set(names))
    # one entry per fact: a character is the portrait's claim alone
    assert not [n for n in names if n.startswith("fp-character:")]
    assert {n for n in names if "fp-character" in n} == {
        "portrait:T1.3:fp-character:x1",
        "portrait:T1.3:fp-character:x2",
    }
    for c in body["checks"]:
        assert set(c) == {"name", "tag", "samples", "status", "counterexample", "note"}


def test_worked_parameter_set_verifies_clean():
    report = run_verification(validate_params(3, 4, 1, 3), sample_count=50, seed=7)
    assert not report.has_fail
    assert report.counts()["FLAGGED"] > 0  # boundary fixed-point location is surfaced


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
        assert canonical_json(report.to_dict()) + "\n" == golden_text("verify", key), key
        classified = json.dumps(classify(params).to_dict(), sort_keys=True, separators=(",", ":"))
        assert classified + "\n" == golden_text("classify", key), key


def test_seeded_sweep_over_every_case_has_no_failures():
    # 20 drawn rows of each of the 13 cases, the two without a grid row
    # included, at 8 samples per row
    rows = sweep_rows()
    assert all(len(kept) == 20 for kept in rows.values()), rows
    fails = [
        (case, str(params.to_dict()), e.name)
        for case, kept in rows.items()
        for params in kept
        for e in run_verification(params, sample_count=8).checks
        if e.status == "FAIL"
    ]
    assert fails == []


def test_radius_lemmas_have_no_failures():
    # the grid's specs and every spec of the window (2,187: p in {2, 3, 5},
    # valuations in [-4, 4])
    specs = [params.radius_spec() for params in default_grid()] + radius_window_specs()
    entries = check_radius_lemmas(specs)
    assert entries
    assert all(isinstance(e, CheckEntry) for e in entries)
    assert [e.name for e in entries if e.status == "FAIL"] == []


def _lemma_facts(spec, samples=True):
    """(name, status[, samples, note]) of each radius lemma entry of
    ``spec``, its ":p=..." label stripped."""
    return [
        (e.name.split(":p=")[0], e.status) + ((e.samples, e.note) if samples else ())
        for e in check_radius_lemmas([spec])
    ]


_VAL = st.integers(-4, 4)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), va=_VAL, vb=_VAL, vc=_VAL, k=st.integers(-6, 6))
def test_radius_lemmas_only_relabel_under_a_common_shift_of_vb_and_vc(p, va, vb, vc, k):
    assert _lemma_facts(RadiusMapSpec(p, va, vb + k, vc + k)) == _lemma_facts(
        RadiusMapSpec(p, va, vb, vc)
    )


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 5, 7, 11, 13]), va=_VAL, vb=_VAL, vc=_VAL)
def test_radius_lemma_statuses_do_not_depend_on_p(p, va, vb, vc):
    # the sample counts of lambda-two-cycle and lambda-entry do depend on p
    assert _lemma_facts(RadiusMapSpec(p, va, vb, vc), samples=False) == _lemma_facts(
        RadiusMapSpec(3, va, vb, vc), samples=False
    )
