"""Tests for the induced dynamics on radii."""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udyn.exactnum import TOP, InvalidArgument
from udyn.mapengine import validate_params
from udyn.radiusmaps import (
    CriticalValueNeeded,
    Cycle,
    EventuallyConstantAt,
    EventuallyInLambda,
    ExceptionalSet,
    FixedAt,
    HorizonExceeded,
    InvalidRegime,
    NeedsCriticalValue,
    Radius,
    RadiusKind,
    RadiusMapSpec,
    Regime,
    ToInfinity,
    ToZero,
    TwoCycleRegion,
    fix_set,
    lambda_interval,
    limit_classify,
    radius_orbit,
    radius_step,
)
from udyn import radiusmaps
from udyn.portrait import _CASES, case_of  # the ladder a case row attaches
from udyn.radiusmaps import _RadExpr  # the exact ends the exponent window comes from


def rad(p, q2):
    return Radius.from_exponent(p, q2)


def spec_of(p, a, b, c):
    """The radius spec of the map (p, a, b, c), built as the CLI builds it."""
    return validate_params(p, a, b, c).radius_spec()


# ---------------------------------------------------------------- Radius model


def test_radius_canonical_form():
    r = rad(3, 4)
    assert r.q2 == 4 and r.is_finite
    assert r == Radius(3, RadiusKind.FINITE, 4)
    assert hash(r) == hash(rad(3, 4))
    # the zero and infinite radii carry no exponent
    assert Radius(3, RadiusKind.ZERO, 5) == Radius.zero(3)
    assert Radius(3, RadiusKind.INFINITE, -7) == Radius.infinite(3)


def test_radius_from_val():
    assert Radius.from_val(3, 2) == rad(3, -4)
    assert Radius.from_val(3, F(1, 2)) == rad(3, -1)
    assert Radius.from_val(3, TOP).is_zero
    with pytest.raises(InvalidArgument):
        Radius.from_val(3, F(1, 3))


def test_radius_ordering():
    zero, inf = Radius.zero(3), Radius.infinite(3)
    one = rad(3, 0)
    assert zero < one < inf
    assert rad(3, -4) < rad(3, -3) < rad(3, 1)
    # enormous exponent gaps are decided without big powers
    assert rad(3, 10**9) > rad(3, 0)
    assert rad(3, -(10**9)) < rad(3, 0)
    with pytest.raises(InvalidArgument):
        rad(3, 0) < rad(5, 0)


def test_radius_str():
    assert str(Radius.zero(3)) == "0"
    assert str(Radius.infinite(3)) == "inf"
    assert str(rad(3, -4)) == "3^-2"
    assert str(rad(3, 0)) == "1"
    assert str(rad(2, 5)) == "2^5/2"


def test_radius_arithmetic_helpers():
    r = rad(3, -4)
    assert r.scaled_by_power(-2) == rad(3, -6)
    assert Radius.zero(3).scaled_by_power(5).is_zero


# --------------------------------------------------------------------- regimes


def test_spec_regime_examples():
    assert spec_of(3, 9, 3, 1).regime is Regime.LT
    assert spec_of(3, 4, 1, 3).regime is Regime.GT
    assert spec_of(5, 2, 1, 3).regime is Regime.EQ
    with pytest.raises(InvalidArgument):
        spec_of(3, 1, 0, 3)


def test_spec_from_params():
    spec = spec_of(3, 9, 3, 1)
    assert (spec.val_a, spec.val_b, spec.val_c) == (2, 1, 0)
    assert spec.regime is Regime.LT
    assert spec.s == 4
    assert spec.sphere_b() == rad(3, -2)
    assert spec.sphere_c() == rad(3, 0)
    assert spec.spheres == ((-2, "b"), (0, "c"))
    gt = spec_of(3, 4, 1, 3)
    assert gt.spheres == ((-2, "c"), (0, "b"))
    eq = spec_of(5, 2, 1, 3)
    assert eq.spheres == ((0, "b"), (0, "b"))


def test_zone_tables():
    # (m, k) of q2 -> m*q2 + k below, between and above the spheres
    lt = spec_of(3, 9, 3, 1)  # va = 2, vb = 1, vc = 0, s = 4
    assert lt.zones == ((1, -8), (3, -4), (1, -4))
    # LT mid zone: r -> |a| r^3 / |c|^2, on a half-integer exponent too
    assert radius_step(rad(3, -1), lt) == rad(3, 3 * -1 - 4)
    gt = spec_of(3, 9, 1, 9)  # va = 2, vb = 0, vc = 2, s = -2
    assert gt.zones == ((1, 4), (-1, -4), (1, -4))
    # GT mid zone: r -> |a b^2| / r, the inversion through 3^-1
    assert radius_step(rad(3, -3), gt) == rad(3, -1)
    assert radius_step(rad(3, -2), gt) == rad(3, -2)
    eq = spec_of(3, 9, 1, 2)  # no mid zone; s = va
    assert (eq.zones[0], eq.zones[2]) == ((1, -4), (1, -4))


def test_spec_regime_follows_the_valuations():
    # |b| = 1 > |c| = 3^-2 is the GT regime; the spec takes no regime of
    # its own that could say otherwise
    spec = RadiusMapSpec(p=3, val_a=0, val_b=0, val_c=2)
    assert spec.regime is Regime.GT
    assert "regime" not in RadiusMapSpec._fields
    assert spec.spheres == ((-4, "c"), (0, "b"))
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, -4), spec)
    assert exc.value.sphere == "c"
    assert RadiusMapSpec(3, 0, 2, 0).regime is Regime.LT
    assert RadiusMapSpec(3, 0, 1, 1).regime is Regime.EQ


def test_spec_rejects_fields_of_the_wrong_type():
    # a positional call in an older field order: Regime.LT lands in val_a
    with pytest.raises(InvalidArgument):
        RadiusMapSpec(3, Regime.LT, 0, 0)
    with pytest.raises(InvalidArgument):
        RadiusMapSpec(3, 0, F(1), 0)
    spec = RadiusMapSpec(3, 2, 1, 0)
    with pytest.raises(InvalidArgument):
        spec._replace(val_b=1.0)


def test_spec_is_p_and_three_valuations():
    # no critical value is part of the spec: a critical sphere's image
    # depends on the point, so a walk that reaches one ends there
    assert RadiusMapSpec._fields == ("p", "val_a", "val_b", "val_c")
    with pytest.raises(TypeError):
        RadiusMapSpec(3, 2, 1, 0, crit_b=rad(3, -10))


# ------------------------------------------------------------------ radius map


def test_radius_step_lt():
    spec = spec_of(3, 9, 3, 1)
    # below |b|: multiply by |a b^2/c^2| = 3^-4
    assert radius_step(rad(3, -4), spec) == rad(3, -12)
    # between |b| and |c|: r -> |a| r^3 / |c|^2
    assert radius_step(rad(3, -1), spec) == rad(3, -7)
    # above |c|: multiply by |a| = 3^-2
    assert radius_step(rad(3, 4), spec) == rad(3, 0)
    # zero and infinity are absorbing
    assert radius_step(Radius.zero(3), spec).is_zero
    assert radius_step(Radius.infinite(3), spec).is_infinite
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, -2), spec)
    assert exc.value.sphere == "b"
    assert exc.value.radius == rad(3, -2)
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, 0), spec)
    assert exc.value.sphere == "c"


def test_radius_step_eq():
    spec = spec_of(3, 9, 1, 2)  # EQ, |a| = 1/9
    assert radius_step(rad(3, 4), spec) == rad(3, 0)
    assert radius_step(rad(3, -2), spec) == rad(3, -6)
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, 0), spec)
    assert exc.value.sphere == "b"


def test_radius_step_gt():
    spec = spec_of(3, 4, 1, 3)  # |c| = 1/3 < |b| = 1
    # below |c|: multiply by |a b^2/c^2| = 3^2
    assert radius_step(rad(3, -4), spec) == rad(3, 0)
    # between: inversion r -> |a b^2| / r
    assert radius_step(rad(3, -1), spec) == rad(3, 1)
    # above |b|: multiply by |a| = 1
    assert radius_step(rad(3, 2), spec) == rad(3, 2)
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, -2), spec)
    assert exc.value.sphere == "c"
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, 0), spec)
    assert exc.value.sphere == "b"


@pytest.mark.parametrize(
    "row, regime",
    [((3, 9, 3, 1), Regime.LT), ((3, 9, 1, 2), Regime.EQ), ((3, 4, 1, 3), Regime.GT)],
    ids=["LT", "EQ", "GT"],
)
def test_radius_step_refuses_every_critical_sphere(row, regime):
    # both rows of the sphere table, the one |b| sphere twice in EQ
    spec = spec_of(*row)
    assert spec.regime is regime
    for q2, name in spec.spheres:
        with pytest.raises(CriticalValueNeeded) as exc:
            radius_step(rad(3, q2), spec)
        assert (exc.value.sphere, exc.value.radius) == (name, rad(3, q2))
        assert "supply" not in str(exc.value)
        assert radius_orbit(rad(3, q2), spec).verdict == NeedsCriticalValue(name)


# --------------------------------------------------------------- radius orbits


def test_radius_orbit_to_zero():
    spec = spec_of(3, 9, 3, 1)
    res = radius_orbit(rad(3, -4), spec)
    assert res.verdict == ToZero()
    assert res.trajectory == (rad(3, -4),)


def test_radius_orbit_to_infinity():
    spec = RadiusMapSpec(3, -2, 0, -1)  # the valuations of (3, 1/9, 1, 1/3)
    assert spec.regime is Regime.LT  # |b| = 1 < |c| = 3
    res = radius_orbit(rad(3, 8), spec)
    assert res.verdict == ToInfinity()


def test_radius_orbit_fixed_and_constant():
    spec = spec_of(5, 2, 1, 3)  # EQ with |a| = 1
    assert radius_orbit(rad(5, 3), spec).verdict == FixedAt(rad(5, 3))
    flat = spec_of(3, 4, 1, 3)  # GT with |a| = 1: the inversion lands in the fixed top zone
    res = radius_orbit(rad(3, -1), flat)
    assert res.verdict == EventuallyConstantAt(rad(3, 1), 1)
    assert res.trajectory == (rad(3, -1), rad(3, 1))
    # zero and infinity are fixed, and the only radii an orbit ends on
    for r in (Radius.zero(5), Radius.infinite(5)):
        res = radius_orbit(r, spec)
        assert (res.verdict, res.q2s, res.end, res.trajectory) == (FixedAt(r), (), r, (r,))
    assert radius_orbit(rad(5, 3), spec).end is None


def test_radius_orbit_cycle():
    spec = spec_of(3, 9, 1, 27)  # GT: inversion through 3^-1 between 3^-3 and 1
    res = radius_orbit(rad(3, -1), spec)
    assert res.verdict == Cycle((rad(3, -1), rad(3, -3)))
    # entering the cycle from above |b| keeps the same canonical tuple
    res2 = radius_orbit(rad(3, -5), spec)
    assert res2.trajectory == (rad(3, -5), rad(3, 1), rad(3, -3), rad(3, -1))
    assert res2.verdict == Cycle((rad(3, -1), rad(3, -3)))


def test_radius_orbit_needs_critical_value():
    spec = spec_of(3, 9, 3, 1)
    res = radius_orbit(rad(3, 0), spec)
    assert res.verdict == NeedsCriticalValue("c")
    res = radius_orbit(rad(3, -2), spec)
    assert res.verdict == NeedsCriticalValue("b")


def test_radius_orbit_horizon():
    # a genuine two-cycle: 3^-3/2 <-> 3^-1/2 under inversion through 3^-1
    spec = spec_of(3, 9, 1, 9)
    start = rad(3, -3)  # strictly between |c| = 3^-2 and |b| = 1
    res = radius_orbit(start, spec, max_iter=1)
    assert res.verdict == HorizonExceeded()
    res = radius_orbit(start, spec, max_iter=10)
    assert res.verdict == Cycle((rad(3, -1), rad(3, -3)))


# ----------------------------------------------------------- exceptional sets


def _case_ladder(spec):
    """The ladder ``classify`` attaches to this spec, with the name of its
    sphere, or (None, None) for a case without one."""
    row = _CASES[case_of(spec)[1]]
    if row.fate is None:
        return None, None
    return ExceptionalSet.on(spec, row.sphere), row.sphere


def test_exceptional_b_members():
    eset = ExceptionalSet("B", 3, 0, 4)  # |c| = 1, steps of |a|**-1 = 9
    assert eset.element(0) == rad(3, 0)
    assert eset.element(2) == rad(3, 8)
    assert eset.member(rad(3, 8)) == 2
    assert eset.member(rad(3, 2)) is None
    assert eset.member(rad(3, -4)) is None  # negative index is off the ladder
    assert eset.member(Radius.zero(3)) is None


def test_exceptional_h_and_l():
    spec = spec_of(3, 9, 1, 2)  # EQ
    h = ExceptionalSet.on(spec, "b")
    assert h.kind == "H"
    assert h.element(0) == spec.sphere_b()
    assert h.member(spec.sphere_b()) == 0
    assert h.element(1) == rad(3, 4)
    lt = spec_of(3, F(1, 243), 3, 1)  # LT with s = -3
    l = ExceptionalSet.on(lt, "b")
    assert l.kind == "L"
    assert l.member(lt.sphere_b()) == 0
    assert l.element(1) == rad(3, -8)  # base -2 plus one step of 2s = -6
    assert l.member(rad(3, -8)) == 1


def test_exceptional_degenerate_step():
    eset = ExceptionalSet("B", 3, 0, 0)  # step 0: only |c| itself
    assert eset.member(rad(3, 0)) == 0
    assert eset.member(rad(3, 2)) is None


def test_ladder_kinds_by_case():
    def kind(*params):
        eset, _ = _case_ladder(spec_of(*params))
        return eset and eset.kind

    assert kind(3, 9, 3, 1) == "B"  # T1.2
    assert kind(3, F(1, 3), 3, 1) is None  # T1.4.1
    assert kind(3, F(1, 243), 3, 1) == "L"  # T1.4.3-5
    assert kind(3, 9, 1, 2) == "H"  # T2.A
    assert kind(3, 27, 1, 6) == "B"  # T3.II
    assert kind(3, 3, 1, 6) is None  # T3.IV
    assert kind(3, 4, 1, 3) == "L"  # T3.V
    assert kind(3, F(1, 3), 1, 3) == "L"  # T3.VI


# -------------------------------------------------------------------- fix sets


def test_fix_set_rays():
    # LT with s = 0: every radius below |b| is fixed
    spec = spec_of(3, F(2, 9), 3, 1)
    assert spec.s == 0
    fs = fix_set(spec)
    assert any(r.side == "below" and r.bound == spec.sphere_b() for r in fs.rays)
    assert radius_step(rad(3, -10), spec) == rad(3, -10)
    # EQ with |a| = 1: everything off the sphere is fixed
    eq = spec_of(5, 2, 1, 3)
    fs = fix_set(eq)
    assert len(fs.rays) == 2
    assert radius_step(rad(5, 7), eq) == rad(5, 7)
    # the sphere itself hinges on the critical value, so it is not listed
    assert fs.members == ()
    with pytest.raises(CriticalValueNeeded):
        radius_step(rad(5, 0), eq)


def test_fix_set_members():
    # LT, |a| > 1, s > 0: isolated fixed radius |c|/sqrt|a| between the spheres
    spec = spec_of(3, F(1, 3), 9, 1)
    fs = fix_set(spec)
    assert fs.members == (rad(3, -1),)
    assert radius_step(rad(3, -1), spec) == rad(3, -1)
    # GT two-cycle regime: the inversion-fixed radius |b| sqrt|a|
    gt = spec_of(3, 3, 1, 6)
    fs = fix_set(gt)
    assert fs.members == (rad(3, -1),)
    assert radius_step(rad(3, -1), gt) == rad(3, -1)


# ------------------------------------------------------------- Lambda interval


def test_lambda_interval_pinned():
    spec = spec_of(3, 9, 1, 9)
    assert (spec.regime, spec.val_a, spec.s) == (Regime.GT, 2, -2)
    lam = lambda_interval(spec)
    assert lam.center == rad(3, -2)
    assert str(lam.lo) == "1/9"
    assert str(lam.hi) == "5/9"
    assert lam.lattice_members() == (rad(3, -3), rad(3, -2))
    assert lam.contains(rad(3, -2))
    assert lam.contains(rad(3, -3))
    assert not lam.contains(rad(3, -4))  # 1/9: open endpoint
    assert not lam.contains(rad(3, -1))  # 3^(-1/2) > 5/9
    assert lam.core_lo == rad(3, -4) and lam.core_hi == rad(3, 0)
    assert lam.in_core(rad(3, -3))
    # the inversion r -> center**2 / r pairs the members
    assert radius_step(rad(3, -2), spec) == rad(3, -2)  # the center pairs with itself
    assert radius_step(rad(3, -3), spec) == rad(3, -1)


def test_lambda_interval_regime_guard():
    with pytest.raises(InvalidRegime):
        lambda_interval(spec_of(3, 9, 3, 1))
    with pytest.raises(InvalidRegime):
        lambda_interval(spec_of(3, F(1, 3), 1, 3))
    with pytest.raises(InvalidRegime):
        lambda_interval(spec_of(3, 27, 1, 6))


def test_lambda_interval_wide_case_outruns_core():
    # Interval membership does not certify a two-cycle outside the core:
    # here 3^(-5/2) sits in the interval but its image under the inversion
    # escapes the inversion zone entirely.
    spec = spec_of(3, 9, 1, 27)
    lam = lambda_interval(spec)
    probe = rad(3, -5)
    assert lam.contains(probe)
    assert not lam.in_core(probe)
    assert radius_step(probe, spec) == rad(3, 1)
    assert radius_step(probe, spec) > spec.sphere_b()


@st.composite
def two_cycle_specs(draw):
    """GT specs with val(a) >= 1 and s < 0: the regime that carries Lambda."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    vb = draw(st.integers(-4, 3))
    vc = draw(st.integers(vb + 1, 4))
    va = draw(st.integers(1, min(4, 2 * (vc - vb) - 1)))
    return RadiusMapSpec(p, va, vb, vc)


@settings(max_examples=200, deadline=None)
@given(spec=two_cycle_specs())
@example(spec=spec_of(3, 9, 1, 9))
@example(spec=spec_of(3, 9, 1, 27))
def test_lambda_window_matches_exact_ends(spec):
    lam = lambda_interval(spec)
    p = spec.p
    exact = []
    for q2 in range(spec.sphere_c().q2 - 10, spec.sphere_b().q2 + 11):
        r = rad(p, q2)
        e = _RadExpr.from_radius(r)
        inside = lam.lo < e and e < lam.hi
        assert lam.contains(r) == inside, (spec, q2)
        if inside:
            exact.append(r)
    assert lam.lattice_members() == tuple(exact)
    assert not lam.contains(Radius.zero(p))
    assert not lam.contains(Radius.infinite(p))


def test_limit_classify_sweep_builds_lambda_once(monkeypatch):
    builds = []
    true = radiusmaps.lambda_interval
    monkeypatch.setattr(
        radiusmaps, "lambda_interval", lambda spec: builds.append(spec) or true(spec)
    )
    spec = spec_of(3, 9, 1, 27)
    probes = [rad(3, q2) for q2 in range(-10, 5)]
    verdicts = [limit_classify(r, spec) for r in probes]
    assert len(builds) == 1
    # the critical spheres between the probes need a critical value
    assert {type(v) for v in verdicts} == {TwoCycleRegion, EventuallyInLambda, NeedsCriticalValue}
    lam = [v for v in verdicts if isinstance(v, (TwoCycleRegion, EventuallyInLambda))]
    assert all(v.region is spec.lambda_region for v in lam)


def test_spec_caches_are_not_fields():
    spec = spec_of(3, 9, 1, 27)
    fresh = spec_of(3, 9, 1, 27)
    assert spec.lambda_region is spec.lambda_region
    assert spec.sphere_b() is spec.sphere_b() and spec.spheres is spec.spheres
    assert spec.zones is spec.zones and spec.regime is Regime.GT
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)


# ------------------------------------------------------------ limit classifier


def test_limit_classify_lt_attracting():
    spec = spec_of(3, 9, 3, 1)
    assert limit_classify(rad(3, -4), spec) == ToZero()
    assert limit_classify(rad(3, 3), spec) == ToZero()  # off the B ladder
    assert limit_classify(rad(3, 0), spec) == NeedsCriticalValue("c")
    assert limit_classify(rad(3, 8), spec) == NeedsCriticalValue("c")
    assert limit_classify(Radius.zero(3), spec) == FixedAt(Radius.zero(3))
    inf = Radius.infinite(3)
    assert limit_classify(inf, spec) == FixedAt(inf)
    # landing on |b| resolves without a critical value: every admissible
    # image lies in the contracting bottom zone
    assert limit_classify(rad(3, -2), spec) == ToZero()


def test_limit_classify_lt_indifferent_a():
    spec = spec_of(3, 2, 3, 1)  # |a| = 1
    assert limit_classify(rad(3, -3), spec) == ToZero()
    assert limit_classify(rad(3, -2), spec) == ToZero()  # sphere |b|, forced
    assert limit_classify(rad(3, 2), spec) == FixedAt(rad(3, 2))
    assert limit_classify(rad(3, 0), spec) == NeedsCriticalValue("c")


def test_limit_classify_lt_threshold():
    spec = spec_of(3, F(1, 3), 9, 1)  # |a| = 3, s = 1
    rho = rad(3, -1)  # |c| / sqrt|a|
    assert limit_classify(rho, spec) == FixedAt(rho)
    assert limit_classify(rad(3, -2), spec) == ToZero()
    assert limit_classify(rad(3, 1), spec) == ToInfinity()


def test_limit_classify_eq():
    spec = spec_of(3, 9, 1, 2)
    assert limit_classify(rad(3, -2), spec) == ToZero()
    assert limit_classify(rad(3, 2), spec) == ToZero()  # off the H ladder
    assert limit_classify(rad(3, 4), spec) == NeedsCriticalValue("b")
    flat = spec_of(5, 2, 1, 3)
    assert limit_classify(rad(5, 5), flat) == FixedAt(rad(5, 5))
    assert limit_classify(rad(5, 0), flat) == NeedsCriticalValue("b")
    grow = spec_of(3, F(1, 9), 1, 2)
    assert limit_classify(rad(3, 1), grow) == ToInfinity()
    assert limit_classify(rad(3, -4), grow) == NeedsCriticalValue("b")
    assert limit_classify(rad(3, -3), grow) == ToInfinity()


def test_limit_classify_gt_two_cycle_region():
    spec = spec_of(3, 3, 1, 6)  # val_a = 1, s = -1
    lam = lambda_interval(spec)
    assert limit_classify(rad(3, -1), spec) == TwoCycleRegion(lam)
    # |c| = 1/3 is the open lower endpoint and a critical sphere
    assert limit_classify(rad(3, -2), spec) == NeedsCriticalValue("c")
    assert limit_classify(rad(3, 5), spec) == EventuallyInLambda(lam)
    assert limit_classify(Radius.zero(3), spec) == FixedAt(Radius.zero(3))
    # a member of the interval outside the core is on no two-cycle: from
    # 2^-1/2 the orbit runs 2^5/2 -> 2^1/2 <-> 2^3/2, into the core
    spec = spec_of(2, F(156, 43), F(17, 100), 2)
    lam = spec.lambda_region
    assert lam.contains(rad(2, -1)) and not lam.in_core(rad(2, -1))
    assert limit_classify(rad(2, -1), spec) == EventuallyInLambda(lam)
    assert limit_classify(rad(2, 1), spec) == TwoCycleRegion(lam)


def test_limit_classify_gt_to_infinity():
    spec = spec_of(3, F(1, 3), 1, 3)  # case with |a| > 1
    assert limit_classify(rad(3, 4), spec) == ToInfinity()
    assert limit_classify(rad(3, -4), spec) == ToInfinity()  # off the L ladder
    assert limit_classify(rad(3, -6), spec) == NeedsCriticalValue("b")  # L_1
    # |c|-hits resolve without a critical value: every image the bound
    # allows blows up
    assert limit_classify(rad(3, -8), spec) == ToInfinity()
    assert limit_classify(rad(3, -2), spec) == ToInfinity()


def test_limit_classify_gt_flat_top():
    spec = spec_of(3, 4, 1, 3)  # |a| = 1 (GT)
    assert limit_classify(rad(3, 3), spec) == FixedAt(rad(3, 3))
    # middle radii bounce once and land in the fixed top zone
    assert limit_classify(rad(3, -1), spec) == EventuallyConstantAt(rad(3, 1), 1)
    # the L ladder climbs onto |b| exactly
    assert limit_classify(rad(3, -4), spec) == NeedsCriticalValue("b")


def test_limit_classify_to_infinity_case():
    spec = RadiusMapSpec(3, -2, 0, -1)  # the valuations of (3, 1/9, 1, 1/3)
    assert limit_classify(rad(3, 8), spec) == ToInfinity()


# ------------------------------------- orbit vs classifier agreement harness


GRID_PARAMS = [
    (3, 9, 3, 1),  # LT, |a| < 1
    (3, 2, 3, 1),  # LT, |a| = 1
    (3, F(1, 3), 3, 1),  # LT threshold
    (3, F(2, 9), 3, 1),  # LT, s = 0
    (3, F(1, 243), 3, 1),  # LT, s < 0
    (2, 3, 4, 1),  # LT at p = 2, |a| = 1
    (2, 20, 4, 1),  # LT at p = 2, |a| < 1
    (3, 9, 1, 2),  # EQ, |a| < 1
    (5, 2, 1, 3),  # EQ, |a| = 1
    (3, F(1, 9), 1, 2),  # EQ, |a| > 1
    (3, 27, 1, 6),  # GT, s > 0
    (3, 9, 1, 6),  # GT, s = 0
    (3, 3, 1, 6),  # GT two-cycle case
    (3, 9, 1, 9),  # GT two-cycle case (acceptance parameters)
    (3, 4, 1, 3),  # GT, |a| = 1
    (3, F(1, 3), 1, 3),  # GT, |a| > 1
]


def _probe_radii(spec):
    lo_q2 = min(-2 * spec.val_b, -2 * spec.val_c) - 5
    hi_q2 = max(-2 * spec.val_b, -2 * spec.val_c) + 5
    probes = [Radius.zero(spec.p), Radius.infinite(spec.p)]
    for q2 in range(lo_q2, hi_q2 + 1):
        probes.append(Radius.from_exponent(spec.p, q2))
    return probes


def _compatible(spec, r, orbit_v, limit_v):
    if orbit_v == limit_v:
        return True
    if isinstance(limit_v, (TwoCycleRegion, EventuallyInLambda)):
        # regional claims; the mechanical orbit must not contradict them
        # by escaping to 0 or infinity (impossible in this regime)
        if isinstance(orbit_v, (ToZero, ToInfinity)):
            return False
        if isinstance(limit_v, TwoCycleRegion) and isinstance(orbit_v, Cycle):
            return len(orbit_v.radii) <= 2 and r in orbit_v.radii
        return isinstance(
            orbit_v, (Cycle, FixedAt, EventuallyConstantAt, NeedsCriticalValue, HorizonExceeded)
        )
    if isinstance(orbit_v, NeedsCriticalValue):
        # the classifier may resolve a missing critical value when every
        # admissible image provably shares one fate
        return isinstance(limit_v, (ToZero, ToInfinity))
    if isinstance(orbit_v, HorizonExceeded):
        return not isinstance(limit_v, HorizonExceeded)
    return False


@pytest.mark.parametrize("params", GRID_PARAMS)
def test_orbit_and_classifier_agree(params):
    spec = spec_of(*params)
    for r in _probe_radii(spec):
        orbit_v = radius_orbit(r, spec, max_iter=80).verdict
        limit_v = limit_classify(r, spec)
        assert _compatible(spec, r, orbit_v, limit_v), (
            f"params={params} r={r}: orbit={orbit_v} classifier={limit_v}"
        )


@pytest.mark.parametrize("params", GRID_PARAMS)
def test_fix_set_members_are_fixed(params):
    spec = spec_of(*params)
    fs = fix_set(spec)
    for m in fs.members:
        assert radius_step(m, spec) == m
    for ray in fs.rays:
        for probe in (
            ray.bound.scaled_by_power(-3 if ray.side == "below" else 3),
            ray.bound.scaled_by_power(-1 if ray.side == "below" else 1),
        ):
            assert radius_step(probe, spec) == probe


def _assert_ladder_lands(spec):
    eset, name = _case_ladder(spec)
    if eset is None:
        return
    sphere = spec.sphere_b() if name == "b" else spec.sphere_c()
    assert eset.step_q2 != 0
    for k in range(4):
        r = eset.element(k)
        assert eset.member(r) == k
        cur = r
        for _ in range(k):
            cur = radius_step(cur, spec)
        assert cur == sphere, f"{eset.kind}_{k} of {spec} missed its sphere"


@st.composite
def valuation_specs(draw):
    """Specs with p in {2, 3, 5, 7, 11} and valuations in [-6, 6]."""
    p = draw(st.sampled_from((2, 3, 5, 7, 11)))
    return RadiusMapSpec(p, *(draw(st.integers(-6, 6)) for _ in range(3)))


@pytest.mark.parametrize("params", GRID_PARAMS)
def test_exceptional_ladder_lands_on_its_sphere(params):
    _assert_ladder_lands(spec_of(*params))


@settings(max_examples=300, deadline=None)
@given(spec=valuation_specs())
def test_exceptional_ladder_lands_on_its_sphere_for_random_specs(spec):
    _assert_ladder_lands(spec)


@settings(max_examples=300, deadline=None)
@given(spec=valuation_specs())
def test_critical_bounds_match_closed_forms(spec):
    """|ab^3/c^2| and |ac| in LT, |ab| and |ab^2/c| in GT, none in EQ."""
    va, vb, vc = spec.val_a, spec.val_b, spec.val_c
    if spec.regime is Regime.EQ:
        with pytest.raises(InvalidRegime):
            spec.bound_b
        with pytest.raises(InvalidRegime):
            spec.bound_c
        return
    if spec.regime is Regime.LT:
        vals = (va + 3 * vb - 2 * vc, va + vc)
    else:
        vals = (va + vb, va + 2 * vb - vc)
    assert (spec.bound_b, spec.bound_c) == tuple(Radius.from_val(spec.p, v) for v in vals)


@settings(max_examples=200, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5, 7, 11)),
    lt=st.booleans(),
    gap=st.integers(1, 6),
    data=st.data(),
)
def test_mid_fixed_is_the_fix_set_member(p, lt, gap, data):
    """In T1.4.1 (|b| < |c|, |a| > 1, s > 0) and T3.IV (|b| > |c|, |a| < 1,
    s < 0) the one isolated fixed radius is the one the middle zone fixes."""
    low = data.draw(st.integers(-6, 6 - gap))
    mag = data.draw(st.integers(1, min(6, 2 * gap - 1)))  # |v(a)| < 2 |v(b) - v(c)|
    if lt:
        spec = RadiusMapSpec(p, -mag, low + gap, low)
    else:
        spec = RadiusMapSpec(p, mag, low, low + gap)
    assert case_of(spec)[1] == ("T1.4.1" if lt else "T3.IV")
    assert fix_set(spec).members == (spec.mid_fixed,)


def test_verdict_serialization():
    spec = spec_of(3, 3, 1, 6)
    lam = lambda_interval(spec)
    d = TwoCycleRegion(lam).to_dict()
    assert d["kind"] == "two-cycle-region"
    assert d["region"]["center"] == "3^-1/2"
    assert ToZero().to_dict() == {"kind": "to-zero"}
    cyc = Cycle((rad(3, 4), rad(3, 0))).to_dict()
    assert cyc == {"kind": "cycle", "radii": ["3^2", "1"]}
    ev = EventuallyConstantAt(rad(3, -2), 3).to_dict()
    assert ev == {"kind": "eventually-constant", "radius": "3^-1", "index": 3}


# ------------------------------------------------- closed-form zone crossing


def _sphere_approach(va):
    """An LT spec (|b| = 3^-1, |c| = 1) whose scaling zone next to one
    sphere moves towards it, with that sphere's exponent and name: the top
    zone onto |c| for val(a) > 0, the bottom zone onto |b| for
    val(a) <= -3.  No image bound settles the sphere's fate."""
    spec = RadiusMapSpec(3, va, 1, 0)
    return (spec, 0, "c") if va > 0 else (spec, -2, "b")


@settings(max_examples=150, deadline=None)
@given(va=st.sampled_from((-7, -5, -3, 1, 2, 5)), n=st.integers(1, 2000))
@example(va=1, n=1)
def test_limit_classify_jump_matches_stepping(va, n):
    spec, sphere_q2, name = _sphere_approach(va)
    m, k = spec.zones[2 if va > 0 else 0]
    assert m == 1 and (k < 0) == (va > 0)
    start = rad(3, sphere_q2 - n * k)  # n steps of the zone from the sphere
    assert limit_classify(start, spec) == NeedsCriticalValue(name)
    res = radius_orbit(start, spec, max_iter=n + 1)
    assert res.verdict == NeedsCriticalValue(name)
    assert res.q2s == tuple(sphere_q2 - i * k for i in range(n, -1, -1))
    # the jump keeps its step count: GT with a flat top zone, up the bottom
    # zone q2 -> q2 + 4 to 3^-1/2, then the middle zone's q2 -> -q2 onto
    # 3^1/2, which the top zone fixes
    flat = RadiusMapSpec(3, 0, 0, 1)
    landed = EventuallyConstantAt(rad(3, 1), n + 1)
    assert limit_classify(rad(3, -1 - 4 * n), flat) == landed
    assert radius_orbit(rad(3, -1 - 4 * n), flat, max_iter=n + 2).verdict == landed


def test_limit_classify_jumps_a_huge_gap_at_once():
    # 10**12 exponents in each direction: one jump, not 10**11 steps (the
    # walk gives up after 256 moves)
    down, _, _ = _sphere_approach(2)  # top zone q2 -> q2 - 4 onto |c|
    n = 10**12 // 4
    assert limit_classify(rad(3, 4 * n), down) == NeedsCriticalValue("c")
    up, _, _ = _sphere_approach(-5)  # bottom zone q2 -> q2 + 6 onto |b|
    n = 10**12 // 6 + 1
    assert limit_classify(rad(3, -2 - 6 * n), up) == NeedsCriticalValue("b")
    # a start that passes the sphere instead of landing on it
    assert limit_classify(rad(3, -3 - 6 * n), up) == ToInfinity()


@settings(max_examples=300, deadline=None)
@given(spec=valuation_specs(), max_iter=st.integers(0, 40), q2=st.integers(-60, 60))
@example(spec=spec_of(3, 9, 3, 1), max_iter=1, q2=0)
def test_radius_orbit_is_mechanical(spec, max_iter, q2):
    # radius:classify-vs-orbit holds limit_classify to radius_orbit, so the
    # orbit must take exactly one application of the map per step
    for r in _probe_radii(spec) + [rad(spec.p, q2)]:
        res = radius_orbit(r, spec, max_iter)
        traj = res.trajectory
        assert traj[0] == r and len(traj) <= max_iter + 1, (spec, r)
        for before, after in zip(traj, traj[1:]):
            assert after == radius_step(before, spec), (spec, r)
        if res.verdict == HorizonExceeded():
            assert len(traj) == max_iter + 1, (spec, r)
