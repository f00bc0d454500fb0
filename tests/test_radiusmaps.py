"""Tests for the induced dynamics on radii."""

from fractions import Fraction as F

import pytest

from udyn.exactnum import TOP, InvalidArgument
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
    RadiusMapSpec,
    Regime,
    ToInfinity,
    ToZero,
    TwoCycleRegion,
    exceptional_set,
    fix_set,
    lambda_interval,
    limit_classify,
    radius_orbit,
    radius_step,
    regime_of,
    relevant_exceptional,
)


def rad(p, q2, unit=1):
    return Radius.from_exponent(p, q2, unit)


# ---------------------------------------------------------------- Radius model


def test_radius_canonical_form():
    r = Radius.from_rational(3, F(18, 5))  # 18/5 = (2/5) * 3^2
    assert r.unit == F(2, 5)
    assert r.q2 == 4
    assert r.value_as_fraction() == F(18, 5)
    assert Radius.from_rational(3, F(1, 9)) == rad(3, -4)
    assert rad(3, 0, F(9, 2)) == rad(3, 4, F(1, 2))


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
    assert rad(3, 1, 2) > rad(3, 1)  # 2*sqrt(3) > sqrt(3)
    # unit against power: 10^6 vs 3^30 (3^30 ~ 2*10^14)
    assert rad(3, 0, 10**6) < rad(3, 60)
    # dominance shortcut: enormous exponent gap decided without big powers
    assert rad(3, 10**9, F(1, 10**6)) > rad(3, 0, 10**6)
    assert rad(3, -(10**9), 10**6) < rad(3, 0)
    with pytest.raises(InvalidArgument):
        rad(3, 0) < rad(5, 0)


def test_radius_str():
    assert str(Radius.zero(3)) == "0"
    assert str(Radius.infinite(3)) == "inf"
    assert str(rad(3, -4)) == "3^-2"
    assert str(rad(3, 0)) == "1"
    assert str(rad(2, 5)) == "2^5/2"
    assert str(rad(3, -2, F(5, 7))) == "5/21"
    assert str(rad(3, -1, 2)) == "2*3^-1/2"


def test_radius_arithmetic_helpers():
    r = rad(3, -4)
    assert r.scaled_by_power(-2) == rad(3, -6)
    assert r.cubed() == rad(3, -12)
    assert rad(3, -3).inverted_into(-4) == rad(3, -1)
    assert rad(3, -3, 2).inverted_into(0) == rad(3, 3, F(1, 2))
    assert Radius.zero(3).inverted_into(0).is_infinite
    assert Radius.infinite(3).inverted_into(0).is_zero
    assert not rad(3, -1, 2).is_lattice
    assert rad(3, -1).is_lattice


# --------------------------------------------------------------------- regimes


def test_regime_of_examples():
    assert regime_of(3, 9, 3, 1) is Regime.LT
    assert regime_of(3, 4, 1, 3) is Regime.GT
    assert regime_of(5, 2, 1, 3) is Regime.EQ
    with pytest.raises(InvalidArgument):
        regime_of(3, 1, 0, 3)


def test_spec_from_params():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1)
    assert (spec.val_a, spec.val_b, spec.val_c) == (2, 1, 0)
    assert spec.regime is Regime.LT
    assert spec.s == 4
    assert spec.sphere_b() == rad(3, -2)
    assert spec.sphere_c() == rad(3, 0)
    assert spec.low_sphere == spec.sphere_b()
    assert spec.high_sphere == spec.sphere_c()
    gt = RadiusMapSpec.from_params(3, 4, 1, 3)
    assert gt.low_sphere == gt.sphere_c()


def test_spec_critical_value_bounds():
    # LT (3,9,3,1): crit_b <= |ab^3/c^2| = 3^-5, crit_c >= |ac| = 3^-2
    RadiusMapSpec.from_params(3, 9, 3, 1, crit_b=rad(3, -10))
    RadiusMapSpec.from_params(3, 9, 3, 1, crit_b=Radius.zero(3))
    RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, -4))
    RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=Radius.infinite(3))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 9, 3, 1, crit_b=rad(3, -9))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 9, 3, 1, crit_b=Radius.infinite(3))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, -5))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=Radius.zero(3))
    # GT (3,4,1,3): crit_b <= |ab| = 1, crit_c >= |ab^2/c| = 3
    RadiusMapSpec.from_params(3, 4, 1, 3, crit_b=rad(3, 0))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 4, 1, 3, crit_b=rad(3, 1))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(3, 4, 1, 3, crit_c=rad(3, 0))
    # EQ takes any crit_b (the pole sits on the sphere), never a crit_c
    RadiusMapSpec.from_params(5, 2, 1, 3, crit_b=Radius.infinite(5))
    RadiusMapSpec.from_params(5, 2, 1, 3, crit_b=rad(5, 20))
    with pytest.raises(InvalidArgument):
        RadiusMapSpec.from_params(5, 2, 1, 3, crit_c=rad(5, 2))


# ------------------------------------------------------------------ radius map


def test_radius_step_lt():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1)
    # below |b|: multiply by |a b^2/c^2| = 3^-4
    assert radius_step(rad(3, -4), spec) == rad(3, -12)
    assert radius_step(rad(3, -4), spec).value_as_fraction() == F(1, 729)
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
    given = RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, 4))
    assert radius_step(rad(3, 0), given) == rad(3, 4)


def test_radius_step_eq():
    spec = RadiusMapSpec.from_params(3, 9, 1, 2)  # EQ, |a| = 1/9
    assert radius_step(rad(3, 4), spec) == rad(3, 0)
    assert radius_step(rad(3, -2), spec) == rad(3, -6)
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, 0), spec)
    assert exc.value.sphere == "b"


def test_radius_step_gt():
    spec = RadiusMapSpec.from_params(3, 4, 1, 3)  # |c| = 1/3 < |b| = 1
    # below |c|: multiply by |a b^2/c^2| = 3^2
    assert radius_step(rad(3, -4), spec) == rad(3, 0)
    # between: inversion r -> |a b^2| / r
    assert radius_step(rad(3, -1), spec) == rad(3, 1)
    assert radius_step(rad(3, -1, F(3, 2)), spec) == rad(3, 1, F(2, 3))
    # above |b|: multiply by |a| = 1
    assert radius_step(rad(3, 2), spec) == rad(3, 2)
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, -2), spec)
    assert exc.value.sphere == "c"
    with pytest.raises(CriticalValueNeeded) as exc:
        radius_step(rad(3, 0), spec)
    assert exc.value.sphere == "b"


# --------------------------------------------------------------- radius orbits


def test_radius_orbit_to_zero():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1)
    res = radius_orbit(Radius.from_rational(3, F(1, 9)), spec)
    assert res.verdict == ToZero()
    assert res.trajectory == (rad(3, -4),)


def test_radius_orbit_to_infinity():
    spec = RadiusMapSpec.from_params(3, F(1, 9), 1, F(1, 3))
    assert spec.regime is Regime.LT  # |b| = 1 < |c| = 3
    res = radius_orbit(Radius.from_rational(3, 81), spec)
    assert res.verdict == ToInfinity()


def test_radius_orbit_fixed_and_constant():
    spec = RadiusMapSpec.from_params(5, 2, 1, 3)  # EQ with |a| = 1
    assert radius_orbit(rad(5, 3), spec).verdict == FixedAt(rad(5, 3))
    withb = RadiusMapSpec.from_params(5, 2, 1, 3, crit_b=rad(5, -4))
    res = radius_orbit(rad(5, 0), withb)
    assert res.verdict == EventuallyConstantAt(rad(5, -4), 1)
    assert res.trajectory == (rad(5, 0), rad(5, -4))


def test_radius_orbit_cycle():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, 4))
    res = radius_orbit(rad(3, 0), spec)
    assert res.verdict == Cycle((rad(3, 4), rad(3, 0)))
    # entering the cycle from above keeps the same canonical tuple
    res2 = radius_orbit(rad(3, 8), spec)
    assert res2.verdict == Cycle((rad(3, 4), rad(3, 0)))


def test_radius_orbit_needs_critical_value():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1)
    res = radius_orbit(rad(3, 0), spec)
    assert res.verdict == NeedsCriticalValue("c")
    res = radius_orbit(rad(3, -2), spec)
    assert res.verdict == NeedsCriticalValue("b")


def test_radius_orbit_horizon():
    # a genuine two-cycle: 2/3 <-> 1/2 under inversion through 3^-1/2
    spec = RadiusMapSpec.from_params(3, 3, 1, 6)
    start = rad(3, -2, 2)  # value 2/3, strictly between |c| = 1/3 and |b| = 1
    res = radius_orbit(start, spec, max_iter=1)
    assert res.verdict == HorizonExceeded()
    res = radius_orbit(start, spec, max_iter=10)
    assert res.verdict == Cycle((rad(3, -2, 2), rad(3, 0, F(1, 2))))


# ----------------------------------------------------------- exceptional sets


def test_exceptional_b_members():
    eset = ExceptionalSet("B", 3, 2, 1, 0)  # |a| = 1/9, |c| = 1
    assert eset.element(0) == rad(3, 0)
    assert eset.element(2) == Radius.from_rational(3, 81)
    assert eset.member(Radius.from_rational(3, 81)) == 2
    assert eset.member(Radius.from_rational(3, 3)) is None
    assert eset.member(rad(3, 8, 2)) is None  # non-lattice radii never land
    assert eset.member(rad(3, -4)) is None  # negative index is off the ladder


def test_exceptional_h_and_l():
    spec = RadiusMapSpec.from_params(3, 9, 1, 2)  # EQ
    h = relevant_exceptional(spec)
    assert h.kind == "H"
    assert h.element(0) == spec.sphere_b()
    assert h.member(spec.sphere_b()) == 0
    assert h.element(1) == rad(3, 4)
    lt = RadiusMapSpec.from_params(3, F(1, 243), 3, 1)  # LT with s = -3
    l = relevant_exceptional(lt)
    assert l.kind == "L"
    assert l.member(lt.sphere_b()) == 0
    assert l.element(1) == rad(3, -8)  # base -2 plus one step of 2s = -6
    assert l.member(rad(3, -8)) == 1


def test_exceptional_degenerate_step():
    eset = ExceptionalSet("B", 3, 0, 1, 0)  # step 0: only |c| itself
    assert eset.member(rad(3, 0)) == 0
    assert eset.member(rad(3, 2)) is None


def test_relevant_exceptional_cases():
    assert relevant_exceptional(RadiusMapSpec.from_params(3, 9, 3, 1)).kind == "B"
    assert relevant_exceptional(RadiusMapSpec.from_params(3, 2, 3, 1)).kind == "B"
    assert relevant_exceptional(RadiusMapSpec.from_params(3, F(1, 3), 3, 1)) is None
    assert relevant_exceptional(RadiusMapSpec.from_params(3, 27, 1, 6)).kind == "B"
    assert relevant_exceptional(RadiusMapSpec.from_params(3, 3, 1, 6)) is None
    assert relevant_exceptional(RadiusMapSpec.from_params(3, 4, 1, 3)).kind == "L"
    assert relevant_exceptional(RadiusMapSpec.from_params(3, F(1, 3), 1, 3)).kind == "L"


# -------------------------------------------------------------------- fix sets


def test_fix_set_rays():
    # LT with s = 0: every radius below |b| is fixed
    spec = RadiusMapSpec.from_params(3, F(2, 9), 3, 1)
    assert spec.s == 0
    fs = fix_set(spec)
    assert any(r.side == "below" and r.bound == spec.sphere_b() for r in fs.rays)
    assert fs.contains(rad(3, -10)) is True
    assert fs.contains(Radius.zero(3)) is True
    # EQ with |a| = 1: everything off the sphere is fixed
    eq = RadiusMapSpec.from_params(5, 2, 1, 3)
    fs = fix_set(eq)
    assert len(fs.rays) == 2
    assert fs.contains(rad(5, 7)) is True
    assert fs.conditional == ("b",)
    assert fs.contains(rad(5, 0)) is None  # hinges on the critical value


def test_fix_set_members():
    # LT, |a| > 1, s > 0: isolated fixed radius |c|/sqrt|a| between the spheres
    spec = RadiusMapSpec.from_params(3, F(1, 3), 9, 1)
    fs = fix_set(spec)
    assert fs.members == (rad(3, -1),)
    assert radius_step(rad(3, -1), spec) == rad(3, -1)
    # GT two-cycle regime: the inversion-fixed radius |b| sqrt|a|
    gt = RadiusMapSpec.from_params(3, 3, 1, 6)
    fs = fix_set(gt)
    assert fs.members == (rad(3, -1),)
    assert radius_step(rad(3, -1), gt) == rad(3, -1)
    # a critical value equal to its sphere makes the sphere fixed
    pinned = RadiusMapSpec.from_params(5, 2, 1, 3, crit_b=rad(5, 0))
    fs = fix_set(pinned)
    assert rad(5, 0) in fs.members
    assert fs.conditional == ()


# ------------------------------------------------------------- Lambda interval


def test_lambda_interval_pinned():
    spec = RadiusMapSpec.from_params(3, 9, 1, 9)
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
    assert lam.partner(rad(3, -2)) == rad(3, -2)  # the center pairs with itself
    assert lam.partner(rad(3, -3)) == rad(3, -1)


def test_lambda_interval_regime_guard():
    with pytest.raises(InvalidRegime):
        lambda_interval(RadiusMapSpec.from_params(3, 9, 3, 1))
    with pytest.raises(InvalidRegime):
        lambda_interval(RadiusMapSpec.from_params(3, F(1, 3), 1, 3))
    with pytest.raises(InvalidRegime):
        lambda_interval(RadiusMapSpec.from_params(3, 27, 1, 6))


def test_lambda_interval_wide_case_outruns_core():
    # Interval membership does not certify a two-cycle outside the core:
    # here 3^(-5/2) sits in the interval but its partner escapes the
    # inversion zone entirely.
    spec = RadiusMapSpec.from_params(3, 9, 1, 27)
    lam = lambda_interval(spec)
    probe = rad(3, -5)
    assert lam.contains(probe)
    assert not lam.in_core(probe)
    assert lam.partner(probe) == rad(3, 1)
    assert lam.partner(probe) > spec.sphere_b()


# ------------------------------------------------------------ limit classifier


def test_limit_classify_lt_attracting():
    spec = RadiusMapSpec.from_params(3, 9, 3, 1)
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
    cyc = RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, 4))
    assert limit_classify(rad(3, 0), cyc) == Cycle((rad(3, 4), rad(3, 0)))
    assert limit_classify(rad(3, 8), cyc) == Cycle((rad(3, 4), rad(3, 0)))
    fixed = RadiusMapSpec.from_params(3, 9, 3, 1, crit_c=rad(3, 0))
    assert limit_classify(rad(3, 0), fixed) == FixedAt(rad(3, 0))
    assert limit_classify(rad(3, 4), fixed) == EventuallyConstantAt(rad(3, 0), 1)


def test_limit_classify_lt_indifferent_a():
    spec = RadiusMapSpec.from_params(3, 2, 3, 1)  # |a| = 1
    assert limit_classify(rad(3, -3), spec) == ToZero()
    assert limit_classify(rad(3, -2), spec) == ToZero()  # sphere |b|, forced
    assert limit_classify(rad(3, 2), spec) == FixedAt(rad(3, 2))
    assert limit_classify(rad(3, 0), spec) == NeedsCriticalValue("c")
    up = RadiusMapSpec.from_params(3, 2, 3, 1, crit_c=rad(3, 5))
    assert limit_classify(rad(3, 0), up) == EventuallyConstantAt(rad(3, 5), 1)


def test_limit_classify_lt_threshold():
    spec = RadiusMapSpec.from_params(3, F(1, 3), 9, 1)  # |a| = 3, s = 1
    rho = rad(3, -1)  # |c| / sqrt|a|
    assert limit_classify(rho, spec) == FixedAt(rho)
    assert limit_classify(rad(3, -2), spec) == ToZero()
    assert limit_classify(rad(3, 1), spec) == ToInfinity()
    # non-lattice radius at the threshold exponent moves off and resolves
    assert limit_classify(rad(3, -1, 2), spec) == ToInfinity()
    assert limit_classify(rad(3, -1, F(1, 2)), spec) == ToZero()


def test_limit_classify_eq():
    spec = RadiusMapSpec.from_params(3, 9, 1, 2)
    assert limit_classify(rad(3, -2), spec) == ToZero()
    assert limit_classify(rad(3, 2), spec) == ToZero()  # off the H ladder
    assert limit_classify(rad(3, 4), spec) == NeedsCriticalValue("b")
    flat = RadiusMapSpec.from_params(5, 2, 1, 3)
    assert limit_classify(rad(5, 5), flat) == FixedAt(rad(5, 5))
    assert limit_classify(rad(5, 0), flat) == NeedsCriticalValue("b")
    grow = RadiusMapSpec.from_params(3, F(1, 9), 1, 2)
    assert limit_classify(rad(3, 1), grow) == ToInfinity()
    assert limit_classify(rad(3, -4), grow) == NeedsCriticalValue("b")
    assert limit_classify(rad(3, -3), grow) == ToInfinity()


def test_limit_classify_gt_two_cycle_region():
    spec = RadiusMapSpec.from_params(3, 3, 1, 6)  # val_a = 1, s = -1
    lam = lambda_interval(spec)
    assert limit_classify(rad(3, -1), spec) == TwoCycleRegion(lam)
    # |c| = 1/3 is the open lower endpoint, so it is outside the interval
    assert limit_classify(rad(3, -2), spec) == EventuallyInLambda(lam)
    assert limit_classify(rad(3, 5), spec) == EventuallyInLambda(lam)
    assert limit_classify(Radius.zero(3), spec) == FixedAt(Radius.zero(3))


def test_limit_classify_gt_to_infinity():
    spec = RadiusMapSpec.from_params(3, F(1, 3), 1, 3)  # case with |a| > 1
    assert limit_classify(rad(3, 4), spec) == ToInfinity()
    assert limit_classify(rad(3, -4), spec) == ToInfinity()  # off the L ladder
    assert limit_classify(rad(3, -6), spec) == NeedsCriticalValue("b")  # L_1
    # |c|-hits resolve without crit_c: all admissible values blow up
    assert limit_classify(rad(3, -8), spec) == ToInfinity()
    assert limit_classify(rad(3, -2), spec) == ToInfinity()


def test_limit_classify_gt_flat_top():
    spec = RadiusMapSpec.from_params(3, 4, 1, 3)  # |a| = 1 (GT)
    assert limit_classify(rad(3, 3), spec) == FixedAt(rad(3, 3))
    # middle radii bounce once and land in the fixed top zone
    assert limit_classify(rad(3, -1), spec) == EventuallyConstantAt(rad(3, 1), 1)
    # the L ladder climbs onto |b| exactly
    assert limit_classify(rad(3, -4), spec) == NeedsCriticalValue("b")
    cyc = RadiusMapSpec.from_params(3, 4, 1, 3, crit_b=rad(3, -4))
    assert limit_classify(rad(3, -4), cyc) == Cycle((rad(3, 0), rad(3, -4)))


def test_limit_classify_to_infinity_case():
    spec = RadiusMapSpec.from_params(3, F(1, 9), 1, F(1, 3))
    assert limit_classify(Radius.from_rational(3, 81), spec) == ToInfinity()


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


def _crit_configs(spec):
    yield None, None
    low, high = spec.low_sphere, spec.high_sphere
    candidates_b = [Radius.zero(spec.p), low, high]
    candidates_c = [Radius.infinite(spec.p), low, high]
    eset = relevant_exceptional(spec)
    if eset is not None and eset.step_q2 != 0:
        candidates_b.append(eset.element(1))
        candidates_c.append(eset.element(1))
        candidates_c.append(eset.element(2))
    if spec.regime is not Regime.EQ:
        candidates_b.append(spec.bound_b)
        candidates_c.append(spec.bound_c)
    if spec.regime is Regime.EQ:
        candidates_b.append(Radius.infinite(spec.p))
    for cb in candidates_b:
        yield cb, None
    for cc in candidates_c:
        yield None, cc
    yield candidates_b[-1], candidates_c[-1]


def _probe_radii(spec):
    lo_q2 = min(-2 * spec.val_b, -2 * spec.val_c) - 5
    hi_q2 = max(-2 * spec.val_b, -2 * spec.val_c) + 5
    units = [F(1), F(2) if spec.p != 2 else F(3)]
    probes = [Radius.zero(spec.p), Radius.infinite(spec.p)]
    for q2 in range(lo_q2, hi_q2 + 1):
        for u in units:
            probes.append(Radius.from_exponent(spec.p, q2, u))
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
    base = RadiusMapSpec.from_params(*params)
    for crit_b, crit_c in _crit_configs(base):
        try:
            spec = RadiusMapSpec.from_params(
                *params, crit_b=crit_b, crit_c=crit_c
            )
        except InvalidArgument:
            continue
        for r in _probe_radii(spec):
            orbit_v = radius_orbit(r, spec, max_iter=80).verdict
            limit_v = limit_classify(r, spec)
            assert _compatible(spec, r, orbit_v, limit_v), (
                f"params={params} crit_b={crit_b} crit_c={crit_c} r={r}: "
                f"orbit={orbit_v} classifier={limit_v}"
            )


@pytest.mark.parametrize("params", GRID_PARAMS)
def test_fix_set_members_are_fixed(params):
    spec = RadiusMapSpec.from_params(*params)
    fs = fix_set(spec)
    for m in fs.members:
        assert radius_step(m, spec) == m
    for ray in fs.rays:
        for probe in (
            ray.bound.scaled_by_power(-3 if ray.side == "below" else 3),
            ray.bound.scaled_by_power(-1 if ray.side == "below" else 1),
        ):
            assert ray.contains(probe)
            assert radius_step(probe, spec) == probe


@pytest.mark.parametrize("params", GRID_PARAMS)
def test_exceptional_ladder_lands_on_its_sphere(params):
    spec = RadiusMapSpec.from_params(*params)
    eset = relevant_exceptional(spec)
    if eset is None:
        return
    sphere = (
        spec.sphere_c() if eset.kind == "B" else spec.sphere_b()
    )
    ks = range(4) if eset.step_q2 != 0 else range(1)
    for k in ks:
        r = eset.element(k)
        assert eset.member(r) == k
        cur = r
        for _ in range(k):
            cur = radius_step(cur, spec)
        assert cur == sphere, f"{eset.kind}_{k} of {params} missed its sphere"


def test_verdict_serialization():
    spec = RadiusMapSpec.from_params(3, 3, 1, 6)
    lam = lambda_interval(spec)
    d = TwoCycleRegion(lam).to_dict()
    assert d["kind"] == "two-cycle-region"
    assert d["region"]["center"] == "3^-1/2"
    assert ToZero().to_dict() == {"kind": "to-zero"}
    cyc = Cycle((rad(3, 4), rad(3, 0))).to_dict()
    assert cyc == {"kind": "cycle", "radii": ["3^2", "1"]}
    ev = EventuallyConstantAt(rad(3, -2), 3).to_dict()
    assert ev == {"kind": "eventually-constant", "radius": "3^-1", "index": 3}
