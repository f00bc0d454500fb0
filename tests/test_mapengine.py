"""Tests for map evaluation, orbits, fixed points, and sphere sampling."""

from fractions import Fraction as F

import pytest

from udyn.exactnum import (
    TOP,
    InvalidArgument,
    PrecisionExhausted,
    QuadExt,
    SqrtKind,
    TruncatedPadic,
    quad_val,
    vp_rat,
)
from udyn.mapengine import (
    Character,
    Completed,
    DegenerateParams,
    MapParams,
    PoleHit,
    PoleHitAt,
    UnsupportedRadius,
    _lift,
    abs_f,
    derivative_at,
    eval_f,
    fixed_points,
    orbit,
    point_val,
    sample_sphere,
    validate_params,
)
from udyn.radiusmaps import Radius, Regime, radius_step


def rad(p, q2, unit=1):
    return Radius.from_exponent(p, q2, unit)


# ------------------------------------------------------------------ parameters


def test_validate_params_accepts():
    params = validate_params(3, 9, 3, 1)
    assert (params.a, params.b, params.c) == (F(9), F(3), F(1))
    assert (params.val_a, params.val_b, params.val_c) == (2, 1, 0)
    assert params.pole == F(-1)
    assert params.sqrt_mode.kind is SqrtKind.RATIONAL_SQUARE
    assert params.sqrt_mode.root == 3


def test_validate_params_rejects_uncertified_p():
    # psi_12 passes Miller-Rabin to every prime base up to 37 but is composite
    for p in (318665857834031151167461, 3317044064679887385961981):
        with pytest.raises(InvalidArgument):
            validate_params(p, 2, 1, 3)


def test_params_to_dict():
    params = validate_params(3, F(1, 9), 1, 2)
    assert params.to_dict() == {"p": 3, "a": "1/9", "b": "1", "c": "2"}


def test_validate_params_degenerate_factors():
    with pytest.raises(DegenerateParams) as exc:
        validate_params(3, 0, 2, 5)
    assert exc.value.factor == "a"
    with pytest.raises(DegenerateParams) as exc:
        validate_params(3, 1, 2, 5)
    assert exc.value.factor == "a-1"
    with pytest.raises(DegenerateParams) as exc:
        validate_params(3, 2, 0, 5)
    assert exc.value.factor == "b"
    with pytest.raises(DegenerateParams) as exc:
        validate_params(3, 2, 5, 0)
    assert exc.value.factor == "c"
    with pytest.raises(DegenerateParams) as exc:
        validate_params(3, 2, 5, 5)
    assert exc.value.factor == "b-c"
    with pytest.raises(DegenerateParams) as exc:
        validate_params(5, 4, 1, 2)
    assert exc.value.factor == "ab^2-c^2"
    # the quadratic degeneracy hides in fractional parameters too
    with pytest.raises(DegenerateParams):
        validate_params(3, F(1, 9), 3, 1)
    with pytest.raises(DegenerateParams):
        validate_params(3, 9, 1, 3)
    with pytest.raises(InvalidArgument):
        validate_params(6, 2, 3, 1)
    assert not issubclass(InvalidArgument, DegenerateParams)


def test_radius_spec_bridge():
    spec = validate_params(3, 9, 3, 1).radius_spec()
    assert spec.regime is Regime.LT
    assert (spec.val_a, spec.val_b, spec.val_c) == (2, 1, 0)


# ------------------------------------------------------------------ evaluation


def test_eval_f_pinned_rational():
    params = validate_params(3, 9, 3, 1)
    assert eval_f(F(9), params) == F(2916, 25)
    assert eval_f(9, params) == F(2916, 25)
    assert eval_f(F(0), params) == 0
    assert eval_f(F(1), validate_params(3, 4, 1, 3)) == 1
    with pytest.raises(PoleHit):
        eval_f(F(-1), params)


def test_eval_f_quadratic():
    params = validate_params(3, 2, 3, 1)
    x = QuadExt(F(0), F(1), F(2))  # sqrt(2)
    y = eval_f(x, params)
    assert isinstance(y, QuadExt)
    # |f(x)| must agree with the valuation-only computation
    assert abs_f(x, params) == Radius.from_val(3, quad_val(y, 3))
    with pytest.raises(PoleHit):
        eval_f(QuadExt(F(-1), F(0), F(2)), params)


def test_eval_f_truncated():
    params = validate_params(3, 9, 3, 1)
    x = TruncatedPadic.from_rational(9, 3, 30)
    y = eval_f(x, params)
    assert y.valuation() == 6
    assert eval_f(TruncatedPadic.zero(3), params).exact_zero
    # a truncated point indistinguishable from the pole refuses to answer:
    # no finite number of digits can separate x = -c from x = -c + O(p^30)
    with pytest.raises(PrecisionExhausted):
        eval_f(TruncatedPadic.from_rational(-1, 3, 30), params)


def test_abs_f_pinned():
    params = validate_params(3, 9, 3, 1)
    assert abs_f(F(9), params) == Radius.from_val(3, 6)
    assert abs_f(F(9), params) == Radius.from_rational(3, F(1, 729))
    assert abs_f(F(0), params).is_zero
    assert abs_f(F(-3), params).is_zero  # x = -b maps to 0
    with pytest.raises(PoleHit):
        abs_f(F(-1), params)
    # |x| > |c| > |b| with |a| = 1 keeps the radius: |f(x)| = |x|
    flat = validate_params(3, 2, 3, 1)
    assert abs_f(F(1, 3), flat) == Radius.from_val(3, -1)


def test_abs_f_truncated_honest_cancellation():
    params = validate_params(3, 9, 3, 1)
    x = TruncatedPadic.from_rational(-3, 3, 40)
    # x + b cancels beyond every certified digit: refusing to answer is
    # the only honest outcome (the exact x would map to 0)
    with pytest.raises(PrecisionExhausted):
        abs_f(x, params)


def test_abs_f_matches_radius_step_on_generic_points():
    params = validate_params(3, 9, 3, 1)
    spec = params.radius_spec()
    for x in (F(9), F(1, 9), F(18), F(2, 3)):
        r = Radius.from_val(3, vp_rat(x, 3))
        assert abs_f(x, params) == radius_step(r, spec)


# ---------------------------------------------------------------------- orbits


def test_orbit_shrinking_radii():
    params = validate_params(3, 9, 3, 1)
    rec = orbit(F(9), params, 3)
    assert rec.termination == Completed(3)
    assert rec.valuations == (2, 6, 10, 14)
    assert [vp_rat(x, 3) for x in rec.points] == [2, 6, 10, 14]


def test_orbit_pole_hit():
    params = validate_params(3, F(-16, 3), 2, 3)
    assert eval_f(F(1), params) == F(-3)  # one step onto the pole
    rec = orbit(F(1), params, 5)
    assert rec.termination == PoleHitAt(1)
    assert rec.points == (F(1), F(-3))
    assert rec.valuations == (0, 1)
    rec = orbit(F(-3), params, 5)
    assert rec.termination == PoleHitAt(0)
    assert rec.points == (F(-3),)


def test_orbit_constant_zero():
    params = validate_params(3, 9, 3, 1)
    rec = orbit(F(0), params, 10)
    assert rec.termination == Completed(10)
    assert all(x == 0 for x in rec.points)
    assert all(v is TOP for v in rec.valuations)


def test_orbit_depth_cap_and_truncated_mode():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(InvalidArgument):
        orbit(F(9), params, 40)
    rec = orbit(F(9), params, 40, precision=60)
    assert rec.termination == Completed(40)
    assert rec.valuations[-1] == 2 + 4 * 40
    assert all(isinstance(x, TruncatedPadic) for x in rec.points)
    # the cap is configurable (here: tightened, keeping the orbit exact)
    with pytest.raises(InvalidArgument):
        orbit(F(9), params, 5, max_exact_steps=4)
    rec = orbit(F(9), params, 5, max_exact_steps=5)
    assert rec.termination == Completed(5)
    assert isinstance(rec.points[-1], F)


def test_truncated_orbit_lifts_coefficients_once(monkeypatch):
    params = validate_params(5, 2, 1, 3)
    _lift.cache_clear()
    lift = TruncatedPadic.from_rational
    lifted = []

    def counted(q, p, digits):
        lifted.append((q, digits))
        return lift(q, p, digits)

    monkeypatch.setattr(TruncatedPadic, "from_rational", counted)
    rec = orbit(F(7, 3), params, 50, precision=256)
    assert rec.termination == Completed(50)
    # the start point, then a, b and c once per digit count the orbit
    # runs at: not three lifts per step
    widths = list(dict.fromkeys(pt.digits for pt in rec.points[:-1]))
    assert len(widths) < 5
    assert lifted == [(F(7, 3), 256)] + [
        (q, w) for w in widths for q in (params.a, params.b, params.c)
    ]


def test_orbit_quadratic_points():
    params = validate_params(3, 3, 1, 6)
    x = QuadExt(F(0), F(1), F(3))  # sqrt(3), valuation 1/2
    rec = orbit(x, params, 4)
    assert rec.termination == Completed(4)
    assert rec.valuations[0] == F(1, 2)
    with pytest.raises(InvalidArgument):
        orbit(x, params, 4, precision=40)


def test_orbit_rejects_bad_length():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(InvalidArgument):
        orbit(F(9), params, 0)


# ---------------------------------------------------------------- fixed points


def test_fixed_points_rational_root_pinned():
    params = validate_params(3, 4, 1, 3)
    x0, x1, x2 = fixed_points(params)
    assert (x0.which, x1.which, x2.which) == ("x0", "x1", "x2")
    assert x0.location == 0 and x0.multiplier == F(4, 9)
    assert x0.multiplier_abs == rad(3, 4)
    assert x0.character is Character.REPELLING
    assert x1.location == 1 and x1.multiplier == F(3, 2)
    assert x1.character is Character.ATTRACTING
    assert x2.location == F(-5, 3) and x2.multiplier == F(17, 2)
    assert x2.character is Character.INDIFFERENT
    # the derivative formula reproduces the closed multiplier forms
    assert derivative_at(x1.location, params) == F(3, 2)
    assert derivative_at(x2.location, params) == F(17, 2)
    assert derivative_at(F(0), params) == F(4, 9)


def test_fixed_points_branch_swap():
    params = validate_params(3, 4, 1, 3)
    plus = fixed_points(params)
    minus = fixed_points(params, conjugate_root=True)
    assert minus[1].location == plus[2].location
    assert minus[2].location == plus[1].location
    assert minus[1].multiplier == plus[2].multiplier
    assert minus[2].multiplier == plus[1].multiplier


def test_fixed_points_quadratic_extension():
    params = validate_params(3, 2, 3, 1)
    x0, x1, x2 = fixed_points(params)
    assert isinstance(x1.location, QuadExt)
    assert eval_f(x1.location, params) == x1.location
    assert eval_f(x2.location, params) == x2.location
    assert derivative_at(x1.location, params) == x1.multiplier
    assert derivative_at(x2.location, params) == x2.multiplier
    assert x1.multiplier == QuadExt(F(-3), F(7, 2), F(2))
    assert x1.multiplier_val == 0
    assert x1.character is Character.INDIFFERENT
    swapped = fixed_points(params, conjugate_root=True)
    assert swapped[1].location == x2.location
    assert swapped[2].multiplier == x1.multiplier


def test_fixed_points_truncated_mode():
    params = validate_params(5, 6, 1, 3)  # 6 is a 5-adic square, not rational
    assert params.sqrt_mode.kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    x0, x1, x2 = fixed_points(params, precision=48)
    assert isinstance(x1.location, TruncatedPadic)
    assert x1.location_val == -1
    assert x2.location_val == 0
    assert x1.character is Character.INDIFFERENT
    assert x2.character is Character.INDIFFERENT
    # symbolic derivative and closed form agree to working precision
    d = derivative_at(x1.location, params) - x1.multiplier
    assert not (d.is_certified and not d.exact_zero)
    swapped = fixed_points(params, precision=48, conjugate_root=True)
    assert swapped[1].location_val == x2.location_val
    diff = swapped[1].location - x2.location
    assert not (diff.is_certified and not diff.exact_zero)


def test_fixed_points_truncated_p2():
    params = validate_params(2, 17, 4, 1)  # 17 = 1 mod 8: a 2-adic square
    assert params.sqrt_mode.kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    _, x1, x2 = fixed_points(params, precision=48)
    assert x1.location_val == -3
    assert x2.location_val == -1
    assert x1.character is Character.INDIFFERENT


def test_multiplier_thresholds_at_p2():
    # |a| crossing thresholds flips the character of x1
    cases = [
        (validate_params(2, 8, 2, 1), Character.REPELLING),
        (validate_params(2, 4, 2, 1), Character.ATTRACTING),
        (validate_params(2, 2, 2, 1), Character.INDIFFERENT),
    ]
    for params, expected in cases:
        _, x1, _ = fixed_points(params)
        assert x1.character is expected, (params.a, x1.multiplier_val)


def test_fixed_point_info_to_dict():
    params = validate_params(3, 4, 1, 3)
    d = fixed_points(params)[0].to_dict()
    assert d == {
        "which": "x0",
        "location": "0",
        "location_val": "TOP",
        "multiplier": "4/9",
        "multiplier_val": "-2",
        "multiplier_abs": "3^2",
        "character": "repelling",
    }


# -------------------------------------------------------------------- sampling


def test_sample_sphere_rational():
    params = validate_params(3, 9, 3, 1)
    pts = sample_sphere(rad(3, 2), params, 6, seed=11)
    assert len(pts) == 6
    assert all(vp_rat(x, 3) == -1 for x in pts)
    assert pts == sample_sphere(rad(3, 2), params, 6, seed=11)
    with pytest.raises(InvalidArgument):
        sample_sphere(Radius.zero(3), params, 3, seed=1)
    with pytest.raises(InvalidArgument):
        sample_sphere(Radius.infinite(3), params, 3, seed=1)
    with pytest.raises(UnsupportedRadius):
        sample_sphere(rad(3, 0, 2), params, 3, seed=1)


def test_sample_sphere_half_integer():
    ram = validate_params(3, 3, 1, 6)
    pts = sample_sphere(rad(3, -1), ram, 5, seed=7)
    assert all(isinstance(x, QuadExt) for x in pts)
    assert all(quad_val(x, 3) == F(1, 2) for x in pts)
    # rational-root and unramified extensions cannot realize half-integers
    with pytest.raises(UnsupportedRadius):
        sample_sphere(rad(3, -1), validate_params(3, 4, 1, 3), 3, seed=1)
    with pytest.raises(UnsupportedRadius):
        sample_sphere(rad(3, -1), validate_params(3, 2, 3, 1), 3, seed=1)
    with pytest.raises(UnsupportedRadius):
        sample_sphere(rad(5, -1), validate_params(5, 6, 1, 3), 3, seed=1)


def test_sample_sphere_avoids_pole():
    params = validate_params(3, 2, 3, -1)  # pole at x = 1
    pts = sample_sphere(rad(3, 0), params, 50, seed=23)
    assert all(x != 1 for x in pts)
    assert all(vp_rat(x, 3) == 0 for x in pts)


# ------------------------------------------------- evaluation-level invariants


ENGINE_PARAMS = [
    (3, 9, 3, 1),
    (3, 4, 1, 3),
    (3, 2, 3, 1),
    (3, 3, 1, 6),
    (3, F(-16, 3), 2, 3),
    (5, 6, 1, 3),
    (2, 17, 4, 1),
    (2, 8, 2, 1),
]


@pytest.mark.parametrize("raw", ENGINE_PARAMS)
def test_abs_f_matches_eval_f_valuation(raw):
    params = validate_params(*raw)
    p = params.p
    probes = []
    for q2 in range(-6, 7, 2):
        probes.extend(sample_sphere(rad(p, q2), params, 3, seed=q2 + 100))
    if params.sqrt_mode.kind is SqrtKind.QP_NONSQUARE and params.val_a % 2:
        probes.extend(sample_sphere(rad(p, -1), params, 3, seed=5))
        probes.extend(sample_sphere(rad(p, 3), params, 3, seed=6))
    for x in probes:
        try:
            y = eval_f(x, params)
        except PoleHit:
            continue
        assert abs_f(x, params) == Radius.from_val(p, point_val(y, p))


@pytest.mark.parametrize("raw", ENGINE_PARAMS)
def test_fixed_point_residuals_and_multipliers(raw):
    params = validate_params(*raw)
    infos = fixed_points(params)
    assert [i.which for i in infos] == ["x0", "x1", "x2"]
    assert infos[0].multiplier == params.a * params.b**2 / params.c**2
    for info in infos:
        if isinstance(info.location, TruncatedPadic):
            diff = eval_f(info.location, params) - info.location
            assert not (diff.is_certified and not diff.exact_zero)
            d = derivative_at(info.location, params) - info.multiplier
            assert not (d.is_certified and not d.exact_zero)
        else:
            assert eval_f(info.location, params) == info.location
            assert derivative_at(info.location, params) == info.multiplier


@pytest.mark.parametrize("raw", ENGINE_PARAMS)
def test_truncated_eval_agrees_with_exact(raw):
    params = validate_params(*raw)
    p = params.p
    for x in sample_sphere(rad(p, -2), params, 3, seed=3):
        exact = eval_f(x, params)
        approx = eval_f(TruncatedPadic.from_rational(x, p, 40), params)
        lifted = TruncatedPadic.from_rational(exact, p, approx.digits)
        diff = lifted - approx
        assert not (diff.is_certified and not diff.exact_zero)
