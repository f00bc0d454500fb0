"""Tests for map evaluation, orbits, fixed points, and sphere sampling."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from udyn import cli, exactnum, mapengine
from udyn.exactnum import (
    TOP,
    ExactError,
    InvalidArgument,
    InvalidExtension,
    PrecisionExhausted,
    QuadExt,
    SqrtKind,
    TruncatedPadic,
    TruncatedQuad,
    hensel_sqrt,
    quad_val,
    unit_part,
    vp_rat,
)
from udyn.mapengine import (
    Character,
    Completed,
    DegenerateParams,
    MapParams,
    PoleHit,
    EXACT_BITS,
    PoleHitAt,
    SizeBudgetAt,
    UnsupportedRadius,
    _Bound,
    abs_f,
    derivative_at,
    eval_f,
    fixed_points,
    orbit,
    point_val,
    projective_orbit,
    sample_sphere,
    validate_params,
)
from udyn.oracle import _probe_radii, critical_value_at
from udyn.radiusmaps import Radius, RadiusMapSpec, Regime, radius_step


def rad(p, q2):
    return Radius.from_exponent(p, q2)


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


def test_validate_params_rejects_a_float_p():
    # refused up front: 5.0 would break pow() in the primality test, and
    # 3.0 passes it but breaks the first truncated orbit
    for args in ((5.0, 2, 1, 3), (3.0, 9, 3, 1)):
        with pytest.raises(InvalidArgument):
            validate_params(*args)


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


def test_radius_spec_is_built_once():
    params = validate_params(3, 9, 3, 1)
    fresh = validate_params(3, 9, 3, 1)
    before = (hash(params), repr(params))
    assert params.radius_spec() is params.radius_spec()
    # the kept spec is not a field: equality, hashing and repr are unchanged
    assert params == fresh
    assert (hash(params), repr(params)) == before == (hash(fresh), repr(fresh))
    # a spec built anew on the same valuations equals the kept one
    again = params.radius_spec()._replace()
    assert again is not params.radius_spec() and again == RadiusMapSpec(3, 2, 1, 0)
    with pytest.raises(InvalidArgument):
        params.radius_spec()._replace(val_c=F(0))


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
    assert abs_f(F(9), params) == rad(3, -12)
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


# x = -c in each scalar domain: the pole when exact, an undecidable
# x + c at the truncated digits, and a clean rejection for another prime
POLE_CASES = {
    "fraction": ((3, 9, 3, 1), lambda pr: -pr.c, PoleHit),
    "quad": ((3, 3, 1, 6), lambda pr: QuadExt(-pr.c, F(0), pr.a), PoleHit),
    "truncated": (
        (3, 9, 3, 1),
        lambda pr: TruncatedPadic.from_rational(-pr.c, pr.p, 30),
        PrecisionExhausted,
    ),
    "other-prime": (
        (3, 9, 3, 1),
        lambda pr: TruncatedPadic.from_rational(-pr.c, 5, 30),
        InvalidArgument,
    ),
}
POLE_FUNCTIONS = {
    "eval_f": eval_f,
    "derivative_at": derivative_at,
    "abs_f": abs_f,
    "critical_value_at": lambda x, params: critical_value_at(x, params, "c"),
}


@pytest.mark.parametrize("fn", POLE_FUNCTIONS)
@pytest.mark.parametrize("case", POLE_CASES)
def test_pole_and_precision_rule(case, fn):
    raw, point, error = POLE_CASES[case]
    params = validate_params(*raw)
    with pytest.raises(error):
        POLE_FUNCTIONS[fn](point(params), params)


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
    # exact points grow ~3x per step: 7141 bits at index 7, 21421 at 8
    rec = orbit(F(7, 5), params, 40)
    assert rec.termination == SizeBudgetAt(8)
    assert len(rec.points) == len(rec.valuations) == 8
    assert all(isinstance(x, F) for x in rec.points)
    assert max(x.numerator.bit_length() for x in rec.points) <= EXACT_BITS
    deep = orbit(F(7, 5), params, 40, precision=60)
    assert deep.valuations[:8] == rec.valuations
    rec = orbit(F(9), params, 40, precision=60)
    assert rec.termination == Completed(40)
    assert rec.valuations[-1] == 2 + 4 * 40
    assert all(isinstance(x, TruncatedPadic) for x in rec.points)
    # below the budget an exact orbit runs every step it is asked for
    rec = orbit(F(9), params, 5)
    assert rec.termination == Completed(5)
    assert isinstance(rec.points[-1], F)


def test_truncated_orbit_lifts_coefficients_once(monkeypatch):
    params = validate_params(3, 9, 3, 1)
    lift = TruncatedPadic.from_rational
    lifted = []

    def counted(q, p, digits):
        lifted.append((q, digits))
        return lift(q, p, digits)

    monkeypatch.setattr(TruncatedPadic, "from_rational", counted)
    rec = orbit(F(7, 5), params, 199, precision=1536)
    assert rec.termination == Completed(199)
    # the orbit loses digits to cancellation on the |c| sphere at most
    # steps, yet a, b and c are lifted once, at the start width
    assert len({pt.digits for pt in rec.points}) > 100
    assert lifted[0] == (F(7, 5), 1536)
    assert len(lifted) <= 4
    assert {q for q, _ in lifted[1:]} <= {params.a, params.b, params.c}
    assert {digits for _, digits in lifted} == {1536}

    # a whole verify run binds f once per sampled orbit and critical value,
    # yet lifts each coefficient at most once per width
    lifted.clear()
    argv = "verify --p 3 --a 9 --b 3 --c 1 --seed 0 --output json".split()
    assert cli.main(argv) == 0
    coef = Counter(lift for lift in lifted if lift[0] in (params.a, params.b, params.c))
    assert len(coef) >= 3
    assert max(coef.values()) == 1

    # a second critical value on the same parameters lifts nothing
    x = TruncatedPadic.from_rational(F(6), 3, 40)  # on the |b| sphere
    first = critical_value_at(x, params, "b")
    lifted.clear()
    assert critical_value_at(x, params, "b") == first
    assert lifted == []


def test_orbit_quadratic_points():
    params = validate_params(3, 3, 1, 6)
    x = QuadExt(F(0), F(1), F(3))  # sqrt(3), valuation 1/2
    rec = orbit(x, params, 4)
    assert rec.termination == Completed(4)
    assert rec.valuations[0] == F(1, 2)
    # with a precision the start is lifted and the orbit runs truncated
    deep = orbit(x, params, 4, precision=40)
    assert deep.termination == Completed(4)
    assert deep.valuations == rec.valuations
    assert all(isinstance(pt, TruncatedQuad) for pt in deep.points)
    for e, t in zip(rec.points, deep.points):
        for ec, tc in ((e.u, t.u), (e.v, t.v)):
            if tc.exact_zero:
                assert ec == 0
            else:
                assert tc == TruncatedPadic.from_rational(ec, 3, tc.digits)


def test_orbit_rejects_bad_length():
    params = validate_params(3, 9, 3, 1)
    with pytest.raises(InvalidArgument):
        orbit(F(9), params, -1)
    # no step is the start alone
    rec = orbit(F(9), params, 0)
    assert (rec.points, rec.valuations, rec.termination) == ((9,), (2,), Completed(0))


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


def test_fixed_points_checks_the_radicand_once_per_field(monkeypatch):
    # arithmetic in Q(sqrt(2)) reuses the checked radicand, and the square
    # class of (2, 5) is kept from the parameters' own check: one rational
    # square test, for the root, and none from the four quad_val calls
    params = validate_params(5, 2, 1, 3)
    calls = []
    true = exactnum._rational_square_root
    monkeypatch.setattr(
        exactnum, "_rational_square_root", lambda q: calls.append(q) or true(q)
    )
    fixed_points(params)
    assert len(calls) <= 1


def test_quad_val_refuses_a_qp_square_radicand_on_every_call():
    # 7 = 1 mod 3 is a square of Q_3: no call may answer from a cache
    x = QuadExt(F(1), F(1), F(7))
    for _ in range(3):
        with pytest.raises(InvalidExtension):
            quad_val(x, 3)


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


def test_fixed_points_retries_a_cancelling_root_with_doubled_digits(monkeypatch):
    # 59050 = 243**2 + 1 is a 3-adic square but not a rational one; its
    # root at 8 digits leaves a fixed point uncertified, at 16 it does not
    params = validate_params(3, 59050, 1, 2)
    assert params.sqrt_mode.kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    digits = []
    lift = mapengine.hensel_sqrt
    monkeypatch.setattr(
        mapengine, "hensel_sqrt", lambda a, p, k: digits.append(k) or lift(a, p, k)
    )

    def facts(precision):
        return [
            (i.which, i.location_val, i.multiplier_val, i.multiplier_abs, i.character)
            for i in fixed_points(params, precision=precision)
        ]

    retried = facts(8)
    assert digits == [8, 16]
    digits.clear()
    assert retried == facts(64) == facts(96)
    assert digits == [64, 96]


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


@pytest.mark.parametrize("p, q2", [(3, 4), (3, -6), (2, 0), (5, -2), (2, 10)])
def test_sample_sphere_draws_the_scaled_units(p, q2):
    # each point is built as one Fraction; it is the unit quotient m/n
    # times p**v, from the same draws in the same order
    params = validate_params(p, 9, 3, 1) if p != 3 else validate_params(3, 2, 3, 1)
    rng, want = random.Random(5), []

    def unit():
        while True:
            r = rng.randint(1, 10**4)
            if r % p:
                return r

    while len(want) < 8:
        m = unit()
        x = F(m, unit()) * F(p) ** (-q2 // 2)
        if x != params.pole:
            want.append(x)
    assert sample_sphere(rad(p, q2), params, 8, seed=5) == want


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
    # Q_2(sqrt(3)) is ramified, 1 + sqrt(3) has valuation 1/2, but the
    # draws are multiples of sqrt(a), which has valuation 0
    message = r"drawn only as multiples of sqrt\(a\), so v\(a\) must be odd; here v_2\(a\) = 0"
    with pytest.raises(UnsupportedRadius, match=message):
        sample_sphere(rad(2, 1), validate_params(2, 3, 4, 1), 3, seed=1)


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


def _unit(draw, p):
    """The p-unit part of m/n, 1 <= |m|, n <= 50."""
    return unit_part(F(draw(st.integers(-50, 50).filter(bool)), draw(st.integers(1, 50))), p)


@st.composite
def _fixed_point_cases(draw, kind):
    """(params, conjugate_root): b and c are p**[-4, 4] times a p-unit, and
    a of the given square class with valuation in [-4, 4].  A rational
    square is built as r**2, a square of Q_p only as p**(2k)*(x**2 +
    p**3*y)/z**2 with x, z units (x**2 + 8*y is 1 mod 8 for odd x), and a
    nonsquare is drawn and kept when it is one."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    scale = lambda: F(p) ** draw(st.integers(-4, 4))
    if kind is SqrtKind.RATIONAL_SQUARE:
        a = (F(p) ** draw(st.integers(-2, 2)) * _unit(draw, p)) ** 2
    elif kind is SqrtKind.QP_SQUARE_NOT_RATIONAL:
        x, z = _unit(draw, p), _unit(draw, p)
        w = x * x + p**3 * draw(st.integers(-50, 50).filter(bool))
        a = F(p) ** (2 * draw(st.integers(-2, 2))) * w / (z * z)
    else:
        a = scale() * _unit(draw, p)
    try:
        params = validate_params(p, a, scale() * _unit(draw, p), scale() * _unit(draw, p))
    except DegenerateParams:
        assume(False)
    assume(params.sqrt_mode.kind is kind)
    return params, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(
    case=st.sampled_from([SqrtKind.RATIONAL_SQUARE, SqrtKind.QP_NONSQUARE]).flatmap(
        _fixed_point_cases
    )
)
def test_exact_fixed_points_are_fixed_with_their_multipliers(case):
    # the closed form is held to f and f' themselves, exactly, on both roots
    params, conjugate = case
    _, x1, x2 = fixed_points(params, conjugate_root=conjugate)
    for info in (x1, x2):
        assert eval_f(info.location, params) == info.location
        assert derivative_at(info.location, params) == info.multiplier
    _, y1, y2 = fixed_points(params, conjugate_root=not conjugate)
    assert (y1.location, y1.multiplier) == (x2.location, x2.multiplier)
    assert (y2.location, y2.multiplier) == (x1.location, x1.multiplier)


@settings(max_examples=300, deadline=None)
@given(case=_fixed_point_cases(SqrtKind.QP_NONSQUARE))
@example(case=(validate_params(2, 5, 1, 3), False))  # a nonsquare at p = 2
def test_nonsquare_x2_reuses_the_norms_of_x1(case):
    # x2 and m2 are the conjugates of x1 and m1, so fixed_points copies x1's
    # valuations and character to x2 instead of taking two more norms
    params, conjugate = case
    _, _, x2 = fixed_points(params, conjugate_root=conjugate)
    assert x2 == mapengine._info("x2", x2.location, x2.multiplier, params.p)


@pytest.mark.parametrize("raw", [(3, 4, 1, 3), (3, 2, 3, 1)])
def test_coordinate_residual_check_fires(monkeypatch, raw):
    # a rational-square and a nonsquare set: U one off fails the check
    params = validate_params(*raw)
    right = mapengine._coordinates
    monkeypatch.setattr(
        mapengine, "_coordinates", lambda q: (right(q)[0] + 1,) + right(q)[1:]
    )
    with pytest.raises(ExactError, match="residual"):
        fixed_points(params)


def _not_apart(x, y):
    """x and y agree on every digit both certify."""
    d = x - y
    return not (d.is_certified and not d.exact_zero)


def _hensel_pair(params, s):
    """x1, x2, m1 and m2 from a truncated root s of a by the quotient
    formulas x1,2 = -(b*s -+ c)/(s -+ 1) and
    m1,2 = 1 + 2*(c -+ b*s)*(s -+ 1)/((c - b)*s), with b and c lifted to
    the root's digits: a reference independent of U, V, M and N."""
    one, two, b, c = (
        TruncatedPadic.from_rational(q, params.p, s.digits) for q in (1, 2, params.b, params.c)
    )
    return (
        -(b * s - c) / (s - one),
        -(b * s + c) / (s + one),
        one + two * (c - b * s) * (s - one) / ((c - b) * s),
        one + two * (c + b * s) * (s + one) / ((c - b) * s),
    )


@settings(max_examples=200, deadline=None)
@given(case=_fixed_point_cases(SqrtKind.QP_SQUARE_NOT_RATIONAL))
@example(case=(validate_params(2, 17, 4, 1), False))  # a square of Q_2 only
@example(case=(validate_params(3, 59050, 1, 2), True))  # the retry test's row
def test_closed_form_agrees_with_the_hensel_pair(case):
    # the closed form fixed_points returns against the quotient formulas on
    # the same branch of the Hensel root, widened until they certify every
    # value: both certify the same valuations and agree on every digit
    # both certify
    params, conjugate = case
    p = params.p
    _, x1, x2 = fixed_points(params, conjugate_root=conjugate)
    digits = 64
    while True:
        s = hensel_sqrt(params.a, p, digits)
        try:
            ref = _hensel_pair(params, -s if conjugate else s)
            if all(t.is_certified for t in ref):
                break
        except PrecisionExhausted:
            pass
        digits *= 2
    got = (x1.location, x2.location, x1.multiplier, x2.multiplier)
    for ours, theirs in zip(got, ref):
        assert ours.valuation() == theirs.valuation()
        assert _not_apart(ours, theirs)


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


_small = st.tuples(st.integers(-50, 50).filter(bool), st.integers(1, 50))


@st.composite
def _orbit_cases(draw):
    """(params, x0): nondegenerate rational (a, b, c) and a rational start
    scaled by p**e, e in [-3, 3]."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    a, b, c = (F(*draw(_small)) for _ in range(3))
    try:
        params = validate_params(p, a, b, c)
    except DegenerateParams:
        assume(False)
    x0 = F(*draw(_small)) * F(p) ** draw(st.integers(-3, 3))
    return params, x0


@settings(max_examples=200, deadline=None)
@given(case=_orbit_cases())
def test_truncated_orbit_agrees_with_exact(case):
    params, x0 = case
    p = params.p
    exact = orbit(x0, params, 5)
    for digits in (24, 48, 96):
        approx = orbit(x0, params, 5, precision=digits)
        common = min(len(exact.points), len(approx.points))
        assert approx.valuations[:common] == exact.valuations[:common]
        for t, x in zip(approx.points, exact.points):
            if t.exact_zero:
                assert x == 0
            else:
                assert t == TruncatedPadic.from_rational(x, p, t.digits)


def _scaled_shape(t, shift):
    """(exact zero, valuation + shift, unit, digits) of a truncated point."""
    return (t.exact_zero, None if t.exact_zero else t.val + shift, t.unit, t.digits)


@settings(max_examples=300, deadline=None)
@given(case=_orbit_cases(), k=st.sampled_from([-2, -1, 1, 2]))
def test_truncated_orbit_commutes_with_scaling(case, k):
    # x = p**k * y conjugates f_{a,b,c} to f_{a,b/p**k,c/p**k}: the orbit
    # of x0 / p**k under it is the orbit of x0 with every valuation shifted
    # by -k, digit for digit, and ends the same way
    params, x0 = case
    p = params.p
    lam = F(p) ** k
    conjugate = validate_params(p, params.a, params.b / lam, params.c / lam)
    rec = orbit(x0, params, 25, precision=48)
    scaled = orbit(x0 / lam, conjugate, 25, precision=48)
    assert scaled.termination == rec.termination
    assert list(scaled.valuations) == [v if v is TOP else v - k for v in rec.valuations]
    assert [_scaled_shape(t, 0) for t in scaled.points] == [
        _scaled_shape(t, -k) for t in rec.points
    ]


def _outcome(step, x):
    """(val, unit, digits, exact_zero) of step(x), or the exception type."""
    try:
        y = step(x)
    except ExactError as exc:
        return type(exc)
    return (y.val, y.unit, y.digits, y.exact_zero)


@st.composite
def _step_cases(draw):
    """(params, width, x): nondegenerate (a, b, c) scaled by p**[-3, 3], a
    coefficient width at or above the point's 1-64 digits, and x drawn
    near -b or -c (so x + b or x + c cancels to fewer digits or to
    O(p**k)), anywhere, or an exact zero or uncertified number."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    a, b, c = (F(*draw(_small)) * F(p) ** draw(st.integers(-3, 3)) for _ in range(3))
    try:
        params = validate_params(p, a, b, c)
    except DegenerateParams:
        assume(False)
    digits = draw(st.integers(1, 64))
    width = draw(st.integers(digits, 96))
    kind = draw(st.sampled_from(["near -b", "near -c", "free", "zero", "uncertified"]))
    if kind == "zero":
        return params, width, TruncatedPadic.zero(p)
    if kind == "uncertified":
        return params, width, TruncatedPadic(p, val=draw(st.integers(-6, 6)))
    centre = {"near -b": -b, "near -c": -c, "free": F(0)}[kind]
    offset = draw(st.one_of(st.just(F(0)), _small.map(lambda t: F(*t))))
    x = centre + offset * F(p) ** draw(st.integers(-3, 70))
    assume(x != 0)
    return params, width, TruncatedPadic.from_rational(x, p, digits)


@settings(max_examples=400, deadline=None)
@given(case=_step_cases())
def test_fused_step_equals_the_composed_operators(case):
    params, width, x = case
    bound = _Bound(params, x)
    bound.a, bound.b, bound.c = params.lifted(width)

    def composed(x):
        q = (x + bound.b) / bound._den(x)
        return bound.a * x * (q * q)

    assert _outcome(bound.f, x) == _outcome(composed, x)
    assert _outcome(bound._step, x) == _outcome(composed, x)


def _shapes(points):
    """(val, unit, digits, exact_zero) of each truncated point."""
    return [(t.val, t.unit, t.digits, t.exact_zero) for t in points]


def _same_orbit(rec, proj):
    assert proj.valuations == rec.valuations
    assert proj.termination == rec.termination
    assert len(proj.points) == len(rec.points)
    assert _shapes(proj.points) == _shapes(rec.points)


@st.composite
def _projective_cases(draw):
    """(params, x0, digits): nondegenerate (a, b, c) scaled by p**[-3, 3],
    1-96 digits, and a start drawn by sample_sphere on an integer probe
    radius, or at -b or -c plus a unit times p**j relative to it, j in
    [1, 6], so x + b or x + c cancels j digits."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    a, b, c = (F(*draw(_small)) * F(p) ** draw(st.integers(-3, 3)) for _ in range(3))
    try:
        params = validate_params(p, a, b, c)
    except DegenerateParams:
        assume(False)
    kind = draw(st.sampled_from(["sphere", "-b", "-c"]))
    if kind == "sphere":
        radii = [r for r in _probe_radii(params) if r.q2 % 2 == 0]
        radius = draw(st.sampled_from(radii))
        x0 = sample_sphere(radius, params, 1, draw(st.integers(0, 1 << 16)))[0]
    else:
        anchor = -b if kind == "-b" else -c
        offset = _unit(draw, p) * F(p) ** (vp_rat(anchor, p) + draw(st.integers(1, 6)))
        x0 = anchor + draw(st.sampled_from([1, -1])) * offset
        assume(x0 != params.pole and x0 != 0)
    return params, x0, draw(st.integers(1, 96))


@settings(max_examples=300, deadline=None)
@given(case=_projective_cases())
def test_projective_orbit_equals_the_normalised_orbit(case):
    # the verifier's projective orbit is orbit() digit for digit: the same
    # valuations, termination and (val, unit, digits) at every point
    params, x0, digits = case
    _same_orbit(orbit(x0, params, 25, precision=digits), projective_orbit(x0, params, 25, digits))


def test_projective_orbit_of_zero_stays_at_zero():
    params = validate_params(3, 9, 3, 1)
    _same_orbit(orbit(F(0), params, 25, precision=96), projective_orbit(F(0), params, 25, 96))


def test_projective_orbit_at_the_pole_is_the_exact_pole_hit():
    # a lifted -c only exhausts the precision at step 1; the exact start is
    # the pole itself, as the exact orbit says
    params = validate_params(3, 9, 3, 1)
    assert orbit(params.pole, params, 25).termination == PoleHitAt(0)
    rec = projective_orbit(params.pole, params, 25, 96)
    assert rec.termination == PoleHitAt(0)
    assert rec.valuations == (0,)
    assert _shapes(rec.points) == _shapes([TruncatedPadic.from_rational(-1, 3, 96)])
    # orbit() checks the exact start before it lifts it, so it agrees
    _same_orbit(orbit(params.pole, params, 25, precision=96), rec)
    # with no step to take, neither reaches the pole
    start = orbit(params.pole, params, 0, precision=96)
    _same_orbit(start, projective_orbit(params.pole, params, 0, 96))
    assert start.termination == Completed(0)


@pytest.mark.parametrize(
    "row, x0",
    [
        ((3, 9, 3, 1), F(7, 5)),
        ((3, F(1, 3), 3, 1), QuadExt(1, 2, F(1, 3))),  # a start in Q_p(sqrt(a))
        ((3, 9, 3, 1), F(0)),
        ((3, 9, 3, 1), F(-3)),  # -b
    ],
    ids=["rational", "quad", "zero", "minus-b"],
)
def test_projective_orbit_refuses_a_negative_length(row, x0):
    params = validate_params(*row)
    for run in (
        lambda: orbit(x0, params, -2, precision=16),
        lambda: projective_orbit(x0, params, -2, 16),
    ):
        with pytest.raises(InvalidArgument, match="orbit length must be >= 0"):
            run()


def test_an_exact_start_at_minus_b_maps_to_exact_zero():
    # x + b = 0 exactly, so f(-b) = 0, its own image; the lifted -b has an
    # uncertified x + b and only exhausted the precision at step 1
    params = validate_params(3, 9, 3, 1)
    exact = orbit(-params.b, params, 5)
    assert exact.valuations == (1,) + (TOP,) * 5
    for rec in (orbit(-params.b, params, 5, precision=16), projective_orbit(-params.b, params, 5, 16)):
        assert (rec.valuations, rec.termination) == (exact.valuations, Completed(5))
        assert _shapes(rec.points) == _shapes(
            [TruncatedPadic.from_rational(-3, 3, 16)] + [TruncatedPadic.zero(3)] * 5
        )
    # a point of Q_p(sqrt(a)) at -b lands on the zero of that field
    ram = validate_params(3, F(1, 3), 1, 3)
    rec = orbit(QuadExt(-1, 0, F(1, 3)), ram, 3, precision=16)
    assert (rec.valuations, rec.termination) == ((0, TOP, TOP, TOP), Completed(3))
    assert isinstance(rec.points[-1], TruncatedQuad) and rec.points[-1].exact_zero
    # with no step to take the start is all there is
    assert orbit(-params.b, params, 0, precision=16).valuations == (1,)


def test_projective_orbit_equals_the_normalised_orbit_at_1536_digits():
    params = validate_params(3, 9, 3, 1)
    rec = orbit(F(7, 5), params, 200, precision=1536)
    proj = projective_orbit(F(7, 5), params, 200, 1536)
    assert rec.termination == Completed(200)
    _same_orbit(rec, proj)
    assert list(proj.points[::50]) == list(rec.points[::50])
    assert bool(proj.points) and proj.points[-1] == rec.points[-1]
