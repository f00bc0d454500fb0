"""Certified truncated arithmetic in Q_p(sqrt(a)): the ``TruncatedQuad``
type against exact ``QuadExt`` arithmetic, field operations and orbits."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from udyn.exactnum import (
    TOP,
    ExactError,
    InvalidExtension,
    PrecisionExhausted,
    QuadExt,
    TruncatedPadic,
    TruncatedQuad,
    is_qp_square,
    quad_val,
    vp_rat,
)
from udyn.mapengine import (
    Completed,
    DegenerateParams,
    PoleHit,
    PrecisionExhaustedAt,
    _Bound,
    _is_zero,
    eval_f,
    lift_point,
    orbit,
    point_val,
    projective_orbit,
    sample_sphere,
    validate_params,
)
from udyn.oracle import _run_orbit
from udyn.radiusmaps import Radius, _image

PRIMES = (2, 3, 5, 7)


def lift(x: QuadExt, p: int, digits: int) -> TruncatedQuad:
    return TruncatedQuad.from_quad(x, p, digits)


def coordinates_match(t: TruncatedQuad, e: QuadExt) -> bool:
    """Every certified coordinate of t is the exact one to its digits, and
    an exact-zero coordinate is exactly zero."""
    for tc, ec in ((t.u, e.u), (t.v, e.v)):
        if tc.exact_zero and ec != 0:
            return False
        if tc.digits and tc != TruncatedPadic.from_rational(ec, t.p, tc.digits):
            return False
    return True


def _rational(p: int, vmin: int = -3, vmax: int = 3):
    """Nonzero +-p**v * m/n with m, n < 50 prime to p."""
    prime_to_p = st.builds(
        lambda k, r: k * p + r, st.integers(0, 49 // p), st.integers(1, p - 1)
    )
    return st.builds(
        lambda sign, v, m, n: sign * F(p) ** v * F(m, n),
        st.sampled_from((1, -1)),
        st.integers(vmin, vmax),
        prime_to_p,
        prime_to_p,
    )


@st.composite
def extension_params(draw):
    """(p, a, b, c) with a a nonsquare of Q_p, ramified or not, and the map
    nondegenerate."""
    p = draw(st.sampled_from(PRIMES))
    a = draw(_rational(p))
    assume(not is_qp_square(a, p))
    b, c = draw(_rational(p)), draw(_rational(p))
    try:
        validate_params(p, a, b, c)
    except DegenerateParams:
        assume(False)
    return p, a, b, c


# ------------------------------------------------------------- construction


def test_rejects_a_qp_square_radicand():
    # 7 = 1 (mod 3) and 17 = 1 (mod 8) are squares of Q_3 and Q_2
    with pytest.raises(InvalidExtension):
        lift(QuadExt(1, 1, 7), 3, 24)
    with pytest.raises(InvalidExtension):
        lift(QuadExt(0, 1, 17), 2, 24)
    params = validate_params(3, 7, 1, 3)
    with pytest.raises(InvalidExtension):
        orbit(QuadExt(0, 1, 7), params, 3, precision=24)
    # a point of a field other than the map's is checked and lifted alike
    assert lift_point(QuadExt(0, 1, 2), params, 96) == lift(QuadExt(0, 1, 2), 3, 96)


def test_uncertified_norm_exhausts_precision():
    # p = 2, a = 5 = 5 (mod 8): the norm of 1 + sqrt(5) is -4, so two
    # digits of u and v leave no certified digit of it
    x = lift(QuadExt(1, 1, 5), 2, 2)
    assert not x.is_certified and _is_zero(x) is None
    with pytest.raises(PrecisionExhausted):
        x.valuation()
    with pytest.raises(PrecisionExhausted):
        point_val(x, 2)
    with pytest.raises(PrecisionExhausted):
        TruncatedPadic.from_rational(1, 2, 2) / x
    y = lift(QuadExt(1, 1, 5), 2, 3)
    assert y.valuation() == quad_val(QuadExt(1, 1, 5), 2) == 1


def test_digits_and_exact_zero():
    x = lift(QuadExt(0, 3, 3), 3, 10)
    assert x.u.exact_zero and x.digits == 10 and not x.exact_zero
    assert x.valuation() == F(3, 2)
    z = lift(QuadExt(0, 0, 3), 3, 10)
    assert z.exact_zero and z.digits == 0
    assert z.valuation() is TOP and _is_zero(z) is True
    assert str(lift(QuadExt(1, 2, F(1, 3)), 3, 4)) == (
        "((1*3^0 + O(3^4)) + (2*3^0 + O(3^4))*sqrt(1/3))"
    )


def test_operands_of_different_extensions_are_refused():
    with pytest.raises(InvalidExtension):
        _ = lift(QuadExt(1, 1, 2), 3, 8) + lift(QuadExt(1, 1, 5), 3, 8)


# --------------------------------------------------------- field arithmetic


@settings(max_examples=120, deadline=None)
@given(data=st.data(), params=extension_params())
def test_field_operations_match_exact(data, params):
    p, a = params[0], params[1]
    u1, u2, s = (data.draw(st.one_of(st.just(F(0)), _rational(p))) for _ in range(3))
    v1, v2 = data.draw(_rational(p)), data.draw(_rational(p))
    x, y = QuadExt(u1, v1, a), QuadExt(u2, v2, a)
    digits = 24
    tx, ty = lift(x, p, digits), lift(y, p, digits)
    ts = TruncatedPadic.from_rational(s, p, digits)
    pairs = [
        (tx + ty, x + y),
        (tx - ty, x - y),
        (tx * ty, x * y),
        (tx / ty, x / y),
        (-tx, -x),
        (tx.conj(), x.conj()),
        (tx * tx * tx, x * x * x),
        (ts + tx, s + x),
        (tx + ts, x + s),
        (ts - tx, s - x),
        (tx - ts, x - s),
        (ts * tx, s * x),
        (tx * ts, x * s),
    ]
    if s != 0:
        pairs += [(tx / ts, x / s), (ts / tx, s / x)]
    for t, e in pairs:
        assert coordinates_match(t, e), (t, e)
        if t.is_certified:
            assert t.valuation() == quad_val(e, p)
    assert tx.valuation() == quad_val(x, p)


# ------------------------------------------------------- differential orbits


@st.composite
def orbit_cases(draw):
    """(p, a, b, c, u, v): nondegenerate parameters with a nonsquare a and a
    start u + v*sqrt(a), u possibly zero."""
    p, a, b, c = draw(extension_params())
    u = draw(st.one_of(st.just(F(0)), _rational(p)))
    return p, a, b, c, u, draw(_rational(p))


@settings(max_examples=80, deadline=None)
@given(case=orbit_cases())
# ramified: odd v(a), and p = 2 with a unit a = 3 (mod 4)
@example(case=(3, F(1, 3), F(1), F(3), F(1), F(2)))
@example(case=(3, F(27), F(1), F(6), F(0), F(1, 9)))
@example(case=(2, F(3), F(4), F(1), F(0), F(1)))
@example(case=(2, F(7), F(1, 3), F(5), F(1), F(3)))
# unramified: a unit nonresidue, and p = 2 with a = 5 (mod 8), whose
# norm loses two digits to cancellation
@example(case=(5, F(2), F(1), F(3), F(7, 3), F(1)))
@example(case=(2, F(5), F(1, 3), F(7), F(1), F(1)))
@example(case=(2, F(20), F(4), F(1), F(0), F(3, 5)))
def test_truncated_orbits_agree_with_exact(case):
    p, a, b, c, u, v = case
    params = validate_params(p, a, b, c)
    # five exact steps, past the size budget of an exact orbit()
    exact = [QuadExt(u, v, a)]
    try:
        while len(exact) < 6:
            exact.append(eval_f(exact[-1], params))
    except PoleHit:
        pass
    exact_vals = [quad_val(e, p) for e in exact]
    for digits in (24, 48, 96):
        trunc = orbit(exact[0], params, 5, precision=digits)
        assert all(isinstance(pt, TruncatedQuad) for pt in trunc.points)
        n = min(len(exact), len(trunc.points))
        assert list(trunc.valuations[:n]) == exact_vals[:n]
        for t, e in zip(trunc.points, exact):
            assert coordinates_match(t, e), (digits, t, e)
    # a start and one step of small rationals lose far fewer than 96 digits
    assert len(trunc.points) >= min(2, len(exact))



# ------------------------------------------------------ the half-integer walk


@st.composite
def half_integer_starts(draw):
    """(p, a, b, c, u, v): nondegenerate parameters whose sqrt(a) is
    ramified, and a start u + v*sqrt(a) of valuation in 1/2 + Z.  Either
    v(a) is odd and v(u) > v(v*sqrt(a)) (u possibly zero), or p = 2, a is a
    unit = 3 (mod 4) and u, v are a common p-power times units, so the norm
    u**2 - a*v**2 is twice a unit times an even power of 2."""
    p = draw(st.sampled_from(PRIMES))
    if p == 2 and draw(st.booleans()):
        a = F(4 * draw(st.integers(-12, 12)) + 3, 4 * draw(st.integers(0, 12)) + 1)
        scale = draw(_rational(2))
        u, v = (scale * draw(_rational(2, 0, 0)) for _ in range(2))
    else:
        a = draw(_rational(p))
        assume(vp_rat(a, p) % 2)
        v = draw(_rational(p))
        floor = vp_rat(v, p) + (vp_rat(a, p) + 1) // 2  # v(u) > v(v) + v(a)/2
        deeper = st.builds(
            lambda t, j: t * F(p) ** (floor - vp_rat(t, p) + j), _rational(p), st.integers(0, 3)
        )
        u = draw(st.one_of(st.just(F(0)), deeper))
    b, c = draw(_rational(p)), draw(_rational(p))
    try:
        validate_params(p, a, b, c)
    except DegenerateParams:
        assume(False)
    return p, a, b, c, u, v


@settings(max_examples=100, deadline=None)
@given(case=half_integer_starts())
@example(case=(2, F(3), F(4), F(1), F(1), F(1)))  # 1 + sqrt(3) over Q_2: v = 1/2
@example(case=(2, F(7), F(1, 3), F(5), F(6), F(-2, 3)))
@example(case=(2, F(2), F(1), F(3), F(0), F(3, 5)))  # v(a) odd at p = 2
@example(case=(3, F(1, 3), F(3), F(1), F(0), F(5, 7)))  # a grid row
@example(case=(3, F(27), F(1), F(6), F(9), F(2, 7)))  # a grid row
@example(case=(7, F(7, 2), F(1, 7), F(49), F(0), F(1)))
def test_half_integer_orbits_are_the_radius_walk(case):
    # v(x + w) = min(v(x), v(w)) for w in Q_p, so a point of valuation in
    # 1/2 + Z has the radius map's walk from q2 = -2*v(x) as its radii, off
    # every critical sphere: both drivers give its valuations.  They finish,
    # but at 16 digits a unit a = 3 (mod 4) over Q_2 may run out first, as the
    # norm loses its leading digit at every step
    p, a, b, c, u, v = case
    params = validate_params(p, a, b, c)
    x0 = QuadExt(u, v, a)
    q2, spec, n = -2 * quad_val(x0, p), params.radius_spec(), 25
    short = p == 2 and vp_rat(a, p) == 0
    assert q2.denominator == 1 and q2 % 2
    walk = [q2]
    for _ in range(n):
        walk.append(_image(walk[-1], spec))
    want = tuple(F(-q, 2) for q in walk)
    for digits in (16, 64):
        for rec in (
            projective_orbit(x0, params, n, digits),
            orbit(x0, params, n, precision=digits),
        ):
            k = len(rec.valuations)
            assert rec.valuations == want[:k]
            ran_out = short and digits == 16 and rec.termination == PrecisionExhaustedAt(k)
            assert ran_out or rec.termination == Completed(n)


# --------------------------------------------------------------- one step of f


def composed_f(f: _Bound, x: TruncatedQuad) -> TruncatedQuad:
    """f(x) by the composed ``_QuadField`` operators and the pole rule of
    ``_Bound._den``, written out as the reference for ``_Bound.f``."""
    den = x + f.c
    zero = _is_zero(den)
    if zero:
        raise PoleHit("x + c = 0")
    if zero is None:
        raise PrecisionExhausted("x + c is not certified nonzero")
    q = (x + f.b) / den
    return f.a * x * (q * q)


def shape(t: TruncatedPadic):
    return t.val, t.unit, t.digits, t.exact_zero


def quad_shape(t: TruncatedQuad):
    return shape(t.u), shape(t.v), shape(t.norm)


@pytest.mark.parametrize(
    "case",
    [
        (2, F(3), F(4), F(1), F(0), F(1), 4),  # a grid row, ramified at p = 2
        (3, F(1, 3), F(1), F(3), F(0), F(7, 5), 96),  # a grid row, ramified at p = 3
        (2, F(5), F(1), F(3), F(-2), F(1), 2),  # unramified at p = 2; |x + c| uncertified at step 1
        (5, F(2), F(1), F(3), F(7, 3), F(1), 16),  # unramified at p = 5
    ],
    ids=["ramified-p2", "ramified-p3", "unramified-p2-exhausts", "unramified-p5"],
)
def test_quad_orbit_is_the_stepped_orbit(case):
    # the verifier's driver lifts the start and runs orbit()'s own loop: the
    # same valuations, termination and (val, unit, digits) of u, v and the norm
    p, a, b, c, u, v, digits = case
    params = validate_params(p, a, b, c)
    x0 = QuadExt(u, v, a)
    want = orbit(lift_point(x0, params, digits), params, 12, precision=digits)
    got = projective_orbit(x0, params, 12, digits)
    assert got.valuations == want.valuations
    assert got.termination == want.termination
    assert [quad_shape(t) for t in got.points] == [quad_shape(t) for t in want.points]


def test_quad_orbit_of_zero_stays_at_zero():
    params = validate_params(3, F(1, 3), 1, 3)
    x0 = QuadExt(0, 0, F(1, 3))
    want = orbit(lift_point(x0, params, 16), params, 4, precision=16)
    got = projective_orbit(x0, params, 4, 16)
    assert got.valuations == want.valuations == (TOP,) * 5
    assert got.termination == want.termination == Completed(4)
    assert [quad_shape(t) for t in got.points] == [quad_shape(t) for t in want.points]


def test_composed_step_exhausts_on_an_uncertified_norm():
    # x = -2 + sqrt(5) over Q_2 at 2 digits: x + c = 1 + sqrt(5) has norm
    # -4, of which two digits of each coordinate certify nothing
    params = validate_params(2, 5, 1, 3)
    x = TruncatedQuad.from_quad(QuadExt(-2, 1, 5), 2, 2)
    assert x.is_certified
    f = _Bound(params, x)
    with pytest.raises(PrecisionExhausted):
        composed_f(f, x)
    with pytest.raises(PrecisionExhausted):
        f.f(x)
    assert orbit(x, params, 3).termination.kind == "precision-exhausted"


def test_ramified_sampled_orbit_is_the_truncated_orbit():
    # a start -b + d of the ramified row (3, 1/3, 1, 3), v(d) = 1/2, on the
    # unit sphere, as critical-targeted samples are built: it runs the engine,
    # not the radius walk, and gives the valuations of orbit() at 16 digits
    params = validate_params(3, F(1, 3), 1, 3)
    x0 = -params.b + sample_sphere(Radius.from_exponent(3, -1), params, 1, 0)[0]
    assert point_val(x0, 3) == 0
    rec = _run_orbit(x0, params, 25)
    assert rec.termination == Completed(25)
    assert rec.valuations == orbit(x0, params, 25, precision=16).valuations
