"""Certified truncated arithmetic in Q_p(sqrt(a)): the ``TruncatedQuad``
type against exact ``QuadExt`` arithmetic, field operations and orbits."""

from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from udyn.exactnum import (
    TOP,
    InvalidExtension,
    PrecisionExhausted,
    QuadExt,
    TruncatedPadic,
    TruncatedQuad,
    is_qp_square,
    quad_val,
)
from udyn.mapengine import (
    DegenerateParams,
    PoleHit,
    _is_zero,
    eval_f,
    orbit,
    point_val,
    validate_params,
)

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

