"""Tests for the exact-arithmetic layer: valuations, square roots,
quadratic extensions, and truncated p-adics."""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from udyn.exactnum import (
    TOP,
    InvalidArgument,
    InvalidExtension,
    PrecisionExhausted,
    QuadExt,
    SqrtKind,
    TruncatedPadic,
    ZeroDivisor,
    _inv_unit,
    _pk,
    hensel_sqrt,
    is_prime,
    is_qp_square,
    quad_val,
    sqrt_class,
    unit_part,
    vp_int,
    vp_rat,
)

F = Fraction


# ---------------------------------------------------------------- valuations


def test_vp_int_basic():
    assert vp_int(45, 3) == 2
    assert vp_int(45, 5) == 1
    assert vp_int(-45, 3) == 2
    assert vp_int(1, 7) == 0
    assert vp_int(0, 3) is TOP


def test_vp_rat_basic():
    assert vp_rat(F(7, 12), 2) == -2
    assert vp_rat(F(7, 12), 3) == -1
    assert vp_rat(F(7, 12), 7) == 1
    assert vp_rat(F(0), 3) is TOP
    assert vp_rat(18, 3) == 2


def test_unit_part():
    assert unit_part(F(7, 12), 2) == F(7, 3)
    assert unit_part(-18, 3) == -2
    with pytest.raises(InvalidArgument):
        unit_part(0, 3)


@pytest.mark.parametrize("p", [1, 0, -2])
def test_valuations_refuse_p_below_two(p):
    # p = 1 divides every integer, so no valuation loop on it would end
    for call in (
        lambda: vp_int(5, p),
        lambda: vp_int(0, p),
        lambda: vp_rat(3, p),
        lambda: unit_part(3, p),
        lambda: TruncatedPadic.from_rational(3, p, 8),
    ):
        with pytest.raises(InvalidArgument):
            call()


FLOAT_P_CALLS = {
    "vp_int": lambda: vp_int(9, 3.0),
    "is_prime": lambda: is_prime(3.0),
    "from_rational": lambda: TruncatedPadic.from_rational(3, 3.0, 8),
    "hensel_sqrt": lambda: hensel_sqrt(7, 3.0, 4),
    "sqrt_class": lambda: sqrt_class(2, 3.0),
    "from_rational_zero": lambda: TruncatedPadic.from_rational(0, 3.0, 8),
    "zero": lambda: TruncatedPadic.zero(3.0),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm-cache"])
@pytest.mark.parametrize("name", sorted(FLOAT_P_CALLS))
def test_entry_points_refuse_a_float_p(name, warm):
    # a warm cache holds the answers for the int p = 3, which 3.0 equals
    if warm:
        sqrt_class(2, 3)
        sqrt_class(7, 3)
    with pytest.raises(InvalidArgument):
        FLOAT_P_CALLS[name]()


def test_unit_part_reassembles():
    q = F(-280, 297)
    for p in (2, 3, 5, 7, 11):
        assert unit_part(q, p) * F(p) ** vp_rat(q, p) == q


def test_top_ordering():
    assert TOP > 10**9
    assert TOP > -(10**9)
    assert not (TOP < 5)
    assert TOP >= TOP
    assert TOP == TOP
    assert not (TOP > TOP)
    assert TOP > F(7, 2)


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert is_prime(10**9 + 7)
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(10**9 + 6)


def test_is_prime_is_exact_below_psi13():
    # psi_12 is a strong pseudoprime to every prime base up to 37
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1)
    for n in (3317044064679887385961981, 2**89 - 1):  # psi_13, a prime above it
        with pytest.raises(InvalidArgument):
            is_prime(n)


# ------------------------------------------------------- square classification


def test_sqrt_class_rational_square():
    c = sqrt_class(4, 3)
    assert c.kind is SqrtKind.RATIONAL_SQUARE
    assert c.root == 2
    assert sqrt_class(F(9, 4), 5).root == F(3, 2)
    assert sqrt_class(0, 7).root == 0


def test_sqrt_class_qp():
    assert sqrt_class(2, 5).kind is SqrtKind.QP_NONSQUARE
    assert sqrt_class(17, 2).kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    # Odd valuation can never be a square.
    assert sqrt_class(3, 3).kind is SqrtKind.QP_NONSQUARE
    # Exhaustive oracle mod 5: nonzero squares are {1, 4}.
    squares_mod_5 = {x * x % 5 for x in range(1, 5)}
    for u in (6, 7, 8, 9):
        expected = u % 5 in squares_mod_5
        assert is_qp_square(u, 5) == (
            expected or sqrt_class(u, 5).kind is SqrtKind.RATIONAL_SQUARE
        )


def test_sqrt_class_p2_unit_rule():
    # A 2-adic unit is a square iff it is 1 mod 8.
    assert sqrt_class(17, 2).kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    assert sqrt_class(33, 2).kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    for u in (3, 5, 7, 11, 13, 15):
        assert sqrt_class(u, 2).kind is SqrtKind.QP_NONSQUARE
    assert sqrt_class(-1, 2).kind is SqrtKind.QP_NONSQUARE


def test_sqrt_class_negative():
    # -1 is a square mod 5 (2**2 = 4 = -1) but not mod 3.
    assert sqrt_class(-1, 5).kind is SqrtKind.QP_SQUARE_NOT_RATIONAL
    assert sqrt_class(-1, 3).kind is SqrtKind.QP_NONSQUARE
    assert sqrt_class(-4, 3).kind is SqrtKind.QP_NONSQUARE


def test_sqrt_class_requires_prime():
    with pytest.raises(InvalidArgument):
        sqrt_class(5, 6)


# --------------------------------------------------------------- hensel_sqrt


def test_hensel_sqrt_17_mod_64():
    r = hensel_sqrt(17, 2, 6)
    assert r.p == 2 and r.val == 0 and r.digits == 6
    assert (r.unit * r.unit - 17) % 2**6 == 0
    assert r.unit % 4 == 1  # canonical branch


def test_hensel_sqrt_deep():
    for a, p, digits in [(17, 2, 40), (6, 5, 12), (44, 7, 9), (F(17, 9), 2, 16)]:
        r = hensel_sqrt(a, p, digits)
        u = unit_part(F(a), p)
        m = p**digits
        # unit squares to the unit part of a, to full retained precision
        lhs = r.unit * r.unit % m
        rhs = u.numerator * pow(u.denominator, -1, m) % m
        assert lhs == rhs
        assert 2 * r.val == vp_rat(F(a), p)


def test_hensel_sqrt_canonical_branch_odd():
    # sqrt(6) mod 5 is {1, 4}; the canonical branch reduces to 1 mod 5.
    r = hensel_sqrt(6, 5, 8)
    assert r.unit % 5 == 1
    assert (r.unit * r.unit - 6) % 5**8 == 0


def test_hensel_sqrt_scaled_valuation():
    r = hensel_sqrt(68, 2, 6)  # 68 = 4 * 17
    assert r.val == 1
    assert (r.unit * r.unit - 17) % 2**6 == 0


def test_hensel_sqrt_rejects_rational_square():
    with pytest.raises(InvalidArgument):
        hensel_sqrt(9, 5, 8)


def test_hensel_sqrt_rejects_nonsquare():
    with pytest.raises(InvalidArgument):
        hensel_sqrt(2, 5, 8)
    with pytest.raises(InvalidArgument):
        hensel_sqrt(3, 2, 8)


# ------------------------------------------------------- quadratic extensions


def t(a=2):
    return QuadExt(0, 1, a)


def test_quad_norm_example():
    x = QuadExt(1, 1, 2)  # 1 + sqrt(2)
    assert x.norm == -1


def test_quad_inv_example():
    assert 1 / t() == QuadExt(0, F(1, 2), 2)  # 1/sqrt(2) = sqrt(2)/2


def test_quad_val_examples():
    assert quad_val(t(), 2) == F(1, 2)
    assert quad_val(QuadExt(1, 1, 2), 5) == 0
    assert quad_val(QuadExt(0, 0, 2), 7) is TOP


def test_quad_val_rejects_square_base():
    # 17 is a square in Q_2, so Q_2(sqrt(17)) is not a field extension.
    with pytest.raises(InvalidExtension):
        quad_val(QuadExt(1, 1, 17), 2)


def test_quad_ext_rejects_rational_square_base():
    with pytest.raises(InvalidExtension):
        QuadExt(1, 1, 9)
    with pytest.raises(InvalidExtension):
        QuadExt(1, 1, 0)


def test_quad_mixed_extension():
    with pytest.raises(InvalidExtension):
        _ = t(2) + t(3)


@pytest.mark.parametrize("a", [0, 1, 4, F(9, 4)])
def test_quad_ext_constructor_checks_every_radicand(a):
    with pytest.raises(InvalidExtension):
        QuadExt(1, 1, a)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul, operator.truediv])
def test_quad_arithmetic_rejects_mixed_radicands(op):
    with pytest.raises(InvalidExtension):
        op(QuadExt(1, 1, 2), QuadExt(1, 1, 3))


def test_quad_arithmetic_results_stay_in_the_field():
    # results skip the constructor's checks, so they must already carry
    # Fraction coordinates and the operand's radicand
    x = QuadExt(1, 1, 2)
    for r in (x + 1, 3 - x, x * F(1, 2), 1 / x, -x, x.conj(), x * x * x):
        assert all(type(c) is Fraction for c in (r.u, r.v, r.a))
        assert r == QuadExt(r.u, r.v, 2)
    assert 3 - x == QuadExt(2, -1, 2)
    assert x * x * x == QuadExt(7, 5, 2)


def test_quad_field_arithmetic():
    x = QuadExt(3, -2, 5)
    y = QuadExt(F(1, 2), 7, 5)
    one = QuadExt(1, 0, 5)
    assert x * (1 / x) == one
    assert (x + y) - y == x
    assert (x / y) * y == x
    assert 2 * x == x + x
    assert (x * y).norm == x.norm * y.norm
    with pytest.raises(ZeroDivisor):
        1 / QuadExt(0, 0, 5)


def test_quad_division_by_exact_zero_raises_zero_divisor():
    x, zero = QuadExt(3, -2, 5), QuadExt(0, 0, 5)
    for call in (lambda: x / zero, lambda: 1 / zero, lambda: x / 0, lambda: x / F(0)):
        with pytest.raises(ZeroDivisor):
            call()


NONSQUARE_RADICANDS = (2, 3, 5, -1, -3, 6, F(1, 3), F(2, 9), 27, F(-5, 4))


def _coords(z):
    """(u, v) of a QuadExt, or of a rational scalar as u + 0*sqrt(a)."""
    return (z.u, z.v) if isinstance(z, QuadExt) else (F(z), F(0))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), a=st.sampled_from(NONSQUARE_RADICANDS))
def test_quad_arithmetic_matches_coordinate_formulas(data, a):
    # QuadExt, int and Fraction operands on either side, against the
    # formulas of Q(sqrt(a)) written out on coordinates
    rationals = st.fractions(min_value=-40, max_value=40, max_denominator=30)
    quad = st.builds(lambda u, v: QuadExt(u, v, a), rationals, rationals)
    operand = st.one_of(quad, st.integers(-20, 20), rationals)
    x, y = data.draw(operand), data.draw(operand)
    assume(isinstance(x, QuadExt) or isinstance(y, QuadExt))
    (u1, v1), (u2, v2) = _coords(x), _coords(y)

    def norm(u, v):
        return u * u - a * v * v

    n2 = norm(u2, v2)
    expected = {
        operator.add: (u1 + u2, v1 + v2),
        operator.sub: (u1 - u2, v1 - v2),
        operator.mul: (u1 * u2 + a * v1 * v2, u1 * v2 + v1 * u2),
    }
    if n2 != 0:
        expected[operator.truediv] = ((u1 * u2 - a * v1 * v2) / n2, (v1 * u2 - u1 * v2) / n2)
    else:
        with pytest.raises(ZeroDivisor):
            x / y
    for op, (u, v) in expected.items():
        r = op(x, y)
        assert type(r) is QuadExt and (r.u, r.v, r.a) == (u, v, a), op
        assert all(type(c) is Fraction for c in (r.u, r.v, r.a)), op
    if n2 != 0:
        assert _coords((x / y) * y) == (u1, v1)
    assert (x * y).norm == norm(u1, v1) * norm(u2, v2)


def test_quad_val_is_additive():
    x = QuadExt(3, -2, 5)
    y = QuadExt(F(1, 2), 7, 5)
    for p in (2, 3, 7):
        assert quad_val(x * y, p) == quad_val(x, p) + quad_val(y, p)


def test_quad_val_ramified():
    # v(sqrt(5)) = 1/2 in Q_5(sqrt(5)); powers step by halves.
    s = t(5)
    assert quad_val(s, 5) == F(1, 2)
    assert quad_val(s * s, 5) == 1
    assert quad_val(QuadExt(5, 5, 5), 5) == 1  # 5*(1 + sqrt 5): unit factor


# ----------------------------------------------------------- truncated p-adics


def _matches(x: TruncatedPadic, q: Fraction, p: int) -> bool:
    """Whether the exact q is one of the numbers x claims: 0 for an exact
    zero; 0 or a number of valuation >= val for O(p**val); and for a
    certified x, a number of valuation exactly val that agrees with x
    modulo p**(val + digits)."""
    if x.exact_zero:
        return q == 0
    if x.digits == 0:
        return q == 0 or x.val <= vp_rat(q, p)  # honest lower bound
    if q == 0 or x.val != vp_rat(q, p):
        return False
    u = unit_part(q, p)
    m = p**x.digits
    return (x.unit - u.numerator * pow(u.denominator, -1, m)) % m == 0


def test_from_rational_shapes():
    x = TruncatedPadic.from_rational(F(7, 12), 2, 8)
    assert x.val == -2 and x.digits == 8
    assert x.unit * 3 % 2**8 == 7 % 2**8
    assert x.valuation() == -2
    z = TruncatedPadic.from_rational(0, 3, 10)
    assert z.exact_zero and z.valuation() is TOP


@settings(max_examples=300, deadline=None)
@given(
    q=st.one_of(
        st.fractions(min_value=-(10**9), max_value=10**9, max_denominator=10**9),
        st.integers(-(10**12), 10**12),
    ),
    p=st.sampled_from([2, 3, 5, 7, 11]),
    digits=st.integers(1, 80),
)
@example(q=F(-7, 12), p=2, digits=1)
@example(q=F(-48, 5), p=2, digits=1)
@example(q=-3**7, p=3, digits=1)
def test_from_rational_is_the_validated_lift(q, p, digits):
    # the direct lift skips the checked constructor; it builds the same
    # number as the constructor on vp(q) and the unit part to p**digits
    if q == 0:
        assert TruncatedPadic.from_rational(q, p, digits) == TruncatedPadic.zero(p)
        return
    u, m = unit_part(q, p), p**digits
    want = TruncatedPadic(p, vp_rat(q, p), u.numerator * pow(u.denominator, -1, m) % m, digits)
    assert TruncatedPadic.from_rational(q, p, digits) == want


@pytest.mark.parametrize("p, digits", [(3, 0), (3, -1), (1, 8), (0, 8), (-2, 8)])
@pytest.mark.parametrize("q", [F(-7, 12), 0])
def test_from_rational_rejects_no_digits_and_p_below_two(q, p, digits):
    with pytest.raises(InvalidArgument):
        TruncatedPadic.from_rational(q, p, digits)


def test_add_with_carry():
    x = TruncatedPadic.from_rational(5, 3, 6)
    y = TruncatedPadic.from_rational(4, 3, 6)
    s = x + y
    assert s.valuation() == 2  # 9 = 3**2
    assert _matches(s, F(9), 3)
    assert s.digits == 4  # two digits were spent on the carry


def test_cancellation_is_honest():
    x = TruncatedPadic.from_rational(1, 3, 6)
    s = x - x
    assert s.digits == 0 and s.val == 6
    with pytest.raises(PrecisionExhausted):
        s.valuation()


def test_unequal_valuation_add():
    x = TruncatedPadic.from_rational(F(1, 3), 3, 5)
    y = TruncatedPadic.from_rational(9, 3, 5)
    s = x + y
    assert s.valuation() == -1
    assert _matches(s, F(1, 3) + 9, 3)


def test_division_rules():
    x = TruncatedPadic.from_rational(10, 5, 6)
    z = TruncatedPadic.zero(5)
    u = TruncatedPadic(5, val=3)
    assert (z / x).exact_zero
    with pytest.raises(ZeroDivisor):
        x / z
    with pytest.raises(PrecisionExhausted):
        x / u
    assert (u / x).val == 3 - x.val and (u / x).digits == 0
    assert (x / x).valuation() == 0


def test_uncertified_propagation():
    u = TruncatedPadic(3, val=4)
    x = TruncatedPadic.from_rational(2, 3, 8)
    assert (u + x).valuation() == 0  # x dominates: val 0 < floor 4
    assert (u + x).digits == 4
    assert (u * x).val == 4 and (u * x).digits == 0
    y = TruncatedPadic.from_rational(3**5, 3, 8)
    assert (u + y).digits == 0 and (u + y).val == 4


@st.composite
def _units_mod_pk(draw, p=None):
    """(p, k, u) with 0 < u < p**k and u prime to p; p is drawn unless
    given."""
    if p is None:
        p = draw(st.sampled_from([2, 3, 5, 7, 11, 10007]))
    k = draw(st.integers(1, 2000))
    u = draw(st.integers(0, p ** (k - 1) - 1)) * p + draw(st.integers(1, p - 1))
    return p, k, u


@settings(max_examples=200, deadline=None)
@given(case=_units_mod_pk())
@example(case=(2, 1, 1))
@example(case=(3, 1536, 3**1536 - 1))
@example(case=(5, 1023, 2))
@example(case=(10007, 2000, 10007**2000 - 2))
def test_inv_unit_matches_pow(case):
    p, k, u = case
    assert _inv_unit(u, p, k) == pow(u, -1, p**k)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_division_at_1536_digits_matches_pow_inverse(p):
    rng = random.Random(p)
    m = p**1536
    for _ in range(10):
        x, y = (
            TruncatedPadic(p, rng.randint(-5, 5), rng.randrange(1, m // p) * p + 1, 1536)
            for _ in range(2)
        )
        q = x / y
        assert (q.val, q.digits) == (x.val - y.val, 1536)
        assert q.unit == x.unit * pow(y.unit, -1, m) % m


@st.composite
def _quotients(draw):
    """(p, x, y) with certified operands of independent digit counts."""
    p, k, u = draw(_units_mod_pk())
    _, j, w = draw(_units_mod_pk(p))
    val = st.integers(-3, 3)
    return p, TruncatedPadic(p, draw(val), u, k), TruncatedPadic(p, draw(val), w, j)


@settings(max_examples=200, deadline=None)
@given(case=_quotients())
@example(case=(2, TruncatedPadic(2, 0, 1, 1), TruncatedPadic(2, 0, 1, 1)))
@example(case=(3, TruncatedPadic(3, 1, 2, 1), TruncatedPadic(3, 0, 5, 2)))
@example(case=(5, TruncatedPadic(5, 0, 7, 2), TruncatedPadic(5, -1, 3, 2)))
@example(case=(7, TruncatedPadic(7, 0, 300, 3), TruncatedPadic(7, 2, 5, 3)))
@example(case=(2, TruncatedPadic(2, 0, 2**7 - 1, 7), TruncatedPadic(2, 0, 3, 9)))
@example(case=(5, TruncatedPadic(5, 0, 5**1535 - 1, 1535), TruncatedPadic(5, 0, 2, 1536)))
@example(case=(10007, TruncatedPadic(10007, 0, 2, 1999), TruncatedPadic(10007, 0, 3, 999)))
def test_division_matches_pow_inverse(case):
    p, x, y = case
    q = x / y
    k = min(x.digits, y.digits)
    assert (q.val, q.digits) == (x.val - y.val, k)
    assert q.unit == x.unit * pow(y.unit, -1, p**k) % p**k


def test_range_check_holds_at_1536_digits():
    m = 5**1536
    assert TruncatedPadic(5, 0, m - 1, 1536).unit == m - 1
    for p, unit in ((5, m), (5, m + 2), (5, 10), (5, 5**1535), (3, m - 1)):
        with pytest.raises(InvalidArgument):
            TruncatedPadic(p, 0, unit, 1536)


def test_add_beyond_the_retained_digits_builds_no_power():
    # d = 1536 - (-1) >= 1536 digits: the higher operand adds nothing
    lo = TruncatedPadic(5, -1, 5**1536 - 2, 1536)
    hi = TruncatedPadic(5, 1536, 3, 1536)
    _pk.cache_clear()
    assert lo + hi == lo and hi + lo == lo
    assert _pk.cache_info().currsize == 0


@st.composite
def _addends(draw):
    """(p, x, y) with val(y) - val(x) within three of x's digit count."""
    p, k, u = draw(_units_mod_pk())
    _, j, w = draw(_units_mod_pk(p))
    val = draw(st.integers(-3, 3))
    d = k + draw(st.integers(-3, 3))
    return p, TruncatedPadic(p, val, u, k), TruncatedPadic(p, val + max(d, 1), w, j)


@settings(max_examples=200, deadline=None)
@given(case=_addends())
@example(case=(2, TruncatedPadic(2, 0, 1, 1), TruncatedPadic(2, 1, 1, 1)))
@example(case=(3, TruncatedPadic(3, 0, 2, 2), TruncatedPadic(3, 1, 5, 2)))
@example(case=(5, TruncatedPadic(5, -2, 7, 3), TruncatedPadic(5, 1, 3, 1)))
@example(case=(7, TruncatedPadic(7, 0, 300, 3), TruncatedPadic(7, 4, 5, 3)))
def test_unequal_valuation_sum_matches_the_shifted_formula(case):
    p, x, y = case
    d = y.val - x.val
    k = min(x.digits, y.digits + d)
    expected = TruncatedPadic(p, x.val, (x.unit + y.unit * p**d) % p**k, k)
    assert x + y == expected and y + x == expected


def test_mixed_prime_rejected():
    x = TruncatedPadic.from_rational(1, 3, 4)
    y = TruncatedPadic.from_rational(1, 5, 4)
    with pytest.raises(InvalidArgument):
        _ = x + y


def test_truncate():
    x = TruncatedPadic.from_rational(F(7, 12), 2, 24)
    y = x.truncate(8)
    assert y.digits == 8 and y.val == x.val
    assert y.unit == x.unit % 2**8


_rats = st.fractions(
    min_value=-50, max_value=50, max_denominator=60
)


@settings(max_examples=150, deadline=None)
@given(q1=_rats, q2=_rats, p=st.sampled_from([2, 3, 5]))
def test_truncated_arithmetic_matches_fractions(q1, q2, p):
    digits = 24
    x = TruncatedPadic.from_rational(q1, p, digits)
    y = TruncatedPadic.from_rational(q2, p, digits)
    assert _matches(x + y, q1 + q2, p)
    assert _matches(x - y, q1 - q2, p)
    assert _matches(x * y, q1 * q2, p)
    if q2 != 0:
        assert _matches(x / y, q1 / q2, p)
    assume(q1 != 0)
    assert _matches(-x, -q1, p)
    assert x.valuation() == vp_rat(q1, p)


@st.composite
def _shaped(draw, p, near=None):
    """(t, y): a TruncatedPadic t of one of the three shapes and an exact
    rational y that it stands for.  A certified t lifts y to 1-64 digits,
    and y is drawn near ``near`` when given, so sums and differences with
    it cancel digits or every digit; an uncertified t is O(p**floor), y a
    number of valuation >= floor or 0; an exact zero stands for 0."""
    units = st.integers(1, 10**6).filter(lambda m: m % p)
    shape = draw(st.sampled_from(["certified", "uncertified", "exact zero"]))
    if shape == "exact zero":
        return TruncatedPadic.zero(p), F(0)
    if shape == "uncertified":
        floor = draw(st.integers(-6, 6))
        y = F(draw(st.integers(-(10**6), 10**6)), draw(units))
        return TruncatedPadic(p, val=floor), y * F(p) ** (floor + draw(st.integers(0, 8)))
    y = F(draw(units) * draw(st.sampled_from([1, -1])), draw(units))
    if near is not None and draw(st.booleans()):
        y = near + y * F(p) ** draw(st.integers(-3, 70))
    else:
        y *= F(p) ** draw(st.integers(-6, 6))
    assume(y != 0)
    return TruncatedPadic.from_rational(y, p, draw(st.integers(1, 64))), y


@settings(max_examples=400, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3, 5, 7, 11]))
def test_operators_stand_for_the_exact_result(data, p):
    x, qx = data.draw(_shaped(p))
    y, qy = data.draw(_shaped(p, near=qx))
    assert _matches(x, qx, p) and _matches(y, qy, p)
    for op in (operator.add, operator.sub, operator.mul):
        assert _matches(op(x, y), op(qx, qy), p)
        assert _matches(op(y, x), op(qy, qx), p)
    for (n, qn), (d, qd) in (((x, qx), (y, qy)), ((y, qy), (x, qx))):
        if d.exact_zero:
            with pytest.raises(ZeroDivisor):
                n / d
        elif d.digits == 0:
            with pytest.raises(PrecisionExhausted):
                n / d
        else:
            assert _matches(n / d, qn / qd, p)
