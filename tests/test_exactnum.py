"""Tests for the exact-arithmetic layer: valuations, square roots,
quadratic extensions, and truncated p-adics."""

import random
from fractions import Fraction
from functools import reduce

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


def test_top_arithmetic():
    assert TOP + 5 is TOP
    assert 5 + TOP is TOP
    assert 2 * TOP is TOP
    assert -TOP is TOP
    assert TOP - 3 is TOP


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
    assert x.norm() == -1


def test_quad_inv_example():
    assert t().inverse() == QuadExt(0, F(1, 2), 2)  # 1/sqrt(2) = sqrt(2)/2


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


def test_quad_field_arithmetic():
    x = QuadExt(3, -2, 5)
    y = QuadExt(F(1, 2), 7, 5)
    one = QuadExt(1, 0, 5)
    assert x * x.inverse() == one
    assert (x + y) - y == x
    assert (x / y) * y == x
    assert x**3 == x * x * x
    assert 2 * x == x + x
    assert 1 / x == x.inverse()
    assert (x * y).norm() == x.norm() * y.norm()
    with pytest.raises(ZeroDivisor):
        QuadExt(0, 0, 5).inverse()


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
    """Certified truncated value agrees with the exact rational."""
    if q == 0:
        return x.exact_zero or x.digits == 0
    if x.digits == 0:
        return x.val <= vp_rat(q, p)  # honest lower bound
    if x.val != vp_rat(q, p):
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
    u = TruncatedPadic.unknown(5, 3)
    assert (z / x).exact_zero
    with pytest.raises(ZeroDivisor):
        x / z
    with pytest.raises(PrecisionExhausted):
        x / u
    assert (u / x).val == 3 - x.val and (u / x).digits == 0
    assert (x / x).valuation() == 0


def test_uncertified_propagation():
    u = TruncatedPadic.unknown(3, 4)
    x = TruncatedPadic.from_rational(2, 3, 8)
    assert (u + x).valuation() == 0  # x dominates: val 0 < floor 4
    assert (u + x).digits == 4
    assert (u * x).val == 4 and (u * x).digits == 0
    y = TruncatedPadic.from_rational(3**5, 3, 8)
    assert (u + y).digits == 0 and (u + y).val == 4


def test_pow_matches_exact():
    x = TruncatedPadic.from_rational(F(2, 5), 3, 12)
    assert _matches(x**3, F(8, 125), 3)
    assert (x**0).valuation() == 0


@pytest.mark.parametrize(
    "x",
    [
        TruncatedPadic.from_rational(F(2, 5), 3, 12),
        TruncatedPadic.from_rational(F(-7, 4), 2, 40),
        TruncatedPadic.unknown(5, 3),
        TruncatedPadic.zero(3),
    ],
    ids=["certified-p3", "certified-p2", "uncertified", "exact-zero"],
)
def test_pow_equals_repeated_products(x, monkeypatch):
    one = TruncatedPadic.from_rational(1, x.p, max(x.digits, 1))
    expected = [reduce(lambda acc, _: acc * x, range(n), one) for n in range(10)]
    mul = TruncatedPadic.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedPadic, "__mul__", counted)
    for n in range(10):
        calls.clear()
        assert x**n == expected[n]
        # square-and-multiply with no squaring after the last bit
        assert len(calls) == max(n.bit_length() + bin(n).count("1") - 2, 0)


@st.composite
def _units_mod_pk(draw):
    """(p, k, u) with 0 < u < p**k and u prime to p."""
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
