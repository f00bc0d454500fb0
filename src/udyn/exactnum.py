"""Exact p-adic arithmetic primitives.

Valuations over the rationals, square classification in Q_p, Hensel lifting
of square roots, quadratic extensions Q(sqrt(a)), and two capped-relative
truncated types whose valuations are certified exact: p-adic numbers
(``TruncatedPadic``) and points u + v*sqrt(a) of Q_p(sqrt(a)) whose
coordinates are such numbers (``TruncatedQuad``).

Everything here is exact: integers and :class:`fractions.Fraction`
throughout, no floating point.  ``TruncatedPadic`` models an element of Q_p
by a unit times a power of p, known to a fixed number of significant p-adic
digits; it tracks what is certified and refuses to answer questions the
retained digits cannot settle.  Its moduli p**k are computed once per
(p, k) and cached.  The digit rules of a lift, a sum and a quotient are
integer kernels on (val, unit, digits), ``_lift_units``, ``_add_units`` and
``_div_units``, shared by the operators and by ``mapengine``'s steps of f
on points of Q_p.  They serve every shape: an input of digits 0 is O(p**val),
which p**0 = 1 carries through.
Division Newton-lifts (Hensel-lifts) the inverse of the divisor's unit from
modulo p to modulo p**ceil(k/2) only, then corrects the half-precision
quotient once to k digits; the square-root lifts use the same Newton
iteration (X. Caruso, *Computations with p-adic numbers*,
arXiv:1701.06794).

The field operations of Q_p(sqrt(a)) are written once, in ``_QuadField``,
for exact (``QuadExt``) and truncated (``TruncatedQuad``) coordinates;
both divide through the conjugate and the norm.  ``TruncatedQuad`` takes
its valuation as half that of its truncated norm, so its answers are
certified like those of ``TruncatedPadic``, and unlike exact points, whose
coordinates roughly triple in size per step of the map, it keeps a fixed
operand size.
"""

from __future__ import annotations

import enum
import functools
from fractions import Fraction
from math import isqrt
from typing import Optional, Tuple, Union

from ._value import Value, _set, unfrozen

Rational = Union[int, Fraction]

__all__ = [
    "TOP",
    "ExactError",
    "InvalidArgument",
    "ZeroDivisor",
    "InvalidExtension",
    "PrecisionExhausted",
    "is_prime",
    "vp_int",
    "vp_rat",
    "unit_part",
    "SqrtKind",
    "SqrtClass",
    "sqrt_class",
    "is_qp_square",
    "hensel_sqrt",
    "QuadExt",
    "quad_val",
    "TruncatedPadic",
    "TruncatedQuad",
]


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class InvalidArgument(ExactError):
    """An argument is outside the domain of the requested operation."""


class ZeroDivisor(ExactError):
    """Division by an exact zero."""


class InvalidExtension(ExactError):
    """A quadratic-extension operation was asked of an unsuitable base."""


class PrecisionExhausted(ExactError):
    """The retained digits cannot certify the requested answer."""


class _TopValuation:
    """Valuation of zero.

    Compares strictly greater than every finite (int or Fraction) valuation,
    matching the usual convention for v(0).  It takes no arithmetic: every
    caller tests ``v is TOP`` before it computes with a valuation.
    """

    _instance: Optional["_TopValuation"] = None

    def __new__(cls) -> "_TopValuation":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x70FA17

    def _known(self, other: object) -> bool:
        return isinstance(other, (int, Fraction, _TopValuation))

    def __lt__(self, other: object):
        if not self._known(other):
            return NotImplemented
        return False

    def __le__(self, other: object):
        if not self._known(other):
            return NotImplemented
        return other is self

    def __gt__(self, other: object):
        if not self._known(other):
            return NotImplemented
        return other is not self

    def __ge__(self, other: object):
        if not self._known(other):
            return NotImplemented
        return True


#: The valuation of zero; larger than every finite valuation.
TOP = _TopValuation()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 (Sorenson-Webster 2017): the least strong pseudoprime to all of
# _MR_BASES, so the test below is exact for every smaller n
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over the first 13 prime
    bases: exact for n < psi_13 = 3317044064679887385961981, and an
    ``InvalidArgument`` at or above it, where it could be wrong, and for
    an n that is not an int."""
    if not isinstance(n, int):
        raise InvalidArgument(f"primality needs an int, got {n!r}")
    if n < 2:
        return False
    if n >= _MR_LIMIT:
        raise InvalidArgument(f"primality of {n} >= {_MR_LIMIT} is not certified")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_p(p: int) -> None:
    """Refuse a p that is not an int of at least 2: below that a valuation
    is undefined (p = 1 divides every n)."""
    if not isinstance(p, int):
        raise InvalidArgument(f"valuations need an int p, got {p!r}")
    if p < 2:
        raise InvalidArgument(f"valuations need p >= 2, got {p}")


def vp_int(n: int, p: int):
    """p-adic valuation of an integer; ``TOP`` for 0.  p must be an int of
    at least 2."""
    _require_p(p)
    if n == 0:
        return TOP
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_rat(q: Rational, p: int):
    """p-adic valuation of a rational; ``TOP`` for 0."""
    q = Fraction(q)
    if q == 0:
        return TOP
    return vp_int(q.numerator, p) - vp_int(q.denominator, p)


def unit_part(q: Rational, p: int) -> Fraction:
    """q / p**vp(q): the p-free part of a nonzero rational."""
    q = Fraction(q)
    if q == 0:
        raise InvalidArgument("0 has no unit part")
    return q / Fraction(p) ** vp_rat(q, p)


def _unit_mod(u: Fraction, modulus: int) -> int:
    """Residue of a p-free rational modulo a power of p."""
    return u.numerator * pow(u.denominator, -1, modulus) % modulus


@functools.lru_cache(maxsize=1024)
def _pk(p: int, k: int) -> int:
    """p**k, computed once per (p, k) while it stays in the cache."""
    return p**k


def _inv_unit(u: int, p: int, k: int) -> int:
    """Inverse of an integer prime to p, modulo p**k.

    Newton's iteration y <- y*(2 - u*y) squares the error 1 - u*y, so it
    doubles the correct digits of the inverse mod p at each step.  The
    precisions are k, ceil(k/2), ceil(k/4), ... run from the bottom up, so
    the last step lands on k exactly and the earlier ones work on short
    operands.  u is reduced down the ladder once, rung by rung, u*y is
    reduced mod p**j before the outer product, and every modulus comes from
    the per-(p, k) cache.  The result equals ``pow(u, -1, p**k)`` at a
    fraction of the extended-gcd cost when k is large.
    """
    ladder = []
    while k > 1:
        u %= _pk(p, k)
        ladder.append((k, u))
        k = (k + 1) // 2
    y = pow(u % p, -1, p)
    for j, uj in reversed(ladder):
        m = _pk(p, j)
        y = y * (2 - uj * y % m) % m
    return y


def _add_units(p: int, v1: int, u1: int, k1: int, v2: int, u2: int, k2: int):
    """Sum of two numbers p**v*u + O(p**(v+k)), as (val, unit, digits);
    digits 0 is the uncertified O(p**val), in the inputs as in the result.

    Equal valuations may cancel: the sum keeps the digits that survive, or
    drops to O(p**(v+k)) when none do.  Otherwise the sum has the lower
    valuation and at most the digits of that operand.  An uncertified
    input (u = k = 0) needs no rule of its own: p**0 = 1.
    """
    if v1 == v2:
        k = min(k1, k2)
        s = (u1 + u2) % _pk(p, k)
        if s == 0:
            # Cancellation beyond the retained digits.
            return v1 + k, 0, 0
        c = vp_int(s, p)
        if c == 0:
            return v1, s, k
        return v1 + c, s // _pk(p, c), k - c
    if v1 > v2:
        v1, u1, k1, v2, u2, k2 = v2, u2, k2, v1, u1, k1
    d = v2 - v1
    if d >= k1:
        return v1, u1, k1  # the higher term is 0 mod p**(v1 + k1)
    k = min(k1, k2 + d)
    return v1, (u1 + u2 * _pk(p, d)) % _pk(p, k), k


def _lift_units(q: Rational, p: int, k: int) -> Tuple[int, int, int]:
    """(val, unit, digits) of a nonzero rational q to k digits: p stripped
    from its numerator and denominator, then one inverse modulo p**k."""
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    m = _pk(p, k)
    return v, n * pow(d, -1, m) % m, k


def _div_units(p: int, a: int, u: int, k: int) -> int:
    """a/u mod p**k for integers a, u prime to p.

    u is inverted modulo p**h only, h = ceil(k/2), by Newton lifting
    (:func:`_inv_unit`); q0 = a*y mod p**h, and one correction step,
    q = q0 + p**h * (y*((a - u*q0)/p**h) mod p**(k-h)), yields a/u mod p**k
    exactly: u*y = 1 mod p**h covers the k - h <= h digits of the
    correction.
    """
    h = (k + 1) // 2
    ph, pkh = _pk(p, h), _pk(p, k - h)
    y = _inv_unit(u, p, h)
    q0 = a % ph * y % ph
    e = (a - u * q0) // ph % pkh
    return q0 + ph * (y * e % pkh)


class SqrtKind(enum.Enum):
    RATIONAL_SQUARE = "rational-square"
    QP_SQUARE_NOT_RATIONAL = "qp-square-not-rational"
    QP_NONSQUARE = "qp-nonsquare"


class SqrtClass(Value):
    """Square classification of a rational in Q_p.

    ``root`` is the exact nonnegative rational root when the number is a
    perfect rational square, and None otherwise.
    """

    __slots__ = ("kind", "root")

    def __init__(self, kind: SqrtKind, root: Optional[Fraction] = None) -> None:
        _set(self, "kind", kind)
        _set(self, "root", root)


def _rational_square_root(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


@functools.lru_cache(maxsize=16, typed=True)
def sqrt_class(a: Rational, p: int) -> SqrtClass:
    """Classify a rational as a square of Q, a square of Q_p only, or neither.

    The Q_p test is the classical one: even valuation plus a square unit
    (Euler's criterion for odd p; residue 1 mod 8 for p = 2).  The answer
    is kept per (a, p) while it stays in the cache, so the radicand check
    of every :func:`quad_val` on one field runs once.  A computation works
    in one field at a time, so the cache is small: at 1,024 entries it
    raised the peak memory of a 1,500-set classify sweep by 4 MB.  The
    cache is typed, so p = 3.0 misses the entry of p = 3 and is rejected.
    """
    if not is_prime(p):
        raise InvalidArgument(f"p must be prime, got {p}")
    a = Fraction(a)
    if a == 0:
        return SqrtClass(SqrtKind.RATIONAL_SQUARE, Fraction(0))
    root = _rational_square_root(a)
    if root is not None:
        return SqrtClass(SqrtKind.RATIONAL_SQUARE, root)
    v = vp_rat(a, p)
    if v % 2 != 0:
        return SqrtClass(SqrtKind.QP_NONSQUARE)
    u = unit_part(a, p)
    if p == 2:
        square = _unit_mod(u, 8) == 1
    else:
        square = pow(_unit_mod(u, p), (p - 1) // 2, p) == 1
    if square:
        return SqrtClass(SqrtKind.QP_SQUARE_NOT_RATIONAL)
    return SqrtClass(SqrtKind.QP_NONSQUARE)


def is_qp_square(a: Rational, p: int) -> bool:
    """True when a is a square in Q_p (rational squares included)."""
    return sqrt_class(a, p).kind is not SqrtKind.QP_NONSQUARE


def _sqrt_mod_p(u: int, p: int) -> int:
    """Tonelli-Shanks square root of a quadratic residue modulo an odd prime."""
    u %= p
    if p % 4 == 3:
        return pow(u, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(u, q, p), pow(u, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _sqrt_unit_odd(u: Fraction, p: int, digits: int) -> int:
    """Newton-lift the square root of a unit modulo p**digits (p odd).

    The branch is canonical: the returned root reduces mod p to
    min(s, p - s) where s is either mod-p root.
    """
    s = _sqrt_mod_p(_unit_mod(u, p), p)
    canon = min(s, p - s)
    r, k = canon, 1
    while k < digits:
        k = min(2 * k, digits)
        m = _pk(p, k)
        uk = _unit_mod(u, m)
        r = (r + uk * _inv_unit(r, p, k)) * _inv_unit(2, p, k) % m
    if r % p != canon:
        r = _pk(p, digits) - r
    return r


def _sqrt_unit_2(u: Fraction, digits: int) -> int:
    """Digit-lift the square root of a unit = 1 mod 8 in Z_2.

    Maintains r*r = u (mod 2**m); bumping r by 2**(m-1) flips the obstructing
    digit.  The root itself is then certified mod 2**(m-1), so the lift runs
    one step past the requested precision.  Branch canonicalized to
    r = 1 (mod 4).
    """
    target = max(digits + 1, 3)
    big = 1 << (target + 2)
    uu = _unit_mod(u, big)
    r, m = 1, 3
    while m < target:
        if (r * r - uu) % (1 << (m + 1)) != 0:
            r += 1 << (m - 1)
        m += 1
    r %= 1 << digits
    if digits >= 2 and r % 4 == 3:
        r = (1 << digits) - r
    return r


def hensel_sqrt(a: Rational, p: int, digits: int) -> "TruncatedPadic":
    """Certified truncated square root of a rational that is a Q_p square
    but not a rational square.

    Rational squares have an exact root (use :func:`sqrt_class`), and
    nonsquares have none; both are rejected with :class:`InvalidArgument`.
    The result carries ``digits`` certified p-adic digits: its unit squares
    to the unit part of ``a`` modulo p**digits.
    """
    if digits < 1:
        raise InvalidArgument("digits must be >= 1")
    cls = sqrt_class(a, p)
    if cls.kind is SqrtKind.RATIONAL_SQUARE:
        raise InvalidArgument(
            f"{a} is a perfect rational square; take its exact root instead"
        )
    if cls.kind is SqrtKind.QP_NONSQUARE:
        raise InvalidArgument(f"{a} is not a square in Q_{p}")
    a = Fraction(a)
    v = vp_rat(a, p)
    u = unit_part(a, p)
    if p == 2:
        unit = _sqrt_unit_2(u, digits)
    else:
        unit = _sqrt_unit_odd(u, p, digits)
    return TruncatedPadic(p=p, val=v // 2, unit=unit, digits=digits)


class _QuadField(Value):
    """Field operations on u + v*sqrt(a), for exact and truncated coordinates.

    A subclass supplies ``_split`` ((u, v) of a point of its field, (s,
    None) for a base-field scalar s, None for any other operand), the
    unchecked constructor ``_new(u, v)``, the radicand ``a`` in the base
    field and ``norm`` = u**2 - a*v**2.  A product is (u*u' + a*(v*v'),
    u*v' + v*u'), a scalar acts on each coordinate, and x/y is
    x*conj(y)/norm(y), a division by a base-field scalar.
    """

    __slots__ = ()

    def __add__(self, other: object):
        o = self._split(other)
        if o is None:
            return NotImplemented
        u, v = o
        return self._new(self.u + u, self.v if v is None else self.v + v)

    __radd__ = __add__

    def __neg__(self):
        return self._new(-self.u, -self.v)

    def __sub__(self, other: object):
        o = self._split(other)
        if o is None:
            return NotImplemented
        u, v = o
        return self._new(self.u - u, self.v if v is None else self.v - v)

    def __rsub__(self, other: object):
        if self._split(other) is None:
            return NotImplemented
        return -self + other

    def __mul__(self, other: object):
        o = self._split(other)
        if o is None:
            return NotImplemented
        u, v = o
        if v is None:
            return self._new(self.u * u, self.v * u)
        return self._new(self.u * u + self.a * (self.v * v), self.u * v + self.v * u)

    __rmul__ = __mul__

    def conj(self):
        return self._new(self.u, -self.v)

    def __truediv__(self, other: object):
        """Quotient through the conjugate: x/y = x*conj(y)/norm(y)."""
        o = self._split(other)
        if o is None:
            return NotImplemented
        u, v = o
        if v is not None:
            return self * other.conj() / other.norm
        try:
            return self._new(self.u / u, self.v / u)
        except ZeroDivisionError:
            raise ZeroDivisor("division by exact zero") from None

    def __rtruediv__(self, other: object):
        if self._split(other) is None:
            return NotImplemented
        return self.conj() * other / self.norm


class QuadExt(_QuadField):
    """u + v*sqrt(a) with exact rational coordinates.

    ``a`` must not be a perfect rational square (and must be nonzero), so
    Q(sqrt(a)) is a genuine quadratic field and the norm u**2 - a*v**2
    vanishes only at zero.  The constructor checks that once per field:
    arithmetic results are built by :meth:`_new`, which reuses the
    operand's already-checked radicand.  Rational scalars (int or
    ``Fraction``) mix in directly.
    """

    __slots__ = ("u", "v", "a")

    def __init__(self, u: Rational, v: Rational, a: Rational) -> None:
        u, v, a = Fraction(u), Fraction(v), Fraction(a)
        if a == 0 or _rational_square_root(a) is not None:
            raise InvalidExtension(f"sqrt({a}) is rational; the extension is degenerate")
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "a", a)

    def _new(self, u: Fraction, v: Fraction) -> "QuadExt":
        """u + v*sqrt(a) in this element's field; u and v must already be
        Fractions.  Skips the radicand check and the coercions."""
        out = object.__new__(_QuadExtBlank)
        out.u = u
        out.v = v
        out.a = self.a
        out.__class__ = QuadExt
        return out

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def _split(self, other: object):
        if isinstance(other, QuadExt):
            if other.a != self.a:
                raise InvalidExtension("operands live in different extensions")
            return other.u, other.v
        if isinstance(other, (int, Fraction)):
            return other, None
        return None

    # The exact product stays in this class's own namespace, as
    # perfbench/tracer.py wraps ``vars(QuadExt)["__mul__"]`` and its aliases.
    __mul__ = __rmul__ = _QuadField.__mul__

    @property
    def norm(self) -> Fraction:
        return self.u * self.u - self.a * (self.v * self.v)

    def __str__(self) -> str:
        return f"({self.u} + {self.v}*sqrt({self.a}))"


_QuadExtBlank = unfrozen(QuadExt)


def quad_val(x: QuadExt, p: int):
    """Valuation of x in Q_p(sqrt(a)), normalized to extend vp on Q_p.

    Values live in (1/2)Z and are returned as Fractions; zero maps to
    ``TOP``.  Only meaningful when a is NOT a square of Q_p — otherwise the
    "extension" collapses and the norm form has nontrivial zeros.
    """
    if not is_prime(p):
        raise InvalidArgument(f"p must be prime, got {p}")
    if x.is_zero:
        return TOP
    _require_extension(x.a, p)
    return Fraction(vp_rat(x.norm, p), 2)


def _require_extension(a: Fraction, p: int) -> None:
    """Refuse a radicand that is a square of Q_p: there the norm form has
    nontrivial zeros and v(norm)/2 is not a valuation."""
    if is_qp_square(a, p):
        raise InvalidExtension(
            f"sqrt({a}) already lies in Q_{p}; valuation via the norm is invalid"
        )


class TruncatedPadic(Value):
    """Capped-relative-precision p-adic number with certified valuation.

    Three shapes:

    * exact zero — ``exact_zero=True`` (val, unit, digits all 0);
    * certified — ``digits >= 1``, ``0 < unit < p**digits``, p does not
      divide unit; the value is ``p**val * unit + O(p**(val+digits))`` and
      the valuation is exactly ``val``;
    * uncertified — ``digits == 0``, ``unit == 0``; all that is known is
      that the valuation is at least ``val`` (read it as O(p**val)).

    Arithmetic propagates certification honestly: adding numbers of equal
    valuation may cancel, in which case the result drops to the uncertified
    shape rather than inventing digits.
    """

    __slots__ = ("p", "val", "unit", "digits", "exact_zero")

    def __init__(
        self, p: int, val: int = 0, unit: int = 0, digits: int = 0, exact_zero: bool = False
    ) -> None:
        if exact_zero:
            if val != 0 or unit != 0 or digits != 0:
                raise InvalidArgument("exact zero must have val=unit=digits=0")
        elif digits == 0:
            if unit != 0:
                raise InvalidArgument("uncertified numbers carry no unit")
        else:
            if digits < 0:
                raise InvalidArgument("digits must be >= 0")
            if not 0 < unit < _pk(p, digits):
                raise InvalidArgument("unit must lie in (0, p**digits)")
            if unit % p == 0:
                raise InvalidArgument("unit must be coprime to p")
        _set(self, "p", p)
        _set(self, "val", val)
        _set(self, "unit", unit)
        _set(self, "digits", digits)
        _set(self, "exact_zero", exact_zero)

    @classmethod
    def _of(cls, p: int, val: int, unit: int, digits: int) -> "TruncatedPadic":
        """A number from a kernel's (val, unit, digits), already in shape
        (certified, or uncertified with digits 0): skips ``__init__``'s
        checks and the modulus its range check reads."""
        out = object.__new__(_TruncatedPadicBlank)
        out.p = p
        out.val = val
        out.unit = unit
        out.digits = digits
        out.exact_zero = False
        out.__class__ = cls
        return out

    @classmethod
    def zero(cls, p: int) -> "TruncatedPadic":
        _require_p(p)
        return cls(p=p, exact_zero=True)

    @classmethod
    def from_rational(cls, q: Rational, p: int, digits: int) -> "TruncatedPadic":
        """q to ``digits`` digits, by :func:`_lift_units`."""
        if digits < 1:
            raise InvalidArgument("digits must be >= 1")
        _require_p(p)
        if not q:
            return cls.zero(p)
        return cls._of(p, *_lift_units(q, p, digits))

    @property
    def is_certified(self) -> bool:
        """True when the exact valuation is known (incl. exact zero)."""
        return self.exact_zero or self.digits >= 1

    def valuation(self):
        """The exact valuation; TOP for exact zero.

        Raises :class:`PrecisionExhausted` for uncertified numbers, whose
        valuation is only bounded below.
        """
        if self.exact_zero:
            return TOP
        if self.digits >= 1:
            return self.val
        raise PrecisionExhausted(
            f"valuation not certified; only known to be >= {self.val}"
        )

    def truncate(self, digits: int) -> "TruncatedPadic":
        """Reduce to at most ``digits`` certified digits."""
        if digits < 1:
            raise InvalidArgument("digits must be >= 1")
        if self.exact_zero or self.digits <= digits:
            return self
        return TruncatedPadic(self.p, self.val, self.unit % _pk(self.p, digits), digits)

    def _same(self, other: object) -> Optional["TruncatedPadic"]:
        if not isinstance(other, TruncatedPadic):
            return None
        if other.p != self.p:
            raise InvalidArgument("operands have different primes")
        return other

    def __neg__(self) -> "TruncatedPadic":
        if self.exact_zero or self.digits == 0:
            return self
        m = _pk(self.p, self.digits)
        return TruncatedPadic._of(self.p, self.val, m - self.unit, self.digits)

    def __add__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.exact_zero:
            return o
        if o.exact_zero:
            return self
        return TruncatedPadic._of(
            self.p,
            *_add_units(
                self.p, self.val, self.unit, self.digits, o.val, o.unit, o.digits
            ),
        )

    def __sub__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.exact_zero:
            return self
        if o.exact_zero:
            return o
        k = min(self.digits, o.digits)
        return TruncatedPadic._of(
            self.p, self.val + o.val, self.unit * o.unit % _pk(self.p, k), k
        )

    def __truediv__(self, other: object):
        """Quotient to k = min(digits) digits (:func:`_div_units`)."""
        o = self._same(other)
        if o is None:
            return NotImplemented
        if o.exact_zero:
            raise ZeroDivisor("division by exact zero")
        if o.digits == 0:
            raise PrecisionExhausted(
                "divisor valuation is uncertified; cannot divide"
            )
        if self.exact_zero:
            return self
        k = min(self.digits, o.digits)
        unit = _div_units(self.p, self.unit, o.unit, k)
        return TruncatedPadic._of(self.p, self.val - o.val, unit, k)

    def __str__(self) -> str:
        if self.exact_zero:
            return "0"
        if self.digits == 0:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.digits})"


_TruncatedPadicBlank = unfrozen(TruncatedPadic)


class TruncatedQuad(_QuadField):
    """u + v*sqrt(a) in Q_p(sqrt(a)) with capped-relative coordinates.

    ``u`` and ``v`` are :class:`TruncatedPadic` values; ``a`` is the
    radicand, lifted once by :meth:`from_quad` and shared by every element
    computed from that one, and ``rad`` is its exact value.  Q_p scalars
    (``TruncatedPadic``) mix in directly, and division goes through the
    conjugate and the truncated norm u**2 - a*v**2.  The valuation is
    v(norm)/2, so like every ``TruncatedPadic`` answer it is either
    certified or :class:`PrecisionExhausted`.
    """

    __slots__ = ("u", "v", "a", "rad", "__dict__")

    def __init__(
        self, u: TruncatedPadic, v: TruncatedPadic, a: TruncatedPadic, rad: Fraction
    ) -> None:
        _set(self, "u", u)
        _set(self, "v", v)
        _set(self, "a", a)
        _set(self, "rad", rad)

    @classmethod
    def from_quad(cls, x: QuadExt, p: int, digits: int) -> "TruncatedQuad":
        """Lift an exact point (and its radicand) to ``digits`` digits; a
        radicand that is a square of Q_p raises :class:`InvalidExtension`."""
        _require_extension(x.a, p)
        lift = TruncatedPadic.from_rational
        return cls._of(lift(x.u, p, digits), lift(x.v, p, digits), lift(x.a, p, digits), x.a)

    @classmethod
    def _of(
        cls, u: TruncatedPadic, v: TruncatedPadic, a: TruncatedPadic, rad: Fraction
    ) -> "TruncatedQuad":
        """u + v*sqrt(rad), ``a`` the lift of rad, built without ``__init__``."""
        out = object.__new__(_TruncatedQuadBlank)
        out.u = u
        out.v = v
        out.a = a
        out.rad = rad
        out.__class__ = cls
        return out

    @property
    def p(self) -> int:
        return self.a.p

    @property
    def exact_zero(self) -> bool:
        return self.u.exact_zero and self.v.exact_zero

    @property
    def digits(self) -> int:
        """The fewest certified digits of a nonzero coordinate; 0 for an
        exact zero."""
        return min((c.digits for c in (self.u, self.v) if not c.exact_zero), default=0)

    @functools.cached_property
    def norm(self) -> TruncatedPadic:
        """u**2 - a*v**2, computed once per element."""
        return self.u * self.u - self.a * (self.v * self.v)

    @property
    def is_certified(self) -> bool:
        """True when the exact valuation is known (incl. exact zero)."""
        return self.exact_zero or self.norm.is_certified

    def valuation(self):
        """v(norm)/2, extending vp on Q_p; TOP for exact zero.

        Raises :class:`PrecisionExhausted` when the norm is uncertified.
        """
        if self.exact_zero:
            return TOP
        return Fraction(self.norm.valuation(), 2)

    def _split(self, other: object):
        if isinstance(other, TruncatedQuad):
            if other.a is not self.a and other.rad != self.rad:
                raise InvalidExtension("operands live in different extensions")
            return other.u, other.v
        if isinstance(other, TruncatedPadic):
            return other, None
        return None

    def _new(self, u: TruncatedPadic, v: TruncatedPadic) -> "TruncatedQuad":
        return TruncatedQuad._of(u, v, self.a, self.rad)

    def __str__(self) -> str:
        return f"(({self.u}) + ({self.v})*sqrt({self.rad}))"


_TruncatedQuadBlank = unfrozen(TruncatedQuad)
