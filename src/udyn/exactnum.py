"""Exact p-adic arithmetic primitives.

Valuations over the rationals, square classification in Q_p, Hensel lifting
of square roots, quadratic extensions Q(sqrt(a)), and a capped-relative
truncated p-adic number type whose valuations are certified exact.

Everything here is exact: integers and :class:`fractions.Fraction`
throughout, no floating point.  The truncated type models an element of Q_p
by a unit times a power of p, known to a fixed number of significant p-adic
digits; it tracks what is certified and refuses to answer questions the
retained digits cannot settle.  Its division inverts the divisor's unit
modulo p**k by Newton (Hensel) lifting from the inverse modulo p, as do the
square-root lifts (X. Caruso, *Computations with p-adic numbers*,
arXiv:1701.06794).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Optional, Union

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

    Compares strictly greater than every finite (int or Fraction) valuation
    and absorbs addition, matching the usual conventions for v(0).
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

    def __add__(self, other: object) -> "_TopValuation":
        return self

    __radd__ = __add__
    __sub__ = __add__

    def __mul__(self, other: object) -> "_TopValuation":
        return self

    __rmul__ = __mul__

    def __neg__(self) -> "_TopValuation":
        return self


#: The valuation of zero; larger than every finite valuation.
TOP = _TopValuation()


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13 (Sorenson-Webster 2017): the least strong pseudoprime to all of
# _MR_BASES, so the test below is exact for every smaller n
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test over the first 13 prime
    bases: exact for n < psi_13 = 3317044064679887385961981, and an
    ``InvalidArgument`` at or above it, where it could be wrong."""
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


def vp_int(n: int, p: int):
    """p-adic valuation of an integer; ``TOP`` for 0."""
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


def _inv_unit(u: int, p: int, k: int) -> int:
    """Inverse of an integer prime to p, modulo p**k.

    Newton's iteration y <- y*(2 - u*y) squares the error 1 - u*y, so it
    doubles the correct digits of the inverse mod p at each step.  The
    precisions are k, ceil(k/2), ceil(k/4), ... run from the bottom up, so
    the last step lands on k exactly and the earlier ones work on short
    operands; the result equals ``pow(u, -1, p**k)`` at a fraction of the
    extended-gcd cost when k is large.
    """
    ladder = []
    while k > 1:
        ladder.append(k)
        k = (k + 1) // 2
    y = pow(u % p, -1, p)
    for j in reversed(ladder):
        m = p**j
        y = y * (2 - u % m * y) % m
    return y


class SqrtKind(enum.Enum):
    RATIONAL_SQUARE = "rational-square"
    QP_SQUARE_NOT_RATIONAL = "qp-square-not-rational"
    QP_NONSQUARE = "qp-nonsquare"


@dataclass(frozen=True)
class SqrtClass:
    """Square classification of a rational in Q_p.

    ``root`` is the exact nonnegative rational root when the number is a
    perfect rational square, and None otherwise.
    """

    kind: SqrtKind
    root: Optional[Fraction] = None


def _rational_square_root(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def sqrt_class(a: Rational, p: int) -> SqrtClass:
    """Classify a rational as a square of Q, a square of Q_p only, or neither.

    The Q_p test is the classical one: even valuation plus a square unit
    (Euler's criterion for odd p; residue 1 mod 8 for p = 2).
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
        m = p**k
        uk = _unit_mod(u, m)
        r = (r + uk * _inv_unit(r, p, k)) * _inv_unit(2, p, k) % m
    if r % p != canon:
        r = p**digits - r
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


@dataclass(frozen=True)
class QuadExt:
    """u + v*sqrt(a) with exact rational coordinates.

    ``a`` must not be a perfect rational square (and must be nonzero), so
    Q(sqrt(a)) is a genuine quadratic field and the norm u**2 - a*v**2
    vanishes only at zero.
    """

    u: Fraction
    v: Fraction
    a: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", Fraction(self.u))
        object.__setattr__(self, "v", Fraction(self.v))
        object.__setattr__(self, "a", Fraction(self.a))
        if self.a == 0 or _rational_square_root(self.a) is not None:
            raise InvalidExtension(
                f"sqrt({self.a}) is rational; the extension is degenerate"
            )

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def _coerce(self, other: object) -> Optional["QuadExt"]:
        if isinstance(other, QuadExt):
            if other.a != self.a:
                raise InvalidExtension("operands live in different extensions")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.a)
        return None

    def __add__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.u + o.u, self.v + o.v, self.a)

    __radd__ = __add__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.u, -self.v, self.a)

    def __sub__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(self.u - o.u, self.v - o.v, self.a)

    def __rsub__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadExt(
            self.u * o.u + self.a * self.v * o.v,
            self.u * o.v + self.v * o.u,
            self.a,
        )

    __rmul__ = __mul__

    def conj(self) -> "QuadExt":
        return QuadExt(self.u, -self.v, self.a)

    def norm(self) -> Fraction:
        return self.u * self.u - self.a * self.v * self.v

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisor("0 has no inverse")
        return QuadExt(self.u / n, -self.v / n, self.a)

    def __truediv__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = QuadExt(Fraction(1), Fraction(0), self.a)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        return f"({self.u} + {self.v}*sqrt({self.a}))"


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
    if is_qp_square(x.a, p):
        raise InvalidExtension(
            f"sqrt({x.a}) already lies in Q_{p}; valuation via the norm is invalid"
        )
    return Fraction(vp_rat(x.norm(), p), 2)


@dataclass(frozen=True)
class TruncatedPadic:
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

    p: int
    val: int = 0
    unit: int = 0
    digits: int = 0
    exact_zero: bool = False

    def __post_init__(self) -> None:
        if self.exact_zero:
            if self.val != 0 or self.unit != 0 or self.digits != 0:
                raise InvalidArgument("exact zero must have val=unit=digits=0")
        elif self.digits == 0:
            if self.unit != 0:
                raise InvalidArgument("uncertified numbers carry no unit")
        else:
            if self.digits < 0:
                raise InvalidArgument("digits must be >= 0")
            if not 0 < self.unit < self.p**self.digits:
                raise InvalidArgument("unit must lie in (0, p**digits)")
            if self.unit % self.p == 0:
                raise InvalidArgument("unit must be coprime to p")

    @classmethod
    def zero(cls, p: int) -> "TruncatedPadic":
        return cls(p=p, exact_zero=True)

    @classmethod
    def unknown(cls, p: int, floor: int) -> "TruncatedPadic":
        """O(p**floor): nothing known beyond valuation >= floor."""
        return cls(p=p, val=floor)

    @classmethod
    def from_rational(cls, q: Rational, p: int, digits: int) -> "TruncatedPadic":
        if digits < 1:
            raise InvalidArgument("digits must be >= 1")
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        v = vp_rat(q, p)
        u = unit_part(q, p)
        return cls(p=p, val=v, unit=_unit_mod(u, p**digits), digits=digits)

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

    @property
    def val_floor(self):
        """A lower bound on the valuation, always available."""
        if self.exact_zero:
            return TOP
        return self.val

    def truncate(self, digits: int) -> "TruncatedPadic":
        """Reduce to at most ``digits`` certified digits."""
        if digits < 1:
            raise InvalidArgument("digits must be >= 1")
        if self.exact_zero or self.digits <= digits:
            return self
        m = self.p**digits
        return TruncatedPadic(self.p, self.val, self.unit % m, digits)

    def _same(self, other: object) -> Optional["TruncatedPadic"]:
        if not isinstance(other, TruncatedPadic):
            return None
        if other.p != self.p:
            raise InvalidArgument("operands have different primes")
        return other

    def __neg__(self) -> "TruncatedPadic":
        if self.exact_zero or self.digits == 0:
            return self
        m = self.p**self.digits
        return TruncatedPadic(self.p, self.val, m - self.unit, self.digits)

    def __add__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.exact_zero:
            return o
        if o.exact_zero:
            return self
        if self.digits == 0 and o.digits == 0:
            return TruncatedPadic(self.p, val=min(self.val, o.val))
        if self.digits == 0 or o.digits == 0:
            unc, cert = (self, o) if self.digits == 0 else (o, self)
            if cert.val < unc.val:
                k = min(cert.digits, unc.val - cert.val)
                return TruncatedPadic(
                    self.p, cert.val, cert.unit % self.p**k, k
                )
            return TruncatedPadic(self.p, val=unc.val)
        if self.val == o.val:
            k = min(self.digits, o.digits)
            m = self.p**k
            s = (self.unit + o.unit) % m
            if s == 0:
                # Cancellation beyond the retained digits.
                return TruncatedPadic(self.p, val=self.val + k)
            c = vp_int(s, self.p)
            if c == 0:
                return TruncatedPadic(self.p, self.val, s, k)
            return TruncatedPadic(self.p, self.val + c, s // self.p**c, k - c)
        lo, hi = (self, o) if self.val < o.val else (o, self)
        d = hi.val - lo.val
        k = min(lo.digits, hi.digits + d)
        m = self.p**k
        s = (lo.unit + hi.unit * self.p**d) % m
        return TruncatedPadic(self.p, lo.val, s, k)

    def __sub__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: object):
        o = self._same(other)
        if o is None:
            return NotImplemented
        if self.exact_zero or o.exact_zero:
            return TruncatedPadic.zero(self.p)
        if self.digits == 0 or o.digits == 0:
            return TruncatedPadic(self.p, val=self.val + o.val)
        k = min(self.digits, o.digits)
        m = self.p**k
        return TruncatedPadic(
            self.p, self.val + o.val, self.unit * o.unit % m, k
        )

    def __truediv__(self, other: object):
        """Quotient to min(digits) digits; the divisor's unit is inverted
        modulo p**k by Newton lifting (:func:`_inv_unit`)."""
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
            return TruncatedPadic.zero(self.p)
        if self.digits == 0:
            return TruncatedPadic(self.p, val=self.val - o.val)
        k = min(self.digits, o.digits)
        unit = self.unit * _inv_unit(o.unit, self.p, k) % self.p**k
        return TruncatedPadic(self.p, self.val - o.val, unit, k)

    def __pow__(self, n: int):
        """Square-and-multiply; x**0 is 1 to max(digits, 1) digits."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return TruncatedPadic.from_rational(1, self.p, max(self.digits, 1))
        out = None
        base = self
        while True:
            if n & 1:
                out = base if out is None else out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __str__(self) -> str:
        if self.exact_zero:
            return "0"
        if self.digits == 0:
            return f"O({self.p}^{self.val})"
        return f"{self.unit}*{self.p}^{self.val} + O({self.p}^{self.val + self.digits})"
