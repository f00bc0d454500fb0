"""The map f(x) = a*x*((x+b)/(x+c))**2 over exact p-adic scalars.

Evaluation, orbits with pole detection, the three fixed points with their
multipliers, and seeded sphere sampling.  Points live in one of four
scalar domains and every operation keeps them there:

* ``Fraction`` — plain rationals;
* ``QuadExt`` — the quadratic extension by sqrt(a) when a is not a
  square of Q_p;
* ``TruncatedPadic`` — capped-precision p-adics for deep orbits, with
  certified valuations only;
* ``TruncatedQuad`` — capped-precision points of Q_p(sqrt(a)), whose
  coordinates are ``TruncatedPadic`` values.

The two exact domains hold the fixed-point algebra and the sampled start
points; orbits that must stay cheap run in the two truncated ones
(``lift_point``).  An exact orbit is bounded by operand size: it ends at
the first point larger than ``EXACT_BITS`` bits.

f is written once, in ``_Bound``: f bound to the domain of one point,
holding a, b and c in that domain and applying its pole rule (x + c
exactly zero is the pole; a truncated x + c that is not certified nonzero
exhausts the precision).  f, f' and |f| and every orbit step go through
it.  The fixed points of every square class of a are read off one closed
form, x1,2 = U +- V*s and m1,2 = M -+ N*s with rational U, V, M and N,
certified by the fixed-point equation in coordinates: s is the rational
root, sqrt(a) in the quadratic extension, or a Hensel root of a square of
Q_p only, to whose width the coordinates are lifted.

On any ``TruncatedPadic`` point, f is one fused step on (val, unit,
digits) integers: x + c under the pole rule and x + b through the sum
kernel of ``exactnum``, one unit division and one product, reduced once to
the fewest digits of any operand, and one ``TruncatedPadic`` out.  An exact
zero is its own image, and an uncertified x (digits 0) runs through the
same kernels, which carry it as O(p**val).  Capped-relative arithmetic
never gives f(x) more digits than x (X. Caruso, *Computations with p-adic
numbers*, arXiv:1701.06794), so this gives the digits of the composed
operators.  Every other point, ``TruncatedQuad`` included, goes through
the composed operators, which also serve the judges' remaining arithmetic
on truncated points.

:func:`orbit` binds f to its start point (``_Bound``) and keeps every
point built, as ``udyn orbit`` prints them all.  The verifier's sampled
orbits run :func:`projective_orbit`.  From a rational start it is one loop
on plain integers with no object per step: x is carried as p**v * U/W with
U and W units, so a step spends no unit inverse, and a point is built only
when it is read, as most judges read valuations alone.  Normalising every
rational point that way would cost more than ``_Bound._step``, so
``orbit`` keeps that step.  A start in Q_p(sqrt(a)) of integer valuation
(one of half-integer valuation is judged by its radius walk) is lifted and
stepped by ``orbit``'s own loop, :func:`_iterate`.  ``orbit`` and
``projective_orbit`` both check an exact start against the pole -c and
against -b, which f maps to exact zero, before they lift it.

``MapParams`` keeps a, b and c lifted per width (``MapParams.lifted``), so
a run lifts each coefficient once per width however many orbits and
critical values it binds.  A truncated orbit is bound once, at its start
point, and f reads the lifts only to the digits of x, so the start width
serves every later step.
"""

from __future__ import annotations

import enum
import functools
import random
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from ._value import Value, _set
from .exactnum import (
    TOP,
    ExactError,
    InvalidArgument,
    PrecisionExhausted,
    QuadExt,
    Rational,
    SqrtKind,
    TruncatedPadic,
    TruncatedQuad,
    _add_units,
    _div_units,
    _lift_units,
    _pk,
    hensel_sqrt,
    is_prime,
    quad_val,
    sqrt_class,
    vp_rat,
)
from .radiusmaps import Radius, RadiusMapSpec, Verdict

Point = Union[Fraction, QuadExt, TruncatedPadic, TruncatedQuad]
_TRUNCATED = (TruncatedPadic, TruncatedQuad)

#: Bit size past which an exact orbit stops.  Exact points roughly triple
#: in size per step, so the step that crosses it is the last cheap one, and
#: every kept numerator and denominator prints within Python's default
#: 4,300-digit int-to-str limit (about 14,000 bits).
EXACT_BITS = 1 << 13

#: The widest try of both doubling ladders: the Hensel root of the fixed
#: points and the verifier's sampled orbits.
MAX_DIGITS = 1 << 14


class PoleHit(ExactError):
    """Raised when evaluation lands on the pole x = -c."""


class UnsupportedRadius(InvalidArgument):
    """A sphere radius not realizable in the available scalar domain."""


class DegenerateParams(InvalidArgument):
    """Parameters on which the map collapses; ``factor`` names the culprit."""

    def __init__(self, factor: str) -> None:
        super().__init__(f"degenerate parameters: {factor} = 0")
        self.factor = factor


# --------------------------------------------------------------- parameters


class MapParams(Value):
    """Validated parameters (p, a, b, c) of the map.

    Degeneracy is rejected at construction: each of a, a-1, b, c, b-c and
    a*b**2 - c**2 must be nonzero, else the expression stops being a
    genuine degree-(3,2) rational map with three distinct fixed points.
    """

    __slots__ = ("p", "a", "b", "c", "sqrt_mode", "__dict__")

    def __init__(self, p: int, a: Rational, b: Rational, c: Rational) -> None:
        if not isinstance(p, int):
            raise InvalidArgument(f"p must be an int, got {p!r}")
        if not is_prime(p):
            raise InvalidArgument(f"p must be prime, got {p}")
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        for factor, value in (
            ("a", a),
            ("a-1", a - 1),
            ("b", b),
            ("c", c),
            ("b-c", b - c),
            ("ab^2-c^2", a * b * b - c * c),
        ):
            if value == 0:
                raise DegenerateParams(factor)
        _set(self, "p", p)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "sqrt_mode", sqrt_class(a, p))

    @functools.cached_property
    def val_a(self) -> int:
        return vp_rat(self.a, self.p)

    @functools.cached_property
    def val_b(self) -> int:
        return vp_rat(self.b, self.p)

    @functools.cached_property
    def val_c(self) -> int:
        return vp_rat(self.c, self.p)

    @property
    def pole(self) -> Fraction:
        return -self.c

    def to_dict(self) -> dict:
        return {"p": self.p, "a": str(self.a), "b": str(self.b), "c": str(self.c)}

    @functools.cached_property
    def _radius_spec(self) -> RadiusMapSpec:
        return RadiusMapSpec(self.p, self.val_a, self.val_b, self.val_c)

    def radius_spec(self) -> RadiusMapSpec:
        """The induced dynamics on radii for these parameters: p and the
        valuations of a, b and c; built once and kept (not as a field)."""
        return self._radius_spec

    @functools.cached_property
    def _lifts(self) -> dict:
        return {}

    def lifted(self, digits: int) -> Tuple[TruncatedPadic, TruncatedPadic, TruncatedPadic]:
        """a, b and c as ``TruncatedPadic`` lifts to ``digits`` digits.
        Each width is lifted once and kept, like the radius spec (not as a
        field), so a run lifts the coefficients once per width."""
        lifts = self._lifts
        if digits not in lifts:
            lifts[digits] = tuple(
                TruncatedPadic.from_rational(q, self.p, digits)
                for q in (self.a, self.b, self.c)
            )
        return lifts[digits]


def validate_params(p: int, a: Rational, b: Rational, c: Rational) -> MapParams:
    """Validate (p, a, b, c), naming the vanishing factor on rejection."""
    return MapParams(p, Fraction(a), Fraction(b), Fraction(c))


# --------------------------------------------------------------- evaluation


def point_val(x: Point, p: int):
    """Valuation of a point in any scalar domain; TOP for zero."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return vp_rat(x, p)
    if isinstance(x, QuadExt):
        return quad_val(x, p)
    if isinstance(x, _TRUNCATED):
        if x.p != p:
            raise InvalidArgument("point and parameters use different primes")
        return x.valuation()
    raise InvalidArgument(f"unsupported point type {type(x).__name__}")


def _is_zero(z: Point) -> Optional[bool]:
    """Whether z is zero; None when truncated digits cannot tell."""
    if isinstance(z, _TRUNCATED):
        return z.exact_zero if z.is_certified else None
    if isinstance(z, QuadExt):
        return z.is_zero
    return z == 0


def exact_eq(x: Point, y: Point) -> Optional[bool]:
    """Equality in the scalar domain; None when truncated precision
    cannot certify either way."""
    return _is_zero(x - y)


_POLE_UNRULED = "x + c is not certified nonzero; cannot rule out the pole"


class _Bound:
    """f bound to the scalar domain of one point.

    The coefficients live in that domain: the rationals themselves for
    ``Fraction`` and ``QuadExt`` points, and for a truncated point the
    ``TruncatedPadic`` lifts to max(digits, 32) digits that
    ``MapParams.lifted`` keeps per width.

    f of any ``TruncatedPadic`` of this prime is one fused step on
    (val, unit, digits) integers (:meth:`_step`); every other point,
    ``TruncatedQuad`` included, goes through the composed operators, whose
    digits the fused step keeps.  :func:`orbit` runs :meth:`f`; from a
    rational start the verifier's :func:`projective_orbit` runs ``_step``'s
    digits on integer states, without a ``_Bound``.
    """

    def __init__(self, params: MapParams, x: Point) -> None:
        self.params = params
        if isinstance(x, _TRUNCATED):
            if x.p != params.p:
                raise InvalidArgument("point and parameters use different primes")
            w = max(x.digits, 32)
            self.coef = lambda q: TruncatedPadic.from_rational(q, params.p, w)
            self.a, self.b, self.c = params.lifted(w)
        elif isinstance(x, (int, Fraction, QuadExt)):
            self.coef = lambda q: q
            self.a, self.b, self.c = params.a, params.b, params.c
        else:
            raise InvalidArgument(f"unsupported point type {type(x).__name__}")

    def _den(self, x: Point) -> Point:
        """x + c, refused at the pole and where no digit rules the pole out."""
        den = x + self.c
        zero = _is_zero(den)
        if zero:
            raise PoleHit("x + c = 0: the point is the pole")
        if zero is None:
            raise PrecisionExhausted(_POLE_UNRULED)
        return den

    def f(self, x: Point) -> Point:
        if type(x) is TruncatedPadic and x.p == self.params.p:
            return self._step(x)
        q = (x + self.b) / self._den(x)
        return self.a * x * (q * q)

    def _step(self, x: TruncatedPadic) -> TruncatedPadic:
        """f(x) with the digits of the composed operators: x + c under the
        pole rule and x + b by the sum kernel, then the quotient and the
        product a*x*q*q modulo p**k, k the fewest digits of a, x, x + b and
        x + c.  An exact zero is its own image (c is no zero); an
        uncertified x or x + b gives k = 0, which leaves O(p**val)."""
        if x.exact_zero:
            return x
        p, a, b, c = x.p, self.a, self.b, self.c
        xv, xu, xk = x.val, x.unit, x.digits
        dv, du, dk = _add_units(p, xv, xu, xk, c.val, c.unit, c.digits)
        if not dk:
            raise PrecisionExhausted(_POLE_UNRULED)
        nv, nu, nk = _add_units(p, xv, xu, xk, b.val, b.unit, b.digits)
        k = min(a.digits, xk, nk, dk)
        m = _pk(p, k)
        q = _div_units(p, nu, du, k)
        unit = a.unit * xu % m * (q * q % m) % m
        return TruncatedPadic._of(p, a.val + xv + 2 * (nv - dv), unit, k)

    def df(self, x: Point) -> Point:
        den = self._den(x)
        num = x + self.b
        cross = self.coef(2) * x * self.coef(self.params.c - self.params.b)
        return self.a * num * (num * den + cross) / (den * (den * den))

    def abs(self, x: Point) -> Radius:
        p = self.params.p
        den = self._den(x)
        num = x + self.b
        if _is_zero(x) or _is_zero(num):
            return Radius.zero(p)
        v = (
            self.params.val_a
            + point_val(x, p)
            + 2 * point_val(num, p)
            - 2 * point_val(den, p)
        )
        return Radius.from_val(p, v)


def eval_f(x: Point, params: MapParams) -> Point:
    """Exact f(x) = a*x*((x+b)/(x+c))**2 in the scalar domain of x."""
    return _Bound(params, x).f(x)


def abs_f(x: Point, params: MapParams) -> Radius:
    """|f(x)| = |a| |x| |x+b|**2 / |x+c|**2 from valuations alone, without
    evaluating f."""
    return _Bound(params, x).abs(x)


def derivative_at(x: Point, params: MapParams) -> Point:
    """Exact f'(x) = a*(x+b)*((x+b)*(x+c) + 2*x*(c-b)) / (x+c)**3."""
    return _Bound(params, x).df(x)


# -------------------------------------------------------------------- orbits


class Completed(Verdict):
    __slots__ = ("steps",)
    kind = "completed"

    def __init__(self, steps: int) -> None:
        _set(self, "steps", steps)


class _StopAt(Verdict):
    """An orbit that stopped at orbit index ``index``."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        _set(self, "index", index)


class PoleHitAt(_StopAt):
    """f is undefined at orbit index ``index`` (that point is the pole)."""

    __slots__ = ()
    kind = "pole-hit"


class PrecisionExhaustedAt(_StopAt):
    """Orbit point ``index`` could not be produced with certified digits."""

    __slots__ = ()
    kind = "precision-exhausted"


class SizeBudgetAt(_StopAt):
    """Exact orbit point ``index`` outgrew ``EXACT_BITS`` bits and was not
    kept; a truncated orbit (``precision``) runs deeper."""

    __slots__ = ()
    kind = "size-budget"


Termination = Union[Completed, PoleHitAt, PrecisionExhaustedAt, SizeBudgetAt]


@dataclass(frozen=True)
class OrbitRecord:
    """A computed orbit: points, their valuations, and how it ended.

    ``valuations[i]`` is always the exact valuation of ``points[i]``; a
    point whose valuation cannot be certified is not recorded.  ``points``
    is a tuple, or the read-only sequence of a rational
    :func:`projective_orbit`.
    """

    points: Sequence[Point]
    valuations: tuple
    termination: Termination


def _bits(x: Point) -> int:
    """Size of an exact point: its longest numerator or denominator."""
    parts = (x.u, x.v) if isinstance(x, QuadExt) else (x,)
    return max(max(q.numerator.bit_length(), q.denominator.bit_length()) for q in parts)


def lift_point(x: Point, params: MapParams, digits: int) -> Point:
    """An exact point in truncated arithmetic at ``digits`` digits: a
    rational as ``TruncatedPadic``, a ``QuadExt`` as ``TruncatedQuad``
    (:meth:`TruncatedQuad.from_quad`, which lifts its radicand and refuses
    a square of Q_p).  Truncated points are returned unchanged."""
    p = params.p
    if isinstance(x, (int, Fraction)):
        return TruncatedPadic.from_rational(x, p, digits)
    if isinstance(x, QuadExt):
        return TruncatedQuad.from_quad(x, p, digits)
    return x


def orbit(
    x: Point,
    params: MapParams,
    n: int,
    *,
    precision: Optional[int] = None,
) -> OrbitRecord:
    """Iterate f up to n steps with per-step pole checks; n = 0 gives the
    start alone.

    With ``precision`` (certified p-adic digits) an exact start is lifted
    (:func:`lift_point`) and the orbit runs in truncated arithmetic.  An
    exact start at the pole -c or at -b is checked before the lift
    (:func:`_exact_end`).  An exact orbit ends at the first point larger
    than ``EXACT_BITS`` bits (:class:`SizeBudgetAt`): its size roughly
    triples per step.  f is bound once, at the start point, and reads a, b
    and c lifted at the start width from ``params``.
    """
    if n < 0:
        raise InvalidArgument("orbit length must be >= 0")
    if isinstance(x, int):
        x = Fraction(x)
    if precision is not None and not isinstance(x, _TRUNCATED):
        end = _exact_end(x, params, n, precision)
        if end is not None:
            return end
        x = lift_point(x, params, precision)
    return _iterate(x, params, n)


def _iterate(x: Point, params: MapParams, n: int) -> OrbitRecord:
    """Up to n steps of f from x, bound once at x, keeping every point
    built: the loop of :func:`orbit`, which :func:`projective_orbit` also
    runs on a lifted start in Q_p(sqrt(a)).  ``projective_orbit`` calls
    this loop rather than ``orbit``, so a wrapper of ``orbit`` (the
    benchmark's tracer installs one) sees only the orbits asked of it."""
    p = params.p
    f, sized = _Bound(params, x).f, not isinstance(x, _TRUNCATED)
    try:
        vals = [point_val(x, p)]
    except PrecisionExhausted:
        return OrbitRecord((), (), PrecisionExhaustedAt(0))
    points, end = [x], Completed(n)
    for i in range(n):
        try:
            x = f(x)
            if sized and _bits(x) > EXACT_BITS:
                end = SizeBudgetAt(i + 1)
                break
            vals.append(point_val(x, p))
        except PoleHit:
            end = PoleHitAt(i)
            break
        except PrecisionExhausted:
            end = PrecisionExhaustedAt(i + 1)
            break
        points.append(x)
    return OrbitRecord(tuple(points), tuple(vals), end)


def _is_neg(x: Union[Rational, QuadExt], q: Fraction) -> bool:
    """x == -q for an exact point x, without building -q."""
    if isinstance(x, QuadExt):
        if x.v:
            return False
        x = x.u
    return x.numerator == -q.numerator and x.denominator == q.denominator


def _exact_end(x: Point, params: MapParams, n: int, digits: int) -> Optional[OrbitRecord]:
    """The truncated orbit of an exact start x that the exact orbit ends
    at once: at the pole -c it is the exact ``PoleHitAt(0)``, and -b maps
    to exact zero, its own image.  The start lifted to ``digits`` digits
    would only exhaust the precision at step 1.  None for any other
    start, or for n = 0."""
    if not n:
        return None
    pole = _is_neg(x, params.c)
    if not pole and not _is_neg(x, params.b):
        return None
    start = lift_point(x, params, digits)
    points, vals = (start,), (point_val(start, params.p),)
    if pole:
        return OrbitRecord(points, vals, PoleHitAt(0))
    zero = lift_point(x - x, params, digits)
    return OrbitRecord(points + (zero,) * n, vals + (TOP,) * n, Completed(n))


class _LazyPoints(Sequence):
    """The points of a rational :func:`projective_orbit`, read-only.  Point
    i is built from its state by ``make`` when it is first read, and kept."""

    __slots__ = ("_states", "_make", "_points")

    def __init__(self, states: list, make) -> None:
        self._states, self._make = states, make
        self._points: list = [None] * len(states)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        pt = self._points[i]
        if pt is None:
            pt = self._points[i] = self._make(self._states[i])
        return pt


def projective_orbit(
    x: Union[Rational, QuadExt], params: MapParams, n: int, digits: int
) -> OrbitRecord:
    """``orbit(x, params, n, precision=digits)`` for a rational start or a
    start in Q_p(sqrt(a)): the same valuations, termination and points.  A
    negative n is refused, as by :func:`orbit`; a start at the pole -c or
    at -b ends as the exact orbit does (:func:`_exact_end`), and an exact
    zero is its own image.

    A start in Q_p(sqrt(a)) is lifted and stepped by ``orbit``'s own loop,
    :func:`_iterate`.  A rational start runs in one loop on plain integers
    with the coefficients bound once, and a point is built from its state
    only when it is read (:class:`_LazyPoints`).  It is carried as
    p**v * u/w with u and w units modulo p**k.  x + c is p**dv * du/w by the
    sum kernel on (u, c*w), and x + b likewise, so
    f(x) = p**v' * (a*u*nu**2)/(w*du**2) with the valuation and digits of
    ``_Bound._step`` and no unit inverse; reading a point spends the
    inverse of w."""
    if n < 0:
        raise InvalidArgument("orbit length must be >= 0")
    end = _exact_end(x, params, n, digits)
    if end is not None:
        return end
    if _is_zero(x):
        zero = lift_point(x, params, digits)
        return OrbitRecord((zero,) * (n + 1), (TOP,) * (n + 1), Completed(n))
    if isinstance(x, QuadExt):
        return _iterate(lift_point(x, params, digits), params, n)
    p = params.p
    a, b, c = params.lifted(max(digits, 32))
    av, au, ak = a.val, a.unit, a.digits
    bv, bu, bk, mb = b.val, b.unit, b.digits, _pk(p, b.digits)
    cv, cu, ck, mc = c.val, c.unit, c.digits, _pk(p, c.digits)
    v, u, k = _lift_units(x, p, digits)
    w = 1
    states, vals, end = [(v, u, w, k)], [v], Completed(n)
    for i in range(n):
        dv, du, dk = _add_units(p, v, u, k, cv, cu * w % mc, ck)
        nv, nu, nk = _add_units(p, v, u, k, bv, bu * w % mb, bk)
        k = min(ak, k, nk, dk)
        if not k:  # x + c or x + b kept no digit
            end = PrecisionExhaustedAt(i + 1)
            break
        m = _pk(p, k)
        v += av + 2 * (nv - dv)
        u = au * u % m * (nu * nu % m) % m
        w = w * (du * du % m) % m
        states.append((v, u, w, k))
        vals.append(v)

    def make(state):
        v, u, w, k = state
        return TruncatedPadic._of(p, v, _div_units(p, u, w, k), k)

    return OrbitRecord(_LazyPoints(states, make), tuple(vals), end)


# -------------------------------------------------------------- fixed points


class Character(enum.Enum):
    ATTRACTING = "attracting"
    INDIFFERENT = "indifferent"
    REPELLING = "repelling"


def character_of(multiplier_val) -> Character:
    """Classify by |multiplier|: <1 attracting, =1 indifferent, >1 repelling.

    Valuation TOP (multiplier exactly zero) is attracting.
    """
    if multiplier_val is TOP or multiplier_val > 0:
        return Character.ATTRACTING
    if multiplier_val < 0:
        return Character.REPELLING
    return Character.INDIFFERENT


def val_str(v) -> str:
    """A valuation as text: its value, or "TOP" for the valuation of zero."""
    return "TOP" if v is TOP else str(v)


class FixedPointInfo(Value):
    __slots__ = (
        "which",
        "location",
        "location_val",
        "multiplier",
        "multiplier_val",
        "multiplier_abs",
        "character",
    )

    def __init__(
        self,
        which: str,
        location: Point,
        location_val: object,
        multiplier: Point,
        multiplier_val: object,
        multiplier_abs: Radius,
        character: Character,
    ) -> None:
        _set(self, "which", which)
        _set(self, "location", location)
        _set(self, "location_val", location_val)
        _set(self, "multiplier", multiplier)
        _set(self, "multiplier_val", multiplier_val)
        _set(self, "multiplier_abs", multiplier_abs)
        _set(self, "character", character)

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "location": str(self.location),
            "location_val": val_str(self.location_val),
            "multiplier": str(self.multiplier),
            "multiplier_val": val_str(self.multiplier_val),
            "multiplier_abs": str(self.multiplier_abs),
            "character": self.character.value,
        }


def _info(which: str, loc: Point, mult: Point, p: int) -> FixedPointInfo:
    lv = point_val(loc, p)
    mv = point_val(mult, p)
    return FixedPointInfo(
        which=which,
        location=loc,
        location_val=lv,
        multiplier=mult,
        multiplier_val=mv,
        multiplier_abs=Radius.from_val(p, mv),
        character=character_of(mv),
    )


def _fp_zero(params: MapParams) -> FixedPointInfo:
    lam = params.a * params.b**2 / params.c**2
    return _info("x0", Fraction(0), lam, params.p)


def _coordinates(params: MapParams) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
    """(U, V, M, N) with x1,2 = U +- V*s and m1,2 = M -+ N*s, s**2 = a:
    U = (c - ab)/(a - 1), V = (c - b)/(a - 1), M = 1 + 2(b + c)/(c - b)
    and N = 2(c + ab)/(a(c - b))."""
    a, b, c = params.a, params.b, params.c
    d = c - b
    u, v = (c - a * b) / (a - 1), d / (a - 1)
    return u, v, 1 + 2 * (b + c) / d, 2 * (c + a * b) / (a * d)


_RESIDUAL = "fixed-point residual is certifiably nonzero; formulas broken"


def _exact_pair(
    params: MapParams, conjugate_root: bool, s: Optional[TruncatedPadic] = None
) -> Tuple[FixedPointInfo, FixedPointInfo]:
    """x1, x2 and their multipliers from the closed form x1,2 = U +- V*s,
    m1,2 = M -+ N*s, for every square class of a: s is the rational root,
    sqrt(a) of the quadratic extension, or a given Hensel root ``s`` of a
    square of Q_p only, to whose width U, V, M and N are lifted.

    For x not in {0, -c} (a*b**2 != c**2 and b != c rule both out), f(x) = x
    is (x + c)**2 = a*(x + b)**2.  With x = U +- V*s its rational and s
    coordinates are (U + c)**2 + a*V**2 = a*((U + b)**2 + a*V**2) and
    (U + c)*V = a*(U + b)*V, which certify both points at once, whatever s
    is.  The other branch of sqrt(a) negates V and N.
    """
    a, b, c = params.a, params.b, params.c
    u, v, m, n = _coordinates(params)
    uc, ub, av2 = u + c, u + b, a * v * v
    if uc * uc + av2 != a * (ub * ub + av2) or uc * v != a * ub * v:
        raise ExactError(_RESIDUAL)
    if conjugate_root:
        v, n = -v, -n
    p, mode = params.p, params.sqrt_mode
    if mode.kind is SqrtKind.QP_NONSQUARE:
        x1 = QuadExt(u, v, a)
        first = _info("x1", x1, x1._new(m, -n), p)
        # s -> -s fixes Q_p and commutes with f, so it maps x1 to x2 and m1
        # to m2: both pairs have equal norms, so equal valuations and characters
        return first, first._replace(which="x2", location=x1._new(u, -v), multiplier=x1._new(m, n))
    if s is None:
        s = mode.root
    else:
        u, v, m, n = (TruncatedPadic.from_rational(q, p, s.digits) for q in (u, v, m, n))
    vs, ns = v * s, n * s
    return _info("x1", u + vs, m - ns, p), _info("x2", u - vs, m + ns, p)


def fixed_points(
    params: MapParams,
    precision: int = 64,
    conjugate_root: bool = False,
) -> Tuple[FixedPointInfo, FixedPointInfo, FixedPointInfo]:
    """The three fixed points x0 = 0, x1, x2 with exact multipliers.

    x1 and x2 read the closed form x1,2 = U +- V*s, m1,2 = M -+ N*s
    (:func:`_exact_pair`) in the scalar domain of the square class of a:
    rationals when sqrt(a) is rational, the quadratic extension when a is
    not a square of Q_p, and certified truncated p-adics on the Hensel root
    at ``precision`` digits (at least 8) when a is a square of Q_p only,
    retried with doubled digits, up to ``MAX_DIGITS``, while cancellation
    leaves a point or multiplier uncertified.  ``conjugate_root`` picks the
    other branch of sqrt(a), which swaps x1 with x2.
    """
    first = _fp_zero(params)
    if params.sqrt_mode.kind is not SqrtKind.QP_SQUARE_NOT_RATIONAL:
        return (first,) + _exact_pair(params, conjugate_root)
    digits = max(8, precision)
    while True:
        try:
            s = hensel_sqrt(params.a, params.p, digits)
            return (first,) + _exact_pair(params, conjugate_root, s)
        except PrecisionExhausted:
            if digits >= MAX_DIGITS:
                raise
            digits = min(2 * digits, MAX_DIGITS)


# ----------------------------------------------------------------- sampling


def _draw_unit(rng: random.Random, p: int) -> int:
    while True:
        m = rng.randint(1, 10**4)
        if m % p != 0:
            return m


def sample_sphere(
    radius: Radius, params: MapParams, count: int, seed: int
) -> list:
    """Seeded points x with |x| exactly the given radius, pole excluded.

    A finite radius is p**(q2/2).  Integer-valuation spheres (even q2) are
    sampled as p**v * m/n with unit numerator and denominator drawn from
    [1, 10**4].  Half-integer valuations (odd q2) are drawn only as
    multiples of sqrt(a), so v(a) must be odd; other ramified fields, such
    as Q_2(sqrt(3)) where 1 + sqrt(3) has valuation 1/2, are not sampled.
    """
    p = params.p
    if radius.p != p:
        raise InvalidArgument("radius and parameters use different primes")
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    if not radius.is_finite:
        raise InvalidArgument("spheres exist only for finite nonzero radii")
    rng = random.Random(seed)
    out: list = []
    if radius.q2 % 2 == 0:
        v = -(radius.q2 // 2)
        while len(out) < count:
            x = _draw(rng, p, v)
            if not _is_neg(x, params.c):
                out.append(x)
        return out
    if params.val_a % 2 == 0:
        raise UnsupportedRadius(
            "half-integer valuations are drawn only as multiples of sqrt(a),"
            f" so v(a) must be odd; here v_{p}(a) = {params.val_a}"
        )
    j = (-radius.q2 - params.val_a) // 2
    while len(out) < count:
        out.append(QuadExt(Fraction(0), _draw(rng, p, j), params.a))
    return out


def _draw(rng: random.Random, p: int, v: int) -> Fraction:
    """p**v * m/n for units m and n drawn in that order, built as one
    ``Fraction``."""
    m, n = _draw_unit(rng, p), _draw_unit(rng, p)
    scale = _pk(p, abs(v))
    return Fraction(m * scale, n) if v >= 0 else Fraction(m, n * scale)
