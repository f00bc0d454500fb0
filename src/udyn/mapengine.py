"""The map f(x) = a*x*((x+b)/(x+c))**2 over exact p-adic scalars.

Evaluation, orbits with pole detection, the three fixed points with their
multipliers, and seeded sphere sampling.  Points live in one of three
scalar domains and every operation keeps them there:

* ``Fraction`` — plain rationals;
* ``QuadExt`` — the quadratic extension by sqrt(a) when a is not a
  square of Q_p;
* ``TruncatedPadic`` — capped-precision p-adics for deep orbits, with
  certified valuations only.
"""

from __future__ import annotations

import enum
import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Tuple, Union

from .exactnum import (
    TOP,
    ExactError,
    InvalidArgument,
    PrecisionExhausted,
    QuadExt,
    Rational,
    SqrtClass,
    SqrtKind,
    TruncatedPadic,
    hensel_sqrt,
    is_prime,
    quad_val,
    sqrt_class,
    vp_rat,
)
from .radiusmaps import Radius, RadiusMapSpec

Point = Union[Fraction, QuadExt, TruncatedPadic]


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


@dataclass(frozen=True)
class MapParams:
    """Validated parameters (p, a, b, c) of the map.

    Degeneracy is rejected at construction: each of a, a-1, b, c, b-c and
    a*b**2 - c**2 must be nonzero, else the expression stops being a
    genuine degree-(3,2) rational map with three distinct fixed points.
    """

    p: int
    a: Fraction
    b: Fraction
    c: Fraction
    sqrt_mode: SqrtClass = field(init=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise InvalidArgument(f"p must be prime, got {self.p}")
        a, b, c = (Fraction(q) for q in (self.a, self.b, self.c))
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
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
        object.__setattr__(self, "sqrt_mode", sqrt_class(a, self.p))

    @property
    def val_a(self) -> int:
        return vp_rat(self.a, self.p)

    @property
    def val_b(self) -> int:
        return vp_rat(self.b, self.p)

    @property
    def val_c(self) -> int:
        return vp_rat(self.c, self.p)

    @property
    def pole(self) -> Fraction:
        return -self.c

    def to_dict(self) -> dict:
        return {"p": self.p, "a": str(self.a), "b": str(self.b), "c": str(self.c)}

    def radius_spec(
        self,
        crit_b: Optional[Radius] = None,
        crit_c: Optional[Radius] = None,
    ) -> RadiusMapSpec:
        """The induced dynamics on radii for these parameters."""
        return RadiusMapSpec.from_params(
            self.p, self.a, self.b, self.c, crit_b=crit_b, crit_c=crit_c
        )


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
    if isinstance(x, TruncatedPadic):
        if x.p != p:
            raise InvalidArgument("point and parameters use different primes")
        return x.valuation()
    raise InvalidArgument(f"unsupported point type {type(x).__name__}")


@functools.lru_cache(maxsize=256)
def _lift(q: Rational, p: int, digits: int) -> TruncatedPadic:
    """q to ``digits`` digits, lifted once per (q, p, digits): an orbit
    reuses the lifted a, b and c at every step of the same precision."""
    return TruncatedPadic.from_rational(q, p, digits)


def _truncated_denominator(x: TruncatedPadic, c: TruncatedPadic) -> TruncatedPadic:
    den = x + c
    if den.exact_zero:
        raise PoleHit("x + c = 0: the point is the pole")
    if not den.is_certified:
        raise PrecisionExhausted(
            "x + c has no certified digit; cannot rule out the pole"
        )
    return den


def eval_f(x: Point, params: MapParams) -> Point:
    """Exact f(x) = a*x*((x+b)/(x+c))**2 in the scalar domain of x."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        den = x + params.c
        if den == 0:
            raise PoleHit("x + c = 0: the point is the pole")
        return params.a * x * ((x + params.b) / den) ** 2
    if isinstance(x, QuadExt):
        den = x + params.c
        if den.is_zero:
            raise PoleHit("x + c = 0: the point is the pole")
        return params.a * x * ((x + params.b) / den) ** 2
    if isinstance(x, TruncatedPadic):
        if x.p != params.p:
            raise InvalidArgument("point and parameters use different primes")
        if x.exact_zero:
            return x
        w = max(x.digits, 32)
        a_t, b_t, c_t = (_lift(q, params.p, w) for q in (params.a, params.b, params.c))
        den = _truncated_denominator(x, c_t)
        q = (x + b_t) / den
        return a_t * x * (q * q)
    raise InvalidArgument(f"unsupported point type {type(x).__name__}")


def abs_f(x: Point, params: MapParams) -> Radius:
    """|f(x)| computed from valuations alone, without evaluating f."""
    p = params.p
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x + params.c == 0:
            raise PoleHit("x + c = 0: the point is the pole")
        if x == 0 or x + params.b == 0:
            return Radius.zero(p)
        v = (
            params.val_a
            + vp_rat(x, p)
            + 2 * vp_rat(x + params.b, p)
            - 2 * vp_rat(x + params.c, p)
        )
        return Radius.from_val(p, v)
    if isinstance(x, QuadExt):
        den = x + params.c
        if den.is_zero:
            raise PoleHit("x + c = 0: the point is the pole")
        num = x + params.b
        if x.is_zero or num.is_zero:
            return Radius.zero(p)
        v = (
            params.val_a
            + quad_val(x, p)
            + 2 * quad_val(num, p)
            - 2 * quad_val(den, p)
        )
        return Radius.from_val(p, v)
    if isinstance(x, TruncatedPadic):
        if x.p != p:
            raise InvalidArgument("point and parameters use different primes")
        if x.exact_zero:
            return Radius.zero(p)
        w = max(x.digits, 32)
        b_t, c_t = _lift(params.b, p, w), _lift(params.c, p, w)
        den = _truncated_denominator(x, c_t)
        num = x + b_t
        if num.exact_zero:
            return Radius.zero(p)
        v = (
            params.val_a
            + x.valuation()
            + 2 * num.valuation()
            - 2 * den.valuation()
        )
        return Radius.from_val(p, v)
    raise InvalidArgument(f"unsupported point type {type(x).__name__}")


def derivative_at(x: Point, params: MapParams) -> Point:
    """Exact f'(x) = a*(x+b)*((x+b)*(x+c) + 2*x*(c-b)) / (x+c)**3."""
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        den = x + params.c
        if den == 0:
            raise PoleHit("x + c = 0: the point is the pole")
        num = x + params.b
        return params.a * num * (num * den + 2 * x * (params.c - params.b)) / den**3
    if isinstance(x, QuadExt):
        den = x + params.c
        if den.is_zero:
            raise PoleHit("x + c = 0: the point is the pole")
        num = x + params.b
        return params.a * num * (num * den + 2 * x * (params.c - params.b)) / den**3
    if isinstance(x, TruncatedPadic):
        if x.p != params.p:
            raise InvalidArgument("point and parameters use different primes")
        w = max(x.digits, 32)
        a_t, b_t, c_t = (_lift(q, params.p, w) for q in (params.a, params.b, params.c))
        diff = _lift(params.c - params.b, params.p, w)
        two = _lift(2, params.p, w)
        den = _truncated_denominator(x, c_t)
        num = x + b_t
        return a_t * num * (num * den + two * x * diff) / den**3
    raise InvalidArgument(f"unsupported point type {type(x).__name__}")


# -------------------------------------------------------------------- orbits


@dataclass(frozen=True)
class Completed:
    steps: int

    def to_dict(self) -> dict:
        return {"kind": "completed", "steps": self.steps}


@dataclass(frozen=True)
class PoleHitAt:
    """f is undefined at orbit index ``index`` (that point is the pole)."""

    index: int

    def to_dict(self) -> dict:
        return {"kind": "pole-hit", "index": self.index}


@dataclass(frozen=True)
class PrecisionExhaustedAt:
    """Orbit point ``index`` could not be produced with certified digits."""

    index: int

    def to_dict(self) -> dict:
        return {"kind": "precision-exhausted", "index": self.index}


Termination = Union[Completed, PoleHitAt, PrecisionExhaustedAt]


@dataclass(frozen=True)
class OrbitRecord:
    """A computed orbit: points, their valuations, and how it ended.

    ``valuations[i]`` is always the exact valuation of ``points[i]``; a
    point whose valuation cannot be certified is not recorded.
    """

    points: Tuple[Point, ...]
    valuations: tuple
    termination: Termination


def orbit(
    x: Point,
    params: MapParams,
    n: int,
    *,
    precision: Optional[int] = None,
    max_exact_steps: int = 25,
) -> OrbitRecord:
    """Iterate f up to n steps with per-step pole checks.

    Exact scalars are kept exact only up to ``max_exact_steps`` — the
    numerator bit length roughly triples per step — beyond which a
    ``precision`` (certified p-adic digits) must be supplied and the
    orbit runs in truncated arithmetic.
    """
    if n < 1:
        raise InvalidArgument("orbit length must be >= 1")
    if isinstance(x, int):
        x = Fraction(x)
    if precision is not None:
        if isinstance(x, QuadExt):
            raise InvalidArgument(
                "truncated arithmetic covers rational points only"
            )
        if isinstance(x, Fraction):
            x = TruncatedPadic.from_rational(x, params.p, precision)
    elif not isinstance(x, TruncatedPadic) and n > max_exact_steps:
        raise InvalidArgument(
            f"exact orbits are capped at {max_exact_steps} steps because "
            "point size grows ~3x per step; pass precision=<digits> to run "
            "deeper in truncated arithmetic"
        )

    points: list = []
    vals: list = []
    try:
        vals.append(point_val(x, params.p))
        points.append(x)
    except PrecisionExhausted:
        return OrbitRecord((), (), PrecisionExhaustedAt(0))

    termination: Termination = Completed(n)
    for i in range(n):
        try:
            nxt = eval_f(points[i], params)
            v = point_val(nxt, params.p)
        except PoleHit:
            termination = PoleHitAt(i)
            break
        except PrecisionExhausted:
            termination = PrecisionExhaustedAt(i + 1)
            break
        points.append(nxt)
        vals.append(v)
    return OrbitRecord(tuple(points), tuple(vals), termination)


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


@dataclass(frozen=True)
class FixedPointInfo:
    which: str
    location: Point
    location_val: object
    multiplier: Point
    multiplier_val: object
    multiplier_abs: Radius
    character: Character

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


def _info(which: str, loc: Point, mult: Point, p: int, val_of) -> FixedPointInfo:
    lv = val_of(loc)
    mv = val_of(mult)
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
    return _info("x0", Fraction(0), lam, params.p, lambda z: vp_rat(z, params.p))


def _fp_pair_exact(params: MapParams, s, val_of) -> Tuple[FixedPointInfo, FixedPointInfo]:
    b, c = params.b, params.c
    x1 = -(b * s - c) / (s - 1)
    x2 = -(b * s + c) / (s + 1)
    m1 = 1 + 2 * (c - b * s) * (s - 1) / ((c - b) * s)
    m2 = 1 + 2 * (c + b * s) * (s + 1) / ((c - b) * s)
    for x in (x1, x2):
        if eval_f(x, params) != x:
            raise ExactError("fixed-point residual is nonzero; formulas broken")
    return (
        _info("x1", x1, m1, params.p, val_of),
        _info("x2", x2, m2, params.p, val_of),
    )


def _fp_pair_truncated(
    params: MapParams, digits: int, conjugate_root: bool
) -> Tuple[FixedPointInfo, FixedPointInfo]:
    p = params.p
    s = hensel_sqrt(params.a, p, digits)
    if conjugate_root:
        s = -s
    one = _lift(1, p, digits)
    two = _lift(2, p, digits)
    b, c = _lift(params.b, p, digits), _lift(params.c, p, digits)
    x1 = -(b * s - c) / (s - one)
    x2 = -(b * s + c) / (s + one)
    m1 = one + two * (c - b * s) * (s - one) / ((c - b) * s)
    m2 = one + two * (c + b * s) * (s + one) / ((c - b) * s)
    for x in (x1, x2):
        diff = eval_f(x, params) - x
        if diff.is_certified and not diff.exact_zero:
            raise ExactError(
                "fixed-point residual is certifiably nonzero; formulas broken"
            )

    def val_of(z: TruncatedPadic):
        return z.valuation()

    return _info("x1", x1, m1, p, val_of), _info("x2", x2, m2, p, val_of)


def fixed_points(
    params: MapParams,
    precision: int = 64,
    conjugate_root: bool = False,
) -> Tuple[FixedPointInfo, FixedPointInfo, FixedPointInfo]:
    """The three fixed points x0 = 0, x1, x2 with exact multipliers.

    The scalar domain of x1, x2 follows the square class of a: exact
    rationals when sqrt(a) is rational, certified truncated p-adics when
    a is a square of Q_p only (``precision`` digits, retried with more on
    cancellation), and the quadratic extension otherwise.
    ``conjugate_root`` picks the other branch of sqrt(a), which swaps
    x1 with x2.
    """
    first = _fp_zero(params)
    mode = params.sqrt_mode
    if mode.kind is SqrtKind.RATIONAL_SQUARE:
        s = -mode.root if conjugate_root else mode.root
        pair = _fp_pair_exact(params, s, lambda z: vp_rat(z, params.p))
    elif mode.kind is SqrtKind.QP_NONSQUARE:
        sign = Fraction(-1 if conjugate_root else 1)
        s = QuadExt(Fraction(0), sign, params.a)
        pair = _fp_pair_exact(params, s, lambda z: quad_val(z, params.p))
    else:
        digits = max(8, precision)
        cap = 1 << 14
        while True:
            try:
                pair = _fp_pair_truncated(params, digits, conjugate_root)
                break
            except PrecisionExhausted:
                if digits >= cap:
                    raise
                digits = min(2 * digits, cap)
    return (first,) + pair


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

    Integer-valuation spheres are sampled as p**v * m/n with unit
    numerator and denominator drawn from [1, 10**4]; half-integer
    valuations need sqrt(a) ramified (a of odd valuation, not a square
    of Q_p) and use multiples of sqrt(a).
    """
    p = params.p
    if radius.p != p:
        raise InvalidArgument("radius and parameters use different primes")
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    if not radius.is_finite:
        raise InvalidArgument("spheres exist only for finite nonzero radii")
    if not radius.is_lattice:
        raise UnsupportedRadius(
            f"absolute values take only powers of sqrt({p}); {radius} is off"
            " that lattice"
        )
    rng = random.Random(seed)
    out: list = []
    if radius.q2 % 2 == 0:
        v = -(radius.q2 // 2)
        scale = Fraction(p) ** v
        while len(out) < count:
            x = Fraction(_draw_unit(rng, p), _draw_unit(rng, p)) * scale
            if x == params.pole:
                continue
            out.append(x)
        return out
    if params.sqrt_mode.kind is not SqrtKind.QP_NONSQUARE or params.val_a % 2 == 0:
        raise UnsupportedRadius(
            "half-integer valuations need sqrt(a) ramified: a must be a"
            f" nonsquare of Q_{p} with odd valuation"
        )
    j = (-radius.q2 - params.val_a) // 2
    scale = Fraction(p) ** j
    while len(out) < count:
        u = Fraction(_draw_unit(rng, p), _draw_unit(rng, p)) * scale
        out.append(QuadExt(Fraction(0), u, params.a))
    return out
