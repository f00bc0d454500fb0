"""Dynamics induced on absolute values by f(x) = a*x*((x+b)/(x+c))**2.

Over an ultrametric field the map f sends the sphere of radius r around 0
onto a predictable radius except on the two critical spheres r = |b| and
r = |c|, where the image radius depends on the point.  Every radius of one
map is ``p**(q2/2)`` for an integer q2 (or zero, or infinity), and off the
critical spheres the induced map is affine in q2.  So a
:class:`RadiusMapSpec` carries two small tables, and every radius walk
runs on bare integer exponents from them:

* ``spheres``: the lower and upper critical spheres as (q2, name); in the
  EQ regime both rows are the |b| sphere;
* ``zones``: the map q2 -> m*q2 + k below, between and above them, as
  (m, k): (1, delta_bottom), then (3, 2(2 v_c - v_a)) in LT or
  (-1, -2(v_a + 2 v_b)) in GT, then (1, delta_top).

On top of them sit one step rule on exponents, which the one-step map wraps
and the orbits run on ints, and a closed-form limit classifier that crosses
each scaling zone in one jump.  A walk that reaches a critical sphere ends
there: the sphere's image is a property of the point, not of the radius.
The other case facts are read off the same tables: the bounds on the
critical images (``bound_b``/``bound_c``, the middle zone's map at each
sphere, where the outer zone agrees), the radius the
middle zone fixes (``mid_fixed``), and the ladders of radii that land
exactly on a critical sphere (``ExceptionalSet.on``: the sphere's exponent,
stepped by the shift of the zone beyond it).  Two facts keep their own case
analysis on purpose: the set of fixed radii (``fix_set``) and the interval
of radii carrying two-cycles (``lambda_interval``) are the independent
answers the walks are checked against, so reading them off the tables would
check the tables against themselves.
"""

from __future__ import annotations

import enum
import json
from functools import cached_property
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Tuple

from ._value import Value, _set, unfrozen
from .exactnum import (
    TOP,
    ExactError,
    InvalidArgument,
    Rational,
)

__all__ = [
    "InvalidRegime",
    "CriticalValueNeeded",
    "RadiusKind",
    "Radius",
    "Regime",
    "RadiusMapSpec",
    "radius_step",
    "Verdict",
    "ToZero",
    "ToInfinity",
    "FixedAt",
    "Cycle",
    "EventuallyConstantAt",
    "NeedsCriticalValue",
    "HorizonExceeded",
    "TwoCycleRegion",
    "EventuallyInLambda",
    "RadiusOrbitResult",
    "radius_orbit",
    "ExceptionalSet",
    "RadiusRay",
    "FixSet",
    "fix_set",
    "LambdaInterval",
    "lambda_interval",
    "limit_classify",
]


class InvalidRegime(ExactError):
    """The requested construction does not exist in this parameter regime."""


class CriticalValueNeeded(ExactError):
    """The radius map is not determined on a critical sphere.

    Carries ``sphere`` ("b" or "c") and the ``radius`` that was hit.
    """

    def __init__(self, sphere: str, radius: "Radius") -> None:
        super().__init__(f"radius map undetermined on the critical sphere |x| = {radius}")
        self.sphere = sphere
        self.radius = radius


class RadiusKind(enum.Enum):
    ZERO = "zero"
    FINITE = "fin"
    INFINITE = "inf"


_RANK = {RadiusKind.ZERO: 0, RadiusKind.FINITE: 1, RadiusKind.INFINITE: 2}


class Radius(Value):
    """An exact radius ``p**(q2/2)`` (plus the zero and infinite ones).

    Every absolute value a point of Q_p or of a quadratic extension can take
    has this form, so the integer ``q2`` carries the radius exactly,
    half-integer exponents (ramified extensions) included.
    """

    __slots__ = ("p", "kind", "q2")

    def __init__(self, p: int, kind: RadiusKind = RadiusKind.FINITE, q2: int = 0) -> None:
        _set(self, "p", p)
        _set(self, "kind", kind)
        _set(self, "q2", q2 if kind is RadiusKind.FINITE else 0)

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, p: int) -> "Radius":
        return cls(p, RadiusKind.ZERO)

    @classmethod
    def infinite(cls, p: int) -> "Radius":
        return cls(p, RadiusKind.INFINITE)

    @classmethod
    def from_exponent(cls, p: int, q2: int) -> "Radius":
        """The radius p**(q2/2)."""
        out = object.__new__(_RadiusBlank)
        out.p = p
        out.kind = RadiusKind.FINITE
        out.q2 = q2
        out.__class__ = cls
        return out

    @classmethod
    def from_val(cls, p: int, v) -> "Radius":
        """The radius p**(-v) of points of valuation v; TOP gives zero."""
        if v is TOP:
            return cls.zero(p)
        q2 = Fraction(-2 * v)
        if q2.denominator != 1:
            raise InvalidArgument(f"valuation must lie in (1/2)Z, got {v}")
        return cls.from_exponent(p, int(q2))

    # ------------------------------------------------------------- inspectors

    @property
    def is_zero(self) -> bool:
        return self.kind is RadiusKind.ZERO

    @property
    def is_infinite(self) -> bool:
        return self.kind is RadiusKind.INFINITE

    @property
    def is_finite(self) -> bool:
        return self.kind is RadiusKind.FINITE

    # ------------------------------------------------------------- arithmetic

    def scaled_by_power(self, e2: int) -> "Radius":
        """Multiply by p**(e2/2)."""
        if not self.is_finite:
            return self
        return Radius.from_exponent(self.p, self.q2 + e2)

    # -------------------------------------------------------------- ordering

    def _cmp(self, other: "Radius") -> int:
        if not isinstance(other, Radius):
            raise InvalidArgument("radii compare only with radii")
        if other.p != self.p:
            raise InvalidArgument("radii with different primes do not compare")
        a = (_RANK[self.kind], self.q2)
        b = (_RANK[other.kind], other.q2)
        return (a > b) - (a < b)

    def __lt__(self, other: "Radius") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Radius") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Radius") -> bool:
        return self._cmp(other) > 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_infinite:
            return "inf"
        if self.q2 == 0:
            return "1"
        if self.q2 % 2 == 0:
            return f"{self.p}^{self.q2 // 2}"
        return f"{self.p}^{self.q2}/2"


_RadiusBlank = unfrozen(Radius)


class Regime(enum.Enum):
    """Relative position of the two critical spheres |b| and |c|."""

    LT = "|b|<|c|"
    EQ = "|b|=|c|"
    GT = "|b|>|c|"


def _regime(val_b: int, val_c: int) -> Regime:
    if val_b > val_c:
        return Regime.LT
    return Regime.EQ if val_b == val_c else Regime.GT


_BELOW, _MID, _ABOVE = 0, 1, 2  # rows of RadiusMapSpec.zones


class RadiusMapSpec(Value):
    """Everything the radius map needs: the prime and the valuations of
    a, b and c, checked to be ints on construction.

    The regime, the two walk tables (``spheres`` and ``zones``), the
    critical radii and the two-cycle interval are computed from the fields
    on first use and kept on the instance; they are not fields, so
    equality and hashing see only the fields below.
    """

    __slots__ = ("p", "val_a", "val_b", "val_c", "__dict__")

    def __init__(self, p: int, val_a: int, val_b: int, val_c: int) -> None:
        ints = (p, val_a, val_b, val_c)
        if not all(isinstance(v, int) for v in ints):
            raise InvalidArgument(f"p and the valuations must be ints, got {ints}")
        _set(self, "p", p)
        _set(self, "val_a", val_a)
        _set(self, "val_b", val_b)
        _set(self, "val_c", val_c)

    # ------------------------------------------------------------ derived data

    @cached_property
    def regime(self) -> Regime:
        """Relative position of |b| and |c|, read off their valuations."""
        return _regime(self.val_b, self.val_c)

    @property
    def s(self) -> int:
        """val(a) + 2 val(b) - 2 val(c): the bottom-zone contraction exponent."""
        return self.val_a + 2 * self.val_b - 2 * self.val_c

    @cached_property
    def two_cycle_regime(self) -> bool:
        """|b| > |c|, |a| < 1 and s < 0: the inversion zone pairs radii
        into two-cycles, and the limit walk stops at the core of the
        interval Λ."""
        return self.regime is Regime.GT and self.val_a > 0 and self.s < 0

    @cached_property
    def spheres(self) -> Tuple[Tuple[int, str], ...]:
        """The lower and upper critical spheres as (q2, name); in the EQ
        regime both rows are the |b| sphere."""
        b = (-2 * self.val_b, "b")
        c = (-2 * self.val_c, "c")
        return {Regime.LT: (b, c), Regime.EQ: (b, b), Regime.GT: (c, b)}[self.regime]

    @cached_property
    def zones(self) -> Tuple[Tuple[int, int], ...]:
        """The radius map q2 -> m*q2 + k as (m, k) below, between and
        above the critical spheres."""
        va = self.val_a
        if self.regime is Regime.GT:
            mid = (-1, -2 * (va + 2 * self.val_b))  # r -> |a b^2| / r
        else:
            mid = (3, 2 * (2 * self.val_c - va))  # r -> |a| r^3 / |c|^2
        return ((1, -2 * self.s), mid, (1, -2 * va))

    @cached_property
    def _sphere_radii(self) -> Tuple[Radius, Radius]:
        """The critical radii (|b|, |c|)."""
        return (
            Radius.from_exponent(self.p, -2 * self.val_b),
            Radius.from_exponent(self.p, -2 * self.val_c),
        )

    def sphere_b(self) -> Radius:
        return self._sphere_radii[0]

    def sphere_c(self) -> Radius:
        return self._sphere_radii[1]

    def _mid_image(self, q2: int) -> Radius:
        m, k = self.zones[_MID]
        return Radius.from_exponent(self.p, m * q2 + k)

    @property
    def bound_b(self) -> Radius:
        """Largest radius |f(x)| can take on |x| = |b| (f maps that sphere
        into the closed ball of this radius): the middle zone's map at |b|,
        where the outer zone agrees."""
        if self.regime is Regime.EQ:
            raise InvalidRegime("the image of |x| = |b| is unbounded in the EQ regime")
        return self._mid_image(-2 * self.val_b)

    @property
    def bound_c(self) -> Radius:
        """Smallest radius |f(x)| can take on |x| = |c| (f maps that sphere
        outside the open ball of this radius): the middle zone's map at
        |c|, where the outer zone agrees."""
        if self.regime is Regime.EQ:
            raise InvalidRegime("the EQ regime has no |c| critical sphere")
        return self._mid_image(-2 * self.val_c)

    @property
    def mid_fixed(self) -> Radius:
        """The radius the middle zone's map fixes: |c|/sqrt|a| in LT (and
        EQ, where the zone is empty), |b|sqrt|a| in GT."""
        m, k = self.zones[_MID]
        return Radius.from_exponent(self.p, k // (1 - m))

    @cached_property
    def lambda_region(self) -> "LambdaInterval":
        """This spec's two-cycle interval (:func:`lambda_interval`), built
        on first use."""
        return lambda_interval(self)


def _locate(q2: int, spec: RadiusMapSpec):
    """(zone, sphere) of a finite exponent: the row of ``spec.zones`` it
    falls in, and the row of ``spec.spheres`` it lies on, or None."""
    low, high = spec.spheres
    if q2 < low[0]:
        return _BELOW, None
    if q2 == low[0]:
        return _BELOW, low
    if q2 < high[0]:
        return _MID, None
    if q2 == high[0]:
        return _ABOVE, high
    return _ABOVE, None


def _image(q2: int, spec: RadiusMapSpec):
    """The step rule on a finite exponent: q2 -> m*q2 + k in its zone.  On
    a critical sphere, where the image depends on the point, it returns
    the sphere's row (q2, name) instead."""
    zone, sphere = _locate(q2, spec)
    if sphere is None:
        m, k = spec.zones[zone]
        return m * q2 + k
    return sphere


def radius_step(r: Radius, spec: RadiusMapSpec) -> Radius:
    """One application of the induced radius map.

    Raises :class:`CriticalValueNeeded` on a critical sphere.
    """
    if r.p != spec.p:
        raise InvalidArgument("radius prime does not match the spec")
    if not r.is_finite:
        return r
    nxt = _image(r.q2, spec)
    if type(nxt) is int:
        return Radius.from_exponent(spec.p, nxt)
    raise CriticalValueNeeded(nxt[1], r)


# ------------------------------------------------------------------- verdicts


class Verdict(Value):
    """Base class for radius-orbit classifications and orbit terminations:
    a ``kind`` and the fields, serialized by ``_serialize``."""

    __slots__ = ()
    kind: ClassVar[str] = ""

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in self._fields:
            out[name] = _serialize(getattr(self, name))
        return out


def _serialize(v):
    """The JSON value of a field: radii and fractions as text, enums by
    value, tuples as lists, an interval as its dict."""
    if isinstance(v, (Radius, Fraction)):
        return str(v)
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, tuple):
        return [_serialize(x) for x in v]
    if isinstance(v, LambdaInterval):
        return v.to_dict()
    return v


def canonical_json(data) -> str:
    """The byte-stable JSON of a document: sorted keys, compact separators."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


class ToZero(Verdict):
    """The radius orbit converges to (possibly lands exactly on) zero."""

    __slots__ = ()
    kind = "to-zero"


class ToInfinity(Verdict):
    __slots__ = ()
    kind = "to-infinity"


class FixedAt(Verdict):
    """The starting radius itself is fixed."""

    __slots__ = ("radius",)
    kind = "fixed"

    def __init__(self, radius: Optional[Radius] = None) -> None:
        _set(self, "radius", radius)


class Cycle(Verdict):
    """The orbit enters an exact cycle of radii (period = len(radii)).

    The tuple is canonical: rotated to start at the largest radius, orbit
    order preserved.
    """

    __slots__ = ("radii",)
    kind = "cycle"

    def __init__(self, radii: Tuple[Radius, ...] = ()) -> None:
        _set(self, "radii", radii)


class EventuallyConstantAt(Verdict):
    """The orbit lands exactly on a fixed radius at the given index."""

    __slots__ = ("radius", "index")
    kind = "eventually-constant"

    def __init__(self, radius: Optional[Radius] = None, index: int = 0) -> None:
        _set(self, "radius", radius)
        _set(self, "index", index)


class NeedsCriticalValue(Verdict):
    """Classification stops on a critical sphere, whose image depends on
    the point."""

    __slots__ = ("sphere",)
    kind = "needs-critical-value"

    def __init__(self, sphere: str = "") -> None:
        _set(self, "sphere", sphere)


class HorizonExceeded(Verdict):
    __slots__ = ()
    kind = "horizon-exceeded"


class TwoCycleRegion(Verdict):
    """The radius lies in the certified core of the two-cycle interval,
    so it is on a two-cycle of radii."""

    __slots__ = ("region",)
    kind = "two-cycle-region"

    def __init__(self, region: Optional["LambdaInterval"] = None) -> None:
        _set(self, "region", region)


class EventuallyInLambda(Verdict):
    """The orbit reaches the certified core of the two-cycle interval
    after at least one step."""

    __slots__ = ("region",)
    kind = "eventually-in-lambda"

    def __init__(self, region: Optional["LambdaInterval"] = None) -> None:
        _set(self, "region", region)


class RadiusOrbitResult(Value):
    """A radius orbit from ``start``: the exponents ``q2s`` of the finite
    radii it visits, in order; ``end`` is the start itself when that is the
    zero or infinite radius, else None.  ``trajectory`` holds all as radii,
    built on first read."""

    __slots__ = ("start", "q2s", "end", "verdict", "__dict__")

    def __init__(
        self, start: Radius, q2s: Tuple[int, ...], end: Optional[Radius], verdict: Verdict
    ) -> None:
        _set(self, "start", start)
        _set(self, "q2s", q2s)
        _set(self, "end", end)
        _set(self, "verdict", verdict)

    @cached_property
    def trajectory(self) -> Tuple[Radius, ...]:
        radii = tuple(Radius.from_exponent(self.start.p, q2) for q2 in self.q2s)
        return radii if self.end is None else radii + (self.end,)


def _cycle(p: int, q2s: List[int]) -> Cycle:
    """The cycle through these exponents, rotated to start at the largest
    radius, orbit order preserved."""
    top = q2s.index(max(q2s))
    return Cycle(tuple(Radius.from_exponent(p, q2) for q2 in q2s[top:] + q2s[:top]))


def radius_orbit(
    r: Radius, spec: RadiusMapSpec, max_iter: int = 200
) -> RadiusOrbitResult:
    """Iterate the radius map mechanically, with escape certificates.

    Below the lower critical sphere with a contracting bottom zone the orbit
    can only shrink to zero, and above the upper sphere with an expanding
    top zone it can only blow up; both are certified without stepping.
    Otherwise steps are taken until a repeat (fixed radius or cycle), a
    critical sphere, or the iteration horizon.  Each step is one
    application of the map to the last exponent.
    """
    if r.p != spec.p:
        raise InvalidArgument("radius prime does not match the spec")
    (lo, _), (hi, _) = spec.spheres
    (_, d_bottom), _, (_, d_top) = spec.zones
    if not r.is_finite:  # zero and infinity are fixed
        return RadiusOrbitResult(r, (), r, FixedAt(r) if max_iter else HorizonExceeded())
    q2s: List[int] = [r.q2]
    seen: Dict[int, int] = {}  # q2 -> its index in q2s

    def result(verdict: Verdict) -> RadiusOrbitResult:
        return RadiusOrbitResult(r, tuple(q2s), None, verdict)

    for i in range(max_iter):
        q = q2s[-1]
        seen[q] = i
        if d_bottom < 0 and q < lo:
            return result(ToZero())
        if d_top > 0 and q > hi:
            return result(ToInfinity())
        nxt = _image(q, spec)
        if type(nxt) is not int:
            return result(NeedsCriticalValue(nxt[1]))
        if nxt == q:
            here = Radius.from_exponent(spec.p, q)
            return result(FixedAt(here) if i == 0 else EventuallyConstantAt(here, i))
        if nxt in seen:
            return result(_cycle(spec.p, q2s[seen[nxt] :]))
        q2s.append(nxt)
    return result(HorizonExceeded())


# ---------------------------------------------------------- exceptional sets


class ExceptionalSet(Value):
    """A ladder of lattice radii that land exactly on a critical sphere.

    Element k has exponent ``base_q2 + k * step_q2`` for k = 0, 1, 2, ...
    and reaches the sphere in exactly k steps of the scaling zone beyond
    it.  ``kind`` names the ladder as the paper does: "B" onto |c|, "H"
    onto |b| in the EQ regime, "L" onto |b| otherwise.
    """

    __slots__ = ("kind", "p", "base_q2", "step_q2")

    def __init__(self, kind: str, p: int, base_q2: int, step_q2: int) -> None:
        _set(self, "kind", kind)
        _set(self, "p", p)
        _set(self, "base_q2", base_q2)
        _set(self, "step_q2", step_q2)

    @classmethod
    def on(cls, spec: RadiusMapSpec, sphere: str) -> "ExceptionalSet":
        """The ladder onto the |sphere| sphere, read off the spec's tables:
        its base is the sphere's exponent, its step minus the shift of the
        top zone (onto |c|) or of the bottom zone (onto |b|)."""
        if sphere == "c":
            return cls("B", spec.p, spec.sphere_c().q2, -spec.zones[_ABOVE][1])
        kind = "H" if spec.regime is Regime.EQ else "L"
        return cls(kind, spec.p, spec.sphere_b().q2, -spec.zones[_BELOW][1])

    def element(self, k: int) -> Radius:
        if k < 0:
            raise InvalidArgument("ladder index must be >= 0")
        return Radius.from_exponent(self.p, self.base_q2 + k * self.step_q2)

    def member(self, r: Radius) -> Optional[int]:
        """The ladder index of r, or None if r is off the ladder."""
        if not r.is_finite:
            return None
        num = r.q2 - self.base_q2
        if self.step_q2 == 0:
            return 0 if num == 0 else None
        k, rem = divmod(num, self.step_q2)
        if rem != 0 or k < 0:
            return None
        return k


# ------------------------------------------------------------------ fixed set


class RadiusRay(Value):
    """An open zone of radii: all finite r < bound ("below") or > bound
    ("above")."""

    __slots__ = ("bound", "side")

    def __init__(self, bound: Radius, side: str) -> None:
        if side not in ("below", "above"):
            raise InvalidArgument("side must be 'below' or 'above'")
        _set(self, "bound", bound)
        _set(self, "side", side)


class FixSet(Value):
    """Fixed radii of the radius map.

    ``members`` holds the isolated finite fixed radius, the one the
    middle zone fixes, where there is one.  ``rays`` are whole zones fixed
    pointwise.  The zero and infinite radii are always fixed and are not
    listed; a critical sphere, whose image depends on the point, is not
    listed either.
    """

    __slots__ = ("members", "rays")

    def __init__(self, members: Tuple[Radius, ...], rays: Tuple[RadiusRay, ...]) -> None:
        _set(self, "members", members)
        _set(self, "rays", rays)


def fix_set(spec: RadiusMapSpec) -> FixSet:
    """The fixed radii (:class:`FixSet`), by cases on the regime, val(a) and s."""
    members: List[Radius] = []
    rays: List[RadiusRay] = []
    va, s, p = spec.val_a, spec.s, spec.p
    if spec.regime is Regime.LT:
        if s == 0:
            rays.append(RadiusRay(spec.sphere_b(), "below"))
        if va == 0:
            rays.append(RadiusRay(spec.sphere_c(), "above"))
        if va < 0 and s > 0:
            members.append(Radius.from_exponent(p, va - 2 * spec.val_c))
    elif spec.regime is Regime.EQ:
        if va == 0:
            rays.append(RadiusRay(spec.sphere_b(), "below"))
            rays.append(RadiusRay(spec.sphere_b(), "above"))
    else:
        if s == 0:
            rays.append(RadiusRay(spec.sphere_c(), "below"))
        if va == 0:
            rays.append(RadiusRay(spec.sphere_b(), "above"))
        if va > 0 and s < 0:
            members.append(Radius.from_exponent(p, -va - 2 * spec.val_b))
    return FixSet(tuple(members), tuple(rays))


# --------------------------------------------------------- the Lambda interval


class _RadExpr(Value):
    """Exact number x + y*sqrt(p) with rational x, y.

    Radii are single terms of this shape; differences and reflected
    endpoints need both.  Comparisons are exact: sqrt(p) is irrational, so
    mixed-sign terms are ordered by comparing x**2 against p*y**2.
    """

    __slots__ = ("p", "x", "y")

    def __init__(self, p: int, x: Fraction, y: Fraction) -> None:
        _set(self, "p", p)
        _set(self, "x", x)
        _set(self, "y", y)

    @classmethod
    def from_radius(cls, r: Radius) -> "_RadExpr":
        if not r.is_finite:
            raise InvalidArgument("only finite radii convert to expressions")
        if r.q2 % 2 == 0:
            return cls(r.p, Fraction(r.p) ** (r.q2 // 2), Fraction(0))
        return cls(r.p, Fraction(0), Fraction(r.p) ** ((r.q2 - 1) // 2))

    def _sign(self) -> int:
        sx, sy = (self.x > 0) - (self.x < 0), (self.y > 0) - (self.y < 0)
        if sx * sy >= 0:
            return sx or sy
        # x and y*sqrt(p) pull in opposite directions; the larger square wins
        lhs, rhs = self.x * self.x, self.p * self.y * self.y
        if lhs == rhs:
            # would force sqrt(p) rational
            raise InvalidArgument("degenerate comparison")
        return sx if lhs > rhs else sy

    def __sub__(self, other: "_RadExpr") -> "_RadExpr":
        return _RadExpr(self.p, self.x - other.x, self.y - other.y)

    def scaled(self, k: Rational) -> "_RadExpr":
        k = Fraction(k)
        return _RadExpr(self.p, k * self.x, k * self.y)

    def __lt__(self, other: "_RadExpr") -> bool:
        return (self - other)._sign() < 0

    def __gt__(self, other: "_RadExpr") -> bool:
        return (self - other)._sign() > 0

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        if self.x == 0:
            return f"{self.y}*sqrt({self.p})"
        return f"{self.x} + {self.y}*sqrt({self.p})"


class LambdaInterval(Value):
    """The open interval of radii symmetric about the inversion-fixed radius,
    together with the core window on which the pairing r <-> center**2/r is
    guaranteed to stay inside the inversion zone.

    ``lo`` and ``hi`` are the exact ends.  The lattice radii inside them
    are exactly those whose exponent lies in the range ``q2s``;
    :func:`lambda_interval` finds that window once, from the exact ends, so
    membership, in the interval as in the core, is an integer range test.

    Membership outside the core does not certify a two-cycle; the
    verification layer flags those members instead of trusting them.
    """

    __slots__ = ("p", "lo", "hi", "center", "core_lo", "core_hi", "q2s")

    def __init__(
        self,
        p: int,
        lo: _RadExpr,
        hi: _RadExpr,
        center: Radius,
        core_lo: Radius,
        core_hi: Radius,
        q2s: range,
    ) -> None:
        _set(self, "p", p)
        _set(self, "lo", lo)
        _set(self, "hi", hi)
        _set(self, "center", center)
        _set(self, "core_lo", core_lo)
        _set(self, "core_hi", core_hi)
        _set(self, "q2s", q2s)

    def contains(self, r: Radius) -> bool:
        return r.is_finite and r.q2 in self.q2s

    def in_core(self, r: Radius) -> bool:
        return r.is_finite and self.core_lo.q2 < r.q2 < self.core_hi.q2

    def lattice_members(self) -> Tuple[Radius, ...]:
        """All lattice radii p**(q2/2) inside the interval."""
        return tuple(Radius.from_exponent(self.p, q2) for q2 in self.q2s)

    def to_dict(self) -> dict:
        return {k: str(getattr(self, k)) for k in ("lo", "hi", "center", "core_lo", "core_hi")}


def lambda_interval(spec: RadiusMapSpec) -> LambdaInterval:
    """The symmetric two-cycle interval; only the GT regime with
    val(a) > 0 and s < 0 carries one.

    The exact ends are the reflections of |b| and |c| through the center,
    clipped to (|c|, |b|).  The center lies strictly inside, so the lattice
    radii of the interval form one run of exponents around it: the walk
    outward from the center, compared against the exact ends, stops at
    the exponent window ``q2s``.
    """
    if not spec.two_cycle_regime:
        raise InvalidRegime(
            "the two-cycle interval needs |b| > |c|, |a| < 1 and s < 0"
        )
    p = spec.p
    center = Radius.from_exponent(p, -spec.val_a - 2 * spec.val_b)
    rb = _RadExpr.from_radius(spec.sphere_b())
    rc = _RadExpr.from_radius(spec.sphere_c())
    rs = _RadExpr.from_radius(center)
    refl_b = rs.scaled(2) - rb
    refl_c = rs.scaled(2) - rc
    lo = refl_b if refl_b > rc else rc
    hi = refl_c if refl_c < rb else rb
    va, vb, vc = spec.val_a, spec.val_b, spec.val_c
    core_lo = Radius.from_exponent(p, max(-2 * vc, -2 * (va + vb)))
    core_hi = Radius.from_exponent(p, min(-2 * vb, -2 * (va + 2 * vb - vc)))

    def inside(q2: int) -> bool:
        e = _RadExpr.from_radius(Radius.from_exponent(p, q2))
        return lo < e and e < hi

    q2_lo = q2_hi = center.q2
    while inside(q2_lo - 1):
        q2_lo -= 1
    while inside(q2_hi + 1):
        q2_hi += 1
    return LambdaInterval(p, lo, hi, center, core_lo, core_hi, range(q2_lo, q2_hi + 1))


# ------------------------------------------------------- closed-form classifier


def _missing_crit_shortcut(name: str, spec: RadiusMapSpec) -> Optional[Verdict]:
    """The limit of a walk onto the |name| sphere when every image its
    bound allows provably leads there: every image of the sphere lies in a
    contracting bottom zone, or in an expanding top zone."""
    if spec.regime is Regime.EQ:
        return None  # the image of |x| = |b| is unbounded there
    (lo, _), (hi, _) = spec.spheres
    (_, d_bottom), _, (_, d_top) = spec.zones
    if name == "b":
        return ToZero() if d_bottom < 0 and spec.bound_b.q2 < lo else None
    return ToInfinity() if d_top > 0 and spec.bound_c.q2 > hi else None


def limit_classify(r: Radius, spec: RadiusMapSpec) -> Verdict:
    """Classify the fate of a radius orbit in closed form.

    Scaling zones are crossed in one exact jump, so the answer does not
    depend on any iteration horizon.  A walk that reaches a critical sphere
    ends there, as :class:`NeedsCriticalValue`, unless every image the
    sphere's bound allows provably yields the same limit.  In the two-cycle
    regime (|b| > |c|, |a| < 1, s < 0) a radius in the certified core of
    the symmetric interval is on a two-cycle, and a walk that reaches the
    core after step 0 ends there as :class:`EventuallyInLambda`.  A member
    of the interval outside the core may be on no two-cycle, so it is
    walked like any other radius.
    """
    if r.p != spec.p:
        raise InvalidArgument("radius prime does not match the spec")
    if not r.is_finite:
        return FixedAt(r)
    lam = spec.lambda_region if spec.two_cycle_regime else None
    if lam is not None and lam.in_core(r):
        return TwoCycleRegion(lam)

    p = spec.p
    (lo, _), (hi, _) = spec.spheres
    q, j = r.q2, 0

    def fixed_here() -> Verdict:
        here = Radius.from_exponent(p, q)
        return FixedAt(here) if j == 0 else EventuallyConstantAt(here, j)

    for _ in range(256):
        if j and lam is not None and lam.in_core(Radius.from_exponent(p, q)):
            return EventuallyInLambda(lam)
        zone, sphere = _locate(q, spec)
        if sphere is not None:
            shortcut = _missing_crit_shortcut(sphere[1], spec)
            return shortcut if shortcut is not None else NeedsCriticalValue(sphere[1])
        m, k = spec.zones[zone]
        if zone == _MID:
            nxt = m * q + k
            if nxt == q:
                return fixed_here()
            q, j = nxt, j + 1
            continue
        # scaling zone: q2 -> q2 + k, crossed in one jump onto or past the
        # sphere it moves towards
        if k == 0:
            return fixed_here()
        if zone == _BELOW and k < 0:
            return ToZero()
        if zone == _ABOVE and k > 0:
            return ToInfinity()
        n = max(1, -((q - (lo if zone == _BELOW else hi)) // k))  # ceil(gap / k)
        q, j = q + n * k, j + n
    return HorizonExceeded()  # defensive; the walk always terminates sooner
