"""Dynamics induced on absolute values by f(x) = a*x*((x+b)/(x+c))**2.

Over an ultrametric field the map f sends the sphere of radius r around 0
onto a predictable radius except on the two critical spheres r = |b| and
r = |c|, where the image radius depends on the point.  This module models
radii exactly (``unit * p**(q2/2)`` with a p-free rational unit), implements
the induced piecewise radius map and its orbits, the ladders of radii that
land exactly on a critical sphere, the set of fixed radii, the interval of
radii carrying two-cycles, and a closed-form limit classifier that decides
the fate of a radius orbit without step-by-step iteration.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Tuple, Union

from .exactnum import (
    TOP,
    ExactError,
    InvalidArgument,
    Rational,
    unit_part,
    vp_rat,
)

__all__ = [
    "InvalidRegime",
    "CriticalValueNeeded",
    "RadiusKind",
    "Radius",
    "Regime",
    "regime_of",
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
    "exceptional_set",
    "relevant_exceptional",
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
        super().__init__(
            f"radius map undetermined on the critical sphere |x| = {radius}; "
            f"supply crit_{sphere}"
        )
        self.sphere = sphere
        self.radius = radius


class RadiusKind(enum.Enum):
    ZERO = "zero"
    FINITE = "fin"
    INFINITE = "inf"


def _bits(q: Fraction) -> int:
    return q.numerator.bit_length() + q.denominator.bit_length()


@dataclass(frozen=True)
class Radius:
    """An exact radius ``unit * p**(q2/2)`` (plus the zero and infinite ones).

    ``unit`` is a positive rational with no factor of p; all powers of p are
    carried by the even-or-odd integer ``q2``, so half-integer exponents (the
    radii realized in ramified quadratic extensions) are exact.  ``unit == 1``
    radii are called *lattice* radii: they are the absolute values points can
    actually take.
    """

    p: int
    kind: RadiusKind = RadiusKind.FINITE
    unit: Fraction = Fraction(1)
    q2: int = 0

    def __post_init__(self) -> None:
        if self.kind is not RadiusKind.FINITE:
            object.__setattr__(self, "unit", Fraction(1))
            object.__setattr__(self, "q2", 0)
            return
        u = Fraction(self.unit)
        if u <= 0:
            raise InvalidArgument("a finite radius must be positive")
        v = vp_rat(u, self.p)
        if v != 0:
            object.__setattr__(self, "q2", self.q2 + 2 * v)
            u = unit_part(u, self.p)
        object.__setattr__(self, "unit", u)

    # ------------------------------------------------------------ constructors

    @classmethod
    def zero(cls, p: int) -> "Radius":
        return cls(p, RadiusKind.ZERO)

    @classmethod
    def infinite(cls, p: int) -> "Radius":
        return cls(p, RadiusKind.INFINITE)

    @classmethod
    def from_exponent(cls, p: int, q2: int, unit: Rational = 1) -> "Radius":
        """The radius unit * p**(q2/2)."""
        return cls(p, RadiusKind.FINITE, Fraction(unit), q2)

    @classmethod
    def from_val(cls, p: int, v) -> "Radius":
        """The radius p**(-v) of points of valuation v; TOP gives zero."""
        if v is TOP:
            return cls.zero(p)
        q2 = Fraction(-2 * v)
        if q2.denominator != 1:
            raise InvalidArgument(f"valuation must lie in (1/2)Z, got {v}")
        return cls(p, RadiusKind.FINITE, Fraction(1), int(q2))

    @classmethod
    def from_rational(cls, p: int, x: Rational) -> "Radius":
        """The radius whose value is the positive rational x."""
        x = Fraction(x)
        if x <= 0:
            raise InvalidArgument("radius value must be positive")
        return cls(p, RadiusKind.FINITE, x, 0)

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

    @property
    def is_lattice(self) -> bool:
        """True when the radius is an actual absolute value, p**(q2/2)."""
        return self.is_finite and self.unit == 1

    def value_as_fraction(self) -> Optional[Fraction]:
        """The exact rational value, when the exponent is integral."""
        if not self.is_finite or self.q2 % 2 != 0:
            return None
        return self.unit * Fraction(self.p) ** (self.q2 // 2)

    # ------------------------------------------------------------- arithmetic

    def scaled_by_power(self, e2: int) -> "Radius":
        """Multiply by p**(e2/2)."""
        if not self.is_finite:
            return self
        return Radius(self.p, RadiusKind.FINITE, self.unit, self.q2 + e2)

    def cubed(self) -> "Radius":
        if not self.is_finite:
            return self
        return Radius(self.p, RadiusKind.FINITE, self.unit**3, 3 * self.q2)

    def inverted_into(self, e2: int) -> "Radius":
        """r -> p**(e2/2) / r (zero and infinity swap)."""
        if self.is_zero:
            return Radius.infinite(self.p)
        if self.is_infinite:
            return Radius.zero(self.p)
        return Radius(self.p, RadiusKind.FINITE, 1 / self.unit, e2 - self.q2)

    # -------------------------------------------------------------- ordering

    def _cmp(self, other: "Radius") -> int:
        if not isinstance(other, Radius):
            raise InvalidArgument("radii compare only with radii")
        if other.p != self.p:
            raise InvalidArgument("radii with different primes do not compare")
        rank = {RadiusKind.ZERO: 0, RadiusKind.FINITE: 1, RadiusKind.INFINITE: 2}
        ra, rb = rank[self.kind], rank[other.kind]
        if ra != rb:
            return -1 if ra < rb else 1
        if self.kind is not RadiusKind.FINITE:
            return 0
        d = self.q2 - other.q2
        if self.unit == other.unit:
            return (d > 0) - (d < 0)
        # Dominance shortcut: |log2 of the unit ratio squared| is below
        # 2*(bit sizes); p**d with p >= 2 overwhelms it past that, so giant
        # powers never need materializing.
        slack = 2 * (_bits(self.unit) + _bits(other.unit)) + 8
        if d > slack:
            return 1
        if d < -slack:
            return -1
        lhs = self.unit * self.unit * Fraction(self.p) ** d
        rhs = other.unit * other.unit
        return (lhs > rhs) - (lhs < rhs)

    def __lt__(self, other: "Radius") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "Radius") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "Radius") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "Radius") -> bool:
        return self._cmp(other) >= 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_infinite:
            return "inf"
        if self.unit == 1:
            if self.q2 == 0:
                return "1"
            if self.q2 % 2 == 0:
                return f"{self.p}^{self.q2 // 2}"
            return f"{self.p}^{self.q2}/2"
        if self.q2 % 2 == 0:
            return str(self.value_as_fraction())
        return f"{self.unit}*{self.p}^{self.q2}/2"


class Regime(enum.Enum):
    """Relative position of the two critical spheres |b| and |c|."""

    LT = "|b|<|c|"
    EQ = "|b|=|c|"
    GT = "|b|>|c|"


def regime_of(p: int, a: Rational, b: Rational, c: Rational) -> Regime:
    vb, vc = vp_rat(Fraction(b), p), vp_rat(Fraction(c), p)
    if vb is TOP or vc is TOP:
        raise InvalidArgument("b and c must be nonzero")
    if vb > vc:
        return Regime.LT
    if vb == vc:
        return Regime.EQ
    return Regime.GT


@dataclass(frozen=True)
class RadiusMapSpec:
    """Everything the radius map needs: the regime, the three valuations,
    and (optionally) the image radii chosen on the critical spheres.

    The image of the critical sphere |x| = |b| is only constrained to a
    closed ball, and the image of |x| = |c| to the complement of an open
    ball; ``crit_b``/``crit_c`` pin the actual image radius for the orbit
    under study.  Bounds are validated on construction.
    """

    p: int
    regime: Regime
    val_a: int
    val_b: int
    val_c: int
    crit_b: Optional[Radius] = None
    crit_c: Optional[Radius] = None

    @classmethod
    def from_params(
        cls,
        p: int,
        a: Rational,
        b: Rational,
        c: Rational,
        crit_b: Optional[Radius] = None,
        crit_c: Optional[Radius] = None,
    ) -> "RadiusMapSpec":
        va = vp_rat(Fraction(a), p)
        if va is TOP:
            raise InvalidArgument("a must be nonzero")
        regime = regime_of(p, a, b, c)
        return cls(
            p,
            regime,
            va,
            vp_rat(Fraction(b), p),
            vp_rat(Fraction(c), p),
            crit_b,
            crit_c,
        )

    def __post_init__(self) -> None:
        if self.crit_c is not None and self.regime is Regime.EQ:
            raise InvalidArgument(
                "the EQ regime has a single critical sphere; use crit_b"
            )
        if self.crit_b is not None:
            r = self.crit_b
            if r.p != self.p:
                raise InvalidArgument("crit_b prime mismatch")
            if r.is_infinite and self.regime is not Regime.EQ:
                # Off the EQ regime the pole lies strictly inside or outside
                # the sphere, so the image of |x| = |b| stays finite.
                raise InvalidArgument("the image of |x|=|b| is never infinite")
            if (
                self.regime is not Regime.EQ
                and r.is_finite
                and r > self.bound_b
            ):
                raise InvalidArgument(
                    f"crit_b = {r} exceeds the admissible bound {self.bound_b}"
                )
        if self.crit_c is not None:
            r = self.crit_c
            if r.p != self.p:
                raise InvalidArgument("crit_c prime mismatch")
            if r.is_zero:
                raise InvalidArgument("the image of |x|=|c| is never zero")
            if r.is_finite and r < self.bound_c:
                raise InvalidArgument(
                    f"crit_c = {r} is below the admissible bound {self.bound_c}"
                )

    # ------------------------------------------------------------ derived data

    @property
    def s(self) -> int:
        """val(a) + 2 val(b) - 2 val(c): the bottom-zone contraction exponent."""
        return self.val_a + 2 * self.val_b - 2 * self.val_c

    def sphere_b(self) -> Radius:
        return Radius.from_exponent(self.p, -2 * self.val_b)

    def sphere_c(self) -> Radius:
        return Radius.from_exponent(self.p, -2 * self.val_c)

    @property
    def bound_b(self) -> Radius:
        """Largest admissible crit_b (the closed ball containing f(S_|b|))."""
        if self.regime is Regime.LT:
            # |a b^3 / c^2|
            return Radius.from_exponent(
                self.p, -2 * (self.val_a + 3 * self.val_b - 2 * self.val_c)
            )
        if self.regime is Regime.GT:
            # |a b|
            return Radius.from_exponent(self.p, -2 * (self.val_a + self.val_b))
        raise InvalidRegime("crit_b is unbounded in the EQ regime")

    @property
    def bound_c(self) -> Radius:
        """Smallest admissible crit_c (f(S_|c|) avoids the open ball below it)."""
        if self.regime is Regime.LT:
            # |a c|
            return Radius.from_exponent(self.p, -2 * (self.val_a + self.val_c))
        if self.regime is Regime.GT:
            # |a b^2 / c|
            return Radius.from_exponent(
                self.p, -2 * (self.val_a + 2 * self.val_b - self.val_c)
            )
        raise InvalidRegime("the EQ regime has no |c| critical sphere")

    def crit_for(self, sphere: str) -> Optional[Radius]:
        if sphere == "b":
            return self.crit_b
        if sphere == "c":
            return self.crit_c
        raise InvalidArgument(f"unknown critical sphere {sphere!r}")

    @property
    def low_sphere(self) -> Radius:
        return self.sphere_c() if self.regime is Regime.GT else self.sphere_b()

    @property
    def high_sphere(self) -> Radius:
        if self.regime is Regime.LT:
            return self.sphere_c()
        return self.sphere_b()

    @property
    def low_name(self) -> str:
        return "c" if self.regime is Regime.GT else "b"

    @property
    def high_name(self) -> str:
        return "c" if self.regime is Regime.LT else "b"

    @property
    def bottom_delta_q2(self) -> int:
        """q2 shift per step strictly below the lower critical sphere."""
        if self.regime is Regime.EQ:
            return -2 * self.val_a
        return -2 * self.s

    @property
    def top_delta_q2(self) -> int:
        """q2 shift per step strictly above the upper critical sphere."""
        return -2 * self.val_a


def _locate(r: Radius, spec: RadiusMapSpec) -> str:
    """Zone of a finite radius: below / low / mid / high / above."""
    low, high = spec.low_sphere, spec.high_sphere
    c = r._cmp(low)
    if c < 0:
        return "below"
    if c == 0:
        return "low"
    if spec.regime is Regime.EQ:
        return "above"
    c = r._cmp(high)
    if c < 0:
        return "mid"
    if c == 0:
        return "high"
    return "above"


def radius_step(r: Radius, spec: RadiusMapSpec) -> Radius:
    """One application of the induced radius map.

    Raises :class:`CriticalValueNeeded` on a critical sphere whose image
    radius was not supplied.
    """
    if r.p != spec.p:
        raise InvalidArgument("radius prime does not match the spec")
    if r.is_zero or r.is_infinite:
        return r
    zone = _locate(r, spec)
    if zone in ("low", "high"):
        name = spec.low_name if zone == "low" else spec.high_name
        crit = spec.crit_for(name)
        if crit is None:
            raise CriticalValueNeeded(name, r)
        return crit
    if zone == "below":
        return r.scaled_by_power(spec.bottom_delta_q2)
    if zone == "above":
        return r.scaled_by_power(spec.top_delta_q2)
    # mid zone
    if spec.regime is Regime.LT:
        return r.cubed().scaled_by_power(2 * (2 * spec.val_c - spec.val_a))
    return r.inverted_into(-2 * (spec.val_a + 2 * spec.val_b))


# ------------------------------------------------------------------- verdicts


class Verdict:
    """Base class for radius-orbit classifications."""

    kind: ClassVar[str] = ""

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for f in dataclasses.fields(self):  # type: ignore[arg-type]
            out[f.name] = _serialize(getattr(self, f.name))
        return out


def _serialize(v):
    if isinstance(v, Radius):
        return str(v)
    if isinstance(v, tuple):
        return [_serialize(x) for x in v]
    if isinstance(v, LambdaInterval):
        return v.to_dict()
    return v


@dataclass(frozen=True)
class ToZero(Verdict):
    """The radius orbit converges to (possibly lands exactly on) zero."""

    kind: ClassVar[str] = "to-zero"


@dataclass(frozen=True)
class ToInfinity(Verdict):
    kind: ClassVar[str] = "to-infinity"


@dataclass(frozen=True)
class FixedAt(Verdict):
    """The starting radius itself is fixed."""

    kind: ClassVar[str] = "fixed"
    radius: Radius = None  # type: ignore[assignment]


@dataclass(frozen=True)
class Cycle(Verdict):
    """The orbit enters an exact cycle of radii (period = len(radii)).

    The tuple is canonical: rotated to start at the largest radius, orbit
    order preserved.
    """

    kind: ClassVar[str] = "cycle"
    radii: Tuple[Radius, ...] = ()


@dataclass(frozen=True)
class EventuallyConstantAt(Verdict):
    """The orbit lands exactly on a fixed radius at the given index."""

    kind: ClassVar[str] = "eventually-constant"
    radius: Radius = None  # type: ignore[assignment]
    index: int = 0


@dataclass(frozen=True)
class NeedsCriticalValue(Verdict):
    """Classification stops on a critical sphere with no image supplied."""

    kind: ClassVar[str] = "needs-critical-value"
    sphere: str = ""


@dataclass(frozen=True)
class HorizonExceeded(Verdict):
    kind: ClassVar[str] = "horizon-exceeded"


@dataclass(frozen=True)
class TwoCycleRegion(Verdict):
    """The radius lies in the interval whose members pair into two-cycles."""

    kind: ClassVar[str] = "two-cycle-region"
    region: "LambdaInterval" = None  # type: ignore[assignment]


@dataclass(frozen=True)
class EventuallyInLambda(Verdict):
    """The orbit is claimed to enter the two-cycle interval eventually."""

    kind: ClassVar[str] = "eventually-in-lambda"
    region: "LambdaInterval" = None  # type: ignore[assignment]


def _canonical_cycle(radii: Tuple[Radius, ...]) -> Tuple[Radius, ...]:
    top = 0
    for i in range(1, len(radii)):
        if radii[i] > radii[top]:
            top = i
    return radii[top:] + radii[:top]


@dataclass(frozen=True)
class RadiusOrbitResult:
    trajectory: Tuple[Radius, ...]
    verdict: Verdict


def radius_orbit(
    r: Radius, spec: RadiusMapSpec, max_iter: int = 200
) -> RadiusOrbitResult:
    """Iterate the radius map mechanically, with escape certificates.

    Below the lower critical sphere with a contracting bottom zone the orbit
    can only shrink to zero, and above the upper sphere with an expanding
    top zone it can only blow up; both are certified without stepping.
    Otherwise steps are taken until a repeat (fixed radius or cycle), a
    critical sphere with no supplied image, or the iteration horizon.
    """
    traj: List[Radius] = [r]
    seen: Dict[Radius, int] = {r: 0}
    cur = r
    for i in range(max_iter):
        if cur.is_finite:
            if spec.bottom_delta_q2 < 0 and cur < spec.low_sphere:
                return RadiusOrbitResult(tuple(traj), ToZero())
            if spec.top_delta_q2 > 0 and cur > spec.high_sphere:
                return RadiusOrbitResult(tuple(traj), ToInfinity())
        try:
            nxt = radius_step(cur, spec)
        except CriticalValueNeeded as e:
            return RadiusOrbitResult(tuple(traj), NeedsCriticalValue(e.sphere))
        if nxt == cur:
            verdict = (
                FixedAt(cur) if i == 0 else EventuallyConstantAt(cur, i)
            )
            return RadiusOrbitResult(tuple(traj), verdict)
        if nxt in seen:
            cycle = tuple(traj[seen[nxt] :])
            return RadiusOrbitResult(
                tuple(traj), Cycle(_canonical_cycle(cycle))
            )
        traj.append(nxt)
        seen[nxt] = i + 1
        cur = nxt
    return RadiusOrbitResult(tuple(traj), HorizonExceeded())


# ---------------------------------------------------------- exceptional sets


@dataclass(frozen=True)
class ExceptionalSet:
    """A ladder of lattice radii that land exactly on a critical sphere.

    kind "B": |a|**-k * |c|   (q2 = -2 val_c + 2 k val_a),
    kind "H": |a|**-k * |b|   (q2 = -2 val_b + 2 k val_a),
    kind "L": |a**-k b**(1-2k) c**(2k)|
                              (q2 = -2 val_b + 2 k s),
    all for k = 0, 1, 2, ...; the k-th element reaches its sphere in
    exactly k steps of the appropriate scaling zone.
    """

    kind: str
    p: int
    val_a: int
    val_b: int
    val_c: int

    def __post_init__(self) -> None:
        if self.kind not in ("B", "H", "L"):
            raise InvalidArgument(f"unknown exceptional-set kind {self.kind!r}")

    @property
    def base_q2(self) -> int:
        return -2 * self.val_c if self.kind == "B" else -2 * self.val_b

    @property
    def step_q2(self) -> int:
        if self.kind == "L":
            return 2 * (self.val_a + 2 * self.val_b - 2 * self.val_c)
        return 2 * self.val_a

    def element(self, k: int) -> Radius:
        if k < 0:
            raise InvalidArgument("ladder index must be >= 0")
        return Radius.from_exponent(self.p, self.base_q2 + k * self.step_q2)

    def member(self, r: Radius) -> Optional[int]:
        """The ladder index of r, or None if r is off the ladder."""
        if not r.is_lattice:
            return None
        num = r.q2 - self.base_q2
        if self.step_q2 == 0:
            return 0 if num == 0 else None
        k, rem = divmod(num, self.step_q2)
        if rem != 0 or k < 0:
            return None
        return k


def exceptional_set(spec: RadiusMapSpec, kind: str) -> ExceptionalSet:
    return ExceptionalSet(kind, spec.p, spec.val_a, spec.val_b, spec.val_c)


def relevant_exceptional(spec: RadiusMapSpec) -> Optional[ExceptionalSet]:
    """The ladder appearing in the limit classification of this regime,
    or None when no radius outside the critical spheres ever reaches one."""
    va, s = spec.val_a, spec.s
    if spec.regime is Regime.LT:
        if va >= 0:
            return exceptional_set(spec, "B")
        if s < 0:
            return exceptional_set(spec, "L")
        return None  # va < 0, s >= 0: flows part, nothing lands
    if spec.regime is Regime.EQ:
        return exceptional_set(spec, "H")
    # GT
    if va > 0 and s >= 0:
        return exceptional_set(spec, "B")
    if va > 0 and s < 0:
        return None  # two-cycle case
    return exceptional_set(spec, "L")


# ------------------------------------------------------------------ fixed set


@dataclass(frozen=True)
class RadiusRay:
    """An open zone of radii: all finite r < bound ("below") or > bound
    ("above")."""

    bound: Radius
    side: str

    def __post_init__(self) -> None:
        if self.side not in ("below", "above"):
            raise InvalidArgument("side must be 'below' or 'above'")

    def contains(self, r: Radius) -> bool:
        if not r.is_finite:
            return False
        return r < self.bound if self.side == "below" else r > self.bound


@dataclass(frozen=True)
class FixSet:
    """Fixed radii of the radius map.

    ``members`` are the isolated finite fixed radii, ``rays`` are whole
    zones fixed pointwise, and ``conditional`` names critical spheres whose
    fixedness depends on an unsupplied critical value.  The zero and
    infinite radii are always fixed and are not listed.
    """

    members: Tuple[Radius, ...]
    rays: Tuple[RadiusRay, ...]
    conditional: Tuple[str, ...]

    def contains(self, r: Radius) -> Optional[bool]:
        """True/False when decidable; None when it hinges on a missing
        critical value."""
        if r.is_zero or r.is_infinite:
            return True
        if r in self.members:
            return True
        if any(ray.contains(r) for ray in self.rays):
            return True
        return None if self.conditional else False


def fix_set(spec: RadiusMapSpec) -> FixSet:
    members: List[Radius] = []
    rays: List[RadiusRay] = []
    conditional: List[str] = []
    va, s, p = spec.val_a, spec.s, spec.p
    if spec.regime is Regime.LT:
        if s == 0:
            rays.append(RadiusRay(spec.sphere_b(), "below"))
        if va == 0:
            rays.append(RadiusRay(spec.sphere_c(), "above"))
        if va < 0 and s > 0:
            members.append(Radius.from_exponent(p, va - 2 * spec.val_c))
        sphere_pairs = [("b", spec.sphere_b()), ("c", spec.sphere_c())]
    elif spec.regime is Regime.EQ:
        if va == 0:
            rays.append(RadiusRay(spec.sphere_b(), "below"))
            rays.append(RadiusRay(spec.sphere_b(), "above"))
        sphere_pairs = [("b", spec.sphere_b())]
    else:
        if s == 0:
            rays.append(RadiusRay(spec.sphere_c(), "below"))
        if va == 0:
            rays.append(RadiusRay(spec.sphere_b(), "above"))
        if va > 0 and s < 0:
            members.append(Radius.from_exponent(p, -va - 2 * spec.val_b))
        sphere_pairs = [("c", spec.sphere_c()), ("b", spec.sphere_b())]
    for name, sphere in sphere_pairs:
        crit = spec.crit_for(name)
        if crit is None:
            conditional.append(name)
        elif crit == sphere:
            members.append(sphere)
    members.sort(key=lambda r: (r.q2, r.unit))
    return FixSet(tuple(members), tuple(rays), tuple(conditional))


# --------------------------------------------------------- the Lambda interval


@dataclass(frozen=True)
class _RadExpr:
    """Exact number x + y*sqrt(p) with rational x, y.

    Radii are single terms of this shape; differences and reflected
    endpoints need both.  Comparisons are exact: sqrt(p) is irrational, so
    mixed-sign terms are ordered by comparing x**2 against p*y**2.
    """

    p: int
    x: Fraction
    y: Fraction

    @classmethod
    def from_radius(cls, r: Radius) -> "_RadExpr":
        if not r.is_finite:
            raise InvalidArgument("only finite radii convert to expressions")
        if r.q2 % 2 == 0:
            return cls(r.p, r.unit * Fraction(r.p) ** (r.q2 // 2), Fraction(0))
        return cls(
            r.p, Fraction(0), r.unit * Fraction(r.p) ** ((r.q2 - 1) // 2)
        )

    def _sign(self) -> int:
        if self.x == 0 and self.y == 0:
            return 0
        if self.y == 0:
            return 1 if self.x > 0 else -1
        if self.x == 0:
            return 1 if self.y > 0 else -1
        if (self.x > 0) == (self.y > 0):
            return 1 if self.x > 0 else -1
        # x and y*sqrt(p) pull in opposite directions; the larger square wins
        lhs, rhs = self.x * self.x, self.p * self.y * self.y
        if lhs == rhs:
            # would force sqrt(p) rational
            raise InvalidArgument("degenerate comparison")
        big_is_x = lhs > rhs
        pos = self.x > 0 if big_is_x else self.y > 0
        return 1 if pos else -1

    def __sub__(self, other: "_RadExpr") -> "_RadExpr":
        return _RadExpr(self.p, self.x - other.x, self.y - other.y)

    def __add__(self, other: "_RadExpr") -> "_RadExpr":
        return _RadExpr(self.p, self.x + other.x, self.y + other.y)

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


@dataclass(frozen=True)
class LambdaInterval:
    """The open interval of radii symmetric about the inversion-fixed radius,
    together with the core window on which the pairing r <-> center**2/r is
    guaranteed to stay inside the inversion zone.

    Membership outside the core does not certify a two-cycle; the
    verification layer flags those members instead of trusting them.
    """

    p: int
    lo: _RadExpr
    hi: _RadExpr
    center: Radius
    core_lo: Radius
    core_hi: Radius

    def contains(self, r: Radius) -> bool:
        if not r.is_finite:
            return False
        e = _RadExpr.from_radius(r)
        return self.lo < e and e < self.hi

    def in_core(self, r: Radius) -> bool:
        return r.is_finite and self.core_lo < r and r < self.core_hi

    def partner(self, r: Radius) -> Radius:
        """The involution partner center**2 / r."""
        return r.inverted_into(2 * self.center.q2)

    def lattice_members(self) -> Tuple[Radius, ...]:
        """All lattice radii p**(q2/2) inside the interval."""
        out: List[Radius] = []
        q2 = self.center.q2
        while True:  # downward from the center (inclusive)
            r = Radius.from_exponent(self.p, q2)
            if not self.contains(r):
                break
            out.append(r)
            q2 -= 1
        out.reverse()
        q2 = self.center.q2 + 1
        while True:  # upward
            r = Radius.from_exponent(self.p, q2)
            if not self.contains(r):
                break
            out.append(r)
            q2 += 1
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "center": str(self.center),
            "core_lo": str(self.core_lo),
            "core_hi": str(self.core_hi),
        }


def lambda_interval(spec: RadiusMapSpec) -> LambdaInterval:
    """The symmetric two-cycle interval; only the GT regime with
    val(a) > 0 and s < 0 carries one."""
    if not (spec.regime is Regime.GT and spec.val_a > 0 and spec.s < 0):
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
    core_lo = max(
        spec.sphere_c(),
        Radius.from_exponent(p, -2 * (spec.val_a + spec.val_b)),
    )
    core_hi = min(
        spec.sphere_b(),
        Radius.from_exponent(
            p, -2 * (spec.val_a + 2 * spec.val_b - spec.val_c)
        ),
    )
    return LambdaInterval(p, lo, hi, center, core_lo, core_hi)


# ------------------------------------------------------- closed-form classifier


def _crossing(
    r: Radius, delta_q2: int, target: Radius
) -> Tuple[int, Radius]:
    """Smallest k >= 1 after which r * p**(k*delta/2) has crossed (reached
    or passed) the target sphere, with the landing radius.

    delta > 0 crosses upward, delta < 0 downward.  Exact: binary search on
    the monotone predicate, using radius comparisons only.
    """
    up = delta_q2 > 0
    gap = abs(target.q2 - r.q2)
    hi = max(1, gap // abs(delta_q2) + (_bits(r.unit) + _bits(target.unit)) + 4)

    def crossed(k: int) -> bool:
        land = r.scaled_by_power(k * delta_q2)
        return land >= target if up else land <= target

    while not crossed(hi):  # defensive; the bound above already suffices
        hi *= 2
    lo = 1
    while lo < hi:
        mid = (lo + hi) // 2
        if crossed(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo, r.scaled_by_power(lo * delta_q2)


def _missing_crit_shortcut(
    name: str, spec: RadiusMapSpec
) -> Optional[Verdict]:
    """When every admissible critical value provably leads to the same
    limit, classification proceeds without one."""
    if spec.regime is Regime.EQ:
        return None  # crit_b is unconstrained there
    if name == "b":
        if spec.bottom_delta_q2 < 0 and spec.bound_b < spec.low_sphere:
            return ToZero()
        return None
    if spec.top_delta_q2 > 0 and spec.bound_c > spec.high_sphere:
        return ToInfinity()
    return None


def limit_classify(
    r: Radius, spec: RadiusMapSpec, cycle_cap: int = 100_000
) -> Verdict:
    """Classify the fate of a radius orbit in closed form.

    Scaling zones are crossed in one exact jump, so the answer does not
    depend on any iteration horizon.  On a critical sphere the supplied
    critical value is followed; with none supplied the verdict is
    :class:`NeedsCriticalValue` unless every admissible value provably
    yields the same limit.  In the two-cycle regime (|b| > |c|, |a| < 1,
    s < 0) membership of the symmetric interval is reported instead.
    """
    if r.p != spec.p:
        raise InvalidArgument("radius prime does not match the spec")
    if r.is_zero or r.is_infinite:
        return FixedAt(r)
    if spec.regime is Regime.GT and spec.val_a > 0 and spec.s < 0:
        region = lambda_interval(spec)
        if region.contains(r):
            return TwoCycleRegion(region)
        return EventuallyInLambda(region)

    cur, j = r, 0
    hits: Dict[str, int] = {}
    log: Optional[List[Radius]] = None
    log_base = 0

    def fixed_here() -> Verdict:
        return FixedAt(cur) if j == 0 else EventuallyConstantAt(cur, j)

    for _ in range(256):
        if cur.is_zero or cur.is_infinite:
            return fixed_here()
        zone = _locate(cur, spec)
        if zone in ("low", "high"):
            name = spec.low_name if zone == "low" else spec.high_name
            crit = spec.crit_for(name)
            if crit is None:
                shortcut = _missing_crit_shortcut(name, spec)
                return shortcut if shortcut is not None else NeedsCriticalValue(name)
            if crit == cur:
                return fixed_here()
            if name in hits:
                # log[-1] is the re-hit sphere itself; the cycle runs from
                # the first hit up to (not including) it.
                assert log is not None
                cycle = tuple(log[hits[name] - log_base : -1])
                return Cycle(_canonical_cycle(cycle))
            hits[name] = j
            if log is None:
                log = [cur]
                log_base = j
            cur = crit
            j += 1
            log.append(cur)
            continue
        if zone == "mid":
            nxt = radius_step(cur, spec)
            if nxt == cur:
                return fixed_here()
            cur = nxt
            j += 1
            if log is not None:
                log.append(cur)
            continue
        # scaling zone
        delta = (
            spec.bottom_delta_q2 if zone == "below" else spec.top_delta_q2
        )
        if delta == 0:
            return fixed_here()
        if zone == "below" and delta < 0:
            return ToZero()
        if zone == "above" and delta > 0:
            return ToInfinity()
        target = spec.low_sphere if zone == "below" else spec.high_sphere
        k, land = _crossing(cur, delta, target)
        if log is not None:
            if len(log) + k > cycle_cap:
                return HorizonExceeded()
            log.extend(
                cur.scaled_by_power(i * delta) for i in range(1, k + 1)
            )
        cur = land
        j += k
    return HorizonExceeded()  # defensive; the walk always terminates sooner
