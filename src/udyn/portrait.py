"""Phase-portrait classifier: the full claim set for a parameter choice.

Given validated parameters, ``classify`` picks the unique applicable case
of the limit theory (by regime, |a| against 1, and |ab^2| against |c^2|)
and emits every claim that case makes — invariant spheres, basins,
Siegel disks, escape regions, exceptional-ladder conditionals, and
fixed-point locations/characters — as structured data with exact radii.

``case_of`` looks the leaf up in ``_LEAVES`` by the regime and the signs
of v(a) and s.  The claims come from one case table, ``_CASES``, with a
row per leaf.  Each row names the radius its claims refer to: a critical
sphere, or the radius the middle zone fixes.  A ladder row's ladder is the
one onto its sphere, ``ExceptionalSet.on``.  Eight leaves (T1.2, T1.4.3-5,
T2.A, T2.C, T3.II, T3.III, T3.V, T3.VI) share a ladder skeleton: an
optional invariant sphere, the fate off the exceptional ladder,
enters-sphere on it, the fate under the condition that the critical value
misses the ladder, returns-to-sphere when it hits it, then the fixed-point
locations and characters.  Their rows differ only in tags, the critical
sphere (b or c), the fate (limit-zero, escape or
eventually-constant-radius), where the conditional fate is claimed (on the
ladder or on the sphere), the location relation and the admissible
characters.  The other five leaves list their claims directly.  Where
p = 2 changes the admissible characters, the row points to a small rule
over the valuations.

Claims are never silently corrected: where the computed algebra
contradicts a claim (boundary fixed-point locations, the distance
formula, some p = 2 characters), the portrait carries an explicit flag
and both values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Tuple

from ._value import Value, _set
from .exactnum import InvalidArgument, vp_rat
from .mapengine import (
    FixedPointInfo,
    MapParams,
    fixed_points,
)
from .radiusmaps import (
    ExceptionalSet,
    LambdaInterval,
    Radius,
    RadiusMapSpec,
    Regime,
    _serialize,
)

# ------------------------------------------------------------------- regions


def _ladder_dict(eset: ExceptionalSet) -> dict:
    return {
        "kind": eset.kind,
        "step_q2": eset.step_q2,
        "elements": [str(eset.element(k)) for k in range(4)],
    }


class Region(Value):
    """A set of (finite) radii a claim quantifies over.

    kinds: sphere | ball | closed-ball | above | all-but-sphere |
    on-ladder | off-ladder | interval | off-interval.  Balls contain the
    zero radius; every other kind excludes it.
    """

    __slots__ = ("kind", "radius", "ladder", "interval")

    def __init__(
        self,
        kind: str,
        radius: Optional[Radius] = None,
        ladder: Optional[ExceptionalSet] = None,
        interval: Optional[LambdaInterval] = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "radius", radius)
        _set(self, "ladder", ladder)
        _set(self, "interval", interval)

    def contains(self, r: Radius) -> bool:
        if r.is_infinite:
            return False
        if r.is_zero:
            return self.kind in ("ball", "closed-ball")
        if self.kind == "sphere":
            return r == self.radius
        if self.kind == "ball":
            return r < self.radius
        if self.kind == "closed-ball":
            return r <= self.radius
        if self.kind == "above":
            return r > self.radius
        if self.kind == "all-but-sphere":
            return r != self.radius
        if self.kind == "on-ladder":
            return self.ladder.member(r) is not None
        if self.kind == "off-ladder":
            return self.ladder.member(r) is None
        if self.kind == "interval":
            return self.interval.contains(r)
        if self.kind == "off-interval":
            return not self.interval.contains(r)
        raise InvalidArgument(f"unknown region kind {self.kind!r}")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.radius is not None:
            out["radius"] = str(self.radius)
        if self.ladder is not None:
            out["ladder"] = _ladder_dict(self.ladder)
        if self.interval is not None:
            out["interval"] = self.interval.to_dict()
        return out


# -------------------------------------------------------------------- claims


class Claim(Value):
    """One machine-checkable statement, tagged with its case item."""

    __slots__ = ("tag", "kind", "region", "details")

    def __init__(
        self, tag: str, kind: str, region: Optional[Region] = None, details: tuple = ()
    ) -> None:
        _set(self, "tag", tag)
        _set(self, "kind", kind)
        _set(self, "region", region)
        _set(self, "details", details)

    @classmethod
    def make(cls, tag: str, kind: str, region: Optional[Region] = None, **details) -> "Claim":
        return cls(tag, kind, region, tuple(sorted(details.items())))

    def detail(self, key: str):
        """The value of a detail; None when the claim has no such key."""
        for k, v in self.details:
            if k == key:
                return v
        return None

    def to_dict(self) -> dict:
        out: dict = {"tag": self.tag, "kind": self.kind}
        if self.region is not None:
            out["region"] = self.region.to_dict()
        for k, v in self.details:
            out[k] = _serialize(v)
        return out


# ------------------------------------------------------------ case dispatch


# Leaves of the case tree by (regime, sign of v(a)) or, where |ab^2|
# against |c^2| splits the leaf, (regime, sign of v(a), sign of s).
_LEAVES = {
    (Regime.LT, 1): "T1.2",
    (Regime.LT, 0): "T1.3",
    (Regime.LT, -1, 1): "T1.4.1",
    (Regime.LT, -1, 0): "T1.4.2",
    (Regime.LT, -1, -1): "T1.4.3-5",
    (Regime.EQ, 1): "T2.A",
    (Regime.EQ, 0): "T2.B",
    (Regime.EQ, -1): "T2.C",
    (Regime.GT, 1, 1): "T3.II",
    (Regime.GT, 1, 0): "T3.III",
    (Regime.GT, 1, -1): "T3.IV",
    (Regime.GT, 0): "T3.V",
    (Regime.GT, -1): "T3.VI",
}


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def case_of(spec: RadiusMapSpec) -> Tuple[str, str]:
    """(theorem, case) identifiers for the unique applicable leaf."""
    key = (spec.regime, _sign(spec.val_a))
    case = _LEAVES.get(key) or _LEAVES[key + (_sign(spec.s),)]
    return case.split(".")[0], case


# ---------------------------------------------------------------- portraits


@dataclass(frozen=True)
class PhasePortrait:
    params: MapParams
    theorem: str
    case: str
    claims: Tuple[Claim, ...]
    fixed_points: Tuple[FixedPointInfo, FixedPointInfo, FixedPointInfo]
    exceptional: Optional[ExceptionalSet]
    lambda_region: Optional[LambdaInterval]
    flags: Tuple[str, ...]

    def claims_of_kind(self, *kinds: str) -> Tuple[Claim, ...]:
        return tuple(c for c in self.claims if c.kind in kinds)

    def to_dict(self) -> dict:
        out = {
            "schema": 1,
            "params": self.params.to_dict(),
            "regime": self.params.radius_spec().regime.name,
            "theorem": self.theorem,
            "case": self.case,
            "claims": [c.to_dict() for c in self.claims],
            "fixed_points": [i.to_dict() for i in self.fixed_points],
            "flags": list(self.flags),
            "exceptional": None,
            "lambda": None,
        }
        if self.exceptional is not None:
            out["exceptional"] = _ladder_dict(self.exceptional)
        if self.lambda_region is not None:
            out["lambda"] = self.lambda_region.to_dict()
        return out


# ------------------------------------------------------- fixed-point claims


# fp-location relations: |x_i| against the stated radius
_RELATIONS = {
    "on-sphere": operator.eq,
    "in-closed-ball": operator.le,
    "off-closed-ball": operator.gt,
}


def _fp_location_claims(
    tag: str,
    relation: str,
    rho: Radius,
    infos,
    p: int,
    flags: set,
) -> list:
    claims = []
    for info in infos[1:]:
        where = Radius.from_val(p, info.location_val)
        agree = _RELATIONS[relation](where, rho)
        if not agree:
            flags.add("BOUNDARY" if where == rho else "LOCATION-DISAGREE")
        region = Region("sphere" if relation == "on-sphere" else "closed-ball", rho)
        claims.append(
            Claim.make(
                tag,
                "fp-location",
                region,
                which=info.which,
                relation=relation,
                computed=where,
                agree=agree,
            )
        )
    return claims


def _fp_character_claims(
    tag: str,
    admissible: Tuple[str, ...],
    infos,
    flags: set,
) -> list:
    claims = []
    for info in infos[1:]:
        if not admissible:
            agree = None
            flags.add("UNSPECIFIED-CHARACTER")
        else:
            agree = info.character.value in admissible
            if not agree:
                flags.add("CHARACTER-DISAGREE")
        claims.append(
            Claim.make(
                tag,
                "fp-character",
                None,
                which=info.which,
                admissible=admissible,
                computed=info.character,
                agree=agree,
            )
        )
    return claims


def separation_identity(params: MapParams) -> Radius:
    """|x1 - x2| from the exact identity x1 - x2 = 2*sqrt(a)*(c - b)/(a - 1)."""
    p = params.p
    v = (
        vp_rat(2, p)
        + Fraction(params.val_a, 2)
        + vp_rat(params.c - params.b, p)
        - vp_rat(params.a - 1, p)
    )
    return Radius.from_val(p, v)


def _distance_claim(tag: str, params: MapParams, flags: set) -> Claim:
    """|x1 - x2|: the stated value against the exact identity."""
    stated = params.radius_spec().sphere_c()
    if params.p == 2:
        stated = stated.scaled_by_power(-2)  # |c| / 2
    recomputed = separation_identity(params)
    agree = stated == recomputed
    if not agree:
        flags.add("DISCREPANCY")
    return Claim.make(
        tag,
        "fp-distance",
        None,
        stated=stated,
        recomputed=recomputed,
        agree=agree,
    )


# --------------------------------------------------------------- case table


def _t1_2_at_2(spec: RadiusMapSpec) -> Tuple[str, ...]:
    """|a| against 2**-2."""
    va = spec.val_a
    return ("repelling",) if va > 2 else ("attracting",) if va == 2 else ("indifferent",)


def _by_margin(margin: int) -> Tuple[str, ...]:
    if margin > 0:
        return ("repelling",)
    return ("attracting",) if margin == 0 else ()


def _t1_4_5_at_2(spec: RadiusMapSpec) -> Tuple[str, ...]:
    """|b|sqrt|a| against 2|c|, compared by doubled exponents."""
    return _by_margin((-2 * spec.val_b - spec.val_a) - (2 - 2 * spec.val_c))


def _t3_ii_at_2(spec: RadiusMapSpec) -> Tuple[str, ...]:
    """|c| against 2|b|sqrt|a|, compared by doubled exponents."""
    return _by_margin(-2 * spec.val_c - (2 - 2 * spec.val_b - spec.val_a))


def _indifferent_at_2(spec: RadiusMapSpec) -> Tuple[str, ...]:
    return ("indifferent",)


# The radius each row's claims refer to: a critical sphere, or the radius
# the middle zone fixes (|c|/sqrt|a| in T1.4.1, |b|sqrt|a| in T3.IV).
_SPHERES = {
    "b": RadiusMapSpec.sphere_b,
    "c": RadiusMapSpec.sphere_c,
    "mid": lambda spec: spec.mid_fixed,
}

# The conditional claim of a ladder row, by the row's fate off the ladder.
_CONDITIONAL = {
    "limit-zero": "conditional-limit-zero",
    "escape": "conditional-escape",
    "eventually-constant-radius": "eventually-constant-radius",
}


class _Row(NamedTuple):
    """The claims of one leaf of ``case_of``.

    Claims come out in this order: ``lead`` (tag, kind, region kind)
    claims on the row's sphere; for ladder rows (``fate`` set) the fate
    off the ladder, enters-sphere on it, the conditional fate and, when
    that is conditioned on the sphere, returns-to-sphere; the fixed-point
    locations; the distance claim; the characters; the expansion claims.
    ``tags`` holds the ladder claims' tags followed by the fixed-point tag.
    """

    sphere: str
    tags: Tuple[str, ...]
    location: Optional[str]  # fp-location relation, None when unstated
    admissible: Tuple[str, ...]
    at_2: Optional[Callable[[RadiusMapSpec], Tuple[str, ...]]] = None
    lead: Tuple[Tuple[str, str, str], ...] = ()
    fate: Optional[str] = None
    conditional: str = "sphere"  # region of the conditional fate
    character_tags: Optional[Tuple[str, str]] = None  # (odd p, p = 2)
    distance: bool = False
    expansion: bool = False  # at odd p only


def _ladder_row(prefix, sphere, fate, location, admissible, at_2=None, invariant=None):
    """A row with the lettered ladder skeleton: prefix.a to prefix.e."""
    return _Row(
        sphere,
        tuple(f"{prefix}.{letter}" for letter in "abcde"),
        location,
        admissible,
        at_2,
        lead=(("T3.I", "invariant-sphere", invariant),) if invariant else (),
        fate=fate,
    )


_REPELLING = ("repelling",)
_INDIFFERENT_OR_ATTRACTING = ("indifferent", "attracting")
_ATTRACTING_OR_INDIFFERENT = ("attracting", "indifferent")

_CASES = {
    "T1.2": _Row(
        "c",
        ("T1.2.1", "T1.2.2", "T1.2.2", "T1.2.3"),
        "on-sphere",
        _REPELLING,
        _t1_2_at_2,
        fate="limit-zero",
        conditional="on-ladder",
        character_tags=("T1.2.4", "T1.2.5"),
        distance=True,
        expansion=True,
    ),
    "T1.3": _Row(
        "c",
        ("T1.3",),
        "off-closed-ball",
        _INDIFFERENT_OR_ATTRACTING,
        _indifferent_at_2,
        lead=(("T1.1", "invariant-sphere", "above"), ("T1.3", "basin", "ball")),
    ),
    "T1.4.1": _Row(
        "mid",
        ("T1.4.1",),
        "on-sphere",
        _INDIFFERENT_OR_ATTRACTING,
        _indifferent_at_2,
        lead=(
            ("T1.1", "invariant-sphere", "sphere"),
            ("T1.4.1", "basin", "ball"),
            ("T1.4.1", "escape", "above"),
        ),
    ),
    "T1.4.2": _Row(
        "b",
        ("T1.4.2",),
        "in-closed-ball",
        _INDIFFERENT_OR_ATTRACTING,
        _indifferent_at_2,
        lead=(
            ("T1.1", "invariant-sphere", "ball"),
            ("T1.4.2", "siegel", "ball"),
            ("T1.4.2", "escape", "above"),
        ),
    ),
    "T1.4.3-5": _Row(
        "b",
        ("T1.4.3", "T1.4.4", "T1.4.4", "T1.4.5"),
        "on-sphere",
        _REPELLING,
        _t1_4_5_at_2,
        fate="escape",
        conditional="on-ladder",
    ),
    "T2.A": _ladder_row("T2.A", "b", "limit-zero", "on-sphere", _REPELLING),
    "T2.B": _Row(
        "b",
        ("T2.B",),
        None,
        (),
        lead=(
            ("T2.B", "invariant-sphere", "all-but-sphere"),
            ("T2.B", "dichotomy", "sphere"),
        ),
    ),
    "T2.C": _ladder_row("T2.C", "b", "escape", "on-sphere", _REPELLING),
    "T3.II": _ladder_row("T3.II", "c", "limit-zero", "on-sphere", _REPELLING, _t3_ii_at_2),
    "T3.III": _ladder_row(
        "T3.III",
        "c",
        "eventually-constant-radius",
        "in-closed-ball",
        _ATTRACTING_OR_INDIFFERENT,
        invariant="ball",
    ),
    "T3.IV": _Row(
        "mid",
        ("T3.IV",),
        None,
        (),
        lead=(
            ("T3.I", "invariant-sphere", "sphere"),
            ("T3.IV", "two-cycle-region", "interval"),
            ("T3.IV", "enters-region", "off-interval"),
        ),
    ),
    "T3.V": _ladder_row(
        "T3.V",
        "b",
        "eventually-constant-radius",
        "off-closed-ball",
        _ATTRACTING_OR_INDIFFERENT,
        invariant="above",
    ),
    "T3.VI": _ladder_row("T3.VI", "b", "escape", "on-sphere", _REPELLING),
}


def _ladder_claims(row: _Row, eset: ExceptionalSet, sphere: Radius) -> list:
    fate_tag, enters_tag, conditional_tag = row.tags[:3]
    on = Region("on-ladder", ladder=eset)
    where = on if row.conditional == "on-ladder" else Region("sphere", sphere)
    claims = [
        Claim.make(fate_tag, row.fate, Region("off-ladder", ladder=eset)),
        Claim.make(enters_tag, "enters-sphere", on, sphere=row.sphere),
        Claim.make(
            conditional_tag,
            _CONDITIONAL[row.fate],
            where,
            condition=f"{row.sphere}*-not-in-ladder",
        ),
    ]
    if row.conditional == "sphere":
        claims.append(
            Claim.make(
                row.tags[3],
                "returns-to-sphere",
                where,
                condition=f"{row.sphere}*-in-ladder",
            )
        )
    return claims


# --------------------------------------------------------------- classifier


def classify(params: MapParams, precision: int = 64) -> PhasePortrait:
    """Emit the applicable case's claims for these parameters."""
    spec = params.radius_spec()
    theorem, case = case_of(spec)
    row = _CASES[case]
    infos = fixed_points(params, precision=precision)
    eset = ExceptionalSet.on(spec, row.sphere) if row.fate is not None else None
    lam = spec.lambda_region if spec.two_cycle_regime else None
    p = params.p
    sphere = _SPHERES[row.sphere](spec)
    flags: set = set()

    claims = []
    for tag, kind, where in row.lead:
        if where.endswith("interval"):
            claims.append(Claim.make(tag, kind, Region(where, interval=lam)))
        else:
            claims.append(Claim.make(tag, kind, Region(where, sphere)))
    if row.fate is not None:
        claims.extend(_ladder_claims(row, eset, sphere))
    fp_tag = row.tags[-1]
    if row.location is not None:
        claims.extend(_fp_location_claims(fp_tag, row.location, sphere, infos, p, flags))
    if row.distance:
        claims.append(_distance_claim(fp_tag, params, flags))
    admissible = row.at_2(spec) if p == 2 and row.at_2 is not None else row.admissible
    character_tag = fp_tag if row.character_tags is None else row.character_tags[p == 2]
    claims.extend(_fp_character_claims(character_tag, admissible, infos, flags))
    if row.expansion and p >= 3:
        ball = Region("ball", sphere)
        claims.extend(
            Claim.make(character_tag, "fp-expansion", ball, which=info.which)
            for info in infos[1:]
        )
    return PhasePortrait(
        params=params,
        theorem=theorem,
        case=case,
        claims=tuple(claims),
        fixed_points=infos,
        exceptional=eset,
        lambda_region=lam,
        flags=tuple(sorted(flags)),
    )


def character_from_multiplier(
    params: MapParams, which: str, precision: int = 64
):
    """(computed character, claimed admissible set, agree) for x1 or x2.

    ``agree`` is None when the applicable case leaves the character
    unspecified.
    """
    if which not in ("x1", "x2"):
        raise InvalidArgument("which must be 'x1' or 'x2'")
    portrait = classify(params, precision=precision)
    for claim in portrait.claims_of_kind("fp-character"):
        if claim.detail("which") == which:
            return (
                claim.detail("computed"),
                claim.detail("admissible"),
                claim.detail("agree"),
            )
    raise InvalidArgument("no character claim emitted; unreachable for valid params")
