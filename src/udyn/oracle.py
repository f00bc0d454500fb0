"""Brute-force verification: iterate f exactly and cross-check every claim.

The harness samples points with exactly known absolute values, runs the
map with certified arithmetic (truncated p-adics for rational points,
exact quadratic-extension arithmetic for ramified ones), and compares
the observed valuations against the radius-map predictions and the
phase-portrait claims.  Every check is exact: a PASS is an identity of
valuations, never a float comparison.

Every sampled portrait claim runs through one sampling engine,
``_sampled_entry``.  The table ``_CLAIM_CHECKS`` maps each claim kind to
its check; for the sampled kinds that is a ``_Plan``, which fixes the
seed stride between probe radii, the per-radius sample budget, the orbit
length and a judge.  The engine draws the points on each radius, keeps
those the claim's condition admits, runs their orbits and hands each
orbit to the judge, whose verdict is pass, pending, flagged or a FAIL
counterexample; one tail turns the tally into the ``CheckEntry``.  Claim
i of a portrait is checked with seed ``seed + 37 * i``.

Statuses: PASS (verified on all samples), FAIL (exact counterexample,
carried in the entry), FLAGGED (a discrepancy in the stated behaviour —
either a stated-vs-computed disagreement the classifier already reported
or a structural exception the verifier certifies exactly — never an
engine error), INCONCLUSIVE (horizon- or precision-limited, or no
qualifying sample; never silently promoted to PASS).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactnum import (
    TOP,
    InvalidArgument,
    PrecisionExhausted,
    QuadExt,
    TruncatedPadic,
    vp_rat,
)
from .mapengine import (
    MapParams,
    PoleHit,
    PrecisionExhaustedAt,
    UnsupportedRadius,
    _lift,
    derivative_at,
    eval_f,
    fixed_points,
    orbit,
    point_val,
    sample_sphere,
    validate_params,
)
from .portrait import PhasePortrait, classify, separation_identity
from .radiusmaps import (
    CriticalValueNeeded,
    Cycle,
    EventuallyConstantAt,
    EventuallyInLambda,
    FixedAt,
    HorizonExceeded,
    NeedsCriticalValue,
    Radius,
    RadiusMapSpec,
    Regime,
    ToInfinity,
    ToZero,
    TwoCycleRegion,
    fix_set,
    lambda_interval,
    limit_classify,
    radius_orbit,
    radius_step,
    relevant_exceptional,
)

# |f^n(x)| <= p**-THRESH counts as converged to zero, >= p**THRESH as escaped
_THRESH = 20
# exact quadratic-extension orbits triple in size per step; keep them short
# and let the radius-level fate certificate finish the argument
_QUAD_CAP = 6
_QUAD_SAMPLES = 2
_MAX_DIGITS = 1 << 13


class WrongSphere(InvalidArgument):
    """The point is not on the critical sphere the value refers to."""


# ------------------------------------------------------------------- report


@dataclass
class CheckEntry:
    name: str
    tag: str
    samples: int
    status: str  # PASS | FAIL | FLAGGED | INCONCLUSIVE
    counterexample: Optional[dict] = None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "samples": self.samples,
            "status": self.status,
            "counterexample": self.counterexample,
            "note": self.note,
        }


def _pass_fail(
    name: str, ok: bool, cex: dict, note: str = "", samples: int = 1, tag: str = "FP"
) -> CheckEntry:
    """A check that either holds or fails with the counterexample ``cex``."""
    if ok:
        return CheckEntry(name, tag, samples, "PASS", None, note)
    return CheckEntry(name, tag, samples, "FAIL", cex, note)


def _agreement(agree: Optional[bool], disagree: str, unstated: str) -> Tuple[str, str]:
    """Status and note of a stated-against-computed comparison."""
    if agree is True:
        return "PASS", ""
    return "FLAGGED", disagree if agree is False else unstated


STATUSES = ("PASS", "FLAGGED", "INCONCLUSIVE", "FAIL")


@dataclass
class VerificationReport:
    """The checks of one verification run.  ``portrait`` is the phase
    portrait the claims were checked against; it is not serialized."""

    params: MapParams
    seed: int
    horizon: int
    checks: List[CheckEntry] = field(default_factory=list)
    portrait: Optional[PhasePortrait] = None

    def counts(self) -> Dict[str, int]:
        """Number of checks with each status, in ``STATUSES`` order."""
        out = dict.fromkeys(STATUSES, 0)
        for e in self.checks:
            out[e.status] += 1
        return out

    @property
    def has_fail(self) -> bool:
        return any(e.status == "FAIL" for e in self.checks)

    @property
    def has_flag(self) -> bool:
        return any(e.status == "FLAGGED" for e in self.checks)

    @property
    def passed(self) -> bool:
        return not self.has_fail

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "verification": {
                "params": self.params.to_dict(),
                "seed": self.seed,
                "horizon": self.horizon,
                "checks": [e.to_dict() for e in self.checks],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------- critical values


def critical_value_at(x, params: MapParams, which: str) -> Radius:
    """The exact image radius for a point on a critical sphere.

    |f(x)| = |a| |w| |x+b|**2 / |x+c|**2 for a point with |x| = |w|,
    w = b or c.  x = -b maps to zero exactly; x = -c is the pole.
    """
    if which not in ("b", "c"):
        raise InvalidArgument("which must be 'b' or 'c'")
    p = params.p
    w_val = params.val_b if which == "b" else params.val_c
    if point_val(x, p) != w_val:
        raise WrongSphere(
            f"point valuation {point_val(x, p)!s} is off the |{which}| sphere"
        )
    if isinstance(x, TruncatedPadic):
        num = x + _lift(params.b, p, x.digits)
        den = x + _lift(params.c, p, x.digits)
        if den.exact_zero:
            raise PoleHit("x = -c is the pole")
    else:
        num = x + params.b
        den = x + params.c
        pole = den.is_zero if isinstance(den, QuadExt) else den == 0
        if pole:
            raise PoleHit("x = -c is the pole")
    v_num = point_val(num, p)
    if v_num is TOP:
        return Radius.zero(p)
    v_den = point_val(den, p)
    if v_den is TOP:
        raise PoleHit("x = -c is the pole")
    return Radius.from_val(p, params.val_a + w_val + 2 * v_num - 2 * v_den)


# --------------------------------------------------------------- sampling


def _probe_radii(params: MapParams) -> List[Radius]:
    """Lattice and half-lattice radii spanning three valuations beyond
    the critical spheres on either side."""
    spec = params.radius_spec()
    vmin = min(spec.val_b, spec.val_c)
    vmax = max(spec.val_b, spec.val_c)
    lo_q2 = -2 * (vmax + 3)
    hi_q2 = -2 * (vmin - 3)
    return [Radius.from_exponent(params.p, q2) for q2 in range(lo_q2, hi_q2 + 1)]


def _sample(radius: Radius, params: MapParams, count: int, seed: int) -> list:
    if radius.is_finite and radius.q2 % 2 != 0:
        count = min(count, _QUAD_SAMPLES)  # extension points are expensive
    try:
        return sample_sphere(radius, params, count, seed)
    except UnsupportedRadius:
        return []


def _run_orbit(x0, params: MapParams, steps: int, precision: int):
    """Orbit record with certified valuations; rational starts retry with
    more digits on cancellation, extension points run exactly but shorter."""
    if isinstance(x0, QuadExt):
        return orbit(x0, params, min(steps, _QUAD_CAP))
    digits = precision
    while True:
        rec = orbit(Fraction(x0), params, steps, precision=digits)
        if (
            not isinstance(rec.termination, PrecisionExhaustedAt)
            or digits >= _MAX_DIGITS
        ):
            return rec
        digits *= 2


def _reached(vals, threshold: int) -> Optional[int]:
    """First index whose valuation certifies |x| <= p**-threshold."""
    for i, v in enumerate(vals):
        if v is TOP or v >= threshold:
            return i
    return None


def _escaped(vals, threshold: int) -> Optional[int]:
    for i, v in enumerate(vals):
        if v is not TOP and v <= -threshold:
            return i
    return None


def _fate_certificate(vals, params: MapParams, spec: RadiusMapSpec) -> Optional[str]:
    """Closed-form fate of the orbit from its last certified radius.

    Sound because the radius dynamics away from the critical spheres is
    a function of the radius alone; from an unresolved critical sphere
    the classifier refuses to decide and this returns None.
    """
    if not vals:
        return None
    last = vals[-1]
    if last is TOP:
        return "zero"
    verdict = limit_classify(Radius.from_val(params.p, last), spec)
    if isinstance(verdict, ToZero):
        return "zero"
    if isinstance(verdict, ToInfinity):
        return "infinity"
    return None


# ------------------------------------------------------------ Lemma bridge


def _bridge_one(x0, params: MapParams, spec: RadiusMapSpec, horizon: int, precision: int):
    """Walk one sample, feeding point-level critical values to the radius
    map at each critical-sphere visit.  Returns (ok, counterexample, note)."""
    p = params.p
    rec = _run_orbit(x0, params, horizon, precision)
    if not rec.points:
        return True, None, "start valuation not certified"
    vals = rec.valuations
    r = Radius.from_val(p, vals[0])
    for i in range(len(rec.points) - 1):
        use = None
        if r == spec.sphere_b():
            use = "b"
        elif spec.regime is not Regime.EQ and r == spec.sphere_c():
            use = "c"
        step_spec = spec
        if use is not None:
            try:
                crit = critical_value_at(rec.points[i], params, use)
            except PrecisionExhausted:
                return True, None, "critical value beyond working precision"
            except PoleHit:
                return True, None, ""
            step_spec = params.radius_spec(
                crit_b=crit if use == "b" else None,
                crit_c=crit if use == "c" else None,
            )
        r = radius_step(r, step_spec)
        got = Radius.from_val(p, vals[i + 1])
        if got != r:
            return (
                False,
                {"x": str(x0), "step": i + 1, "expected": str(r), "got": str(got)},
                "",
            )
        if r.is_zero:
            break
    note = ""
    if isinstance(rec.termination, PrecisionExhaustedAt):
        note = "precision exhausted mid-orbit"
    return True, None, note


def check_lemma1(
    params: MapParams,
    sample_count: int = 20,
    horizon: int = 15,
    seed: int = 0,
    precision: int = 96,
) -> List[CheckEntry]:
    """Point-level |f^n(x)| against the bridged radius-map iterate."""
    spec = params.radius_spec()
    probes = _probe_radii(params)
    per = max(1, sample_count // max(1, len(probes)))
    samples = 0
    limited = 0
    for i, radius in enumerate(probes):
        for x0 in _sample(radius, params, per, seed + 1009 * i):
            samples += 1
            ok, cex, note = _bridge_one(x0, params, spec, horizon, precision)
            if not ok:
                return [CheckEntry("lemma1-bridge", "L1", samples, "FAIL", cex)]
            if note:
                limited += 1
    if samples == 0:
        return [
            CheckEntry("lemma1-bridge", "L1", 0, "INCONCLUSIVE", None, "no samples")
        ]
    status = "INCONCLUSIVE" if limited == samples else "PASS"
    note = f"{limited} sample(s) precision-limited" if limited else ""
    # x = 0 is a trivial bridged sample: both sides stay at zero
    return [CheckEntry("lemma1-bridge", "L1", samples + 1, status, None, note)]


# ------------------------------------------------------------- fixed points


def _exact_eq(x, y) -> Optional[bool]:
    """Equality in the scalar domain; None when truncated precision
    cannot certify either way."""
    if isinstance(x, TruncatedPadic) or isinstance(y, TruncatedPadic):
        diff = x - y
        if diff.exact_zero:
            return True
        if not diff.is_certified:
            return None
        return False
    return x == y


def _separation_radius(params: MapParams, x1, x2) -> Optional[Radius]:
    """|x1 - x2| measured in the scalar domain; None if uncertified."""
    p = params.p
    diff = x1 - x2
    if isinstance(diff, TruncatedPadic):
        if not diff.is_certified:
            return None
        return Radius.from_val(p, diff.valuation())
    return Radius.from_val(p, point_val(diff, p))


def check_fixed_points(
    params: MapParams,
    precision: int = 64,
    portrait: Optional[PhasePortrait] = None,
) -> List[CheckEntry]:
    """Fixed-point algebra: residuals, multipliers, branch symmetry,
    the separation identity, and character agreement.  The characters
    are read from ``portrait``, classified here when not given."""
    if portrait is None:
        portrait = classify(params, precision=precision)
    infos = fixed_points(params, precision=precision)
    lam0 = params.a * params.b**2 / params.c**2
    got = infos[0].multiplier
    entries = [
        _pass_fail("fp-lambda0", got == lam0, {"expected": str(lam0), "got": str(got)})
    ]
    for info in infos[1:]:
        res = _exact_eq(eval_f(info.location, params), info.location)
        entries.append(
            _pass_fail(
                f"fp-residual:{info.which}",
                res is not False,
                {"which": info.which},
                "" if res else "vanishes to working precision",
            )
        )
        der = derivative_at(info.location, params)
        res = _exact_eq(der, info.multiplier)
        entries.append(
            _pass_fail(
                f"fp-multiplier:{info.which}",
                res is not False,
                {"derivative": str(der), "closed_form": str(info.multiplier)},
                "" if res else "agrees to working precision",
            )
        )

    swapped = fixed_points(params, precision=precision, conjugate_root=True)
    truncated = isinstance(infos[1].location, TruncatedPadic)
    key = "location_val" if truncated else "location"
    pairs = ((swapped[1], infos[2]), (swapped[2], infos[1]))
    swap_ok = all(getattr(one, key) == getattr(other, key) for one, other in pairs)
    note = "valuation comparison (truncated root)" if truncated else ""
    cex = {"swapped_x1": str(swapped[1].location)}
    entries.append(_pass_fail("fp-branch-swap", swap_ok, cex, note, samples=2))

    actual = _separation_radius(params, infos[1].location, infos[2].location)
    if actual is None:
        entries.append(
            CheckEntry("fp-separation", "FP", 1, "INCONCLUSIVE", None, "beyond precision")
        )
    else:
        expected = separation_identity(params)
        cex = {"actual": str(actual), "identity": str(expected)}
        entries.append(_pass_fail("fp-separation", actual == expected, cex))

    for claim in portrait.claims_of_kind("fp-character"):
        status, note = _agreement(
            claim.detail("agree"),
            "stated and computed characters disagree",
            "the applicable case names no character",
        )
        computed, admissible = claim.detail("computed"), claim.detail("admissible")
        note = note or f"computed {computed.value}; admissible {list(admissible)}"
        entries.append(
            CheckEntry(f"fp-character:{claim.detail('which')}", "FP", 1, status, None, note)
        )
    return entries


# -------------------------------------------------------- portrait checking


def _radii_in_region(region, probes: List[Radius]) -> List[Radius]:
    if region is None:
        return []
    if region.kind == "sphere":
        return [region.radius]
    if region.kind == "on-ladder":
        return [region.ladder.element(k) for k in range(3)]
    if region.kind == "interval":
        return list(region.interval.lattice_members())
    return [r for r in probes if region.contains(r)][:8]


class _Context(NamedTuple):
    """What the checks of one portrait's claims share."""

    params: MapParams
    spec: RadiusMapSpec
    probes: List[Radius]
    infos: dict  # which -> FixedPointInfo
    sample_count: int
    horizon: int
    precision: int


# A judge's verdict on one sample: None passes, _PENDING is undecided
# within the horizon, _FLAGGED is a certified exception, and a dict is a
# FAIL counterexample.
_PENDING = "pending"
_FLAGGED = "flagged"


class _Tally:
    """Verdict counts of one check.  ``exhibit`` is the counterexample a
    FLAGGED entry carries; ``memo`` holds per-radius facts a judge
    computes once."""

    def __init__(self) -> None:
        self.samples = self.passed = self.pending = self.flagged = 0
        self.fail: Optional[dict] = None
        self.exhibit: Optional[dict] = None
        self.memo: dict = {}


class _Plan(NamedTuple):
    """How the sampling engine checks one claim kind, and how its verdict
    is worded.

    The engine draws ``per`` points on the i-th radius with seed
    ``seed + stride * i``: sample_count // share of them (at least one),
    where share 0 splits sample_count over the radii and None takes all of
    it.  It keeps the points the claim's condition admits, runs each for
    ``steps(horizon, i)`` steps (0 runs no orbit) and calls
    ``judge(ctx, claim, tally, i, radius, x0, record)`` for a verdict.
    ``pending`` and ``passed`` are notes formatted with the tally's counts;
    ``settles`` makes one passing sample decide the claim, so undecided ones
    only count as having stayed; without ``stop_on_fail`` every sample is
    judged and the last FAIL is reported.
    """

    judge: Optional[Callable] = None
    stride: int = 0
    share: Optional[int] = 0
    steps: Callable[[int, int], int] = lambda horizon, i: horizon
    empty: str = "no representable sample"
    pending: str = ""
    passed: str = ""
    flagged: Optional[Callable[[_Tally], Tuple[Optional[dict], str]]] = None
    fail_note: str = ""
    settles: bool = False
    stop_on_fail: bool = True

    def __call__(self, claim, ctx: _Context, seed: int) -> List[CheckEntry]:
        return [_sampled_entry(claim, ctx, seed, self)]


def _sampled_entry(
    claim, ctx: _Context, seed: int, plan: _Plan, radii=None, suffix=""
) -> CheckEntry:
    """The sampling engine: one claim's samples, judged one by one."""
    if radii is None:
        radii = _radii_in_region(claim.region, ctx.probes)
    if plan.share is None:
        per = ctx.sample_count
    else:
        per = max(1, ctx.sample_count // (plan.share or max(1, len(radii))))
    qualifier = _condition_qualifier(claim, ctx)
    name = f"portrait:{claim.tag}:{claim.kind}{suffix}"
    t = _Tally()
    for i, radius in enumerate(radii):
        for x0 in _sample(radius, ctx.params, per, seed + plan.stride * i):
            if qualifier is not None and not qualifier(x0):
                continue
            t.samples += 1
            steps = plan.steps(ctx.horizon, i)
            rec = _run_orbit(x0, ctx.params, steps, ctx.precision) if steps else None
            verdict = plan.judge(ctx, claim, t, i, radius, x0, rec)
            if verdict is None:
                t.passed += 1
            elif verdict is _PENDING:
                t.pending += 1
            elif verdict is _FLAGGED:
                t.flagged += 1
            else:
                t.fail = verdict
                if plan.stop_on_fail:
                    return _tail(name, claim.tag, plan, t)
    return _tail(name, claim.tag, plan, t)


def _tail(name: str, tag: str, plan: _Plan, t: _Tally) -> CheckEntry:
    """The entry for a tally: FAIL, else no sample, else FLAGGED, else
    undecided, else PASS."""
    if t.fail is not None:
        return CheckEntry(name, tag, t.samples, "FAIL", t.fail, plan.fail_note)
    if t.samples == 0:
        return CheckEntry(name, tag, 0, "INCONCLUSIVE", None, plan.empty)
    if t.flagged:
        return CheckEntry(name, tag, t.samples, "FLAGGED", *plan.flagged(t))
    if t.pending and not (plan.settles and t.passed):
        note = plan.pending.format(**vars(t))
        return CheckEntry(name, tag, t.samples, "INCONCLUSIVE", None, note)
    return CheckEntry(name, tag, t.samples, "PASS", None, plan.passed.format(**vars(t)))


# ------------------------------------------------------------------ judges


def _judge_threshold(ctx, claim, t, i, radius, x0, rec):
    """limit-zero / escape style claims.

    A sample passes by crossing p**(+-THRESH) within the horizon or by a
    closed-form radius certificate from its last certified valuation; it
    fails by crossing the opposite threshold or by a certificate of the
    opposite fate.
    """
    vals = rec.valuations
    if claim.kind.endswith("escape"):
        claimed, other, hit, bad = "infinity", "zero", _escaped, _reached
    else:
        claimed, other, hit, bad = "zero", "infinity", _reached, _escaped
    k = bad(vals, _THRESH)
    if k is not None:
        return {"x": str(x0), "step": k, "valuation": str(vals[k]), "claimed": claimed}
    cert = _fate_certificate(vals, ctx.params, ctx.spec)
    if cert == other:
        return {"x": str(x0), "certified": other, "claimed": claimed}
    if hit(vals, _THRESH) is None and cert != claimed:
        return _PENDING
    return None


def _judge_outside(ctx, claim, t, i, radius, x0, rec):
    """Points outside a claimed basin must not fall into it."""
    vals = rec.valuations
    cert = _fate_certificate(vals, ctx.params, ctx.spec)
    if _reached(vals, _THRESH) is not None or cert == "zero":
        return {"x": str(x0), "note": "converged to zero outside the basin"}
    return None


def _judge_constant(ctx, claim, t, i, radius, x0, rec):
    vals = rec.valuations
    for k, v in enumerate(vals):
        if v != vals[0]:
            return {"x": str(x0), "step": k, "expected": str(vals[0]), "got": str(v)}
    return None


def _judge_eventually_constant(ctx, claim, t, i, radius, x0, rec):
    vals = rec.valuations
    k = len(vals) - 1
    while k > 0 and vals[k - 1] == vals[-1]:
        k -= 1
    return _PENDING if len(vals) - k < 5 else None


def _judge_enters_sphere(ctx, claim, t, k, radius, x0, rec):
    """A point on ladder element k is on the critical sphere after k steps."""
    if rec is None:
        return None  # on the sphere already, by construction
    vals = rec.valuations
    if len(vals) <= k:
        return None  # pole or precision loss before step k; rare
    spec = ctx.spec
    target = spec.sphere_b() if claim.detail("sphere") == "b" else spec.sphere_c()
    if vals[k] != -Fraction(target.q2, 2):
        return {"x": str(x0), "k": k, "expected": str(target), "got": str(vals[k])}
    return None


def _judge_two_cycle(ctx, claim, t, i, radius, x0, rec):
    vals = rec.valuations
    if all(vals[j] == vals[0] for j in range(0, len(vals), 2)):
        return None
    if claim.region.interval.in_core(radius):
        shown = [str(v) for v in vals[:6]]
        return {"x": str(x0), "radius": str(radius), "valuations": shown}
    return _FLAGGED


def _interval_reachable(
    start: Radius, spec: RadiusMapSpec, lam, vstep: int
) -> Optional[bool]:
    """Whether the radius walk from ``start`` can ever land inside ``lam``.

    Explores every branch exhaustively: zone steps are deterministic, and
    a critical sphere fans out into the full progression of image radii
    that the cancellation depth can realize (``vstep`` is the valuation
    granularity of that depth: 1 when half-integer valuations exist, else
    2).  Deeper cancellations only prepend radii on the far side of the
    interval before rejoining an enumerated residue class, so a bounded
    progression is complete.  Returns True when some branch enters, False
    when the whole web was exhausted without entering (a certificate),
    and None when the search cannot certify either way.
    """
    if spec.regime is not Regime.GT:
        return None
    p = spec.p
    kcap = max(abs(spec.bottom_delta_q2), abs(spec.top_delta_q2), 4) + 2
    window = (
        4 * kcap
        + max(abs(start.q2), 2 * spec.val_b, 2 * spec.val_c, 2 * abs(spec.val_a))
        + 32
    )
    img_b = spec.val_a + spec.val_b  # shallowest image valuation from S_|b|
    img_c = spec.val_a + 2 * spec.val_b - spec.val_c  # ... from S_|c|
    seen: set = set()
    frontier = [start]
    while frontier:
        r = frontier.pop()
        if r.is_zero or r.is_infinite:
            continue
        if lam.contains(r):
            return True
        if r.q2 in seen:
            continue
        seen.add(r.q2)
        if abs(r.q2) > window or len(seen) > 4096:
            return None
        if r.q2 == -2 * spec.val_b:
            frontier.extend(Radius.from_val(p, img_b + vstep * k) for k in range(kcap))
        elif r.q2 == -2 * spec.val_c:
            frontier.extend(Radius.from_val(p, img_c - vstep * k) for k in range(kcap))
        else:
            frontier.append(radius_step(r, spec))
    return False


def _judge_enters_region(ctx, claim, t, i, radius, x0, rec):
    """Orbits from outside the two-cycle interval eventually enter it.

    A probe radius whose whole reachability web misses the interval can
    never satisfy the claim; its samples are FLAGGED with the certificate
    rather than counted as failures of the engine.
    """
    lam = claim.region.interval
    key = str(radius)
    if key not in t.memo:
        vstep = 1 if radius.q2 % 2 else 2
        t.memo[key] = _interval_reachable(radius, ctx.spec, lam, vstep) is False
    blocked = t.memo[key]
    p = ctx.params.p
    entered = any(
        v is not TOP and lam.contains(Radius.from_val(p, v)) for v in rec.valuations
    )
    if entered:
        return {"x": str(x0), "radius": str(radius)} if blocked else None
    return _FLAGGED if blocked else _PENDING


def _blocked_radii(t: _Tally):
    blocked = [r for r, is_blocked in t.memo.items() if is_blocked]
    return (
        {"blocked_radii": blocked},
        f"the stated entry is impossible from {len(blocked)} probe "
        f"radius(es): every branch of the radius walk stays outside the "
        f"interval; {t.passed} orbit(s) from other radii entered",
    )


def _judge_dichotomy(ctx, claim, t, i, radius, x0, rec):
    """Orbits on the sphere either stay forever or leave once and keep a
    constant radius afterwards."""
    vals = rec.valuations
    sphere_val = -Fraction(radius.q2, 2)
    k = next((j for j, v in enumerate(vals) if v != sphere_val), None)
    if k is None:
        return _PENDING  # stayed within the horizon
    tail = vals[k:]
    if any(v != tail[0] for v in tail):
        return {"x": str(x0), "left_at": k, "valuations": [str(v) for v in vals[: k + 4]]}
    return None if len(tail) >= 3 else _PENDING


_THRESHOLD = _Plan(
    _judge_threshold,
    stride=2003,
    empty="no qualifying sample",
    pending="{pending} orbit(s) undecided within the horizon",
)
_CONSTANT = _Plan(_judge_constant, stride=3001, steps=lambda horizon, i: min(horizon, 30))
_OUTSIDE = _Plan(_judge_outside, stride=8009)


# ------------------------------------------------------ claim checks by kind


def _basin_checks(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    entries = _THRESHOLD(claim, ctx, seed)
    outside = [r for r in ctx.probes if not claim.region.contains(r)][:6]
    if outside:
        entries.append(_sampled_entry(claim, ctx, seed + 1, _OUTSIDE, outside, ":outside"))
    return entries


def _crit_targeted_samples(
    params: MapParams, which: str, ladder, count: int, seed: int
) -> List[Tuple[object, int]]:
    """Points on the |which| sphere whose critical value is ladder
    element k, built by placing x near -b (deep numerator) or near -c
    (deep denominator) at the exact depth the ladder element requires.

    Every candidate is post-verified; a wrong sphere or wrong critical
    value drops it, so the construction can only under-sample.
    """
    p = params.p
    w_val = params.val_b if which == "b" else params.val_c
    v_cb = vp_rat(params.c - params.b, p)
    out: List[Tuple[object, int]] = []
    for k in range(6):
        target = ladder.element(k)
        t_val = -Fraction(target.q2, 2)
        for anchor, v_delta in (
            (-params.b, Fraction(t_val - params.val_a - w_val, 2) + v_cb),
            (-params.c, Fraction(params.val_a + w_val - t_val, 2) + v_cb),
        ):
            if v_delta.denominator > 2:
                continue
            for d in _sample(Radius.from_val(p, v_delta), params, 2, seed + 101 * k):
                x0 = anchor + d
                if point_val(x0, p) != w_val:
                    continue
                try:
                    crit = critical_value_at(x0, params, which)
                except (PoleHit, PrecisionExhausted):
                    continue
                if crit == target and ladder.member(crit) == k:
                    out.append((x0, k))
                    if len(out) >= count:
                        return out
    return out


# the two kinds that draw their own samples still word their verdicts by plan
_RETURNS = _Plan(empty="no constructible sample")
_EXPANSION = _Plan(
    empty="no sample",
    flagged=lambda t: (t.exhibit, "inequality breaks on the sphere through the pole"),
)


def _returns_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """Critical value on ladder element k => f^(k+1) lands back on the
    sphere; the samples are constructed to hit each ladder element."""
    which = "b" if claim.detail("condition").startswith("b*") else "c"
    name = f"portrait:{claim.tag}:{claim.kind}"
    eset = relevant_exceptional(ctx.spec)
    if eset is None:
        return [CheckEntry(name, claim.tag, 0, "INCONCLUSIVE", None, "no ladder")]
    sphere = ctx.spec.sphere_b() if which == "b" else ctx.spec.sphere_c()
    sphere_val = -Fraction(sphere.q2, 2)
    built = _crit_targeted_samples(
        ctx.params, which, eset, max(4, ctx.sample_count // 4), seed
    )
    t = _Tally()
    for x0, k in built:
        t.samples += 1
        vals = _run_orbit(x0, ctx.params, k + 1, ctx.precision).valuations
        if len(vals) > k + 1 and vals[k + 1] != sphere_val:
            got = str(vals[k + 1])
            t.fail = {"x": str(x0), "k": k, "expected": str(sphere), "got": got}
            break
    return [_tail(name, claim.tag, _RETURNS, t)]


def _expansion_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """|f(x) - x_i| > |x - x_i| on the punctured ball around a repelling
    fixed point, verified with exact arithmetic.

    The stated ball contains the sphere through the pole -c, which also
    carries the other preimages of x_i; there the inequality genuinely
    breaks, so exhibits on that exact sphere are FLAGGED rather than
    FAILed.  A violation on any other sphere is an engine-level FAIL.
    """
    params = ctx.params
    info = ctx.infos[claim.detail("which")]
    name = f"portrait:{claim.tag}:{claim.kind}:{info.which}"
    xi = info.location
    if isinstance(xi, TruncatedPadic):
        note = "truncated fixed point"
        return [CheckEntry(name, claim.tag, 0, "INCONCLUSIVE", None, note)]
    p = params.p
    ball = claim.region.radius
    pole_val = point_val(-params.c - xi, p)
    per = max(1, ctx.sample_count // 3)
    t = _Tally()
    for j in range(1, 4):
        for d in _sample(ball.scaled_by_power(-2 * j), params, per, seed + j):
            x = xi + d
            try:
                fx = eval_f(x, params)
            except PoleHit:
                continue
            t.samples += 1
            before = point_val(x - xi, p)
            after = point_val(fx - xi, p)
            expanded = after is not TOP and before is not TOP and after < before
            if not expanded:
                exhibit = {"x": str(x), "v_before": str(before), "v_after": str(after)}
                if before != pole_val:
                    t.fail = exhibit
                    return [_tail(name, claim.tag, _EXPANSION, t)]
                t.flagged += 1
                t.exhibit = exhibit
    return [_tail(name, claim.tag, _EXPANSION, t)]


def _distance_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    name = f"portrait:{claim.tag}:{claim.kind}"
    actual = _separation_radius(
        ctx.params, ctx.infos["x1"].location, ctx.infos["x2"].location
    )
    recomputed = claim.detail("recomputed")
    stated = claim.detail("stated")
    status, cex, note = "PASS", None, ""
    if actual is None:
        status, note = "INCONCLUSIVE", "distance beyond precision"
    elif actual != recomputed:
        status = "FAIL"
        cex = {"actual": str(actual), "recomputed": str(recomputed)}
        note = "identity recomputation does not match the engine"
    elif actual != stated:
        status, note = "FLAGGED", f"stated {stated} but the exact distance is {actual}"
    return [CheckEntry(name, claim.tag, 1, status, cex, note)]


def _stated_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """fp-location / fp-character: the classifier already compared the
    stated value with the computed one."""
    status, note = _agreement(
        claim.detail("agree"),
        "stated and computed values disagree",
        "the applicable case leaves this unspecified",
    )
    if (
        claim.detail("agree") is False
        and claim.kind == "fp-location"
        and claim.region is not None
        and claim.detail("computed") == claim.region.radius
    ):
        note = "computed location sits exactly on the boundary sphere"
    name = f"portrait:{claim.tag}:{claim.kind}:{claim.detail('which')}"
    return [CheckEntry(name, claim.tag, 1, status, None, note)]


def _condition_qualifier(claim, ctx: _Context):
    """Sample filter for conditional claims: evaluates the critical value
    at the orbit's arrival on the critical sphere and keeps the sample
    when the stated condition holds."""
    cond = claim.detail("condition")
    if cond is None:
        return None
    params = ctx.params
    which = "b" if cond.startswith("b*") else "c"
    want_in = not cond.endswith("-not-in-ladder")
    eset = relevant_exceptional(ctx.spec)

    def qualifier(x0) -> bool:
        region = claim.region
        y = x0
        if region is not None and region.kind == "on-ladder":
            k = region.ladder.member(
                Radius.from_val(params.p, point_val(x0, params.p))
            )
            if k is None:
                return False
            if k > 0:
                rec = _run_orbit(x0, params, k, ctx.precision)
                if len(rec.points) <= k:
                    return False
                y = rec.points[k]
        try:
            crit = critical_value_at(y, params, which)
        except (PrecisionExhausted, PoleHit, WrongSphere):
            return False
        member = eset.member(crit) if eset is not None else None
        return (member is not None) if want_in else (member is None)

    return qualifier


# Each claim kind's check: (claim, context, seed) -> entries.
_CLAIM_CHECKS: Dict[str, Callable] = {
    "limit-zero": _THRESHOLD,
    "conditional-limit-zero": _THRESHOLD,
    "escape": _THRESHOLD,
    "conditional-escape": _THRESHOLD,
    "basin": _basin_checks,
    "invariant-sphere": _CONSTANT,
    "siegel": _CONSTANT,
    "eventually-constant-radius": _Plan(
        _judge_eventually_constant,
        stride=4001,
        empty="no qualifying sample",
        pending="{pending} orbit(s) without >= 5 stable trailing steps",
    ),
    "enters-sphere": _Plan(
        _judge_enters_sphere, stride=5003, share=3, steps=lambda horizon, k: k
    ),
    "returns-to-sphere": _returns_check,
    "two-cycle-region": _Plan(
        _judge_two_cycle,
        stride=6007,
        share=4,
        steps=lambda horizon, i: max(2, horizon - horizon % 2),
        flagged=lambda t: (
            None,
            f"{t.flagged} sample(s) outside the certified core broke the two-step return",
        ),
    ),
    "enters-region": _Plan(
        _judge_enters_region,
        stride=7001,
        share=6,
        empty="no sample drawn",
        pending="{pending} orbit(s) had not entered within the horizon",
        flagged=_blocked_radii,
        fail_note="an orbit entered from a radius certified as blocked",
        stop_on_fail=False,
    ),
    "dichotomy": _Plan(
        _judge_dichotomy,
        share=None,
        pending="all sampled orbits stayed on the sphere within the horizon",
        passed="{passed} orbit(s) settled off the sphere, {pending} stayed",
        settles=True,
    ),
    "fp-location": _stated_check,
    "fp-character": _stated_check,
    "fp-distance": _distance_check,
    "fp-expansion": _expansion_check,
}


def check_portrait(
    params: MapParams,
    portrait: Optional[PhasePortrait] = None,
    sample_count: int = 20,
    horizon: int = 25,
    seed: int = 0,
    precision: int = 96,
) -> List[CheckEntry]:
    """Verify every claim the portrait makes, claim by claim."""
    if portrait is None:
        portrait = classify(params)
    ctx = _Context(
        params,
        params.radius_spec(),
        _probe_radii(params),
        {i.which: i for i in portrait.fixed_points},
        sample_count,
        horizon,
        precision,
    )
    entries: List[CheckEntry] = []
    for idx, claim in enumerate(portrait.claims):
        entries.extend(_CLAIM_CHECKS[claim.kind](claim, ctx, seed + 37 * idx))
    return entries


# ------------------------------------------------------- radius-level lemmas


def _verdicts_compatible(r: Radius, orbit_v, limit_v) -> bool:
    if orbit_v == limit_v:
        return True
    if isinstance(limit_v, (TwoCycleRegion, EventuallyInLambda)):
        if isinstance(orbit_v, (ToZero, ToInfinity)):
            return False
        if isinstance(limit_v, TwoCycleRegion) and isinstance(orbit_v, Cycle):
            return len(orbit_v.radii) <= 2 and r in orbit_v.radii
        return isinstance(
            orbit_v,
            (Cycle, FixedAt, EventuallyConstantAt, NeedsCriticalValue, HorizonExceeded),
        )
    if isinstance(orbit_v, NeedsCriticalValue):
        return isinstance(limit_v, (ToZero, ToInfinity))
    if isinstance(orbit_v, HorizonExceeded):
        return not isinstance(limit_v, HorizonExceeded)
    return False


def check_radius_lemmas(
    specs: Optional[Sequence[RadiusMapSpec]] = None, horizon: int = 80
) -> List[CheckEntry]:
    """Radius-level dynamics: the closed-form classifier against the
    mechanical iterator, the fixed-radius set, and the two-cycle zone."""
    if specs is None:
        specs = [params.radius_spec() for params in default_grid()]
    entries: List[CheckEntry] = []
    for spec in specs:
        label = f"p={spec.p}(va={spec.val_a},vb={spec.val_b},vc={spec.val_c})"
        lo_q2 = min(-2 * spec.val_b, -2 * spec.val_c) - 5
        hi_q2 = max(-2 * spec.val_b, -2 * spec.val_c) + 5
        probes = [Radius.zero(spec.p), Radius.infinite(spec.p)] + [
            Radius.from_exponent(spec.p, q2) for q2 in range(lo_q2, hi_q2 + 1)
        ]

        bad = None
        for r in probes:
            orbit_v = radius_orbit(r, spec, max_iter=horizon).verdict
            limit_v = limit_classify(r, spec)
            if not _verdicts_compatible(r, orbit_v, limit_v):
                bad = {
                    "radius": str(r),
                    "orbit": type(orbit_v).__name__,
                    "classifier": type(limit_v).__name__,
                }
                break
        entries.append(
            _pass_fail(
                f"radius:classify-vs-orbit:{label}",
                bad is None,
                bad,
                samples=len(probes),
                tag="RAD",
            )
        )

        fs = fix_set(spec)
        fixed = list(fs.members) + [
            ray.bound.scaled_by_power(e2)
            for ray in fs.rays
            for e2 in ((-3, -1) if ray.side == "below" else (1, 3))
        ]
        moved = [r for r in fixed if radius_step(r, spec) != r]
        entries.append(
            _pass_fail(
                f"radius:fix-set:{label}",
                not moved,
                {"radius": str(moved[-1])} if moved else None,
                samples=len(fixed),
                tag="RAD",
            )
        )

        if spec.regime is Regime.GT and spec.val_a > 0 and spec.s < 0:
            lam = lambda_interval(spec)
            members = lam.lattice_members()
            flagged = 0
            bad = None
            for r in members:
                try:
                    back = radius_step(radius_step(r, spec), spec)
                except CriticalValueNeeded:
                    flagged += 1
                    continue
                if back != r:
                    if lam.in_core(r):
                        bad = {"radius": str(r), "after_two_steps": str(back)}
                        break
                    flagged += 1
            status = "FAIL" if bad else ("FLAGGED" if flagged else "PASS")
            entries.append(
                CheckEntry(
                    f"radius:lambda-two-cycle:{label}",
                    "RAD",
                    len(members),
                    status,
                    bad,
                    f"{flagged} member(s) outside the certified core misbehave"
                    if flagged
                    else "",
                )
            )

            outside = [
                r
                for r in probes
                if r.is_finite and not r.is_zero and not lam.contains(r)
            ]
            entered = 0
            undecided = 0
            trapped: List[str] = []
            vstep = 1 if spec.val_a % 2 else 2
            for r in outside:
                cur = r
                hit = False
                for _ in range(horizon):
                    if lam.contains(cur):
                        hit = True
                        break
                    try:
                        cur = radius_step(cur, spec)
                    except CriticalValueNeeded:
                        break
                if hit:
                    entered += 1
                elif _interval_reachable(r, spec, lam, vstep) is False:
                    trapped.append(str(r))
                else:
                    undecided += 1
            entries.append(
                CheckEntry(
                    f"radius:lambda-entry:{label}",
                    "RAD",
                    len(outside),
                    "FLAGGED"
                    if trapped
                    else ("PASS" if entered else "INCONCLUSIVE"),
                    {"trapped_radii": trapped} if trapped else None,
                    f"{entered} entered, {undecided} undetermined on critical "
                    f"spheres, {len(trapped)} certified unable to enter",
                )
            )
    return entries


# ---------------------------------------------------------------- assembly


def default_grid() -> Tuple[MapParams, ...]:
    """Parameter roster over odd and even p covering 11 of the 13 cases:
    T1.4.2 and T1.4.3-5 have no row."""
    rosters = [
        (3, Fraction(9), 3, 1),
        (3, Fraction(2), 3, 1),
        (3, Fraction(1, 3), 3, 1),
        (3, Fraction(9), 1, 2),
        (5, Fraction(2), 1, 3),
        (3, Fraction(1, 9), 1, 2),
        (3, Fraction(27), 1, 6),
        (3, Fraction(9), 1, 6),
        (3, Fraction(81), 2, 9),
        (3, Fraction(3), 1, 6),
        (3, Fraction(4), 1, 3),
        (3, Fraction(4), 1, 9),
        (3, Fraction(1, 3), 1, 3),
        (2, Fraction(3), 4, 1),
        (2, Fraction(20), 4, 1),
        (2, Fraction(48), 4, 1),
    ]
    return tuple(validate_params(*r) for r in rosters)


def run_verification(
    params: MapParams,
    sample_count: int = 20,
    horizon: int = 25,
    seed: int = 0,
    precision: int = 96,
) -> VerificationReport:
    """The full suite for one parameter set: fixed-point algebra, the
    point-vs-radius bridge, every portrait claim, and the radius-level
    lemmas for this spec.  ``sample_count`` must be at least 1."""
    if sample_count < 1:
        raise InvalidArgument(f"sample count must be >= 1, got {sample_count}")
    portrait = classify(params)
    report = VerificationReport(params, seed, horizon, portrait=portrait)
    report.checks.extend(
        check_fixed_points(params, precision=max(64, precision), portrait=portrait)
    )
    report.checks.extend(
        check_lemma1(params, sample_count, min(horizon, 15), seed, precision)
    )
    report.checks.extend(
        check_portrait(params, portrait, sample_count, horizon, seed, precision)
    )
    report.checks.extend(check_radius_lemmas([params.radius_spec()], horizon=80))
    return report
