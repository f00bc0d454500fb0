"""Brute-force verification: iterate f exactly and cross-check every claim.

The harness samples points with exactly known absolute values, runs the
map with certified truncated arithmetic (p-adics for rational points,
their pairs over Q_p(sqrt(a)) for the critical-targeted starts near -b or
-c), and compares the observed valuations against the radius-map
predictions and the phase-portrait claims.  Every check is exact: a PASS
is an identity of valuations, never a float comparison.  A sample of
half-integer valuation (a multiple of sqrt(a), v(a) odd) runs no
arithmetic: its radii are the radius map's walk (``_run_orbit``), so the
lemma-1 bridge on it compares the radius map with itself, and the
property test ``test_half_integer_orbits_are_the_radius_walk`` holds both
orbit drivers to that walk.

One run builds one ``_Context`` (``_Context.of``): it checks the counts,
classifies the parameters once, with fixed points at max(64, precision)
digits (the only digits ``precision`` sets), and computes the probe radii
and |x1 - x2| once.  The three check families ``check_fixed_points``,
``check_lemma1`` and ``check_portrait`` take only that context: the
fixed-point checks and the portrait's claims read the same fixed points,
and the conditional claims read the portrait's exceptional ladder.  Each
fact has one entry: the fixed-point algebra (residuals, multipliers, the
branch swap, the engine's |x1 - x2| against the separation identity) is
``check_fixed_points``'s, and every stated value, a character or a
distance, is its portrait claim's.  The report carries the portrait's
flags, so its schema-1 document holds all that ``verify`` prints.

Every check that runs sampled orbits goes through one sampling engine.
A ``_Plan`` fixes the seed stride between probe radii, the per-radius
sample budget, the orbit length (0 for the expansion check, which judges
f(x) alone) and a judge.  The draw step ``_draws`` yields the points drawn
on each radius that a claim's condition admits; the judge loop ``_judged``
runs each one's orbit, hands it to the judge, whose verdict is pass,
pending, flagged or a FAIL counterexample, and turns the tally into the
``CheckEntry``.  The table ``_CLAIM_CHECKS`` maps each portrait claim kind
to its check, a ``_Plan`` for the sampled kinds; claim i of a portrait is
checked with seed ``seed + 37 * i``.  The point-vs-radius bridge
``check_lemma1`` is a plan over every probe radius, and returns-to-sphere
feeds the points it constructs on the critical sphere into the same loop.

Every limit claim (zero, escape, basin, constant radius) is judged by one
rule from one fate per orbit, ``_fate``: its first crossings of
p**-20 * min(|b|, |c|) and p**20 * max(|b|, |c|), its stable tail and the
limit its last radius certifies.  The thresholds sit on the map's own scale,
so conjugating by x = p**k * y moves them with the orbit.  A sample FAILs
by a certified fate other than its claim's (``_CLAIMED_FATE``) or by
crossing the opposite threshold, and passes by its certificate, or a
constant radius by 5 stable trailing steps.

The radius-level lemmas are rows of the table ``_RADIUS_LEMMAS``, checked
against one radius orbit per probe radius, computed once per spec.

Statuses: PASS (verified on all samples), FAIL (exact counterexample or
certified contrary fate, carried in the entry), FLAGGED (a discrepancy in
the stated behaviour — either a stated-vs-computed disagreement the
classifier already reported or a structural exception the verifier
certifies exactly — never an engine error), INCONCLUSIVE (horizon- or
precision-limited, or no qualifying sample; never silently promoted to PASS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .exactnum import (
    TOP,
    InvalidArgument,
    PrecisionExhausted,
    TruncatedPadic,
    vp_rat,
)
from .mapengine import (
    MAX_DIGITS,
    Completed,
    MapParams,
    OrbitRecord,
    PoleHit,
    PrecisionExhaustedAt,
    UnsupportedRadius,
    abs_f,
    derivative_at,
    eval_f,
    exact_eq,
    fixed_points,
    point_val,
    projective_orbit,
    sample_sphere,
    validate_params,
)
from .portrait import PhasePortrait, classify, separation_identity
from .radiusmaps import (
    Cycle,
    EventuallyConstantAt,
    EventuallyInLambda,
    FixedAt,
    HorizonExceeded,
    LambdaInterval,
    NeedsCriticalValue,
    Radius,
    RadiusMapSpec,
    Regime,
    ToInfinity,
    ToZero,
    TwoCycleRegion,
    fix_set,
    limit_classify,
    _image,  # the radius map's step rule on exponents
    radius_orbit,
)

# on the map's own scale, |f^n(x)| <= p**-THRESH * min(|b|, |c|) counts as
# converged to zero and >= p**THRESH * max(|b|, |c|) as escaped
_THRESH = 20
# the radius orbits of the radius lemmas run at most this many steps
_RADIUS_HORIZON = 80
# sampled orbits start at this width and double while the precision runs
# out, the last try at MAX_DIGITS or wider; verdicts read certified valuations
_START_DIGITS = 16


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


def _pass_fail(name: str, ok: bool, cex: dict, note: str = "", samples: int = 1) -> CheckEntry:
    """A fixed-point check that either holds or fails with the
    counterexample ``cex``."""
    if ok:
        return CheckEntry(name, "FP", samples, "PASS", None, note)
    return CheckEntry(name, "FP", samples, "FAIL", cex, note)


STATUSES = ("PASS", "FLAGGED", "INCONCLUSIVE", "FAIL")


@dataclass
class VerificationReport:
    """The checks of one verification run, and the flags of the phase
    portrait the claims were checked against."""

    params: MapParams
    seed: int
    horizon: int
    checks: List[CheckEntry] = field(default_factory=list)
    flags: Tuple[str, ...] = ()

    def counts(self) -> Dict[str, int]:
        """Number of checks with each status, in ``STATUSES`` order."""
        out = dict.fromkeys(STATUSES, 0)
        for e in self.checks:
            out[e.status] += 1
        return out

    @property
    def has_fail(self) -> bool:
        return any(e.status == "FAIL" for e in self.checks)

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "verification": {
                "params": self.params.to_dict(),
                "seed": self.seed,
                "horizon": self.horizon,
                "checks": [e.to_dict() for e in self.checks],
                "flags": list(self.flags),
            },
        }


# --------------------------------------------------------- critical values


def critical_value_at(x, params: MapParams, which: str) -> Radius:
    """|f(x)| on a critical sphere: the exact image radius of a point with
    |x| = |w|, w = b or c, which the radius map alone cannot give.

    x = -b maps to zero exactly; x = -c is the pole.
    """
    if which not in ("b", "c"):
        raise InvalidArgument("which must be 'b' or 'c'")
    w_val = params.val_b if which == "b" else params.val_c
    v = point_val(x, params.p)
    if v != w_val:
        raise WrongSphere(f"point valuation {v!s} is off the |{which}| sphere")
    return abs_f(x, params)


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
    try:
        return sample_sphere(radius, params, count, seed)
    except UnsupportedRadius:
        return []


def _run_orbit(x0, params: MapParams, steps: int):
    """Orbit record with certified valuations.  A start of valuation in
    1/2 + Z is its radius walk: v(x + w) = min(v(x), v(w)) for every w in
    Q_p, so its radii are the radius map's walk from the odd exponent
    q2 = -2*v(x0), which never meets a critical sphere.  Its record holds
    the walk's valuations, ``Completed(steps)`` and the start as its only
    point.  Every other start runs as a ``projective_orbit`` from
    ``_START_DIGITS`` digits, retried with twice the digits while the
    precision runs out.  The valuations are exact at any width, so the
    width decides only whether the steps finish.  The judges read
    valuations and only a few points, and ``projective_orbit`` builds a
    rational point only when it is read."""
    v = point_val(x0, params.p)
    if v is not TOP and v % 1:
        spec, q2, vals = params.radius_spec(), int(-2 * v), [v]
        for _ in range(steps):
            q2 = _image(q2, spec)
            vals.append(Fraction(-q2, 2))
        return OrbitRecord((x0,), tuple(vals), Completed(steps))
    digits = _START_DIGITS
    while True:
        rec = projective_orbit(x0, params, steps, digits)
        if (
            not isinstance(rec.termination, PrecisionExhaustedAt)
            or digits >= MAX_DIGITS
        ):
            return rec
        digits *= 2


class _Fate(NamedTuple):
    """What an orbit record certifies: the first steps (or None) certifying
    |x| <= p**-THRESH * min(|b|, |c|) and |x| >= p**THRESH * max(|b|, |c|),
    the length of its stable tail, and the fate its last radius certifies:
    zero, infinity, constant or None."""

    zero_at: Optional[int]
    infinity_at: Optional[int]
    tail: int
    certified: Optional[str]


# The fates limit_classify certifies; every other verdict certifies none,
# TwoCycleRegion included: a two-cycle of radii is not a limit.
_CERTIFIED = {
    ToZero: "zero",
    ToInfinity: "infinity",
    FixedAt: "constant",
    EventuallyConstantAt: "constant",
}


def _fate(rec, ctx: _Context) -> _Fate:
    """The fate of an orbit record.  The certificate is sound as the radius
    dynamics off the critical spheres depends on the radius alone; an exact
    zero is read first, as limit_classify calls the zero radius fixed."""
    vals, spec = rec.valuations, ctx.spec
    zero_v = max(spec.val_b, spec.val_c) + _THRESH
    infinity_v = min(spec.val_b, spec.val_c) - _THRESH
    zero_at = next((i for i, v in enumerate(vals) if v is TOP or v >= zero_v), None)
    infinity_at = next((i for i, v in enumerate(vals) if v is not TOP and v <= infinity_v), None)
    tail = 0
    while tail < len(vals) and vals[-1 - tail] == vals[-1]:
        tail += 1
    certified = None
    if vals and vals[-1] is TOP:
        certified = "zero"
    elif vals:
        verdict = limit_classify(Radius.from_val(ctx.params.p, vals[-1]), ctx.spec)
        certified = _CERTIFIED.get(type(verdict))
    return _Fate(zero_at, infinity_at, tail, certified)


# ------------------------------------------------------------- run context


class _Context(NamedTuple):
    """What every check family of one run shares, built once by ``of``:
    the portrait, its fixed points by name, the probe radii, |x1 - x2|
    (None if uncertified), the run's counts, seed and fixed-point digits."""

    params: MapParams
    spec: RadiusMapSpec
    portrait: PhasePortrait
    infos: dict  # which -> FixedPointInfo, the portrait's fixed points
    probes: List[Radius]
    separation: Optional[Radius]
    sample_count: int
    horizon: int
    seed: int
    fp_digits: int

    @classmethod
    def of(
        cls, params: MapParams, sample_count: int, horizon: int, seed: int, precision: int
    ) -> "_Context":
        """Checks that the three counts are at least 1, then classifies once,
        with fixed points at max(64, precision) digits."""
        counts = (("sample count", sample_count), ("horizon", horizon), ("precision", precision))
        for name, n in counts:
            if n < 1:
                raise InvalidArgument(f"{name} must be >= 1, got {n}")
        fp_digits = max(64, precision)
        portrait = classify(params, precision=fp_digits)
        infos = {i.which: i for i in portrait.fixed_points}
        try:
            gap = point_val(infos["x1"].location - infos["x2"].location, params.p)
            separation = Radius.from_val(params.p, gap)
        except PrecisionExhausted:
            separation = None
        return cls(
            params, params.radius_spec(), portrait, infos, _probe_radii(params),
            separation, sample_count, horizon, seed, fp_digits,
        )


# ------------------------------------------------------------- fixed points


def check_fixed_points(ctx: _Context) -> List[CheckEntry]:
    """Fixed-point algebra of the portrait's fixed points: residuals,
    multipliers, branch symmetry and the separation identity.  The stated
    characters are the portrait's claims, checked by ``check_portrait``."""
    params = ctx.params
    infos = ctx.portrait.fixed_points
    lam0 = derivative_at(Fraction(0), params)
    got = infos[0].multiplier
    entries = [
        _pass_fail("fp-lambda0", got == lam0, {"expected": str(lam0), "got": str(got)})
    ]
    for info in infos[1:]:
        res = exact_eq(eval_f(info.location, params), info.location)
        entries.append(
            _pass_fail(
                f"fp-residual:{info.which}",
                res is not False,
                {"which": info.which},
                "" if res else "vanishes to working precision",
            )
        )
        der = derivative_at(info.location, params)
        res = exact_eq(der, info.multiplier)
        entries.append(
            _pass_fail(
                f"fp-multiplier:{info.which}",
                res is not False,
                {"derivative": str(der), "closed_form": str(info.multiplier)},
                "" if res else "agrees to working precision",
            )
        )

    swapped = fixed_points(params, precision=ctx.fp_digits, conjugate_root=True)
    pairs = ((swapped[1], infos[2]), (swapped[2], infos[1]))
    swap_ok = all(one.location == other.location for one, other in pairs)
    cex = {"swapped_x1": str(swapped[1].location)}
    entries.append(_pass_fail("fp-branch-swap", swap_ok, cex, samples=2))

    actual = ctx.separation
    if actual is None:
        entries.append(
            CheckEntry("fp-separation", "FP", 1, "INCONCLUSIVE", None, "beyond precision")
        )
    else:
        expected = separation_identity(params)
        cex = {"actual": str(actual), "identity": str(expected)}
        entries.append(_pass_fail("fp-separation", actual == expected, cex))
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
    only count as having stayed, and a settled PASS without a ``passed``
    note keeps the ``pending`` one; without ``stop_on_fail`` every sample
    is judged and the last FAIL is reported.
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


def _draws(ctx: _Context, plan: _Plan, radii: List[Radius], seed: int, qualifier=None):
    """The draw step: ``(i, radius, x0)`` for each point drawn on the i-th
    radius that ``qualifier`` admits, drawn and tested only as the judge
    loop asks for the next one."""
    if plan.share is None:
        per = ctx.sample_count
    else:
        per = max(1, ctx.sample_count // (plan.share or max(1, len(radii))))
    for i, radius in enumerate(radii):
        for x0 in _sample(radius, ctx.params, per, seed + plan.stride * i):
            if qualifier is None or qualifier(x0):
                yield i, radius, x0


def _judged(name: str, tag: str, claim, ctx: _Context, plan: _Plan, draws) -> CheckEntry:
    """The judge loop: runs each drawn sample's orbit, hands it to the
    plan's judge and turns the tally of verdicts into one entry: FAIL, else
    no sample, else FLAGGED, else undecided, else PASS."""
    t = _Tally()
    for i, radius, x0 in draws:
        t.samples += 1
        steps = plan.steps(ctx.horizon, i)
        rec = _run_orbit(x0, ctx.params, steps) if steps else None
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
                break
    if t.fail is not None:
        return CheckEntry(name, tag, t.samples, "FAIL", t.fail, plan.fail_note)
    if t.samples == 0:
        return CheckEntry(name, tag, 0, "INCONCLUSIVE", None, plan.empty)
    if t.flagged:
        return CheckEntry(name, tag, t.samples, "FLAGGED", *plan.flagged(t))
    if t.pending and not (plan.settles and t.passed):
        note = plan.pending.format(**vars(t))
        return CheckEntry(name, tag, t.samples, "INCONCLUSIVE", None, note)
    note = plan.passed or (plan.pending if t.pending else "")
    return CheckEntry(name, tag, t.samples, "PASS", None, note.format(**vars(t)))


def _sampled_entry(
    claim, ctx: _Context, seed: int, plan: _Plan, radii=None, suffix=""
) -> CheckEntry:
    """One claim's samples on the radii of its region (or ``radii``)."""
    if radii is None:
        radii = _radii_in_region(claim.region, ctx.probes)
    draws = _draws(ctx, plan, radii, seed, _condition_qualifier(claim, ctx))
    name = f"portrait:{claim.tag}:{claim.kind}{suffix}"
    return _judged(name, claim.tag, claim, ctx, plan, draws)


# ------------------------------------------------------------------ judges


# The fate each limit claim kind asserts.
_CLAIMED_FATE = {
    "limit-zero": "zero",
    "conditional-limit-zero": "zero",
    "basin": "zero",
    "escape": "infinity",
    "conditional-escape": "infinity",
    "eventually-constant-radius": "constant",
}


def _judge_limit(ctx, claim, t, i, radius, x0, rec):
    """Limit claims, from the orbit's fate.

    A sample fails by a certified fate other than the claimed one, or by
    crossing the threshold opposite its claimed limit.  It passes by the
    claimed certificate; a constant radius passes by 5 stable trailing
    steps instead.
    """
    fate = _fate(rec, ctx)
    claimed = _CLAIMED_FATE[claim.kind]
    if fate.certified not in (None, claimed):
        return {"x": str(x0), "certified": fate.certified, "claimed": claimed}
    opposite = {"zero": fate.infinity_at, "infinity": fate.zero_at}.get(claimed)
    if opposite is not None:
        v = rec.valuations[opposite]
        return {"x": str(x0), "step": opposite, "valuation": str(v), "claimed": claimed}
    passed = fate.tail >= 5 if claimed == "constant" else fate.certified == claimed
    return None if passed else _PENDING


def _judge_outside(ctx, claim, t, i, radius, x0, rec):
    """Points outside a claimed basin must not fall into it."""
    fate = _fate(rec, ctx)
    if fate.zero_at is not None or fate.certified == "zero":
        return {"x": str(x0), "note": "converged to zero outside the basin"}
    return None


def _judge_constant(ctx, claim, t, i, radius, x0, rec):
    vals = rec.valuations
    for k, v in enumerate(vals):
        if v != vals[0]:
            return {"x": str(x0), "step": k, "expected": str(vals[0]), "got": str(v)}
    return None


def _judge_enters_sphere(ctx, claim, t, k, radius, x0, rec):
    """A point on ladder element k is on the critical sphere after k steps."""
    if rec is None:
        return None  # on the sphere already, by construction
    vals = rec.valuations
    if len(vals) <= k:
        return _PENDING  # the orbit ended (pole or precision) before step k
    spec = ctx.spec
    target = spec.sphere_b() if claim.detail("sphere") == "b" else spec.sphere_c()
    if vals[k] != -Fraction(target.q2, 2):
        got = Radius.from_val(spec.p, vals[k])
        return {"x": str(x0), "k": k, "expected": str(target), "got": str(got)}
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
    (_, d_bottom), _, (_, d_top) = spec.zones
    kcap = max(abs(d_bottom), abs(d_top), 4) + 2
    window = (
        4 * kcap
        + max(abs(start.q2), 2 * spec.val_b, 2 * spec.val_c, 2 * abs(spec.val_a))
        + 32
    )
    top_b, bottom_c = spec.bound_b.q2, spec.bound_c.q2  # largest / smallest sphere image
    seen: set = set()
    frontier = [start.q2]  # every exponent stays finite: the spheres fan out
    while frontier:
        q = frontier.pop()
        if q in lam.q2s:
            return True
        if q in seen:
            continue
        seen.add(q)
        if abs(q) > window or len(seen) > 4096:
            return None
        if q == -2 * spec.val_b:
            frontier.extend(top_b - 2 * vstep * k for k in range(kcap))
        elif q == -2 * spec.val_c:
            frontier.extend(bottom_c + 2 * vstep * k for k in range(kcap))
        else:
            frontier.append(_image(q, spec))
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


_LIMIT = _Plan(
    _judge_limit,
    stride=2003,
    empty="no qualifying sample",
    pending="{pending} orbit(s) undecided within the horizon",
)
_CONSTANT = _Plan(_judge_constant, stride=3001, steps=lambda horizon, i: min(horizon, 30))
_OUTSIDE = _Plan(_judge_outside, stride=8009)


# ------------------------------------------------------------ Lemma bridge


def _judge_bridge(ctx, claim, t, i, radius, x0, rec):
    """Walk the orbit's radii through the radius map on exponents q2 = -2*v
    (a zero radius held as a ``Radius``) against -2*v of each next point.  A
    critical sphere's image is the point-level critical value |f(x)|
    (``critical_value_at``); no spec is built.  A start, critical value or
    later point beyond the working precision leaves the sample pending."""
    p, spec, vals = ctx.params.p, ctx.spec, rec.valuations
    if not vals:
        return _PENDING  # start valuation not certified
    r = Radius.zero(p) if vals[0] is TOP else int(-2 * vals[0])
    for j in range(len(vals) - 1):
        if type(r) is int:
            r = _image(r, spec)
            if type(r) is not int:  # a critical sphere's row (q2, name)
                try:
                    crit = critical_value_at(rec.points[j], ctx.params, r[1])
                except PrecisionExhausted:
                    return _PENDING
                except PoleHit:
                    return None
                r = crit.q2 if crit.is_finite else crit
        v = vals[j + 1]
        if r != (Radius.zero(p) if v is TOP else -2 * v):
            want = Radius.from_exponent(p, r) if type(r) is int else r
            got = Radius.from_val(p, v)
            return {"x": str(x0), "step": j + 1, "expected": str(want), "got": str(got)}
        if type(r) is not int:
            break  # the zero radius, matched
    return _PENDING if isinstance(rec.termination, PrecisionExhaustedAt) else None


_BRIDGE = _Plan(
    _judge_bridge,
    stride=1009,
    steps=lambda horizon, i: min(horizon, 15),
    empty="no samples",
    pending="{pending} sample(s) precision-limited",
    settles=True,
)


def check_lemma1(ctx: _Context) -> List[CheckEntry]:
    """Point-level |f^n(x)| against the bridged radius-map iterate, on
    samples from every probe radius, over at most 15 steps."""
    draws = _draws(ctx, _BRIDGE, ctx.probes, ctx.seed)
    entry = _judged("lemma1-bridge", "L1", None, ctx, _BRIDGE, draws)
    if entry.status != "FAIL" and entry.samples:
        entry.samples += 1  # x = 0 is a trivial bridged sample: both sides stay at zero
    return [entry]


# ------------------------------------------------------ claim checks by kind


def _basin_checks(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    entries = _LIMIT(claim, ctx, seed)
    outside = [r for r in ctx.probes if not claim.region.contains(r)][:6]
    if outside:
        entries.append(_sampled_entry(claim, ctx, seed + 1, _OUTSIDE, outside, ":outside"))
    return entries


def _crit_targeted_samples(
    params: MapParams, which: str, ladder, count: int, seed: int
) -> List[Tuple[int, Radius, object]]:
    """Draws ``(k, sphere, x0)`` of points x0 on the |which| sphere whose
    critical value is ladder element k, built by placing x near -b (deep
    numerator) or near -c (deep denominator) at the exact depth the ladder
    element requires.

    Every candidate is post-verified; a wrong sphere or wrong critical
    value drops it, so the construction can only under-sample.
    """
    p = params.p
    w_val = params.val_b if which == "b" else params.val_c
    sphere = Radius.from_val(p, w_val)
    v_cb = vp_rat(params.c - params.b, p)
    out: List[Tuple[int, Radius, object]] = []
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
                try:
                    crit = critical_value_at(x0, params, which)
                except (PoleHit, PrecisionExhausted, WrongSphere):
                    continue
                if crit == target and ladder.member(crit) == k:
                    out.append((k, sphere, x0))
                    if len(out) >= count:
                        return out
    return out


def _judge_returns(ctx, claim, t, k, sphere, x0, rec):
    """A point whose critical value is ladder element k is back on the
    sphere after k + 1 steps."""
    vals = rec.valuations
    if len(vals) > k + 1 and vals[k + 1] != -Fraction(sphere.q2, 2):
        got = Radius.from_val(sphere.p, vals[k + 1])
        return {"x": str(x0), "k": k, "expected": str(sphere), "got": str(got)}
    return None


def _judge_expansion(ctx, claim, t, i, radius, d, rec):
    """|f(x) - x_i| > |x - x_i| at x = x_i + d, in exact arithmetic.

    The stated ball contains the sphere through the pole -c, which also
    carries the other preimages of x_i; there the inequality genuinely
    breaks, so an exhibit on that exact sphere is FLAGGED rather than
    FAILed.  A violation on any other sphere is an engine-level FAIL.
    """
    params = ctx.params
    xi = ctx.infos[claim.detail("which")].location
    x = xi + d
    before = point_val(x - xi, params.p)
    after = point_val(eval_f(x, params) - xi, params.p)
    if after is not TOP and before is not TOP and after < before:
        return None
    exhibit = {"x": str(x), "v_before": str(before), "v_after": str(after)}
    if before != point_val(-params.c - xi, params.p):
        return exhibit
    t.exhibit = exhibit
    return _FLAGGED


_RETURNS = _Plan(_judge_returns, steps=lambda horizon, k: k + 1, empty="no constructible sample")
_EXPANSION = _Plan(
    _judge_expansion,
    stride=1,
    share=3,
    steps=lambda horizon, i: 0,
    empty="no sample",
    flagged=lambda t: (t.exhibit, "inequality breaks on the sphere through the pole"),
)


def _returns_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """Critical value on ladder element k => f^(k+1) lands back on the
    sphere; the samples are constructed to hit each ladder element."""
    name = f"portrait:{claim.tag}:{claim.kind}"
    eset = ctx.portrait.exceptional
    if eset is None:
        return [CheckEntry(name, claim.tag, 0, "INCONCLUSIVE", None, "no ladder")]
    which = "b" if claim.detail("condition").startswith("b*") else "c"
    draws = _crit_targeted_samples(ctx.params, which, eset, max(4, ctx.sample_count // 4), seed)
    return [_judged(name, claim.tag, claim, ctx, _RETURNS, draws)]


def _expansion_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """|f(x) - x_i| > |x - x_i| on the punctured ball around a repelling
    fixed point x_i, at x = x_i + d on three spheres inside it, pole excluded."""
    info = ctx.infos[claim.detail("which")]
    name = f"portrait:{claim.tag}:{claim.kind}:{info.which}"
    xi = info.location
    if isinstance(xi, TruncatedPadic):
        note = "truncated fixed point"
        return [CheckEntry(name, claim.tag, 0, "INCONCLUSIVE", None, note)]
    radii = [claim.region.radius.scaled_by_power(-2 * j) for j in range(1, 4)]
    pole = -ctx.params.c - xi
    draws = _draws(ctx, _EXPANSION, radii, seed + 1, lambda d: not exact_eq(d, pole))
    return [_judged(name, claim.tag, claim, ctx, _EXPANSION, draws)]


def _distance_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """The stated |x1 - x2| against the separation identity; the engine's
    distance is held to the identity by ``fp-separation``."""
    stated, exact = claim.detail("stated"), claim.detail("recomputed")
    status, note = "PASS", ""
    if stated != exact:
        status, note = "FLAGGED", f"stated {stated} but the exact distance is {exact}"
    return [CheckEntry(f"portrait:{claim.tag}:{claim.kind}", claim.tag, 1, status, None, note)]


def _stated_check(claim, ctx: _Context, seed: int) -> List[CheckEntry]:
    """fp-location / fp-character: the classifier already compared the
    stated value with the computed one."""
    agree = claim.detail("agree")
    status, note = "PASS", ""
    if agree is None:
        status, note = "FLAGGED", "the applicable case leaves this unspecified"
    elif not agree:
        status, note = "FLAGGED", "stated and computed values disagree"
        if (
            claim.kind == "fp-location"
            and claim.region is not None
            and claim.detail("computed") == claim.region.radius
        ):
            note = "computed location sits exactly on the boundary sphere"
    name = f"portrait:{claim.tag}:{claim.kind}:{claim.detail('which')}"
    return [CheckEntry(name, claim.tag, 1, status, None, note)]


def _condition_qualifier(claim, ctx: _Context):
    """Sample filter for conditional claims: evaluates the critical value
    at the orbit's arrival x_k on the critical sphere, after k > 0 steps as
    |x_(k+1)|, certified at any width, and keeps the sample when the
    stated condition holds."""
    cond = claim.detail("condition")
    if cond is None:
        return None
    params = ctx.params
    which = "b" if cond.startswith("b*") else "c"
    w_val = params.val_b if which == "b" else params.val_c
    want_in = not cond.endswith("-not-in-ladder")
    eset = ctx.portrait.exceptional

    def qualifier(x0) -> bool:
        region = claim.region
        k = 0
        if region is not None and region.kind == "on-ladder":
            k = region.ladder.member(Radius.from_val(params.p, point_val(x0, params.p)))
            if k is None:
                return False
        if k:
            # the judge reruns it: 90 of 11,021 grid steps, vs ~400 to qualify on full orbits
            vals = _run_orbit(x0, params, k + 1).valuations
            if len(vals) <= k + 1 or vals[k] != w_val:
                return False  # ended before step k + 1, or x_k off the sphere
            crit = Radius.from_val(params.p, vals[k + 1])
        else:
            try:
                crit = critical_value_at(x0, params, which)
            except (PrecisionExhausted, PoleHit, WrongSphere):
                return False
        member = eset.member(crit) if eset is not None else None
        return (member is not None) if want_in else (member is None)

    return qualifier


# Each claim kind's check: (claim, context, seed) -> entries.
_CLAIM_CHECKS: Dict[str, Callable] = {
    "limit-zero": _LIMIT,
    "conditional-limit-zero": _LIMIT,
    "escape": _LIMIT,
    "conditional-escape": _LIMIT,
    "basin": _basin_checks,
    "invariant-sphere": _CONSTANT,
    "siegel": _CONSTANT,
    "eventually-constant-radius": _LIMIT._replace(
        stride=4001, pending="{pending} orbit(s) without >= 5 stable trailing steps"
    ),
    "enters-sphere": _Plan(
        _judge_enters_sphere,
        stride=5003,
        share=3,
        steps=lambda horizon, k: k,
        pending="{pending} orbit(s) ended before step k",
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


def check_portrait(ctx: _Context) -> List[CheckEntry]:
    """Verify every claim the portrait makes, claim by claim."""
    entries: List[CheckEntry] = []
    for idx, claim in enumerate(ctx.portrait.claims):
        entries.extend(_CLAIM_CHECKS[claim.kind](claim, ctx, ctx.seed + 37 * idx))
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


def _classify_vs_orbit(spec: RadiusMapSpec, orbits, lam):
    """The closed-form classifier against the mechanical iterator."""
    for orb in orbits:
        r = orb.start
        limit_v = limit_classify(r, spec)
        if not _verdicts_compatible(r, orb.verdict, limit_v):
            kinds = {"orbit": type(orb.verdict).__name__, "classifier": type(limit_v).__name__}
            return len(orbits), "FAIL", {"radius": str(r), **kinds}, ""
    return len(orbits), "PASS", None, ""


def _fix_set_check(spec: RadiusMapSpec, orbits, lam):
    """The fixed-radius set, and radii on its rays, are fixed by the map."""
    fs = fix_set(spec)
    fixed = [r.q2 for r in fs.members] + [
        ray.bound.q2 + e2
        for ray in fs.rays
        for e2 in ((-3, -1) if ray.side == "below" else (1, 3))
    ]
    moved = [q2 for q2 in fixed if _image(q2, spec) != q2]
    if moved:
        return len(fixed), "FAIL", {"radius": str(Radius.from_exponent(spec.p, moved[-1]))}, ""
    return len(fixed), "PASS", None, ""


def _lambda_two_cycle(spec: RadiusMapSpec, orbits, lam: LambdaInterval):
    """Members of the interval return after two steps: a core member that
    does not is a FAIL, any other is FLAGGED."""
    flagged = 0
    bad = None
    for q2 in lam.q2s:
        # members lie strictly between the spheres, so the first step is the
        # middle zone's; the second may land on a sphere (a row, not an int)
        back = _image(_image(q2, spec), spec)
        if back == q2:
            continue
        r = Radius.from_exponent(spec.p, q2)
        if lam.in_core(r) and type(back) is int:
            after = Radius.from_exponent(spec.p, back)
            bad = {"radius": str(r), "after_two_steps": str(after)}
            break
        flagged += 1  # outside the core, or onto a critical sphere
    status = "FAIL" if bad else ("FLAGGED" if flagged else "PASS")
    note = f"{flagged} member(s) outside the certified core misbehave" if flagged else ""
    return len(lam.q2s), status, bad, note


def _lambda_entry(spec: RadiusMapSpec, orbits, lam: LambdaInterval):
    """Probe radii outside the interval enter it within the horizon, or are
    certified unable to.  The first ``_RADIUS_HORIZON`` radii of a probe's
    radius orbit are the radii a walk of that many steps visits: the orbit stops
    early where the walk stops (a critical sphere with no value), at a
    repeat, after which the walk meets no new radius, or past an outer
    critical sphere, beyond which the walk stays, outside the interval."""
    vstep = 1 if spec.val_a % 2 else 2
    entered = undecided = 0
    trapped: List[str] = []
    for orb in orbits:
        start = orb.start
        if not start.is_finite or start.q2 in lam.q2s:
            continue
        if any(q2 in lam.q2s for q2 in orb.q2s[:_RADIUS_HORIZON]):
            entered += 1
        elif _interval_reachable(start, spec, lam, vstep) is False:
            trapped.append(str(start))
        else:
            undecided += 1
    status = "FLAGGED" if trapped else ("PASS" if entered else "INCONCLUSIVE")
    note = (
        f"{entered} entered, {undecided} undetermined on critical "
        f"spheres, {len(trapped)} certified unable to enter"
    )
    outside = entered + undecided + len(trapped)
    return outside, status, {"trapped_radii": trapped} if trapped else None, note


# Each radius lemma: (name, needs the two-cycle interval, check).  A check
# takes (spec, orbits, interval), where orbits holds one radius orbit of at
# most ``_RADIUS_HORIZON`` steps per probe radius (it starts at the probe),
# and returns (samples, status, counterexample, note).
_RADIUS_LEMMAS = (
    ("classify-vs-orbit", False, _classify_vs_orbit),
    ("fix-set", False, _fix_set_check),
    ("lambda-two-cycle", True, _lambda_two_cycle),
    ("lambda-entry", True, _lambda_entry),
)


def check_radius_lemmas(specs: Sequence[RadiusMapSpec]) -> List[CheckEntry]:
    """Radius-level dynamics: the closed-form classifier against the
    mechanical iterator, the fixed-radius set, and the two-cycle zone,
    each from radius orbits of at most ``_RADIUS_HORIZON`` steps."""
    entries: List[CheckEntry] = []
    for spec in specs:
        label = f"p={spec.p}(va={spec.val_a},vb={spec.val_b},vc={spec.val_c})"
        (lo, _), (hi, _) = spec.spheres  # the probes reach five beyond them
        probes = [Radius.zero(spec.p), Radius.infinite(spec.p)] + [
            Radius.from_exponent(spec.p, q2) for q2 in range(lo - 5, hi + 6)
        ]
        orbits = [radius_orbit(r, spec, max_iter=_RADIUS_HORIZON) for r in probes]
        has_lam = spec.two_cycle_regime
        lam = spec.lambda_region if has_lam else None
        entries.extend(
            CheckEntry(f"radius:{name}:{label}", "RAD", *check(spec, orbits, lam))
            for name, needs_lam, check in _RADIUS_LEMMAS
            if has_lam or not needs_lam
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
    lemmas for this spec, all on one context.  ``sample_count``, ``horizon``
    and ``precision`` must be at least 1; ``precision`` sets only the
    digits of the fixed points, at least 64.  The sampled orbits start at
    ``_START_DIGITS`` (16) digits and double while the precision runs out;
    a sample of half-integer valuation walks its radii instead."""
    ctx = _Context.of(params, sample_count, horizon, seed, precision)
    report = VerificationReport(params, seed, horizon, flags=ctx.portrait.flags)
    report.checks.extend(check_fixed_points(ctx))
    report.checks.extend(check_lemma1(ctx))
    report.checks.extend(check_portrait(ctx))
    report.checks.extend(check_radius_lemmas([ctx.spec]))
    return report
