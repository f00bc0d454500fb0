"""The benchmark's workloads.

Each workload builds its inputs from the seed (``inputs``, one pass in
``order``), runs one op per input in the timed region (``call``), turns the
op's output into a comparable record outside it (``record``) and checks that
record (``check``).  udyn functions are looked up on their module at call
time, so the traced run sees the same calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction


def _mod(name: str):
    return sys.modules[f"udyn.{name}"]


@dataclass
class Outcome:
    """Result of one output check.

    ``problem`` names what is wrong (None when the output is right);
    ``known`` marks a problem that is a documented defect of the program
    (see spec.json) rather than a new one.  ``answers`` counts the verdicts
    in the output and ``decided`` those that are exact, not INCONCLUSIVE
    or precision-exhausted.
    """

    problem: str | None
    decided: int
    answers: int
    known: bool = False


class VerifyGrid:
    """``udyn verify --output json`` in-process for each default_grid() row."""

    name = "verify-grid"
    precision = 96  # the CLI default; deeper truncated orbits are retries
    whole_passes = True  # rows differ 20x in cost; a partial pass skews the mix
    trace_ops = 16

    def __init__(self, seed: int) -> None:
        self.inputs = [
            [
                "verify",
                "--p", str(pr.p), "--a", str(pr.a), "--b", str(pr.b), "--c", str(pr.c),
                "--seed", str(seed),
                "--output", "json",
            ]
            for pr in _mod("oracle").default_grid()
        ]
        self.order = list(range(len(self.inputs)))
        self.seed = seed

    def call(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = _mod("cli").main(argv)
        return code, buf.getvalue()

    def record(self, out):
        return out

    def check(self, index: int, rec) -> Outcome:
        code, text = rec
        argv = self.inputs[index]
        try:
            doc = json.loads(text)
            ver = doc["verification"]
            statuses = [c["status"] for c in ver["checks"]]
            ok_schema = (
                doc["schema"] == 1
                and ver["seed"] == self.seed
                and ver["horizon"] == 25
                and [str(ver["params"][k]) for k in "pabc"] == argv[2:9:2]
                and all(s in ("PASS", "FAIL", "FLAGGED", "INCONCLUSIVE") for s in statuses)
            )
        except (ValueError, KeyError, TypeError):
            return Outcome("output is not schema-1 verification JSON", 0, 0)
        decided = sum(s != "INCONCLUSIVE" for s in statuses)
        if not ok_schema:
            return Outcome("output is not schema-1 verification JSON", decided, len(statuses))
        if "FAIL" in statuses:
            return Outcome("a check is FAIL", decided, len(statuses))
        if code != 0:
            return Outcome(f"exit code {code}", decided, len(statuses))
        return Outcome(None, decided, len(statuses))


def _vp(q: Fraction, p: int) -> int:
    n, d, v = q.numerator, q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def exact_valuations(x: Fraction, params, steps: int) -> list:
    """Valuations of the exact Fraction orbit of x, computed here without
    udyn, stopping early at zero or at the pole."""
    a, b, c, p = params.a, params.b, params.c, params.p
    vals = [_vp(x, p)]
    for _ in range(steps):
        if x + c == 0:
            break
        x = a * x * ((x + b) / (x + c)) ** 2
        if x == 0:
            break
        vals.append(_vp(x, p))
    return vals


class OrbitDeep:
    """200-step truncated orbits at 1536 digits from rational start points on
    every integer-valuation sphere around the critical spheres of each row."""

    name = "orbit-deep"
    steps = 200
    precision = 1536
    exact_steps = 6  # exact points triple in size per step; 6 stay cheap
    whole_passes = False  # a pass is ~25 s; ops are shuffled, so any prefix is a fair mix
    trace_ops = 24

    def __init__(self, seed: int) -> None:
        mapengine, radiusmaps = _mod("mapengine"), _mod("radiusmaps")
        rng = random.Random(f"orbit-deep/{seed}")
        self.inputs = []
        for params in _mod("oracle").default_grid():
            lo = min(params.val_b, params.val_c) - 3
            hi = max(params.val_b, params.val_c) + 3
            for v in range(lo, hi + 1):
                radius = radiusmaps.Radius.from_val(params.p, v)
                (x,) = mapengine.sample_sphere(radius, params, 1, rng.randrange(1 << 32))
                self.inputs.append((x, params))
        self.order = list(range(len(self.inputs)))
        rng.shuffle(self.order)

    def call(self, inp):
        x, params = inp
        return _mod("mapengine").orbit(x, params, self.steps, precision=self.precision)

    def record(self, rec):
        points = tuple(
            None if pt.exact_zero else (pt.val, pt.unit, pt.digits) for pt in rec.points
        )
        return (tuple(rec.valuations), json.dumps(rec.termination.to_dict()), hash(points))

    def check(self, index: int, rec) -> Outcome:
        vals, termination, _ = rec
        decided = int(json.loads(termination)["kind"] != "precision-exhausted")
        x, params = self.inputs[index]
        exact = exact_valuations(x, params, self.exact_steps)
        n = min(len(vals), len(exact))
        if n == 0 or list(vals[:n]) != exact[:n]:
            return Outcome("valuations differ from the exact Fraction orbit", decided, 1)
        return Outcome(None, decided, 1)


def known_defect(name: str, counterexample) -> bool:
    """A FAIL entry that is the documented radius:classify-vs-orbit defect
    (spec.json): the classifier says TwoCycleRegion, the iterator finds a
    cycle without the start radius."""
    cex = counterexample or {}
    return (
        name.startswith("radius:classify-vs-orbit:")
        and cex.get("classifier") == "TwoCycleRegion"
        and cex.get("orbit") == "Cycle"
    )


class ClassifySweep:
    """classify() plus check_radius_lemmas() on a seeded roster of parameter
    sets far wider than the grid in p and in the valuations of a, b, c."""

    name = "classify-sweep"
    roster_size = 1500
    precision = 0  # runs no truncated orbits
    whole_passes = True
    trace_ops = 500

    def __init__(self, seed: int) -> None:
        mapengine = _mod("mapengine")
        rng = random.Random(f"classify-sweep/{seed}")
        self.inputs = []
        while len(self.inputs) < self.roster_size:
            p = rng.choice((2, 3, 5, 7, 11))
            a, b, c = (self._draw(rng, p) for _ in range(3))
            try:
                self.inputs.append(mapengine.validate_params(p, a, b, c))
            except mapengine.DegenerateParams:
                continue
        self.order = list(range(len(self.inputs)))

    @staticmethod
    def _draw(rng: random.Random, p: int) -> Fraction:
        """p**v * m/n with v in [-4, 4] and p-units 1 <= |m|, n <= 50."""
        v = rng.randint(-4, 4)
        while True:
            m = rng.randint(1, 50) * rng.choice((1, -1))
            n = rng.randint(1, 50)
            if m % p and n % p:
                return Fraction(p) ** v * Fraction(m, n)

    def call(self, params):
        portrait = _mod("portrait").classify(params)
        entries = _mod("oracle").check_radius_lemmas([params.radius_spec()])
        return portrait, entries

    def record(self, out):
        portrait, entries = out
        return (
            json.dumps(portrait.to_dict(), sort_keys=True),
            tuple((e.name, e.status, e.samples, json.dumps(e.counterexample)) for e in entries),
        )

    def check(self, index: int, rec) -> Outcome:
        _, entries = rec
        decided = sum(status != "INCONCLUSIVE" for _, status, _, _ in entries)
        fails = [known_defect(name, json.loads(cex)) for name, status, _, cex in entries if status == "FAIL"]
        if not all(fails):
            return Outcome("a radius lemma check is FAIL", decided, len(entries))
        if fails:
            return Outcome("known defect: radius:classify-vs-orbit", decided, len(entries), True)
        return Outcome(None, decided, len(entries))


WORKLOADS = {w.name: w for w in (VerifyGrid, OrbitDeep, ClassifySweep)}
