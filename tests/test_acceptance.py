"""Acceptance gate: ten end-to-end criteria, all exact (zero tolerance).

Each test prints one ``[criterion N] <label>: PASS|FAIL`` line (visible
under ``pytest -s``).  Every comparison below is exact integer, rational,
or quadratic-extension arithmetic; no floats, no tolerances.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction as F

from udyn.cli import main
from udyn.exactnum import TOP, SqrtKind, sqrt_class, vp_rat
from udyn.mapengine import (
    Completed,
    derivative_at,
    eval_f,
    abs_f,
    fixed_points,
    orbit,
    point_val,
    sample_sphere,
    validate_params,
)
from udyn.oracle import _Context, check_lemma1
from udyn.portrait import classify
from udyn.radiusmaps import (
    Radius,
    RadiusMapSpec,
    lambda_interval,
    radius_step,
)


@contextlib.contextmanager
def criterion(n: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {n}] {label}: FAIL")
        raise
    print(f"[criterion {n}] {label}: PASS")


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


# --------------------------------------------------------------------- 1


def test_criterion_01_ultrametric_suite():
    with criterion(1, "ultrametric norm suite"):
        t0 = time.monotonic()
        for p in (2, 3, 5, 7):
            rng = random.Random(100 + p)
            for _ in range(10_000):
                x = F(rng.randint(1, 9999), rng.randint(1, 9999))
                y = F(rng.randint(1, 9999), rng.randint(1, 9999))
                x *= F(p) ** rng.randint(-6, 6)
                y *= F(p) ** rng.randint(-6, 6)
                if rng.random() < 0.5:
                    x = -x
                if rng.random() < 0.5:
                    y = -y
                vx, vy = vp_rat(x, p), vp_rat(y, p)
                assert vp_rat(x * y, p) == vx + vy
                vs = vp_rat(x + y, p)
                lo = min(vx, vy)
                assert vs is TOP or vs >= lo
                if vx != vy:
                    assert vs == lo
        assert time.monotonic() - t0 < 5.0


# --------------------------------------------------------------------- 2


BRIDGE_SETS = (
    # regime LT/EQ/GT (|b| vs |c|) crossed with |a| < 1, = 1, > 1
    (3, F(9), F(3), F(1)),
    (3, F(2), F(3), F(1)),
    (3, F(2, 9), F(3), F(1)),
    (3, F(9), F(1), F(2)),
    (3, F(2), F(1), F(2)),
    (3, F(1, 9), F(1), F(2)),
    (3, F(9), F(1), F(9)),
    (3, F(4), F(1), F(3)),
    (3, F(1, 3), F(1), F(3)),
    (2, F(3), F(4), F(1)),
)


def test_criterion_02_sphere_image_bridge():
    with criterion(2, "point-to-radius bridge on ten parameter sets"):
        t0 = time.monotonic()
        for (p, a, b, c) in BRIDGE_SETS:
            params = validate_params(p, a, b, c)
            ctx = _Context.of(params, sample_count=80, horizon=15, seed=11, precision=96)
            (entry,) = check_lemma1(ctx)
            assert entry.status == "PASS", (p, a, b, c, entry.note)
            assert entry.samples >= 20, (p, a, b, c, entry.samples)
        assert time.monotonic() - t0 < 30.0


# --------------------------------------------------------------------- 3


def test_criterion_03_fixed_point_algebra():
    with criterion(3, "exact fixed-point locations and multipliers"):
        rng = random.Random(33)
        made = 0
        for _ in range(5000):
            if made == 50:
                break
            p = rng.choice((2, 3, 5, 7))
            if rng.random() < 0.5:
                t = F(rng.randint(1, 40), rng.randint(1, 40))
                a = (t * F(p) ** rng.randint(-2, 2)) ** 2
            else:
                a = F(rng.randint(1, 60), rng.randint(1, 60))
                a *= F(p) ** rng.randint(-3, 3)
                if sqrt_class(a, p).kind is not SqrtKind.QP_NONSQUARE:
                    continue
            b = F(rng.randint(1, 30), rng.randint(1, 30)) * F(p) ** rng.randint(-2, 2)
            c = F(rng.randint(1, 30), rng.randint(1, 30)) * F(p) ** rng.randint(-2, 2)
            try:
                params = validate_params(p, a, b, c)
            except Exception:
                continue
            for info in fixed_points(params, 64):
                assert eval_f(info.location, params) == info.location
                assert derivative_at(info.location, params) == info.multiplier
            made += 1
        assert made == 50

        x0, x1, x2 = fixed_points(validate_params(3, 4, 1, 3), 64)
        assert x1.location == F(1) and x1.multiplier == F(3, 2)
        assert x2.location == F(-5, 3) and x2.multiplier == F(17, 2)


# --------------------------------------------------------------------- 4


def test_criterion_04_worked_valuation_example():
    with criterion(4, "single-step image and its 3-adic size"):
        params = validate_params(3, 9, 3, 1)
        y = eval_f(F(9), params)
        assert y == F(2916, 25)
        assert vp_rat(y, 3) == 6
        assert abs_f(F(9), params) == Radius.from_val(3, 6)


# --------------------------------------------------------------------- 5


def test_criterion_05_basin_and_invariant_spheres():
    with criterion(5, "contraction inside |c|, sphere invariance outside"):
        params = validate_params(3, 2, 3, 1)
        for v in (1, 2, 3, 4, 5):
            for x in sample_sphere(Radius.from_val(3, v), params, 10, 500 + v):
                rec = orbit(x, params, 30, precision=96)
                assert isinstance(rec.termination, Completed)
                assert any(w is TOP or w >= 20 for w in rec.valuations), x
        for v in (-1, -2, -3, -4, -5):
            for x in sample_sphere(Radius.from_val(3, v), params, 10, 700 - v):
                rec = orbit(x, params, 30, precision=96)
                assert isinstance(rec.termination, Completed)
                assert all(w == v for w in rec.valuations), x


# --------------------------------------------------------------------- 6


def test_criterion_06_siegel_disk_and_escape():
    with criterion(6, "constant valuation inside |b|, escape outside"):
        params = validate_params(3, F(2, 9), 3, 1)
        for v in (2, 3, 4, 5, 6):
            for x in sample_sphere(Radius.from_val(3, v), params, 10, 900 + v):
                rec = orbit(x, params, 30, precision=96)
                assert isinstance(rec.termination, Completed)
                assert all(w == v for w in rec.valuations), x
        for v in (0, -1, -2, -3, -4):
            for x in sample_sphere(Radius.from_val(3, v), params, 10, 1100 + v):
                rec = orbit(x, params, 30, precision=96)
                assert any(
                    w is not TOP and w <= -21 for w in rec.valuations
                ), (x, rec.valuations)


# --------------------------------------------------------------------- 7


def test_criterion_07_interval_two_cycles_and_entry():
    with criterion(7, "two-cycle interval: involution, entry, sphere return"):
        params = validate_params(3, 9, 1, 9)
        spec = params.radius_spec()
        lam = lambda_interval(spec)
        assert lam.to_dict()["lo"] == "1/9" and lam.to_dict()["hi"] == "5/9"

        members = lam.lattice_members()
        assert [str(r) for r in members] == ["3^-3/2", "3^-1"]
        for r in members:
            assert radius_step(radius_step(r, spec), spec) == r

        # 20 radii outside the interval, drawn from residue classes whose
        # radius walk never lands on a critical sphere (doubled exponent
        # not divisible by 4; classes that are divisible get stuck on the
        # critical spheres and never enter -- see the verifier's certified
        # blockage check).
        outside = [-11, -10, -9, -7, -6, -5, -1, 1, 2, 3, 5, 6, 7, 9, 10,
                   11, 13, 14, 15, 17]
        assert len(outside) == 20
        for q2 in outside:
            r = Radius.from_exponent(3, q2)
            assert not lam.contains(r)
            steps = 0
            while not lam.contains(r):
                r = radius_step(r, spec)
                steps += 1
                assert steps <= 60, q2

        for x in sample_sphere(Radius.from_val(3, 1), params, 12, 77):
            y = eval_f(eval_f(x, params), params)
            assert point_val(y, 3) == 1, x


# --------------------------------------------------------------------- 8


def test_criterion_08_p2_multiplier_thresholds():
    with criterion(8, "p=2 character thresholds at |a| = 1/8, 1/4, 1/2"):
        ladder = (
            (8, Radius.from_exponent(2, 1), "REPELLING"),
            (20, Radius.from_val(2, 1), "ATTRACTING"),
            (2, Radius.from_val(2, 0), "INDIFFERENT"),
        )
        for a, mult_abs, name in ladder:
            infos = fixed_points(validate_params(2, a, 4, 1), 64)
            for info in infos[1:]:
                assert info.multiplier_abs == mult_abs, (a, info.which)
                assert info.character.name == name, (a, info.which)


# --------------------------------------------------------------------- 9


def test_criterion_09_discrepancy_is_flagged_not_fatal():
    with criterion(9, "stated-vs-computed distance discrepancy is a flag"):
        params = validate_params(3, 9, 3, 1)
        port = classify(params).to_dict()
        assert "DISCREPANCY" in port["flags"]

        (dist,) = [c for c in port["claims"] if c["kind"] == "fp-distance"]
        assert dist["tag"] == "T1.2.3"
        assert dist["agree"] is False
        # |2|_p * sqrt(|a|_p) * |c|_p, recomputed here from the valuations
        q2 = 2 * vp_rat(F(2), 3) + params.val_a + 2 * params.val_c
        assert dist["recomputed"] == str(Radius.from_exponent(3, -q2))
        assert dist["stated"] == "1"
        assert dist["recomputed"] == "3^-1"

        code, out = _cli(
            "verify", "--p", "3", "--a", "9", "--b", "3", "--c", "1",
            "--samples", "12", "--seed", "5",
        )
        assert code == 0
        assert "DISCREPANCY" in out
        assert "result: PASS" in out


# -------------------------------------------------------------------- 10


def test_criterion_10_verify_output_is_deterministic():
    with criterion(10, "byte-identical verification reports"):
        argv = (
            "verify", "--p", "3", "--a", "9", "--b", "1", "--c", "9",
            "--samples", "15", "--seed", "42", "--output", "json",
        )
        code1, out1 = _cli(*argv)
        code2, out2 = _cli(*argv)
        assert code1 == code2 == 0
        assert out1 == out2
        json.loads(out1)  # well-formed
