"""Classifier tests: case dispatch, per-case claims, and honesty flags."""

import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udyn.exactnum import SqrtKind, sqrt_class
from udyn.mapengine import Character, DegenerateParams, point_val, validate_params
from udyn.portrait import Region, case_of, character_from_multiplier, classify
from udyn.radiusmaps import Radius


def rad(p, q2):
    return Radius.from_exponent(p, q2)


def pick(portrait, kind, tag=None, which=None):
    out = [c for c in portrait.claims if c.kind == kind]
    if tag is not None:
        out = [c for c in out if c.tag == tag]
    if which is not None:
        out = [c for c in out if c.detail("which") == which]
    return out


def pick1(portrait, kind, tag=None, which=None):
    found = pick(portrait, kind, tag=tag, which=which)
    assert len(found) == 1, (kind, tag, which, found)
    return found[0]


CASES = [
    ((3, 9, 3, 1), "T1", "T1.2"),
    ((2, 8, 2, 1), "T1", "T1.2"),
    ((3, 2, 3, 1), "T1", "T1.3"),
    ((3, F(1, 3), 9, 1), "T1", "T1.4.1"),
    ((3, F(2, 9), 3, 1), "T1", "T1.4.2"),
    ((3, F(2, 27), 3, 1), "T1", "T1.4.3-5"),
    ((2, F(1, 16), 2, 1), "T1", "T1.4.3-5"),
    ((3, 9, 1, 2), "T2", "T2.A"),
    ((5, 2, 1, 3), "T2", "T2.B"),
    ((3, F(1, 9), 1, 2), "T2", "T2.C"),
    ((3, 243, 1, 9), "T3", "T3.II"),
    ((3, 162, 1, 9), "T3", "T3.III"),
    ((3, 9, 1, 9), "T3", "T3.IV"),
    ((3, 4, 1, 3), "T3", "T3.V"),
    ((3, F(1, 3), 1, 9), "T3", "T3.VI"),
    ((2, F(1, 2), 1, 4), "T3", "T3.VI"),
]


@pytest.mark.parametrize("quad,theorem,case", CASES)
def test_case_dispatch(quad, theorem, case):
    params = validate_params(*quad)
    assert case_of(params.radius_spec()) == (theorem, case)
    portrait = classify(params)
    assert portrait.theorem == theorem
    assert portrait.case == case


def test_region_contains():
    ball = Region("ball", rad(3, 0))
    assert ball.contains(Radius.zero(3))
    assert ball.contains(rad(3, -1))
    assert not ball.contains(rad(3, 0))
    sphere = Region("sphere", rad(3, 0))
    assert not sphere.contains(Radius.zero(3))
    assert sphere.contains(rad(3, 0))
    above = Region("above", rad(3, 0))
    assert above.contains(rad(3, 2))
    assert not above.contains(Radius.infinite(3))
    allbut = Region("all-but-sphere", rad(3, 0))
    assert allbut.contains(rad(3, 2)) and not allbut.contains(rad(3, 0))


# ----------------------------------------------------------------- T1 cases


def test_t12_portrait():
    portrait = classify(validate_params(3, 9, 3, 1))
    assert portrait.flags == ("DISCREPANCY",)
    assert portrait.exceptional is not None and portrait.exceptional.kind == "B"

    zero = pick1(portrait, "limit-zero", tag="T1.2.1")
    assert zero.region.kind == "off-ladder"
    assert zero.region.contains(rad(3, -2))
    assert not zero.region.contains(rad(3, 0))  # |c| itself is on the ladder

    enters = pick1(portrait, "enters-sphere", tag="T1.2.2")
    assert enters.detail("sphere") == "c"
    cond = pick1(portrait, "conditional-limit-zero", tag="T1.2.2")
    assert cond.detail("condition") == "c*-not-in-ladder"

    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.tag == "T1.2.3"
        assert loc.detail("agree") is True
        assert loc.detail("computed") == rad(3, 0)
        char = pick1(portrait, "fp-character", which=which)
        assert char.tag == "T1.2.4"
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("computed") is Character.REPELLING
        assert char.detail("agree") is True
        pick1(portrait, "fp-expansion", which=which)

    dist = pick1(portrait, "fp-distance")
    assert dist.detail("stated") == rad(3, 0)
    assert dist.detail("recomputed") == rad(3, -2)  # |2| sqrt|a| |c| = 1/3
    assert dist.detail("agree") is False


@pytest.mark.parametrize(
    "quad,admissible,computed",
    [
        ((2, 8, 2, 1), ("repelling",), Character.REPELLING),
        ((2, 4, 2, 1), ("attracting",), Character.ATTRACTING),
        ((2, 2, 2, 1), ("indifferent",), Character.INDIFFERENT),
    ],
)
def test_t12_p2_thresholds(quad, admissible, computed):
    portrait = classify(validate_params(*quad))
    for which in ("x1", "x2"):
        char = pick1(portrait, "fp-character", which=which)
        assert char.tag == "T1.2.5"
        assert char.detail("admissible") == admissible
    x1 = pick1(portrait, "fp-character", which="x1")
    assert x1.detail("computed") is computed
    assert x1.detail("agree") is True
    assert "DISCREPANCY" in portrait.flags  # the distance restatement differs


def test_t13_boundary():
    portrait = classify(validate_params(3, 2, 3, 1))
    assert portrait.flags == ("BOUNDARY",)
    assert portrait.exceptional is None
    (basin,) = portrait.claims_of_kind("basin")
    assert basin.tag == "T1.3" and basin.region == Region("ball", rad(3, 0))
    inv = pick1(portrait, "invariant-sphere")
    assert inv.tag == "T1.1" and inv.region == Region("above", rad(3, 0))
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("relation") == "off-closed-ball"
        # both roots sit exactly on |c|, violating the strict exclusion
        assert loc.detail("computed") == rad(3, 0)
        assert loc.detail("agree") is False
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("indifferent", "attracting")
        assert char.detail("agree") is True


def test_t141_portrait():
    portrait = classify(validate_params(3, F(1, 3), 9, 1))
    assert portrait.flags == ()
    assert portrait.exceptional is None
    rho = rad(3, -1)  # |c| / sqrt|a| = 3**(-1/2)
    assert pick1(portrait, "invariant-sphere").region == Region("sphere", rho)
    (basin,) = portrait.claims_of_kind("basin")
    assert basin.region == Region("ball", rho)
    assert pick1(portrait, "escape").region == Region("above", rho)
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("computed") == rho and loc.detail("agree") is True
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("agree") is True


def test_t142_portrait():
    portrait = classify(validate_params(3, F(2, 9), 3, 1))
    assert portrait.flags == ()
    (siegel,) = portrait.claims_of_kind("siegel")
    assert siegel.region == Region("ball", rad(3, -2))  # |b| = 1/3
    assert pick1(portrait, "escape").region == Region("above", rad(3, -2))
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("relation") == "in-closed-ball"
        assert loc.detail("computed") == rad(3, -2)  # exactly |b|
        assert loc.detail("agree") is True


def test_t143_5_portrait():
    portrait = classify(validate_params(3, F(2, 27), 3, 1))
    assert portrait.flags == ()
    assert portrait.exceptional.kind == "L"
    esc = pick1(portrait, "escape", tag="T1.4.3")
    assert esc.region.kind == "off-ladder"
    assert pick1(portrait, "enters-sphere", tag="T1.4.4").detail("sphere") == "b"
    cond = pick1(portrait, "conditional-escape", tag="T1.4.4")
    assert cond.detail("condition") == "b*-not-in-ladder"
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("computed") == rad(3, -2) and loc.detail("agree") is True
        char = pick1(portrait, "fp-character", which=which)
        assert char.tag == "T1.4.5"
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("agree") is True


@pytest.mark.parametrize(
    "quad,admissible",
    [
        ((2, F(1, 16), 2, 1), ("attracting",)),  # |b| sqrt|a| = 2 |c|
        ((2, F(1, 64), 2, 1), ("repelling",)),  # |b| sqrt|a| > 2 |c|
        ((2, F(1, 8), 2, 1), ()),  # below the threshold: unspecified
    ],
)
def test_t145_p2_thresholds(quad, admissible):
    portrait = classify(validate_params(*quad))
    char = pick1(portrait, "fp-character", which="x1")
    assert char.tag == "T1.4.5"
    assert char.detail("admissible") == admissible
    if admissible:
        assert char.detail("agree") is True
        assert "UNSPECIFIED-CHARACTER" not in portrait.flags
    else:
        assert char.detail("agree") is None
        assert "UNSPECIFIED-CHARACTER" in portrait.flags


# ----------------------------------------------------------------- T2 cases


def test_t2a_portrait():
    portrait = classify(validate_params(3, 9, 1, 2))
    assert portrait.flags == ()
    assert portrait.exceptional.kind == "H"
    assert pick1(portrait, "limit-zero", tag="T2.A.a").region.kind == "off-ladder"
    assert pick1(portrait, "enters-sphere", tag="T2.A.b").detail("sphere") == "b"
    cond = pick1(portrait, "conditional-limit-zero", tag="T2.A.c")
    assert cond.region == Region("sphere", rad(3, 0))
    ret = pick1(portrait, "returns-to-sphere", tag="T2.A.d")
    assert ret.detail("condition") == "b*-in-ladder"
    for which in ("x1", "x2"):
        assert pick1(portrait, "fp-location", which=which).detail("agree") is True
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("agree") is True


def test_t2b_portrait():
    portrait = classify(validate_params(5, 2, 1, 3))
    assert portrait.flags == ("UNSPECIFIED-CHARACTER",)
    assert portrait.exceptional is None
    inv = pick1(portrait, "invariant-sphere")
    assert inv.region == Region("all-but-sphere", rad(5, 0))
    dich = pick1(portrait, "dichotomy")
    assert dich.region == Region("sphere", rad(5, 0))
    for which in ("x1", "x2"):
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ()
        assert char.detail("agree") is None
    assert not pick(portrait, "fp-location")


def test_t2c_portrait():
    portrait = classify(validate_params(3, F(1, 9), 1, 2))
    assert portrait.flags == ()
    assert pick1(portrait, "escape", tag="T2.C.a").region.kind == "off-ladder"
    pick1(portrait, "conditional-escape", tag="T2.C.c")
    pick1(portrait, "returns-to-sphere", tag="T2.C.d")
    for which in ("x1", "x2"):
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("agree") is True


# ----------------------------------------------------------------- T3 cases


def test_t3ii_portrait():
    portrait = classify(validate_params(3, 243, 1, 9))
    assert portrait.flags == ()
    assert portrait.exceptional.kind == "B"
    assert pick1(portrait, "limit-zero", tag="T3.II.a").region.kind == "off-ladder"
    assert pick1(portrait, "enters-sphere", tag="T3.II.b").detail("sphere") == "c"
    cond = pick1(portrait, "conditional-limit-zero", tag="T3.II.c")
    assert cond.region == Region("sphere", rad(3, -4))
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("computed") == rad(3, -4) and loc.detail("agree") is True
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("agree") is True


@pytest.mark.parametrize(
    "quad,admissible",
    [
        ((2, 32, 1, 2), ("repelling",)),  # |c| > 2 |b| sqrt|a|
        ((2, 16, 1, 2), ("attracting",)),  # |c| = 2 |b| sqrt|a|
        ((2, 8, 1, 2), ()),  # below: unspecified
    ],
)
def test_t3ii_p2_thresholds(quad, admissible):
    portrait = classify(validate_params(*quad))
    char = pick1(portrait, "fp-character", which="x1")
    assert char.tag == "T3.II.e"
    assert char.detail("admissible") == admissible
    if admissible:
        assert char.detail("agree") is True


def test_t3iii_portrait():
    portrait = classify(validate_params(3, 162, 1, 9))
    assert portrait.flags == ()
    inv = pick1(portrait, "invariant-sphere")
    assert inv.tag == "T3.I" and inv.region == Region("ball", rad(3, -4))
    offl = pick1(portrait, "eventually-constant-radius", tag="T3.III.a")
    assert offl.region.kind == "off-ladder"
    ons = pick1(portrait, "eventually-constant-radius", tag="T3.III.c")
    assert ons.detail("condition") == "c*-not-in-ladder"
    pick1(portrait, "returns-to-sphere", tag="T3.III.d")
    for which in ("x1", "x2"):
        loc = pick1(portrait, "fp-location", which=which)
        assert loc.detail("relation") == "in-closed-ball"
        assert loc.detail("computed") == rad(3, -4)  # on the bounding sphere
        assert loc.detail("agree") is True
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("attracting", "indifferent")
        assert char.detail("computed") is Character.INDIFFERENT
        assert char.detail("agree") is True


def test_t3iv_portrait():
    portrait = classify(validate_params(3, 9, 1, 9))
    assert portrait.flags == ("UNSPECIFIED-CHARACTER",)
    assert portrait.lambda_region is not None
    assert portrait.exceptional is None
    inv = pick1(portrait, "invariant-sphere")
    assert inv.region == Region("sphere", rad(3, -2))  # |b| sqrt|a|
    cyc = pick1(portrait, "two-cycle-region")
    assert cyc.region.kind == "interval"
    assert cyc.region.contains(rad(3, -3))  # 3**(-3/2) lies inside
    assert not cyc.region.contains(rad(3, -4))  # |c| is an open endpoint
    ent = pick1(portrait, "enters-region")
    assert ent.region.kind == "off-interval"
    assert ent.region.contains(rad(3, -4))
    assert not ent.region.contains(rad(3, -3))


def test_t3v_portrait():
    portrait = classify(validate_params(3, 4, 1, 3))
    assert portrait.flags == ("BOUNDARY",)
    assert portrait.exceptional.kind == "L"
    inv = pick1(portrait, "invariant-sphere")
    assert inv.region == Region("above", rad(3, 0))
    x1 = pick1(portrait, "fp-location", which="x1")
    assert x1.detail("computed") == rad(3, 0)  # |x1| = |b| exactly
    assert x1.detail("agree") is False
    x2 = pick1(portrait, "fp-location", which="x2")
    assert x2.detail("computed") == rad(3, 2)
    assert x2.detail("agree") is True
    c1 = pick1(portrait, "fp-character", which="x1")
    assert c1.detail("computed") is Character.ATTRACTING
    assert c1.detail("agree") is True
    c2 = pick1(portrait, "fp-character", which="x2")
    assert c2.detail("computed") is Character.INDIFFERENT
    assert c2.detail("agree") is True


def test_t3vi_portrait():
    portrait = classify(validate_params(3, F(1, 3), 1, 9))
    assert portrait.flags == ()
    assert pick1(portrait, "escape", tag="T3.VI.a").region.kind == "off-ladder"
    pick1(portrait, "conditional-escape", tag="T3.VI.c")
    pick1(portrait, "returns-to-sphere", tag="T3.VI.d")
    for which in ("x1", "x2"):
        char = pick1(portrait, "fp-character", which=which)
        assert char.detail("admissible") == ("repelling",)
        assert char.detail("agree") is True


def test_t3vi_p2_character_disagree():
    # the multiplier lands on the unit sphere at p = 2 even though the
    # case claims repulsion; the portrait must say so rather than hide it
    portrait = classify(validate_params(2, F(1, 2), 1, 4))
    assert "CHARACTER-DISAGREE" in portrait.flags
    char = pick1(portrait, "fp-character", which="x1")
    assert char.detail("admissible") == ("repelling",)
    assert char.detail("computed") is Character.INDIFFERENT
    assert char.detail("agree") is False


# ------------------------------------------------------------- cross-cutting


def test_character_from_multiplier():
    computed, admissible, agree = character_from_multiplier(
        validate_params(3, 9, 3, 1), "x1"
    )
    assert computed is Character.REPELLING
    assert admissible == ("repelling",)
    assert agree is True
    computed, admissible, agree = character_from_multiplier(
        validate_params(5, 2, 1, 3), "x2"
    )
    assert admissible == () and agree is None


def test_to_dict_deterministic():
    params = validate_params(3, 9, 3, 1)
    one = json.dumps(classify(params).to_dict(), sort_keys=True)
    two = json.dumps(classify(params).to_dict(), sort_keys=True)
    assert one == two
    data = json.loads(one)
    assert data["schema"] == 1
    assert data["case"] == "T1.2"
    assert data["params"] == {"p": 3, "a": "9", "b": "3", "c": "1"}
    assert data["flags"] == ["DISCREPANCY"]
    assert all("tag" in c and "kind" in c for c in data["claims"])


PROBE_Q2 = range(-9, 10)

TO_ZERO = ("limit-zero", "basin")
STAYS = ("invariant-sphere", "siegel", "eventually-constant-radius")


@pytest.mark.parametrize("quad", [q for q, _, _ in CASES])
def test_no_conflicting_claims(quad):
    portrait = classify(validate_params(*quad))
    p = quad[0]
    probes = [rad(p, q2) for q2 in PROBE_Q2] + [Radius.zero(p)]
    for r in probes:
        zero_hit = any(
            c.region is not None and c.region.contains(r)
            for c in portrait.claims_of_kind(*TO_ZERO)
        )
        stay_hit = any(
            c.region is not None and c.region.contains(r)
            for c in portrait.claims_of_kind(*STAYS)
        )
        escape_hit = any(
            c.region is not None and c.region.contains(r)
            for c in portrait.claims_of_kind("escape")
        )
        assert not (zero_hit and escape_hit), (quad, str(r))
        assert not (zero_hit and stay_hit), (quad, str(r))
        assert not (stay_hit and escape_hit), (quad, str(r))


def _qp_square_roster(count: int, seed: int):
    """Parameter sets whose a is a square of Q_p but not of Q, drawn like the
    classify sweep: p in {2, 3, 5, 7, 11} and each coefficient p**v * m/n
    with v in [-4, 4] and p-units 1 <= |m|, n <= 50."""
    rng = random.Random(f"qp-square-roster/{seed}")

    def draw(p):
        v = rng.randint(-4, 4)
        while True:
            m = rng.randint(1, 50) * rng.choice((1, -1))
            n = rng.randint(1, 50)
            if m % p and n % p:
                return F(p) ** v * F(m, n)

    roster = []
    while len(roster) < count:
        p = rng.choice((2, 3, 5, 7, 11))
        a, b, c = (draw(p) for _ in range(3))
        try:
            params = validate_params(p, a, b, c)
        except DegenerateParams:
            continue
        if sqrt_class(a, p).kind is SqrtKind.QP_SQUARE_NOT_RATIONAL:
            roster.append(params)
    return roster


def _digit_free(portrait):
    """What a portrait states, without the digits of its Hensel roots."""
    x1, x2 = (i.location for i in portrait.fixed_points[1:])
    return (
        [c.to_dict() for c in portrait.claims],
        portrait.flags,
        [(i.which, i.location_val, i.multiplier_val, i.character) for i in portrait.fixed_points],
        point_val(x1 - x2, portrait.params.p),
    )


def test_qp_square_portraits_do_not_depend_on_the_root_digits():
    # a verify run classifies with fixed points at max(64, precision) digits
    roster = _qp_square_roster(200, seed=0)
    assert sum(bool(classify(params).flags) for params in roster) == 89
    for params in roster:
        at_64 = _digit_free(classify(params, precision=64))
        assert _digit_free(classify(params, precision=96)) == at_64, params


@st.composite
def _conjugation_cases(draw):
    """(params, unit): p in {2, 3, 5, 7, 11}, nondegenerate a, b, c =
    p**v * m/n with v in [-4, 4] and 1 <= |m|, n <= 50, and a p-unit."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    small = st.integers(1, 50)

    def coefficient():
        m = draw(small) * draw(st.sampled_from([1, -1]))
        return F(m, draw(small)) * F(p) ** draw(st.integers(-4, 4))

    try:
        params = validate_params(p, coefficient(), coefficient(), coefficient())
    except DegenerateParams:
        assume(False)
    p_unit = small.filter(lambda m: m % p)
    return params, F(draw(p_unit), draw(p_unit)) * draw(st.sampled_from([1, -1]))


def _conjugation_invariants(portrait):
    fixed = [(i.which, i.multiplier_val, i.character) for i in portrait.fixed_points]
    return portrait.case, fixed, portrait.flags


@settings(max_examples=200, deadline=None)
@given(case=_conjugation_cases())
def test_portrait_is_invariant_under_conjugation_by_scaling(case):
    # x = lam * y conjugates f_{a,b,c} to f_{a,b/lam,c/lam}, which has the
    # same case, multipliers, characters and flags
    params, unit = case
    p = params.p
    expected = _conjugation_invariants(classify(params))
    for lam in (F(p), F(1, p), F(-1), unit, F(p * p, 7)):
        conjugate = validate_params(p, params.a, params.b / lam, params.c / lam)
        assert _conjugation_invariants(classify(conjugate)) == expected, lam
