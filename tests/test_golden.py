"""Byte-for-byte pins of the classify, verify and truncated orbit JSON.

``tests/golden/`` holds output written before the classifier and the
verifier were rebuilt on tables: the ``classify`` and ``verify --seed 0`` JSON of every
``default_grid()`` row and of the four rows in ``EXTRA_ROWS`` (the two
cases the grid misses, at p = 2 and at an odd p), plus one sha256 per case
over the classify JSON of a seeded 1,500-set roster.  It also holds the
``verify`` JSON of ``RAMIFIED_VERIFY_ROWS``, the four grid rows whose
samples include points of the ramified extension by sqrt(a), at a second
seed and sample count; they were written while those samples still ran
as exact quadratic-extension orbits.  ``tests/golden/orbit/``
holds the ``orbit --force-truncated`` JSON of ``ORBIT_ROWS``, written before
the truncated kernel was sped up; it prints every point's unit, so it pins
the kernel bit for bit (its two rows from a sqrt(a) start were written
while ``orbit`` stepped them by a fused Q_p(sqrt(a)) kernel); it also
holds the exact ``orbit`` JSON of
``EXACT_ORBIT_ROWS``.  ``tests/golden/fixed_points/`` holds the
``fixed-points`` JSON of ``FIXED_POINT_ROWS``, whose truncated roots no grid
row reaches.  Both were written before f was bound to one scalar-domain
kernel; the two Q_p-square rows were written again when their fixed points
moved to the closed form U +- V*s, which changed digit counts only.
``radius_lemmas_seed0.json`` holds one sha256 per case over the
``check_radius_lemmas`` entries of the same roster, written before the
radius lemmas became a table.  ``radius_walks_seed0.json``
holds one sha256 per case over the radius walks themselves on that roster
(``radius_orbit`` and ``limit_classify`` from every probe radius of
``check_radius_lemmas``), written before the walks ran on bare exponents.
The T3.IV digest of both was written again when ``limit_classify``
stopped calling a radius of the two-cycle interval outside its core
``TwoCycleRegion``.  ``radius_window.json`` holds the same digests over
every spec of an enumerated window (``radius_window_specs``: p in
{2, 3, 5} and every valuation triple in [-4, 4]**3), written before the
spec lost its supplied critical values.
``verify_grid_digests.json`` holds one sha256 per ``default_grid()`` row and
seed in ``DIGEST_SEEDS`` over the sorted-key ``run_verification`` JSON at
default settings, written before the sampled orbits of rational and
Q_p(sqrt(a)) starts ran through one driver; it pins the samples and
verdicts of seeds that the JSON goldens above do not reach.
``tests/golden/text/`` holds the ``--output text`` stdout of every command
(``TEXT_RUNS`` and ``GRID_TEXT_ROWS``), written before the commands shared
one output path.  A refactor must
reproduce these bytes exactly; the files are never regenerated to make a
change pass.
``python tests/test_golden.py`` writes them.  The verify goldens were
written again when the verifier dropped its second entry for each fixed
point's character and its report gained the portrait's ``flags``.

The grid rows are compared inside ``test_default_grid_surface_is_frozen``
(``test_oracle.py``) so the grid verification runs only once.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

if __name__ == "__main__":
    # the module-level parametrize below imports udyn through text_runs()
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))

# T1.4.2 and T1.4.3-5, each at p = 2 and at p = 3
EXTRA_ROWS = (
    (2, "-37/720", "-40/37", "-70/33"),
    (3, "2/9", "3", "1"),
    (2, "25/528", "656/49", "136/39"),
    (3, "2/81", "3", "1"),
)

# (p, a, b, c, seed, samples) for ``verify``: the grid rows with a ramified
# sqrt(a), whose half-integer spheres are sampled in Q_p(sqrt(a)).
RAMIFIED_VERIFY_ROWS = (
    (3, "1/3", "3", "1", 7, 40),
    (3, "27", "1", "6", 7, 40),
    (3, "3", "1", "6", 7, 40),
    (3, "1/3", "1", "3", 7, 40),
)

# (p, a, b, c, x, n, precision) for ``orbit --force-truncated``.  The first
# row loses a digit per step to cancellation on the |c| sphere and ends
# precision-exhausted at index 64.  The last two start in the ramified
# extension by sqrt(a), at p = 2 with a unit a = 3 (mod 4) and at p = 3 with
# v(a) odd, and pin the truncated Q_p(sqrt(a)) orbit of ``orbit``.
ORBIT_ROWS = (
    (3, "9", "3", "1", "7/5", 100, 64),
    (3, "9", "3", "1", "7/5", 200, 1536),
    (2, "20", "4", "1", "3/5", 200, 1536),
    (5, "2", "1", "3", "7/3", 200, 1536),
    (2, "3", "4", "1", "1+sqrt(a)", 25, 16),
    (3, "1/3", "1", "3", "1+2*sqrt(a)", 25, 16),
)
# (p, a, b, c, x, n) for an exact ``orbit``: a rational start and a point
# of the ramified extension by sqrt(a).
EXACT_ORBIT_ROWS = (
    (3, "9", "3", "1", "7/5", 8),
    (3, "1/3", "1", "3", "1+2*sqrt(a)", 5),
)

# (p, a, b, c, precision) for ``fixed-points``: a Q_p-square a with truncated
# roots at two precisions, a rational square and a ramified nonsquare.
FIXED_POINT_ROWS = (
    (3, "7", "-8", "1", 8),
    (3, "7", "-8", "1", 64),
    (3, "4", "1", "3", 64),
    (3, "1/3", "1", "3", 64),
)

# (command, row, exit code) for the text goldens, besides classify on every
# grid and extra row: fixed points at every root domain; exact orbits, one of
# a single point, a sqrt(a) start and the size-budget note; truncated orbits,
# one ending precision-exhausted and one from a sqrt(a) start; radius orbits
# to a critical sphere, into a two-cycle and to zero; verify on the extra
# rows, a ramified row, a BOUNDARY row, a DISCREPANCY row and a row whose
# radius:classify-vs-orbit FAILed while a radius of the two-cycle interval
# outside its core was called TwoCycleRegion (it is on no two-cycle); verify
# on two rows with |b| and |c| far from 1, whose true limit-zero and escape
# claims FAILed while the limits were judged at |x| = p**-20 and p**20
# instead of on the map's own scale; and verify on the first T1.4.2 and
# T1.4.3-5 rows of ``sweep_rows()``, at p = 7.
TEXT_RUNS = (
    *(("fixed-points", row, 0) for row in FIXED_POINT_ROWS),
    *(("orbit", row, 0) for row in EXACT_ORBIT_ROWS),
    ("orbit", (3, "9", "3", "1", "7/5", 1), 0),
    ("orbit", (3, "9", "3", "1", "7/5", 40), 0),
    ("orbit", ORBIT_ROWS[0], 0),
    ("orbit", (3, "1/3", "1", "3", "1+2*sqrt(a)", 5, 8), 0),
    ("radius-orbit", (3, "9", "1", "9", "3^2"), 0),
    ("radius-orbit", (3, "9", "1", "9", "3^-3/2"), 0),
    ("radius-orbit", (3, "9", "3", "1", "3^-2"), 0),
    *(("verify", row, 0) for row in EXTRA_ROWS),
    ("verify", RAMIFIED_VERIFY_ROWS[0], 0),
    ("verify", (3, "4", "1", "3"), 0),
    ("verify", (3, "9", "3", "1"), 0),
    ("verify", (2, "156/43", "17/100", "2"), 0),
    ("verify", (2, "180993792/352927", "13051952/295609", "-856269/73659776"), 0),
    ("verify", (2, "179241/3019894784", "-5454749696/830639", "771423232/257819"), 0),
    ("verify", (7, "5/196", "1078/15", "-14/13"), 0),
    ("verify", (7, "13/3430", "-161/22", "-29/4"), 0),
)
# ``grid --samples 6`` over these lines: two rows, a comment and a
# degenerate row, so it exits 3.
GRID_TEXT_ROWS = ("# roster", "3 9 3 1", "2 20 4 1  # trailing comment", "3 1 3 1")

_FLAGS = {
    "fixed-points": ("p", "a", "b", "c", "precision"),
    "orbit": ("p", "a", "b", "c", "x", "n", "precision"),
    "radius-orbit": ("p", "a", "b", "c", "r"),
    "verify": ("p", "a", "b", "c", "seed", "samples"),
}
_LABELS = {
    "fixed-points": ("p", "a", "b", "c", "prec"),
    "radius-orbit": ("p", "a", "b", "c", "r"),
    "verify": ("p", "a", "b", "c", "seed", "samples"),
}
_DEFAULT_LABELS = ("p", "a", "b", "c", "x", "n", "prec")
_LABEL_CHARS = str.maketrans(
    {"/": "over", "-": "m", "+": "p", "^": "e", "*": None, "(": None, ")": None}
)

ROSTER_SEED = 0
ROSTER_SIZE = 1500
# the seeds of ``verify_grid_digests``
DIGEST_SEEDS = (0, 1, 2, 3)

# Every (case, p == 2, admissible characters) the case rules produce with
# valuations in [-4, 4].  The p = 2 "repelling" branches of T1.4.3-5 and
# T3.II need |v(a)| >= 5 and are out of the roster's range.
ROSTER_COMBOS = {
    ("T1.2", False, ("repelling",)),
    ("T1.2", True, ("attracting",)),
    ("T1.2", True, ("indifferent",)),
    ("T1.2", True, ("repelling",)),
    ("T1.3", False, ("indifferent", "attracting")),
    ("T1.3", True, ("indifferent",)),
    ("T1.4.1", False, ("indifferent", "attracting")),
    ("T1.4.1", True, ("indifferent",)),
    ("T1.4.2", False, ("indifferent", "attracting")),
    ("T1.4.2", True, ("indifferent",)),
    ("T1.4.3-5", False, ("repelling",)),
    ("T1.4.3-5", True, ("attracting",)),
    ("T1.4.3-5", True, ()),
    ("T2.A", False, ("repelling",)),
    ("T2.A", True, ("repelling",)),
    ("T2.B", False, ()),
    ("T2.B", True, ()),
    ("T2.C", False, ("repelling",)),
    ("T2.C", True, ("repelling",)),
    ("T3.II", False, ("repelling",)),
    ("T3.II", True, ("attracting",)),
    ("T3.II", True, ()),
    ("T3.III", False, ("attracting", "indifferent")),
    ("T3.III", True, ("attracting", "indifferent")),
    ("T3.IV", False, ()),
    ("T3.IV", True, ()),
    ("T3.V", False, ("attracting", "indifferent")),
    ("T3.V", True, ("attracting", "indifferent")),
    ("T3.VI", False, ("repelling",)),
    ("T3.VI", True, ("repelling",)),
}


def row_key(params) -> tuple:
    return (params.p, str(params.a), str(params.b), str(params.c))


def golden_path(command: str, row: tuple, output: str = "json") -> Path:
    labels = _LABELS.get(command, _DEFAULT_LABELS)
    label = "_".join(f"{k}{v}" for k, v in zip(labels, row)).translate(_LABEL_CHARS)
    folder = command.replace("-", "_")
    if output == "text":
        return GOLDEN / "text" / folder / (label + ".txt")
    return GOLDEN / folder / (label + ".json")


def golden_text(command: str, row: tuple, output: str = "json") -> str:
    return golden_path(command, row, output).read_text(encoding="utf-8")


def _stdout(argv: list, code: int) -> str:
    from udyn.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        got = main(argv)
    assert got == code, (argv, got)
    return buf.getvalue()


def cli_output(command: str, row: tuple, output: str = "json", code: int = 0) -> str:
    """stdout of ``udyn <command> --output <output>`` (verify at seed 0
    unless ``row`` gives a seed and sample count, orbit from ``row``'s x
    and n, truncated when the row gives a precision), which must exit
    with ``code``."""
    argv = [command]
    flags = _FLAGS.get(command, ("p", "a", "b", "c"))
    for flag, value in zip(flags, row):
        argv.append(f"--{flag}={value}")
    if command == "verify" and len(row) == 4:
        argv += ["--seed", "0"]
    if command == "orbit" and len(row) == len(flags):
        argv += ["--force-truncated"]
    return _stdout(argv + ["--output", output], code)


def grid_text(directory: Path) -> str:
    """stdout of ``udyn grid --samples 6`` over ``GRID_TEXT_ROWS``, written
    to a file in ``directory``."""
    path = directory / "grid.txt"
    path.write_text("\n".join(GRID_TEXT_ROWS) + "\n", encoding="utf-8")
    return _stdout(["grid", str(path), "--samples", "6"], 3)


def text_runs() -> list:
    """(command, row, exit code) of every text golden but the grid's."""
    from udyn.oracle import default_grid

    rows = [row_key(pr) for pr in default_grid()] + list(EXTRA_ROWS)
    return [("classify", row, 0) for row in rows] + list(TEXT_RUNS)


def _draw(rng: random.Random, p: int, bound: int = 50) -> Fraction:
    v = rng.randint(-4, 4)
    while True:
        m = rng.randint(1, bound) * rng.choice((1, -1))
        n = rng.randint(1, bound)
        if m % p and n % p:
            return Fraction(p) ** v * Fraction(m, n)


def roster(seed: int = ROSTER_SEED, size: int = ROSTER_SIZE) -> list:
    """Non-degenerate parameter sets with p in {2, 3, 5, 7, 11} and
    a, b, c = p**v * m/n, v in [-4, 4], drawn as the classify-sweep
    benchmark workload draws them."""
    from udyn.mapengine import DegenerateParams, validate_params

    rng = random.Random(f"classify-sweep/{seed}")
    out = []
    while len(out) < size:
        p = rng.choice((2, 3, 5, 7, 11))
        a, b, c = (_draw(rng, p) for _ in range(3))
        try:
            out.append(validate_params(p, a, b, c))
        except DegenerateParams:
            continue
    return out


def sweep_rows(seed: int = 0, per_leaf: int = 20) -> dict:
    """case -> the first ``per_leaf`` rows of that case among non-degenerate
    parameter sets with p in {2, 3, 5, 7} and a, b, c = p**v * m/n, v in
    [-4, 4], 1 <= |m|, n <= 30, drawn until every one of the 13 cases has
    ``per_leaf`` rows (at most 20,000 draws)."""
    from udyn.mapengine import DegenerateParams, validate_params
    from udyn.portrait import _CASES, case_of

    rng = random.Random(f"verify-sweep/{seed}")
    rows: dict = {case: [] for case in _CASES}
    for _ in range(20_000):
        if all(len(kept) >= per_leaf for kept in rows.values()):
            break
        p = rng.choice((2, 3, 5, 7))
        a, b, c = (_draw(rng, p, 30) for _ in range(3))
        try:
            params = validate_params(p, a, b, c)
        except DegenerateParams:
            continue
        kept = rows[case_of(params.radius_spec())[1]]
        if len(kept) < per_leaf:
            kept.append(params)
    return rows


def radius_window_specs() -> list:
    """The 2,187 specs of the radius-layer window: p in {2, 3, 5} and
    va, vb, vc in [-4, 4], in that order (p, then va, vb, vc)."""
    from udyn.radiusmaps import RadiusMapSpec

    vals = range(-4, 5)
    return [
        RadiusMapSpec(p, va, vb, vc) for p in (2, 3, 5) for va in vals for vb in vals for vc in vals
    ]


def radius_lemma_digests(specs) -> dict:
    """sha256 per case over the ``check_radius_lemmas`` entry lines of
    these specs, in order."""
    from udyn.oracle import check_radius_lemmas
    from udyn.portrait import case_of

    hashes: dict = {}
    for spec in specs:
        h = hashes.setdefault(case_of(spec)[1], hashlib.sha256())
        for e in check_radius_lemmas([spec]):
            line = json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            h.update(line.encode() + b"\n")
    return {case: h.hexdigest() for case, h in sorted(hashes.items())}


def radius_walk_digests(params_list) -> dict:
    """sha256 per case over the radius walks from every probe radius that
    ``check_radius_lemmas`` uses (zero, infinity and the q2 window five
    beyond the critical spheres): the ``radius_orbit`` trajectory and
    verdict and the ``limit_classify`` verdict, in roster order."""
    from udyn.portrait import case_of
    from udyn.radiusmaps import Radius, limit_classify, radius_orbit

    hashes: dict = {}
    for params in params_list:
        spec = params.radius_spec()
        h = hashes.setdefault(case_of(spec)[1], hashlib.sha256())
        lo_q2 = min(-2 * spec.val_b, -2 * spec.val_c) - 5
        hi_q2 = max(-2 * spec.val_b, -2 * spec.val_c) + 5
        probes = [Radius.zero(spec.p), Radius.infinite(spec.p)] + [
            Radius.from_exponent(spec.p, q2) for q2 in range(lo_q2, hi_q2 + 1)
        ]
        for r in probes:
            orb = radius_orbit(r, spec)
            walk = {
                "start": str(r),
                "trajectory": [str(x) for x in orb.trajectory],
                "orbit": orb.verdict.to_dict(),
                "limit": limit_classify(r, spec).to_dict(),
            }
            line = json.dumps(walk, sort_keys=True, separators=(",", ":"))
            h.update(line.encode() + b"\n")
    return {case: h.hexdigest() for case, h in sorted(hashes.items())}


def verify_grid_digests(seeds=DIGEST_SEEDS) -> dict:
    """sha256 of the sorted-key ``run_verification`` JSON of every
    ``default_grid()`` row at each seed, default settings otherwise."""
    from udyn.oracle import default_grid, run_verification

    out = {}
    for params in default_grid():
        for seed in seeds:
            line = json.dumps(
                run_verification(params, seed=seed).to_dict(), sort_keys=True, separators=(",", ":")
            )
            key = " ".join(map(str, row_key(params))) + f" seed={seed}"
            out[key] = hashlib.sha256(line.encode()).hexdigest()
    return out


def roster_digests(portraits) -> dict:
    """sha256 per case over the classify JSON lines, in roster order."""
    hashes: dict = {}
    for portrait in portraits:
        line = json.dumps(portrait.to_dict(), sort_keys=True, separators=(",", ":"))
        hashes.setdefault(portrait.case, hashlib.sha256()).update(line.encode() + b"\n")
    return {case: h.hexdigest() for case, h in sorted(hashes.items())}


# ------------------------------------------------------------------- tests


@pytest.mark.parametrize("row", EXTRA_ROWS)
@pytest.mark.parametrize("command", ["classify", "verify"])
def test_extra_row_matches_golden(command, row):
    assert cli_output(command, row) == golden_text(command, row)


@pytest.mark.parametrize("row", RAMIFIED_VERIFY_ROWS)
def test_ramified_verify_matches_golden(row):
    assert cli_output("verify", row) == golden_text("verify", row)


@pytest.mark.parametrize("row", ORBIT_ROWS)
def test_truncated_orbit_matches_golden(row):
    assert cli_output("orbit", row) == golden_text("orbit", row)


@pytest.mark.parametrize("row", EXACT_ORBIT_ROWS)
def test_exact_orbit_matches_golden(row):
    assert cli_output("orbit", row) == golden_text("orbit", row)


@pytest.mark.parametrize("row", FIXED_POINT_ROWS)
def test_fixed_points_match_golden(row):
    assert cli_output("fixed-points", row) == golden_text("fixed-points", row)


@pytest.mark.parametrize(
    "command, row, code", text_runs(), ids=lambda v: "_".join(map(str, v)) if isinstance(v, tuple) else None
)
def test_text_output_matches_golden(command, row, code):
    assert cli_output(command, row, "text", code) == golden_text(command, row, "text")


def test_grid_text_matches_golden(tmp_path):
    assert grid_text(tmp_path) == (GOLDEN / "text" / "grid" / "samples6.txt").read_text(
        encoding="utf-8"
    )


def test_fixed_point_rows_cover_every_root_domain():
    from udyn.exactnum import SqrtKind
    from udyn.mapengine import validate_params

    kinds = [validate_params(*row[:4]).sqrt_mode.kind for row in FIXED_POINT_ROWS]
    assert kinds == [
        SqrtKind.QP_SQUARE_NOT_RATIONAL,
        SqrtKind.QP_SQUARE_NOT_RATIONAL,
        SqrtKind.RATIONAL_SQUARE,
        SqrtKind.QP_NONSQUARE,
    ]


def test_extra_rows_cover_the_missing_cases():
    from udyn.mapengine import validate_params
    from udyn.portrait import case_of

    cases = [case_of(validate_params(*row).radius_spec())[1] for row in EXTRA_ROWS]
    assert cases == ["T1.4.2", "T1.4.2", "T1.4.3-5", "T1.4.3-5"]


def test_roster_digests_match_golden():
    from udyn.portrait import classify

    params = roster()
    portraits = [classify(pr) for pr in params]
    combos = set()
    for pr, portrait in zip(params, portraits):
        (admissible,) = {c.detail("admissible") for c in portrait.claims_of_kind("fp-character")}
        combos.add((portrait.case, pr.p == 2, admissible))
    assert combos == ROSTER_COMBOS
    expected = json.loads((GOLDEN / "roster_seed0.json").read_text(encoding="utf-8"))
    assert roster_digests(portraits) == expected


def test_radius_lemma_digests_match_golden():
    expected = json.loads((GOLDEN / "radius_lemmas_seed0.json").read_text(encoding="utf-8"))
    assert radius_lemma_digests(pr.radius_spec() for pr in roster()) == expected


def test_radius_walk_digests_match_golden():
    expected = json.loads((GOLDEN / "radius_walks_seed0.json").read_text(encoding="utf-8"))
    assert radius_walk_digests(roster()) == expected


def test_verify_grid_digests_match_golden():
    expected = json.loads((GOLDEN / "verify_grid_digests.json").read_text(encoding="utf-8"))
    assert verify_grid_digests() == expected


def test_radius_window_digests_match_golden():
    specs = radius_window_specs()
    assert len(specs) == 2187
    expected = json.loads((GOLDEN / "radius_window.json").read_text(encoding="utf-8"))
    assert radius_lemma_digests(specs) == expected


# ------------------------------------------------------------------ writer


def write_golden() -> None:
    from udyn.oracle import default_grid
    from udyn.portrait import classify

    rows = [row_key(pr) for pr in default_grid()] + list(EXTRA_ROWS)
    for command in ("classify", "verify"):
        (GOLDEN / command).mkdir(parents=True, exist_ok=True)
        for row in rows:
            golden_path(command, row).write_text(cli_output(command, row), encoding="utf-8")
    for row in RAMIFIED_VERIFY_ROWS:
        golden_path("verify", row).write_text(cli_output("verify", row), encoding="utf-8")
    (GOLDEN / "orbit").mkdir(parents=True, exist_ok=True)
    for row in ORBIT_ROWS + EXACT_ORBIT_ROWS:
        golden_path("orbit", row).write_text(cli_output("orbit", row), encoding="utf-8")
    (GOLDEN / "fixed_points").mkdir(parents=True, exist_ok=True)
    for row in FIXED_POINT_ROWS:
        golden_path("fixed-points", row).write_text(
            cli_output("fixed-points", row), encoding="utf-8"
        )
    for command, row, code in text_runs():
        path = golden_path(command, row, "text")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(cli_output(command, row, "text", code), encoding="utf-8")
    (GOLDEN / "text" / "grid").mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        (GOLDEN / "text" / "grid" / "samples6.txt").write_text(
            grid_text(Path(tmp)), encoding="utf-8"
        )
    for name, digests in (
        ("roster_seed0.json", roster_digests(classify(pr) for pr in roster())),
        ("radius_lemmas_seed0.json", radius_lemma_digests(pr.radius_spec() for pr in roster())),
        ("radius_walks_seed0.json", radius_walk_digests(roster())),
        ("radius_window.json", radius_lemma_digests(radius_window_specs())),
        ("verify_grid_digests.json", verify_grid_digests()),
    ):
        (GOLDEN / name).write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )


if __name__ == "__main__":
    write_golden()
