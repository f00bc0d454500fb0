"""Byte-for-byte pins of the classify, verify and truncated orbit JSON.

``tests/golden/`` holds output written before the classifier and the
verifier were rebuilt on tables: the ``classify`` and ``verify --seed 0`` JSON of every
``default_grid()`` row and of the four rows in ``EXTRA_ROWS`` (the two
cases the grid misses, at p = 2 and at an odd p), plus one sha256 per case
over the classify JSON of a seeded 1,500-set roster.  ``tests/golden/orbit/``
holds the ``orbit --force-truncated`` JSON of ``ORBIT_ROWS``, written before
the truncated kernel was sped up; it prints every point's unit, so it pins
the kernel bit for bit.  A refactor must reproduce these bytes exactly; the
files are never regenerated to make a change pass.
``python tests/test_golden.py`` writes them.

The grid rows are compared inside ``test_default_grid_surface_is_frozen``
(``test_oracle.py``) so the grid verification runs only once.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

# T1.4.2 and T1.4.3-5, each at p = 2 and at p = 3
EXTRA_ROWS = (
    (2, "-37/720", "-40/37", "-70/33"),
    (3, "2/9", "3", "1"),
    (2, "25/528", "656/49", "136/39"),
    (3, "2/81", "3", "1"),
)

# (p, a, b, c, x, n, precision) for ``orbit --force-truncated``.  The first
# row loses a digit per step to cancellation on the |c| sphere and ends
# precision-exhausted at index 64.
ORBIT_ROWS = (
    (3, "9", "3", "1", "7/5", 100, 64),
    (3, "9", "3", "1", "7/5", 200, 1536),
    (2, "20", "4", "1", "3/5", 200, 1536),
    (5, "2", "1", "3", "7/3", 200, 1536),
)
_LABELS = ("p", "a", "b", "c", "x", "n", "prec")

ROSTER_SEED = 0
ROSTER_SIZE = 1500

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


def golden_path(command: str, row: tuple) -> Path:
    label = "_".join(f"{k}{v}" for k, v in zip(_LABELS, row))
    return GOLDEN / command / (label.replace("/", "over").replace("-", "m") + ".json")


def golden_text(command: str, row: tuple) -> str:
    return golden_path(command, row).read_text(encoding="utf-8")


def cli_output(command: str, row: tuple) -> str:
    """stdout of ``udyn <command> --output json`` (verify at seed 0, orbit
    truncated from ``row``'s x, n and precision)."""
    from udyn.cli import main

    argv = [command]
    for flag, value in zip(("p", "a", "b", "c", "x", "n", "precision"), row):
        argv.append(f"--{flag}={value}")
    if command == "verify":
        argv += ["--seed", "0"]
    if command == "orbit":
        argv += ["--force-truncated"]
    argv += ["--output", "json"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, (argv, code)
    return buf.getvalue()


def _draw(rng: random.Random, p: int) -> Fraction:
    v = rng.randint(-4, 4)
    while True:
        m = rng.randint(1, 50) * rng.choice((1, -1))
        n = rng.randint(1, 50)
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


@pytest.mark.parametrize("row", ORBIT_ROWS)
def test_truncated_orbit_matches_golden(row):
    assert cli_output("orbit", row) == golden_text("orbit", row)


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


# ------------------------------------------------------------------ writer


def write_golden() -> None:
    from udyn.oracle import default_grid
    from udyn.portrait import classify

    rows = [row_key(pr) for pr in default_grid()] + list(EXTRA_ROWS)
    for command in ("classify", "verify"):
        (GOLDEN / command).mkdir(parents=True, exist_ok=True)
        for row in rows:
            golden_path(command, row).write_text(cli_output(command, row), encoding="utf-8")
    (GOLDEN / "orbit").mkdir(parents=True, exist_ok=True)
    for row in ORBIT_ROWS:
        golden_path("orbit", row).write_text(cli_output("orbit", row), encoding="utf-8")
    digests = roster_digests(classify(pr) for pr in roster())
    (GOLDEN / "roster_seed0.json").write_text(
        json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    sys.path.insert(0, str(GOLDEN.parent.parent / "src"))
    write_golden()
