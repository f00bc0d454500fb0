"""Command-line front end: parse parameters, dispatch one command, render
the report as plain text or byte-stable JSON.

Each command computes its result once and hands ``_emit`` the schema-1
document and a function that returns the text lines, so ``--output`` only
chooses how that one result is printed.  ``main`` builds the parser on each
call from ``_COMMANDS``, with the subparser of the named command alone.

Exit codes: 0 success (or verification with no FAIL), 1 usage or input
error (a closed stdout included), 2 a verification FAIL is present, 3
degenerate parameters.  When ``grid`` meets both a FAIL and a degenerate
row, the FAIL wins.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .exactnum import ExactError, InvalidArgument, QuadExt
from .mapengine import (
    EXACT_BITS,
    DegenerateParams,
    MapParams,
    fixed_points,
    orbit,
    val_str,
    validate_params,
)
from .oracle import STATUSES, run_verification
from .portrait import classify
from .radiusmaps import Radius, canonical_json, radius_orbit

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_DEGENERATE = 3

_FRACTION = r"[+-]?\d+(?:/\d+)?"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# -------------------------------------------------------------- flag parsing


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational m/n: {text!r} ({exc})")


def parse_point(text: str, a: Fraction):
    """A point literal: rational "m/n", or "u+v*sqrt(a)" with u, v rational.

    ``sqrt(a)`` always refers to the map coefficient a; bare ``sqrt(a)``
    and a leading sign are accepted.
    """
    s = text.replace(" ", "")
    if "sqrt(a)" not in s:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            raise InvalidArgument(f"cannot parse point {text!r}")
    head = s[: -len("sqrt(a)")]
    try:
        if head.endswith("*"):
            head = head[:-1]
            m = re.fullmatch(rf"(?P<u>{_FRACTION})(?P<sv>[+-])(?P<v>\d+(?:/\d+)?)", head)
            if m:
                return QuadExt(Fraction(m["u"]), Fraction(m["sv"] + m["v"]), a)
            return QuadExt(0, Fraction(head), a)
        if head in ("", "+"):
            return QuadExt(0, 1, a)
        if head == "-":
            return QuadExt(0, -1, a)
        m = re.fullmatch(rf"(?P<u>{_FRACTION})(?P<sv>[+-])", head)
        if m:
            return QuadExt(Fraction(m["u"]), Fraction(m["sv"] + "1"), a)
    except (ValueError, ZeroDivisionError):
        pass
    raise InvalidArgument(f"cannot parse point {text!r}")


def parse_radius(text: str, p: int) -> Radius:
    """A radius literal: "0", "1", or "p^q" with q an integer or half."""
    s = text.replace(" ", "")
    if s == "0":
        return Radius.zero(p)
    if re.fullmatch(r"[+-]?\d+", s):
        if int(s) == 1:
            return Radius.from_exponent(p, 0)
        raise InvalidArgument(
            f"radius {text!r} is not a power of {p}; write it as {p}^q"
        )
    m = re.fullmatch(rf"(?P<base>\d+)\^(?P<q>{_FRACTION})", s)
    if not m:
        raise InvalidArgument(f"cannot parse radius {text!r}; expected {p}^q")
    if int(m["base"]) != p:
        raise InvalidArgument(f"radius base {m['base']} does not match --p {p}")
    q = Fraction(m["q"])
    q2 = 2 * q
    if q2.denominator != 1:
        raise InvalidArgument(
            f"radius exponent {q} is not an integer or half-integer"
        )
    return Radius.from_exponent(p, int(q2))


def _resolve_seed(flag_value: Optional[int]) -> int:
    if flag_value is not None:
        return flag_value
    raw = os.environ.get("UDYN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgument(f"UDYN_SEED is not an integer: {raw!r}")


# ---------------------------------------------------------------- rendering


def _emit(args, doc: dict, text: Callable[[], List[str]]) -> None:
    """Print a command's result: its schema-1 document as canonical JSON,
    or the lines ``text`` renders from the same result."""
    print("\n".join([canonical_json(doc)] if args.output == "json" else text()))


def _params(d: dict) -> str:
    return f"p={d['p']} a={d['a']} b={d['b']} c={d['c']}"


def _fp_line(d: dict) -> str:
    return (
        f"  {d['which']}: location={d['location']} (val {d['location_val']}), "
        f"multiplier={d['multiplier']} (val {d['multiplier_val']}, "
        f"{d['character']})"
    )


def _claim_line(c: dict) -> str:
    parts = [f"  [{c['tag']}] {c['kind']}"]
    for key in sorted(c.keys() - {"tag", "kind"}):
        value = c[key]
        parts.append(f"{key}={canonical_json(value) if isinstance(value, (dict, list)) else value}")
    return " ".join(parts)


def _flags(flags) -> str:
    return ", ".join(flags) if flags else "(none)"


def _counts(counts: dict) -> str:
    return ", ".join(f"{n} {status}" for status, n in counts.items())


def _portrait_lines(data: dict) -> List[str]:
    lines = [
        f"params: {_params(data['params'])}",
        f"regime: {data['regime']}  theorem: {data['theorem']}  case: {data['case']}",
        "fixed points:",
        *map(_fp_line, data["fixed_points"]),
        f"claims ({len(data['claims'])}):",
        *map(_claim_line, data["claims"]),
    ]
    e = data["exceptional"]
    if e is not None:
        lines.append(
            f"exceptional set {e['kind']}: elements {', '.join(e['elements'])}, ... "
            f"(exponent step {e['step_q2']}/2)"
        )
    lam = data["lambda"]
    if lam is not None:
        lines.append(f"two-cycle interval: ({lam['lo']}, {lam['hi']}) center {lam['center']}")
    return lines + [f"flags: {_flags(data['flags'])}"]


def _fixed_point_lines(body: dict) -> List[str]:
    return [f"params: {_params(body['params'])}", *map(_fp_line, body["points"])]


def _orbit_lines(body: dict) -> List[str]:
    steps = enumerate(zip(body["valuations"], body["points"]))
    end = body["termination"]
    lines = [
        f"params: {_params(body['params'])}",
        f"{'step':<6} {'valuation':<10} point",
        *(f"{i:<6} {v:<10} {pt}" for i, (v, pt) in steps),
        f"termination: {canonical_json(end)}",
    ]
    if end["kind"] == "size-budget":
        lines.append(
            f"exact points outgrew {EXACT_BITS} bits at step {end['index']};"
            " --force-truncated runs deeper in certified truncated arithmetic"
        )
    return lines


def _radius_orbit_lines(body: dict) -> List[str]:
    return [
        f"params: {_params(body['params'])}",
        "trajectory: " + " -> ".join(body["trajectory"]),
        f"verdict: {canonical_json(body['verdict'])}",
    ]


def _verification_lines(body: dict) -> List[str]:
    lines = [
        f"params: {_params(body['params'])}",
        f"seed: {body['seed']}  horizon: {body['horizon']}",
    ]
    for e in body["checks"]:
        note = f"  {e['note']}" if e["note"] else ""
        lines.append(f"{e['status']:<12} {e['name']:<46} samples={e['samples']}{note}")
        if e["counterexample"] is not None:
            lines.append(f"{'':<12} counterexample: {canonical_json(e['counterexample'])}")
    statuses = [e["status"] for e in body["checks"]]
    return lines + [
        f"summary: {len(statuses)} checks — {_counts({s: statuses.count(s) for s in STATUSES})}",
        f"portrait flags: {_flags(body['flags'])}",
        f"result: {'FAIL' if 'FAIL' in statuses else 'PASS'}",
    ]


def _grid_lines(body: dict) -> List[str]:
    lines = []
    for r in body["rows"]:
        tail = f"checks: {_counts(r['counts'])}" if "counts" in r else r["error"]
        lines.append(f"{r['status']:<12} {_params(r['params'])}  {tail}")
    s = body["summary"]
    return lines + [
        f"summary: {s['rows']} parameter set(s) — {s['pass']} PASS, "
        f"{s['fail']} FAIL, {s['degenerate']} DEGENERATE"
    ]


# ----------------------------------------------------------------- commands


def _check_counts(args, *names: str) -> None:
    """Reject a count flag below 1, before any work.  ``verify`` leaves its
    counts to ``run_verification``, which names them in its own words."""
    for name in names:
        value = getattr(args, name)
        if value < 1:
            raise InvalidArgument(f"--{name} must be >= 1, got {value}")


def _make_params(args) -> MapParams:
    return validate_params(args.p, args.a, args.b, args.c)


def cmd_classify(args) -> int:
    doc = classify(_make_params(args)).to_dict()
    _emit(args, doc, lambda: _portrait_lines(doc))
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    _check_counts(args, "precision")
    params = _make_params(args)
    infos = fixed_points(params, precision=args.precision)
    body = {"params": params.to_dict(), "points": [i.to_dict() for i in infos]}
    _emit(args, {"schema": 1, "fixed_points": body}, lambda: _fixed_point_lines(body))
    return EXIT_OK


def cmd_orbit(args) -> int:
    _check_counts(args, "n")
    if args.force_truncated:
        _check_counts(args, "precision")
    params = _make_params(args)
    x = parse_point(args.x, params.a)
    precision = args.precision if args.force_truncated else None
    rec = orbit(x, params, args.n - 1, precision=precision)
    body = {
        "params": params.to_dict(),
        "x": str(x),
        "points": [str(pt) for pt in rec.points],
        "valuations": [val_str(v) for v in rec.valuations],
        "termination": rec.termination.to_dict(),
    }
    _emit(args, {"schema": 1, "orbit": body}, lambda: _orbit_lines(body))
    return EXIT_OK


def cmd_radius_orbit(args) -> int:
    _check_counts(args, "horizon")
    params = _make_params(args)
    start = parse_radius(args.r, args.p)
    result = radius_orbit(start, params.radius_spec(), max_iter=args.horizon)
    body = {
        "params": params.to_dict(),
        "start": str(start),
        "trajectory": [str(r) for r in result.trajectory],
        "verdict": result.verdict.to_dict(),
    }
    _emit(args, {"schema": 1, "radius_orbit": body}, lambda: _radius_orbit_lines(body))
    return EXIT_OK


def _verify(args, params: MapParams, seed: int):
    """``run_verification`` with the run flags of ``verify`` and ``grid``."""
    return run_verification(params, args.samples, args.horizon, seed, args.precision)


def cmd_verify(args) -> int:
    report = _verify(args, _make_params(args), _resolve_seed(args.seed))
    doc = report.to_dict()
    _emit(args, doc, lambda: _verification_lines(doc["verification"]))
    return EXIT_FAIL if report.has_fail else EXIT_OK


def cmd_grid(args) -> int:
    _check_counts(args, "samples", "horizon", "precision")
    try:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        print(f"cannot read grid file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = _resolve_seed(args.seed)
    parsed = []  # (params dict, MapParams or the DegenerateParams raised)
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 4:
            print(
                f"{args.file}:{lineno}: expected 'p a b c', got {line!r}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        try:
            p = int(tokens[0])
            a, b, c = (Fraction(t) for t in tokens[1:])
        except (ValueError, ZeroDivisionError) as exc:
            print(f"{args.file}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        pdict = {"p": p, "a": str(a), "b": str(b), "c": str(c)}
        try:
            parsed.append((pdict, validate_params(p, a, b, c)))
        except DegenerateParams as exc:
            parsed.append((pdict, exc))
        except InvalidArgument as exc:
            print(f"{args.file}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    rows: List[dict] = []
    for pdict, params in parsed:
        if isinstance(params, DegenerateParams):
            rows.append({"params": pdict, "status": "DEGENERATE", "error": str(params)})
            continue
        report = _verify(args, params, seed)
        status = "FAIL" if report.has_fail else "PASS"
        rows.append({"params": pdict, "status": status, "counts": report.counts()})
    tally = [r["status"] for r in rows]
    summary = {
        "rows": len(rows),
        "degenerate": tally.count("DEGENERATE"),
        "fail": tally.count("FAIL"),
        "pass": tally.count("PASS"),
    }
    body = {"source": args.file, "rows": rows, "summary": summary}
    _emit(args, {"schema": 1, "grid": body}, lambda: _grid_lines(body))
    if summary["fail"]:
        return EXIT_FAIL
    return EXIT_DEGENERATE if summary["degenerate"] else EXIT_OK


# ------------------------------------------------------------------ parser


def _add_param_flags(sp) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime p")
    sp.add_argument("--a", type=_rational, required=True, help="coefficient a (m/n)")
    sp.add_argument("--b", type=_rational, required=True, help="coefficient b (m/n)")
    sp.add_argument("--c", type=_rational, required=True, help="coefficient c (m/n)")


def _add_output_flag(sp) -> None:
    sp.add_argument(
        "--output", choices=("text", "json"), default="text", help="report format"
    )


def _add_run_flags(sp) -> None:
    """The flags of a verification run, shared by ``verify`` and ``grid``."""
    sp.add_argument("--samples", type=int, default=20, help="points per probe radius")
    sp.add_argument("--horizon", type=int, default=25, help="orbit length per sample")
    sp.add_argument(
        "--seed", type=int, default=None, help="sampling seed (default: $UDYN_SEED or 0)"
    )
    sp.add_argument(
        "--precision", type=int, default=96,
        help="digits of the fixed points (min 64); sampled orbits start at 16 and double",
    )


def _add_fixed_point_flags(sp) -> None:
    sp.add_argument("--precision", type=int, default=64, help="certified digits for lifted roots")


def _add_orbit_flags(sp) -> None:
    sp.add_argument("--x", required=True, help='start point: "m/n" or "u+v*sqrt(a)"')
    sp.add_argument("--n", type=int, default=10, help="number of orbit points")
    sp.add_argument(
        "--force-truncated",
        action="store_true",
        help="run in truncated p-adic arithmetic at --precision digits"
        " (rational and sqrt(a) starts alike)",
    )
    sp.add_argument("--precision", type=int, default=64, help="certified digits when truncated")


def _add_radius_orbit_flags(sp) -> None:
    sp.add_argument("--r", required=True, help='start radius: "p^q" (q may be k/2)')
    sp.add_argument("--horizon", type=int, default=200, help="maximum radius steps")


def _add_grid_file(sp) -> None:
    sp.add_argument("file", help="text file of 'p a b c' lines; # comments allowed")


# command -> (handler, help line, flag adders in the order its --help lists them)
_COMMANDS: Dict[str, Tuple[Callable, str, Tuple[Callable, ...]]] = {
    "classify": (cmd_classify, "phase portrait for the parameters",
                 (_add_param_flags, _add_output_flag)),
    "fixed-points": (cmd_fixed_points, "the three fixed points of f",
                     (_add_param_flags, _add_output_flag, _add_fixed_point_flags)),
    "orbit": (cmd_orbit, "iterate f from a point",
              (_add_param_flags, _add_output_flag, _add_orbit_flags)),
    "radius-orbit": (cmd_radius_orbit, "iterate the induced radius map",
                     (_add_param_flags, _add_output_flag, _add_radius_orbit_flags)),
    "verify": (cmd_verify, "run every claim check for the parameters",
               (_add_param_flags, _add_output_flag, _add_run_flags)),
    "grid": (cmd_grid, "verify every parameter set in a file",
             (_add_grid_file, _add_output_flag, _add_run_flags)),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``udyn`` parser with the subparser of ``command`` alone, or with
    all six when ``command`` is None.  Each subparser parses and words its
    help and usage errors the same either way."""
    parser = _Parser(
        prog="udyn",
        description=(
            "Exact dynamics of f(x) = a*x*((x+b)/(x+c))^2 over the p-adic "
            "numbers: classification, orbits, and brute-force verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name in _COMMANDS if command is None else (command,):
        _, help_line, adders = _COMMANDS[name]
        sp = sub.add_parser(name, help=help_line)
        for add in adders:
            add(sp)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line (``sys.argv[1:]`` when ``argv`` is None).  The
    parser is built for each call, with only the subparser of the command
    that ``argv[0]`` names; ``udyn --help``, no argument and an unknown
    command get the full parser and its text."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command][0](args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the
        # interpreter's final flush does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except DegenerateParams as exc:
        print(f"DegenerateParams: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ExactError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
