"""Command-line front end: parse parameters, dispatch one command, render
the report as plain text or byte-stable JSON.

Exit codes: 0 success (or verification with no FAIL), 1 usage or input
error (a closed stdout included), 2 a verification FAIL is present, 3
degenerate parameters.  When ``grid`` meets both a FAIL and a degenerate
row, the FAIL wins.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

from .exactnum import ExactError, InvalidArgument, QuadExt
from .mapengine import (
    EXACT_BITS,
    Completed,
    DegenerateParams,
    MapParams,
    SizeBudgetAt,
    fixed_points,
    lift_point,
    orbit,
    point_val,
    val_str,
    validate_params,
)
from .oracle import run_verification
from .portrait import classify
from .radiusmaps import Radius, radius_orbit

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


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _params_line(params: MapParams) -> str:
    return f"params: p={params.p} a={params.a} b={params.b} c={params.c}"


def _fp_line(d: dict) -> str:
    return (
        f"  {d['which']}: location={d['location']} (val {d['location_val']}), "
        f"multiplier={d['multiplier']} (val {d['multiplier_val']}, "
        f"{d['character']})"
    )


def _claim_line(c: dict) -> str:
    parts = [f"  [{c['tag']}] {c['kind']}"]
    for key in sorted(c):
        if key in ("tag", "kind"):
            continue
        value = c[key]
        if isinstance(value, (dict, list)):
            value = _dump(value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _print_portrait(portrait) -> None:
    data = portrait.to_dict()
    print(_params_line(portrait.params))
    print(f"regime: {data['regime']}  theorem: {data['theorem']}  case: {data['case']}")
    print("fixed points:")
    for d in data["fixed_points"]:
        print(_fp_line(d))
    print(f"claims ({len(data['claims'])}):")
    for c in data["claims"]:
        print(_claim_line(c))
    if data["exceptional"] is not None:
        e = data["exceptional"]
        print(
            f"exceptional set {e['kind']}: elements {', '.join(e['elements'])}, ... "
            f"(exponent step {e['step_q2']}/2)"
        )
    if data["lambda"] is not None:
        lam = data["lambda"]
        print(f"two-cycle interval: ({lam['lo']}, {lam['hi']}) center {lam['center']}")
    print(f"flags: {', '.join(data['flags']) if data['flags'] else '(none)'}")


def _print_verification(report) -> None:
    print(_params_line(report.params))
    print(f"seed: {report.seed}  horizon: {report.horizon}")
    for e in report.checks:
        line = f"{e.status:<12} {e.name:<46} samples={e.samples}"
        if e.note:
            line += f"  {e.note}"
        print(line)
        if e.counterexample is not None:
            print(f"{'':<12} counterexample: {_dump(e.counterexample)}")
    print(
        f"summary: {len(report.checks)} checks — "
        + ", ".join(f"{n} {s}" for s, n in report.counts().items())
    )
    flags = report.portrait.flags
    print(f"portrait flags: {', '.join(flags) if flags else '(none)'}")
    print(f"result: {'FAIL' if report.has_fail else 'PASS'}")


# ----------------------------------------------------------------- commands


def _make_params(args) -> MapParams:
    return validate_params(args.p, args.a, args.b, args.c)


def cmd_classify(args) -> int:
    portrait = classify(_make_params(args))
    if args.output == "json":
        print(_dump(portrait.to_dict()))
    else:
        _print_portrait(portrait)
    return EXIT_OK


def cmd_fixed_points(args) -> int:
    if args.precision < 1:
        raise InvalidArgument(f"--precision must be >= 1, got {args.precision}")
    params = _make_params(args)
    infos = fixed_points(params, precision=args.precision)
    if args.output == "json":
        print(
            _dump(
                {
                    "schema": 1,
                    "fixed_points": {
                        "params": params.to_dict(),
                        "points": [i.to_dict() for i in infos],
                    },
                }
            )
        )
    else:
        print(_params_line(params))
        for info in infos:
            print(_fp_line(info.to_dict()))
    return EXIT_OK


def cmd_orbit(args) -> int:
    params = _make_params(args)
    if args.n < 1:
        raise InvalidArgument("--n must be >= 1")
    if args.force_truncated and args.precision < 1:
        raise InvalidArgument(f"--precision must be >= 1, got {args.precision}")
    x = parse_point(args.x, params.a)
    precision = args.precision if args.force_truncated else None
    if args.n == 1:
        start = x if precision is None else lift_point(x, params.p, precision)
        points, vals, termination = (start,), (point_val(start, params.p),), Completed(0)
    else:
        rec = orbit(x, params, args.n - 1, precision=precision)
        points, vals, termination = rec.points, rec.valuations, rec.termination
    if args.output == "json":
        print(
            _dump(
                {
                    "schema": 1,
                    "orbit": {
                        "params": params.to_dict(),
                        "x": str(x),
                        "points": [str(pt) for pt in points],
                        "valuations": [val_str(v) for v in vals],
                        "termination": termination.to_dict(),
                    },
                }
            )
        )
    else:
        print(_params_line(params))
        print(f"{'step':<6} {'valuation':<10} point")
        for i, (pt, v) in enumerate(zip(points, vals)):
            print(f"{i:<6} {val_str(v):<10} {pt}")
        print(f"termination: {_dump(termination.to_dict())}")
        if isinstance(termination, SizeBudgetAt):
            print(
                f"exact points outgrew {EXACT_BITS} bits at step {termination.index};"
                " --force-truncated runs deeper in certified truncated arithmetic"
            )
    return EXIT_OK


def cmd_radius_orbit(args) -> int:
    if args.horizon < 1:
        raise InvalidArgument(f"--horizon must be >= 1, got {args.horizon}")
    params = _make_params(args)
    start = parse_radius(args.r, args.p)
    result = radius_orbit(start, params.radius_spec(), max_iter=args.horizon)
    if args.output == "json":
        print(
            _dump(
                {
                    "schema": 1,
                    "radius_orbit": {
                        "params": params.to_dict(),
                        "start": str(start),
                        "trajectory": [str(r) for r in result.trajectory],
                        "verdict": result.verdict.to_dict(),
                    },
                }
            )
        )
    else:
        print(_params_line(params))
        print("trajectory: " + " -> ".join(str(r) for r in result.trajectory))
        print(f"verdict: {_dump(result.verdict.to_dict())}")
    return EXIT_OK


def cmd_verify(args) -> int:
    params = _make_params(args)
    report = run_verification(
        params,
        sample_count=args.samples,
        horizon=args.horizon,
        seed=_resolve_seed(args.seed),
        precision=args.precision,
    )
    if args.output == "json":
        print(report.to_json())
    else:
        _print_verification(report)
    return EXIT_FAIL if report.has_fail else EXIT_OK


def cmd_grid(args) -> int:
    if args.samples < 1:
        raise InvalidArgument(f"--samples must be >= 1, got {args.samples}")
    if args.horizon < 1:
        raise InvalidArgument(f"--horizon must be >= 1, got {args.horizon}")
    if args.precision < 1:
        raise InvalidArgument(f"--precision must be >= 1, got {args.precision}")
    try:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        print(f"cannot read grid file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    seed = _resolve_seed(args.seed)
    rows: List[dict] = []
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
            params = validate_params(p, a, b, c)
        except DegenerateParams as exc:
            rows.append({"params": pdict, "status": "DEGENERATE", "error": str(exc)})
            continue
        except InvalidArgument as exc:
            print(f"{args.file}:{lineno}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        report = run_verification(
            params,
            sample_count=args.samples,
            horizon=args.horizon,
            seed=seed,
            precision=args.precision,
        )
        rows.append(
            {
                "params": pdict,
                "status": "FAIL" if report.has_fail else "PASS",
                "counts": report.counts(),
            }
        )
    summary = {
        "rows": len(rows),
        "degenerate": sum(1 for r in rows if r["status"] == "DEGENERATE"),
        "fail": sum(1 for r in rows if r["status"] == "FAIL"),
        "pass": sum(1 for r in rows if r["status"] == "PASS"),
    }
    if args.output == "json":
        print(
            _dump(
                {
                    "schema": 1,
                    "grid": {"source": args.file, "rows": rows, "summary": summary},
                }
            )
        )
    else:
        for r in rows:
            d = r["params"]
            line = (
                f"{r['status']:<12} p={d['p']} a={d['a']} b={d['b']} c={d['c']}"
            )
            if "counts" in r:
                cs = r["counts"]
                line += (
                    f"  checks: {cs['PASS']} PASS, {cs['FLAGGED']} FLAGGED, "
                    f"{cs['INCONCLUSIVE']} INCONCLUSIVE, {cs['FAIL']} FAIL"
                )
            else:
                line += f"  {r['error']}"
            print(line)
        print(
            f"summary: {summary['rows']} parameter set(s) — {summary['pass']} PASS, "
            f"{summary['fail']} FAIL, {summary['degenerate']} DEGENERATE"
        )
    if summary["fail"]:
        return EXIT_FAIL
    return EXIT_DEGENERATE if summary["degenerate"] else EXIT_OK


_COMMANDS: Dict[str, Callable] = {
    "classify": cmd_classify,
    "fixed-points": cmd_fixed_points,
    "orbit": cmd_orbit,
    "radius-orbit": cmd_radius_orbit,
    "verify": cmd_verify,
    "grid": cmd_grid,
}


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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="udyn",
        description=(
            "Exact dynamics of f(x) = a*x*((x+b)/(x+c))^2 over the p-adic "
            "numbers: classification, orbits, and brute-force verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    sp = sub.add_parser("classify", help="phase portrait for the parameters")
    _add_param_flags(sp)
    _add_output_flag(sp)

    sp = sub.add_parser("fixed-points", help="the three fixed points of f")
    _add_param_flags(sp)
    _add_output_flag(sp)
    sp.add_argument(
        "--precision", type=int, default=64, help="certified digits for lifted roots"
    )

    sp = sub.add_parser("orbit", help="iterate f from a point")
    _add_param_flags(sp)
    _add_output_flag(sp)
    sp.add_argument(
        "--x", required=True, help='start point: "m/n" or "u+v*sqrt(a)"'
    )
    sp.add_argument("--n", type=int, default=10, help="number of orbit points")
    sp.add_argument(
        "--force-truncated",
        action="store_true",
        help="run in truncated p-adic arithmetic at --precision digits"
        " (rational and sqrt(a) starts alike)",
    )
    sp.add_argument(
        "--precision", type=int, default=64, help="certified digits when truncated"
    )

    sp = sub.add_parser("radius-orbit", help="iterate the induced radius map")
    _add_param_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--r", required=True, help='start radius: "p^q" (q may be k/2)')
    sp.add_argument("--horizon", type=int, default=200, help="maximum radius steps")

    sp = sub.add_parser("verify", help="run every claim check for the parameters")
    _add_param_flags(sp)
    _add_output_flag(sp)
    sp.add_argument("--samples", type=int, default=20, help="points per probe radius")
    sp.add_argument("--horizon", type=int, default=25, help="orbit length per sample")
    sp.add_argument(
        "--seed", type=int, default=None, help="sampling seed (default: $UDYN_SEED or 0)"
    )
    sp.add_argument(
        "--precision", type=int, default=96, help="digits of orbits and fixed points (min 64)"
    )

    sp = sub.add_parser("grid", help="verify every parameter set in a file")
    sp.add_argument("file", help="text file of 'p a b c' lines; # comments allowed")
    _add_output_flag(sp)
    sp.add_argument("--samples", type=int, default=20, help="points per probe radius")
    sp.add_argument("--horizon", type=int, default=25, help="orbit length per sample")
    sp.add_argument(
        "--seed", type=int, default=None, help="sampling seed (default: $UDYN_SEED or 0)"
    )
    sp.add_argument(
        "--precision", type=int, default=96, help="digits of orbits and fixed points (min 64)"
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
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
