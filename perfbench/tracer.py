"""Span tracer for the traced run: wraps the public boundaries of every udyn
module from outside the package and turns the spans into per-layer metrics.

A span is (name, parent span, op, start, end).  Spans are appended to flat
arrays while the run is traced and stay in memory; self times are derived
from them afterwards and the arrays are written out when the run ends.
"""

from __future__ import annotations

import json
import sys
from array import array
from fractions import Fraction
from pathlib import Path
from time import perf_counter

# (span name, home module, attribute).  "Cls.meth" names a class attribute;
# every alias of it on the class (QuadExt.__rmul__ is __mul__) is wrapped too.
SPANS = (
    ("cli.main", "udyn.cli", "main"),
    ("oracle.run_verification", "udyn.oracle", "run_verification"),
    ("oracle.check_fixed_points", "udyn.oracle", "check_fixed_points"),
    ("oracle.check_lemma1", "udyn.oracle", "check_lemma1"),
    ("oracle.check_portrait", "udyn.oracle", "check_portrait"),
    ("oracle.check_radius_lemmas", "udyn.oracle", "check_radius_lemmas"),
    ("oracle.critical_value_at", "udyn.oracle", "critical_value_at"),
    ("portrait.classify", "udyn.portrait", "classify"),
    ("portrait.character_from_multiplier", "udyn.portrait", "character_from_multiplier"),
    ("mapengine.orbit", "udyn.mapengine", "orbit"),
    ("mapengine.eval_f", "udyn.mapengine", "eval_f"),
    ("mapengine.fixed_points", "udyn.mapengine", "fixed_points"),
    ("mapengine.sample_sphere", "udyn.mapengine", "sample_sphere"),
    ("radiusmaps.radius_step", "udyn.radiusmaps", "radius_step"),
    ("radiusmaps.radius_orbit", "udyn.radiusmaps", "radius_orbit"),
    ("radiusmaps.limit_classify", "udyn.radiusmaps", "limit_classify"),
    ("exactnum.from_rational", "udyn.exactnum", "TruncatedPadic.from_rational"),
    ("exactnum.truncated_mul", "udyn.exactnum", "TruncatedPadic.__mul__"),
    ("exactnum.truncated_div", "udyn.exactnum", "TruncatedPadic.__truediv__"),
    ("exactnum.quad_mul", "udyn.exactnum", "QuadExt.__mul__"),
    ("exactnum.quad_val", "udyn.exactnum", "quad_val"),
    ("exactnum.vp_rat", "udyn.exactnum", "vp_rat"),
    ("exactnum.hensel_sqrt", "udyn.exactnum", "hensel_sqrt"),
)

ORBIT_DOMAINS = ("truncated", "quad", "rational")
ORACLE_COUNTS = ("checks", "inconclusive", "flagged", "fail", "samples")
_CHECK_SPANS = {
    "oracle.check_fixed_points",
    "oracle.check_lemma1",
    "oracle.check_portrait",
    "oracle.check_radius_lemmas",
}
_OP_SPAN = "bench.op"
# Counters updated from call results rather than from span timings.
_COUNTERS = (
    [f"mapengine.orbit.{dom}.calls" for dom in ORBIT_DOMAINS]
    + [f"mapengine.orbit.{k}" for k in ("steps", "precision_exhausted", "retry_calls")]
    + [f"oracle.{k}" for k in ORACLE_COUNTS]
    + ["exactnum.quad.max_bits", "exactnum.truncated.digits_lost"]
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for dom in ORBIT_DOMAINS:
        units[f"mapengine.orbit.{dom}.calls"] = "count"
        units[f"mapengine.orbit.{dom}.self_s"] = "s"
    for key in ("steps", "precision_exhausted", "retry_calls"):
        units[f"mapengine.orbit.{key}"] = "count"
    for key in ORACLE_COUNTS:
        units[f"oracle.{key}"] = "count"
    units["oracle.decided_ratio"] = "ratio"
    units["exactnum.quad.max_bits"] = "bits"
    units["exactnum.truncated.digits_lost"] = "digits"
    units["trace.overhead_frac"] = "ratio"
    return units


def _bits(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Wraps every binding of the SPANS functions in the loaded udyn modules.

    ``base_precision`` is the workload's truncated precision; a truncated
    orbit asked for more digits than that is a precision retry.
    """

    def __init__(self, base_precision: int) -> None:
        self.base_precision = base_precision
        self.names = [_OP_SPAN] + [name for name, _, _ in SPANS]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.orbit_domain: dict = {}  # span index -> domain of the start point
        self.counts = dict.fromkeys(_COUNTERS, 0)
        self._stack = [-1]
        self._op = -1
        self._patches: list = []

    # ----------------------------------------------------------- recording

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def op(self, index: int, fn, *args):
        """Run one benchmark op under a root span; its spans share ``index``."""
        self._op = index
        i = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(i)

    def _wrap(self, name: str, fn):
        nid = self.name_id[name]
        post = None
        if name == "mapengine.orbit":
            post = self._after_orbit
        elif name in _CHECK_SPANS:
            post = self._after_check
        tracer = self

        if post is None:

            def traced(*args, **kwargs):
                i = tracer._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(i)

        else:

            def traced(*args, **kwargs):
                i = tracer._open(nid)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._close(i)
                post(i, args, kwargs, out)
                return out

        return traced

    def _after_check(self, i, args, kwargs, entries) -> None:
        c = self.counts
        c["oracle.checks"] += len(entries)
        for e in entries:
            c["oracle.samples"] += e.samples
            if e.status == "INCONCLUSIVE":
                c["oracle.inconclusive"] += 1
            elif e.status == "FLAGGED":
                c["oracle.flagged"] += 1
            elif e.status == "FAIL":
                c["oracle.fail"] += 1

    def _after_orbit(self, i, args, kwargs, rec) -> None:
        from udyn.exactnum import QuadExt, TruncatedPadic
        from udyn.mapengine import PrecisionExhaustedAt

        x = args[0]
        precision = kwargs.get("precision")
        c = self.counts
        if isinstance(x, QuadExt):
            dom = "quad"
            for pt in rec.points:
                c["exactnum.quad.max_bits"] = max(
                    c["exactnum.quad.max_bits"], _bits(pt.u), _bits(pt.v)
                )
        elif precision is not None or isinstance(x, TruncatedPadic):
            dom = "truncated"
            if precision is not None and precision > self.base_precision:
                c["mapengine.orbit.retry_calls"] += 1
            digits = [pt.digits for pt in rec.points if not pt.exact_zero]
            if digits:
                c["exactnum.truncated.digits_lost"] += digits[0] - digits[-1]
        else:
            dom = "rational"
        self.orbit_domain[i] = dom
        c[f"mapengine.orbit.{dom}.calls"] += 1
        c["mapengine.orbit.steps"] += max(len(rec.points) - 1, 0)
        if isinstance(rec.termination, PrecisionExhaustedAt):
            c["mapengine.orbit.precision_exhausted"] += 1

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Replace every binding of each SPANS target in the udyn modules."""
        mods = [m for n, m in sorted(sys.modules.items()) if n == "udyn" or n.startswith("udyn.")]
        for name, home, attr in SPANS:
            owner = sys.modules[home]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                if isinstance(orig, classmethod):
                    wrapped = classmethod(self._wrap(name, orig.__func__))
                    self._patch(cls, meth, orig, wrapped)
                    continue
                wrapped = self._wrap(name, orig)
                for key, val in list(vars(cls).items()):
                    if val is orig:
                        self._patch(cls, key, orig, wrapped)
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._patches.append((owner, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # ------------------------------------------------------------- results

    def layer_metrics(self, passes: int, overhead_frac: float) -> dict:
        """Per-layer metrics per traced pass, from the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        for i, parent in enumerate(self.span_parent):
            if parent >= 0:
                child[parent] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        dom_self = dict.fromkeys(ORBIT_DOMAINS, 0.0)
        for i, nid in enumerate(self.span_name):
            calls[nid] += 1
            own = dur[i] - child[i]
            self_s[nid] += own
            dom = self.orbit_domain.get(i)
            if dom is not None:
                dom_self[dom] += own
        out = {}
        for name, _, _ in SPANS:
            nid = self.name_id[name]
            out[f"{name}.calls"] = calls[nid] / passes
            out[f"{name}.self_s"] = self_s[nid] / passes
        for dom in ORBIT_DOMAINS:
            out[f"mapengine.orbit.{dom}.self_s"] = dom_self[dom] / passes
        for key, value in self.counts.items():
            out[key] = value if key == "exactnum.quad.max_bits" else value / passes
        checks = self.counts["oracle.checks"]
        out["oracle.decided_ratio"] = (
            (checks - self.counts["oracle.inconclusive"]) / checks if checks else 0.0
        )
        out["trace.overhead_frac"] = overhead_frac
        return {k: out[k] for k in metric_units()}

    def write_spans(self, path: Path) -> None:
        """Header line of JSON, then the raw span arrays in header order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = (self.span_name, self.span_parent, self.span_op, self.span_start, self.span_end)
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "fields": ["name", "parent", "op", "start", "end"],
            "typecodes": [a.typecode for a in arrays],
            "itemsizes": [a.itemsize for a in arrays],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for a in arrays:
                a.tofile(fh)
