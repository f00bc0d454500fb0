"""udyn benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-grid --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; udyn is imported from ``src/``
there, never from site-packages.  The workloads (verify-grid, orbit-deep,
classify-sweep) are described in ``perfbench/spec.json``.

``--trace 0`` runs ops one after another, each timed alone, until their
summed latency reaches ``--seconds`` and every input has run once
(verify-grid and classify-sweep finish the pass they are in), then
prints the end-to-end metrics.  Op latencies are reported in cal, the
time of a fixed calibration kernel run next to each op (see
``calibrate``), and in wall time in the text report.  ``--trace 1``
alternates an untraced and a traced run of the workload's trace pass
until ``--seconds`` have been spent, prints the per-layer metrics per
traced pass and writes the spans to ``.bench_out/``.  No thread or
worker process is started.  Output checks run outside the timed region.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics; attempted and failed count distinct inputs (see ``Ledger``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, metric_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
MIN_OPS = 110  # so that at least 10 latencies lie above op_p90_cal
_CAL_MODULUS = 3**1536

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_kcal": "op/kcal",
    "op_p50_cal": "cal",
    "op_p90_cal": "cal",
    "ok_frac": "ratio",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


class Ledger:
    """Checks every op's output against the workload's checker and against
    the first output for the same input; nothing here is timed.

    ``attempted`` and ``failed`` count distinct inputs, not timed repeats:
    an input fails once, on any pass, and every later pass of it must give
    the first pass's output.  A run covers every input at least once, so
    both counts (and ``decided``/``answers``) depend on the seed alone, not
    on how many passes the host's speed allowed.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.first: dict = {}
        self.bad: set = set()
        self.runs = self.known = 0
        self.decided = self.answers = 0
        self.problems: dict = {}

    @property
    def attempted(self) -> int:
        return len(self.first.keys() | self.bad)

    @property
    def failed(self) -> int:
        return len(self.bad)

    def add(self, index: int, out, error) -> None:
        self.runs += 1
        if index in self.bad:
            return
        if error is not None:
            self._fail(f"raised {error}", index)
            return
        rec = self.workload.record(out)
        if index in self.first:
            if self.first[index] != rec:
                self._fail("output differs from the first pass", index)
            return
        self.first[index] = rec
        o = self.workload.check(index, rec)
        self.decided += o.decided
        self.answers += o.answers
        if o.known:
            self.known += 1
            self.bad.add(index)
        elif o.problem is not None:
            self._fail(o.problem, index)

    def _fail(self, why: str, index: int) -> None:
        self.bad.add(index)
        self.problems.setdefault(why, []).append(index)

    @property
    def correct(self) -> bool:
        """No failure other than the documented known defect."""
        return not self.problems


def run_ops(workload, indices, ledger: Ledger, tracer=None) -> list:
    """Run the ops for ``indices``; returns their latencies."""
    latencies = []
    for index in indices:
        inp = workload.inputs[index]
        error = out = None
        t0 = perf_counter()
        try:
            out = tracer.op(index, workload.call, inp) if tracer else workload.call(inp)
        except Exception as exc:  # a failed op is counted, the loop goes on
            error = f"{type(exc).__name__}: {exc}"
            if f"raised {error}" not in ledger.problems:
                traceback.print_exc(file=sys.stderr)
        latencies.append(perf_counter() - t0)
        ledger.add(index, out, error)
    return latencies


def setup(workload_name: str, seed: int):
    """Import udyn afresh and build the inputs; the median of several
    repeats is setup_s."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "udyn" or n.startswith("udyn.")]:
            del sys.modules[name]
        t0 = perf_counter()
        importlib.import_module("udyn.cli")  # the CLI pulls in every module
        workload = WORKLOADS[workload_name](seed)
        times.append(perf_counter() - t0)
    return workload, statistics.median(times)


def calibrate() -> float:
    """Time one run of a fixed kernel of exact-rational and big-integer
    arithmetic, the kinds of work udyn does.  Other tenants of a shared host
    change its speed by up to 1.6x over seconds to minutes; dividing each
    op's latency by the kernel's time around it cancels most of that."""
    t0 = perf_counter()
    x = Fraction(1, 3)
    for k in range(1, 100):
        x = (x * k + 1) / (x + k)
    for k in range(8):
        pow(3 * k + 2, -1, _CAL_MODULUS)
    return perf_counter() - t0


def untraced(workload, seconds: float, ledger: Ledger) -> dict:
    lat: list = []
    cal: list = []
    spent = 0.0
    order = workload.order
    k = 0
    while True:
        cal.append(calibrate())
        lat += run_ops(workload, [order[k % len(order)]], ledger)
        spent += lat[-1]
        k += 1
        at_boundary = not workload.whole_passes or k % len(order) == 0
        if spent >= seconds and k >= max(MIN_OPS, len(order)) and at_boundary:
            break
    cal.append(calibrate())
    # each op in units of the mean kernel time just before and after it
    rel = [t / ((c0 + c1) / 2) for t, c0, c1 in zip(lat, cal, cal[1:])]
    p90 = statistics.quantiles(rel, n=10)[-1]
    p90_ms = statistics.quantiles(lat, n=10)[-1] * 1e3
    return {
        "ops": len(lat),
        "above_p90": sum(r > p90 for r in rel),
        "cal_ms": statistics.median(cal) * 1e3,
        "ops_per_kcal": 1e3 * len(rel) / sum(rel),
        "op_p50_cal": statistics.median(rel),
        "op_p90_cal": p90,
        "raw": f"ops_per_s {len(lat) / spent:.4f} op/s, op_p50_ms"
        f" {statistics.median(lat) * 1e3:.4f} ms, op_p90_ms {p90_ms:.4f} ms",
    }


def traced(workload, seconds: float, ledger: Ledger, spans_path: Path) -> dict:
    tracer = Tracer(workload.precision)
    trace_pass = workload.order[: workload.trace_ops]
    plain = with_trace = 0.0
    passes = 0
    while passes == 0 or plain + with_trace < seconds:
        plain += sum(run_ops(workload, trace_pass, ledger))
        tracer.install()
        try:
            with_trace += sum(run_ops(workload, trace_pass, ledger, tracer))
        finally:
            tracer.uninstall()
        passes += 1
    metrics = tracer.layer_metrics(passes, with_trace / plain - 1.0)
    tracer.write_spans(spans_path)
    return {"passes": passes, "ops_per_pass": len(trace_pass), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "udyn" / "__init__.py").is_file():
        print(f"perfbench: no udyn package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload, setup_s = setup(args.workload, args.seed)
    imported = Path(sys.modules["udyn"].__file__).resolve()
    if src.resolve() not in imported.parents:
        print(f"perfbench: udyn was imported from {imported}, not {src}", file=sys.stderr)
        return 2

    ledger = Ledger(workload)
    print(f"workload {workload.name}  seed {args.seed}  closed loop, 1 client, no threads")
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}.spans"
        res = traced(workload, args.seconds, ledger, spans_path)
        units = metric_units()
        metrics = res["metrics"]
        print(f"traced passes: {res['passes']} x {res['ops_per_pass']} ops; values are per pass")
        print(f"spans written to {spans_path}")
    else:
        res = untraced(workload, args.seconds, ledger)
        units = E2E_UNITS
        metrics = {
            "setup_s": setup_s,
            "ops_per_kcal": res["ops_per_kcal"],
            "op_p50_cal": res["op_p50_cal"],
            "op_p90_cal": res["op_p90_cal"],
            "ok_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
            "decided_frac": ledger.decided / ledger.answers,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        print(
            f"samples: {res['ops']} ops, {res['above_p90']} above op_p90_cal;"
            f" setup_s is the median of {SETUP_REPEATS} setups;"
            f" decided_frac over {ledger.answers} answers"
        )
        print(f"1 cal = {res['cal_ms']:.4f} ms (median); in wall time: {res['raw']}")
        if res["above_p90"] < 10:
            print("warning: fewer than 10 latencies above op_p90_cal")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>16.6f} {units[name]}")
    print(
        f"ops run {ledger.runs}; distinct inputs attempted {ledger.attempted},"
        f" failed {ledger.failed} (failed_frac {ledger.failed / ledger.attempted:.6f},"
        f" {ledger.known} of them the known classify-vs-orbit defect)"
    )
    for why, indices in ledger.problems.items():
        print(f"PROBLEM: {why}: {len(indices)} op(s), first input #{indices[0]}")
    result = {
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
