"""Smoke self-test of the benchmark, at the shortest run length.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit
on every workload, traced and untraced; that the traced verify-grid pass at
seed 0 reproduces the reference call counts in spec.json (when src/udyn is
the version they were recorded for); that each output checker rejects a
tampered output; and that the benchmark fails without a result when the
udyn sources are absent.  Exits 1 if any check fails.  Takes about 90 s.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, ClassifySweep, OrbitDeep, VerifyGrid  # noqa: E402

failures: list = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def src_sha256() -> str:
    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "udyn").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def check_printed_metrics(spec: dict) -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(name, trace)
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{label}: result line has exactly correct/attempted/failed/metrics")
            expect(result["correct"] is True and result["attempted"] >= 1, f"{label}: correct")
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{label}: every {key} metric, with its unit, in the result")
            text = lines[:-1]
            missing = [m for m, u in want.items()
                       if not any(ln.split()[:1] == [m] and ln.split()[-1] == u for ln in text)]
            expect(not missing, f"{label}: every metric printed by name with its unit {missing or ''}")
            if trace == 0:
                expect(any(ln.startswith("samples: ") for ln in text), f"{label}: sample count printed")
            if name == "verify-grid" and trace == 1:
                check_reference(spec["seed0_reference"], result["metrics"])


def check_reference(ref: dict, metrics: dict) -> None:
    if src_sha256() != ref["src_sha256"]:
        print("skip seed-0 reference counts: src/udyn differs from the version they were recorded for")
        return
    for key, want in ref["counts"].items():
        got = metrics[key]["value"]
        expect(got == want, f"seed-0 reference {key}: {got} == {want}")


def check_tampering() -> None:
    run.setup("verify-grid", 0)  # imports udyn from src/

    wl = VerifyGrid(0)
    code, text = wl.call(wl.inputs[0])
    expect(wl.check(0, (code, text)).problem is None, "verify-grid: real output passes")
    bad = text.replace('"status":"PASS"', '"status":"FAIL"', 1)
    expect(bad != text and wl.check(0, (code, bad)).problem is not None,
           "verify-grid: injected FAIL status is rejected")
    expect(wl.check(0, (2, text)).problem is not None, "verify-grid: nonzero exit is rejected")
    expect(wl.check(0, (code, text[:-5])).problem is not None, "verify-grid: broken JSON is rejected")
    expect(wl.check(1, (code, text)).problem is not None, "verify-grid: another row's output is rejected")
    ledger = run.Ledger(wl)
    ledger.add(0, (code, text), None)
    ledger.add(0, (code, text.replace('"samples":', '"samples":1', 1)), None)
    expect(ledger.failed == 1 and not ledger.correct, "verify-grid: output changed between passes is rejected")

    wl = OrbitDeep(0)
    rec = wl.record(wl.call(wl.inputs[0]))
    expect(wl.check(0, rec).problem is None, "orbit-deep: real output passes")
    vals = list(rec[0])
    vals[2] += 1
    expect(wl.check(0, (tuple(vals),) + rec[1:]).problem is not None,
           "orbit-deep: changed orbit valuation is rejected")
    out = wl.call(wl.inputs[0])
    ledger = run.Ledger(wl)
    ledger.add(0, out, None)
    last = out.points[-1].truncate(out.points[-1].digits - 1)
    ledger.add(0, replace(out, points=out.points[:-1] + (last,)), None)
    expect(ledger.failed == 1 and not ledger.correct, "orbit-deep: record changed between passes is rejected")

    wl = ClassifySweep(0)
    rec = wl.record(wl.call(wl.inputs[0]))
    expect(wl.check(0, rec).problem is None, "classify-sweep: real output passes")
    portrait, entries = rec
    fix_set = [i for i, e in enumerate(entries) if e[0].startswith("radius:fix-set:")][0]
    tampered = list(entries)
    tampered[fix_set] = (entries[fix_set][0], "FAIL") + entries[fix_set][2:]
    expect(wl.check(0, (portrait, tuple(tampered))).problem is not None,
           "classify-sweep: injected FAIL status is rejected")
    mapengine = sys.modules["udyn.mapengine"]
    wl.inputs.append(mapengine.validate_params(2, "156/43", "17/100", 2))
    out = wl.check(len(wl.inputs) - 1, wl.record(wl.call(wl.inputs[-1])))
    expect(out.known and out.problem is not None,
           "classify-sweep: the known classify-vs-orbit defect counts as a failed op")
    portrait, entries = wl.call(wl.inputs[0])
    for changed, what in (
        ((replace(portrait, case="T0"), entries), "classify to_dict"),
        ((portrait, [replace(entries[0], samples=entries[0].samples + 1)] + entries[1:]), "lemma entries"),
    ):
        ledger = run.Ledger(wl)
        ledger.add(0, (portrait, entries), None)
        ledger.add(0, changed, None)
        expect(ledger.failed == 1 and not ledger.correct,
               f"classify-sweep: {what} changed between passes is rejected")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = bench("verify-grid", 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        expect(proc.returncode != 0 and not last[0].startswith("{"),
               "without src/udyn the benchmark exits nonzero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((HERE / "spec.json").read_text())
    check_tampering()
    check_bare_directory()
    check_printed_metrics(spec)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
