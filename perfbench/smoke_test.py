#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny size, untraced
and traced, through perfbench/run.py.

    python3 perfbench/smoke_test.py

Checks that BENCHMARK.json declares exactly the metrics run.py expects,
that each run prints every expected metric exactly once with its declared
unit, that the fingerprint line is complete, that no operation failed
(failed_ratio 0), and that the traced runs' chrome-trace files parse as
JSON. Tiny-size numbers are not measurements.
"""
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))
import run  # noqa: E402

FINGERPRINT_KEYS = {"workload", "seed", "nproc", "cpu_model", "build_type",
                    "hpcnet_telemetry", "hpcnet_simd", "revision"}


def check_spec(errors):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    want_e2e = set(run.END_TO_END)
    want_layer = set(run.PER_LAYER)
    if e2e != want_e2e:
        errors.append("end_to_end differs from run.py: "
                      f"{sorted(e2e ^ want_e2e)}")
    if layer != want_layer:
        errors.append("per_layer differs from run.py: "
                      f"{sorted(layer ^ want_layer)}")
    if e2e & layer:
        errors.append(f"names in both lists: {sorted(e2e & layer)}")
    if [w["name"] for w in spec["workloads"]] != run.WORKLOADS:
        errors.append("BENCHMARK.json workloads differ from run.py")
    for m in spec["end_to_end"]:
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"{m['name']}: bound {m['bound']} outside (0, 0.25]")


def check_run(workload, traced, errors):
    tag = f"{workload} trace={int(traced)}"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(int(traced)),
         "--tiny"], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        errors.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
        return
    lines = proc.stdout.rstrip("\n").split("\n")
    units = run.declared_units()
    want = run.PER_LAYER if traced else run.END_TO_END
    printed = {}
    info = {}
    for line in lines[:-1]:
        kind, _, rest = line.partition(" ")
        if kind == "metric":
            name, value, unit = rest.split(" ")
            printed.setdefault(name, []).append((float(value), unit))
        elif kind == "info":
            key, _, value = rest.partition(" ")
            info[key] = value
        elif kind == "fingerprint":
            missing = FINGERPRINT_KEYS - set(json.loads(rest))
            if missing:
                errors.append(f"{tag}: fingerprint lacks {sorted(missing)}")
    for name in want:
        got = printed.get(name, [])
        if len(got) != 1:
            errors.append(f"{tag}: {name} printed {len(got)} times")
        elif got[0][1] != units[name]:
            errors.append(f"{tag}: {name} unit {got[0][1]}, want {units[name]}")
    extra = set(printed) - set(want)
    if extra:
        errors.append(f"{tag}: unexpected metrics {sorted(extra)}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        errors.append(f"{tag}: correct={result['correct']} "
                      f"failed={result['failed']}")
    if float(info.get("failed_ratio", "nan")) != 0.0:
        errors.append(f"{tag}: failed_ratio {info.get('failed_ratio')}")
    if traced:
        try:
            doc = json.loads(Path(info["trace_file"]).read_text())
            if not doc["traceEvents"] or "layers" not in doc["otherData"]:
                errors.append(f"{tag}: trace has no events or no layer table")
        except (KeyError, OSError, json.JSONDecodeError) as e:
            errors.append(f"{tag}: trace file unreadable: {e!r}")


def main():
    errors = []
    check_spec(errors)
    for workload in run.WORKLOADS:
        for traced in (False, True):
            check_run(workload, traced, errors)
            print(f"checked {workload} trace={int(traced)}", flush=True)
    for e in errors:
        print(f"FAIL: {e}", file=sys.stderr)
    print("smoke test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
