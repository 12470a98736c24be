#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload null-mix|kernel-mix \
        --seed N --seconds S --trace 0|1 [--tiny]

Builds hpcbench (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it carry the
host/build fingerprint, the seed, sample counts and every metric with its
unit. Every workload runs the whole suite (scimark, boot and serve phases),
so untraced runs report every end-to-end metric of BENCHMARK.json and
traced runs every per-layer one, and write a chrome-trace JSON next to the
build.

Exit status: 0 ok; 1 a program output was wrong (result printed with
"correct": false); 2 the build or the run failed; 3 hpcbench's output
broke the contract (no result printed).
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700  # build + first run stay under 900 s

WORKLOADS = ["null-mix", "kernel-mix"]
# The metrics every workload reports: untraced (end to end), traced (per
# layer). Every name must be declared in BENCHMARK.json with the same unit.
KERNELS = ["fft", "sor", "montecarlo", "sparse", "lu"]
END_TO_END = [
    "mflops.clr11", "mflops.clr11_vec", "mflops.mono023", "mflops.rotor10",
    "jobs_per_s", "latency_p50_ms",
    "first_result_cold_ms", "first_result_warm_ms",
    "setup_s", "rss_peak_mb"]
PER_LAYER = (
    # scimark phase
    [f"{layer}.{k}.mflops"
     for layer in ["optimizing", "veckernels", "baseline", "interpreter",
                   "kernels"]
     for k in KERNELS]
    + [f"{tier}.ns_per_il_op" for tier in ["interpreter", "baseline",
                                             "optimizing"]]
    + ["trace.overhead_pct.scimark", "trace.invoke_cover_pct"]
    # boot phase
    + [f"tiered.first_call_us.{k}" for k in KERNELS]
    + [f"tiered.first_call_warm_us.{k}" for k in KERNELS]
    + ["execution.vm_new_us", "cil.build_us", "archive.capture_us",
       "archive.serialize_us", "archive.deserialize_us", "archive.attach_us",
       "archive.bytes", "archive.records", "archive.restored",
       "archive.missed", "trace.overhead_pct.boot", "verifier.verify_us",
       "regcompile.compile_us", "regcompile.compile_us_vec",
       "regcompile.rcode_instrs", "veccompile.vec_loops"]
    # serve phase
    + ["latency_p99_ms", "net.overhead_us.p50", "net.overhead_us.p99",
       "service.queue_us.p50", "service.queue_us.p99",
       "service.run_us.null.p50", "service.run_us.tiny.p50",
       "service.run_us.graph.p50", "service.kernel_busy_pct",
       "service.fuel_spent.metered", "trace.overhead_pct.serve",
       "optimizing.null_invoke_us", "service.null_submit_wait_us",
       "net.null_rtt_d1_us", "net.null_rtt_d8_us",
       "serialize.graph_bytes", "serialize.graph_us",
       "serialize.deserialize_us", "heap.minor_collections",
       "heap.major_collections", "heap.promoted_bytes",
       "heap.forced_minor_us", "heap.forced_major_us"])


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configures once, then builds hpcbench (a no-op when up to date)."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PERFBENCH), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "hpcbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"build step failed ({proc.returncode}): {' '.join(cmd)}")
            return False
    return True


def revision():
    """Git revision when the tree is a repository, plus a digest of the
    sources hpcbench is built from, so results from different code are
    never mistaken for one another."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    rev = "nogit"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent),
                   GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
        try:
            git = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                                 cwd=ROOT, env=env, capture_output=True,
                                 text=True, timeout=10)
            if git.returncode == 0:
                rev = git.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def declared_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        units[m["name"]] = m["unit"]
    return units


def check_result(line, traced):
    """Returns the problem with hpcbench's result line, or None."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return f"result line is not JSON: {e}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    want = PER_LAYER if traced else END_TO_END
    got = result["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        return f"metric set differs: missing {missing}, extra {extra}"
    units = declared_units()
    for name, m in got.items():
        if units.get(name) != m.get("unit"):
            return (f"{name}: unit {m.get('unit')!r}, "
                    f"declared {units.get(name)!r}")
        if not isinstance(m.get("value"), (int, float)):
            return f"{name}: value is not a number"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (results are not measurements)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bdir = build_dir()
    if not build(bdir):
        return 2
    cmd = [str(bdir / "hpcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--revision", revision()]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} failed with exit code {proc.returncode}")
        return 2
    problem = check_result(lines[-1], bool(args.trace))
    if problem is not None:
        sys.stderr.write(proc.stdout)
        log(f"hpcbench output breaks the contract: {problem}")
        return 3
    print("\n".join(lines), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
