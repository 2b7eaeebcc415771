#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and the libraries under src/ it compiles) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload in its own process. The last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}; its metric names and units must
match BENCHMARK.json (end_to_end untraced, per_layer traced). Traced runs write
their spans to .bench_out/. Build or contract failures exit 1 without a result.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["testbed_hadoop", "fattree_k32_rounds", "fuzz_digest"]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; return its path or None."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = (base if base.is_absolute() else ROOT / base) / "perfbench"
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return build_dir / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run(binary, args):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans",
                str(out_dir / f"spans-{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    if args.max_wait_us is not None:
        cmd += ["--max-wait-us", str(args.max_wait_us)]
    if args.request_lead_us is not None:
        cmd += ["--request-lead-us", str(args.request_lead_us)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds * 2 + 120)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stdout)
        log(f"perfbench exited with {proc.returncode}")
        return None
    print("\n".join(lines[:-1]), flush=True)
    result = json.loads(lines[-1])
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    if units != expected_metrics(args.trace):
        log("metrics do not match BENCHMARK.json:", sorted(units))
        return None
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes, for the self-test")
    p.add_argument("--max-wait-us", type=float,
                   help="take_snapshot max_wait on the fat-tree workload")
    p.add_argument("--request-lead-us", type=float,
                   help="round start to snapshot fire time on the testbed")
    args = p.parse_args()

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    result = run(binary, args)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
