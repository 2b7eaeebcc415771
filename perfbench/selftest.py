#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Checks that every BENCHMARK.json metric is emitted with its unit (untraced
and traced), that two runs of one seed print the same count fingerprint,
that a too-short take_snapshot max_wait (fat-tree) and snapshots set to fire
after the run ends (testbed) raise `failed`, and that a traced run writes a
loadable span file. Exits 1 on the first failed check.
"""
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 5


def run(workload, trace=0, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}\n"
                 f"{proc.stdout}{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    fingerprint = next(l for l in lines if l.startswith('{"fingerprint"'))
    return json.loads(lines[-1]), fingerprint


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, fingerprint = run(workload, trace)
            units = {m["name"]: m["unit"] for m in SPEC[key]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            check(emitted == units,
                  f"{workload} trace={trace}: every {key} metric, with unit")
            check(all(isinstance(v["value"], (int, float))
                      for v in result["metrics"].values()),
                  f"{workload} trace={trace}: values are numbers")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  f"{workload} trace={trace}: no operation failed")
            if trace == 0:
                _, again = run(workload, 0)
                check(again == fingerprint,
                      f"{workload}: two runs of seed {SEED} count the same")
            else:
                spans = ROOT / ".bench_out" / f"spans-{workload}-seed{SEED}.json"
                events = json.loads(spans.read_text())["traceEvents"]
                check(len(events) > 0 and all(
                    {"name", "ts", "dur"} <= e.keys() and "parent" in e["args"]
                    for e in events),
                      f"{workload}: span file loads, every span has a parent")

    result, _ = run("fattree_k32_rounds", 0, "--max-wait-us", "1")
    check(result["failed"] > 0 and not result["correct"],
          "fattree_k32_rounds: a 1 us take_snapshot max_wait fails rounds "
          f"({result['failed']} of {result['attempted']})")
    result, _ = run("testbed_hadoop", 0, "--request-lead-us", "10000000")
    check(result["failed"] > 0 and not result["correct"],
          "testbed_hadoop: snapshots set to fire 10 s after the run fail "
          f"rounds ({result['failed']} of {result['attempted']})")
    print("selftest passed")


if __name__ == "__main__":
    main()
