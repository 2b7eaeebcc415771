#!/usr/bin/env python3
"""Summarize a pc_sampler dump: self and inclusive samples by function and
by source line.

    python3 tools/pc_sampler/report.py pc_sampler.1234.txt [more dumps] [--top 25]

Addresses are resolved with addr2line (binutils) against the modules listed
in the dump, with inline frames expanded: a sample whose program counter lies
in code inlined into `f` from `g` counts as self time of `g` and inclusive
time of both. Return addresses are looked up one byte back, so they resolve
to the call instruction's line. Inclusive counts each function once per
sample, however often it appears on the stack. Several dumps (say, repeated
runs of one build) are summed.
"""

import argparse
import bisect
import collections
import re
import signal
import subprocess
import sys

ADDRESS = re.compile(r"0x[0-9a-f]+")


def parse(path):
    """Read one dump: its samples as lists of (module path, address in the
    module's file) pairs, innermost first, and its dropped count."""
    modules, raw, dropped = [], [], 0
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "module":
                start, end, bias = (int(x, 16) for x in parts[1:4])
                modules.append((start, end, bias, " ".join(parts[4:])))
            elif parts[0] == "sample":
                raw.append([int(x, 16) for x in parts[1:]])
            elif parts[0] == "dropped":
                dropped = int(parts[1])
    modules.sort()
    starts = [m[0] for m in modules]

    def locate(addr):
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0 and addr < modules[i][1]:
            return modules[i][3], addr - modules[i][2]
        return None, addr

    # Return addresses (every frame past the first) resolve one byte back,
    # to the call instruction.
    samples = [[locate(a if k == 0 else a - 1) for k, a in enumerate(s)]
               for s in raw]
    return samples, dropped


def resolve(locations):
    """Map each (module path, address) to a list of (function, file:line)
    frames, innermost (inlined) first."""
    by_module = collections.defaultdict(set)
    result = {}
    for path, addr in locations:
        if path is None:
            result[(path, addr)] = [(f"[unknown {addr:#x}]", "??:0")]
        else:
            by_module[path].add(addr)
    for path, addrs in by_module.items():
        addrs = sorted(addrs)
        name = path.rsplit("/", 1)[-1]
        cmd = ["addr2line", "-e", path, "-a", "-f", "-C", "-i"]
        query = "\n".join(f"{a:#x}" for a in addrs) + "\n"
        try:
            out = subprocess.run(cmd, input=query, capture_output=True,
                                 text=True, check=True).stdout.splitlines()
        except (OSError, subprocess.CalledProcessError):
            out = []
        frames_of = {}
        current, fn = None, None
        for line in out:
            if ADDRESS.fullmatch(line):
                current, fn = int(line, 16), None
                frames_of[current] = []
            elif fn is None:
                fn = f"[{name}]" if line == "??" else line
            else:
                loc = line.split(" (discriminator")[0].rsplit("/", 1)[-1]
                frames_of[current].append((fn, loc))
                fn = None
        for a in addrs:
            result[(path, a)] = frames_of.get(a) or [(f"[{name}]", "??:0")]
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("dumps", nargs="+",
                   help="files written by libpc_sampler.so; several are "
                        "summed (each keeps its own load addresses)")
    p.add_argument("--top", type=int, default=25,
                   help="rows per table (default 25)")
    args = p.parse_args()

    samples, dropped = [], 0
    for path in args.dumps:
        s, d = parse(path)
        samples += s
        dropped += d
    if not samples:
        print("no samples", file=sys.stderr)
        return 1
    frames = resolve({loc for s in samples for loc in s})

    self_fn = collections.Counter()
    self_line = collections.Counter()
    incl_fn = collections.Counter()
    for s in samples:
        leaf = frames[s[0]]
        self_fn[leaf[0][0]] += 1
        self_line[(leaf[0][1], leaf[0][0])] += 1
        seen = {fn for loc in s for fn, _ in frames[loc]}
        for fn in seen:
            incl_fn[fn] += 1

    n = len(samples)
    pct = lambda c: f"{100.0 * c / n:6.2f}%"
    print(f"samples: {n} (dropped {dropped})")
    print("\nself by function")
    print(f"{'self':>7} {'incl':>7} {'samples':>8}  function")
    for fn, c in self_fn.most_common(args.top):
        print(f"{pct(c)} {pct(incl_fn[fn])} {c:8d}  {fn}")
    print("\nself by line")
    print(f"{'self':>7} {'samples':>8}  line  function")
    for (loc, fn), c in self_line.most_common(args.top):
        print(f"{pct(c)} {c:8d}  {loc}  {fn}")
    print("\ninclusive by function")
    print(f"{'incl':>7} {'self':>7} {'samples':>8}  function")
    for fn, c in incl_fn.most_common(args.top):
        print(f"{pct(c)} {pct(self_fn[fn])} {c:8d}  {fn}")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # Quiet under `| head`.
    sys.exit(main())
