#!/usr/bin/env python3
"""Symbolize a ripprof.<pid>.txt sample file (see ci/ripprof.c).

    python3 ci/ripprof.py ripprof.1234.txt [more.txt ...] [--top 25]
        [--stage REGEX ...]

Prints the share of samples per innermost function, over all the
files given (one per process; each carries its own mappings). With --stage, each
sample is also charged to the innermost frame of its inline chain whose
function name matches one of the patterns (in the order given), or to
"(other)"; that gives per-stage shares even where the stages are inlined
into one loop, as long as the binary carries -g line tables.
"""

import argparse
import collections
import re
import subprocess
import sys


def read_samples(path):
    maps, addrs = [], []
    with open(path) as f:
        for line in f:
            if line.startswith("map "):
                fields = line.split()
                lo, hi = (int(x, 16) for x in fields[1].split("-"))
                if len(fields) >= 7:
                    maps.append((lo, hi, int(fields[3], 16), fields[6]))
            elif line.strip():
                addrs.append(int(line, 16))
    return maps, addrs


def is_pie(path):
    with open(path, "rb") as f:
        header = f.read(18)
    return len(header) == 18 and header[16] == 3  # ET_DYN


def symbolize(path, offsets):
    """{offset: [function, ...] innermost first} via one addr2line call."""
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", path],
        input="\n".join(hex(o) for o in offsets), capture_output=True,
        text=True, check=True).stdout.splitlines()
    chains, current = {}, None
    i = 0
    while i < len(out):
        if out[i].startswith("0x"):
            current = int(out[i], 16)
            chains[current] = []
            i += 1
            continue
        chains[current].append(out[i])
        i += 2  # function line, then file:line
    return chains


def short(name):
    name = re.sub(r"\(.*", "", name)
    return name.replace("sos::", "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples", nargs="+")
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--stage", action="append", default=[])
    args = parser.parse_args()

    by_object = collections.defaultdict(collections.Counter)
    total = unmapped = 0
    for sample_file in args.samples:
        maps, addrs = read_samples(sample_file)
        total += len(addrs)
        for addr in addrs:
            for lo, hi, offset, path in maps:
                if lo <= addr < hi:
                    key = addr - lo + offset if is_pie(path) else addr
                    by_object[path][key] += 1
                    break
            else:
                unmapped += 1

    if total == 0:
        sys.exit("no samples")
    inner = collections.Counter()
    stages = collections.Counter()
    patterns = [re.compile(p) for p in args.stage]
    for path, counts in by_object.items():
        chains = symbolize(path, sorted(counts))
        for key, n in counts.items():
            chain = [short(f) for f in chains.get(key, [])] or ["??"]
            inner[chain[0]] += n
            if patterns:
                for frame in chain:
                    match = next((p.pattern for p in patterns
                                  if p.search(frame)), None)
                    if match:
                        stages[match] += n
                        break
                else:
                    stages["(other)"] += n
    print(f"{total} samples ({unmapped} outside any executable mapping)")
    print("innermost function:")
    for name, n in inner.most_common(args.top):
        print(f"  {100.0 * n / total:5.1f}%  {name}")
    if patterns:
        print("stage:")
        for name, n in stages.most_common():
            print(f"  {100.0 * n / total:5.1f}%  {name}")


if __name__ == "__main__":
    main()
