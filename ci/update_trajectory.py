#!/usr/bin/env python3
"""Append a sweep measurement to the perf trajectory and gate on it.

The trajectory file (``BENCH_trajectory.json``) is an append-only list
of candidates/sec measurements of the fig1 sweep, one entry per CI run
(plus the seed entries recorded when the hot-path work landed). CI
restores the previous trajectory, appends the current measurement
(read from the run's "sos.bench" report, ``--bench FILE``), and fails
the build when throughput regressed more than the allowed fraction
against the most recent comparable prior entry.

Entries are only compared when their configuration key matches: the
same tool, cycle scale, worker count, snapshot setting and sampling
windows (full-detail and sampled sweeps have different cost). A full-
scale measurement from a developer box therefore coexists with the
scaled-down CI smoke measurements without ever being compared against
them.

Usage:
    update_trajectory.py --trajectory FILE --bench FILE \
        --git-rev REV [--cycle-scale N] [--max-regression 0.15] \
        [--context LABEL]

Exit status: 0 on pass (or no comparable history), 1 on regression,
2 on malformed input.
"""

import argparse
import json
import sys

from bench_report import CheckError, load_bench

SCHEMA = "sos.bench-trajectory"
SCHEMA_VERSION = 1


def config_key(entry):
    # Entries predating the sampled-simulation mode carry no "sampled"
    # field; default it to "off" so the seed history keeps matching
    # today's full-detail runs.
    return (
        entry.get("tool"),
        entry.get("cycle_scale"),
        entry.get("jobs"),
        entry.get("snapshot"),
        entry.get("sampled", "off"),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trajectory", required=True,
                        help="trajectory JSON (created when missing)")
    parser.add_argument("--bench", required=True,
                        help="sos.bench report of this run")
    parser.add_argument("--git-rev", required=True)
    parser.add_argument("--cycle-scale", type=int, default=1,
                        help="SOS_CYCLE_SCALE the sweep ran at")
    parser.add_argument("--max-regression", type=float, default=0.15,
                        help="fail when candidates/sec drops by more "
                             "than this fraction (default 0.15)")
    parser.add_argument("--context", default="",
                        help="free-form label (runner, branch, ...)")
    args = parser.parse_args()

    try:
        sweep = load_bench(args.bench)
    except CheckError as exc:
        print("trajectory: bad bench report: %s" % exc, file=sys.stderr)
        return 2
    timing = sweep["stats"]["timing"]

    try:
        with open(args.trajectory) as f:
            doc = json.load(f)
        if doc.get("schema") != SCHEMA:
            raise ValueError("wrong schema %r" % doc.get("schema"))
    except FileNotFoundError:
        doc = {"schema": SCHEMA, "schema_version": SCHEMA_VERSION,
               "entries": []}
    except (OSError, ValueError) as exc:
        # A corrupt restored artifact must not wedge CI forever; start
        # a fresh history and say so loudly.
        print("trajectory: resetting corrupt history (%s)" % exc,
              file=sys.stderr)
        doc = {"schema": SCHEMA, "schema_version": SCHEMA_VERSION,
               "entries": []}

    entry = {
        "git_rev": args.git_rev,
        "tool": sweep.get("tool"),
        "cycle_scale": args.cycle_scale,
        "jobs": sweep.get("jobs"),
        "snapshot": sweep.get("snapshot"),
        "sampled": sweep.get("sample", "off"),
        "candidates": timing["candidates"],
        "candidates_per_sec": timing["candidates_per_sec"],
        "elapsed_seconds": timing["elapsed_seconds"],
        "context": args.context,
    }

    comparable = [e for e in doc["entries"]
                  if config_key(e) == config_key(entry)]
    doc["entries"].append(entry)
    with open(args.trajectory, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    now = entry["candidates_per_sec"]
    if not comparable:
        print("trajectory: first entry for config %r: %.4f cand/s"
              % (config_key(entry), now))
        return 0

    # Gate against the most recent comparable entry: the trajectory
    # must never step down by more than the allowance in one commit.
    prev = comparable[-1]
    ref = prev["candidates_per_sec"]
    change = (now - ref) / ref if ref > 0 else 0.0
    print("trajectory: %.4f cand/s vs %.4f (rev %s): %+.1f%%"
          % (now, ref, prev["git_rev"][:12], 100.0 * change))
    if ref > 0 and now < (1.0 - args.max_regression) * ref:
        print("trajectory: REGRESSION beyond %.0f%% allowance"
              % (100.0 * args.max_regression), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
