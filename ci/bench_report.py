#!/usr/bin/env python3
"""Check and merge the "sos.bench" host-timing reports.

Each bench binary given --bench FILE writes one "sos.bench" (schema
version 3) document: top-level tool, jobs and sample, and a
"stats" tree that always holds "timing" (elapsed_seconds, candidates,
candidates_per_sec, solo_refs_measured). micro_simulator adds "core" (smt<k> levels of the
core-loop microbench), fig9_cluster adds "cluster" (workers<w> points
of its scaling curve).

check BENCH [--manifest RUN] [--against BENCH [--against-manifest RUN]]
    Validate one document and apply the CI gates. micro_simulator's
    document must carry "core", fig9_cluster's "cluster". A "cluster"
    section needs at least 4 nodes and a 4-worker speedup of 1.5x on
    hosts with 4 or more cores. With --manifest, a sampled run's
    manifest must carry its windows and a sane "sampling" group.
    --against names a full-detail reference run: a sampled run must be
    2x faster than it and, with both manifests (required), lose at
    most 5% weighted speedup in every mix (pick-regret).

merge RESULTS
    Consolidate a run_all.sh results directory: RESULTS/*.json run
    manifests into RESULTS/manifest.json ("sos.run-set"), and
    RESULTS/bench/*.json plus the sampled fig1 run in RESULTS/sampled/
    into RESULTS/BENCH.json ("sos.bench-set", with the sampled speedup
    and per-mix pick-regret). Missing or malformed inputs are reported
    and skipped, so one failed bench never hides the others' results.

Exit status: 0 on pass, 1 on a failed check or a bad input.
"""

import argparse
import json
import os
import sys

SCHEMA = "sos.bench"
SCHEMA_VERSION = 3
CORE_LEVELS = (1, 2, 4, 6)
CLUSTER_WORKERS = (1, 2, 4)
# The stats sections a tool writes whenever it is given --bench.
TOOL_SECTIONS = {"micro_simulator": ("core",), "fig9_cluster": ("cluster",)}

SAMPLED_MIN_SPEEDUP = 2.0
MAX_PICK_REGRET = 0.05
CLUSTER_MIN_SPEEDUP = 1.5
CLUSTER_MIN_CORES = 4


class CheckError(Exception):
    pass


def require(cond, what):
    if not cond:
        raise CheckError(what)


def load(path, schema):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as exc:
        raise CheckError("%s: unreadable (%s)" % (path, exc))
    require(isinstance(doc, dict) and doc.get("schema") == schema,
            "%s: not a %s document" % (path, schema))
    return doc


def load_run(path):
    return load(path, "sos.run-manifest")


def elapsed(doc):
    return doc["stats"]["timing"]["elapsed_seconds"]


def load_bench(path):
    """Load one "sos.bench" document and validate its shape."""
    doc = load(path, SCHEMA)
    require(doc.get("schema_version") == SCHEMA_VERSION,
            "%s: schema_version %r" % (path, doc.get("schema_version")))
    for key in ("tool", "jobs", "sample", "stats"):
        require(key in doc, "%s: no %r" % (path, key))
    for section in TOOL_SECTIONS.get(doc["tool"], ()):
        require(section in doc["stats"],
                "%s: %s wrote no %r section" % (path, doc["tool"], section))
    timing = doc["stats"].get("timing", {})
    for key in ("elapsed_seconds", "candidates", "candidates_per_sec",
                "solo_refs_measured"):
        require(timing.get(key, -1) >= 0, "%s: bad timing.%s" % (path, key))
    core = doc["stats"].get("core")
    if core is not None:
        for level in CORE_LEVELS:
            entry = core.get("smt%d" % level, {})
            # The simulated side must be live and the host side sane.
            for key in ("cycles", "retired", "ipc", "cycles_per_sec",
                        "retired_per_sec"):
                require(entry.get(key, 0) > 0,
                        "%s: bad core.smt%d.%s" % (path, level, key))
    cluster = doc["stats"].get("cluster")
    if cluster is not None:
        require(cluster.get("nodes", 0) > 0, "%s: bad cluster.nodes" % path)
        points = sorted(k for k in cluster if k.startswith("workers"))
        require(points == sorted("workers%d" % w for w in CLUSTER_WORKERS),
                "%s: cluster points %r" % (path, points))
        for w in CLUSTER_WORKERS:
            require(cluster.get("workers%d" % w, {}).get("speedup", 0) > 0,
                    "%s: bad cluster.workers%d" % (path, w))
    return doc


def candidates(experiment):
    return [v for k, v in experiment.items() if k.startswith("candidate")]


def pick_regret(full_run, sampled_run):
    """Per-mix pick-regret of a sampled sweep against a full one.

    The sampled sweep picks the candidate with the highest sampled
    weighted speedup (WS). Its regret is how far that schedule's
    full-detail WS falls short of the full-detail best, as a fraction
    of the best.
    """
    regret = {}
    sampled = sampled_run["stats"]["experiments"]
    for mix, experiment in full_run["stats"]["experiments"].items():
        full = candidates(experiment)
        pick = max(candidates(sampled[mix]), key=lambda c: c["ws"])
        best = max(c["ws"] for c in full)
        picked = next(c["ws"] for c in full
                      if c["schedule"] == pick["schedule"])
        regret[mix] = (best - picked) / best if best > 0 else 0.0
    return regret


def check_sampling(doc, run):
    """A sampled run's manifest records its windows and error bounds."""
    sample = doc["sample"]
    require(run["config"].get("sample") == sample,
            "manifest sample %r, bench %r"
            % (run["config"].get("sample"), sample))
    group = run["stats"]["sampling"]
    windows = [int(x) for x in sample.split(":")]
    require([group["config"][k] for k in
             ("fast_forward", "warm", "measure")] == windows,
            "sampling.config %r != %r" % (group["config"], sample))
    for key in ("periods", "fast_forward_cycles", "detailed_cycles"):
        require(group[key] > 0, "sampling.%s = %r" % (key, group[key]))
    frac = group["error"]["detailed_fraction"]
    require(0.0 < frac < 0.5, "detailed_fraction %r" % frac)
    require(group["error"]["ipc_cv"] >= 0.0, "negative ipc_cv")
    print("sampling group OK: %.1f%% detailed, ipc_cv %.3f"
          % (100 * frac, group["error"]["ipc_cv"]))


def check_cluster(cluster):
    points = [cluster["workers%d" % w] for w in CLUSTER_WORKERS]
    print("scaling, %d nodes: " % cluster["nodes"] + ", ".join(
        "%dw %.2fs (%.2fx)" % (w, p["elapsed_seconds"], p["speedup"])
        for w, p in zip(CLUSTER_WORKERS, points)))
    # The widest point only measures scaling with a node per worker.
    require(cluster["nodes"] >= CLUSTER_WORKERS[-1],
            "%d cluster nodes < %d workers"
            % (cluster["nodes"], CLUSTER_WORKERS[-1]))
    # Wall-clock scaling needs real cores.
    if len(os.sched_getaffinity(0)) < CLUSTER_MIN_CORES:
        print("fewer than %d cores; scaling gate skipped"
              % CLUSTER_MIN_CORES)
        return
    speedup = points[-1]["speedup"]
    require(speedup >= CLUSTER_MIN_SPEEDUP,
            "4-worker speedup %.2fx < %.1fx" % (speedup, CLUSTER_MIN_SPEEDUP))
    print("4-worker speedup %.2fx >= %.1fx" % (speedup, CLUSTER_MIN_SPEEDUP))


def check_against(doc, ref, run, ref_run):
    require(doc["sample"] != "off" and ref["sample"] == "off",
            "no gate compares these runs: need sampled vs full")
    t, t_ref = elapsed(doc), elapsed(ref)
    print("sampled %.1fs vs full %.1fs: %.2fx"
          % (t, t_ref, t_ref / t if t > 0 else 0.0))
    require(t * SAMPLED_MIN_SPEEDUP <= t_ref,
            "sampled run not %.0fx faster" % SAMPLED_MIN_SPEEDUP)
    require(run is not None and ref_run is not None,
            "sampled vs full needs --manifest and --against-manifest")
    regret = pick_regret(ref_run, run)
    worst = max(regret, key=regret.get)
    print("worst pick-regret %.2f%% (%s)" % (100 * regret[worst], worst))
    require(regret[worst] <= MAX_PICK_REGRET,
            "pick-regret %.2f%% in %s" % (100 * regret[worst], worst))


def cmd_check(args):
    doc = load_bench(args.bench)
    timing = doc["stats"]["timing"]
    print("%s: %s, %.2fs, %d candidates"
          % (args.bench, doc["tool"], timing["elapsed_seconds"],
             timing["candidates"]))
    if "core" in doc["stats"]:
        print("core: " + ", ".join(
            "smt%d %.2fM cyc/s"
            % (k, doc["stats"]["core"]["smt%d" % k]["cycles_per_sec"] / 1e6)
            for k in CORE_LEVELS))
    if "cluster" in doc["stats"]:
        check_cluster(doc["stats"]["cluster"])
    run = ref_run = None
    if args.manifest:
        run = load_run(args.manifest)
        if doc["sample"] != "off":
            check_sampling(doc, run)
    if args.against_manifest:
        ref_run = load_run(args.against_manifest)
    if args.against:
        check_against(doc, load_bench(args.against), run, ref_run)


def write_json(path, doc):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_merge(args):
    failures = []

    def load_dir(directory, loader):
        docs = {}
        if not os.path.isdir(directory):
            return docs
        for entry in sorted(os.listdir(directory)):
            # Never re-ingest the consolidated outputs.
            if not entry.endswith(".json") or entry.startswith("BENCH") \
                    or entry == "manifest.json":
                continue
            try:
                docs[entry[:-len(".json")]] = loader(
                    os.path.join(directory, entry))
            except CheckError as exc:
                failures.append(str(exc))
        return docs

    def load_or_none(path, loader):
        try:
            return loader(path)
        except CheckError as exc:
            failures.append(str(exc))
            return None

    results = args.results
    runs = load_dir(results, load_run)
    write_json(os.path.join(results, "manifest.json"),
               {"schema": "sos.run-set", "schema_version": 1,
                "runs": runs})
    print("%s/manifest.json: %d run manifests" % (results, len(runs)))

    benches = load_dir(os.path.join(results, "bench"), load_bench)
    total = sum(elapsed(doc) for doc in benches.values())
    report = {"schema": "sos.bench-set", "schema_version": 1,
              "total_elapsed_seconds": total, "benches": benches}

    # The sampled fig1 sweep against its full-detail sibling.
    sampled_dir = os.path.join(results, "sampled")
    bench = load_or_none(os.path.join(sampled_dir, "bench.json"),
                         load_bench)
    run = load_or_none(os.path.join(sampled_dir, "fig1_ws_range.json"),
                       load_run)
    full = benches.get("fig1_ws_range")
    full_run = runs.get("fig1_ws_range")
    if None not in (bench, run, full, full_run):
        regret = pick_regret(full_run, run)
        report["sampled"] = {
            "sample": bench["sample"],
            "sampling": run["stats"].get("sampling"),
            "elapsed_seconds": elapsed(bench),
            "full_elapsed_seconds": elapsed(full),
            "speedup": (elapsed(full) / elapsed(bench)
                        if elapsed(bench) > 0 else 0.0),
            "pick_regret": regret,
            "worst_pick_regret": max(regret.values(), default=0.0),
        }
    write_json(os.path.join(results, "BENCH.json"), report)
    sampled = report.get("sampled", {})
    print("%s/BENCH.json: %d benches, %.1fs total; sampled %.2fx, "
          "worst pick-regret %.2f%%"
          % (results, len(benches), total, sampled.get("speedup", 0.0),
             100 * sampled.get("worst_pick_regret", 0.0)))
    for failure in failures:
        print("merge: %s" % failure, file=sys.stderr)
    require(not failures, "%d unreadable inputs" % len(failures))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    check = sub.add_parser("check", help="validate and gate one report")
    check.add_argument("bench", help="sos.bench document")
    check.add_argument("--manifest", help="run manifest of the same run")
    check.add_argument("--against", help="sos.bench of a reference run")
    check.add_argument("--against-manifest",
                       help="run manifest of the reference run")
    check.set_defaults(func=cmd_check)
    merge = sub.add_parser("merge", help="consolidate a results directory")
    merge.add_argument("results", help="run_all.sh results directory")
    merge.set_defaults(func=cmd_merge)
    args = parser.parse_args()
    try:
        args.func(args)
    except (CheckError, KeyError, TypeError) as exc:
        print("bench_report: FAILED: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
