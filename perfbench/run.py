#!/usr/bin/env python3
"""The sossim benchmark: three workloads through the shipped harnesses.

    python3 perfbench/run.py --workload fig1_full --seed 1 --seconds 10 --trace 0

Run from the repository root. It builds the harnesses and the
outside-in tracer (perfbench/probe.cc) into .bench_build, runs the
workload, checks every output and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.

--trace 0 times the shipped binaries (fig1_ws_range, `sossim cluster`)
with nothing attached and reports the end-to-end metrics. --trace 1
runs the same workload once through sos_probe, which times calls into
each module's public functions, and reports the per-layer metrics.
Everything a run leaves (manifests, decision traces, spans, the full
report with provenance) goes to .bench_out/<workload>-s<seed>-t<trace>/.
See perfbench/README.md for the workload -> layer -> metric map.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"

# One process per workload, four sweep/node workers (= nproc on the
# 4-core host the figures in README.md come from).
JOBS = 4
# Consecutive SOS_SEED values a run cycles through: seed*SUBSEEDS+k.
# Simulated metrics average over them, so they depend on the seed only.
SUBSEEDS = 2
# Fresh set-up processes per run; setup_s is their median.
SETUP_REPS = 3
# Seed reserved for validating a claimed gain; never used for tuning.
HELD_OUT_SEED = 7919
# Wall budget of one run after the build; a run must end within 180 s.
DEADLINE_S = 165.0

FIG1_SET = ["symbiosSimCycles=100000", "calibWarmupCycles=60000",
            "calibMeasureCycles=100000"]
# run_all.sh's sampled rule at SOS_CYCLE_SCALE=500: quarter-timeslice
# periods, 10% detailed, warm:measure 1:3.
FIG1_SAMPLE = "2250:62:188"
FIG1_MIXES = 13
ARRIVALS = 1000
CLUSTER_FLAGS = [
    "--nodes", "4", "--dispatch", "signature", "--process", "mmpp",
    "--arrivals", str(ARRIVALS), "--mean-job", "30000000",
    # Explicit front-door load, well below the measured cliff; see
    # README.md "Cluster load".
    "--mean-interarrival", "40000000",
    # Weight-averaged size factor 1.0: the derived rate ignores it.
    "--classes", "interactive:1:0.5,batch:1:1.5",
]
CLUSTER_SET = ["calibWarmupCycles=60000", "calibMeasureCycles=100000"]

WORKLOADS = {
    "fig1_full": {"kind": "fig1", "env": {"SOS_CYCLE_SCALE": "500"}},
    "fig1_sampled": {"kind": "fig1", "env": {"SOS_CYCLE_SCALE": "500",
                                             "SOS_SAMPLE": FIG1_SAMPLE}},
    "cluster_mmpp": {"kind": "cluster", "env": {"SOS_CYCLE_SCALE": "2000"}},
}

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None


class Failure(Exception):
    """An unrecoverable benchmark error: exit non-zero, print no result."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Failure("repository sources not found next to perfbench/")
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" \
            not in cache.read_text():
        shutil.rmtree(BUILD)  # configured for another checkout
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1),
                  "--target", "fig1_ws_range", "sossim", "sos_probe"])
    with open(BUILD / "build.log", "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = (BUILD / "build.log").read_text()[-3000:]
                raise Failure(f"build failed: {' '.join(step)}\n{tail}")
    entries = dict(line.split("=", 1) for line in cache.read_text().splitlines()
                   if "=" in line and not line.startswith(("//", "#")))
    build_type = entries.get("CMAKE_BUILD_TYPE:STRING", "")
    sanitize = entries.get("SOS_SANITIZE:STRING", "")
    if build_type not in ("Release", "RelWithDebInfo") or sanitize:
        raise Failure(f"refusing to time a '{build_type}' build "
                      f"(sanitizers: '{sanitize}'); delete {BUILD}")
    compiler = entries.get("CMAKE_CXX_COMPILER:FILEPATH", "c++")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"build_type": build_type,
            "compiler": version[0] if version else compiler}


def binary(name):
    return {"fig1_ws_range": BUILD / "sossim" / "bench" / "fig1_ws_range",
            "sossim": BUILD / "sossim" / "src" / "tools" / "sossim",
            "sos_probe": BUILD / "sos_probe"}[name]


def provenance(build_info, workload, seed):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        git_rev = "unknown"
    digest = hashlib.sha256()
    for path in sorted(p for d in ("src", "bench") for p in (ROOT / d).rglob("*")
                       if p.is_file()):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    spec = WORKLOADS[workload]
    return {"git_rev": git_rev, "source_sha256": digest.hexdigest(),
            **build_info, "nproc": os.cpu_count(), "SOS_JOBS": JOBS,
            "workload": workload, "seed": seed,
            "sos_seeds": [seed * SUBSEEDS + k for k in range(SUBSEEDS)],
            "held_out_seed": HELD_OUT_SEED, "env": spec["env"],
            "knobs": CLUSTER_FLAGS + CLUSTER_SET if spec["kind"] == "cluster"
            else FIG1_SET}


# ---------------------------------------------------------- processes

class Clock:
    """Wall budget of the run; every child gets what is left of it."""

    def __init__(self):
        self.start = time.monotonic()

    def left(self):
        return DEADLINE_S - (time.monotonic() - self.start)


def launch(argv, env_extra, sos_seed, log_path, clock):
    """Run one child to completion; returns (rc, wall_s, cpu_s, rss_mb)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SOS_")}
    env.update(env_extra, SOS_JOBS=str(JOBS), SOS_SEED=str(sos_seed))
    with open(log_path, "w") as out:
        start = time.monotonic()
        child = subprocess.Popen([str(a) for a in argv], env=env, cwd=ROOT,
                                 stdout=out, stderr=subprocess.STDOUT)
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > max(1.0, clock.left()):
                child.kill()
                _, status, usage = os.wait4(child.pid, 0)
                log(f"timed out: {argv[0]}")
                break
            time.sleep(0.002)
        wall = time.monotonic() - start
    return (os.waitstatus_to_exitcode(status), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def fig1_argv(out_dir, tag):
    argv = [binary("fig1_ws_range")]
    for assignment in FIG1_SET:
        argv += ["--set", assignment]
    return argv + ["--out", out_dir / f"{tag}.json",
                   "--trace", out_dir / f"{tag}.jsonl"]


def cluster_argv(out_dir, tag):
    argv = [binary("sossim"), "cluster"] + CLUSTER_FLAGS
    for assignment in CLUSTER_SET:
        argv += ["--set", assignment]
    return argv + ["--out", out_dir / f"{tag}.json",
                   "--trace", out_dir / f"{tag}.jsonl"]


def probe_argv(mode, kind, spans):
    argv = [binary("sos_probe"), mode, "fig1" if kind == "fig1" else "cluster",
            "--spans", spans]
    if kind == "cluster":
        argv += CLUSTER_FLAGS
    for assignment in FIG1_SET if kind == "fig1" else CLUSTER_SET:
        argv += ["--set", assignment]
    return argv


# ------------------------------------------------------------- checks

def read_fig1(out_dir, tag):
    """Per-mix view of a fig1 run: summary, candidate labels, WS, pick."""
    manifest = json.loads((out_dir / f"{tag}.json").read_text())
    mixes = {}
    for line in (out_dir / f"{tag}.jsonl").read_text().splitlines():
        event = json.loads(line)
        mix = mixes.setdefault(event.get("experiment"),
                               {"labels": {}, "ws": {}, "pick": None})
        if event["event"] == "sample_candidate":
            mix["labels"][event["index"]] = event["schedule"]
        elif event["event"] == "symbios_result":
            mix["ws"][event["index"]] = event["ws"]
        elif event["event"] == "predictor_vote" and event["predictor"] == "Score":
            mix["pick"] = event["pick"]
    for label, group in manifest["stats"]["experiments"].items():
        mixes.setdefault(label, {"labels": {}, "ws": {}, "pick": None})
        mixes[label]["summary"] = group.get("summary", {})
    return mixes


def fig1_failures(mixes, labels):
    """Mixes (operations) whose output is missing or breaks an invariant."""
    failed = 0
    for label in labels:
        mix = mixes.get(label)
        ok = mix is not None and mix.get("summary") and mix["ws"] \
            and sorted(mix["ws"]) == sorted(mix["labels"]) \
            and mix["pick"] in mix["ws"]
        if ok:
            best, avg, worst = (mix["summary"].get(k) for k in
                                ("best_ws", "avg_ws", "worst_ws"))
            ok = all(isinstance(v, float) and math.isfinite(v)
                     for v in (best, avg, worst)) and best >= avg >= worst
        failed += not ok
    return failed


def pick_ws_pct(picks, reference):
    """Mean over mixes of 100 x WS of the Score pick / best WS (that is,
    100 - pick regret), both from the reference's full-detail WS."""
    return statistics.mean(
        100.0 * mix["ws"][picks[label]["pick"]] / max(mix["ws"].values())
        for label, mix in reference.items())


def cluster_failures(manifest, arrivals):
    stats = manifest["stats"]["cluster"]
    nodes = [v for k, v in stats.items() if k[4:].isdigit()
             and k.startswith("node")]
    ok = (stats["jobs"] == arrivals and stats["completed"] == arrivals
          and sum(n["dispatched"] for n in nodes) == arrivals
          and all(n["completed"] == n["dispatched"] for n in nodes)
          and stats["response_cycles"]["count"] == arrivals)
    return 0 if ok else arrivals


def thirds(responses):
    """The middle and the last third of one run's responses."""
    third = len(responses) // 3
    return responses[third:2 * third], responses[2 * third:]


# --------------------------------------------------------------- spans

def read_spans(path):
    """Spans with self time (duration minus the union of children)."""
    doc = json.loads(path.read_text())
    spans = doc["spans"]
    children = {}
    for i, span in enumerate(spans):
        span["id"] = i
        span["wall"] = span["end"] - span["start"]
        children.setdefault(span["parent"], []).append(span)
    for span in spans:
        covered, reach = 0.0, span["start"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda s: s["start"]):
            lo, hi = max(child["start"], reach), child["end"]
            if hi > lo:
                covered += hi - lo
                reach = hi
        span["self"] = span["wall"] - covered
    return doc


def totals(doc, name):
    """(calls, wall, cpu, counts) summed over every span called name."""
    calls, wall, cpu, counts = 0, 0.0, 0.0, {}
    for span in doc["spans"]:
        if span["name"] == name:
            calls += 1
            wall += span["wall"]
            cpu += span["cpu"]
            for key, value in span["counts"].items():
                counts[key] = counts.get(key, 0.0) + value
    return calls, wall, cpu, counts


def setup_seconds(doc):
    return sum(s["wall"] for s in doc["spans"]
               if s["name"] in ("sim.calibrate", "cluster.setup"))


# ----------------------------------------------------------- workloads

def bound_of(name):
    return next(m["bound"] for m in BENCH["end_to_end"] if m["name"] == name)


def measure_setup(kind, env, seeds, out_dir, clock):
    values = []
    for i in range(SETUP_REPS):
        spans = out_dir / f"setup{i}.spans.json"
        rc, *_ = launch(probe_argv("setup", kind, spans), env,
                        seeds[i % len(seeds)], out_dir / f"setup{i}.log", clock)
        if rc != 0:
            raise Failure(f"set-up probe failed, see {out_dir}/setup{i}.log")
        values.append(setup_seconds(read_spans(spans)))
    return values


def timed_reps(argv_of, env, seeds, seconds, out_dir, clock, check):
    """Repeat the harness over the sub-seeds for `seconds` (at least one
    repeat of the first sub-seed); returns per-rep records."""
    reps = []
    start = time.monotonic()
    while (len(reps) <= len(seeds) or time.monotonic() - start < seconds) \
            and clock.left() > 0:
        k = len(reps) % len(seeds)
        tag = f"rep{len(reps)}"
        rc, wall, cpu, rss = launch(argv_of(out_dir, tag), env, seeds[k],
                                    out_dir / f"{tag}.log", clock)
        rep = {"tag": tag, "sub": k, "rc": rc, "wall": wall, "cpu": cpu,
               "rss": rss}
        check(rep)
        if len(reps) >= len(seeds):
            first = reps[k]["tag"]
            same = all((out_dir / f"{tag}{ext}").read_bytes()
                       == (out_dir / f"{first}{ext}").read_bytes()
                       for ext in (".json", ".jsonl")) if rc == 0 else False
            if not same:
                log(f"{tag}: output differs from {first} (same seed)")
                rep["failed"] = rep["ops"]
        reps.append(rep)
    if len(reps) <= len(seeds):
        raise Failure("out of time before every seed ran and one repeated")
    return reps


def run_fig1(workload, seeds, seconds, out_dir, clock):
    env = WORKLOADS[workload]["env"]
    sampled = "SOS_SAMPLE" in env
    labels = None
    reference = {}
    if sampled:
        # The full-detail WS of the same candidates, per sub-seed:
        # set-up of the benchmark, not part of the measurement.
        full_env = WORKLOADS["fig1_full"]["env"]
        for k, sos_seed in enumerate(seeds):
            rc, *_ = launch(fig1_argv(out_dir, f"ref{k}"), full_env, sos_seed,
                            out_dir / f"ref{k}.log", clock)
            if rc != 0:
                raise Failure(f"reference run failed, see {out_dir}/ref{k}.log")
            reference[k] = read_fig1(out_dir, f"ref{k}")

    setup = measure_setup("fig1", env, seeds, out_dir, clock)
    views = {}

    def check(rep):
        nonlocal labels
        mixes = read_fig1(out_dir, rep["tag"]) if rep["rc"] == 0 else {}
        if labels is None:
            labels = sorted(mixes) if len(mixes) == FIG1_MIXES \
                else [None] * FIG1_MIXES
        rep["ops"] = len(labels)
        rep["failed"] = fig1_failures(mixes, labels) if rep["rc"] == 0 \
            else rep["ops"]
        if sampled and rep["rc"] == 0:
            ref = reference[rep["sub"]]
            rep["failed"] += sum(1 for label in labels
                                 if mixes.get(label, {}).get("labels")
                                 != ref.get(label, {}).get("labels"))
        views.setdefault(rep["sub"], mixes)

    reps = timed_reps(fig1_argv, env, seeds, seconds, out_dir, clock, check)
    if any(rep["failed"] for rep in reps):
        return reps, setup, {}
    quality = statistics.mean(
        pick_ws_pct(views[k], reference[k] if sampled else views[k])
        for k in range(len(seeds)))
    return reps, setup, {"pick_ws_pct": quality}


def run_cluster(seeds, seconds, out_dir, clock):
    env = WORKLOADS["cluster_mmpp"]["env"]
    probe_means = {}
    middle, last = [], []
    setup = []
    for k, sos_seed in enumerate(seeds):
        spans = out_dir / f"guard{k}.spans.json"
        rc, *_ = launch(probe_argv("run", "cluster", spans), env, sos_seed,
                        out_dir / f"guard{k}.log", clock)
        if rc != 0:
            raise Failure(f"probe run failed, see {out_dir}/guard{k}.log")
        doc = read_spans(spans)
        setup.append(setup_seconds(doc))
        probe_means[k] = statistics.mean(doc["responses"])
        seed_middle, seed_last = thirds(doc["responses"])
        middle += seed_middle
        last += seed_last
    # Load guard over both seeds' arrivals: a growing backlog shows as
    # the last third's mean response outgrowing the middle third's.
    growth = statistics.mean(last) / statistics.mean(middle) - 1.0
    log(f"load guard: last-third mean response {100 * growth:+.1f}% "
        f"against the middle third")
    setup += measure_setup("cluster", env, seeds, out_dir, clock)
    quantiles = {}

    def check(rep):
        rep["ops"] = ARRIVALS
        rep["failed"] = ARRIVALS
        if rep["rc"] != 0:
            return
        manifest = json.loads((out_dir / f"{rep['tag']}.json").read_text())
        rep["failed"] = cluster_failures(manifest, ARRIVALS)
        stats = manifest["stats"]["cluster"]
        if not math.isclose(stats["mean_response_cycles"],
                            probe_means[rep["sub"]], rel_tol=1e-12):
            log(f"{rep['tag']}: harness and probe disagree on the cluster run")
            rep["failed"] = ARRIVALS
        quantiles.setdefault(rep["sub"], stats["response_cycles"])

    reps = timed_reps(cluster_argv, env, seeds, seconds, out_dir, clock, check)
    if growth > bound_of("resp_p50_cycles"):
        log("load guard: the backlog grows at this interarrival")
        for rep in reps:
            rep["failed"] = rep["ops"]
    sim = {}
    if all(rep["failed"] == 0 for rep in reps):
        sim = {"resp_p50_cycles": statistics.mean(
                   q["p50"] for q in quantiles.values()),
               "resp_p99_cycles": statistics.mean(
                   q["p99"] for q in quantiles.values())}
    return reps, setup, sim


def end_to_end(workload, seeds, seconds, out_dir, clock):
    kind = WORKLOADS[workload]["kind"]
    if kind == "fig1":
        reps, setup, sim = run_fig1(workload, seeds, seconds, out_dir, clock)
    else:
        reps, setup, sim = run_cluster(seeds, seconds, out_dir, clock)
    attempted = sum(rep["ops"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    med = lambda key: statistics.median(rep[key] for rep in reps)
    values = {
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": med("rss"),
        "ops_per_s": statistics.median(rep["ops"] / rep["wall"] for rep in reps),
        # A workload that does not simulate a quality metric reports the
        # placeholder 1 (README.md "Metrics every workload prints").
        "pick_ws_pct": sim.get("pick_ws_pct", 1.0),
        "resp_p50_cycles": sim.get("resp_p50_cycles", 1.0),
        "resp_p99_cycles": sim.get("resp_p99_cycles", 1.0),
    }
    applies = set(sim) | {"wall_s", "cpu_s", "setup_s", "peak_rss_mb",
                          "ops_per_s"}
    detail = {"reps": reps, "setup_s": setup,
              "not_simulated": sorted(set(values) - applies)}
    return attempted, failed, values, detail


def traced(workload, seeds, out_dir, clock):
    """One harness run (untraced) and one probe trace run, same seed."""
    kind = WORKLOADS[workload]["kind"]
    env = WORKLOADS[workload]["env"]
    argv_of = fig1_argv if kind == "fig1" else cluster_argv
    rc, wall, _, _ = launch(argv_of(out_dir, "harness"), env, seeds[0],
                            out_dir / "harness.log", clock)
    spans = out_dir / "trace.spans.json"
    prc, *_ = launch(probe_argv("trace", kind, spans), env, seeds[0],
                     out_dir / "trace.log", clock)
    if prc != 0:
        raise Failure(f"probe trace run failed, see {out_dir}/trace.log")
    doc = read_spans(spans)
    ops = FIG1_MIXES if kind == "fig1" else ARRIVALS
    failed = ops
    if rc == 0 and kind == "fig1":
        mixes = read_fig1(out_dir, "harness")
        failed = fig1_failures(mixes, sorted(mixes)
                               if len(mixes) == FIG1_MIXES
                               else [None] * FIG1_MIXES)
        for mix in doc["mixes"]:
            summary = mixes.get(mix["label"], {}).get("summary", {})
            if any(summary.get(k) != mix[k]
                   for k in ("best_ws", "worst_ws", "avg_ws")):
                log(f"probe and harness disagree on {mix['label']}")
                failed = ops
    elif rc == 0:
        manifest = json.loads((out_dir / "harness.json").read_text())
        failed = cluster_failures(manifest, ops)
        if not math.isclose(manifest["stats"]["cluster"]["mean_response_cycles"],
                            statistics.mean(doc["responses"]), rel_tol=1e-12):
            log("probe and harness disagree on the cluster run")
            failed = ops

    def per(name, count_key, scale):
        """Median over the calls of span time per unit of work."""
        ratios = [scale * s["wall"] / s["counts"][count_key]
                  for s in doc["spans"] if s["name"] == name]
        return statistics.median(ratios) if ratios else 0.0

    def busy(name):
        _, span_wall, cpu, _ = totals(doc, name)
        return cpu / span_wall if span_wall > 0 else 0.0

    root_name = "sim.fig1" if kind == "fig1" else "cluster"
    _, root_wall, _, root_counts = totals(doc, root_name)
    _, cal_wall, _, _ = totals(doc, "sim.calibrate")
    sample = totals(doc, "sim.sample")
    symbios = totals(doc, "sim.symbios")
    sweep_wall, sweep_cpu = sample[1] + symbios[1], sample[2] + symbios[2]
    candidates = symbios[3].get("candidates", 0.0)
    detailed = root_counts.get("detailed_cycles", 0.0)
    fast = root_counts.get("fastforward_cycles", 0.0)
    setup = totals(doc, "cluster.setup")
    run = totals(doc, "cluster.run")
    run_counts = run[3]
    busy_cycles = run_counts.get("busy_cycles", 0.0)
    values = {
        "sim.calibrate_s": cal_wall,
        "sim.calibrate_busy": busy("sim.calibrate"),
        "sim.sample_s": sample[1],
        "sim.sample_busy": busy("sim.sample"),
        "sim.symbios_s": symbios[1],
        "sim.symbios_busy": busy("sim.symbios"),
        "sim.sweep_idle_frac": 1.0 - sweep_cpu / (sweep_wall * JOBS)
        if sweep_wall > 0 else 0.0,
        "sim.cpu_ms_per_candidate": 1e3 * sweep_cpu / candidates
        if candidates else 0.0,
        "metrics.solo_ref_s": per("metrics.solo_ref", "refs", 1.0),
        "metrics.solo_refs": root_counts.get("solo_refs", 0.0),
        "cpu.functional_ns_per_uop": per("cpu.functional", "uops", 1e9),
        "cpu.detailed_cycle_frac": detailed / (detailed + fast)
        if detailed + fast > 0 else 1.0,
        "trace.ns_per_uop": per("trace.next", "uops", 1e9),
        "mem.ns_per_access": per("mem.access", "accesses", 1e9),
        "cluster.setup_s": setup[1],
        "cluster.arrivals_ms": 1e3 * totals(doc, "cluster.arrivals")[1],
        "cluster.run_s": run[1],
        "cluster.run_busy": busy("cluster.run"),
        "cluster.epochs": run_counts.get("epochs", 0.0),
        "cluster.ms_per_epoch": 1e3 * run[1] / run_counts["epochs"]
        if run_counts.get("epochs") else 0.0,
        "cluster.dispatch_ns": per("cluster.dispatch", "picks", 1e9),
        "cluster.util_mean": run_counts.get("util_mean", 0.0),
        "cluster.util_min": run_counts.get("util_min", 0.0),
        "sos.sample_phases": run_counts.get("sample_phases", 0.0),
        "sos.sample_cycle_frac": run_counts.get("sample_cycles", 0.0)
        / busy_cycles if busy_cycles else 0.0,
        "bench.trace_overhead_pct": 100.0 * (root_wall - wall) / wall,
    }
    for level in (1, 2, 4, 6):
        values[f"cpu.detailed_ns_per_uop.smt{level}"] = per(
            f"cpu.detailed.smt{level}", "uops", 1e9)
    detail = {"untraced_wall_s": wall, "traced_wall_s": root_wall,
              "spans": doc["spans"]}
    return ops, failed, values, detail


# ---------------------------------------------------------------- main

def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        if BENCH is None:
            raise Failure("BENCHMARK.json not found at the repository root")
        build_info = build()
        clock = Clock()
        out_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        seeds = [args.seed * SUBSEEDS + k for k in range(SUBSEEDS)]
        if args.trace:
            attempted, failed, values, detail = traced(
                args.workload, seeds, out_dir, clock)
            declared = BENCH["per_layer"]
        else:
            attempted, failed, values, detail = end_to_end(
                args.workload, seeds, args.seconds, out_dir, clock)
            declared = BENCH["end_to_end"]
    except Failure as error:
        log(f"benchmark failed: {error}")
        return 1

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    report = {"provenance": provenance(build_info, args.workload, args.seed),
              "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted if attempted else 1.0,
              "metrics": metrics, "detail": detail}
    (out_dir / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload}, seed {args.seed} "
          f"(SOS_SEED {seeds[0]}..{seeds[-1]}), trace {args.trace}")
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    if args.trace:
        print(f"{'span':28} {'calls':>5} {'total_s':>9} {'self_s':>9} "
              f"{'busy':>5}")
        names = dict.fromkeys(s["name"] for s in detail["spans"])
        for name in names:
            group = [s for s in detail["spans"] if s["name"] == name]
            total = sum(s["wall"] for s in group)
            print(f"{name:28} {len(group):5d} {total:9.4f} "
                  f"{sum(s['self'] for s in group):9.4f} "
                  f"{sum(s['cpu'] for s in group) / total if total else 0:5.2f}")
        print(f"tracing overhead: traced {detail['traced_wall_s']:.3f} s vs "
              f"untraced {detail['untraced_wall_s']:.3f} s")
    skipped = set(detail.get("not_simulated", []))
    for name, metric in metrics.items():
        shown = "n/a (placeholder 1)" if name in skipped \
            else f"{metric['value']:.6g} {metric['unit']}"
        print(f"  {name:34} {shown}")
    print(f"  {'error_rate':34} {report['error_rate']:.6g} "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
