#!/bin/sh
# Regenerates test_output.txt and bench_output.txt (the reproduction
# record), exiting nonzero if ctest or any bench binary fails so CI
# can call this script directly.
#
# Every bench also writes its machine-readable run manifest to
# results/<bench>.json (via --out) and its host-timing report to
# results/bench/<bench>.json (via --bench; micro_simulator's carries
# the core-loop microbench, fig9_cluster's the cluster scaling curve).
# When python3 is available, ci/bench_report.py merge consolidates the
# manifests into results/manifest.json and the bench reports, with the
# sampled sweep's speedup and pick-regret, into results/BENCH.json --
# skipping (and reporting) any report a failed bench left missing or
# truncated, so partial runs still produce the consolidated files.
# Timing stays out of the manifests so those remain bit-comparable
# across hosts.
#
# SOS_JOBS controls the sweep worker threads of every bench (and is
# also used as the ctest parallelism); unset means one worker per
# hardware thread.
set -u
cd "$(dirname "$0")"

status=0
jobs="${SOS_JOBS:-$(nproc 2>/dev/null || echo 2)}"

ctest --test-dir build --output-on-failure -j "$jobs" \
    >test_output.txt 2>&1 || status=$?
cat test_output.txt

mkdir -p results results/bench
: >bench_output.txt
for b in build/bench/*; do
    if [ -f "$b" ] && [ -x "$b" ]; then
        name="$(basename "$b")"
        echo "===== $b =====" >>bench_output.txt
        set -- --out "results/$name.json" --bench "results/bench/$name.json"
        # fig1's decision trace is the training set for the learned
        # WS model (see the sostrain block below).
        if [ "$name" = "fig1_ws_range" ]; then
            set -- "$@" --trace "results/$name.trace.jsonl"
        fi
        if ! "$b" "$@" >>bench_output.txt 2>&1
        then
            echo "FAILED: $b" >>bench_output.txt
            status=1
        fi
    fi
done
cat bench_output.txt

# Sampled-mode fig1 sweep: the same golden sweep once more with the
# SMARTS sampler on, so every full run also records the sampled-mode
# wall-clock and fidelity next to the full-detail reference. Windows
# scale with SOS_CYCLE_SCALE (quarter-timeslice periods, 10% detailed,
# warm:measure 1:3 -- the tuning the CI smoke gates); an explicit
# SOS_SAMPLE wins.
if [ -x build/bench/fig1_ws_range ]; then
    scale="${SOS_CYCLE_SCALE:-100}"
    period=$((5000000 / scale / 4))
    det=$((period / 10))
    w=$((det / 4))
    sample="${SOS_SAMPLE:-$((period - det)):$w:$((det - w))}"
    mkdir -p results/sampled
    echo "===== fig1_ws_range (sampled $sample) =====" >>bench_output.txt
    if ! SOS_SAMPLE="$sample" build/bench/fig1_ws_range \
            --out results/sampled/fig1_ws_range.json \
            --bench results/sampled/bench.json \
            >>bench_output.txt 2>&1
    then
        echo "FAILED: fig1_ws_range (sampled)" >>bench_output.txt
        status=1
    fi
fi

# Learned-model leg: fit a WS model from the fig1 decision trace
# (sostrain writes results/model.txt plus the sos.train-report JSON),
# then rerun fig2 with the model so the reproduction record carries
# the learned predictor's bar next to the paper's ten.
if [ -x build/src/tools/sostrain ] \
    && [ -f results/fig1_ws_range.trace.jsonl ]; then
    mkdir -p results/learned
    echo "===== sostrain (fig1 trace) =====" >>bench_output.txt
    if ! build/src/tools/sostrain results/fig1_ws_range.trace.jsonl \
            --model-out results/model.txt \
            --report-out results/learned/train_report.json \
            >>bench_output.txt 2>&1
    then
        echo "FAILED: sostrain" >>bench_output.txt
        status=1
    elif [ -x build/bench/fig2_predictor_ws ]; then
        echo "===== fig2_predictor_ws (learned) =====" >>bench_output.txt
        if ! build/bench/fig2_predictor_ws \
                --model results/model.txt \
                --out results/learned/fig2_predictor_ws.json \
                >>bench_output.txt 2>&1
        then
            echo "FAILED: fig2_predictor_ws (learned)" >>bench_output.txt
            status=1
        fi
    fi
fi

# Consolidate the per-bench manifests and bench reports (validating
# every one) when python3 is around; the simulator itself never
# depends on python.
if command -v python3 >/dev/null 2>&1; then
    python3 ci/bench_report.py merge results || status=1
else
    echo "python3 not found; skipping results/manifest.json" >&2
fi

if [ "$status" -ne 0 ]; then
    echo "run_all.sh: FAILURES DETECTED" >&2
fi
exit "$status"
