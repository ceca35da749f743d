/**
 * @file
 * Experiment-level simulation configuration and cycle scaling.
 *
 * The paper's experiments use 5 M-cycle timeslices (a 10 ms quantum at
 * 500 MHz) and 2 G-cycle symbios phases. A software simulator cannot
 * afford that in a regression harness, so every paper duration is
 * divided by cycleScale (default 100). Relative quantities -- the
 * ratio of timeslice to cache warmup, of symbios to sample phase, of
 * job length to quantum -- are preserved, which is what the
 * sample/symbios machinery depends on. Reports print both scaled and
 * paper-equivalent cycle counts.
 *
 * Each field users set also has a row in the knob table
 * (sim/params_io.cc) declaring its key, range, environment alias and
 * manifest policy.
 */

#ifndef SOS_SIM_SIM_CONFIG_HH
#define SOS_SIM_SIM_CONFIG_HH

#include <cstdint>

#include <string>
#include <vector>

#include "common/logging.hh"
#include "cpu/machine.hh"
#include "cpu/sample_windows.hh"
#include "mem/cache_hierarchy.hh"

namespace sos {

/** Shared configuration of one experiment run. */
struct SimConfig
{
    /** Paper cycles per simulated cycle. */
    std::uint64_t cycleScale = 100;

    /**
     * Symbios-phase length in simulated cycles. Decoupled from
     * cycleScale so the timeslice keeps a paper-like ratio to cache
     * warmup while the (statistically long) symbios phase stays
     * affordable; the paper's ~10:1 symbios-to-sample ratio is
     * preserved at the defaults.
     */
    std::uint64_t symbiosSimCycles = 3000000;

    /**
     * Master seed for schedule sampling and workload streams. The
     * default is chosen so the ten-schedule samples of the parallel
     * mixes Jpb/J2pb include at least one candidate that coschedules
     * the ARRAY threads (a property the paper's runs evidently had;
     * Section 6 needs both options on the table). Override with
     * SOS_SEED in the bench harnesses.
     */
    std::uint64_t seed = 0xa11ce7ULL;

    /** Schedules profiled per sample phase (the paper uses 10). */
    int sampleSchedules = 10;

    /**
     * Worker threads for parallel schedule sweeps. 0 means auto: the
     * SOS_JOBS environment variable when set, else the hardware
     * concurrency. Results are bit-identical for every value.
     */
    int jobs = 0;

    /**
     * Schedule periods run while profiling one candidate. The paper
     * uses exactly one period of 5 M-cycle timeslices; our scaled
     * timeslices make one period too noisy a counter sample, so each
     * candidate runs several periods (progress still counts -- the
     * sample phase remains overhead-free).
     */
    int samplePeriods = 3;

    /** @name Paper-time constants @{ */
    static constexpr std::uint64_t paperTimeslice = 5000000;
    static constexpr std::uint64_t paperSymbios = 2000000000;
    static constexpr std::uint64_t paperJobLength = 2000000000;
    /**
     * The 'little' timeslice of the Jsl experiments (the paper states
     * only that it is smaller; 1/4 reproduces Table 2's 100 M-cycle
     * sample phase for Jsl(8,4,1)).
     */
    static constexpr std::uint64_t paperLittleTimeslice =
        paperTimeslice / 4;
    /** @} */

    /** Core microarchitecture; numContexts is set per experiment. */
    CoreParams core;

    /** Memory hierarchy configuration. */
    MemParams mem;

    /**
     * @name Machine topology (--machine-config / SOS_MACHINE_CONFIG)
     *
     * A parsed machine config can force the core count and give every
     * core its own parameters.  All four fields stay empty when no
     * config file is loaded; they have no knob row, and a
     * heterogeneous run documents itself through the machine.topology
     * manifest group instead.
     * @{
     */
    /** Core count forced by the config file (0 = per-experiment). */
    int machineCores = 0;

    /**
     * Per-core microarchitecture overrides; empty = homogeneous
     * machines built from `core`.  numContexts is still forced to the
     * experiment's MT level (see machineFor).
     */
    std::vector<CoreParams> heteroCores;

    /** Per-core private-memory overrides; empty = uniform `mem`. */
    std::vector<MemParams> heteroCoreMem;

    /** Per-core class name from the config file, for reporting. */
    std::vector<std::string> heteroCoreNames;

    /** Path of the loaded machine config ("" = none). */
    std::string machineConfigPath;
    /** @} */

    /** @name Calibration intervals (simulated cycles) @{ */
    std::uint64_t calibWarmupCycles = 300000;
    std::uint64_t calibMeasureCycles = 500000;
    /** @} */

    /**
     * Keep every Nth sample-phase decision group in the JSONL trace.
     * 1 records every decision; cluster runs at 10^5-10^6 jobs raise
     * it to keep the trace bounded. Pure observability.
     */
    std::uint64_t traceSample = 1;

    /**
     * Sampled-simulation windows. Disabled by default: the full-detail
     * path is bit-identical to a build without this knob and stays
     * pinned by the §8/§9 goldens. Solo-IPC calibration always runs
     * full detail.
     */
    SampleWindows sample;

    /**
     * Online sample shrinking (--set samplek=K): score every sampled
     * candidate with the trained model named by `model`, then
     * detail-simulate only the top-K predictions plus any candidate
     * whose prediction uncertainty exceeds the model's stored
     * threshold. 0 (the default) disables screening and the sample
     * phase is bit-identical to pre-model builds.
     */
    int samplek = 0;

    /**
     * Path of a trained WS model file written by sostrain (--model;
     * the knob `model`). Consumed by the "learned" predictor, the
     * "learned" cluster dispatcher, and the samplek screen. Empty = no
     * model.
     */
    std::string modelPath;

    /** Scale a paper-time duration into simulated cycles. */
    std::uint64_t
    scaled(std::uint64_t paper_cycles) const
    {
        SOS_ASSERT(cycleScale > 0);
        const std::uint64_t cycles = paper_cycles / cycleScale;
        SOS_ASSERT(cycles > 0, "scaled duration vanished");
        return cycles;
    }

    std::uint64_t timesliceCycles() const { return scaled(paperTimeslice); }

    std::uint64_t
    littleTimesliceCycles() const
    {
        return scaled(paperLittleTimeslice);
    }

    std::uint64_t symbiosCycles() const { return symbiosSimCycles; }

    /** Core parameters with the context count set. */
    CoreParams
    coreFor(int level) const
    {
        CoreParams params = core;
        params.numContexts = level;
        return params;
    }

    /**
     * Machine parameters for a @p num_cores machine at MT level
     * @p level: the homogeneous `core`/`mem` pair unless a machine
     * config supplied per-core overrides, in which case the config
     * must agree on the core count (fatal otherwise -- the caller
     * picked an experiment the configured machine cannot host).
     * Every core's numContexts is forced to @p level either way.
     */
    MachineParams
    machineFor(int level, int num_cores) const
    {
        MachineParams params = homogeneousMachine(coreFor(level), mem,
                                                  num_cores);
        if (!heteroCores.empty()) {
            if (static_cast<int>(heteroCores.size()) != num_cores) {
                fatal("machine config '", machineConfigPath,
                      "' describes ", heteroCores.size(),
                      " cores but the experiment needs ", num_cores);
            }
            params.cores = heteroCores;
            for (CoreParams &core_params : params.cores)
                core_params.numContexts = level;
            params.coreMem = heteroCoreMem;
        }
        return params;
    }

    /**
     * The reference (core 0) configuration at @p level: what
     * single-core probes -- solo-IPC calibration, the open system's
     * capacity measurement -- run on. Identical to coreFor()/mem on
     * homogeneous machines.
     */
    CoreParams
    referenceCoreFor(int level) const
    {
        CoreParams params =
            heteroCores.empty() ? core : heteroCores.front();
        params.numContexts = level;
        return params;
    }

    /** Core 0's memory hierarchy (== `mem` when homogeneous). */
    const MemParams &
    referenceMem() const
    {
        return heteroCoreMem.empty() ? mem : heteroCoreMem.front();
    }
};

/** Default configuration used by the benchmark harnesses. */
inline SimConfig
makeBenchConfig()
{
    return SimConfig{};
}

/** A much faster configuration for unit and integration tests. */
inline SimConfig
makeFastConfig()
{
    SimConfig config;
    config.cycleScale = 500;
    config.symbiosSimCycles = 400000;
    config.calibWarmupCycles = 200000;
    config.calibMeasureCycles = 300000;
    return config;
}

} // namespace sos

#endif // SOS_SIM_SIM_CONFIG_HH
