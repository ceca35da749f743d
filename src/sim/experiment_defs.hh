/**
 * @file
 * The paper's experiment definitions (Table 1).
 *
 * An experiment is labelled Jmn(X,Y,Z): X runnable jobs, SMT level Y,
 * Z jobs swapped per timeslice; m in {s,p} for single-threaded vs
 * parallel-including mixes, n in {b,l} for the big (5 M-cycle) vs
 * little timeslice. The CMP extension Jm(X,C,Y,Z) runs X
 * single-threaded jobs on C SMT cores sharing the L2; the paper's
 * experiments are its C=1 case.
 */

#ifndef SOS_SIM_EXPERIMENT_DEFS_HH
#define SOS_SIM_EXPERIMENT_DEFS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sched/jobmix.hh"

namespace sos {

/** Declarative description of one throughput experiment. */
struct ExperimentSpec
{
    /** One workload entry of Table 1; threads > 1 = parallel job. */
    struct Entry
    {
        std::string workload;
        int threads = 1;
    };

    std::string label;          ///< e.g. "Jsb(6,3,3)"
    std::vector<Entry> entries; ///< Table 1 row
    int level = 2;              ///< Y: multithreading level
    int swap = 2;               ///< Z: jobs replaced per timeslice
    bool little = false;        ///< 'l': small timeslice
    int numCores = 1;           ///< C: SMT cores sharing the L2

    /** X: number of schedulable units. */
    int numUnits() const;

    /** Materialize the jobmix (fresh jobs with deterministic seeds). */
    JobMix makeMix(std::uint64_t seed) const;
};

/**
 * All 13 throughput experiments of Figures 1 and 3 / Table 2, in the
 * paper's Table 2 order.
 */
const std::vector<ExperimentSpec> &paperExperiments();

/** Look up an experiment by its label; fatal() if unknown. */
const ExperimentSpec &experimentByLabel(const std::string &label);

/**
 * The multicore-figure sweep Jm(8,C,2,2): the Jsb(8,4,4) jobs on two
 * and on four two-way cores.
 */
const std::vector<ExperimentSpec> &machineExperiments();

/**
 * The Section 7 hierarchical-symbiosis mixes, one per SMT level
 * (2, 3, 4, 6); entries named mt_* are adaptive.
 */
struct HierarchicalSpec
{
    std::string label;
    int level = 2;
    std::vector<std::string> workloads; ///< "mt_" prefix => adaptive

    JobMix makeMix(std::uint64_t seed) const;
};

const std::vector<HierarchicalSpec> &hierarchicalExperiments();

/**
 * Workload names jobs are drawn from in the open-system experiments
 * of Section 9 (the sequential Table 1 applications).
 */
const std::vector<std::string> &openSystemWorkloads();

/**
 * Stable per-label seed derivation (64-bit FNV-1a): closed
 * experiments seed their mix and candidate draw from it.
 */
std::uint64_t hashLabel(const std::string &label);

/** Paper Table 2 expectations for a spec (used by tests and benches). */
std::uint64_t expectedDistinctSchedules(const ExperimentSpec &spec);

/**
 * Paper-equivalent sample-phase cycles: min(10, distinct) schedules,
 * each run for one full period of timeslices (Table 2 column 3).
 */
std::uint64_t paperSamplePhaseCycles(const ExperimentSpec &spec);

} // namespace sos

#endif // SOS_SIM_EXPERIMENT_DEFS_HH
