/**
 * @file
 * Conservation laws over the unified sweep runner.
 *
 * Every closed-system candidate -- batch, hierarchical and machine --
 * runs through ParallelScheduleRunner::runAll. This test re-runs each
 * experiment's candidates through the runner with the experiment's own
 * recipe (sweep()), pins the re-run to what the experiment measured
 * (counters, sample WS, symbios WS), and checks on every run that
 *
 *  - the per-core counters sum to the machine total;
 *  - per-job credit and per-slot retirement both sum to the total
 *    retired count;
 *  - the run lasts exactly timeslices x quantum machine cycles (and
 *    every core is charged that interval);
 *  - the kernel's sample-phase cycles are the sum over the sample
 *    runs.
 *
 * Each law is checked at full detail and under sampled simulation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "sim/batch_experiment.hh"
#include "sim/hierarchical_experiment.hh"
#include "sim/params_io.hh"

namespace sos {
namespace {

using Run = ParallelScheduleRunner::ScheduleRun;
using TimeslicesFn = std::function<std::uint64_t(std::size_t)>;

/** Fast test config, optionally with sampled simulation on. */
SimConfig
configFor(const std::string &sample)
{
    SimConfig config = makeFastConfig();
    config.sample = parseSampleWindows(sample);
    return config;
}

/** The per-run laws. */
void
expectConserved(const Run &run, std::uint64_t timeslices,
                std::uint64_t quantum, int cores)
{
    const MachineEngine::MachineRunResult &r = run.run;
    ASSERT_EQ(r.perCore.size(), static_cast<std::size_t>(cores));

    PerfCounters per_core_sum;
    for (const PerfCounters &core : r.perCore) {
        per_core_sum += core;
        EXPECT_EQ(core.cycles, timeslices * quantum);
    }
    EXPECT_EQ(per_core_sum, r.total);

    const std::uint64_t job_sum = std::accumulate(
        r.jobRetired.begin(), r.jobRetired.end(), std::uint64_t{0});
    const std::uint64_t slot_sum =
        std::accumulate(r.total.slotRetired.begin(),
                        r.total.slotRetired.end(), std::uint64_t{0});
    EXPECT_EQ(job_sum, r.total.retired);
    EXPECT_EQ(slot_sum, r.total.retired);
    EXPECT_GT(r.total.retired, 0u);

    EXPECT_EQ(r.cycles, timeslices * quantum);
    EXPECT_EQ(r.sliceIpc.size(), timeslices);
}

/** Re-run @p schedules with @p sweep and check every run. */
std::vector<Run>
checkedRuns(const ParallelScheduleRunner::SweepSpec &sweep,
            const std::vector<MachineSchedule> &schedules,
            const TimeslicesFn &timeslices, int cores)
{
    std::vector<Run> runs;
    for (std::vector<Run> &run : ParallelScheduleRunner().runAll(
             sweep, schedules, [&](std::size_t i) {
                 return std::vector{timeslices(i)};
             }))
        runs.push_back(std::move(run.front()));
    EXPECT_EQ(runs.size(), schedules.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE("candidate " + std::to_string(i));
        expectConserved(runs[i], timeslices(i), sweep.timesliceCycles,
                        cores);
    }
    return runs;
}

/** The re-run sample phase is the one the kernel recorded. */
void
expectSamplePhase(const std::vector<Run> &runs,
                  const std::vector<ScheduleProfile> &profiles,
                  std::uint64_t sample_phase_cycles)
{
    ASSERT_EQ(runs.size(), profiles.size());
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        EXPECT_EQ(runs[i].run.total, profiles[i].counters);
        EXPECT_EQ(runs[i].ws, profiles[i].sampleWs);
        cycles += runs[i].run.cycles;
    }
    EXPECT_EQ(sample_phase_cycles, cycles);
}

/** The re-run symbios phase is the one the kernel recorded. */
void
expectSymbiosPhase(const std::vector<Run> &runs,
                   const std::vector<double> &symbios_ws)
{
    ASSERT_EQ(runs.size(), symbios_ws.size());
    for (std::size_t i = 0; i < runs.size(); ++i)
        EXPECT_EQ(runs[i].ws, symbios_ws[i]);
}

class Conservation : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Conservation, BatchCandidateRuns)
{
    const SimConfig config = configFor(GetParam());
    BatchExperiment exp(experimentByLabel("Jsb(4,2,2)"), config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    const std::vector<MachineSchedule> &schedules = exp.schedules();
    const ParallelScheduleRunner::SweepSpec sweep = exp.sweep(schedules);
    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config.samplePeriods));
    expectSamplePhase(
        checkedRuns(sweep, schedules,
                    [&](std::size_t i) {
                        return schedules[i].periodTimeslices() * periods;
                    },
                    1),
        exp.profiles(), exp.samplePhaseCycles());

    const std::uint64_t symbios = std::max<std::uint64_t>(
        1, config.symbiosCycles() / sweep.timesliceCycles);
    expectSymbiosPhase(
        checkedRuns(sweep, schedules,
                    [symbios](std::size_t) { return symbios; }, 1),
        exp.symbiosWs());
}

TEST_P(Conservation, HierarchicalCandidateRuns)
{
    const SimConfig config = configFor(GetParam());
    HierarchicalExperiment exp(hierarchicalExperiments()[0], config, 8);
    exp.run();

    std::vector<MachineSchedule> schedules;
    std::vector<ScheduleProfile> profiles;
    std::vector<double> symbios_ws;
    for (const HierarchicalCandidate &candidate : exp.candidates()) {
        schedules.emplace_back(candidate.schedule);
        profiles.push_back(candidate.profile);
        symbios_ws.push_back(candidate.symbiosWs);
    }
    const ParallelScheduleRunner::SweepSpec sweep = exp.sweep();
    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config.samplePeriods));
    expectSamplePhase(
        checkedRuns(sweep, schedules,
                    [&](std::size_t i) {
                        return schedules[i].periodTimeslices() * periods;
                    },
                    1),
        profiles, exp.samplePhaseCycles());

    const std::uint64_t symbios =
        config.symbiosCycles() / 4 / sweep.timesliceCycles;
    expectSymbiosPhase(checkedRuns(sweep, schedules,
                                   [&](std::size_t i) {
                                       return std::max<std::uint64_t>(
                                           schedules[i]
                                               .periodTimeslices(),
                                           symbios);
                                   },
                                   1),
                       symbios_ws);
}

TEST_P(Conservation, MachineCandidateRuns)
{
    const SimConfig config = configFor(GetParam());
    const ExperimentSpec &spec = machineExperiments()[0];
    ASSERT_EQ(spec.label, "Jm(8,2,2,2)");
    BatchExperiment exp(spec, config);
    exp.runSamplePhase();
    exp.runSymbiosValidation();

    const std::vector<MachineSchedule> &schedules = exp.schedules();
    const ParallelScheduleRunner::SweepSpec sweep = exp.sweep(schedules);
    const auto periods =
        static_cast<std::uint64_t>(std::max(1, config.samplePeriods));
    const std::uint64_t sample = exp.space().periodTimeslices() * periods;
    expectSamplePhase(
        checkedRuns(sweep, schedules,
                    [sample](std::size_t) { return sample; },
                    spec.numCores),
        exp.profiles(), exp.samplePhaseCycles());

    const std::uint64_t symbios = std::max<std::uint64_t>(
        1, config.symbiosCycles() / sweep.timesliceCycles);
    expectSymbiosPhase(
        checkedRuns(sweep, schedules,
                    [symbios](std::size_t) { return symbios; },
                    spec.numCores),
        exp.symbiosWs());
}

INSTANTIATE_TEST_SUITE_P(
    Fidelity, Conservation, ::testing::Values("off", "2250:62:188"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return std::string(info.param == "off" ? "FullDetail"
                                               : "Sampled");
    });

} // namespace
} // namespace sos
