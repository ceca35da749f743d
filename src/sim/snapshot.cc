#include "snapshot.hh"

#include "common/logging.hh"

namespace sos {

MachineSnapshot::MachineSnapshot(const Machine &machine,
                                 const JobMix &mix,
                                 const MachineEngine &engine)
    : machine_(machine), mix_(mix)
{
    SOS_ASSERT(engine.numCores() == machine.numCores(),
               "engine and machine disagree on core count");
    for (int k = 0; k < engine.numCores(); ++k)
        capture(mix, engine.coreEngine(k), k);
}

void
MachineSnapshot::capture(const JobMix &mix,
                         const TimesliceEngine &engine, int core)
{
    for (const auto &[slot, unit] : engine.residentUnits()) {
        // Job ids are 1-based insertion order within the mix, so a
        // unit translates across mix copies by (job index, thread).
        const int job_index = static_cast<int>(unit.job->id()) - 1;
        SOS_ASSERT(&mix.job(job_index) == unit.job,
                   "resident unit's job is not owned by the mix");
        resident_.push_back(
            ResidentUnit{core, slot, job_index, unit.thread});
    }
}

MachineSnapshot::Fork::Fork(const MachineSnapshot &snapshot)
    : snapshot_(&snapshot), machine_(snapshot.machine_),
      mix_(snapshot.mix_)
{
}

void
MachineSnapshot::Fork::adopt(MachineEngine &engine)
{
    for (int k = 0; k < engine.numCores(); ++k) {
        std::vector<std::pair<int, ThreadRef>> resident;
        for (const ResidentUnit &unit : snapshot_->resident_) {
            if (unit.core != k)
                continue;
            Job &job = mix_.job(unit.jobIndex);
            resident.emplace_back(unit.slot,
                                  ThreadRef{&job, unit.thread});
        }
        engine.coreEngine(k).adoptResident(resident);
    }
}

} // namespace sos
