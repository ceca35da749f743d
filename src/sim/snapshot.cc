#include "snapshot.hh"

#include "common/logging.hh"

namespace sos {

namespace {

/**
 * @p residents with every unit's job replaced by its counterpart in
 * @p mix. Job ids are 1-based insertion order within a mix, so a unit
 * translates across mix copies by (job index, thread).
 */
std::vector<MachineEngine::Resident>
translate(std::vector<MachineEngine::Resident> residents, JobMix &mix)
{
    for (MachineEngine::Resident &resident : residents)
        resident.unit.job =
            &mix.job(static_cast<int>(resident.unit.job->id()) - 1);
    return residents;
}

} // namespace

MachineSnapshot::MachineSnapshot(const Machine &machine,
                                 const JobMix &mix,
                                 const MachineEngine &engine)
    : machine_(machine), mix_(mix)
{
    SOS_ASSERT(engine.numCores() == machine.numCores(),
               "engine and machine disagree on core count");
    std::vector<MachineEngine::Resident> residents = engine.residents();
    for (const MachineEngine::Resident &resident : residents) {
        SOS_ASSERT(&mix.job(static_cast<int>(resident.unit.job->id()) -
                            1) == resident.unit.job,
                   "resident unit's job is not owned by the mix");
    }
    resident_ = translate(std::move(residents), mix_);
}

MachineSnapshot::Fork::Fork(const MachineSnapshot &snapshot)
    : snapshot_(&snapshot), machine_(snapshot.machine_),
      mix_(snapshot.mix_)
{
}

void
MachineSnapshot::Fork::adopt(MachineEngine &engine)
{
    engine.adopt(translate(snapshot_->resident_, mix_));
}

} // namespace sos
