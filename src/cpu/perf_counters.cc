#include "perf_counters.hh"

#include <cmath>

#include "common/stats_util.hh"
#include "stats/stats.hh"

namespace sos {

PerfCounters &
PerfCounters::operator+=(const PerfCounters &other)
{
    cycles += other.cycles;
    fetched += other.fetched;
    dispatched += other.dispatched;
    issued += other.issued;
    retired += other.retired;
    intOps += other.intOps;
    fpOps += other.fpOps;
    loads += other.loads;
    stores += other.stores;
    branches += other.branches;
    barriers += other.barriers;
    branchMispredicts += other.branchMispredicts;
    spinOps += other.spinOps;
    confIntQueue += other.confIntQueue;
    confFpQueue += other.confFpQueue;
    confIntRegs += other.confIntRegs;
    confFpRegs += other.confFpRegs;
    confRob += other.confRob;
    confIntUnits += other.confIntUnits;
    confFpUnits += other.confFpUnits;
    confLsPorts += other.confLsPorts;
    l1iHits += other.l1iHits;
    l1iMisses += other.l1iMisses;
    l1dHits += other.l1dHits;
    l1dMisses += other.l1dMisses;
    l2Hits += other.l2Hits;
    l2Misses += other.l2Misses;
    itlbMisses += other.itlbMisses;
    dtlbMisses += other.dtlbMisses;
    for (std::size_t s = 0; s < slotRetired.size(); ++s)
        slotRetired[s] += other.slotRetired[s];
    return *this;
}

double
PerfCounters::ipc() const
{
    return safeDiv(static_cast<double>(retired),
                   static_cast<double>(cycles));
}

double
PerfCounters::l1dHitRate() const
{
    return safeDiv(static_cast<double>(l1dHits),
                   static_cast<double>(l1dHits + l1dMisses));
}

double
PerfCounters::conflictPct(std::uint64_t conflict_cycles) const
{
    return 100.0 * safeDiv(static_cast<double>(conflict_cycles),
                           static_cast<double>(cycles));
}

double
PerfCounters::allConflictPct() const
{
    return conflictPct(confIntQueue) + conflictPct(confFpQueue) +
           conflictPct(confIntRegs) + conflictPct(confFpRegs) +
           conflictPct(confRob) + conflictPct(confIntUnits) +
           conflictPct(confFpUnits) + conflictPct(confLsPorts);
}

double
PerfCounters::mixImbalance() const
{
    const double arith = static_cast<double>(intOps + fpOps);
    if (arith == 0.0)
        return 0.0;
    const double fp_share = static_cast<double>(fpOps) / arith;
    const double int_share = static_cast<double>(intOps) / arith;
    return std::abs(fp_share - int_share);
}

void
PerfCounters::registerStats(const stats::Group &group) const
{
    group.scalar("cycles", "simulated cycles in the interval") = cycles;

    const stats::Group pipeline = group.group("pipeline");
    pipeline.scalar("fetched", "instructions fetched") = fetched;
    pipeline.scalar("dispatched", "instructions dispatched") = dispatched;
    pipeline.scalar("issued", "instructions issued") = issued;
    pipeline.scalar("retired", "instructions retired") = retired;

    const stats::Group mix = group.group("mix");
    mix.scalar("int_ops", "integer ops at dispatch") = intOps;
    mix.scalar("fp_ops", "FP ops at dispatch") = fpOps;
    mix.scalar("loads", "loads at dispatch") = loads;
    mix.scalar("stores", "stores at dispatch") = stores;
    mix.scalar("branches", "branches at dispatch") = branches;
    mix.scalar("barriers", "barriers at dispatch") = barriers;
    mix.scalar("branch_mispredicts", "mispredicted branches") =
        branchMispredicts;
    mix.scalar("spin_ops", "busy-wait ops dispatched") = spinOps;

    const stats::Group conflicts = group.group("conflicts");
    conflicts.scalar("int_queue", "INT issue-queue conflict cycles") =
        confIntQueue;
    conflicts.scalar("fp_queue", "FP issue-queue conflict cycles") =
        confFpQueue;
    conflicts.scalar("int_regs", "INT rename-register conflict cycles") =
        confIntRegs;
    conflicts.scalar("fp_regs", "FP rename-register conflict cycles") =
        confFpRegs;
    conflicts.scalar("rob", "reorder-buffer conflict cycles") = confRob;
    conflicts.scalar("int_units", "integer-unit conflict cycles") =
        confIntUnits;
    conflicts.scalar("fp_units", "FP-unit conflict cycles") = confFpUnits;
    conflicts.scalar("ls_ports", "load/store-port conflict cycles") =
        confLsPorts;

    // Cache and TLB counters, one subgroup per level.
    const stats::Group mem = group.group("mem");
    const stats::Group l1i = mem.group("l1i");
    l1i.scalar("hits", "L1I demand hits") = l1iHits;
    l1i.scalar("misses", "L1I demand misses") = l1iMisses;
    const stats::Group l1d = mem.group("l1d");
    l1d.scalar("hits", "L1D demand hits") = l1dHits;
    l1d.scalar("misses", "L1D demand misses") = l1dMisses;
    const stats::Group l2 = mem.group("l2");
    l2.scalar("hits", "L2 demand hits") = l2Hits;
    l2.scalar("misses", "L2 demand misses") = l2Misses;
    mem.group("itlb").scalar("misses", "ITLB misses") = itlbMisses;
    mem.group("dtlb").scalar("misses", "DTLB misses") = dtlbMisses;

    const stats::Group derived = group.group("derived");
    derived.value("ipc", "retired instructions per cycle") = ipc();
    derived.value("l1d_hit_rate", "L1D demand hit rate") = l1dHitRate();
    derived.value("all_conflict_pct",
                  "sum of the eight conflict percentages") =
        allConflictPct();
    derived.value("mix_imbalance", "|fp - int| dispatch share") =
        mixImbalance();

    stats::Vector &slots = group.vector(
        "slot_retired", "retired instructions per context slot");
    for (const std::uint64_t slot : slotRetired)
        slots.push(static_cast<double>(slot));
}

} // namespace sos
