#include "smt_core.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"
#include "cpu/sync_domain.hh"

namespace sos {

SmtCore::SmtCore(const CoreParams &params, CacheHierarchy &mem)
    : params_(params), mem_(mem), bpred_(params.predictorBits)
{
    validateCoreParams(params);
    const auto n = static_cast<std::size_t>(params.numContexts);
    cold_.resize(n);
    fetchStride_ = static_cast<std::uint32_t>(params.fetchQueueSize);
    robStride_ = static_cast<std::uint32_t>(params.robSize);
    fetchSlab_.resize(n * fetchStride_);
    robSlab_.resize(n * robStride_);

    const std::size_t slab_size = static_cast<std::size_t>(
        params.robSize + params.numContexts * params.fetchQueueSize + 8);
    slab_.resize(slab_size);
    freeList_.reserve(slab_size);
    for (std::size_t i = 0; i < slab_size; ++i)
        freeList_.push_back(static_cast<std::uint32_t>(slab_size - 1 - i));

    intQ_.reserve(static_cast<std::size_t>(params.intQueueSize));
    fpQ_.reserve(static_cast<std::size_t>(params.fpQueueSize));
    intPend_.reserve(static_cast<std::size_t>(params.intQueueSize));
    fpPend_.reserve(static_cast<std::size_t>(params.fpQueueSize));

    intRenameFree_ = params.intRenameRegs;
    fpRenameFree_ = params.fpRenameRegs;
    robFree_ = params.robSize;

    l1iLineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(mem.params().l1i.lineBytes));
    roundRobinFetch_ = params.roundRobinFetch;
}

SmtCore::SmtCore(const SmtCore &other, CacheHierarchy &mem)
    : params_(other.params_), mem_(mem), bpred_(other.bpred_),
      active_(other.active_), atBarrier_(other.atBarrier_),
      asid_(other.asid_), icount_(other.icount_),
      fetchStall_(other.fetchStall_),
      lastFetchCycle_(other.lastFetchCycle_), retired_(other.retired_),
      fqHead_(other.fqHead_), fqCount_(other.fqCount_),
      robHead_(other.robHead_), robCount_(other.robCount_),
      cold_(other.cold_), fetchSlab_(other.fetchSlab_),
      robSlab_(other.robSlab_), fetchStride_(other.fetchStride_),
      robStride_(other.robStride_), activeList_(other.activeList_),
      numActive_(other.numActive_), slab_(other.slab_),
      freeList_(other.freeList_), ageCounter_(other.ageCounter_),
      intQ_(other.intQ_), fpQ_(other.fpQ_),
      intPend_(other.intPend_), fpPend_(other.fpPend_),
      intQCount_(other.intQCount_), fpQCount_(other.fpQCount_),
      intQWake_(other.intQWake_), fpQWake_(other.fpQWake_),
      intRenameFree_(other.intRenameFree_),
      fpRenameFree_(other.fpRenameFree_), robFree_(other.robFree_),
      fpBusyUntil_(other.fpBusyUntil_),
      l1iLineShift_(other.l1iLineShift_),
      roundRobinFetch_(other.roundRobinFetch_), cycle_(other.cycle_),
      commitRR_(other.commitRR_), dispatchRR_(other.dispatchRR_)
{
    intQ_.reserve(static_cast<std::size_t>(params_.intQueueSize));
    fpQ_.reserve(static_cast<std::size_t>(params_.fpQueueSize));
    intPend_.reserve(static_cast<std::size_t>(params_.intQueueSize));
    fpPend_.reserve(static_cast<std::size_t>(params_.fpQueueSize));
}

void
SmtCore::rebuildActiveList()
{
    numActive_ = 0;
    for (int slot = 0; slot < params_.numContexts; ++slot) {
        if (active_[static_cast<std::size_t>(slot)])
            activeList_[static_cast<std::size_t>(numActive_++)] = slot;
    }
}

void
SmtCore::rebindThread(int slot, const ThreadBinding &binding)
{
    SOS_ASSERT(slot >= 0 && slot < params_.numContexts, "bad slot");
    const auto s = static_cast<std::size_t>(slot);
    SOS_ASSERT(active_[s], "rebind needs a bound slot");
    SOS_ASSERT(binding.gen != nullptr, "binding needs a generator");
    SOS_ASSERT(binding.asid == cold_[s].bind.asid,
               "rebind must preserve the thread's address space");
    SOS_ASSERT((binding.sync != nullptr) ==
                   (cold_[s].bind.sync != nullptr),
               "rebind must preserve the sync domain shape");
    cold_[s].bind = binding;
}

void
SmtCore::attachThread(int slot, const ThreadBinding &binding)
{
    SOS_ASSERT(slot >= 0 && slot < params_.numContexts, "bad slot");
    const auto s = static_cast<std::size_t>(slot);
    SOS_ASSERT(!active_[s], "slot already bound");
    SOS_ASSERT(binding.gen != nullptr, "binding needs a generator");

    CtxCold &cold = cold_[s];
    active_[s] = 1;
    cold.bind = binding;
    asid_[s] = binding.asid;
    fqHead_[s] = 0;
    fqCount_[s] = 0;
    robHead_[s] = 0;
    robCount_[s] = 0;
    cold.regs.fill(RegEntry{});
    icount_[s] = 0;
    fetchStall_[s] = 0;
    // A thread parked at a barrier stays parked across scheduling.
    atBarrier_[s] =
        binding.sync != nullptr && binding.sync->blocked(binding.syncIndex)
            ? 1
            : 0;
    cold.hasPending = false;
    cold.lastFetchLine = ~std::uint64_t{0};
    cold.predSalt =
        static_cast<std::uint32_t>(mix64(binding.asid) >> 17);
    retired_[s] = 0;
    rebuildActiveList();
}

void
SmtCore::squashCtx(int slot)
{
    const auto s = static_cast<std::size_t>(slot);
    const auto byCtx = [this, slot](const QEntry &e) {
        return slab_[e.id].ctx == static_cast<std::uint8_t>(slot);
    };
    // Queue wakes are left alone: removing entries can only push the
    // true wake later, and a too-early wake just costs a no-op scan.
    intQ_.erase(std::remove_if(intQ_.begin(), intQ_.end(), byCtx),
                intQ_.end());
    fpQ_.erase(std::remove_if(fpQ_.begin(), fpQ_.end(), byCtx),
               fpQ_.end());
    intPend_.erase(
        std::remove_if(intPend_.begin(), intPend_.end(), byCtx),
        intPend_.end());
    fpPend_.erase(std::remove_if(fpPend_.begin(), fpPend_.end(), byCtx),
                  fpPend_.end());
    std::uint32_t head = robHead_[s];
    const std::uint32_t *const rob = &robSlab_[s * robStride_];
    for (std::uint32_t i = 0; i < robCount_[s]; ++i) {
        const std::uint32_t id = rob[head];
        const InFlight &inst = slab_[id];
        if (!inst.completed) {
            // Dispatched but never issued: still held queue capacity.
            if (inst.op.isFp())
                --fpQCount_;
            else
                --intQCount_;
        }
        releaseResources(inst);
        freeList_.push_back(id);
        head = wrapRob(head);
    }
    robHead_[s] = 0;
    robCount_[s] = 0;
    fqHead_[s] = 0;
    fqCount_[s] = 0;
    cold_[s].hasPending = false;
    icount_[s] = 0;
}

void
SmtCore::detachThread(int slot)
{
    SOS_ASSERT(slot >= 0 && slot < params_.numContexts, "bad slot");
    const auto s = static_cast<std::size_t>(slot);
    SOS_ASSERT(active_[s], "slot not bound");
    squashCtx(slot);
    active_[s] = 0;
    cold_[s].bind = ThreadBinding();
    rebuildActiveList();
}

bool
SmtCore::slotActive(int slot) const
{
    SOS_ASSERT(slot >= 0 && slot < params_.numContexts, "bad slot");
    return active_[static_cast<std::size_t>(slot)] != 0;
}

int
SmtCore::inFlightCount() const
{
    int n = 0;
    for (int slot = 0; slot < params_.numContexts; ++slot)
        n += static_cast<int>(robCount_[static_cast<std::size_t>(slot)]);
    return n;
}

void
SmtCore::debugDump() const
{
    std::fprintf(stderr, "cycle=%llu intQ=%d fpQ=%d robFree=%d "
                         "intRen=%d fpRen=%d\n",
                 static_cast<unsigned long long>(cycle_), intQCount_,
                 fpQCount_, robFree_, intRenameFree_, fpRenameFree_);
    auto dumpQ = [&](const char *name,
                     const std::vector<QEntry> &queue) {
        for (std::size_t i = 0; i < std::min<std::size_t>(queue.size(), 6);
             ++i) {
            const InFlight &inst = slab_[queue[i].id];
            std::fprintf(stderr,
                         "  %s[%zu] cls=%d srcA=%d srcB=%d dst=%d "
                         "age=%u readyAt=%llu\n",
                         name, i, static_cast<int>(inst.op.cls),
                         inst.op.srcA, inst.op.srcB, inst.op.dst,
                         queue[i].age,
                         static_cast<unsigned long long>(
                             queue[i].readyAt));
        }
    };
    dumpQ("intQ", intQ_);
    dumpQ("fpQ", fpQ_);
    for (int slot = 0; slot < params_.numContexts; ++slot) {
        const auto s = static_cast<std::size_t>(slot);
        std::fprintf(
            stderr,
            "  ctx%d active=%d fq=%u rob=%u icount=%d stall=%llu "
            "barrier=%d pending=%d\n",
            slot, active_[s] ? 1 : 0, fqCount_[s], robCount_[s],
            icount_[s],
            static_cast<unsigned long long>(fetchStall_[s]),
            atBarrier_[s] ? 1 : 0, cold_[s].hasPending ? 1 : 0);
    }
}

std::uint32_t
SmtCore::allocInst()
{
    SOS_ASSERT(!freeList_.empty(), "instruction slab exhausted");
    const std::uint32_t id = freeList_.back();
    freeList_.pop_back();
    slab_[id].age = ++ageCounter_;
    return id;
}

void
SmtCore::releaseResources(const InFlight &inst)
{
    ++robFree_;
    if (inst.op.dst != NoReg) {
        if (isFpReg(inst.op.dst))
            ++fpRenameFree_;
        else
            ++intRenameFree_;
    }
}

namespace {

/** Dispatch-stage class bookkeeping for a drained (non-spin) uop. */
void
creditDispatchClass(const UOp &op, PerfCounters &pc)
{
    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::IntMult:
        ++pc.intOps;
        break;
      case OpClass::Branch:
        ++pc.intOps;
        ++pc.branches;
        break;
      case OpClass::FpAdd:
      case OpClass::FpMult:
      case OpClass::FpDiv:
        ++pc.fpOps;
        break;
      case OpClass::Load:
        ++pc.loads;
        break;
      case OpClass::Store:
        ++pc.stores;
        break;
      case OpClass::Barrier:
        panic("barriers never enter the fetch queue");
    }
    ++pc.dispatched;
}

} // namespace

void
SmtCore::drainInFlight(PerfCounters &counters)
{
    for (int i = 0; i < numActive_; ++i) {
        const auto s = static_cast<std::size_t>(
            activeList_[static_cast<std::size_t>(i)]);
        CtxCold &cold = cold_[s];

        // Uops the generator emitted but the pipeline has not finished
        // are retired instantly: the generator cannot rewind, so every
        // emitted uop must be accounted exactly once. Spin ops are
        // synthetic busy-wait filler and vanish uncounted (as in a
        // squash). An op parked behind an icache miss was never even
        // counted as fetched; credit its whole pipeline walk.
        if (cold.hasPending) {
            ++counters.fetched;
            creditDispatchClass(cold.pendingOp, counters);
            ++counters.issued;
            ++counters.retired;
            ++counters.slotRetired[s];
            cold.hasPending = false;
        }
        std::uint32_t fhead = fqHead_[s];
        const Fetched *const fq = &fetchSlab_[s * fetchStride_];
        for (std::uint32_t k = 0; k < fqCount_[s]; ++k) {
            const Fetched &front = fq[fhead];
            if (!front.spin) {
                creditDispatchClass(front.op, counters);
                ++counters.issued;
                ++counters.retired;
                ++counters.slotRetired[s];
            }
            fhead = wrapFetch(fhead);
        }
        fqHead_[s] = 0;
        fqCount_[s] = 0;

        std::uint32_t head = robHead_[s];
        const std::uint32_t *const rob = &robSlab_[s * robStride_];
        for (std::uint32_t k = 0; k < robCount_[s]; ++k) {
            const std::uint32_t id = rob[head];
            const InFlight &inst = slab_[id];
            if (!inst.completed) {
                // Dispatched but never issued: still holds queue
                // capacity and owes its issue credit.
                if (inst.op.isFp())
                    --fpQCount_;
                else
                    --intQCount_;
                if (!inst.spin)
                    ++counters.issued;
            }
            if (!inst.spin) {
                ++counters.retired;
                ++counters.slotRetired[s];
            }
            releaseResources(inst);
            freeList_.push_back(id);
            head = wrapRob(head);
        }
        robHead_[s] = 0;
        robCount_[s] = 0;

        // Values of drained writers are architecturally available now;
        // pendingReg entries would otherwise point at freed slab ids.
        cold.regs.fill(RegEntry{});
        icount_[s] = 0;
        // Clears icache-miss stalls and -- crucially -- the
        // redirectPending parking of drained mispredicted branches,
        // which would otherwise never resolve.
        fetchStall_[s] = 0;
    }

    intQ_.clear();
    fpQ_.clear();
    intPend_.clear();
    fpPend_.clear();
    intQWake_ = noWake;
    fpQWake_ = noWake;
    SOS_ASSERT(intQCount_ == 0 && fpQCount_ == 0,
               "issue-queue occupancy leaked through a drain");
    SOS_ASSERT(robFree_ == params_.robSize, "ROB leaked through a drain");
    fpBusyUntil_.fill(0);
}

void
SmtCore::run(std::uint64_t cycles, PerfCounters &counters)
{
    if (numActive_ == 0) {
        // Nothing bound, nothing in flight (detach squashes): the
        // whole interval is architecturally empty.
        cycle_ += cycles;
        counters.cycles += cycles;
        return;
    }

    // Memory-system counters are derived from component deltas.
    const std::uint64_t l1i_h0 = mem_.l1i().hits();
    const std::uint64_t l1i_m0 = mem_.l1i().misses();
    const std::uint64_t l1d_h0 = mem_.l1d().hits();
    const std::uint64_t l1d_m0 = mem_.l1d().misses();
    // L2 counts come from this core's contention counters, not the
    // shared cache's aggregate: on a multicore machine the aggregate
    // mixes in other cores' traffic.
    const std::uint64_t l2_h0 = mem_.l2CoreCounters().hits;
    const std::uint64_t l2_m0 = mem_.l2CoreCounters().misses;
    const std::uint64_t itlb_m0 = mem_.itlb().misses();
    const std::uint64_t dtlb_m0 = mem_.dtlb().misses();

    retired_.fill(0);

    // Stage bookkeeping lands in a stack-local delta; one += at the
    // end makes it visible (every PerfCounters field is additive).
    PerfCounters d;
    const std::uint64_t end = cycle_ + cycles;
    while (cycle_ < end) {
        const bool committed = doCommit(d);
        const bool scanned = intQWake_ <= cycle_ || fpQWake_ <= cycle_;
        doIssue(d);
        const std::uint32_t disp = doDispatch(d);
        const bool fetched = doFetch(d);
        ++cycle_;
        if (committed || scanned || (disp & dispAny) != 0 || fetched)
            continue;

        // Idle cycle: every stage either did nothing or (dispatch)
        // raised the same per-cycle conflict flags it will keep
        // raising while the pipeline is frozen.  Jump straight to the
        // next scheduled event, crediting the skipped cycles' flags
        // and round-robin rotation arithmetically -- the simulated
        // machine cannot tell the difference.
        std::uint64_t event = nextEventCycle();
        if (event > end)
            event = end;
        if (event <= cycle_)
            continue;
        const std::uint64_t k = event - cycle_;
        if ((disp & dispConfRob) != 0)
            d.confRob += k;
        if ((disp & dispConfIntQ) != 0)
            d.confIntQueue += k;
        if ((disp & dispConfFpQ) != 0)
            d.confFpQueue += k;
        if ((disp & dispConfIntRegs) != 0)
            d.confIntRegs += k;
        if ((disp & dispConfFpRegs) != 0)
            d.confFpRegs += k;
        cycle_ = event;
        const int n = numActive_;
        if (n > 0) {
            commitRR_ = static_cast<int>(
                (static_cast<std::uint64_t>(commitRR_) + k) % n);
            dispatchRR_ = static_cast<int>(
                (static_cast<std::uint64_t>(dispatchRR_) + k) % n);
        }
    }
    d.cycles = cycles;

    for (int slot = 0; slot < params_.numContexts; ++slot) {
        d.slotRetired[static_cast<std::size_t>(slot)] =
            retired_[static_cast<std::size_t>(slot)];
    }
    d.l1iHits = mem_.l1i().hits() - l1i_h0;
    d.l1iMisses = mem_.l1i().misses() - l1i_m0;
    d.l1dHits = mem_.l1d().hits() - l1d_h0;
    d.l1dMisses = mem_.l1d().misses() - l1d_m0;
    d.l2Hits = mem_.l2CoreCounters().hits - l2_h0;
    d.l2Misses = mem_.l2CoreCounters().misses - l2_m0;
    d.itlbMisses = mem_.itlb().misses() - itlb_m0;
    d.dtlbMisses = mem_.dtlb().misses() - dtlb_m0;
    counters += d;
}

std::uint64_t
SmtCore::nextEventCycle() const
{
    // Only called after an idle cycle (cycle_ already advanced past
    // it): queue wakes are in the future, every completed ROB head
    // completes in the future, every fetchable context is stalled.
    // Ready-but-resource-blocked dispatch fronts are deliberately
    // excluded -- the resources they wait for are freed only by
    // commit or issue events, which are already in the minimum.
    std::uint64_t event = std::min(intQWake_, fpQWake_);
    for (int i = 0; i < numActive_; ++i) {
        const auto s = static_cast<std::size_t>(
            activeList_[static_cast<std::size_t>(i)]);
        if (robCount_[s] > 0) {
            const InFlight &head =
                slab_[robSlab_[s * robStride_ + robHead_[s]]];
            if (head.completed)
                event = std::min(event, head.when);
        }
        if (fqCount_[s] > 0) {
            const Fetched &front =
                fetchSlab_[s * fetchStride_ + fqHead_[s]];
            if (front.readyAt >= cycle_)
                event = std::min(event, front.readyAt);
        }
        if (fqCount_[s] < fetchStride_ &&
            fetchStall_[s] != redirectPending) {
            event = std::min(event, fetchStall_[s]);
        }
    }
    return event;
}

bool
SmtCore::doCommit(PerfCounters &pc)
{
    bool committed = false;
    int budget = params_.commitWidth;
    // Rotate priority over the *active* contexts; rotating over all
    // slots would hand the lowest-numbered context first pick whenever
    // the rotation lands on an empty slot.
    const int n = numActive_;
    // The cursor is stored reduced; it can exceed n only right after a
    // rebind shrank the active set, so the divide runs once per rebind
    // rather than once per context per cycle.
    int rr = commitRR_;
    if (rr >= n && n > 0)
        rr %= n;
    for (int i = 0; i < n && budget > 0; ++i) {
        int idx = rr + i;
        if (idx >= n)
            idx -= n;
        const int slot = activeList_[static_cast<std::size_t>(idx)];
        const auto s = static_cast<std::size_t>(slot);
        std::uint32_t head = robHead_[s];
        std::uint32_t count = robCount_[s];
        const std::uint32_t *const rob = &robSlab_[s * robStride_];
        while (budget > 0 && count > 0) {
            const std::uint32_t id = rob[head];
            const InFlight &inst = slab_[id];
            if (!inst.completed || inst.when > cycle_)
                break;
            releaseResources(inst);
            head = wrapRob(head);
            --count;
            freeList_.push_back(id);
            if (!inst.spin) {
                ++retired_[s];
                ++pc.retired;
            }
            --budget;
            committed = true;
        }
        robHead_[s] = head;
        robCount_[s] = count;
    }
    if (n > 0) {
        ++rr;
        commitRR_ = rr >= n ? 0 : rr;
    }
    return committed;
}

void
SmtCore::wakeWaiters(std::uint32_t id, std::uint64_t complete_cycle)
{
    std::uint32_t cid = slab_[id].waiterHead;
    slab_[id].waiterHead = noInst;
    while (cid != noInst) {
        InFlight &c = slab_[cid];
        SOS_ASSERT(c.prodA == id || c.prodB == id,
                   "stale waiter chain");
        const std::uint32_t next = c.prodA == id ? c.nextA : c.nextB;
        if (c.prodA == id) {
            c.prodA = noInst;
            c.when = std::max(c.when, complete_cycle);
            --c.waitCount;
        }
        if (c.prodB == id) {
            c.prodB = noInst;
            c.when = std::max(c.when, complete_cycle);
            --c.waitCount;
        }
        if (c.waitCount == 0) {
            // Fully resolved: becomes a queue entry (via the pending
            // buffer -- the queue may be mid-scan right now).
            if (c.op.isFp()) {
                fpPend_.push_back(QEntry{c.when, cid, c.age});
                fpQWake_ = std::min(fpQWake_, c.when);
            } else {
                intPend_.push_back(QEntry{c.when, cid, c.age});
                intQWake_ = std::min(intQWake_, c.when);
            }
        }
        cid = next;
    }
}

void
SmtCore::mergePending(std::vector<QEntry> &queue,
                      std::vector<QEntry> &pending)
{
    // Wrapping age compare: older (smaller) dispatch stamp first.
    const auto older = [](const QEntry &a, const QEntry &b) {
        return static_cast<std::int32_t>(a.age - b.age) < 0;
    };
    // The pending buffer arrives in wake order, not dispatch order;
    // it is tiny (consumers of this cycle's issues), so insertion
    // sort, then a backward in-place merge into the queue.
    for (std::size_t i = 1; i < pending.size(); ++i) {
        const QEntry e = pending[i];
        std::size_t j = i;
        while (j > 0 && older(e, pending[j - 1])) {
            pending[j] = pending[j - 1];
            --j;
        }
        pending[j] = e;
    }
    std::size_t i = queue.size();
    std::size_t j = pending.size();
    queue.resize(i + j);
    std::size_t k = queue.size();
    while (j > 0) {
        if (i > 0 && older(pending[j - 1], queue[i - 1]))
            queue[--k] = queue[--i];
        else
            queue[--k] = pending[--j];
    }
    pending.clear();
}

void
SmtCore::doIssue(PerfCounters &pc)
{
    bool conf_int_units = false;
    bool conf_fp_units = false;
    bool conf_ls_ports = false;
    const std::uint64_t next_cycle = cycle_ + 1;

    // Integer queue: oldest first. Loads and stores live here (their
    // address generation is integer work) but issue through the
    // load/store ports. The queue holds only schedulable entries, so
    // the slab is touched exactly at issue attempts; issued entries
    // are compacted out in the same pass (order-preserving). The
    // whole scan is skipped while the queue's wake cycle lies in the
    // future: every entry would be passed over by the readiness
    // guard, which mutates nothing and raises no conflict flag, so
    // the skip is architecturally invisible.
    if (intQWake_ <= cycle_) {
        if (!intPend_.empty())
            mergePending(intQ_, intPend_);
        int int_used = 0;
        int ls_used = 0;
        std::uint64_t wake = noWake;
        std::size_t keep = 0;
        for (std::size_t qi = 0; qi < intQ_.size(); ++qi) {
            const QEntry e = intQ_[qi];
            if (e.readyAt > cycle_) {
                wake = std::min(wake, e.readyAt);
                intQ_[keep++] = e;
                continue;
            }
            InFlight &inst = slab_[e.id];
            const UOp &op = inst.op;
            std::uint64_t completion;
            if (op.isMem()) {
                if (ls_used >= params_.numLsPorts) {
                    conf_ls_ports = true;
                    wake = next_cycle;
                    intQ_[keep++] = e;
                    continue;
                }
                ++ls_used;
                const std::uint32_t extra =
                    mem_.dataAccess(asid_[inst.ctx], op.addr,
                                    op.cls == OpClass::Store, op.pc);
                if (op.cls == OpClass::Load) {
                    completion =
                        cycle_ +
                        static_cast<std::uint64_t>(params_.l1dHitLat) +
                        extra;
                } else {
                    // Stores retire through a write buffer.
                    completion = cycle_ + 1;
                }
            } else {
                if (int_used >= params_.numIntUnits) {
                    conf_int_units = true;
                    wake = next_cycle;
                    intQ_[keep++] = e;
                    continue;
                }
                ++int_used;
                const int lat = op.cls == OpClass::IntMult
                                    ? params_.intMultLat
                                    : params_.intAluLat;
                completion = cycle_ + static_cast<std::uint64_t>(lat);
            }

            inst.completed = true;
            inst.when = completion;
            if (inst.mispredicted) {
                // The front end was parked on this branch; release it
                // when the branch resolves, plus the redirect penalty.
                fetchStall_[inst.ctx] =
                    completion +
                    static_cast<std::uint64_t>(params_.mispredictRedirect);
            }
            if (op.dst != NoReg) {
                RegEntry &r = cold_[inst.ctx].regs[op.dst];
                if (r.ready == pendingReg && r.writer == e.id)
                    r.ready = completion;
            }
            --icount_[inst.ctx];
            if (!inst.spin)
                ++pc.issued;
            --intQCount_;
            wakeWaiters(e.id, completion);
        }
        intQ_.resize(keep);
        // Consumers woken by this very scan sit in the pending buffer
        // (emptied at the top); their ready cycles must survive the
        // wake recomputation.
        for (const QEntry &p : intPend_)
            wake = std::min(wake, p.readyAt);
        intQWake_ = wake;
    }

    // FP queue: same order-preserving single-pass compaction.
    if (fpQWake_ <= cycle_) {
        if (!fpPend_.empty())
            mergePending(fpQ_, fpPend_);
        int fp_add_used = 0;
        int fp_mul_used = 0;
        // Multiply pipes still executing a non-pipelined divide are
        // unavailable this cycle.
        int fp_mul_open = 0;
        for (int u = 0; u < params_.fpMulPipes; ++u) {
            if (fpBusyUntil_[static_cast<std::size_t>(u)] <= cycle_)
                ++fp_mul_open;
        }
        std::uint64_t wake = noWake;
        std::size_t keep = 0;
        for (std::size_t qi = 0; qi < fpQ_.size(); ++qi) {
            const QEntry e = fpQ_[qi];
            if (e.readyAt > cycle_) {
                wake = std::min(wake, e.readyAt);
                fpQ_[keep++] = e;
                continue;
            }
            InFlight &inst = slab_[e.id];
            const UOp &op = inst.op;
            int lat;
            if (op.cls == OpClass::FpAdd) {
                if (fp_add_used >= params_.fpAddPipes) {
                    conf_fp_units = true;
                    wake = next_cycle;
                    fpQ_[keep++] = e;
                    continue;
                }
                ++fp_add_used;
                lat = params_.fpAddLat;
            } else if (op.cls == OpClass::FpMult) {
                if (fp_mul_used >= fp_mul_open) {
                    conf_fp_units = true;
                    wake = next_cycle;
                    fpQ_[keep++] = e;
                    continue;
                }
                ++fp_mul_used;
                lat = params_.fpMultLat;
            } else { // FpDiv
                if (fp_mul_used >= fp_mul_open) {
                    conf_fp_units = true;
                    wake = next_cycle;
                    fpQ_[keep++] = e;
                    continue;
                }
                lat = params_.fpDivLat;
                // Divide monopolizes a multiply pipe (non-pipelined).
                for (int u = 0; u < params_.fpMulPipes; ++u) {
                    auto &busy =
                        fpBusyUntil_[static_cast<std::size_t>(u)];
                    if (busy <= cycle_) {
                        busy = cycle_ + static_cast<std::uint64_t>(lat);
                        --fp_mul_open;
                        break;
                    }
                }
            }
            const std::uint64_t completion =
                cycle_ + static_cast<std::uint64_t>(lat);
            inst.completed = true;
            inst.when = completion;
            if (op.dst != NoReg) {
                RegEntry &r = cold_[inst.ctx].regs[op.dst];
                if (r.ready == pendingReg && r.writer == e.id)
                    r.ready = completion;
            }
            --icount_[inst.ctx];
            if (!inst.spin)
                ++pc.issued;
            --fpQCount_;
            wakeWaiters(e.id, completion);
        }
        fpQ_.resize(keep);
        for (const QEntry &p : fpPend_)
            wake = std::min(wake, p.readyAt);
        fpQWake_ = wake;
    }

    if (conf_int_units)
        ++pc.confIntUnits;
    if (conf_fp_units)
        ++pc.confFpUnits;
    if (conf_ls_ports)
        ++pc.confLsPorts;
}

void
SmtCore::resolveOperand(InFlight &inst, std::uint32_t id,
                        const CtxCold &cold, std::uint8_t reg,
                        bool is_second)
{
    if (reg == NoReg)
        return;
    const RegEntry &r = cold.regs[reg];
    if (r.ready != pendingReg) {
        // Last writer already issued (or long retired): its value
        // arrives at a known cycle, possibly in the past (dispatch+1
        // already dominates a value available now).
        inst.when = std::max(inst.when, r.ready);
        return;
    }
    // Writer dispatched but not issued: wait for its wakeWaiters()
    // walk.  A pending scoreboard entry always names a live, un-issued
    // same-context instruction (issue finalizes it, a younger writer
    // replaces it, a squash resets the scoreboard), so no staleness
    // check is needed.
    const std::uint32_t pid = r.writer;
    InFlight &producer = slab_[pid];
    if (is_second) {
        inst.prodB = pid;
        if (inst.prodA == pid) {
            // Both operands name the same producer: one registration,
            // the wake resolves both.
            ++inst.waitCount;
            return;
        }
        inst.nextB = producer.waiterHead;
    } else {
        inst.prodA = pid;
        inst.nextA = producer.waiterHead;
    }
    producer.waiterHead = id;
    ++inst.waitCount;
}

std::uint32_t
SmtCore::doDispatch(PerfCounters &pc)
{
    int budget = params_.dispatchWidth;
    const int n = numActive_;

    std::uint32_t result = 0;

    int rr = dispatchRR_;
    if (rr >= n && n > 0)
        rr %= n;
    for (int i = 0; i < n && budget > 0; ++i) {
        int idx = rr + i;
        if (idx >= n)
            idx -= n;
        const int slot = activeList_[static_cast<std::size_t>(idx)];
        const auto s = static_cast<std::size_t>(slot);
        CtxCold &cold = cold_[s];
        std::uint32_t head = fqHead_[s];
        std::uint32_t count = fqCount_[s];
        Fetched *const fq = &fetchSlab_[s * fetchStride_];
        while (budget > 0 && count > 0) {
            const Fetched &front = fq[head];
            if (front.readyAt > cycle_)
                break;
            const UOp &op = front.op;

            if (robFree_ == 0) {
                result |= dispConfRob;
                break;
            }
            const bool is_fp_q = op.isFp();
            if (is_fp_q) {
                if (fpQCount_ >= params_.fpQueueSize) {
                    result |= dispConfFpQ;
                    break;
                }
            } else {
                if (intQCount_ >= params_.intQueueSize) {
                    result |= dispConfIntQ;
                    break;
                }
            }
            if (op.dst != NoReg) {
                if (isFpReg(op.dst)) {
                    if (fpRenameFree_ == 0) {
                        result |= dispConfFpRegs;
                        break;
                    }
                } else {
                    if (intRenameFree_ == 0) {
                        result |= dispConfIntRegs;
                        break;
                    }
                }
            }

            // All resources available: dispatch.
            const std::uint32_t id = allocInst();
            InFlight &inst = slab_[id];
            inst.op = op;
            inst.ctx = static_cast<std::uint8_t>(slot);
            inst.completed = false;
            inst.mispredicted = front.mispredicted;
            inst.spin = front.spin;
            inst.when = cycle_ + 1; // earliest possible issue scan
            inst.waitCount = 0;
            inst.prodA = noInst;
            inst.prodB = noInst;
            inst.waiterHead = noInst;

            // Resolve the program-order producers now; the register
            // name may be recycled by a younger writer before this
            // instruction issues.
            resolveOperand(inst, id, cold, op.srcA, false);
            resolveOperand(inst, id, cold, op.srcB, true);

            --robFree_;
            if (op.dst != NoReg) {
                if (isFpReg(op.dst))
                    --fpRenameFree_;
                else
                    --intRenameFree_;
                cold.regs[op.dst] = RegEntry{pendingReg, id};
            }
            std::uint32_t tail = robHead_[s] + robCount_[s];
            if (tail >= robStride_)
                tail -= robStride_;
            robSlab_[s * robStride_ + tail] = id;
            ++robCount_[s];
            // A dispatch-time-ready instruction goes straight onto the
            // queue tail: it carries the youngest age, so dispatch
            // order is preserved no matter what sits in the pending
            // buffer.
            if (is_fp_q) {
                ++fpQCount_;
                if (inst.waitCount == 0) {
                    fpQ_.push_back(QEntry{inst.when, id, inst.age});
                    fpQWake_ = std::min(fpQWake_, inst.when);
                }
            } else {
                ++intQCount_;
                if (inst.waitCount == 0) {
                    intQ_.push_back(QEntry{inst.when, id, inst.age});
                    intQWake_ = std::min(intQWake_, inst.when);
                }
            }

            if (front.spin) {
                ++pc.spinOps;
            } else {
                switch (op.cls) {
                  case OpClass::IntAlu:
                  case OpClass::IntMult:
                    ++pc.intOps;
                    break;
                  case OpClass::Branch:
                    ++pc.intOps;
                    ++pc.branches;
                    break;
                  case OpClass::FpAdd:
                  case OpClass::FpMult:
                  case OpClass::FpDiv:
                    ++pc.fpOps;
                    break;
                  case OpClass::Load:
                    ++pc.loads;
                    break;
                  case OpClass::Store:
                    ++pc.stores;
                    break;
                  case OpClass::Barrier:
                    panic("barriers never enter the dispatch stream");
                }
                ++pc.dispatched;
            }
            head = wrapFetch(head);
            --count;
            --budget;
            result |= dispAny;
        }
        fqHead_[s] = head;
        fqCount_[s] = count;
    }
    if (n > 0) {
        ++rr;
        dispatchRR_ = rr >= n ? 0 : rr;
    }

    if ((result & dispConfRob) != 0)
        ++pc.confRob;
    if ((result & dispConfIntQ) != 0)
        ++pc.confIntQueue;
    if ((result & dispConfFpQ) != 0)
        ++pc.confFpQueue;
    if ((result & dispConfIntRegs) != 0)
        ++pc.confIntRegs;
    if ((result & dispConfFpRegs) != 0)
        ++pc.confFpRegs;
    return result;
}

bool
SmtCore::tryFetchOne(int slot, PerfCounters &pc)
{
    // Returns true if fetch for this thread may continue this cycle.
    const auto s = static_cast<std::size_t>(slot);
    CtxCold &cold = cold_[s];
    UOp op;
    bool spin = false;
    if (atBarrier_[s]) {
        // Busy-wait: a parked thread spins on the barrier flag. With
        // ICOUNT fetch the spinner's near-empty window gives it top
        // fetch priority every cycle, so the loop (flag load, a few
        // dependent test ops, a taken branch) soaks up fetch slots,
        // queue entries and a load port -- the resource drag that
        // makes splitting tightly-synchronized threads so expensive on
        // an SMT (Section 6).
        spin = true;
        op = UOp();
        const std::uint32_t phase = cold.spinPhase++ % 5;
        op.pc = 0xf00 + 4 * phase;
        switch (phase) {
          case 0:
            op.cls = OpClass::Load;
            op.addr = 0x7c0; // barrier flag: L1-resident
            op.dst = 30;
            break;
          case 1:
          case 2:
          case 3:
            op.cls = OpClass::IntAlu;
            op.srcA = static_cast<std::uint8_t>(31 - phase);
            op.dst = static_cast<std::uint8_t>(30 - phase);
            break;
          default:
            op.cls = OpClass::Branch;
            op.srcA = 27;
            op.taken = true; // loop back to the flag load
            break;
        }
    } else if (cold.hasPending) {
        op = cold.pendingOp;
        cold.hasPending = false;
    } else {
        op = cold.bind.gen->next();
    }

    if (op.cls == OpClass::Barrier) {
        SOS_ASSERT(cold.bind.sync != nullptr,
                   "barrier from a thread with no sync domain");
        cold.bind.sync->arrive(cold.bind.syncIndex);
        ++pc.barriers;
        if (cold.bind.sync->blocked(cold.bind.syncIndex)) {
            atBarrier_[s] = 1;
            return false;
        }
        return true; // barrier consumed for free; keep fetching
    }

    const std::uint64_t line = op.pc >> l1iLineShift_;
    if (line != cold.lastFetchLine) {
        cold.lastFetchLine = line;
        const std::uint32_t extra = mem_.instAccess(asid_[s], op.pc);
        if (extra > 0) {
            cold.pendingOp = op;
            cold.hasPending = true;
            fetchStall_[s] = cycle_ + extra;
            return false;
        }
    }

    Fetched fetched;
    fetched.op = op;
    fetched.readyAt = cycle_ + static_cast<std::uint64_t>(
                                   params_.frontendDelay);
    fetched.mispredicted = false;
    fetched.spin = spin;

    bool stop = false;
    if (op.cls == OpClass::Branch) {
        const bool predicted =
            bpred_.predictAndUpdate(cold.predSalt, op.pc, op.taken);
        if (predicted != op.taken) {
            fetched.mispredicted = true;
            if (!spin)
                ++pc.branchMispredicts;
            // Park the front end until the branch resolves at issue.
            fetchStall_[s] = redirectPending;
            stop = true;
        } else if (op.taken) {
            stop = true; // a taken branch ends the fetch block
        }
    }

    std::uint32_t tail = fqHead_[s] + fqCount_[s];
    if (tail >= fetchStride_)
        tail -= fetchStride_;
    fetchSlab_[s * fetchStride_ + tail] = fetched;
    ++fqCount_[s];
    ++icount_[s];
    if (!spin)
        ++pc.fetched;
    return !stop;
}

bool
SmtCore::doFetch(PerfCounters &pc)
{
    // ICOUNT: fetch from the threads with the fewest in-flight
    // pre-issue instructions.
    std::array<int, MaxContexts> picked{};
    int num_candidates = 0;
    bool unblocked = false;
    for (int i = 0; i < numActive_; ++i) {
        const int slot = activeList_[static_cast<std::size_t>(i)];
        const auto s = static_cast<std::size_t>(slot);
        if (atBarrier_[s]) {
            const ThreadBinding &bind = cold_[s].bind;
            if (!bind.sync->blocked(bind.syncIndex)) {
                atBarrier_[s] = 0; // barrier released; resume for real
                unblocked = true;
            }
        }
        if (fetchStall_[s] > cycle_)
            continue;
        if (fqCount_[s] >= fetchStride_)
            continue;
        picked[static_cast<std::size_t>(num_candidates++)] = slot;
    }
    // Insertion sort by icount; ties go to the least-recently-fetched
    // context so equal threads share the front end evenly. The
    // round-robin ablation ignores occupancy entirely.
    const bool round_robin = roundRobinFetch_;
    const auto before = [this, round_robin](int a, int b) {
        const auto sa = static_cast<std::size_t>(a);
        const auto sb = static_cast<std::size_t>(b);
        if (!round_robin && icount_[sa] != icount_[sb])
            return icount_[sa] < icount_[sb];
        return lastFetchCycle_[sa] < lastFetchCycle_[sb];
    };
    for (int i = 1; i < num_candidates; ++i) {
        const int slot = picked[static_cast<std::size_t>(i)];
        int j = i - 1;
        while (j >= 0 &&
               before(slot, picked[static_cast<std::size_t>(j)])) {
            picked[static_cast<std::size_t>(j + 1)] =
                picked[static_cast<std::size_t>(j)];
            --j;
        }
        picked[static_cast<std::size_t>(j + 1)] = slot;
    }

    const int num_threads = std::min(num_candidates, params_.fetchThreads);
    int budget = params_.fetchWidth;
    for (int t = 0; t < num_threads && budget > 0; ++t) {
        const int slot = picked[static_cast<std::size_t>(t)];
        const auto s = static_cast<std::size_t>(slot);
        bool fetched_any = false;
        while (budget > 0 && fqCount_[s] < fetchStride_) {
            const std::uint32_t before_count = fqCount_[s];
            const bool keep_going = tryFetchOne(slot, pc);
            if (fqCount_[s] > before_count) {
                --budget;
                fetched_any = true;
            }
            if (!keep_going)
                break;
        }
        if (fetched_any)
            lastFetchCycle_[s] = cycle_;
    }
    return num_candidates > 0 || unblocked;
}

} // namespace sos
