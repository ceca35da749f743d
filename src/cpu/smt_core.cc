#include "smt_core.hh"

#include <algorithm>
#include <bit>
#include <limits>

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
    fetchRing_.resize(n * fetchStride_);
    robSlab_.resize(n * robStride_);

    const std::size_t slab_size = static_cast<std::size_t>(
        params.robSize + params.numContexts * params.fetchQueueSize + 8);
    slab_.resize(slab_size);
    freeList_.reserve(slab_size);
    for (std::size_t i = 0; i < slab_size; ++i)
        freeList_.push_back(static_cast<std::uint32_t>(slab_size - 1 - i));

    intQ_.slots.resize(static_cast<std::size_t>(params.intQueueSize));
    fpQ_.slots.resize(static_cast<std::size_t>(params.fpQueueSize));

    renameFree_ = {params.intRenameRegs, params.fpRenameRegs,
                   std::numeric_limits<int>::max()};
    robFree_ = params.robSize;

    frontReady_.fill(noWake);
    headReady_.fill(noWake);

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
      frontReady_(other.frontReady_), headReady_(other.headReady_),
      cold_(other.cold_), fetchRing_(other.fetchRing_),
      robSlab_(other.robSlab_), fetchStride_(other.fetchStride_),
      robStride_(other.robStride_), activeList_(other.activeList_),
      numActive_(other.numActive_), slab_(other.slab_),
      freeList_(other.freeList_), ageCounter_(other.ageCounter_),
      intQ_(other.intQ_), fpQ_(other.fpQ_),
      commitWake_(other.commitWake_),
      renameFree_(other.renameFree_), robFree_(other.robFree_),
      fpBusyUntil_(other.fpBusyUntil_),
      l1iLineShift_(other.l1iLineShift_),
      roundRobinFetch_(other.roundRobinFetch_), cycle_(other.cycle_),
      commitRR_(other.commitRR_), dispatchRR_(other.dispatchRR_)
{
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
    frontReady_[s] = noWake;
    headReady_[s] = noWake;
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
    const auto ctx = static_cast<std::uint8_t>(slot);
    // Queue wakes are left alone: removing entries can only push the
    // true wake later, and a too-early wake just costs a no-op scan.
    for (IssueQueue *queue : {&intQ_, &fpQ_}) {
        std::uint32_t keep = 0;
        for (std::uint32_t i = 0; i < queue->len; ++i) {
            const QEntry e = queue->slots[i];
            if (slab_[e.id].ctx != ctx)
                queue->slots[keep++] = e;
        }
        queue->len = keep;
    }
    std::uint32_t head = robHead_[s];
    const std::uint32_t *const rob = &robSlab_[s * robStride_];
    for (std::uint32_t i = 0; i < robCount_[s]; ++i) {
        const std::uint32_t id = rob[head];
        const InFlight &inst = slab_[id];
        if (!inst.completed) {
            // Dispatched but never issued: still held queue capacity.
            --(inst.op.isFp() ? fpQ_ : intQ_).count;
        }
        releaseResources(inst);
        freeInst(id);
        head = wrapRob(head);
    }
    std::uint32_t fhead = fqHead_[s];
    const std::uint32_t *const fq = &fetchRing_[s * fetchStride_];
    for (std::uint32_t i = 0; i < fqCount_[s]; ++i) {
        freeInst(fq[fhead]);
        fhead = wrapFetch(fhead);
    }
    robHead_[s] = 0;
    robCount_[s] = 0;
    fqHead_[s] = 0;
    fqCount_[s] = 0;
    frontReady_[s] = noWake;
    headReady_[s] = noWake;
    cold_[s].hasPending = false;
    icount_[s] = 0;
    // The squashed head may have held the commit wake; the next commit
    // walk recomputes it.
    commitWake_ = cycle_;
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
                 static_cast<unsigned long long>(cycle_), intQ_.count,
                 fpQ_.count, robFree_, renameFree_[intRegs],
                 renameFree_[fpRegs]);
    auto dumpQ = [&](const char *name, const IssueQueue &queue) {
        for (std::uint32_t i = 0; i < std::min<std::uint32_t>(queue.len, 6);
             ++i) {
            const QEntry &e = queue.slots[i];
            const InFlight &inst = slab_[e.id];
            std::fprintf(stderr,
                         "  %s[%u] cls=%d srcA=%d srcB=%d dst=%d "
                         "age=%u readyAt=%llu\n",
                         name, i, static_cast<int>(inst.op.cls),
                         inst.op.srcA, inst.op.srcB, inst.op.dst, e.age,
                         static_cast<unsigned long long>(e.readyAt));
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
    return id;
}

void
SmtCore::releaseResources(const InFlight &inst)
{
    ++robFree_;
    ++renameFree_[inst.regClass];
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
        const std::uint32_t *const fq = &fetchRing_[s * fetchStride_];
        for (std::uint32_t k = 0; k < fqCount_[s]; ++k) {
            const std::uint32_t id = fq[fhead];
            const InFlight &front = slab_[id];
            if (!front.spin) {
                creditDispatchClass(front.op, counters);
                ++counters.issued;
                ++counters.retired;
                ++counters.slotRetired[s];
            }
            freeInst(id);
            fhead = wrapFetch(fhead);
        }
        fqHead_[s] = 0;
        fqCount_[s] = 0;
        frontReady_[s] = noWake;

        std::uint32_t head = robHead_[s];
        const std::uint32_t *const rob = &robSlab_[s * robStride_];
        for (std::uint32_t k = 0; k < robCount_[s]; ++k) {
            const std::uint32_t id = rob[head];
            const InFlight &inst = slab_[id];
            if (!inst.completed) {
                // Dispatched but never issued: still holds queue
                // capacity and owes its issue credit.
                --(inst.op.isFp() ? fpQ_ : intQ_).count;
                if (!inst.spin)
                    ++counters.issued;
            }
            if (!inst.spin) {
                ++counters.retired;
                ++counters.slotRetired[s];
            }
            releaseResources(inst);
            freeInst(id);
            head = wrapRob(head);
        }
        robHead_[s] = 0;
        robCount_[s] = 0;
        headReady_[s] = noWake;

        // Values of drained writers are architecturally available now;
        // pendingReg entries would otherwise point at freed slab ids.
        cold.regs.fill(RegEntry{});
        icount_[s] = 0;
        // Clears icache-miss stalls and -- crucially -- the
        // redirectPending parking of drained mispredicted branches,
        // which would otherwise never resolve.
        fetchStall_[s] = 0;
    }

    for (IssueQueue *queue : {&intQ_, &fpQ_}) {
        SOS_ASSERT(queue->count == 0,
                   "issue-queue occupancy leaked through a drain");
        queue->len = 0;
        queue->wake = noWake;
    }
    commitWake_ = noWake;
    SOS_ASSERT(robFree_ == params_.robSize, "ROB leaked through a drain");
    fpBusyUntil_.fill(0);
}

std::uint64_t
SmtCore::nextEventCycle() const
{
    // Only called after an idle cycle (cycle_ already advanced past
    // it): queue wakes are in the future, every issued ROB head
    // completes in the future (commitWake_ is exact here: that cycle's
    // commit stage either walked every head with its full budget or
    // found its wake in the future), every fetchable context is
    // stalled. Ready-but-resource-blocked dispatch fronts are
    // deliberately excluded -- the resources they wait for are freed
    // only by commit or issue events, which are already in the
    // minimum.
    std::uint64_t event = std::min({intQ_.wake, fpQ_.wake, commitWake_});
    for (int i = 0; i < numActive_; ++i) {
        const auto s = static_cast<std::size_t>(
            activeList_[static_cast<std::size_t>(i)]);
        if (frontReady_[s] >= cycle_)
            event = std::min(event, frontReady_[s]);
        if (fqCount_[s] < fetchStride_ &&
            fetchStall_[s] != redirectPending) {
            event = std::min(event, fetchStall_[s]);
        }
    }
    return event;
}

// The stages below are forced inline into run(): one loop body that
// counts into a Tally local to run().

[[gnu::always_inline]] inline bool
SmtCore::commit()
{
    bool committed = false;
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
    // No head can retire before commitWake_: the walk would stop at
    // every head, so only the cursor moves.
    if (commitWake_ <= cycle_) {
        const std::uint64_t now = cycle_;
        int budget = params_.commitWidth;
        std::uint64_t wake = noWake;
        for (int i = 0; i < n; ++i) {
            int idx = rr + i;
            if (idx >= n)
                idx -= n;
            const auto s = static_cast<std::size_t>(
                activeList_[static_cast<std::size_t>(idx)]);
            std::uint64_t ready = headReady_[s];
            if (ready <= now && budget > 0) {
                std::uint32_t head = robHead_[s];
                std::uint32_t count = robCount_[s];
                const std::uint32_t *const rob = &robSlab_[s * robStride_];
                do {
                    const std::uint32_t id = rob[head];
                    const InFlight &inst = slab_[id];
                    releaseResources(inst);
                    retired_[s] += inst.spin ? 0 : 1;
                    freeInst(id);
                    head = wrapRob(head);
                    --count;
                    --budget;
                    if (count == 0) {
                        ready = noWake;
                        break;
                    }
                    const InFlight &next = slab_[rob[head]];
                    ready = next.completed ? next.when : noWake;
                } while (ready <= now && budget > 0);
                robHead_[s] = head;
                robCount_[s] = count;
                headReady_[s] = ready;
                committed = true;
            }
            // A head left ready by a spent budget keeps the wake at
            // or below now, so the next cycle walks again.
            wake = std::min(wake, ready);
        }
        commitWake_ = wake;
    }
    if (n > 0) {
        ++rr;
        commitRR_ = rr >= n ? 0 : rr;
    }
    return committed;
}

void
SmtCore::enqueue(IssueQueue &queue, const QEntry &entry)
{
    // Wrapping age compare: older (smaller) dispatch stamp first.
    QEntry *const slots = queue.slots.data();
    std::uint32_t j = queue.len++;
    while (j > 0 &&
           static_cast<std::int32_t>(entry.age - slots[j - 1].age) < 0) {
        slots[j] = slots[j - 1];
        --j;
    }
    slots[j] = entry;
}

[[gnu::always_inline]] inline void
SmtCore::wakeWaiters(std::uint32_t id, std::uint64_t complete_cycle)
{
    std::uint32_t cid = slab_[id].waiterHead;
    slab_[id].waiterHead = noInst;
    while (cid != noInst) {
        InFlight &c = slab_[cid];
        const bool via_a = c.prodA == id;
        const bool via_b = c.prodB == id;
        SOS_ASSERT(via_a || via_b, "stale waiter chain");
        const std::uint32_t next = via_a ? c.nextA : c.nextB;
        if (via_a)
            c.prodA = noInst;
        if (via_b)
            c.prodB = noInst;
        c.waitCount =
            static_cast<std::uint8_t>(c.waitCount - via_a - via_b);
        c.when = std::max(c.when, complete_cycle);
        if (c.waitCount == 0) {
            // Fully resolved: enters its queue at its age position. The
            // queue may be mid-scan; see the declaration for why that
            // is safe.
            IssueQueue &queue = c.op.isFp() ? fpQ_ : intQ_;
            enqueue(queue, QEntry{c.when, cid, c.age});
            queue.wake = std::min(queue.wake, c.when);
        }
        cid = next;
    }
}

[[gnu::always_inline]] inline void
SmtCore::writeback(InFlight &inst, std::uint32_t id,
                   std::uint64_t completion, Tally &t)
{
    inst.completed = true;
    inst.when = completion;
    const std::size_t ctx = inst.ctx;
    RegEntry &r = cold_[ctx].regs[inst.op.dst];
    if (r.ready == pendingReg && r.writer == id)
        r.ready = completion;
    --icount_[ctx];
    if (!inst.spin)
        ++t.issued;
    // An issued ROB head is the only kind that can lower the commit
    // wake: every other head either waits to issue or already counts.
    if (robSlab_[ctx * robStride_ + robHead_[ctx]] == id) {
        headReady_[ctx] = completion;
        commitWake_ = std::min(commitWake_, completion);
    }
    if (inst.waiterHead != noInst)
        wakeWaiters(id, completion);
}

[[gnu::always_inline]] inline void
SmtCore::issueInt(Tally &t)
{
    // Oldest first. Loads and stores live here (their address
    // generation is integer work) but issue through the load/store
    // ports. The queue holds only schedulable entries, so the slab is
    // touched exactly at issue attempts; issued entries are compacted
    // out in the same pass (order-preserving). Consumers woken by an
    // issue enter the array behind the cursor (len grows), where this
    // scan meets them as not-yet-ready entries.
    IssueQueue &queue = intQ_;
    QEntry *const slots = queue.slots.data();
    const std::uint64_t now = cycle_;
    bool conf_int_units = false;
    bool conf_ls_ports = false;
    int int_used = 0;
    int ls_used = 0;
    std::uint64_t wake = noWake;
    std::uint32_t keep = 0;
    for (std::uint32_t qi = 0; qi < queue.len; ++qi) {
        const QEntry e = slots[qi];
        if (e.readyAt > now) {
            wake = std::min(wake, e.readyAt);
            slots[keep++] = e;
            continue;
        }
        InFlight &inst = slab_[e.id];
        const UOp &op = inst.op;
        const bool is_mem = op.isMem();
        if (is_mem ? ls_used >= params_.numLsPorts
                   : int_used >= params_.numIntUnits) {
            (is_mem ? conf_ls_ports : conf_int_units) = true;
            wake = now + 1;
            slots[keep++] = e;
            continue;
        }
        std::uint64_t completion;
        if (is_mem) {
            ++ls_used;
            const std::uint32_t extra =
                mem_.dataAccess(asid_[inst.ctx], op.addr,
                                op.cls == OpClass::Store, op.pc);
            // Stores retire through a write buffer.
            completion =
                op.cls == OpClass::Load
                    ? now + static_cast<std::uint64_t>(params_.l1dHitLat) +
                          extra
                    : now + 1;
        } else {
            ++int_used;
            const int lat = op.cls == OpClass::IntMult ? params_.intMultLat
                                                       : params_.intAluLat;
            completion = now + static_cast<std::uint64_t>(lat);
        }
        if (inst.mispredicted) {
            // The front end was parked on this branch; release it when
            // the branch resolves, plus the redirect penalty.
            fetchStall_[inst.ctx] =
                completion +
                static_cast<std::uint64_t>(params_.mispredictRedirect);
        }
        --queue.count;
        writeback(inst, e.id, completion, t);
    }
    queue.len = keep;
    queue.wake = wake;
    if (conf_int_units)
        ++t.confIntUnits;
    if (conf_ls_ports)
        ++t.confLsPorts;
}

[[gnu::always_inline]] inline void
SmtCore::issueFp(Tally &t)
{
    // Same order-preserving single-pass compaction as issueInt.
    IssueQueue &queue = fpQ_;
    QEntry *const slots = queue.slots.data();
    const std::uint64_t now = cycle_;
    bool conf_fp_units = false;
    int fp_add_used = 0;
    int fp_mul_used = 0;
    // Multiply pipes still executing a non-pipelined divide are
    // unavailable this cycle.
    int fp_mul_open = 0;
    for (int u = 0; u < params_.fpMulPipes; ++u) {
        if (fpBusyUntil_[static_cast<std::size_t>(u)] <= now)
            ++fp_mul_open;
    }
    std::uint64_t wake = noWake;
    std::uint32_t keep = 0;
    for (std::uint32_t qi = 0; qi < queue.len; ++qi) {
        const QEntry e = slots[qi];
        if (e.readyAt > now) {
            wake = std::min(wake, e.readyAt);
            slots[keep++] = e;
            continue;
        }
        InFlight &inst = slab_[e.id];
        const OpClass cls = inst.op.cls;
        int lat;
        if (cls == OpClass::FpAdd) {
            if (fp_add_used >= params_.fpAddPipes) {
                conf_fp_units = true;
                wake = now + 1;
                slots[keep++] = e;
                continue;
            }
            ++fp_add_used;
            lat = params_.fpAddLat;
        } else if (cls == OpClass::FpMult) {
            if (fp_mul_used >= fp_mul_open) {
                conf_fp_units = true;
                wake = now + 1;
                slots[keep++] = e;
                continue;
            }
            ++fp_mul_used;
            lat = params_.fpMultLat;
        } else { // FpDiv
            if (fp_mul_used >= fp_mul_open) {
                conf_fp_units = true;
                wake = now + 1;
                slots[keep++] = e;
                continue;
            }
            lat = params_.fpDivLat;
            // Divide monopolizes a multiply pipe (non-pipelined).
            for (int u = 0; u < params_.fpMulPipes; ++u) {
                auto &busy = fpBusyUntil_[static_cast<std::size_t>(u)];
                if (busy <= now) {
                    busy = now + static_cast<std::uint64_t>(lat);
                    --fp_mul_open;
                    break;
                }
            }
        }
        --queue.count;
        writeback(inst, e.id, now + static_cast<std::uint64_t>(lat), t);
    }
    queue.len = keep;
    queue.wake = wake;
    if (conf_fp_units)
        ++t.confFpUnits;
}

void
SmtCore::resolveOperand(InFlight &inst, std::uint32_t id,
                        const CtxCold &cold, std::uint8_t reg,
                        bool is_second)
{
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

[[gnu::always_inline]] inline std::uint32_t
SmtCore::dispatch(Tally &t)
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
        const auto s = static_cast<std::size_t>(
            activeList_[static_cast<std::size_t>(idx)]);
        if (frontReady_[s] > cycle_)
            continue;
        CtxCold &cold = cold_[s];
        std::uint32_t head = fqHead_[s];
        std::uint32_t count = fqCount_[s];
        const std::uint32_t *const fq = &fetchRing_[s * fetchStride_];
        std::uint32_t *const rob = &robSlab_[s * robStride_];
        std::uint64_t front_ready = frontReady_[s];
        while (budget > 0 && front_ready <= cycle_) {
            const std::uint32_t id = fq[head];
            InFlight &inst = slab_[id];
            const UOp &op = inst.op;

            if (robFree_ == 0) {
                result |= dispConfRob;
                break;
            }
            const bool is_fp_q = op.isFp();
            IssueQueue &queue = is_fp_q ? fpQ_ : intQ_;
            if (queue.count >= (is_fp_q ? params_.fpQueueSize
                                        : params_.intQueueSize)) {
                result |= is_fp_q ? dispConfFpQ : dispConfIntQ;
                break;
            }
            if (renameFree_[inst.regClass] == 0) {
                result |= dispConfIntRegs << inst.regClass;
                break;
            }

            // All resources available: dispatch. Fetch left the
            // dependence fields clear.
            inst.age = ++ageCounter_;
            inst.when = cycle_ + 1; // earliest possible issue scan

            // Resolve the program-order producers now; the register
            // name may be recycled by a younger writer before this
            // instruction issues.
            resolveOperand(inst, id, cold, op.srcA, false);
            resolveOperand(inst, id, cold, op.srcB, true);

            --robFree_;
            --renameFree_[inst.regClass];
            cold.regs[op.dst] = RegEntry{pendingReg, id};
            std::uint32_t tail = robHead_[s] + robCount_[s];
            if (tail >= robStride_)
                tail -= robStride_;
            rob[tail] = id;
            ++robCount_[s];
            // A dispatch-time-ready instruction carries the youngest
            // age, so it goes straight onto the queue tail.
            ++queue.count;
            if (inst.waitCount == 0) {
                queue.slots[queue.len++] = QEntry{inst.when, id, inst.age};
                queue.wake = std::min(queue.wake, inst.when);
            }

            if (inst.spin)
                ++t.spinOps;
            else
                ++t.dispatchedByClass[static_cast<std::size_t>(op.cls)];
            head = wrapFetch(head);
            --count;
            --budget;
            result |= dispAny;
            front_ready = count == 0 ? noWake : slab_[fq[head]].when;
        }
        fqHead_[s] = head;
        fqCount_[s] = count;
        frontReady_[s] = front_ready;
    }
    if (n > 0) {
        ++rr;
        dispatchRR_ = rr >= n ? 0 : rr;
    }

    if ((result & dispConfRob) != 0)
        ++t.confRob;
    if ((result & dispConfIntQ) != 0)
        ++t.confIntQueue;
    if ((result & dispConfFpQ) != 0)
        ++t.confFpQueue;
    if ((result & dispConfIntRegs) != 0)
        ++t.confIntRegs;
    if ((result & dispConfFpRegs) != 0)
        ++t.confFpRegs;
    return result;
}

[[gnu::always_inline]] inline bool
SmtCore::tryFetchOne(int slot, Tally &t)
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
        ++t.barriers;
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

    bool mispredicted = false;
    bool stop = false;
    if (op.cls == OpClass::Branch) {
        const bool predicted =
            bpred_.predictAndUpdate(cold.predSalt, op.pc, op.taken);
        if (predicted != op.taken) {
            mispredicted = true;
            if (!spin)
                ++t.branchMispredicts;
            // Park the front end until the branch resolves at issue.
            fetchStall_[s] = redirectPending;
            stop = true;
        } else if (op.taken) {
            stop = true; // a taken branch ends the fetch block
        }
    }

    // The instruction's one record, from here to commit.
    const std::uint32_t id = allocInst();
    InFlight &inst = slab_[id];
    inst.op = op;
    inst.op.srcA = op.srcA == NoReg ? noSrcReg : op.srcA;
    inst.op.srcB = op.srcB == NoReg ? noSrcReg : op.srcB;
    inst.op.dst = op.dst == NoReg ? noDstReg : op.dst;
    inst.regClass = op.dst == NoReg ? noRegs
                    : isFpReg(op.dst) ? fpRegs
                                      : intRegs;
    inst.when =
        cycle_ + static_cast<std::uint64_t>(params_.frontendDelay);
    inst.prodA = noInst;
    inst.prodB = noInst;
    inst.waiterHead = noInst;
    inst.ctx = static_cast<std::uint8_t>(slot);
    inst.waitCount = 0;
    inst.completed = false;
    inst.mispredicted = mispredicted;
    inst.spin = spin;

    std::uint32_t tail = fqHead_[s] + fqCount_[s];
    if (tail >= fetchStride_)
        tail -= fetchStride_;
    fetchRing_[s * fetchStride_ + tail] = id;
    if (fqCount_[s]++ == 0)
        frontReady_[s] = inst.when;
    ++icount_[s];
    if (!spin)
        ++t.fetched;
    return !stop;
}

[[gnu::always_inline]] inline bool
SmtCore::fetch(Tally &t)
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
    for (int k = 0; k < num_threads && budget > 0; ++k) {
        const int slot = picked[static_cast<std::size_t>(k)];
        const auto s = static_cast<std::size_t>(slot);
        bool fetched_any = false;
        while (budget > 0 && fqCount_[s] < fetchStride_) {
            const std::uint32_t before_count = fqCount_[s];
            const bool keep_going = tryFetchOne(slot, t);
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

    // Stage bookkeeping lands in a stack-local tally; the fold below
    // makes it visible (every PerfCounters field is additive).
    Tally t;
    const std::uint64_t end = cycle_ + cycles;
    while (cycle_ < end) {
        const bool committed = commit();
        // A scan below its queue's wake is skipped: every entry would
        // be passed over by the readiness guard, which mutates nothing
        // and raises no conflict flag, so the skip is architecturally
        // invisible. (The integer scan can only wake FP consumers for
        // later cycles, so testing both wakes up front is exact.)
        const bool scan_int = intQ_.wake <= cycle_;
        const bool scan_fp = fpQ_.wake <= cycle_;
        if (scan_int)
            issueInt(t);
        if (scan_fp)
            issueFp(t);
        const std::uint32_t disp = dispatch(t);
        const bool fetched = fetch(t);
        ++cycle_;
        if (committed || scan_int || scan_fp || (disp & dispAny) != 0 ||
            fetched)
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
            t.confRob += k;
        if ((disp & dispConfIntQ) != 0)
            t.confIntQueue += k;
        if ((disp & dispConfFpQ) != 0)
            t.confFpQueue += k;
        if ((disp & dispConfIntRegs) != 0)
            t.confIntRegs += k;
        if ((disp & dispConfFpRegs) != 0)
            t.confFpRegs += k;
        cycle_ = event;
        const int n = numActive_;
        if (n > 0) {
            commitRR_ = static_cast<int>(
                (static_cast<std::uint64_t>(commitRR_) + k) % n);
            dispatchRR_ = static_cast<int>(
                (static_cast<std::uint64_t>(dispatchRR_) + k) % n);
        }
    }

    PerfCounters d;
    d.cycles = cycles;
    const auto byClass = [&t](OpClass cls) {
        return t.dispatchedByClass[static_cast<std::size_t>(cls)];
    };
    SOS_ASSERT(byClass(OpClass::Barrier) == 0,
               "barriers never enter the dispatch stream");
    d.branches = byClass(OpClass::Branch);
    d.intOps =
        byClass(OpClass::IntAlu) + byClass(OpClass::IntMult) + d.branches;
    d.fpOps = byClass(OpClass::FpAdd) + byClass(OpClass::FpMult) +
              byClass(OpClass::FpDiv);
    d.loads = byClass(OpClass::Load);
    d.stores = byClass(OpClass::Store);
    d.dispatched = d.intOps + d.fpOps + d.loads + d.stores;
    d.fetched = t.fetched;
    d.issued = t.issued;
    d.spinOps = t.spinOps;
    d.barriers = t.barriers;
    d.branchMispredicts = t.branchMispredicts;
    d.confIntQueue = t.confIntQueue;
    d.confFpQueue = t.confFpQueue;
    d.confIntRegs = t.confIntRegs;
    d.confFpRegs = t.confFpRegs;
    d.confRob = t.confRob;
    d.confIntUnits = t.confIntUnits;
    d.confFpUnits = t.confFpUnits;
    d.confLsPorts = t.confLsPorts;
    for (int slot = 0; slot < params_.numContexts; ++slot) {
        const std::uint64_t retired = retired_[static_cast<std::size_t>(slot)];
        d.slotRetired[static_cast<std::size_t>(slot)] = retired;
        d.retired += retired;
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

} // namespace sos
