/**
 * @file
 * Cycle-level simultaneous multithreading out-of-order core.
 *
 * Models the pipeline the paper's evaluation rests on: ICOUNT.2.8
 * fetch across hardware contexts, shared rename register pools,
 * shared INT/FP issue queues (20/15 entries as on the 21264), a
 * shared reorder buffer ("scoreboard"), a pool of functional units,
 * and a shared memory hierarchy. Every structure a thread can be
 * denied in a cycle has a conflict counter; those counters are the
 * raw material of the SOS predictors.
 *
 * Deliberate simplifications (documented in DESIGN.md):
 *  - wrong-path instructions are not executed; a mispredicted branch
 *    stalls its thread's fetch until the branch resolves, plus a
 *    redirect penalty;
 *  - loads and stores occupy a load/store port rather than an integer
 *    unit subcluster;
 *  - rename registers are released at commit of the writing
 *    instruction.
 *
 * Hot-path layout (DESIGN.md section 9): per-thread pipeline state is
 * struct-of-arrays (`active_`, `icount_`, `fetchStall_`, ... indexed
 * by slot); each instruction lives in one slab record from fetch to
 * commit, and the per-context fetch queues and ROBs are rings of slab
 * ids; operand readiness is event-driven (a producer wakes its waiting
 * consumers straight into their issue queue when it issues, so the
 * issue scan never polls); and the issue queues and the commit stage
 * carry wake cycles that let whole scans be skipped when provably
 * nothing can change. All of it is layout and scheduling of the
 * *simulator*, not the simulated machine: counters and manifests are
 * bit-identical to the pre-rewrite core (pinned by
 * tests/test_smt_core_fastpath.cpp).
 */

#ifndef SOS_CPU_SMT_CORE_HH
#define SOS_CPU_SMT_CORE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "cpu/branch_predictor.hh"
#include "cpu/core_params.hh"
#include "cpu/perf_counters.hh"
#include "cpu/thread_binding.hh"
#include "mem/cache_hierarchy.hh"
#include "trace/trace_generator.hh"
#include "trace/uop.hh"

namespace sos {

/** The simulated SMT processor. */
class SmtCore
{
  public:
    /**
     * @param params Core configuration (validated; throws
     *        std::invalid_argument on a structurally invalid one).
     * @param mem This core's view of the machine's memory system
     *        (must outlive the core; see Machine).
     */
    SmtCore(const CoreParams &params, CacheHierarchy &mem);

    /**
     * Snapshot copy: duplicate @p other's complete pipeline state --
     * contexts, in-flight slab, issue queues, rename/ROB occupancy,
     * predictor, cycle and round-robin cursors -- on top of @p mem
     * (the copying Machine's matching memory view).  Active contexts
     * still point at the *original* mix's generators and sync domains;
     * the owner must rebindThread() every active slot to its own mix
     * copy before running the core.
     */
    SmtCore(const SmtCore &other, CacheHierarchy &mem);

    /** Bind a software thread to context slot (slot must be free). */
    void attachThread(int slot, const ThreadBinding &binding);

    /**
     * Swap the thread bound to an active slot for an equivalent one
     * (same ASID, a generator/sync-domain copy at the same position in
     * its stream).  Unlike attachThread this preserves every bit of
     * pipeline state -- nothing is squashed, no salt recomputed -- so
     * a snapshot fork resumes exactly where the original would.
     */
    void rebindThread(int slot, const ThreadBinding &binding);

    /**
     * Unbind the thread in the given slot, squashing its in-flight
     * instructions (the pipeline drain of a context switch).
     */
    void detachThread(int slot);

    /** True if the slot currently has a thread bound. */
    bool slotActive(int slot) const;

    /**
     * Simulate the given number of cycles, accumulating counters.
     * Per-slot retired counts land in counters.slotRetired.
     *
     * Stage bookkeeping accumulates into a local delta and flushes
     * into @p counters when the call returns (the batched-counter
     * contract: deltas become visible at run() boundaries, and every
     * counter is additive, so any partition of an interval across
     * run() calls sums to the same totals).
     */
    void run(std::uint64_t cycles, PerfCounters &counters);

    /** Absolute simulated cycle count since construction. */
    std::uint64_t now() const { return cycle_; }

    /** This core's memory view (for flushing and inspection). */
    CacheHierarchy &memory() { return mem_; }
    const CacheHierarchy &memory() const { return mem_; }

    /** The shared branch predictor (for inspection). */
    const BranchPredictor &predictor() const { return bpred_; }

    const CoreParams &params() const { return params_; }

    /** Instructions currently dispatched but not committed. */
    int inFlightCount() const;

    /**
     * Instantly retire everything in flight -- fetch queues, pending
     * icache-miss ops and the ROB -- crediting each non-spin
     * instruction's remaining stage counters into @p counters
     * (including slotRetired), so the fetch streams stay exactly where
     * the generators left them: a generator cannot rewind, so a
     * fidelity switch must account for every emitted uop exactly once.
     * Spin-loop ops are synthetic and are discarded uncounted, like a
     * squash. Clears fetch stalls (including mispredict redirects) and
     * the register scoreboards; barrier parking (atBarrier_) and fetch
     * line state survive. Used by the sampling controller right before
     * handing the core to the functional executor.
     */
    void drainInFlight(PerfCounters &counters);

    /** Print internal pipeline state to stderr (debugging aid). */
    void debugDump() const;

  private:
    /**
     * The functional fast-forward executor advances the same context
     * state (generators, barriers, fetch lines, predictor salts)
     * without per-cycle pipeline modeling; see
     * cpu/functional_executor.hh.
     */
    friend class FunctionalExecutor;
    /** White-box state queries of tests/test_smt_core_fastpath.cpp. */
    friend class SmtCoreTestPeer;

    /**
     * One instruction, from fetch to commit: fetch writes the µop into
     * a slab record and the fetch ring, then the ROB ring, hold its id.
     *
     * Operand readiness is event-driven: a consumer whose producer has
     * not issued yet registers itself on the producer's intrusive
     * waiter list (`waiterHead`/`nextA`/`nextB`); when the producer
     * issues, it walks the list and converts each waiting operand into
     * an exact ready cycle.  `when` spans the record's three disjoint
     * phases: in the fetch queue it is the earliest dispatch cycle;
     * from dispatch to issue it accumulates the max of the resolved
     * operand-available cycles (and dispatch+1); at issue it becomes
     * the completion cycle.  The instruction is schedulable once
     * `waitCount` drops to zero.  Producers are always older
     * same-context instructions, so a waiter list can never outlive
     * its members: a waiting consumer cannot issue or commit, and a
     * context squash frees producers and consumers together.
     *
     * Each record is one aligned cache line; the per-cycle issue scan
     * never touches it (see QEntry), only issue/wake/commit do.
     */
    struct alignas(64) InFlight
    {
        UOp op;
        /** Dispatch cycle in the fetch queue; ready, then completion. */
        std::uint64_t when = 0;
        /** Producers still being waited on (noInst once resolved). */
        std::uint32_t prodA = ~std::uint32_t{0};
        std::uint32_t prodB = ~std::uint32_t{0};
        /** Head of this instruction's waiting-consumer list. */
        std::uint32_t waiterHead = ~std::uint32_t{0};
        /** Waiter-list links (one per operand this entry waits with). */
        std::uint32_t nextA = ~std::uint32_t{0};
        std::uint32_t nextB = ~std::uint32_t{0};
        /** Dispatch-order stamp (wrapping; compared via int32 diff). */
        std::uint32_t age = 0;
        std::uint8_t ctx = 0;
        std::uint8_t waitCount = 0; ///< unresolved operands
        /** Rename pool of op.dst: intRegs, fpRegs or noRegs. */
        std::uint8_t regClass = 0;
        bool completed = false;
        bool mispredicted = false;
        /**
         * Busy-wait instruction from a barrier spin loop: occupies
         * pipeline resources like any other op but retires without
         * being counted as progress.
         */
        bool spin = false;
    };
    static_assert(sizeof(InFlight) == 64,
                  "InFlight must stay within one cache line");

    /**
     * Issue-queue record: everything the per-cycle scan needs without
     * touching the instruction slab.  Queues hold only schedulable
     * instructions (operands resolved), in dispatch order; an entry
     * whose ready cycle lies in the future is skipped right here, so
     * the scan's slab accesses are exactly the issue attempts.
     */
    struct QEntry
    {
        std::uint64_t readyAt = 0;
        std::uint32_t id = 0;
        std::uint32_t age = 0;
    };

    /**
     * An issue queue: schedulable instructions only, in dispatch (age)
     * order, in a fixed array of the queue's capacity.  `count` is the
     * occupancy the dispatch stage checks: every dispatched-not-issued
     * instruction of the class, whether it sits in the array or only on
     * producers' waiter lists, so the array never overflows.
     */
    struct IssueQueue
    {
        std::vector<QEntry> slots;
        std::uint32_t len = 0; ///< schedulable entries in slots
        int count = 0;
        /**
         * Earliest cycle the queue's scan could do anything: min over
         * schedulable entries of readyAt, clamped to cycle+1 for
         * entries denied a unit this cycle.  A scan at a cycle below
         * the wake is provably a no-op (every entry would be skipped by
         * the readyAt guard, which mutates nothing and raises no
         * conflict flag), so the issue stage skips it wholesale.
         */
        std::uint64_t wake = ~std::uint64_t{0};
    };

    /**
     * Architectural register scoreboard entry.  `ready` is the cycle
     * the last written value becomes available (0 if the writer has
     * long retired), or the pendingReg sentinel while the writer is
     * dispatched but not yet issued -- in which case `writer` names
     * the slab entry a consumer must wait on.
     */
    struct RegEntry
    {
        std::uint64_t ready = 0;
        std::uint32_t writer = ~std::uint32_t{0};
    };

    /**
     * Cold per-context state: touched at fetch/dispatch of individual
     * instructions, not scanned per cycle (the per-cycle stage loops
     * run over the struct-of-arrays members below instead).
     */
    struct CtxCold
    {
        ThreadBinding bind;
        UOp pendingOp; ///< op stalled behind an icache miss
        /** Architectural registers, then noSrcReg and noDstReg. */
        std::array<RegEntry, NumArchRegs + 2> regs{};
        std::uint64_t lastFetchLine = ~std::uint64_t{0};
        std::uint32_t predSalt = 0; ///< per-thread predictor salt
        std::uint32_t spinPhase = 0; ///< spin-loop op alternator
        bool hasPending = false;
    };

    /**
     * Stage counts of one run() call: a small local the inlined stages
     * count into, folded into PerfCounters when the call returns.
     * Dispatches are tallied per OpClass (one indexed add, no switch)
     * and retirements per slot in retired_.
     */
    struct Tally
    {
        std::array<std::uint64_t,
                   static_cast<std::size_t>(OpClass::Barrier) + 1>
            dispatchedByClass{};
        std::uint64_t fetched = 0;
        std::uint64_t issued = 0;
        std::uint64_t spinOps = 0;
        std::uint64_t barriers = 0;
        std::uint64_t branchMispredicts = 0;
        std::uint64_t confIntUnits = 0;
        std::uint64_t confFpUnits = 0;
        std::uint64_t confLsPorts = 0;
        std::uint64_t confRob = 0;
        std::uint64_t confIntQueue = 0;
        std::uint64_t confFpQueue = 0;
        std::uint64_t confIntRegs = 0;
        std::uint64_t confFpRegs = 0;
    };

    /** Sentinel: fetch stalled until a mispredicted branch resolves. */
    static constexpr std::uint64_t redirectPending = ~std::uint64_t{0};

    /** Sentinel: no instruction. */
    static constexpr std::uint32_t noInst = ~std::uint32_t{0};

    /** Sentinel: no wake scheduled (queue empty or all waiting). */
    static constexpr std::uint64_t noWake = ~std::uint64_t{0};

    /** Sentinel RegEntry::ready: writer dispatched, not yet issued. */
    static constexpr std::uint64_t pendingReg = ~std::uint64_t{0};

    /**
     * Scoreboard slots that stand in for NoReg once an op is in the
     * slab, so operand and writer bookkeeping needs no NoReg test:
     * noSrcReg is never written (always ready), noDstReg is written
     * but never read.
     */
    static constexpr std::uint8_t noSrcReg = NumArchRegs;
    static constexpr std::uint8_t noDstReg = NumArchRegs + 1;

    /** InFlight::regClass values, indexing renameFree_. */
    static constexpr std::uint8_t intRegs = 0;
    static constexpr std::uint8_t fpRegs = 1;
    static constexpr std::uint8_t noRegs = 2;

    /** dispatch() result bits (conflict flags + activity). */
    static constexpr std::uint32_t dispConfRob = 1u << 0;
    static constexpr std::uint32_t dispConfIntQ = 1u << 1;
    static constexpr std::uint32_t dispConfFpQ = 1u << 2;
    /** dispConfIntRegs << regClass is the class's rename conflict. */
    static constexpr std::uint32_t dispConfIntRegs = 1u << 3;
    static constexpr std::uint32_t dispConfFpRegs = 1u << 4;
    static constexpr std::uint32_t dispAny = 1u << 5;

    /**
     * The pipeline stages, in the order run() steps them each cycle.
     * They are defined in smt_core.cc, forced inline into run().
     * @{
     */
    /** @return true if anything committed. */
    bool commit();
    /** Scan the integer queue (int units and load/store ports). */
    void issueInt(Tally &t);
    /** Scan the FP queue. */
    void issueFp(Tally &t);
    /**
     * Issue bookkeeping shared by both scans: record the completion,
     * finalize the scoreboard, lower the commit wake if @p inst heads
     * its ROB, and wake its consumers.
     */
    void writeback(InFlight &inst, std::uint32_t id,
                   std::uint64_t completion, Tally &t);
    /** @return dispConf* flags raised plus dispAny on any dispatch. */
    std::uint32_t dispatch(Tally &t);
    /** @return true if any fetch slot was exercised or unblocked. */
    bool fetch(Tally &t);
    /** @} */

    /**
     * The executed cycle was architecturally idle: no commit, both
     * issue scans skipped, nothing dispatched, no fetch candidate.
     * Pipeline state is then frozen until the next event; @return the
     * earliest cycle at which any stage could act again (noWake if
     * none is scheduled -- the caller treats that as "run out the
     * interval").
     */
    std::uint64_t nextEventCycle() const;

    std::uint32_t allocInst();
    void releaseResources(const InFlight &inst);
    /** Free an instruction's slab record. */
    void freeInst(std::uint32_t id) { freeList_.push_back(id); }
    /** @return false if fetch for this thread stops this cycle. */
    bool tryFetchOne(int slot, Tally &t);
    void squashCtx(int slot);

    /** Rebuild the cached ascending active-slot list. */
    void rebuildActiveList();

    /**
     * Resolve one source operand at dispatch against the context's
     * register scoreboard: immediately available, available at a known
     * future cycle (folded into the ready cycle), or waiting on an
     * un-issued producer (registered on its waiter list).
     */
    void resolveOperand(InFlight &inst, std::uint32_t id,
                        const CtxCold &cold, std::uint8_t reg,
                        bool is_second);

    /**
     * Producer @p id issued with known completion @p complete_cycle:
     * walk its waiter list and convert each waiting operand into an
     * exact ready cycle; a consumer whose last operand resolves enters
     * its issue queue at its age position and wakes the queue.  A
     * consumer is younger than its producer and ready no earlier than
     * the next cycle, so when its queue is mid-scan it lands behind
     * the scan cursor and this scan only skips it.
     */
    void wakeWaiters(std::uint32_t id, std::uint64_t complete_cycle);

    /**
     * Insert @p entry into @p queue at its age position, searching
     * from the tail (a new entry is almost always the youngest).
     */
    static void enqueue(IssueQueue &queue, const QEntry &entry);

    /** Ring-buffer helpers (capacities are per-context strides). */
    std::uint32_t
    wrapFetch(std::uint32_t i) const
    {
        return i + 1 == fetchStride_ ? 0 : i + 1;
    }
    std::uint32_t
    wrapRob(std::uint32_t i) const
    {
        return i + 1 == robStride_ ? 0 : i + 1;
    }

    CoreParams params_;
    CacheHierarchy &mem_;
    BranchPredictor bpred_;

    /** @name Per-context state, struct-of-arrays (indexed by slot) @{ */
    std::array<std::uint8_t, MaxContexts> active_{};
    std::array<std::uint8_t, MaxContexts> atBarrier_{};
    std::array<std::uint16_t, MaxContexts> asid_{};
    std::array<std::int32_t, MaxContexts> icount_{};
    std::array<std::uint64_t, MaxContexts> fetchStall_{};
    std::array<std::uint64_t, MaxContexts> lastFetchCycle_{};
    std::array<std::uint64_t, MaxContexts> retired_{};
    /** Fetch rings of slab ids: ctx c owns fetchRing_[c*fetchStride_..]. */
    std::array<std::uint32_t, MaxContexts> fqHead_{};
    std::array<std::uint32_t, MaxContexts> fqCount_{};
    /** ROB rings of slab ids: ctx c owns robSlab_[c*robStride_ ...]. */
    std::array<std::uint32_t, MaxContexts> robHead_{};
    std::array<std::uint32_t, MaxContexts> robCount_{};
    /**
     * Earliest dispatch cycle of the fetch-queue front and earliest
     * retire cycle of the ROB head (its completion once it has
     * issued); noWake for an empty ring or an unissued head. The
     * dispatch and commit loops test these before touching the slab.
     */
    std::array<std::uint64_t, MaxContexts> frontReady_{};
    std::array<std::uint64_t, MaxContexts> headReady_{};
    /** @} */

    std::vector<CtxCold> cold_;
    std::vector<std::uint32_t> fetchRing_;
    std::vector<std::uint32_t> robSlab_;
    std::uint32_t fetchStride_ = 0;
    std::uint32_t robStride_ = 0;

    /** Cached ascending list of active slots (rebuilt on attach). */
    std::array<std::int32_t, MaxContexts> activeList_{};
    int numActive_ = 0;

    /**
     * Instruction records, sized robSize + contexts * fetchQueueSize + 8
     * so every fetched or dispatched instruction has one.
     */
    std::vector<InFlight> slab_;
    std::vector<std::uint32_t> freeList_;
    std::uint32_t ageCounter_ = 0;

    IssueQueue intQ_;
    IssueQueue fpQ_;

    /**
     * Earliest cycle any ROB head could retire: the minimum of
     * headReady_ over the active contexts, recomputed by every commit
     * walk and lowered when a head issues.  While it lies in the
     * future the commit stage only rotates its cursor; it never lies
     * later than the true minimum, so nextEventCycle() reads it too.
     */
    std::uint64_t commitWake_ = noWake;

    /** Free rename registers per regClass (noRegs never runs out). */
    std::array<int, 3> renameFree_{};
    int robFree_;

    std::array<std::uint64_t, 8> fpBusyUntil_{};

    /** L1I line shift, pre-resolved from the memory geometry. */
    std::uint32_t l1iLineShift_ = 0;
    /** Fetch policy, pre-resolved at construction (not per cycle). */
    bool roundRobinFetch_ = false;

    std::uint64_t cycle_ = 0;
    int commitRR_ = 0;
    int dispatchRR_ = 0;
};

} // namespace sos

#endif // SOS_CPU_SMT_CORE_HH
