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
 * by slot), fetch queues and per-thread ROBs are ring buffers in flat
 * slabs, operand readiness is event-driven (a producer wakes its
 * waiting consumers when it issues, so the issue scan never polls),
 * and each issue queue carries a wake cycle that lets whole scans be
 * skipped when provably nothing can change. All of it is layout and
 * scheduling of the *simulator*, not the simulated machine: counters
 * and manifests are bit-identical to the pre-rewrite core (pinned by
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

    /** Fetched, pre-dispatch instruction (fetch-queue ring element). */
    struct Fetched
    {
        UOp op;
        std::uint64_t readyAt = 0; ///< earliest dispatch cycle
        bool mispredicted = false;
        bool spin = false; ///< busy-wait op: consumes resources only
    };

    /**
     * Dispatched instruction tracked until commit.
     *
     * Operand readiness is event-driven: a consumer whose producer has
     * not issued yet registers itself on the producer's intrusive
     * waiter list (`waiterHead`/`nextA`/`nextB`); when the producer
     * issues, it walks the list and converts each waiting operand into
     * an exact ready cycle.  `when` does double duty across the entry's
     * two disjoint phases: before issue it accumulates the max of the
     * resolved operand-available cycles (and dispatch+1); at issue it
     * becomes the completion cycle.  The instruction is schedulable
     * once `waitCount` drops to zero.  Producers are always older
     * same-context instructions, so a waiter list can never outlive
     * its members: a waiting consumer cannot issue or commit, and a
     * context squash frees producers and consumers together.
     *
     * The whole entry fits one cache line; the per-cycle issue scan
     * never touches it (see QEntry), only issue/wake/commit do.
     */
    struct InFlight
    {
        UOp op;
        /** Ready cycle before issue; completion cycle after. */
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
        bool completed = false;
        bool mispredicted = false;
        /**
         * Busy-wait instruction from a barrier spin loop: occupies
         * pipeline resources like any other op but retires without
         * being counted as progress.
         */
        bool spin = false;
    };
    static_assert(sizeof(InFlight) <= 64,
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
        std::array<RegEntry, NumArchRegs> regs{};
        std::uint64_t lastFetchLine = ~std::uint64_t{0};
        std::uint32_t predSalt = 0; ///< per-thread predictor salt
        std::uint32_t spinPhase = 0; ///< spin-loop op alternator
        bool hasPending = false;
    };

    /** Sentinel: fetch stalled until a mispredicted branch resolves. */
    static constexpr std::uint64_t redirectPending = ~std::uint64_t{0};

    /** Sentinel: no instruction. */
    static constexpr std::uint32_t noInst = ~std::uint32_t{0};

    /** Sentinel: no wake scheduled (queue empty or all waiting). */
    static constexpr std::uint64_t noWake = ~std::uint64_t{0};

    /** Sentinel RegEntry::ready: writer dispatched, not yet issued. */
    static constexpr std::uint64_t pendingReg = ~std::uint64_t{0};

    /** doDispatch() result bits (conflict flags + activity). */
    static constexpr std::uint32_t dispConfRob = 1u << 0;
    static constexpr std::uint32_t dispConfIntQ = 1u << 1;
    static constexpr std::uint32_t dispConfFpQ = 1u << 2;
    static constexpr std::uint32_t dispConfIntRegs = 1u << 3;
    static constexpr std::uint32_t dispConfFpRegs = 1u << 4;
    static constexpr std::uint32_t dispAny = 1u << 5;

    /** @return true if anything committed. */
    bool doCommit(PerfCounters &pc);
    void doIssue(PerfCounters &pc);
    /** @return dispConf* flags raised plus dispAny on any dispatch. */
    std::uint32_t doDispatch(PerfCounters &pc);
    /** @return true if any fetch slot was exercised or unblocked. */
    bool doFetch(PerfCounters &pc);

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
    bool tryFetchOne(int slot, PerfCounters &pc);
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
     * exact ready cycle; a consumer whose last operand resolves is
     * appended to its queue's pending buffer and the queue woken.
     */
    void wakeWaiters(std::uint32_t id, std::uint64_t complete_cycle);

    /**
     * Fold the pending-wake buffer into the age-ordered queue (stable
     * dispatch-order merge; called at the top of a queue scan).
     */
    static void mergePending(std::vector<QEntry> &queue,
                             std::vector<QEntry> &pending);

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
    /** Fetch-queue rings: ctx c owns fetchSlab_[c*fetchStride_ ...]. */
    std::array<std::uint32_t, MaxContexts> fqHead_{};
    std::array<std::uint32_t, MaxContexts> fqCount_{};
    /** Per-thread ROB rings: ctx c owns robSlab_[c*robStride_ ...]. */
    std::array<std::uint32_t, MaxContexts> robHead_{};
    std::array<std::uint32_t, MaxContexts> robCount_{};
    /** @} */

    std::vector<CtxCold> cold_;
    std::vector<Fetched> fetchSlab_;
    std::vector<std::uint32_t> robSlab_;
    std::uint32_t fetchStride_ = 0;
    std::uint32_t robStride_ = 0;

    /** Cached ascending list of active slots (rebuilt on attach). */
    std::array<std::int32_t, MaxContexts> activeList_{};
    int numActive_ = 0;

    std::vector<InFlight> slab_;
    std::vector<std::uint32_t> freeList_;
    std::uint32_t ageCounter_ = 0;

    /**
     * Issue queues: schedulable instructions only, in dispatch (age)
     * order.  Consumers woken by a producer's issue land in the
     * pending buffer and are merged -- stable, by age -- at the top of
     * the next scan, so mid-scan wakes never mutate the queue being
     * walked.  Queue capacity counts every dispatched-not-issued
     * instruction of the class, whether it currently sits in the
     * queue, the pending buffer, or only on producers' waiter lists.
     */
    std::vector<QEntry> intQ_;
    std::vector<QEntry> fpQ_;
    std::vector<QEntry> intPend_;
    std::vector<QEntry> fpPend_;
    int intQCount_ = 0;
    int fpQCount_ = 0;
    /**
     * Earliest cycle the queue's scan could do anything: min over
     * schedulable entries of readyAt, clamped to cycle+1 for entries
     * denied a unit this cycle.  A scan at a cycle below the wake is
     * provably a no-op (every entry would be skipped by the readyAt
     * guard, which mutates nothing and raises no conflict flag), so
     * doIssue skips it wholesale.
     */
    std::uint64_t intQWake_ = noWake;
    std::uint64_t fpQWake_ = noWake;

    int intRenameFree_;
    int fpRenameFree_;
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
