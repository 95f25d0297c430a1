/**
 * @file
 * Simulated core: timing model, memory access, and the mark-bit ISA.
 *
 * The core charges cycles for instruction batches and memory accesses
 * and attributes them to execution phases (application code, STM read
 * barrier, validation, ...) so the Fig 12 / Fig 17 breakdowns can be
 * regenerated. Three micro-architectural effects the paper calls out
 * are modelled explicitly:
 *
 *  - ILP-friendly instruction batches (the STM fast path, §7.3) are
 *    charged n * ilpFactor cycles instead of n;
 *  - the conditional branch after loadtestmark depends on the load it
 *    follows and is charged depBranchPenalty (§7.3);
 *  - loadsetmark consumes a store-queue entry in addition to the load
 *    port (§7), modelled with a bounded store-retire ring.
 *
 * Host-side fast paths (no simulated-behaviour change): every data
 * access (loads, stores, CASes, the mark-bit and HTM loads) tries
 * MemSystem::tryL1Hit() before the full access(); the
 * ILP and MetaScope charges come from integer tables built from
 * TimingParams at construction; the store queue is a fixed ring of
 * storeQueueSize slots; the current phase is cached beside the phase
 * stack.
 */

#ifndef HASTM_CPU_CORE_HH
#define HASTM_CPU_CORE_HH

#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mem/mem_system.hh"
#include "sim/scheduler.hh"
#include "sim/types.hh"

namespace hastm {

class FaultInjector;

/** Execution phases for cycle attribution (Fig 12 categories + ours). */
enum class Phase : std::uint8_t {
    App,          //!< application code inside / outside transactions
    TxBegin,      //!< transaction setup
    TlsAccess,    //!< descriptor (TLS) lookup
    RdBarrier,    //!< stmRdBar and its logging
    WrBarrier,    //!< stmWrBar, record acquisition, undo logging
    Validate,     //!< read-set validation (and mark-counter checks)
    Commit,       //!< commit processing (record release)
    Abort,        //!< rollback processing
    Contention,   //!< spinning / backoff in contention management
    Lock,         //!< lock acquire/release (lock baselines)
    Gc,           //!< garbage collection
    NumPhases
};

/** Printable name for a phase. */
const char *phaseName(Phase p);

/** Core timing parameters. */
struct TimingParams
{
    double ilpFactor = 0.55;      //!< cycle discount for ILP batches
    /**
     * Latency factor for runtime-metadata accesses (transaction
     * records, log appends, TLS, validation walks) issued inside a
     * Core::MetaScope. On the paper's OOO hardware these independent
     * accesses overlap with the application's own data misses ("the
     * STM code sequences are friendly to out of order execution",
     * §7.3); an in-order additive model must discount them or it
     * overstates every software-TM overhead ~2x.
     */
    double metaOverlap = 0.25;
    Cycles depBranchPenalty = 2;  //!< loadtestmark -> jnae resolution
    Cycles casLat = 12;           //!< extra cycles for a CAS
    unsigned storeQueueSize = 32; //!< in-flight stores; at least 1
    Cycles storeRetireLat = 3;    //!< store-queue occupancy per store
    Cycles interruptQuantum = 0;  //!< 0 = no interrupt injection
    Cycles interruptCost = 2000;  //!< cycles charged per interrupt
};

/**
 * One simulated core (one hardware context unless SMT is enabled via
 * setSmt()). All methods must be called from the scheduler thread
 * bound to this core; every method charges its cycles through the
 * scheduler, which is the only interleaving point — each core
 * operation is therefore atomic with respect to other cores.
 */
class Core : public MemListener
{
  public:
    Core(CoreId id, MemSystem &mem, Scheduler &sched,
         const TimingParams &timing);

    CoreId id() const { return id_; }

    // ---- instruction execution ----

    /** Execute @p n dependent (serial) simple instructions. */
    void execInstr(unsigned n);

    /** Execute @p n instructions that overlap well (ILP discount). */
    void execInstrIlp(unsigned n);

    /** Charge the penalty of a branch dependent on the last load. */
    void dependentBranch();

    /** Burn @p c cycles (backoff / spin wait). */
    void stall(Cycles c);

    // ---- plain data accesses (through the cache hierarchy) ----

    /**
     * While alive, memory accesses charge metaOverlap x latency:
     * they model runtime-metadata traffic that overlaps application
     * work on an out-of-order core. Functional and coherence effects
     * are unchanged — only the time charge shrinks.
     */
    class MetaScope
    {
      public:
        explicit MetaScope(Core &core) : core_(core)
        {
            ++core_.metaDepth_;
        }
        ~MetaScope() { --core_.metaDepth_; }
        MetaScope(const MetaScope &) = delete;
        MetaScope &operator=(const MetaScope &) = delete;

      private:
        Core &core_;
    };

    template <typename T>
    T
    load(Addr a)
    {
        AccessResult r = dataAccess(a, sizeof(T), false);
        T v = mem_.arena().read<T>(a);
        countAccess(r, false);
        noteInstr(1);
        advance(memLatency(r.latency));
        return v;
    }

    template <typename T>
    void
    store(Addr a, T v)
    {
        // Coherence first: a remote speculative writer of this line
        // gets aborted (restoring its pre-transaction values) before
        // our value lands, so the rollback cannot clobber it.
        AccessResult r = dataAccess(a, sizeof(T), true);
        mem_.arena().write<T>(a, v);
        countAccess(r, true);
        noteInstr(1);
        advance(memLatency(r.latency) + storeQueuePush());
    }

    /**
     * Atomic compare-and-swap on a simulated word.
     * @return the value observed (equals @p expected on success).
     */
    template <typename T>
    T
    cas(Addr a, T expected, T desired)
    {
        // As in store(): resolve conflicts (aborting speculative
        // remote writers) before reading the committed value.
        AccessResult r = dataAccess(a, sizeof(T), true);
        T old = mem_.arena().read<T>(a);
        if (old == expected)
            mem_.arena().write<T>(a, desired);
        countAccess(r, true);
        noteInstr(1);
        advance(memLatency(r.latency) + timing_.casLat + storeQueuePush());
        return old;
    }

    // ---- HTM support operations (used by htm::HtmMachine) ----

    /**
     * Transactional load: load T at @p a and tag the line as
     * speculatively read. @p tracked receives false when the line
     * could not be tagged (capacity abort required).
     */
    template <typename T>
    T
    loadSpec(Addr a, bool &tracked)
    {
        AccessResult r = dataAccess(a, sizeof(T), false);
        T v = mem_.arena().read<T>(a);
        tracked = mem_.setSpec(id_, a, sizeof(T), false);
        countAccess(r, false);
        noteInstr(1);
        advance(memLatency(r.latency));
        return v;
    }

    /**
     * Low-level coherence access without the functional data
     * movement or the time charge. The HTM machine composes its
     * speculative store from this so it can observe a self-abort
     * (triggered by this very access's evictions) before committing
     * the functional write to the arena.
     */
    AccessResult
    memAccess(Addr a, unsigned size, bool is_write)
    {
        AccessResult r = dataAccess(a, size, is_write);
        countAccess(r, is_write);
        return r;
    }

    /** Charge the time for a memAccess()-started operation. */
    void
    finishAccess(const AccessResult &r, bool is_store)
    {
        noteInstr(1);
        advance(memLatency(r.latency) + (is_store ? storeQueuePush() : 0));
    }

    // ---- mark-bit ISA (§3; implemented in mark_isa.cc) ----

    /**
     * Select the full hardware implementation (default) or the
     * paper's §3.3 default implementation, under which marking is a
     * no-op and the mark counter increments on every loadSetMark.
     */
    void setFullMarkIsa(bool full) { fullMarkIsa_ = full; }

    /**
     * loadsetmark: load T at @p a, mark [a, a+gran). gran=0 =>
     * sizeof(T). @p filter selects one of the independent mark-bit
     * sets (§3: multiple concurrent filters); 0 is the read-barrier
     * filter, 1 the write-filtering extension's.
     */
    template <typename T> T loadSetMark(Addr a, unsigned gran = 0,
                                        unsigned filter = 0);

    /** loadresetmark: load T at @p a, clear marks over [a, a+gran). */
    template <typename T> T loadResetMark(Addr a, unsigned gran = 0,
                                          unsigned filter = 0);

    /**
     * loadtestmark: load T at @p a; @p marked receives the AND of the
     * covered mark bits (the carry flag of the paper's encoding).
     */
    template <typename T> T loadTestMark(Addr a, bool &marked,
                                         unsigned gran = 0,
                                         unsigned filter = 0);

    /** Full-line (64-byte granularity) helpers used by Figs 7 and 9. */
    template <typename T> T loadSetMarkLine(Addr a, unsigned filter = 0);
    template <typename T> T loadTestMarkLine(Addr a, bool &marked,
                                             unsigned filter = 0);

    /** resetmarkall: clear a filter's marks, increment its counter. */
    void resetMarkAll(unsigned filter = 0);

    /** resetmarkcounter. */
    void resetMarkCounter(unsigned filter = 0);

    /** readmarkcounter. */
    std::uint64_t readMarkCounter(unsigned filter = 0);

    // ---- phase attribution ----

    void pushPhase(Phase p);
    void popPhase();
    Cycles phaseCycles(Phase p) const;
    std::uint64_t phaseInstrs(Phase p) const;

    /** RAII phase scope. */
    class PhaseScope
    {
      public:
        PhaseScope(Core &core, Phase p) : core_(core)
        {
            core_.pushPhase(p);
        }
        ~PhaseScope() { core_.popPhase(); }
        PhaseScope(const PhaseScope &) = delete;
        PhaseScope &operator=(const PhaseScope &) = delete;

      private:
        Core &core_;
    };

    // ---- counters / wiring ----

    Cycles cycles() const { return totalCycles_; }
    std::uint64_t instructions() const { return totalInstrs_; }
    std::uint64_t loads() const { return loads_; }
    std::uint64_t stores() const { return stores_; }
    std::uint64_t l1HitLoads() const { return l1HitLoads_; }

    MemSystem &mem() { return mem_; }
    Scheduler &sched() { return sched_; }
    const TimingParams &timing() const { return timing_; }

    /** Select the active SMT context for subsequent operations. */
    void setSmt(SmtId smt);
    SmtId smt() const { return smt_; }

    /** HTM machine hook: receives spec-line losses for this core. */
    void setSpecHandler(std::function<void(SpecLoss)> handler);

    /**
     * Arm deterministic fault injection on this core: @p f fires once
     * cycles() reaches @p due and returns the next due time. Pass
     * nullptr to disarm. (sim/fault.hh.)
     */
    void setFaultInjector(FaultInjector *f, Cycles due);

    /**
     * Model an OS context switch hitting this core: charge @p cost
     * cycles, wipe every SMT context's mark state (marks do not
     * survive a switch, §3) and all speculative state, then yield.
     * Unlike the quantum-based interrupt() path this clears all
     * contexts/filters — a core-wide preemption, not a ring crossing.
     */
    void injectContextSwitch(Cycles cost);

    /** Reset all per-core counters (between experiment phases). */
    void resetCounters();

    // MemListener interface (driven by MemSystem).
    void marksDiscarded(SmtId smt, unsigned filter,
                        unsigned count) override;
    void specLost(SpecLoss why) override;

  private:
    friend class PhaseScope;

    /** Charge cycles, attribute to the current phase, maybe yield. */
    void
    advance(Cycles c)
    {
        totalCycles_ += c;
        phaseCycles_[std::size_t(phase_)] += c;
        if (timing_.interruptQuantum > 0)
            sinceInterrupt_ += c;
        sched_.advance(c);
        if (timing_.interruptQuantum > 0 &&
            sinceInterrupt_ >= timing_.interruptQuantum)
            interrupt();
        if (totalCycles_ >= faultDue_)
            maybeFault();
    }

    /** A data access: the inline L1-hit path, else the full access. */
    AccessResult
    dataAccess(Addr a, unsigned size, bool is_write)
    {
        AccessResult r;
        if (!mem_.tryL1Hit(id_, a, size, is_write, r))
            r = mem_.access(id_, smt_, a, size, is_write);
        return r;
    }

    /** Latency charge for a memory access, honouring MetaScope. */
    Cycles
    memLatency(Cycles lat) const
    {
        if (metaDepth_ == 0)
            return lat;
        return lat < metaCycles_.size() ? metaCycles_[lat]
                                        : metaCharge(lat);
    }

    /** MetaScope charge for @p lat (metaCycles_ holds lat < 256). */
    Cycles
    metaCharge(Cycles lat) const
    {
        return static_cast<Cycles>(
            static_cast<double>(lat) * timing_.metaOverlap + 0.999);
    }

    /** ILP-batch charge for @p n (ilpCycles_ holds n < 64). */
    Cycles
    ilpCharge(unsigned n) const
    {
        return static_cast<Cycles>(
            std::ceil(static_cast<double>(n) * timing_.ilpFactor));
    }

    /** Count @p n retired instructions against the current phase. */
    void
    noteInstr(unsigned n)
    {
        totalInstrs_ += n;
        phaseInstrs_[std::size_t(phase_)] += n;
    }

    /** Count an access; track L1-hit loads for reuse statistics. */
    void countAccess(const AccessResult &r, bool is_write);

    /** Model store-queue occupancy; returns stall cycles. */
    Cycles storeQueuePush();

    /** Inject an OS interrupt (ring transition); the quantum is due. */
    void interrupt();

    /** Fire the fault injector if its due time has passed. */
    void maybeFault();

    CoreId id_;
    SmtId smt_ = 0;
    MemSystem &mem_;
    Scheduler &sched_;
    TimingParams timing_;
    bool fullMarkIsa_ = true;

    std::array<std::array<std::uint64_t, kNumFilters>, kMaxSmt>
        markCounter_{};

    std::vector<Phase> phaseStack_{Phase::App};
    Phase phase_ = Phase::App;        //!< phaseStack_.back()
    std::array<Cycles, std::size_t(Phase::NumPhases)> phaseCycles_{};
    std::array<std::uint64_t, std::size_t(Phase::NumPhases)> phaseInstrs_{};

    Cycles totalCycles_ = 0;
    std::uint64_t totalInstrs_ = 0;
    std::uint64_t loads_ = 0;
    std::uint64_t stores_ = 0;
    std::uint64_t l1HitLoads_ = 0;

    /** Retire times of in-flight stores: a ring, oldest at sqHead_. */
    std::vector<Cycles> storeQueue_;
    unsigned sqHead_ = 0;
    unsigned sqCount_ = 0;
    std::array<Cycles, 64> ilpCycles_{};    //!< ilpCharge(n), n < 64
    std::array<Cycles, 256> metaCycles_{};  //!< metaCharge(lat), lat < 256
    unsigned metaDepth_ = 0;          //!< live MetaScope count
    Cycles sinceInterrupt_ = 0;

    FaultInjector *fault_ = nullptr;  //!< armed injector (may be null)
    Cycles faultDue_ = ~Cycles(0);    //!< next injection point
    bool inFault_ = false;            //!< re-entrancy guard for fire()

    std::function<void(SpecLoss)> specHandler_;
};

} // namespace hastm

#endif // HASTM_CPU_CORE_HH
