/**
 * @file
 * The scheme-independent transactional-memory interface.
 *
 * Workloads are written once against TmThread and run unchanged under
 * every concurrency-control scheme the paper evaluates: sequential,
 * coarse lock, base STM, HASTM (and its ablations), HyTM, and the
 * naive always-aggressive policy of §7.4.
 *
 * Objects are 16-byte-header entities ([transaction record][gc meta]
 * followed by 8-byte fields); readField/writeField resolve the datum's
 * transaction record per the configured conflict-detection
 * granularity (§4): the header record in object mode, the global
 * hashed table in cache-line mode.
 */

#ifndef HASTM_STM_TM_IFACE_HH
#define HASTM_STM_TM_IFACE_HH

#include <array>
#include <cstdint>
#include <functional>

#include "sim/fault.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hastm {

class Core;

/** Conflict-detection granularity (§4). */
enum class Granularity : std::uint8_t {
    CacheLine,  //!< hashed global record table, bits 6..17
    Word,       //!< hashed table keyed by 8-byte word (fewer false
                //!< conflicts, more records touched; §4's "cache line
                //!< or word granularity" for unmanaged environments)
    Object,     //!< record embedded in the object header
};

const char *granularityName(Granularity g);

/** Concurrency-control schemes the harness can instantiate. */
enum class TmScheme : std::uint8_t {
    Sequential,     //!< no synchronisation (1 thread only)
    Lock,           //!< one coarse lock per session
    Stm,            //!< base STM (§4)
    Hastm,          //!< HASTM, cautious+aggressive policy (§5, §6)
    HastmCautious,  //!< HASTM pinned to cautious mode (Fig 17)
    HastmNoReuse,   //!< HASTM without read-barrier filtering (Fig 17)
    HastmNaive,     //!< always aggressive first, cautious on abort (§7.4)
    Hytm,           //!< hybrid TM, best-case all-hardware (Fig 14)
    Adaptive,       //!< online per-site arbitration (adaptive/adaptive.hh)
};

const char *tmSchemeName(TmScheme s);

/**
 * Execution rungs the adaptive runtime arbitrates between, ordered
 * from most optimistic (hardware-first) to most conservative. The
 * hardware rung is the HyTM comparator — in this codebase the
 * "HTM-first" and "HyTM" policies coincide, because every hardware
 * transaction already carries the record-check barriers that make it
 * safe to run concurrently with any software rung. Serial is the
 * guaranteed-progress backstop (stm/irrevocable.hh).
 */
enum class AdaptiveMode : std::uint8_t {
    Hytm,           //!< hardware execution (HyTM barriers)
    Hastm,          //!< HASTM, §6 cautious/aggressive policy
    HastmCautious,  //!< HASTM pinned cautious (no spurious aborts)
    Stm,            //!< base STM (no mark maintenance at all)
    Serial,         //!< serial-irrevocable from the first instruction
};

constexpr unsigned kNumAdaptiveModes = 5;

const char *adaptiveModeName(AdaptiveMode m);

/** Object layout constants. */
constexpr unsigned kObjHeaderBytes = 16;  //!< [txrec 8][gc meta 8]
constexpr unsigned kTxRecOff = 0;
constexpr unsigned kGcMetaOff = 8;

/**
 * Encoding of the per-object GC metadata word: field-area size in
 * bytes (low 24 bits) and a pointer map (bit 24+i set when 8-byte
 * field slot i holds an object reference). Bit 63 flags a forwarded
 * object during collection. This is the log/object metadata the
 * paper requires for precise GC (§2, §4).
 */
namespace objmeta {

constexpr std::uint64_t kForwarded = 1ull << 63;

/** Every 8-byte field slot holds an object reference (wide arrays). */
constexpr std::uint64_t kAllPtrFields = 1ull << 62;

inline std::uint64_t
make(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    return (field_bytes & 0xffffff) |
           (static_cast<std::uint64_t>(ptr_mask) << 24);
}

inline std::uint64_t
makeAllPtrs(std::size_t field_bytes)
{
    return (field_bytes & 0xffffff) | kAllPtrFields;
}

inline bool allPtrs(std::uint64_t m) { return (m & kAllPtrFields) != 0; }

inline std::size_t size(std::uint64_t m) { return m & 0xffffff; }

inline std::uint32_t
ptrMask(std::uint64_t m)
{
    return static_cast<std::uint32_t>((m >> 24) & 0xffffffff);
}

inline bool forwarded(std::uint64_t m) { return (m & kForwarded) != 0; }

} // namespace objmeta

/** Why a transaction aborted (attribution for diagnostics/traces). */
enum class AbortKind : std::uint8_t {
    Unknown,          //!< scheme could not attribute the abort
    Validation,       //!< read-set validation found a stale read
    CmKill,           //!< contention manager self-abort
    SpuriousCounter,  //!< HASTM aggressive abort on counter != 0
    HtmConflict,      //!< hardware conflict abort
    HtmCapacity,      //!< hardware capacity abort
    HtmExplicit,      //!< explicit xabort (e.g. HyTM record owned)
};

constexpr unsigned kNumAbortKinds = 7;

const char *abortKindName(AbortKind k);

/**
 * Thrown when a transaction must abort due to a conflict. Carries the
 * conflicting transaction record (kNullAddr when there is none, e.g.
 * spurious aborts) and the abort kind so contention diagnostics and
 * fault traces can attribute every abort.
 */
struct TxConflictAbort
{
    Addr rec = kNullAddr;
    AbortKind kind = AbortKind::Unknown;
};

/**
 * Actions the native backend's fault injector can perform
 * (native/native_fault.hh). Declared here, next to the stats block
 * that counts them, so TmStats needs no native-layer include.
 */
enum class NativeFaultKind : std::uint8_t {
    Yield,          //!< bounded burst of sched_yield calls
    SpinDelay,      //!< bounded busy-spin delay
    Starve,         //!< priority-starvation delay (window victim)
    ExtensionFail,  //!< forced timestamp-extension failure
    CmKill,         //!< spurious contention-manager kill
    GateStall,      //!< sleep at a serial-gate transition
};

constexpr unsigned kNumNativeFaultKinds = 6;

const char *nativeFaultKindName(NativeFaultKind k);

/** Thrown by retry(): roll back and wait for the read set to change. */
struct TxRetryRequest {};

/** Thrown by userAbort(): roll back and leave the atomic block. */
struct TxUserAbort {};

/** Per-thread outcome counters every scheme maintains. */
struct TmStats
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;          //!< conflict aborts (all levels)
    std::uint64_t nestedCommits = 0;
    std::uint64_t nestedAborts = 0;
    std::uint64_t retries = 0;         //!< retry() waits
    std::uint64_t userAborts = 0;
    std::uint64_t fastValidations = 0; //!< mark-counter short-circuits
    std::uint64_t fullValidations = 0;
    std::uint64_t rdFastHits = 0;      //!< HASTM 2-instruction fast path
    std::uint64_t rdBarriers = 0;
    std::uint64_t wrBarriers = 0;
    std::uint64_t wrFastHits = 0;      //!< write-filter fast path
    std::uint64_t undoElided = 0;      //!< undo appends skipped
    std::uint64_t aggressiveCommits = 0;
    std::uint64_t aggressiveAborts = 0; //!< spurious (counter != 0)
    std::uint64_t htmAborts = 0;        //!< hardware conflicts/capacity
    std::uint64_t htmCapacityAborts = 0; //!< capacity subset of the above
    std::uint64_t cmKills = 0;          //!< contention-manager self-aborts
    std::uint64_t irrevocableEntries = 0; //!< serial-irrevocable escalations

    // ---- native snapshot-clock protocol (native/native_stm.hh) ----
    std::uint64_t extensions = 0;        //!< successful timestamp extensions
    std::uint64_t extensionFailures = 0; //!< extensions that found a stale read
    std::uint64_t bloomFalsePositives = 0; //!< write-bloom hits with no log entry
    std::uint64_t clockBumpsSkipped = 0; //!< commits that left the clock alone

    // ---- false-conflict accounting (stm/conflict_class.hh) ----
    // Conflict aborts that named a record, classified by whether the
    // parties' 64-byte-line sets actually overlap. Aliased conflicts
    // are artifacts of the record-table geometry; sharding the table
    // (StmConfig::recShardPerArena) is the cure being measured.
    std::uint64_t conflictsTrue = 0;         //!< lines overlap
    std::uint64_t conflictsAliased = 0;      //!< same record, disjoint lines
    std::uint64_t conflictsUnclassified = 0; //!< no footprint info

    // ---- adaptive-runtime decision counters (TmScheme::Adaptive) ----
    std::uint64_t adaptiveSwitches = 0; //!< steady-state mode changes
    std::uint64_t adaptiveProbes = 0;   //!< bounded-regret probe windows

    /** Transactions dispatched to each AdaptiveMode rung. */
    std::array<std::uint64_t, kNumAdaptiveModes> adaptiveDispatch{};

    /** Top-level aborts attributed by kind (sums to `aborts`). */
    std::array<std::uint64_t, kNumAbortKinds> abortsByKind{};

    /**
     * Injected faults by FaultKind. Only the harness fills this (from
     * the machine-wide injector, on the session-total stats); the
     * per-thread entries stay zero.
     */
    std::array<std::uint64_t, kNumFaultKinds> faultsInjected{};

    /**
     * Native-backend fault injector events by NativeFaultKind
     * (native/native_fault.hh). Unlike faultsInjected, these are
     * counted per-thread by the thread the fault fired on, so the
     * per-thread entries are meaningful and merge() gives the
     * campaign totals.
     */
    std::array<std::uint64_t, kNumNativeFaultKinds> nativeFaultsInjected{};

    // ---- distributions (Fig 12/17-style diagnostics, JSON reports) ----
    Histogram readSetAtCommit;  //!< read-set entries per committed txn
    Histogram undoLogAtCommit;  //!< undo-log entries per committed txn
    Histogram retriesPerCommit; //!< conflict re-executions per commit
    Histogram aliasedLinesAtAbort; //!< aborter's lines under the record
                                   //!< at each aliased conflict

    /** Accumulate @p s into this (session totals). */
    void
    merge(const TmStats &s)
    {
        commits += s.commits;
        aborts += s.aborts;
        nestedCommits += s.nestedCommits;
        nestedAborts += s.nestedAborts;
        retries += s.retries;
        userAborts += s.userAborts;
        fastValidations += s.fastValidations;
        fullValidations += s.fullValidations;
        rdFastHits += s.rdFastHits;
        rdBarriers += s.rdBarriers;
        wrBarriers += s.wrBarriers;
        wrFastHits += s.wrFastHits;
        undoElided += s.undoElided;
        aggressiveCommits += s.aggressiveCommits;
        aggressiveAborts += s.aggressiveAborts;
        htmAborts += s.htmAborts;
        htmCapacityAborts += s.htmCapacityAborts;
        cmKills += s.cmKills;
        irrevocableEntries += s.irrevocableEntries;
        extensions += s.extensions;
        extensionFailures += s.extensionFailures;
        bloomFalsePositives += s.bloomFalsePositives;
        clockBumpsSkipped += s.clockBumpsSkipped;
        conflictsTrue += s.conflictsTrue;
        conflictsAliased += s.conflictsAliased;
        conflictsUnclassified += s.conflictsUnclassified;
        adaptiveSwitches += s.adaptiveSwitches;
        adaptiveProbes += s.adaptiveProbes;
        for (unsigned m = 0; m < kNumAdaptiveModes; ++m)
            adaptiveDispatch[m] += s.adaptiveDispatch[m];
        for (unsigned k = 0; k < kNumAbortKinds; ++k)
            abortsByKind[k] += s.abortsByKind[k];
        for (unsigned k = 0; k < kNumFaultKinds; ++k)
            faultsInjected[k] += s.faultsInjected[k];
        for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
            nativeFaultsInjected[k] += s.nativeFaultsInjected[k];
        readSetAtCommit.merge(s.readSetAtCommit);
        undoLogAtCommit.merge(s.undoLogAtCommit);
        retriesPerCommit.merge(s.retriesPerCommit);
        aliasedLinesAtAbort.merge(s.aliasedLinesAtAbort);
    }
};

/**
 * Well-known transaction-site identifiers. A "site" is the static
 * atomic block a transaction was issued from; the adaptive runtime
 * keeps one profile per site so structurally different transactions
 * (a read-only lookup vs. a full-table checksum) are arbitrated
 * independently. Workloads tag the site with TmThread::setSite()
 * right before the atomic block; untagged blocks share kGeneric.
 */
namespace txsite {

constexpr std::uint32_t kGeneric = 0;
constexpr std::uint32_t kDsContains = 1;
constexpr std::uint32_t kDsInsert = 2;
constexpr std::uint32_t kDsRemove = 3;
constexpr std::uint32_t kDsChecksum = 4;
constexpr std::uint32_t kDsSize = 5;
constexpr std::uint32_t kDsInvariant = 6;
constexpr std::uint32_t kMicro = 7;
constexpr std::uint32_t kPhaseShift = 8;

} // namespace txsite

/**
 * One thread's view of the TM runtime, independent of the execution
 * substrate. TmExec owns the retry/commit driver (atomic(),
 * atomicOrElse()) and the scheme hooks it calls; it never touches a
 * simulator Core, so the same workloads and the same driver run over
 * the cycle-level simulator (TmThread and its schemes) and over real
 * host threads (NativeThread in native/). Workloads charge modelled
 * instruction costs through simInstr()/simInstrIlp(), which are
 * no-ops outside the simulator.
 */
class TmExec
{
  public:
    TmExec() = default;
    virtual ~TmExec() = default;
    TmExec(const TmExec &) = delete;
    TmExec &operator=(const TmExec &) = delete;

    /**
     * Run @p fn atomically, re-executing on conflicts until it
     * commits (or leaves via userAbort()). Virtual so the adaptive
     * front-end can route whole transactions to an inner scheme.
     * @return true if committed, false if user-aborted.
     */
    virtual bool atomic(const std::function<void()> &fn);

    /**
     * Composable alternative: run @p first; if it calls retry(), roll
     * it back and run @p second instead; if both retry, wait for a
     * change and re-execute (the retry-orElse of [11], §5).
     */
    virtual bool atomicOrElse(const std::function<void()> &first,
                              const std::function<void()> &second);

    // ---- data access inside a transaction ----

    /** Read a raw 8-byte word (cache-line granularity record). */
    virtual std::uint64_t readWord(Addr a) = 0;

    /**
     * Write a raw 8-byte word. @p is_ptr tags the undo-log entry as
     * holding an object reference so a moving GC can fix it up.
     */
    virtual void writeWord(Addr a, std::uint64_t v, bool is_ptr = false) = 0;

    /** Read field at byte offset @p off of the object at @p obj. */
    virtual std::uint64_t readField(Addr obj, unsigned off) = 0;

    /** Write field at byte offset @p off of the object at @p obj. */
    virtual void writeField(Addr obj, unsigned off, std::uint64_t v,
                            bool is_ptr = false) = 0;

    /**
     * Block until some previously read location may have changed,
     * then re-execute the atomic block (condition synchronisation).
     */
    [[noreturn]] void retry();

    /** Roll back and exit the atomic block without retrying. */
    [[noreturn]] void userAbort();

    /**
     * Allocate a 16-byte-header object with @p field_bytes of field
     * storage; automatically released if the transaction aborts.
     * @p ptr_mask marks which 8-byte field slots hold object refs.
     */
    virtual Addr txAlloc(std::size_t field_bytes,
                         std::uint32_t ptr_mask = 0) = 0;

    /** Free an object; deferred until commit (abort cancels it). */
    virtual void txFree(Addr obj) = 0;

    /**
     * Validate the transaction's reads immediately; aborts (throws)
     * if stale. Workloads call this from defensive traversal bounds.
     */
    virtual void validateNow() {}

    /** True while executing inside an atomic block. */
    virtual bool inTx() const = 0;

    // ---- modelled-cost hooks ----
    //
    // Workloads charge their non-memory work (compares, dispatch,
    // call overhead) through these so the simulated figures include
    // it; the native backend runs the real instructions and charges
    // nothing.

    /** Charge @p n dependent instructions (no-op off-simulator). */
    virtual void simInstr(unsigned n) { (void)n; }

    /** Charge @p n independent instructions (no-op off-simulator). */
    virtual void simInstrIlp(unsigned n) { (void)n; }

    /**
     * Outcome counters. Virtual so composite schemes (adaptive) can
     * merge their inner threads' counters on demand.
     */
    virtual const TmStats &stats() const { return stats_; }

    /** Zero the outcome counters (harness: after the populate phase). */
    virtual void resetStats() { stats_ = TmStats{}; }

    /**
     * Tag the static transaction site the next atomic blocks belong
     * to (txsite constants). Only the adaptive runtime reads it; the
     * tag is free for every other scheme. Virtual so decorators
     * (service/executor.hh) can forward the tag to the thread that
     * actually dispatches.
     */
    virtual void setSite(std::uint32_t site) { site_ = site; }
    virtual std::uint32_t site() const { return site_; }

    /**
     * Cycle stamp taken at the last successful commit's serialization
     * point (validation success / hardware commit / lock release).
     * The oracle (harness/oracle.hh) orders operations by it.
     */
    Cycles commitStamp() const { return commitStamp_; }

    /** True while this thread runs in serial-irrevocable mode. */
    virtual bool inIrrevocable() const { return false; }

  protected:
    // ---- scheme hooks driven by the atomic() loop ----

    /** Start a (top-level or nested) transaction. */
    virtual void begin() = 0;

    /** Try to commit; false means conflict (roll back + re-execute). */
    virtual bool commit() = 0;

    /** Roll back after a conflict / retry / user abort. */
    virtual void rollback() = 0;

    /** Backoff between re-executions. */
    virtual void onConflict(unsigned attempt) = 0;

    /**
     * Abort attribution hook: called by atomic() with the conflict's
     * record/kind before the backoff. Schemes with a contention
     * manager feed their diagnostics from this.
     */
    virtual void noteAbort(const TxConflictAbort &abort) { (void)abort; }

    /**
     * Starvation watchdog hook: called after every conflict abort
     * with the consecutive-abort count of the current atomic block.
     * Schemes supporting serial-irrevocable mode escalate here when
     * the StmConfig thresholds are exceeded; the next begin() then
     * runs the transaction alone (see stm/irrevocable.hh).
     */
    virtual void maybeEscalate(unsigned consec_aborts)
    {
        (void)consec_aborts;
    }

    /** Drop serial-irrevocable mode (after the guaranteed commit). */
    virtual void leaveIrrevocable() {}

    /**
     * Roll back after a retry(); schemes that can watch their read
     * set override this to preserve a snapshot for waitForChange().
     */
    virtual void rollbackForRetry() { rollback(); }

    /**
     * retry() support: wait until a previously read location may have
     * changed. Called after rollback-for-retry; backends default to a
     * bounded exponential backoff.
     */
    virtual void waitForChange(unsigned attempt) = 0;

    /**
     * Nested atomic support. Default is flattening (subsumption):
     * the nested block simply runs in the parent's context — what
     * HyTM and the lock baseline do. The STM overrides this with
     * true closed nesting and partial rollback.
     */
    virtual bool nestedAtomic(const std::function<void()> &fn);

    /** Depth of dynamically nested atomic blocks (0 = not in tx). */
    unsigned depth_ = 0;

    /** Current transaction-site tag (txsite::kGeneric by default). */
    std::uint32_t site_ = txsite::kGeneric;

    TmStats stats_;

    /** Serialization-point stamp of the last successful commit. */
    Cycles commitStamp_ = 0;

    /**
     * Attribution of the last commit() == false outcome. commit()
     * returns plain false on a commit-time conflict, which would
     * otherwise lose the record/kind; schemes stash it here for
     * atomic() to account.
     */
    TxConflictAbort commitFailure_{kNullAddr, AbortKind::Validation};

    /** Conflict aborts since the last successful commit (watchdog). */
    unsigned abortsSinceCommit_ = 0;
};

/**
 * TmExec bound to a simulator core. All methods must be called from
 * the simulated thread bound to this object's core; every simulated
 * scheme (sequential, lock, STM, HASTM, HyTM, adaptive) derives from
 * this. The cost hooks charge the core, so workload overhead lands
 * in the simulated cycle counts.
 */
class TmThread : public TmExec
{
  public:
    explicit TmThread(Core &core) : core_(core) {}

    Core &core() { return core_; }

    void simInstr(unsigned n) override;
    void simInstrIlp(unsigned n) override;

  protected:
    /** Backoff between re-executions (simulated stall). */
    void onConflict(unsigned attempt) override;

    /** Bounded exponential backoff in simulated cycles. */
    void waitForChange(unsigned attempt) override;

    Core &core_;
};

} // namespace hastm

#endif // HASTM_STM_TM_IFACE_HH
