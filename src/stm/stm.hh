/**
 * @file
 * The base software transactional memory runtime (§4).
 *
 * Eager version management (in-place updates + undo log), strict
 * two-phase locking for writes, optimistic versioned reads with
 * periodic and commit-time validation, closed nesting with partial
 * rollback, retry/orElse condition synchronisation, and pluggable
 * contention management. Conflict detection runs at object or
 * cache-line granularity.
 *
 * Every runtime structure (records, descriptor, logs) lives in
 * simulated memory and every runtime step charges simulated cycles,
 * so the barrier overheads measured by the benches are the overheads
 * HASTM attacks.
 */

#ifndef HASTM_STM_STM_HH
#define HASTM_STM_STM_HH

#include <memory>
#include <string>
#include <vector>

#include "cpu/machine.hh"
#include "stm/conflict_class.hh"
#include "stm/contention.hh"
#include "stm/descriptor.hh"
#include "stm/tm_iface.hh"
#include "stm/tx_record.hh"

namespace hastm {

/** Runtime-wide STM configuration. */
struct StmConfig
{
    Granularity gran = Granularity::CacheLine;
    /** Barriers per periodic read-set validation (simulator STM
     *  only; the native snapshot clock never revalidates
     *  periodically). */
    unsigned validateEvery = 64;
    CmParams cm;
    bool clearMarksAtEnd = true;     //!< §7: no inter-atomic reuse
    /**
     * Write-filtering extension (§5: "an implementation could also
     * filter STM write barrier and undo logging operations using
     * additional mark bits"): mark-bit filter 1 caches "record
     * already acquired" and "16-byte chunk already undo-logged".
     * Cache-line granularity only (the 16-byte undo chunks carry no
     * per-word GC metadata).
     */
    bool filterWrites = false;
    /**
     * Starvation watchdog (graceful degradation): escalate into
     * serial-irrevocable mode after this many consecutive aborts of
     * one atomic block (0 disables). See stm/irrevocable.hh.
     */
    unsigned watchdogConsecAborts = 64;
    /** Same, for total aborts since the last successful commit. */
    unsigned watchdogRetriesPerCommit = 256;
    /**
     * TEST-ONLY: skip commit-time validation, making the STM
     * deliberately unsound so the adversarial oracle can prove it
     * detects broken runtimes. Never enable outside tests.
     */
    bool testSkipCommitValidation = false;
    // ---- record-table geometry (stm/tx_record.hh) ----
    /**
     * log2 of the records per table shard. The default (12: 4096
     * records spanning 256 KiB) is the paper's exact bits-6..17
     * table, so fig11-fig22 reproduce the paper unchanged. The log2
     * encoding makes non-power-of-two shard sizes unrepresentable;
     * out-of-range values are a fatal config error (CLI front ends
     * converting record counts use txrec::log2ForRecords, which
     * rejects non-powers-of-two the same way).
     */
    unsigned recShardLog2Records = txrec::kDefaultLog2Records;
    /** Multiplicatively mix the line index before slicing record
     *  bits (see TxRecGeometry::hashMix). */
    bool recHashMix = false;
    /** One record-table shard per registered MemArena region instead
     *  of one global table (see TxRecGeometry::perArenaShards). */
    bool recShardPerArena = false;
    /**
     * When non-empty, collect per-transaction events (begin/commit/
     * abort spans, validation and contention instants) and write them
     * here in Chrome trace_event JSON on teardown (load the file in
     * about://tracing or ui.perfetto.dev). Host-side only: tracing
     * charges no simulated cycles and does not perturb results.
     * Simulator only; the native STM emits no trace.
     */
    std::string tracePath;
};

class TraceSink;
class SerialGate;

/**
 * State shared by all threads of one STM instance: the machine, the
 * global record table (cache-line granularity), and the config.
 */
class StmGlobals
{
  public:
    StmGlobals(Machine &machine, const StmConfig &cfg);
    ~StmGlobals();

    Machine &machine() { return machine_; }
    const StmConfig &cfg() const { return cfg_; }
    TxRecordTable &recTable() { return recTable_; }

    /**
     * Record address for datum @p data per the configured
     * granularity; @p obj is the owning object (kNullAddr for raw
     * words). The one sharded-lookup dispatch shared by the software
     * (StmThread) and hardware (HytmThread) barrier paths.
     */
    Addr
    recordFor(Addr obj, Addr data) const
    {
        if (cfg_.gran == Granularity::Object && obj != kNullAddr)
            return obj + kTxRecOff;  // free: the object is at hand
        if (cfg_.gran == Granularity::Word)
            return recTable_.recordForWord(data);
        return recTable_.recordFor(data);
    }

    /** False-conflict accounting shared by every scheme. */
    ConflictClassifier &classifier() { return classifier_; }

    /** Serial-irrevocable gate shared by all of this instance's threads. */
    SerialGate &gate() { return *gate_; }

    /** Event sink, or null when StmConfig::tracePath is empty. */
    TraceSink *trace() { return trace_.get(); }

  private:
    Machine &machine_;
    StmConfig cfg_;
    TxRecordTable recTable_;
    ConflictClassifier classifier_;
    std::unique_ptr<SerialGate> gate_;
    std::unique_ptr<TraceSink> trace_;
};

/**
 * One thread's software-transactional runtime. HastmThread derives
 * from this and overrides the barrier / validation hot paths with the
 * mark-bit-accelerated versions.
 */
class StmThread : public TmThread
{
  public:
    StmThread(Core &core, StmGlobals &globals);
    ~StmThread() override;

    // ---- TmThread data interface ----
    std::uint64_t readWord(Addr a) override;
    void writeWord(Addr a, std::uint64_t v, bool is_ptr = false) override;
    std::uint64_t readField(Addr obj, unsigned off) override;
    void writeField(Addr obj, unsigned off, std::uint64_t v,
                    bool is_ptr = false) override;
    Addr txAlloc(std::size_t field_bytes,
                 std::uint32_t ptr_mask = 0) override;
    void txFree(Addr obj) override;
    void validateNow() override;
    bool inTx() const override { return depth_ > 0; }
    bool inIrrevocable() const override { return irrevocable_; }

    Descriptor &descriptor() { return desc_; }
    StmGlobals &globals() { return g_; }

    /** Contention manager (conflict stats + §2 diagnostics). */
    const ContentionManager &contention() const { return cm_; }

    /**
     * Enter serial-irrevocable mode *before* the transaction starts
     * (the watchdog path escalates mid-retry instead). The adaptive
     * runtime's Serial rung uses this: the subsequent atomic() runs
     * alone and releases the gate after its guaranteed commit.
     */
    void escalateBeforeAtomic();

    /**
     * Drop serial-irrevocable mode if held, releasing the gate. For
     * exception-unwind paths outside the atomic() driver (e.g. the
     * adaptive front-end's dispatch) where a foreign exception would
     * otherwise leave the global token held forever and park every
     * other thread at its next begin.
     */
    void abandonIrrevocable();

    // ---- GC integration (§2, §5) ----

    /**
     * Called by the collector after it moved the object at @p from to
     * @p to; rewrites every reference this transaction's metadata
     * holds (read/write-set record addresses in object mode, undo-log
     * target addresses, logged object-reference values, the
     * acquired-version map, and the tx-alloc/free lists). Runs at GC
     * time, untimed except for the Gc-phase cycles the collector
     * charges in bulk.
     */
    void gcRelocate(Addr from, Addr to, std::size_t total_bytes);

    /**
     * Bulk log fix-up: @p relocated maps every (possibly interior)
     * old address to its new location; one pass over all metadata.
     */
    void gcFixup(const std::function<Addr(Addr)> &relocated);

  protected:
    // ---- TmThread scheme hooks ----
    void begin() override;
    bool commit() override;
    void rollback() override;
    void rollbackForRetry() override;
    void waitForChange(unsigned attempt) override;
    bool nestedAtomic(const std::function<void()> &fn) override;
    void noteAbort(const TxConflictAbort &abort) override;
    void maybeEscalate(unsigned consec_aborts) override;
    void leaveIrrevocable() override;

    // ---- pieces HastmThread overrides ----

    /** Full read path: barrier + data load (Figs 3/4). */
    virtual std::uint64_t readShared(Addr data, Addr rec);

    /** Write barrier: acquire + write-set logging (Fig 3). */
    virtual void writeBarrier(Addr data, Addr rec);

    /** After the data store (HASTM marks lines here). */
    virtual void postWrite(Addr data, Addr rec);

    /**
     * Validate the read set; throws TxConflictAbort when stale
     * (Fig 2; overridden with the mark-counter version of Fig 6).
     */
    virtual void validate(bool at_commit);

    /** Top-level begin extras (HASTM: mode policy + counter reset). */
    virtual void beginTop() {}

    /** After a successful top-level commit. */
    virtual void commitHook() {}

    /** After a top-level rollback. */
    virtual void abortHook() {}

    // ---- shared helpers ----

    /** Record address for a raw-word datum / an object field. */
    Addr recForWord(Addr data);
    Addr recForField(Addr obj, Addr data);

    /**
     * Classify a conflict abort as true vs aliased and fold the
     * verdict into stats_. Called from noteAbort (after rollback; the
     * footprint survives until the next begin()).
     */
    void classifyAbort(const TxConflictAbort &abort);

    /** Charge the record-address computation (cache-line mode only). */
    void chargeRecCompute();

    /** Timed TLS descriptor load charged per runtime entry point. */
    void chargeTls();

    /** Append to the read set (Fig 4 logging tail). */
    void logRead(Addr rec, std::uint64_t version);

    /** Acquire @p rec via CAS loop + write-set logging (Fig 3). */
    void acquireRecord(Addr rec);

    /** Undo-log the old value of @p data (eager versioning). */
    virtual void undoAppend(Addr data, bool is_ptr);

    /** Full write path shared by writeWord/writeField. */
    void writeShared(Addr data, Addr rec, std::uint64_t v, bool is_ptr);

    /**
     * Walk the read set comparing versions; @p remark re-marks each
     * record line (loadsetmark) so mark-counter validation stays
     * sound after a mid-transaction full validation.
     */
    void fullValidation(bool remark);

    /** Release all owned records; bump versions when @p bump. */
    void releaseOwned(bool bump);

    /** Undo and release everything since @p sp (nested abort). */
    void partialRollback(const Savepoint &sp);

    /** Count barriers and run the periodic validation (§4). */
    void maybeValidate();

    /** Abort-if-stale guard against zombie-computed addresses. */
    void guardAddr(Addr data, unsigned size);

    /** Logged entries, for Karma contention decisions. */
    std::uint64_t investment() const;

    /** Restore one undo entry (sized store). */
    void undoRestore(Addr entry);

    StmGlobals &g_;
    Descriptor desc_;
    ContentionManager cm_;
    Addr tlsAddr_;
    unsigned sinceValidate_ = 0;

    /** This attempt's per-record line footprint (host-side; feeds the
     *  false-conflict classifier, charges no simulated cycles). */
    TxFootprint footprint_;

    /** Top-level begin timestamp for the trace span. */
    Cycles txStartCycles_ = 0;

    /** Snapshot of (rec, version) pairs for retry() waiting. */
    std::vector<std::pair<Addr, std::uint64_t>> retryWatch_;

    /** True while rolling back for a retry() (HASTM keeps marks). */
    bool retryRollback_ = false;

    /** Serial-irrevocable mode (holds the gate token; see above). */
    bool irrevocable_ = false;
};

} // namespace hastm

#endif // HASTM_STM_STM_HH
