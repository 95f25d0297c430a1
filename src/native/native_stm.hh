/**
 * @file
 * Native (host-thread) STM backend.
 *
 * The same word-based, eager-acquire, undo-log STM the simulator
 * models (§4), re-expressed over std::atomic and std::thread:
 *
 *  - transaction records are versioned locks with the simulator's
 *    encoding (odd = version, even = owner token) in the paper's
 *    fixed table: 4096 records, one cache line each, the record of a
 *    datum found by one mask (data & txrec::kTableMask, §4);
 *  - the read set, write set, and undo log are TxLog instances over
 *    the NativeHeap LogMem, so the append/rollback discipline is the
 *    code path the simulator times;
 *  - the serial-irrevocable gate is the SerialGate protocol over
 *    std::atomic: per-thread arrival flags and a holder token with
 *    the Dekker store-then-load, so a begin writes only its own
 *    cache line; a mutex/condvar serves only the parks;
 *  - commit stamps come from one global commit clock, which gives the
 *    replay oracle a total order (see "Commit clock" below).
 *
 * Validation is the snapshot clock (TL2/LSA lineage, DESIGN.md §10):
 * record versions encode the commit time of their last writer
 * (version 2t+1 for time t). A transaction samples the clock at
 * begin; a read that post-validates (record unchanged across the data
 * load) at a version time at or before the snapshot is consistent
 * *forever* — no periodic revalidation, and commit-time validation
 * collapses to nothing when no rival committed since the snapshot. A
 * newer version triggers a *timestamp extension*: revalidate the read
 * set once against the current clock and advance the snapshot,
 * aborting only if a logged read actually went stale.
 *
 * Commit clock: read-only commits never touch the clock cache line
 * (their serialization stamp is derived from the snapshot); writer
 * commits fetch_add once, and skip commit validation entirely when
 * the ticket shows no rival committed since the snapshot. Rollbacks
 * — full *and* partial — that release written records re-version
 * them *forward* to a fresh clock tick: versions never run ahead of
 * the clock, and a released record never returns to its
 * pre-acquisition version, which is what makes "version time <=
 * snapshot" a proof of stability. Restoring the old
 * version would let a rival that bracketed a read across the dirty
 * window accept the undone value (the dirty-then-restored ABA).
 *
 * Reclamation: txFree'd blocks do NOT return to the first-fit heap
 * at commit. A transaction whose snapshot predates the freeing
 * commit may still hold a pointer into the block, and every read it
 * validates there would keep passing after the allocator scribbles
 * the words (raw stores never bump the covering records). Instead
 * each thread publishes its begin-time clock sample in a padded
 * epoch slot (hazard-pointer discipline: publish, then re-sample
 * seq_cst so a reclaimer that missed the slot is proven to have
 * freed only blocks this transaction can no longer reach), freed
 * blocks sit on the freeing thread's OWN limbo list stamped with the
 * free-time, and a block is handed back to the allocator only once
 * every active epoch is at or past its stamp. The limbo lists are
 * owner-accessed (no shared lock on the free path; only the epoch
 * slots are shared, and those are scanned lock-free), and a cached
 * oldest-stamp bound skips the sweep entirely when no entry can be
 * ripe. Aborted transactions' own allocations take the same path, so
 * a zombie's dirty pointer never dereferences reused memory either.
 * Ripe blocks land in the reclaiming thread's size bins, and its
 * txAlloc reuses them before it asks the shared first-fit heap, so
 * an update workload's steady-state alloc/free cycle stays off the
 * heap mutex.
 *
 * Memory-model notes: record words are acquired/released with
 * acq_rel/acquire orderings; data words are relaxed atomics. A
 * reader brackets the data load between two record loads separated
 * by an acquire fence (the TL2 idiom): an unchanged odd version
 * proves the datum was stable, and a version time at or before the
 * snapshot proves it is the newest committed value the snapshot can
 * see. All heap accesses are atomics, so the backend is
 * data-race-free for TSan.
 */

#ifndef HASTM_NATIVE_NATIVE_STM_HH
#define HASTM_NATIVE_NATIVE_STM_HH

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "native/native_fault.hh"
#include "native/native_heap.hh"
#include "sim/logging.hh"
#include "stm/tm_iface.hh"
#include "stm/tx_log.hh"
#include "stm/tx_record.hh"

namespace hastm {

class NativeThread;

/** Snapshot-clock version encoding: version 2t+1 <=> commit time t. */
namespace nativeclock {

/** Record version installed by the commit (or abort tick) at time t. */
inline std::uint64_t
versionAt(std::uint64_t t)
{
    return 2 * t + 1;
}

/** Commit time encoded by odd record version @p v. */
inline std::uint64_t
timeOf(std::uint64_t v)
{
    return v >> 1;
}

/**
 * Ceiling on clock times: versions must stay odd 64-bit values
 * (2t+1), and the oracle stamp encoding doubles times again, so the
 * clock gets 61 usable bits — ~2.3e18 commits, unreachable in
 * practice but guarded anyway (a silent wrap would alias versions
 * and break the "time <= snapshot proves stability" argument).
 */
constexpr std::uint64_t kMaxTime = (std::uint64_t(1) << 61) - 1;

/**
 * Oracle-stamp encoding: writers committing at time t stamp 2t,
 * read-only transactions with final snapshot s stamp 2s+1 — readers
 * sort after the writer that created their snapshot and before the
 * next writer, without ever touching the clock line. Ties among
 * read-only stamps commute (equal snapshots read equal states).
 */
inline std::uint64_t writerStamp(std::uint64_t t) { return 2 * t; }
inline std::uint64_t readerStamp(std::uint64_t s) { return 2 * s + 1; }

} // namespace nativeclock

/**
 * Serial-irrevocable gate for host threads: the stm/irrevocable.hh
 * SerialGate protocol over std::atomic. A mutex/condvar is taken only
 * to park or to wake a parked thread.
 *
 * State: one padded arrival flag per NativeThread (registerSlot(),
 * once, at construction) and a holder token alone on its cache line.
 * A transaction begin stores its own flag and loads the token; its
 * end clears the flag and loads the token. While no thread escalates
 * that is the whole cost: no shared line is written, so concurrent
 * transactions never serialize on the gate.
 *
 * Mutual exclusion (the simulator's Dekker store-then-load). arrive()
 * stores its flag, then loads the token; enter() stores the token,
 * then scans every flag; all four accesses are seq_cst. In the single
 * total order one of the two stores comes first: either the arrival
 * sees the token and retreats (flag cleared, then parked), or the
 * escalator's scan sees the flag and waits for that transaction to
 * end. A holder whose scan found every flag clear runs alone: every
 * later arrival sees its token.
 *
 * Deadlock freedom. Escalation follows rollback, so the escalator's
 * own flag is clear; a parked arrival has cleared its flag; and a
 * transaction that slipped past the token check finishes one bounded
 * attempt, clearing its flag on commit or rollback.
 *
 * No lost wakeup. A parked thread checks its predicate and sleeps
 * under the mutex, so a notify issued under the mutex finds it either
 * not yet checked (it sees the new state) or asleep. The token
 * changes only under the mutex, and exit() notifies. The flags change
 * outside it, so a thread that clears its flag while a holder may be
 * quiescing either
 *  - takes the mutex and notifies: a retreating arrival always does,
 *    and depart() does when its token load sees a holder; or
 *  - saw no token in depart(): its clear then precedes the holder's
 *    token store in the total order, so the holder's scan sees it.
 *
 * Wakeups are counted: notifies happen only when someone is parked
 * (waiters_, under the mutex), and depart() takes the mutex only
 * while the token is held.
 *
 * Waits are bounded (20 s; tests shorten it with setStallLimitMs): a
 * parked thread that outlives the limit fails
 * fast with the gate's full accounting (holder token, inflight and
 * waiter counts) rather than hanging CI forever behind a stalled
 * holder. A healthy transition is microseconds, so the generous
 * default only ever fires on a real deadlock or a lost wakeup.
 */
class NativeGate
{
  public:
    /** One thread's arrival flag: set while its transaction runs. */
    using Slot = std::atomic<bool>;

    /** Register one thread's flag. The address is stable, and
     *  registering is safe at any time: slots_ is walked only under
     *  the mutex, never on the fast path. */
    Slot &registerSlot();

    /**
     * Transaction begin: advertise @p slot, then park while a thread
     * other than @p self holds the token. Returns with the flag set.
     */
    void
    arrive(const void *self, Slot &slot)
    {
        for (;;) {
            slot.store(true, std::memory_order_seq_cst);
            const void *h = holder_.v.load(std::memory_order_seq_cst);
            if (h == nullptr || h == self)
                return;
            slot.store(false, std::memory_order_seq_cst);
            parkUntilFree(self);
        }
    }

    /** Transaction end (commit or rollback): clear @p slot. */
    void
    depart(Slot &slot)
    {
        HASTM_ASSERT(slot.load(std::memory_order_relaxed));
        slot.store(false, std::memory_order_seq_cst);
        if (holder_.v.load(std::memory_order_seq_cst) != nullptr)
            wakeHolder();
    }

    /** Acquire the token and quiesce; call outside a transaction
     *  (the caller's own flag is clear). */
    void enter(const void *self);

    /** Release the token. */
    void exit();

    /** Bound every future park to @p ms milliseconds (tests). */
    void
    setStallLimitMs(unsigned ms)
    {
        std::lock_guard<std::mutex> lk(mu_);
        stallMs_ = ms;
    }

    /** Parked threads right now (tests; racy outside the mutex). */
    unsigned
    waitersForTest()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return waiters_;
    }

    /**
     * Invariant probe for the torture harness: with every session
     * thread joined, the gate must have unwound completely — no
     * holder, no advertised flag, no parked waiters.
     */
    bool quiescent();

  private:
    /** arrive() slow path: wake a quiescing holder (our flag is now
     *  clear), then park until the token is free or ours. */
    void parkUntilFree(const void *self);

    /** depart() slow path: the token is held, so a quiescing holder
     *  may be waiting for the flag just cleared. */
    void wakeHolder();

    /** Advertised flags (mu_ held). */
    unsigned inflightLocked() const;

    template <typename Pred>
    void
    waitOn(std::unique_lock<std::mutex> &lk, Pred pred, const char *what)
    {
        if (pred())
            return;
        ++waiters_;
        auto limit = std::chrono::milliseconds(stallMs_);
        if (!cv_.wait_for(lk, limit, pred))
            stallPanic(what);  // diagnostic + abort, never returns
        --waiters_;
    }

    [[noreturn]] void stallPanic(const char *what) const;

    void
    notifyIfWaiters()
    {
        if (waiters_ != 0)
            cv_.notify_all();
    }

    /** The holder token, alone on its cache line: every begin and
     *  end loads it, and only enter()/exit() write it. */
    struct alignas(64) Token
    {
        std::atomic<const void *> v{nullptr};
    };
    Token holder_;

    /** One arrival flag per cache line, written only by its owner. */
    struct alignas(64) PaddedSlot
    {
        Slot v{false};
    };

    /** Guards the slow paths, slots_ (structure) and the counters. */
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<PaddedSlot> slots_;  //!< stable addresses (deque)
    unsigned waiters_ = 0;
    unsigned stallMs_ = 20000;  //!< park bound (setStallLimitMs)
};

/**
 * Host-atomic transaction-record table, the paper's cache-line table
 * (§4): rec = TxRecTableBase + (addr & 0x3ffc0), so 4096 records one
 * line apart, all initialised shared at version 1. Addresses one
 * table span (256 KiB) apart share a record; the 8 words of a line
 * always do.
 *
 * Aligned to a cache line: the slot pointer is read on every barrier
 * by every thread, so nothing another thread writes may share its
 * line.
 */
class alignas(64) NativeRecordTable
{
  public:
    static constexpr std::size_t kNumRecords =
        txrec::kTableBytes >> txrec::kLineLog2;

    std::atomic<std::uint64_t> &
    recordFor(Addr data)
    {
        return slots_[(data & txrec::kTableMask) >> txrec::kLineLog2].v;
    }

    /** Raw slot value (torture-harness invariant scan; quiescent or
     *  owner-stepped use only — the load is relaxed). */
    std::uint64_t
    slotValue(std::size_t i) const
    {
        return slots_[i].v.load(std::memory_order_relaxed);
    }

  private:
    /** One record per cache line, as in the simulated table (§4). */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> v{txrec::kInitialVersion};
    };

    std::vector<Slot> slots_ = std::vector<Slot>(kNumRecords);
};

/** Shared state of one native TM session. */
class NativeRuntime
{
  public:
    /**
     * @p watchdog bounds starvation before a thread escalates into
     * serial-irrevocable mode; @p fault enables deterministic fault
     * injection for the session (default: none); @p num_threads sizes
     * its per-thread streams and must cover every NativeThread id the
     * session will create.
     */
    NativeRuntime(const Watchdog &watchdog, std::size_t heap_bytes,
                  const NativeFaultParams &fault = {},
                  unsigned num_threads = 1);
    ~NativeRuntime();

    NativeHeap &heap() { return heap_; }
    NativeRecordTable &records() { return records_; }
    NativeGate &gate() { return gate_; }
    const Watchdog &watchdog() const { return watchdog_; }

    /** The session's fault injector, or null when injection is off. */
    NativeFaultInjector *fault() { return fault_.get(); }

    /**
     * Current commit time (snapshot sample). seq_cst, not plain
     * acquire: the epoch-based reclamation proof orders this load,
     * the epoch-slot publish, the freeing tick, and the reclaimer's
     * slot scan in the single seq_cst total order (free on x86, one
     * ldar on ARM — begin() is not hot enough to care).
     */
    std::uint64_t
    clockNow() const
    {
        return clock_.v.load(std::memory_order_seq_cst);
    }

    /**
     * Claim the next commit time (serialization ticket for writer
     * commits and for rollbacks that released written records).
     * Panics before the version encoding could wrap.
     */
    std::uint64_t
    tick()
    {
        std::uint64_t t =
            clock_.v.fetch_add(1, std::memory_order_seq_cst) + 1;
        checkClockBound(t);
        return t;
    }

    /** Force the clock for wraparound-guard tests. */
    void
    setClockForTest(std::uint64_t t)
    {
        clock_.v.store(t, std::memory_order_release);
    }

    // ---- epoch-based reclamation of transactionally freed blocks ----

    /** Epoch-slot value of a thread with no transaction in flight. */
    static constexpr std::uint64_t kIdleEpoch = ~std::uint64_t(0);

    /**
     * Register the calling thread's epoch slot (one per NativeThread,
     * stable for the runtime's lifetime; registration finishes before
     * any body runs, so scans need no lock). A transaction stores a
     * lower bound on its snapshot time here at begin and kIdleEpoch
     * at commit/abort; reclamation keeps every limbo block whose
     * free-time any published epoch precedes.
     */
    std::atomic<std::uint64_t> &registerEpochSlot();

    /**
     * Oldest epoch any in-flight transaction has published (kIdleEpoch
     * when none). seq_cst loads, pairing with the publish in begin():
     * either the scan observes a running transaction's (conservative)
     * epoch, or that publish came later in the seq_cst order — and
     * then the transaction's post-publish clock re-sample is ordered
     * after this caller's free-time stamp, its snapshot covers the
     * free, and it can never reach a block reclaimed on the strength
     * of this scan.
     */
    std::uint64_t minActiveEpoch() const;

  private:
    [[noreturn]] static void clockExhausted();

    static void
    checkClockBound(std::uint64_t t)
    {
        if (t > nativeclock::kMaxTime)
            clockExhausted();
    }

    Watchdog watchdog_;
    NativeHeap heap_;
    NativeRecordTable records_;
    NativeGate gate_;

    /**
     * The global commit clock, alone on its cache line: it is the one
     * word every writer commit dirties, and padding keeps that
     * ping-pong off the config/heap/gate fields every barrier reads.
     */
    struct alignas(64) PaddedClock
    {
        std::atomic<std::uint64_t> v{0};
    };
    PaddedClock clock_;

    /** One per thread, alone on its cache line: written twice per
     *  transaction by its owner, scanned only by reclaimers. */
    struct alignas(64) EpochSlot
    {
        std::atomic<std::uint64_t> v{kIdleEpoch};
    };

    /** Serializes slot registration only; all registration finishes
     *  before concurrent bodies run, so scans never take it. */
    std::mutex epochMu_;
    std::deque<EpochSlot> epochSlots_;  //!< stable addresses (deque)

    /** Null unless the session enabled fault injection. */
    std::unique_ptr<NativeFaultInjector> fault_;
};

/**
 * One host thread's TM view: the TmExec data/driver surface over the
 * native runtime. The atomic() retry loop, the workloads, and the
 * logs are shared with the simulated backend; only the barriers and
 * the waiting primitives differ.
 *
 * The object is cacheline-aligned and the hot mutable state —
 * including the inherited TmStats block, which every barrier bumps —
 * is padded away from neighbouring allocations, so per-thread stats
 * accumulation never false-shares; totals are only merged on demand
 * in NativeSession::totalStats().
 */
class alignas(64) NativeThread final : public TmExec
{
  public:
    NativeThread(NativeRuntime &rt, unsigned id);
    ~NativeThread() override;

    // ---- TmExec data interface ----
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

    unsigned id() const { return id_; }

    /** Begin-time snapshot of the current transaction (tests). */
    std::uint64_t snapshotForTest() const { return snapshot_; }

    /** Blocks this thread freed that still await a safe epoch
     *  (tests; owner-read, so meaningful only from the thread that
     *  steps this NativeThread or while the system is quiescent). */
    std::size_t limboSizeForTest() const { return limbo_.size(); }

    /**
     * Cheap end-of-run invariant sweep for the torture harness: with
     * this thread quiescent (no transaction in flight), checks that
     * no protocol state leaked — snapshot at or behind the clock, all
     * logs and ownership maps unwound, epoch slot idle. Returns a
     * diagnostic line naming every violated invariant, or "" when
     * clean.
     */
    std::string invariantReport() const;

  protected:
    void begin() override;
    bool commit() override;
    void rollback() override;
    void onConflict(unsigned attempt) override;
    void noteAbort(const TxConflictAbort &abort) override;
    void maybeEscalate(unsigned consec_aborts) override;
    void leaveIrrevocable() override;
    void rollbackForRetry() override;
    void waitForChange(unsigned attempt) override;
    bool nestedAtomic(const std::function<void()> &fn) override;

  private:
    using NRec = std::atomic<std::uint64_t> *;

    struct NativeSavepoint
    {
        LogPos rdPos, wrPos, undoPos;
        std::size_t txAllocCount = 0;
        std::size_t txFreeCount = 0;
        /** Snapshot on entry; restored on partial abort so reads
         *  logged by the parent stay governed by the snapshot they
         *  were validated under (restoring the smaller value is
         *  conservative: it can only force extra extensions). */
        std::uint64_t snapshot = 0;
    };

    /** Acquire @p rec or throw; returns once this thread owns it. */
    void acquire(NRec rec);

    /** Bounded wait on a foreign-owned record, then CmKill. */
    void contention(NRec rec);

    /** Full read-set validation; throws on a stale read. */
    void validate();

    /**
     * Timestamp extension: revalidate the read set against the
     * current clock and advance the snapshot; throws (counting an
     * extension failure) when a logged read went stale.
     */
    void extendSnapshot();

    /** Undo-log @p data's old value unless this frame already did. */
    void undoAppend(Addr data, bool is_ptr);

    /** Append cursor of the innermost nesting frame (bloom scan). */
    LogPos undoFrameStart() const;

    bool bloomTest(Addr data) const;
    void bloomSet(Addr data);
    void bloomClear();

    /** Restore one undo entry (newest-first traversal). */
    void undoRestore(Addr entry);

    /** Release every owned record at version @p v. */
    void releaseOwnedAt(std::uint64_t v);

    void partialRollback(const NativeSavepoint &sp);

    /**
     * Move @p objs onto this thread's limbo list, stamped with the
     * current clock time, then reclaim whatever the active epochs
     * allow. Takes ownership: @p objs is left empty. Owner-only (no
     * shared lock): every defer happens on the thread that freed,
     * and the freeing tick is sequenced before the epoch scan, which
     * is what the reclamation proof needs.
     */
    void deferFrees(std::vector<Addr> &objs);

    /** Queue a single block (non-transactional txFree path). */
    void deferFree(Addr obj);

    /**
     * recycle() every ripe limbo block. Cheap while the list is empty
     * or the cached oldest stamp proves some active epoch still pins
     * everything (one lock-free slot scan, no sweep).
     */
    void reclaimOwn();

    /** Bytes of a txAlloc block with @p field_bytes of fields. */
    static std::size_t
    blockBytes(std::size_t field_bytes)
    {
        return kObjHeaderBytes + ((field_bytes + 15) & ~std::size_t(15));
    }

    /** A ripe block: into its size bin, or back to the shared heap
     *  when it is too large or the bins are full. */
    void recycle(Addr obj);

    /** Oldest binned block of @p total bytes, or kNullAddr. */
    Addr takeBinned(std::size_t total);

    /** Capped-exponential contention spins for attempt @p attempt. */
    unsigned spinBudget(unsigned attempt) const;

    /**
     * Fault-injection hook (no-op when the session runs without an
     * injector): evaluates the injector at @p point, counts whatever
     * fired, and converts the abort-inducing kinds into the protocol's
     * own abort exceptions (CmKill throws a TxConflictAbort{CmKill};
     * ExtensionFail throws the same Validation abort a genuinely stale
     * extension would).
     */
    void faultHook(NativeFaultPoint point);

    static std::uint64_t packRec(NRec rec)
    {
        return reinterpret_cast<std::uint64_t>(rec);
    }
    static NRec unpackRec(std::uint64_t bits)
    {
        return reinterpret_cast<NRec>(bits);
    }

    NativeRuntime &rt_;
    unsigned id_;

    /** The runtime's injector, or null (latched at construction). */
    NativeFaultInjector *fault_;

    /** Even, nonzero, unique: the record encoding's "owner" token. */
    std::uint64_t token_;

    /** Deterministic per-thread jitter seed (hashed thread id). */
    std::uint64_t jitter_;

    /** Commit time this transaction's reads are consistent with. */
    std::uint64_t snapshot_ = 0;

    /** This thread's published reclamation epoch (runtime-owned). */
    std::atomic<std::uint64_t> *epoch_ = nullptr;

    /** This thread's serial-gate arrival flag (gate-owned). */
    NativeGate::Slot *gateSlot_ = nullptr;

    /** Blocks this thread freed, awaiting a safe epoch: (time,
     *  block), owner-accessed only — rivals touch the epoch slots,
     *  never each other's limbo lists. Drained at destruction (the
     *  session is quiescent by then). */
    std::vector<std::pair<std::uint64_t, Addr>> limbo_;

    /** Smallest stamp on limbo_ (kIdleEpoch when empty): reclaim
     *  sweeps only when the oldest active epoch reaches it. */
    std::uint64_t limboOldest_ = NativeRuntime::kIdleEpoch;

    /**
     * Ripe blocks reclaimOwn() handed back, binned by size (bin i
     * holds 16*i-byte blocks) for this thread's own txAlloc: an
     * update workload's steady-state alloc/free cycle never takes the
     * heap mutex or walks its maps. FIFO per bin, so the block free
     * longest is reused first. Owner-only, like limbo_; at most
     * kMaxBinnedBytes, past which blocks go back to the heap.
     */
    static constexpr std::size_t kNumFreeBins = 33;  //!< up to 512 B
    static constexpr std::size_t kMaxBinnedBytes = 64 * 1024;
    std::deque<Addr> freeBins_[kNumFreeBins];
    std::size_t binnedBytes_ = 0;

    Addr cursors_;  //!< 64-byte block holding the three log cursors
    std::unique_ptr<TxLog> readSet_;   //!< [rec][version]
    std::unique_ptr<TxLog> writeSet_;  //!< [rec][acquired version]
    std::unique_ptr<TxLog> undoLog_;   //!< [addr][old][meta]

    /**
     * Write-set Bloom filter over undo-logged addresses, kBloomBits
     * wide with two probes per address. Never a false negative: a miss
     * proves the address has no undo entry anywhere in this
     * transaction, so the append fast path skips the log scan
     * entirely; a hit falls back to the scan.
     */
    static constexpr std::uint64_t kBloomBits = 1024;
    std::array<std::uint64_t, kBloomBits / 64> bloom_{};

    std::unordered_map<NRec, std::uint64_t> ownedVersions_;
    std::vector<Addr> txAllocs_;
    std::vector<Addr> txFrees_;
    std::vector<NativeSavepoint> savepoints_;

    /** Read-set snapshot for waitForChange (retry support). */
    std::vector<std::pair<NRec, std::uint64_t>> retryWatch_;

    bool irrevocable_ = false;

    /** Pad the tail so the hot state above (stats included) never
     *  shares its last cache line with a neighbouring allocation. */
    char pad_[64];
};

} // namespace hastm

#endif // HASTM_NATIVE_NATIVE_STM_HH
