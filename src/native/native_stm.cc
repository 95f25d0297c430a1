#include "native/native_stm.hh"

#include <chrono>
#include <thread>

#include "sim/logging.hh"

namespace hastm {

namespace {

/** Bounded exponential host backoff (yield first, then sleep). */
void
hostBackoff(unsigned attempt)
{
    if (attempt < 4) {
        for (unsigned i = 0; i < (16u << attempt); ++i)
            std::this_thread::yield();
        return;
    }
    unsigned shift = attempt < 14 ? attempt : 14;
    std::this_thread::sleep_for(std::chrono::microseconds(1u << (shift - 4)));
}

/**
 * Contention backoff: spins before the first backoff step, and the cap
 * the exponential doubling saturates at.
 */
constexpr std::uint64_t kBackoffSpinsBase = 64;
constexpr std::uint64_t kBackoffSpinsCap = 8192;

} // namespace

// ------------------------------------------------------- NativeGate

NativeGate::Slot &
NativeGate::registerSlot()
{
    std::lock_guard<std::mutex> lk(mu_);
    return slots_.emplace_back().v;
}

void
NativeGate::parkUntilFree(const void *self)
{
    std::unique_lock<std::mutex> lk(mu_);
    // Our flag is clear now: a holder quiescing on it may be asleep.
    notifyIfWaiters();
    waitOn(lk,
           [&] {
               const void *h = holder_.v.load(std::memory_order_relaxed);
               return h == nullptr || h == self;
           },
           "arrive: token release");
}

void
NativeGate::wakeHolder()
{
    std::lock_guard<std::mutex> lk(mu_);
    notifyIfWaiters();
}

void
NativeGate::enter(const void *self)
{
    std::unique_lock<std::mutex> lk(mu_);
    waitOn(lk,
           [&] {
               return holder_.v.load(std::memory_order_relaxed) == nullptr;
           },
           "enter: token release");
    holder_.v.store(self, std::memory_order_seq_cst);
    // The caller's own flag is clear (it escalates after rollback), so
    // "no flag set" is "every other transaction has ended".
    waitOn(lk, [&] { return inflightLocked() == 0; }, "enter: quiesce");
}

void
NativeGate::exit()
{
    std::lock_guard<std::mutex> lk(mu_);
    HASTM_ASSERT(holder_.v.load(std::memory_order_relaxed) != nullptr);
    holder_.v.store(nullptr, std::memory_order_seq_cst);
    notifyIfWaiters();
}

bool
NativeGate::quiescent()
{
    std::lock_guard<std::mutex> lk(mu_);
    return holder_.v.load(std::memory_order_relaxed) == nullptr &&
           inflightLocked() == 0 && waiters_ == 0;
}

unsigned
NativeGate::inflightLocked() const
{
    unsigned n = 0;
    for (const PaddedSlot &s : slots_)
        n += s.v.load(std::memory_order_seq_cst);
    return n;
}

void
NativeGate::stallPanic(const char *what) const
{
    // Called with mu_ held, so the holder and waiter counts are a
    // consistent snapshot of the stuck state (the flags are a scan).
    panic("NativeGate: stalled > %u ms waiting on %s "
          "(holder=%p inflight=%u waiters=%u)",
          stallMs_, what, holder_.v.load(std::memory_order_relaxed),
          inflightLocked(), waiters_);
}

// ---------------------------------------------------- NativeRuntime

NativeRuntime::NativeRuntime(const Watchdog &watchdog,
                             std::size_t heap_bytes,
                             const NativeFaultParams &fault,
                             unsigned num_threads)
    : watchdog_(watchdog), heap_(heap_bytes)
{
    if (fault.enabled)
        fault_ = std::make_unique<NativeFaultInjector>(fault, num_threads);
}

NativeRuntime::~NativeRuntime() = default;

std::atomic<std::uint64_t> &
NativeRuntime::registerEpochSlot()
{
    std::lock_guard<std::mutex> lk(epochMu_);
    return epochSlots_.emplace_back().v;
}

std::uint64_t
NativeRuntime::minActiveEpoch() const
{
    // Lock-free: registration (the only deque mutation) finishes
    // before concurrent bodies run. seq_cst slot loads pair with the
    // seq_cst publish in begin(): either this scan observes a running
    // transaction's (conservative) epoch, or the publish came later
    // in the seq_cst order — and then that transaction's post-publish
    // clock re-sample read a value at or past the caller's free-time
    // stamp, its snapshot covers the free, and it can never reach a
    // block reclaimed on the strength of this scan.
    std::uint64_t min_epoch = kIdleEpoch;
    for (const EpochSlot &slot : epochSlots_) {
        std::uint64_t e = slot.v.load(std::memory_order_seq_cst);
        if (e < min_epoch)
            min_epoch = e;
    }
    return min_epoch;
}

void
NativeRuntime::clockExhausted()
{
    panic("native commit clock exhausted (time > 2^61 - 1); "
          "version encoding would wrap");
}

// ----------------------------------------------------- NativeThread

NativeThread::NativeThread(NativeRuntime &rt, unsigned id)
    : rt_(rt), id_(id), fault_(rt.fault()),
      token_(std::uint64_t(id + 1) << 1),
      jitter_(std::uint64_t(id + 1) * txrec::kHashMult)
{
    HASTM_ASSERT(!txrec::isVersion(token_) && token_ != 0);
    epoch_ = &rt_.registerEpochSlot();
    gateSlot_ = &rt_.gate().registerSlot();
    cursors_ = rt_.heap().allocZeroed(64, 64);
    readSet_ = std::make_unique<TxLog>(rt_.heap(), cursors_ + 0, 2);
    writeSet_ = std::make_unique<TxLog>(rt_.heap(), cursors_ + 8, 2);
    undoLog_ = std::make_unique<TxLog>(rt_.heap(), cursors_ + 16, 3);
}

NativeThread::~NativeThread()
{
    // NativeSession tears threads down after every body has joined,
    // so no epoch is published and every limbo block is unreachable:
    // hand them all back.
    for (auto &[time, obj] : limbo_)
        rt_.heap().free(obj);
    for (std::deque<Addr> &bin : freeBins_) {
        for (Addr obj : bin)
            rt_.heap().free(obj);
    }
    readSet_.reset();
    writeSet_.reset();
    undoLog_.reset();
    rt_.heap().free(cursors_);
}

// ---- fault injection + invariant sweep ----

void
NativeThread::faultHook(NativeFaultPoint point)
{
    if (!fault_)
        return;
    // Abort-inducing kinds stay pending while irrevocable: the serial
    // token holder must commit (stm/irrevocable.hh contract).
    NativeFaultInjector::Fired fired =
        fault_->poll(id_, point, !irrevocable_);
    if (fired.starved) {
        ++stats_.nativeFaultsInjected[
            std::size_t(NativeFaultKind::Starve)];
    }
    if (!fired.fired)
        return;
    ++stats_.nativeFaultsInjected[std::size_t(fired.kind)];
    switch (fired.kind) {
      case NativeFaultKind::CmKill:
        // The same exception a lost contention bout raises; the
        // atomic() driver rolls back and re-executes.
        throw TxConflictAbort{kNullAddr, AbortKind::CmKill};
      case NativeFaultKind::ExtensionFail:
        // Forge a stale logged read: extendSnapshot()'s catch turns
        // this into a counted extension failure, exactly as if
        // validate() had found a moved record.
        throw TxConflictAbort{kNullAddr, AbortKind::Validation};
      default:
        break;  // delays were already performed by the injector
    }
}

std::string
NativeThread::invariantReport() const
{
    std::string r;
    auto bad = [&r](const std::string &msg) {
        if (!r.empty())
            r += "; ";
        r += msg;
    };
    if (depth_ != 0)
        bad("transaction still in flight (depth " +
            std::to_string(depth_) + ")");
    if (irrevocable_)
        bad("irrevocable flag still set");
    std::uint64_t now = rt_.clockNow();
    if (snapshot_ > now)
        bad("snapshot " + std::to_string(snapshot_) +
            " leads the clock " + std::to_string(now));
    if (undoLog_->entries() != 0)
        bad("undo log not empty (" +
            std::to_string(undoLog_->entries()) + " entries)");
    if (!ownedVersions_.empty())
        bad("owned records never released (" +
            std::to_string(ownedVersions_.size()) + ")");
    if (!savepoints_.empty())
        bad("savepoint stack not unwound");
    if (epoch_->load(std::memory_order_relaxed) !=
        NativeRuntime::kIdleEpoch)
        bad("reclamation epoch still published");
    if (gateSlot_->load(std::memory_order_relaxed))
        bad("serial-gate arrival flag still set");
    // No committed version may encode a time past the clock: tick()
    // claims the time before any release installs it, so a leading
    // version means a release wrote a forged value (and "time <=
    // snapshot proves stability" would be unsound).
    const NativeRecordTable &tab = rt_.records();
    for (std::size_t i = 0; i < NativeRecordTable::kNumRecords; ++i) {
        std::uint64_t v = tab.slotValue(i);
        if (txrec::isVersion(v) && nativeclock::timeOf(v) > now) {
            bad("record " + std::to_string(i) + " version time " +
                std::to_string(nativeclock::timeOf(v)) +
                " leads the clock " + std::to_string(now));
            break;
        }
    }
    return r;
}

// ---- transactional reclamation (owner-only limbo list) ----

void
NativeThread::deferFrees(std::vector<Addr> &objs)
{
    if (objs.empty())
        return;
    // Stamp at the *current* clock, not the freeing commit's ticket:
    // it is never smaller (the ticket was claimed earlier), and a
    // larger stamp only delays reuse. Any transaction that can still
    // reach one of these blocks has a snapshot strictly before the
    // freeing commit, hence a published epoch strictly below the
    // stamp, and keeps the block alive.
    std::uint64_t time = rt_.clockNow();
    for (Addr obj : objs)
        limbo_.emplace_back(time, obj);
    if (time < limboOldest_)
        limboOldest_ = time;
    objs.clear();
    reclaimOwn();
}

void
NativeThread::deferFree(Addr obj)
{
    std::uint64_t time = rt_.clockNow();
    limbo_.emplace_back(time, obj);
    if (time < limboOldest_)
        limboOldest_ = time;
    reclaimOwn();
}

void
NativeThread::reclaimOwn()
{
    if (limbo_.empty())
        return;
    // Stamps only ever satisfy "<= min_epoch" together with the
    // oldest one, so when even that is still pinned the sweep below
    // cannot free anything: one slot scan and out.
    std::uint64_t min_epoch = rt_.minActiveEpoch();
    if (min_epoch < limboOldest_)
        return;
    auto keep = limbo_.begin();
    std::uint64_t oldest = NativeRuntime::kIdleEpoch;
    for (auto &entry : limbo_) {
        if (entry.first <= min_epoch) {
            recycle(entry.second);
        } else {
            if (entry.first < oldest)
                oldest = entry.first;
            *keep++ = entry;
        }
    }
    limbo_.erase(keep, limbo_.end());
    limboOldest_ = oldest;
}

void
NativeThread::recycle(Addr obj)
{
    std::size_t total = blockBytes(
        objmeta::size(rt_.heap().loadWord(obj + kGcMetaOff)));
    std::size_t bin = total / 16;
    if (bin < kNumFreeBins && binnedBytes_ + total <= kMaxBinnedBytes) {
        freeBins_[bin].push_back(obj);
        binnedBytes_ += total;
    } else {
        rt_.heap().free(obj);
    }
}

Addr
NativeThread::takeBinned(std::size_t total)
{
    std::size_t bin = total / 16;
    if (bin >= kNumFreeBins || freeBins_[bin].empty())
        return kNullAddr;
    Addr obj = freeBins_[bin].front();
    freeBins_[bin].pop_front();
    binnedBytes_ -= total;
    return obj;
}

// ---- driver hooks ----

void
NativeThread::begin()
{
    HASTM_ASSERT(depth_ == 0);
    faultHook(NativeFaultPoint::GateArrive);
    rt_.gate().arrive(this, *gateSlot_);
    readSet_->reset();
    writeSet_->reset();
    undoLog_->reset();
    ownedVersions_.clear();
    txAllocs_.clear();
    txFrees_.clear();
    savepoints_.clear();
    retryWatch_.clear();
    bloomClear();
    // Epoch publish, hazard-pointer order: advertise a lower bound on
    // the snapshot *before* the definitive clock sample (both seq_cst).
    // A reclaimer either sees the published epoch and keeps every
    // limbo block this transaction could reach, or scanned earlier in
    // the seq_cst order — and then the re-sample below is ordered
    // after the freeing tick, the snapshot covers the free, and the
    // block is unreachable from here (header comment, DESIGN.md §10).
    // Sampling after the gate also keeps an irrevocable rival's
    // commits visible.
    epoch_->store(rt_.clockNow(), std::memory_order_seq_cst);
    snapshot_ = rt_.clockNow();
    depth_ = 1;
}

bool
NativeThread::commit()
{
    HASTM_ASSERT(depth_ == 1);
    if (writeSet_->empty()) {
        // Read-only fast path: every read post-validated at a version
        // time <= snapshot_, and any conflicting writer commits at a
        // strictly later time, so the transaction serializes at its
        // snapshot with *no* validation and *no* clock access (the
        // clock-ping-pong win). The stamp encoding slots it between
        // writer snapshot_ and writer snapshot_ + 1 in the oracle's
        // total order.
        commitStamp_ = nativeclock::readerStamp(snapshot_);
        ++stats_.clockBumpsSkipped;
    } else {
        // Writer: claim the commit time first, then validate — unless
        // the ticket proves no rival committed since the snapshot
        // (wv == snapshot_ + 1), in which case every logged read is
        // still at its logged version by construction and validation
        // is pure overhead (TL2's GV5 refinement, made exact by the
        // ticket).
        std::uint64_t wv = rt_.tick();
        HASTM_ASSERT(wv > snapshot_);
        // Stretch the ticket-to-writeback window: rivals reading our
        // still-owned records must keep spinning or extend, never
        // accept a half-released state.
        faultHook(NativeFaultPoint::CommitTicket);
        if (wv != snapshot_ + 1) {
            try {
                validate();
            } catch (const TxConflictAbort &e) {
                commitFailure_ = e;
                rollback();
                return false;
            }
        }
        commitStamp_ = nativeclock::writerStamp(wv);
        releaseOwnedAt(nativeclock::versionAt(wv));
    }
    stats_.readSetAtCommit.record(readSet_->entries());
    stats_.undoLogAtCommit.record(undoLog_->entries());
    // The undo log is dead weight after a successful commit; clearing
    // it here (not lazily at the next begin) makes "undo log empty
    // after commit" a checkable invariant for the torture harness.
    undoLog_->reset();
    HASTM_ASSERT(ownedVersions_.empty());
    HASTM_ASSERT(savepoints_.empty());
    txAllocs_.clear();
    ++stats_.commits;
    depth_ = 0;
    // Retire the epoch before deferring the frees: our own slot must
    // not pin them (with no rivals in flight they reclaim at once —
    // the first-fit reuse the single-threaded tests rely on).
    epoch_->store(NativeRuntime::kIdleEpoch, std::memory_order_release);
    // Freed blocks go to the limbo list, NOT straight back to the
    // heap: a rival whose snapshot predates this commit may still
    // hold a pointer into them, and reallocation scribbles words
    // without bumping the covering records — its reads would keep
    // validating against uncommitted garbage.
    deferFrees(txFrees_);
    rt_.gate().depart(*gateSlot_);
    return true;
}

void
NativeThread::rollback()
{
    HASTM_ASSERT(depth_ >= 1);
    // Stretch the aborted-but-not-yet-undone window (delay kinds
    // only: a rollback must run to completion, so this hook point
    // never throws).
    faultHook(NativeFaultPoint::PreRollback);
    // Undo everything, newest first. beginPos() is the anchored zero
    // position; it stays valid for an empty undo log (a read-only
    // transaction aborted by validation or retry()).
    undoLog_->forEachReverse(undoLog_->beginPos(),
                             [&](Addr e) { undoRestore(e); });
    // Released records must re-version *forward* in clock time: a
    // plain old+2 bump could run ahead of the clock and collide with
    // the version a future writer commit will install, letting a
    // stale snapshot accept a dirty-then-restored value (ABA).
    // Consuming a real tick keeps "time <= snapshot => stable"
    // airtight. Write-free aborts own nothing and skip the clock
    // entirely.
    if (!writeSet_->empty())
        releaseOwnedAt(nativeclock::versionAt(rt_.tick()));
    else
        ownedVersions_.clear();
    txFrees_.clear();
    savepoints_.clear();
    depth_ = 0;
    epoch_->store(NativeRuntime::kIdleEpoch, std::memory_order_release);
    // This transaction's own allocations also ride the limbo list: a
    // zombie rival that raced a dirty read of one of our pointers can
    // never *commit* it (the forward re-versioning above guarantees
    // that), but it may still dereference it before its next
    // validation — deferring reuse keeps that dereference pointing at
    // intact, in-bounds words.
    deferFrees(txAllocs_);
    rt_.gate().depart(*gateSlot_);
}

void
NativeThread::onConflict(unsigned attempt)
{
    faultHook(NativeFaultPoint::Backoff);
    hostBackoff(attempt);
}

void
NativeThread::noteAbort(const TxConflictAbort &abort)
{
    if (abort.kind == AbortKind::CmKill)
        ++stats_.cmKills;
}

void
NativeThread::maybeEscalate(unsigned consec_aborts)
{
    if (irrevocable_)
        return;
    if (!rt_.watchdog().starved(consec_aborts, abortsSinceCommit_))
        return;
    faultHook(NativeFaultPoint::GateEnter);
    rt_.gate().enter(this);
    irrevocable_ = true;
    ++stats_.irrevocableEntries;
}

void
NativeThread::leaveIrrevocable()
{
    HASTM_ASSERT(irrevocable_);
    // Hook *before* clearing the flag: a release-point fault must
    // never abort the (still-irrevocable) transaction.
    faultHook(NativeFaultPoint::GateRelease);
    irrevocable_ = false;
    rt_.gate().exit();
}

void
NativeThread::rollbackForRetry()
{
    // Snapshot the read set (record, logged version) so waitForChange
    // can poll for movement after the rollback released everything.
    retryWatch_.clear();
    readSet_->forEachAll([&](Addr e) {
        retryWatch_.emplace_back(unpackRec(rt_.heap().loadWord(e)),
                                 rt_.heap().loadWord(e + 8));
    });
    rollback();
}

void
NativeThread::waitForChange(unsigned attempt)
{
    if (retryWatch_.empty()) {
        hostBackoff(attempt + 2);
        return;
    }
    for (unsigned round = 0; round < 64; ++round) {
        for (auto &[rec, ver] : retryWatch_) {
            if (rec->load(std::memory_order_acquire) != ver)
                return;
        }
        hostBackoff(round < 14 ? round : 14);
    }
    // Give up waiting and re-execute anyway (spurious wake-ups are
    // always safe; blocking forever on a missed update is not).
}

bool
NativeThread::nestedAtomic(const std::function<void()> &fn)
{
    HASTM_ASSERT(depth_ >= 1);
    NativeSavepoint sp;
    sp.rdPos = readSet_->pos();
    sp.wrPos = writeSet_->pos();
    sp.undoPos = undoLog_->pos();
    sp.txAllocCount = txAllocs_.size();
    sp.txFreeCount = txFrees_.size();
    sp.snapshot = snapshot_;
    savepoints_.push_back(sp);
    ++depth_;
    try {
        fn();
        savepoints_.pop_back();
        --depth_;
        ++stats_.nestedCommits;
        return true;
    } catch (const TxUserAbort &) {
        partialRollback(sp);
        savepoints_.pop_back();
        --depth_;
        ++stats_.nestedAborts;
        return false;
    } catch (const TxRetryRequest &) {
        partialRollback(sp);
        savepoints_.pop_back();
        --depth_;
        ++stats_.nestedAborts;
        throw;
    } catch (const TxConflictAbort &) {
        savepoints_.pop_back();
        --depth_;
        throw;
    }
}

// ---- barriers ----

std::uint64_t
NativeThread::readWord(Addr data)
{
    HASTM_ASSERT(inTx());
    ++stats_.rdBarriers;
    NRec rec = &rt_.records().recordFor(data);
    for (;;) {
        std::uint64_t v = rec->load(std::memory_order_acquire);
        if (v == token_)
            return rt_.heap().loadWord(data);
        if (txrec::isVersion(v)) {
            // TL2 read: bracket the data load between two record
            // loads. An unchanged odd version proves the datum was
            // stable across the load; the acquire fence orders the
            // re-read after it.
            std::uint64_t val = rt_.heap().loadWord(data);
            // Widen the load/fence/reload gap: a writer acquiring and
            // releasing the record inside it must fail the re-check.
            faultHook(NativeFaultPoint::Tl2ReadGap);
            std::atomic_thread_fence(std::memory_order_acquire);
            if (rec->load(std::memory_order_relaxed) != v)
                continue;
            if (nativeclock::timeOf(v) > snapshot_) {
                // Written after our snapshot: extend (revalidate once
                // against the current clock) rather than abort. The
                // extension throws if a logged read actually moved.
                extendSnapshot();
                continue;
            }
            // Consistent at the snapshot, and stable until some
            // writer bumps the record past it — which commit-time
            // validation (or the wv == snapshot+1 ticket) catches.
            // No incremental revalidation, ever: this is the O(|rs|²)
            // -> O(|rs|) collapse the protocol buys.
            readSet_->append2(packRec(rec), v);
            return val;
        }
        contention(rec);
    }
}

void
NativeThread::writeWord(Addr data, std::uint64_t v, bool is_ptr)
{
    HASTM_ASSERT(inTx());
    ++stats_.wrBarriers;
    NRec rec = &rt_.records().recordFor(data);
    acquire(rec);
    undoAppend(data, is_ptr);
    rt_.heap().storeWord(data, v);
}

void
NativeThread::acquire(NRec rec)
{
    // Widen the decide-to-CAS window: a rival acquiring (or a commit
    // re-versioning) the record in it must fail our CAS, never be
    // overwritten by it.
    faultHook(NativeFaultPoint::PreAcquire);
    for (;;) {
        std::uint64_t v = rec->load(std::memory_order_acquire);
        if (v == token_)
            return;
        if (txrec::isVersion(v)) {
            if (nativeclock::timeOf(v) > snapshot_) {
                // Acquiring would let us read-after-write a value
                // newer than our snapshot; extend first so the
                // transaction stays opaque.
                extendSnapshot();
                continue;
            }
            if (rec->compare_exchange_weak(v, token_,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
                writeSet_->append2(packRec(rec), v);
                ownedVersions_.emplace(rec, v);
                // Record owned, datum not yet written: the window
                // where a kill leaves the most state to unwind.
                faultHook(NativeFaultPoint::PostAcquire);
                return;
            }
            continue;
        }
        contention(rec);
    }
}

void
NativeThread::contention(NRec rec)
{
    unsigned budget = spinBudget(abortsSinceCommit_);
    for (unsigned spin = 0; spin < budget; ++spin) {
        std::uint64_t v = rec->load(std::memory_order_acquire);
        if (txrec::isVersion(v) || v == token_)
            return;
        if ((spin & 15) == 15)
            std::this_thread::yield();
    }
    throw TxConflictAbort{packRec(rec), AbortKind::CmKill};
}

unsigned
NativeThread::spinBudget(unsigned attempt) const
{
    unsigned shift = attempt < 16 ? attempt : 16;
    std::uint64_t budget = kBackoffSpinsBase << shift;
    if (budget >= kBackoffSpinsCap)
        return unsigned(kBackoffSpinsCap);
    // Deterministic per-thread jitter (up to +50%, still capped):
    // decorrelates rivals that aborted in lockstep without making any
    // run depend on host entropy.
    std::uint64_t h = (jitter_ + attempt) * txrec::kHashMult;
    budget += (h >> 56) * budget / 512;
    return unsigned(budget < kBackoffSpinsCap ? budget : kBackoffSpinsCap);
}

void
NativeThread::validate()
{
    ++stats_.fullValidations;
    readSet_->forEachAll([&](Addr e) {
        NRec rec = unpackRec(rt_.heap().loadWord(e));
        std::uint64_t logged = rt_.heap().loadWord(e + 8);
        std::uint64_t cur = rec->load(std::memory_order_acquire);
        if (cur == logged)
            return;
        if (cur == token_) {
            auto it = ownedVersions_.find(rec);
            if (it != ownedVersions_.end() && it->second == logged)
                return;
        }
        throw TxConflictAbort{packRec(rec), AbortKind::Validation};
    });
}

void
NativeThread::validateNow()
{
    if (!inTx())
        return;
    validate();
}

void
NativeThread::extendSnapshot()
{
    // Sample *before* validating: every read that passes validation is
    // consistent at some point at or after `now` was read, so `now` is
    // a safe (conservative) new snapshot.
    std::uint64_t now = rt_.clockNow();
    try {
        // The hook sits inside the try so a forced ExtensionFail is
        // counted exactly like a genuinely stale read.
        faultHook(NativeFaultPoint::ExtendRevalidate);
        validate();
    } catch (const TxConflictAbort &) {
        ++stats_.extensionFailures;
        throw;
    }
    snapshot_ = now;
    ++stats_.extensions;
}

// ---- undo log + Bloom dedup ----

LogPos
NativeThread::undoFrameStart() const
{
    return savepoints_.empty() ? undoLog_->beginPos()
                               : savepoints_.back().undoPos;
}

bool
NativeThread::bloomTest(Addr data) const
{
    std::uint64_t h = data * txrec::kHashMult;
    std::uint64_t b1 = h & (kBloomBits - 1);
    std::uint64_t b2 = (h >> 32) & (kBloomBits - 1);
    return (bloom_[b1 >> 6] >> (b1 & 63) & 1) &&
           (bloom_[b2 >> 6] >> (b2 & 63) & 1);
}

void
NativeThread::bloomSet(Addr data)
{
    std::uint64_t h = data * txrec::kHashMult;
    std::uint64_t b1 = h & (kBloomBits - 1);
    std::uint64_t b2 = (h >> 32) & (kBloomBits - 1);
    bloom_[b1 >> 6] |= std::uint64_t(1) << (b1 & 63);
    bloom_[b2 >> 6] |= std::uint64_t(1) << (b2 & 63);
}

void
NativeThread::bloomClear()
{
    bloom_.fill(0);
}

void
NativeThread::undoAppend(Addr data, bool is_ptr)
{
    if (!bloomTest(data)) {
        // A Bloom miss proves no undo entry for this address exists
        // anywhere in the transaction: first write, log it.
        bloomSet(data);
    } else {
        // Possible rewrite. Dedup is *frame*-scoped: only an entry
        // logged by the innermost nesting frame may be elided —
        // eliding against a parent frame's entry would make a partial
        // abort of this frame skip restoring the value the parent
        // saw. The filter is transaction-scoped (conservative), so a
        // parent-frame entry shows up here as a false positive and is
        // re-logged.
        bool found = false;
        undoLog_->forEach(undoFrameStart(), [&](Addr e) {
            if (rt_.heap().loadWord(e) == data)
                found = true;
        });
        if (found) {
            ++stats_.undoElided;
            return;
        }
        ++stats_.bloomFalsePositives;
    }
    undoLog_->append3(data, rt_.heap().loadWord(data),
                      undometa::make(8, is_ptr));
}

void
NativeThread::undoRestore(Addr entry)
{
    Addr data = rt_.heap().loadWord(entry);
    std::uint64_t old = rt_.heap().loadWord(entry + 8);
    rt_.heap().storeWord(data, old);
}

// ---- record release + partial abort ----

void
NativeThread::releaseOwnedAt(std::uint64_t v)
{
    // Versions never lead the clock: v came from a claimed tick, so
    // its time is at most the current clock value.
    HASTM_ASSERT(nativeclock::timeOf(v) <= rt_.clockNow());
    writeSet_->forEachAll([&](Addr e) {
        NRec rec = unpackRec(rt_.heap().loadWord(e));
        rec->store(v, std::memory_order_release);
    });
    ownedVersions_.clear();
}

void
NativeThread::partialRollback(const NativeSavepoint &sp)
{
    // Restore data written since the savepoint, newest first.
    undoLog_->forEachReverse(sp.undoPos,
                             [&](Addr e) { undoRestore(e); });
    // Release records first acquired inside the nested transaction,
    // re-versioned *forward* to a fresh clock tick (one tick covers
    // the whole frame), exactly like a full rollback. Restoring the
    // pre-acquisition version would be the dirty-then-restored ABA: a
    // rival that loaded that version, read the frame's in-place value
    // during the dirty window, and re-checks after this restore would
    // see the version unchanged and accept uncommitted data. The
    // parent's own logged reads of these records go stale instead and
    // conservatively extend or abort at their next validation.
    std::uint64_t fwd = 0;
    writeSet_->forEach(sp.wrPos, [&](Addr e) {
        NRec rec = unpackRec(rt_.heap().loadWord(e));
        if (fwd == 0)
            fwd = nativeclock::versionAt(rt_.tick());
        rec->store(fwd, std::memory_order_release);
        ownedVersions_.erase(rec);
    });
    undoLog_->truncate(sp.undoPos);
    writeSet_->truncate(sp.wrPos);
    readSet_->truncate(sp.rdPos);
    // Restore the entry snapshot too: truncation dropped the frame's
    // reads, and the surviving (parent) reads were validated under
    // sp.snapshot. Rewinding is conservative — at worst the parent
    // re-extends. (The Bloom filter is *not* rewound; stale bits only
    // cost false positives, never correctness.)
    snapshot_ = sp.snapshot;
    // The frame's allocations defer like a full rollback's (zombie
    // dirty pointers must not dereference reused words); our own
    // still-published epoch pins them until this transaction ends.
    if (txAllocs_.size() > sp.txAllocCount) {
        std::vector<Addr> doomed(txAllocs_.begin() + sp.txAllocCount,
                                 txAllocs_.end());
        txAllocs_.resize(sp.txAllocCount);
        deferFrees(doomed);
    }
    txFrees_.resize(sp.txFreeCount);
}

// ---- data interface ----

std::uint64_t
NativeThread::readField(Addr obj, unsigned off)
{
    return readWord(obj + kObjHeaderBytes + off);
}

void
NativeThread::writeField(Addr obj, unsigned off, std::uint64_t v,
                         bool is_ptr)
{
    writeWord(obj + kObjHeaderBytes + off, v, is_ptr);
}

Addr
NativeThread::txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    std::size_t total = blockBytes(field_bytes);
    Addr obj = takeBinned(total);
    if (obj == kNullAddr) {
        // Only an empty bin pays for the epoch scan.
        reclaimOwn();
        obj = takeBinned(total);
    }
    if (obj == kNullAddr)
        obj = rt_.heap().alloc(total, 16);
    for (Addr p = obj; p < obj + total; p += 8)
        rt_.heap().storeWord(p, 0);
    rt_.heap().storeWord(obj + kGcMetaOff,
                         objmeta::make(field_bytes, ptr_mask));
    if (inTx())
        txAllocs_.push_back(obj);
    return obj;
}

void
NativeThread::txFree(Addr obj)
{
    if (inTx()) {
        txFrees_.push_back(obj);
        return;
    }
    // Even outside a transaction, reuse must wait for rivals whose
    // snapshots could still validate reads into the block.
    deferFree(obj);
}

} // namespace hastm
