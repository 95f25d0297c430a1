#include "hastm/hastm.hh"

#include "sim/logging.hh"

namespace hastm {

namespace {

ModeStrategy
strategyFor(HastmVariant v)
{
    switch (v) {
      case HastmVariant::Cautious: return ModeStrategy::Never;
      case HastmVariant::Naive:    return ModeStrategy::Naive;
      case HastmVariant::Normal:
      case HastmVariant::NoReuse:
      default:                     return ModeStrategy::Adaptive;
    }
}

} // namespace

HastmThread::HastmThread(Core &core, StmGlobals &globals,
                         HastmVariant variant, unsigned num_threads)
    : StmThread(core, globals), variant_(variant),
      policy_(strategyFor(variant), num_threads, kPolicyWindow,
              kAggressiveWatermark)
{
}

bool
HastmThread::filterWrites() const
{
    return g_.cfg().filterWrites;
}

// ----------------------------------------------------------- read paths

std::uint64_t
HastmThread::readShared(Addr data, Addr rec)
{
    // The fused Fig 7 barrier (mark the DATA line, trust the mark for
    // the whole line) is only sound when one record covers the whole
    // line: a fast-path hit skips logging, and the full-validation
    // fallback can then only re-check records the first access to the
    // line logged. Under word granularity two words on one line have
    // different records, so the record itself must be tested/marked —
    // the Fig 5 object-style barrier (records sit one per line in the
    // table, so marking them is exactly the object-mode situation).
    if (g_.cfg().gran == Granularity::CacheLine)
        return readCacheLinePath(data, rec);
    return readObjectPath(data, rec);
}

std::uint64_t
HastmThread::checkRecord(Addr rec, std::uint64_t recval)
{
    // test eax, #versionmask; jz contentionOrRecursion
    core_.execInstrIlp(2);
    if (recval == desc_.addr())
        return recval;  // recursion: we own the record
    if (!txrec::isVersion(recval)) {
        recval = cm_.handleContention(rec, investment());
        // Contention resolution may have outlived our mark (the
        // owner's release store invalidated the line); re-mark so the
        // counter keeps monitoring this record.
        core_.loadSetMark<std::uint64_t>(rec);
    }
    return recval;
}

std::uint64_t
HastmThread::readObjectPath(Addr data, Addr rec)
{
    // Fig 5 (cautious) / Fig 8 (aggressive-aware) object read barrier.
    {
        Core::PhaseScope scope(core_, Phase::RdBarrier);
        Core::MetaScope meta(core_);
        if (variant_ != HastmVariant::NoReuse) {
            // Fig 5 fast path: two instructions, no TLS access — the
            // record address comes straight from the object pointer.
            bool marked = false;
            core_.loadTestMark<std::uint64_t>(rec, marked);
            core_.dependentBranch();  // jnae done
            if (marked) {
                ++stats_.rdFastHits;
                return core_.load<std::uint64_t>(data);
            }
        }
        chargeTls();  // the slow path needs txndesc
        std::uint64_t recval = core_.loadSetMark<std::uint64_t>(rec);
        recval = checkRecord(rec, recval);
        if (recval != desc_.addr()) {
            if (desc_.aggressive()) {
                // test [txndesc + mode], #aggressive; jnz done
                core_.execInstr(2);
            } else {
                logRead(rec, recval);
            }
        }
    }
    return core_.load<std::uint64_t>(data);
}

std::uint64_t
HastmThread::readCacheLinePath(Addr data, Addr rec)
{
    // Fig 7 (cautious) / Fig 9 (aggressive) cache-line read barrier:
    // the barrier subsumes the data load.
    //
    // One reordering relative to the paper's listing: the slow path
    // marks the data line (loadsetmark_granularity64) *before*
    // checking the transaction record, and the returned value is the
    // one loaded by that marking instruction. Marking first closes
    // the window the trailing-loadsetmark order leaves open: a writer
    // that acquires the record right after our check must still store
    // the datum, and that store now hits an already-marked line, so
    // the mark counter flags the transaction instead of letting a
    // dirty read commit under a clean counter. The instruction count
    // is identical.
    Core::PhaseScope scope(core_, Phase::RdBarrier);
    if (variant_ != HastmVariant::NoReuse) {
        bool marked = false;
        std::uint64_t value =
            core_.loadTestMarkLine<std::uint64_t>(data, marked);
        core_.dependentBranch();  // jnae complete
        if (marked) {
            ++stats_.rdFastHits;
            return value;
        }
    } else {
        // No filtering: this is the datum's demand access, charged in
        // full; the marking re-load below is then barrier-internal.
        core_.load<std::uint64_t>(data);
    }
    chargeTls();  // the slow path needs txndesc
    for (;;) {
        // The line is resident after the demand access above; the
        // marking re-load and the record check are barrier-internal
        // traffic an OOO core overlaps (MetaScope).
        Core::MetaScope meta(core_);
        std::uint64_t value = core_.loadSetMarkLine<std::uint64_t>(data);
        chargeRecCompute();
        std::uint64_t recval = desc_.aggressive()
            ? core_.loadSetMark<std::uint64_t>(rec)  // Fig 9 marks the rec
            : core_.load<std::uint64_t>(rec);
        core_.execInstrIlp(2);
        if (recval == desc_.addr())
            return value;  // we own the datum
        if (!txrec::isVersion(recval)) {
            // Once the owner releases, re-run the whole sequence: the
            // datum must be re-loaded and re-marked under the new
            // record state.
            cm_.handleContention(rec, investment());
            continue;
        }
        if (desc_.aggressive())
            core_.execInstr(2);
        else
            logRead(rec, recval);
        return value;
    }
}

// ----------------------------------------------------------- write path

void
HastmThread::writeBarrier(Addr data, Addr rec)
{
    (void)data;
    Core::PhaseScope scope(core_, Phase::WrBarrier);
    Core::MetaScope meta(core_);
    if (filterWrites()) {
        // Write-filtering extension (§5): filter 1 on the record line
        // remembers "this transaction already owns the record". A hit
        // skips the ownership check, the CAS, and the write-set
        // logging — the write-side analogue of Fig 5.
        bool marked = false;
        core_.loadTestMark<std::uint64_t>(rec, marked, 0, kWriteFilter);
        core_.dependentBranch();
        if (marked) {
            ++stats_.wrFastHits;
            return;
        }
        chargeTls();
        chargeRecCompute();
        acquireRecord(rec);
        core_.loadSetMark<std::uint64_t>(rec, 0, kWriteFilter);
        return;
    }
    chargeTls();
    chargeRecCompute();
    acquireRecord(rec);
    if (g_.cfg().gran != Granularity::CacheLine) {
        // §5: the write barrier marks the transaction record so
        // subsequent read barriers take the fast path (object and
        // word granularities both test the record).
        core_.loadSetMark<std::uint64_t>(rec);
    }
}

void
HastmThread::undoAppend(Addr data, bool is_ptr)
{
    if (!filterWrites()) {
        StmThread::undoAppend(data, is_ptr);
        return;
    }
    // Undo-log filtering (§5): filter 1 on the datum's 16-byte
    // sub-block remembers "this chunk's pre-transaction value is
    // already logged"; repeated writes skip the append entirely.
    Core::PhaseScope scope(core_, Phase::WrBarrier);
    Core::MetaScope meta(core_);
    Addr chunk = data & ~Addr(15);
    bool marked = false;
    core_.loadTestMark<std::uint64_t>(chunk, marked, 16, kWriteFilter);
    core_.dependentBranch();
    if (marked) {
        ++stats_.undoElided;
        return;
    }
    std::uint64_t lo = core_.load<std::uint64_t>(chunk);
    std::uint64_t hi = core_.load<std::uint64_t>(chunk + 8);
    desc_.undoLog().append4(chunk, undometa::make(16, false), lo, hi);
    core_.loadSetMark<std::uint64_t>(chunk, 16, kWriteFilter);
    (void)is_ptr;  // 16-byte chunks carry no GC ref flags (unmanaged)
}

bool
HastmThread::nestedAtomic(const std::function<void()> &fn)
{
    if (!filterWrites())
        return StmThread::nestedAtomic(fn);
    // Write-filter marks must not leak across savepoints: an undo
    // chunk logged before the savepoint holds the pre-transaction
    // value, but a partial rollback must restore the savepoint-time
    // value, so nested writes have to re-log. Clearing filter 1 at
    // nested begin (and again after any nested unwind, which may have
    // released records whose filter-1 marks would otherwise claim
    // ownership) keeps both filters truthful.
    core_.resetMarkAll(kWriteFilter);
    try {
        bool committed = StmThread::nestedAtomic(fn);
        if (!committed)
            core_.resetMarkAll(kWriteFilter);  // nested user abort
        return committed;
    } catch (...) {
        core_.resetMarkAll(kWriteFilter);
        throw;
    }
}

void
HastmThread::postWrite(Addr data, Addr rec)
{
    (void)rec;
    if (g_.cfg().gran == Granularity::CacheLine) {
        // Mark the written line so subsequent reads of it fast-path.
        Core::PhaseScope scope(core_, Phase::WrBarrier);
        core_.loadSetMarkLine<std::uint64_t>(data);
    }
}

// ----------------------------------------------------------- validation

void
HastmThread::validate(bool at_commit)
{
    // Fig 6: the mark counter short-circuits validation entirely when
    // no marked line was snooped or evicted.
    Core::PhaseScope scope(core_, Phase::Validate);
    Core::MetaScope meta(core_);
    std::uint64_t count = core_.readMarkCounter();
    core_.execInstrIlp(2);
    if (count == 0) {
        ++stats_.fastValidations;
        return;
    }
    commitCounterNonZero_ = true;
    if (desc_.aggressive()) {
        // No read set to fall back on: spurious or real, the loss of
        // a marked line aborts an aggressive transaction (§6).
        ++stats_.aggressiveAborts;
        throw TxConflictAbort{kNullAddr, AbortKind::SpuriousCounter};
    }
    ++stats_.fullValidations;
    if (at_commit) {
        fullValidation(false);
    } else {
        // Mid-transaction: drop stale marks, walk the read set with
        // loadsetmark so every read record is marked again, and only
        // then re-arm the counter — otherwise a record whose mark was
        // lost before this validation would go unmonitored.
        core_.resetMarkAll();
        fullValidation(true);
        core_.resetMarkCounter();
    }
}

// ---------------------------------------------------- begin/commit/abort

void
HastmThread::beginTop()
{
    commitCounterNonZero_ = false;
    // Irrevocable mode must commit; an aggressive attempt can still
    // be killed by a spurious counter bump (injected faults), so run
    // cautious — the quiesced system makes its validation trivial.
    bool aggressive = !irrevocable_ && policy_.chooseAggressive();
    desc_.setAggressive(aggressive);
    if (!g_.cfg().clearMarksAtEnd && !aggressive) {
        // Inter-atomic mark reuse (Fig 10) is only sound in
        // aggressive mode: a cautious fast-path hit on a stale mark
        // would skip read-set logging for a record the validator then
        // never re-checks. Cautious transactions therefore start
        // from a clean slate.
        core_.resetMarkAll();
    }
    core_.resetMarkCounter();
}

void
HastmThread::commitHook()
{
    if (desc_.aggressive())
        ++stats_.aggressiveCommits;
    if (filterWrites()) {
        core_.resetMarkAll(kWriteFilter);
        core_.resetMarkCounter(kWriteFilter);
    }
    if (g_.cfg().clearMarksAtEnd) {
        // §7: all measurements clear marks at transaction end, making
        // the reported HASTM numbers conservative.
        core_.resetMarkAll();
        core_.resetMarkCounter();
    }
    policy_.onCommit(desc_.aggressive(), commitCounterNonZero_);
}

void
HastmThread::abortHook()
{
    if (retryRollback_) {
        // A retry() is voluntary, not a conflict: keep the marks (the
        // counter is the wait channel) and don't penalise the mode
        // policy.
        return;
    }
    core_.resetMarkAll();
    core_.resetMarkCounter();
    if (filterWrites()) {
        core_.resetMarkAll(kWriteFilter);
        core_.resetMarkCounter(kWriteFilter);
    }
    policy_.onAbort(desc_.aggressive(), commitCounterNonZero_);
}

// ----------------------------------------------------------- retry

void
HastmThread::waitForChange(unsigned attempt)
{
    if (!retryWatch_.empty()) {
        StmThread::waitForChange(attempt);
        return;
    }
    // Aggressive-mode retry: the read set was never logged, but every
    // line the transaction read is marked, so the mark counter is a
    // hardware watch on the whole read footprint. rollbackForRetry()
    // kept the marks alive for exactly this purpose.
    core_.resetMarkCounter();
    Cycles wait = 256;
    for (unsigned round = 0; round < 64; ++round) {
        std::uint64_t count = core_.readMarkCounter();
        core_.execInstrIlp(2);
        if (count != 0)
            break;
        core_.stall(wait);
        if (wait < 64 * 1024)
            wait *= 2;
    }
    core_.resetMarkAll();
    core_.resetMarkCounter();
    (void)attempt;
}

} // namespace hastm
