#include "htm/hytm.hh"

#include "sim/logging.hh"
#include "stm/irrevocable.hh"

namespace hastm {

namespace {

/** Entries the simulated record log can hold (2 words each). */
constexpr std::size_t kRecLogEntries = 256;

/** Attribution for a hardware abort cause. */
AbortKind
abortKindFor(HtmAbortCause cause)
{
    switch (cause) {
      case HtmAbortCause::Conflict: return AbortKind::HtmConflict;
      case HtmAbortCause::Capacity: return AbortKind::HtmCapacity;
      case HtmAbortCause::Explicit: return AbortKind::HtmExplicit;
      case HtmAbortCause::None:
      default:                      return AbortKind::Unknown;
    }
}

} // namespace

HytmThread::HytmThread(Core &core, StmGlobals &globals)
    : TmThread(core), g_(globals), htm_(core)
{
    recLogArea_ = g_.machine().heap().allocZeroed(kRecLogEntries * 16, 64);
}

Addr
HytmThread::recFor(Addr obj, Addr data) const
{
    return g_.recordFor(obj, data);
}

void
HytmThread::checkDoomed()
{
    if (htm_.doomed()) {
        throw TxConflictAbort{kNullAddr,
                              abortKindFor(htm_.lastAbortCause())};
    }
}

// ----------------------------------------------------------- barriers

std::uint64_t
HytmThread::hybridRead(Addr data, Addr rec)
{
    if (irrevocable_) {
        // Serial mode: no concurrent software transaction can start
        // (quiesced) and plain coherence traffic conflict-aborts any
        // hardware transaction sharing our lines, so the record check
        // and speculation are unnecessary.
        ++stats_.rdBarriers;
        return core_.load<std::uint64_t>(data);
    }
    // Fig 14 HybridRead: check the record is shared, then load.
    footprint_.noteRead(rec, data);
    {
        Core::PhaseScope scope(core_, Phase::RdBarrier);
        Core::MetaScope meta(core_);
        ++stats_.rdBarriers;
        std::uint64_t recval = htm_.specLoad(rec);
        core_.execInstrIlp(2);
        checkDoomed();
        if (!txrec::isVersion(recval)) {
            // A software transaction owns the datum: contention
            // policy aborts the hardware transaction.
            htm_.txAbortExplicit();
            throw TxConflictAbort{rec, AbortKind::HtmExplicit};
        }
    }
    std::uint64_t v = htm_.specLoad(data);
    checkDoomed();
    return v;
}

void
HytmThread::hybridWrite(Addr data, Addr rec, std::uint64_t v)
{
    if (irrevocable_) {
        ++stats_.wrBarriers;
        // Save the old value (the load is the store's own demand miss
        // at worst) so a userAbort/retry inside the escalated block
        // can restore memory; see rollback().
        irrevUndo_.emplace_back(data, core_.load<std::uint64_t>(data));
        core_.store<std::uint64_t>(data, v);
        return;
    }
    footprint_.noteWrite(rec, data);
    {
        Core::PhaseScope scope(core_, Phase::WrBarrier);
        Core::MetaScope meta(core_);
        ++stats_.wrBarriers;
        std::uint64_t recval = htm_.specLoad(rec);
        core_.execInstrIlp(2);
        checkDoomed();
        if (!txrec::isVersion(recval)) {
            htm_.txAbortExplicit();
            throw TxConflictAbort{rec, AbortKind::HtmExplicit};
        }
        // logWrite(txnrec, txnrecvalue): remember the record so commit
        // can bump its version and notify software transactions. One
        // log entry per record.
        if (recLogged_.insert(rec).second) {
            if (recLog_.size() < kRecLogEntries) {
                Addr slot = recLogArea_ + recLog_.size() * 16;
                htm_.specStore(slot, rec);
                htm_.specStore(slot + 8, recval);
                checkDoomed();
            }
            recLog_.emplace_back(rec, recval);
        }
    }
    htm_.specStore(data, v);
    checkDoomed();
}

std::uint64_t
HytmThread::readWord(Addr a)
{
    HASTM_ASSERT(inTx());
    return hybridRead(a, recFor(kNullAddr, a));
}

void
HytmThread::writeWord(Addr a, std::uint64_t v, bool is_ptr)
{
    (void)is_ptr;
    HASTM_ASSERT(inTx());
    hybridWrite(a, recFor(kNullAddr, a), v);
}

std::uint64_t
HytmThread::readField(Addr obj, unsigned off)
{
    HASTM_ASSERT(inTx());
    Addr data = obj + kObjHeaderBytes + off;
    return hybridRead(data, recFor(obj, data));
}

void
HytmThread::writeField(Addr obj, unsigned off, std::uint64_t v, bool is_ptr)
{
    (void)is_ptr;
    HASTM_ASSERT(inTx());
    Addr data = obj + kObjHeaderBytes + off;
    hybridWrite(data, recFor(obj, data), v);
}

// ----------------------------------------------------------- lifecycle

void
HytmThread::begin()
{
    HASTM_ASSERT(depth_ == 0);
    Core::PhaseScope scope(core_, Phase::TxBegin);
    g_.gate().arrive(core_);
    if (!irrevocable_)
        htm_.txBegin();
    footprint_.reset();
    recLog_.clear();
    recLogged_.clear();
    txAllocs_.clear();
    txFrees_.clear();
    irrevUndo_.clear();
    depth_ = 1;
}

bool
HytmThread::commit()
{
    HASTM_ASSERT(depth_ == 1);
    if (irrevocable_) {
        // Plain stores are already globally visible; nothing can have
        // invalidated them (the system is quiesced), so the commit is
        // the guaranteed no-op the escalation promised.
        Core::PhaseScope scope(core_, Phase::Commit);
        core_.execInstr(4);
        commitStamp_ = core_.cycles();
        for (Addr obj : txFrees_)
            g_.machine().heap().free(obj);
        txFrees_.clear();
        txAllocs_.clear();
        irrevUndo_.clear();
        depth_ = 0;
        g_.gate().noteActive(core_, false);
        ++stats_.commits;
        return true;
    }
    if (htm_.doomed()) {
        rollback();
        return false;
    }
    {
        Core::PhaseScope scope(core_, Phase::Commit);
        Core::MetaScope meta(core_);
        // Bump every written record's version inside the transaction;
        // the bumps become visible atomically at hardware commit and
        // tell concurrent software transactions about the updates.
        for (auto &[rec, ver] : recLog_) {
            htm_.specStore(rec, txrec::nextVersion(ver));
            if (htm_.doomed())
                break;
        }
        if (htm_.doomed() || !htm_.txCommit()) {
            rollback();
            return false;
        }
        // Hardware commit succeeded: this is the serialization point.
        commitStamp_ = core_.cycles();
        // The version bumps just became visible; publish the lines
        // written under each bumped record so software transactions
        // aborted by them can classify the conflict.
        footprint_.groupWrites();
        core_.sync();
        for (auto &[rec, ver] : recLog_)
            g_.classifier().publishRelease(recLogArea_, rec, footprint_);
    }
    for (Addr obj : txFrees_)
        g_.machine().heap().free(obj);
    depth_ = 0;
    g_.gate().noteActive(core_, false);
    ++stats_.commits;
    return true;
}

void
HytmThread::rollback()
{
    if (irrevocable_) {
        // A userAbort()/retry() inside an escalated block (conflicts
        // cannot reach here: the system is quiesced). Restore the
        // plain stores from the undo log, newest first, and release
        // the transactional allocations. The gate token itself is
        // dropped afterwards by the atomic() driver via
        // leaveIrrevocable() (user aborts and retries must not park
        // the whole system on a waiting thread).
        Core::PhaseScope scope(core_, Phase::Abort);
        core_.execInstr(8);
        for (auto it = irrevUndo_.rbegin(); it != irrevUndo_.rend(); ++it)
            core_.store<std::uint64_t>(it->first, it->second);
        irrevUndo_.clear();
        for (Addr obj : txAllocs_)
            g_.machine().heap().free(obj);
        txAllocs_.clear();
        txFrees_.clear();
        recLog_.clear();
        recLogged_.clear();
        depth_ = 0;
        g_.gate().noteActive(core_, false);
        return;
    }
    Core::PhaseScope scope(core_, Phase::Abort);
    core_.execInstr(20);
    ++stats_.htmAborts;
    commitFailure_ = TxConflictAbort{kNullAddr,
                                     abortKindFor(htm_.lastAbortCause())};
    if (htm_.lastAbortCause() == HtmAbortCause::Capacity)
        ++stats_.htmCapacityAborts;
    if (htm_.active() && !htm_.doomed()) {
        // Software-initiated rollback (userAbort / retry): the
        // hardware transaction is still live and its speculative
        // stores must be discarded explicitly.
        htm_.txAbortExplicit();
    }
    // Otherwise the hardware already restored memory the moment the
    // transaction was doomed; only software bookkeeping remains.
    htm_.reset();
    for (Addr obj : txAllocs_)
        g_.machine().heap().free(obj);
    txAllocs_.clear();
    txFrees_.clear();
    depth_ = 0;
    g_.gate().noteActive(core_, false);
}

void
HytmThread::noteAbort(const TxConflictAbort &abort)
{
    // Only explicit aborts name a record (a software owner made the
    // barrier bail); hardware conflict/capacity aborts carry no
    // record semantics to classify.
    if (abort.rec == kNullAddr || abort.kind != AbortKind::HtmExplicit)
        return;
    core_.sync();
    accountConflictClass(
        stats_, g_.classifier().classify(footprint_, recLogArea_,
                                         abort.rec,
                                         g_.machine().arena()));
}

// ------------------------------------------- starvation watchdog

void
HytmThread::maybeEscalate(unsigned consec_aborts)
{
    if (irrevocable_)
        return;
    if (!g_.cfg().watchdog.starved(consec_aborts, abortsSinceCommit_))
        return;
    g_.gate().enter(core_);
    irrevocable_ = true;
    ++stats_.irrevocableEntries;
}

void
HytmThread::leaveIrrevocable()
{
    HASTM_ASSERT(irrevocable_);
    irrevocable_ = false;
    g_.gate().exit(core_);
}

// ----------------------------------------------------------- allocation

Addr
HytmThread::txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    std::size_t total = kObjHeaderBytes + ((field_bytes + 15) & ~15ull);
    Addr obj = g_.machine().heap().alloc(total, 16);
    core_.execInstr(25);
    if (inTx() && !irrevocable_) {
        txAllocs_.push_back(obj);
        htm_.specStore(obj + kTxRecOff, txrec::kInitialVersion);
        htm_.specStore(obj + kGcMetaOff,
                       objmeta::make(field_bytes, ptr_mask));
        for (Addr a = obj + kObjHeaderBytes; a < obj + total; a += 8)
            htm_.specStore(a, 0);
        checkDoomed();
    } else {
        // Track irrevocable in-transaction allocations too, so a
        // userAbort/retry rollback can release them.
        if (inTx())
            txAllocs_.push_back(obj);
        core_.store<std::uint64_t>(obj + kTxRecOff,
                                   txrec::kInitialVersion);
        core_.store<std::uint64_t>(obj + kGcMetaOff,
                                   objmeta::make(field_bytes, ptr_mask));
        for (Addr a = obj + kObjHeaderBytes; a < obj + total; a += 8)
            core_.store<std::uint64_t>(a, 0);
    }
    return obj;
}

void
HytmThread::txFree(Addr obj)
{
    core_.execInstr(8);
    if (inTx())
        txFrees_.push_back(obj);
    else
        g_.machine().heap().free(obj);
}

} // namespace hastm
