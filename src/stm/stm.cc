#include "stm/stm.hh"

#include "sim/logging.hh"
#include "sim/trace.hh"
#include "stm/irrevocable.hh"

namespace hastm {

StmGlobals::StmGlobals(Machine &machine, const StmConfig &cfg)
    : machine_(machine), cfg_(cfg),
      recTable_(machine.arena(), machine.heap(),
                TxRecGeometry{cfg.recShardLog2Records, cfg.recHashMix,
                              cfg.recShardPerArena})
{
    gate_ = std::make_unique<SerialGate>(machine);
    if (!cfg_.tracePath.empty())
        trace_ = std::make_unique<TraceSink>(cfg_.tracePath);
}

StmGlobals::~StmGlobals() = default;

StmThread::StmThread(Core &core, StmGlobals &globals)
    : TmThread(core), g_(globals),
      desc_(core, globals.machine().heap(),
            globals.cfg().filterWrites ? 4 : 3),
      cm_(core, globals.cfg().cm, &stats_, globals.trace())
{
    if (g_.cfg().filterWrites &&
        g_.cfg().gran != Granularity::CacheLine) {
        // The 16-byte undo chunks are only sound when one record owns
        // the whole chunk: under word granularity a neighbouring word
        // can be remotely committed mid-transaction and our rollback
        // would clobber it; under object granularity the chunks also
        // carry no per-word GC metadata.
        fatal("filterWrites requires cache-line granularity");
    }
    // The TLS slot holding the descriptor address gets its own line.
    tlsAddr_ = g_.machine().heap().allocZeroed(64, 64);
    g_.machine().arena().write<std::uint64_t>(tlsAddr_, desc_.addr());
    g_.classifier().registerOwner(desc_.addr(), &footprint_);
}

StmThread::~StmThread()
{
    g_.classifier().unregisterOwner(desc_.addr());
    g_.machine().heap().free(tlsAddr_);
}

// ---------------------------------------------------------------- helpers

Addr
StmThread::recForWord(Addr data)
{
    return g_.recordFor(kNullAddr, data);
}

Addr
StmThread::recForField(Addr obj, Addr data)
{
    return g_.recordFor(obj, data);
}

void
StmThread::chargeRecCompute()
{
    // rec = TxRecTableBase + (addr & 0x3ffc0): three ALU instructions
    // (mov/and/add, §4); the word-keyed hash needs a couple more.
    // Non-default geometry costs extra: the region→shard directory
    // load (shift/load-index/select) and the multiplicative line mix
    // each add two instructions. Object granularity gets the record
    // address for free — the object reference is already in a
    // register.
    unsigned extra = 0;
    if (g_.recTable().numShards() > 1)
        extra += 2;
    if (g_.cfg().gran == Granularity::CacheLine) {
        if (g_.recTable().hashMix())
            extra += 2;
        core_.execInstrIlp(3 + extra);
    } else if (g_.cfg().gran == Granularity::Word) {
        core_.execInstrIlp(5 + extra);
    }
}

void
StmThread::chargeTls()
{
    Core::PhaseScope scope(core_, Phase::TlsAccess);
    Core::MetaScope meta(core_);
    core_.load<std::uint64_t>(tlsAddr_);
}

void
StmThread::guardAddr(Addr data, unsigned size)
{
    // A doomed (zombie) transaction can compute a garbage address
    // from an inconsistent read mix. Validate before touching memory
    // outside the heap; if validation passes, the address really is
    // a bug in the caller. The lower bound is the heap's first managed
    // byte, not a magic constant — everything below it (the null page
    // and reserved prefix) is never handed out to simulated code. The
    // upper bound is written so that an address near 2^64 cannot wrap
    // data + size back into range.
    std::size_t limit = g_.machine().arena().size();
    if (data >= g_.machine().heap().base() && data <= limit &&
        size <= limit - data)
        return;
    validateNow();
    panic("transaction computed out-of-range address %#llx with a "
          "valid read set", static_cast<unsigned long long>(data));
}

std::uint64_t
StmThread::investment() const
{
    return desc_.readSet().entries() + desc_.writeSet().entries() +
           desc_.undoLog().entries();
}

void
StmThread::logRead(Addr rec, std::uint64_t version)
{
    desc_.readSet().append2(rec, version);
}

void
StmThread::maybeValidate()
{
    unsigned period = g_.cfg().validateEvery;
    if (period == 0)
        return;
    if (++sinceValidate_ >= period) {
        sinceValidate_ = 0;
        validate(false);
    }
}

// ----------------------------------------------------------- read path

std::uint64_t
StmThread::readWord(Addr a)
{
    HASTM_ASSERT(inTx());
    guardAddr(a, 8);
    ++stats_.rdBarriers;
    Addr rec = recForWord(a);
    footprint_.noteRead(rec, a);
    std::uint64_t v = readShared(a, rec);
    maybeValidate();
    return v;
}

std::uint64_t
StmThread::readField(Addr obj, unsigned off)
{
    HASTM_ASSERT(inTx());
    Addr data = obj + kObjHeaderBytes + off;
    guardAddr(data, 8);
    ++stats_.rdBarriers;
    Addr rec = recForField(obj, data);
    footprint_.noteRead(rec, data);
    std::uint64_t v = readShared(data, rec);
    maybeValidate();
    return v;
}

std::uint64_t
StmThread::readShared(Addr data, Addr rec)
{
    // Fig 4: inlined read barrier fast path, then the data load. The
    // barrier needs the descriptor (TLS) for the ownership compare.
    {
        Core::PhaseScope scope(core_, Phase::RdBarrier);
        Core::MetaScope meta(core_);
        chargeTls();
        chargeRecCompute();
        std::uint64_t recval = core_.load<std::uint64_t>(rec);
        core_.execInstrIlp(4);  // cmp/jeq/test/jz
        if (recval != desc_.addr()) {
            if (!txrec::isVersion(recval))
                recval = cm_.handleContention(rec, investment());
            logRead(rec, recval);
        }
    }
    return core_.load<std::uint64_t>(data);
}

// ----------------------------------------------------------- write path

void
StmThread::writeWord(Addr a, std::uint64_t v, bool is_ptr)
{
    HASTM_ASSERT(inTx());
    guardAddr(a, 8);
    ++stats_.wrBarriers;
    Addr rec = recForWord(a);
    footprint_.noteWrite(rec, a);
    writeShared(a, rec, v, is_ptr);
}

void
StmThread::writeField(Addr obj, unsigned off, std::uint64_t v, bool is_ptr)
{
    HASTM_ASSERT(inTx());
    Addr data = obj + kObjHeaderBytes + off;
    guardAddr(data, 8);
    ++stats_.wrBarriers;
    Addr rec = recForField(obj, data);
    footprint_.noteWrite(rec, data);
    writeShared(data, rec, v, is_ptr);
}

void
StmThread::writeShared(Addr data, Addr rec, std::uint64_t v, bool is_ptr)
{
    writeBarrier(data, rec);
    undoAppend(data, is_ptr);
    core_.store<std::uint64_t>(data, v);
    postWrite(data, rec);
    maybeValidate();
}

void
StmThread::writeBarrier(Addr data, Addr rec)
{
    (void)data;
    Core::PhaseScope scope(core_, Phase::WrBarrier);
    Core::MetaScope meta(core_);
    chargeTls();
    chargeRecCompute();
    acquireRecord(rec);
}

void
StmThread::postWrite(Addr data, Addr rec)
{
    (void)data;
    (void)rec;
}

void
StmThread::acquireRecord(Addr rec)
{
    // Fig 3: stmWrBar.
    std::uint64_t recval = core_.load<std::uint64_t>(rec);
    core_.execInstrIlp(4);
    if (recval == desc_.addr())
        return;  // already exclusive
    if (!txrec::isVersion(recval))
        recval = cm_.handleContention(rec, investment());
    for (;;) {
        std::uint64_t old =
            core_.cas<std::uint64_t>(rec, recval, desc_.addr());
        core_.execInstrIlp(1);
        if (old == recval)
            break;
        recval = txrec::isVersion(old)
            ? old
            : cm_.handleContention(rec, investment());
    }
    desc_.writeSet().append2(rec, recval);
    desc_.ownedVersions[rec] = recval;
}

void
StmThread::undoAppend(Addr data, bool is_ptr)
{
    Core::PhaseScope scope(core_, Phase::WrBarrier);
    Core::MetaScope meta(core_);
    if (g_.cfg().filterWrites) {
        // 16-byte-chunk layout shared with the HASTM write filter
        // (the base STM uses it unfiltered so logs stay comparable).
        Addr chunk = data & ~Addr(15);
        std::uint64_t lo = core_.load<std::uint64_t>(chunk);
        std::uint64_t hi = core_.load<std::uint64_t>(chunk + 8);
        desc_.undoLog().append4(chunk, undometa::make(16, false), lo,
                                hi);
        return;
    }
    std::uint64_t old = core_.load<std::uint64_t>(data);
    desc_.undoLog().append3(data, old, undometa::make(8, is_ptr));
}

// ----------------------------------------------------------- validation

void
StmThread::validate(bool at_commit)
{
    Core::PhaseScope scope(core_, Phase::Validate);
    Core::MetaScope meta(core_);
    core_.execInstr(3);
    ++stats_.fullValidations;
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("atCommit", at_commit)
            .set("readSet", desc_.readSet().entries());
        t->instant(core_.id(), core_.cycles(), "validate",
                   std::move(args));
    }
    fullValidation(false);
}

void
StmThread::fullValidation(bool remark)
{
    // Fig 2: check that no read version moved. A record owned by this
    // very transaction validates against the version it was acquired
    // at (reads that predate our own acquisition stay valid only if
    // nothing committed in between).
    desc_.readSet().forEachAll([&](Addr e) {
        Addr rec = core_.load<std::uint64_t>(e);
        std::uint64_t ver = core_.load<std::uint64_t>(e + 8);
        std::uint64_t cur = remark
            ? core_.loadSetMark<std::uint64_t>(rec)
            : core_.load<std::uint64_t>(rec);
        core_.execInstrIlp(3);
        bool ok;
        if (cur == ver) {
            ok = true;
        } else if (cur == desc_.addr()) {
            auto it = desc_.ownedVersions.find(rec);
            ok = it != desc_.ownedVersions.end() && it->second == ver;
        } else {
            ok = false;
        }
        if (!ok)
            throw TxConflictAbort{rec, AbortKind::Validation};
    });
}

void
StmThread::validateNow()
{
    if (!inTx())
        return;
    validate(false);
}

// ----------------------------------------------------- begin/commit/abort

void
StmThread::begin()
{
    HASTM_ASSERT(depth_ == 0);
    Core::PhaseScope scope(core_, Phase::TxBegin);
    // Advertise in-flight status and check the serial token as one
    // store-then-load protocol (our own token lets us straight
    // through); arrive() returns with the flag set, so an escalating
    // holder quiescing after this point waits for this transaction.
    g_.gate().arrive(core_);
    txStartCycles_ = core_.cycles();
    core_.execInstr(10);
    desc_.resetForTxn();
    desc_.setStatus(desc::kStatusActive);
    sinceValidate_ = 0;
    footprint_.reset();
    retryWatch_.clear();
    beginTop();
    depth_ = 1;
}

bool
StmThread::commit()
{
    HASTM_ASSERT(depth_ == 1);
    if (!g_.cfg().testSkipCommitValidation) {
        try {
            validate(true);
        } catch (const TxConflictAbort &e) {
            commitFailure_ = e;
            rollback();
            return false;
        }
    }
    // The serialization point: validation saw every read at its
    // logged version while we hold every written record.
    commitStamp_ = core_.cycles();
    std::uint64_t read_set = desc_.readSet().entries();
    std::uint64_t undo_len = desc_.undoLog().entries();
    {
        Core::PhaseScope scope(core_, Phase::Commit);
        core_.execInstr(4);
        releaseOwned(true);
        desc_.setStatus(desc::kStatusCommitted);
    }
    // Deferred frees become final at commit.
    for (Addr obj : desc_.txFrees)
        g_.machine().heap().free(obj);
    desc_.txFrees.clear();
    commitHook();
    depth_ = 0;
    g_.gate().noteActive(core_, false);
    ++stats_.commits;
    stats_.readSetAtCommit.record(read_set);
    stats_.undoLogAtCommit.record(undo_len);
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("outcome", "commit")
            .set("readSet", read_set)
            .set("undoLog", undo_len);
        t->complete(core_.id(), txStartCycles_,
                    core_.cycles() - txStartCycles_, "tx",
                    std::move(args));
    }
    return true;
}

void
StmThread::releaseOwned(bool bump)
{
    Core::MetaScope meta(core_);
    footprint_.groupWrites();
    desc_.writeSet().forEachAll([&](Addr e) {
        Addr rec = core_.load<std::uint64_t>(e);
        std::uint64_t old = core_.load<std::uint64_t>(e + 8);
        core_.execInstrIlp(2);
        core_.store<std::uint64_t>(rec,
                                   bump ? txrec::nextVersion(old) : old);
        // Publish the lines written under this record for the
        // false-conflict classifier. Both commit and rollback count:
        // versioning is eager, so concurrent readers can have seen
        // the in-flight values either way.
        g_.classifier().publishRelease(desc_.addr(), rec,
                                       footprint_.writeLines(rec));
    });
    desc_.ownedVersions.clear();
}

void
StmThread::undoRestore(Addr entry)
{
    if (desc_.undoLog().entryBytes() == 32) {
        // Write-filtering layout: [addr][meta][lo][hi], 16-byte chunk.
        Addr data = core_.load<std::uint64_t>(entry);
        std::uint64_t lo = core_.load<std::uint64_t>(entry + 16);
        std::uint64_t hi = core_.load<std::uint64_t>(entry + 24);
        core_.store<std::uint64_t>(data, lo);
        core_.store<std::uint64_t>(data + 8, hi);
        return;
    }
    Addr data = core_.load<std::uint64_t>(entry);
    std::uint64_t old = core_.load<std::uint64_t>(entry + 8);
    std::uint64_t meta = core_.load<std::uint64_t>(entry + 16);
    switch (undometa::size(meta)) {
      case 1:
        core_.store<std::uint8_t>(data, static_cast<std::uint8_t>(old));
        break;
      case 2:
        core_.store<std::uint16_t>(data, static_cast<std::uint16_t>(old));
        break;
      case 4:
        core_.store<std::uint32_t>(data, static_cast<std::uint32_t>(old));
        break;
      case 8:
        core_.store<std::uint64_t>(data, old);
        break;
      default:
        panic("undo entry with bad size %u", undometa::size(meta));
    }
}

void
StmThread::rollback()
{
    HASTM_ASSERT(depth_ >= 1);
    {
        Core::PhaseScope scope(core_, Phase::Abort);
        core_.execInstr(10);
        // Undo everything, newest first. beginPos() is the anchored
        // zero position; it stays valid even for an empty undo log
        // (a read-only transaction aborted by validation or retry()).
        desc_.undoLog().forEachReverse(desc_.undoLog().beginPos(),
                                       [&](Addr e) { undoRestore(e); });
        releaseOwned(true);
        desc_.setStatus(desc::kStatusAborted);
    }
    // Objects allocated inside the transaction vanish with it.
    for (Addr obj : desc_.txAllocs)
        g_.machine().heap().free(obj);
    desc_.txAllocs.clear();
    desc_.txFrees.clear();
    abortHook();
    depth_ = 0;
    g_.gate().noteActive(core_, false);
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("outcome", retryRollback_ ? "retry" : "abort");
        t->complete(core_.id(), txStartCycles_,
                    core_.cycles() - txStartCycles_, "tx",
                    std::move(args));
    }
}

void
StmThread::rollbackForRetry()
{
    // Snapshot the read set host-side before the logs are recycled so
    // waitForChange() can watch for a change (the retry of [11]).
    retryWatch_.clear();
    retryWatch_.reserve(desc_.readSet().entries());
    MemArena &arena = g_.machine().arena();
    desc_.readSet().forEachAll([&](Addr e) {
        retryWatch_.emplace_back(arena.read<std::uint64_t>(e),
                                 arena.read<std::uint64_t>(e + 8));
    });
    retryRollback_ = true;
    rollback();
    retryRollback_ = false;
}

void
StmThread::waitForChange(unsigned attempt)
{
    if (retryWatch_.empty()) {
        TmThread::waitForChange(attempt);
        return;
    }
    // Poll the watched records with growing backoff; any version
    // movement (or acquisition) means the data we based the retry
    // decision on may have changed, so re-execute.
    Cycles wait = 256;
    for (unsigned round = 0; round < 64; ++round) {
        for (auto &[rec, ver] : retryWatch_) {
            std::uint64_t cur = core_.load<std::uint64_t>(rec);
            core_.execInstrIlp(2);
            if (cur != ver)
                return;
        }
        core_.stall(wait);
        if (wait < 64 * 1024)
            wait *= 2;
    }
    // Give up waiting and re-execute anyway (spurious wake-ups are
    // always safe; blocking forever on a missed update is not).
}

// ------------------------------------------- starvation watchdog

void
StmThread::classifyAbort(const TxConflictAbort &abort)
{
    if (abort.rec == kNullAddr)
        return;
    switch (abort.kind) {
      case AbortKind::Validation:
      case AbortKind::CmKill:
      case AbortKind::HtmExplicit:
        break;
      default:
        return;  // no record semantics to classify
    }
    accountConflictClass(
        stats_, g_.classifier().classify(footprint_, desc_.addr(),
                                         abort.rec,
                                         g_.machine().arena()));
}

void
StmThread::noteAbort(const TxConflictAbort &abort)
{
    cm_.noteAbort(abort.rec, abort.kind);
    classifyAbort(abort);
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("kind", abortKindName(abort.kind));
        if (abort.rec != kNullAddr)
            args.set("rec", abort.rec);
        t->instant(core_.id(), core_.cycles(), "abortKind",
                   std::move(args));
    }
}

void
StmThread::maybeEscalate(unsigned consec_aborts)
{
    if (irrevocable_)
        return;
    const StmConfig &cfg = g_.cfg();
    bool starved =
        (cfg.watchdogConsecAborts != 0 &&
         consec_aborts >= cfg.watchdogConsecAborts) ||
        (cfg.watchdogRetriesPerCommit != 0 &&
         abortsSinceCommit_ >= cfg.watchdogRetriesPerCommit);
    if (!starved)
        return;
    // Runs outside a transaction (atomic() calls this after the
    // rollback), so our own activity flag is already clear and the
    // gate's quiescence cannot wait on us.
    g_.gate().enter(core_);
    irrevocable_ = true;
    ++stats_.irrevocableEntries;
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("consecAborts", std::uint64_t(consec_aborts));
        t->instant(core_.id(), core_.cycles(), "irrevocable",
                   std::move(args));
    }
}

void
StmThread::leaveIrrevocable()
{
    HASTM_ASSERT(irrevocable_);
    irrevocable_ = false;
    g_.gate().exit(core_);
}

void
StmThread::abandonIrrevocable()
{
    if (irrevocable_)
        leaveIrrevocable();
}

void
StmThread::escalateBeforeAtomic()
{
    HASTM_ASSERT(depth_ == 0);
    if (irrevocable_)
        return;
    g_.gate().enter(core_);
    irrevocable_ = true;
    ++stats_.irrevocableEntries;
    if (TraceSink *t = g_.trace()) {
        Json args = Json::object();
        args.set("preemptive", true);
        t->instant(core_.id(), core_.cycles(), "irrevocable",
                   std::move(args));
    }
}

// ----------------------------------------------------------- nesting

bool
StmThread::nestedAtomic(const std::function<void()> &fn)
{
    HASTM_ASSERT(depth_ >= 1);
    Savepoint sp = desc_.capture();
    desc_.savepoints.push_back(sp);
    core_.execInstr(8);
    ++depth_;
    try {
        fn();
        // Closed-nesting commit: merge into the parent (logs simply
        // keep accumulating; ownership is already the parent's).
        desc_.savepoints.pop_back();
        --depth_;
        core_.execInstr(4);
        ++stats_.nestedCommits;
        return true;
    } catch (const TxUserAbort &) {
        partialRollback(sp);
        desc_.savepoints.pop_back();
        --depth_;
        ++stats_.nestedAborts;
        return false;
    } catch (const TxRetryRequest &) {
        // Undo the alternative's effects, then let an enclosing
        // orElse (or the top-level driver) decide what runs next.
        partialRollback(sp);
        desc_.savepoints.pop_back();
        --depth_;
        ++stats_.nestedAborts;
        throw;
    } catch (const TxConflictAbort &) {
        // Conflicts doom the whole transaction; the top-level
        // rollback cleans everything up.
        desc_.savepoints.pop_back();
        --depth_;
        throw;
    }
}

void
StmThread::partialRollback(const Savepoint &sp)
{
    Core::PhaseScope scope(core_, Phase::Abort);
    core_.execInstr(6);
    // Restore data written since the savepoint, newest first.
    desc_.undoLog().forEachReverse(sp.undoPos,
                                   [&](Addr e) { undoRestore(e); });
    // Release records first acquired inside the nested transaction at
    // their pre-acquisition version (no bump: the data is unchanged,
    // so concurrent readers stay valid).
    desc_.writeSet().forEach(sp.wrPos, [&](Addr e) {
        Addr rec = core_.load<std::uint64_t>(e);
        std::uint64_t old = core_.load<std::uint64_t>(e + 8);
        core_.store<std::uint64_t>(rec, old);
        desc_.ownedVersions.erase(rec);
    });
    desc_.undoLog().truncate(sp.undoPos);
    desc_.writeSet().truncate(sp.wrPos);
    desc_.readSet().truncate(sp.rdPos);
    // Allocation bookkeeping.
    for (std::size_t i = sp.txAllocCount; i < desc_.txAllocs.size(); ++i)
        g_.machine().heap().free(desc_.txAllocs[i]);
    desc_.txAllocs.resize(sp.txAllocCount);
    desc_.txFrees.resize(sp.txFreeCount);
}

// ----------------------------------------------------------- allocation

Addr
StmThread::txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    std::size_t total = kObjHeaderBytes + ((field_bytes + 15) & ~15ull);
    Addr obj = g_.machine().heap().alloc(total, 16);
    core_.execInstr(25);  // allocator fast path
    core_.store<std::uint64_t>(obj + kTxRecOff, txrec::kInitialVersion);
    core_.store<std::uint64_t>(obj + kGcMetaOff,
                               objmeta::make(field_bytes, ptr_mask));
    // Zero the field area (setup semantics; charged as stores).
    for (Addr a = obj + kObjHeaderBytes; a < obj + total; a += 8)
        core_.store<std::uint64_t>(a, 0);
    if (inTx())
        desc_.txAllocs.push_back(obj);
    return obj;
}

void
StmThread::txFree(Addr obj)
{
    core_.execInstr(8);
    if (inTx())
        desc_.txFrees.push_back(obj);
    else
        g_.machine().heap().free(obj);
}

// ----------------------------------------------------------- GC hooks

void
StmThread::gcRelocate(Addr from, Addr to, std::size_t total_bytes)
{
    Addr from_end = from + total_bytes;
    gcFixup([&](Addr v) -> Addr {
        return (v >= from && v < from_end) ? v - from + to : v;
    });
}

void
StmThread::gcFixup(const std::function<Addr(Addr)> &relocated)
{
    MemArena &arena = g_.machine().arena();

    // Read/write set record addresses (object mode: rec == obj).
    for (TxLog *log : {&desc_.readSet(), &desc_.writeSet()}) {
        log->forEachAll([&](Addr e) {
            std::uint64_t rec = arena.read<std::uint64_t>(e);
            arena.write<std::uint64_t>(e, relocated(rec));
        });
    }
    // Undo entries: target addresses always; logged old values only
    // when flagged as object references. (The write-filtering layout
    // never coexists with a moving GC — filterWrites requires
    // cache-line granularity, which the managed heap does not use.)
    HASTM_ASSERT(desc_.undoLog().entryBytes() == 24);
    desc_.undoLog().forEachAll([&](Addr e) {
        std::uint64_t data = arena.read<std::uint64_t>(e);
        arena.write<std::uint64_t>(e, relocated(data));
        std::uint64_t meta = arena.read<std::uint64_t>(e + 16);
        if (undometa::isObjRef(meta)) {
            std::uint64_t old = arena.read<std::uint64_t>(e + 8);
            arena.write<std::uint64_t>(e + 8, relocated(old));
        }
    });
    // Host-side shadows.
    std::unordered_map<Addr, std::uint64_t> moved;
    for (auto &[rec, ver] : desc_.ownedVersions)
        moved.emplace(relocated(rec), ver);
    desc_.ownedVersions = std::move(moved);
    for (Addr &a : desc_.txAllocs)
        a = relocated(a);
    for (Addr &a : desc_.txFrees)
        a = relocated(a);
    for (auto &[rec, ver] : retryWatch_)
        rec = relocated(rec);
}

} // namespace hastm
