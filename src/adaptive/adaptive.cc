#include "adaptive/adaptive.hh"

#include "cpu/core.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace hastm {

AdaptiveThread::AdaptiveThread(Core &core, StmGlobals &globals,
                               unsigned num_threads)
    : TmThread(core), g_(globals),
      hytm_(core, globals),
      hastm_(core, globals, HastmVariant::Normal, num_threads),
      cautious_(core, globals, HastmVariant::Cautious, num_threads),
      stm_(core, globals),
      arbiter_(AdaptiveParams{})
{
}

TmThread &
AdaptiveThread::rungFor(AdaptiveMode m)
{
    switch (m) {
      case AdaptiveMode::Hytm:          return hytm_;
      case AdaptiveMode::Hastm:         return hastm_;
      case AdaptiveMode::HastmCautious: return cautious_;
      case AdaptiveMode::Stm:
      case AdaptiveMode::Serial:
      default:                          return stm_;
    }
}

TxSample
AdaptiveThread::snapshot(const TmThread &t)
{
    const TmStats &s = t.stats();
    TxSample x;
    x.commits = s.commits;
    x.aborts = s.aborts;
    x.capacityAborts = s.htmCapacityAborts;
    x.spuriousAborts =
        s.abortsByKind[std::size_t(AbortKind::SpuriousCounter)];
    x.fastHits = s.rdFastHits;
    // Logged (slow-path) reads of committed txns; together with the
    // filter hits this approximates total shared reads, so the
    // arbiter can judge mark survival without a dedicated counter.
    x.slowReads = s.readSetAtCommit.sum();
    return x;
}

bool
AdaptiveThread::dispatch(const std::function<bool(TmThread &)> &run)
{
    const std::uint32_t site = site_;
    AdaptiveMode mode = arbiter_.modeFor(site);
    ++stats_.adaptiveDispatch[std::size_t(mode)];
    TmThread &inner = rungFor(mode);

    // Site lookup + mode test: a handful of table-driven instructions
    // on the transaction's critical path.
    core_.execInstrIlp(8);

    if (mode == AdaptiveMode::Serial)
        stm_.escalateBeforeAtomic();

    TxSample before = snapshot(inner);
    Cycles c0 = core_.cycles();
    current_ = &inner;
    bool committed;
    try {
        committed = run(inner);
    } catch (...) {
        current_ = nullptr;
        // A foreign exception (not one of the TM control-flow
        // exceptions, which atomic() consumes) can unwind out of a
        // Serial-rung transaction between escalateBeforeAtomic() and
        // the guaranteed commit; drop the token or every other
        // thread parks forever at its next begin.
        stm_.abandonIrrevocable();
        throw;
    }
    current_ = nullptr;
    commitStamp_ = inner.commitStamp();

    TxSample after = snapshot(inner);
    TxSample delta;
    delta.commits = after.commits - before.commits;
    delta.aborts = after.aborts - before.aborts;
    delta.capacityAborts = after.capacityAborts - before.capacityAborts;
    delta.spuriousAborts = after.spuriousAborts - before.spuriousAborts;
    delta.fastHits = after.fastHits - before.fastHits;
    delta.slowReads = after.slowReads - before.slowReads;
    delta.cycles = core_.cycles() - c0;

    ArbiterDecision d = arbiter_.finish(site, delta);
    if (d.switched) {
        ++stats_.adaptiveSwitches;
        if (TraceSink *t = g_.trace()) {
            Json args = Json::object();
            args.set("site", std::uint64_t(site));
            args.set("from", adaptiveModeName(d.from));
            args.set("to", adaptiveModeName(d.to));
            t->instant(core_.id(), core_.cycles(), "adaptiveSwitch",
                       std::move(args));
        }
    }
    if (d.probeStarted) {
        ++stats_.adaptiveProbes;
        if (TraceSink *t = g_.trace()) {
            Json args = Json::object();
            args.set("site", std::uint64_t(site));
            args.set("probe", adaptiveModeName(d.to));
            t->instant(core_.id(), core_.cycles(), "adaptiveProbe",
                       std::move(args));
        }
    }
    return committed;
}

bool
AdaptiveThread::atomic(const std::function<void()> &fn)
{
    // Nested atomic blocks stay inside the rung that started the
    // top-level transaction (a mid-transaction rung change is
    // meaningless); only top-level blocks are arbitrated.
    if (current_)
        return current_->atomic(fn);
    return dispatch([&](TmThread &t) { return t.atomic(fn); });
}

bool
AdaptiveThread::atomicOrElse(const std::function<void()> &first,
                             const std::function<void()> &second)
{
    if (current_)
        return current_->atomicOrElse(first, second);
    return dispatch(
        [&](TmThread &t) { return t.atomicOrElse(first, second); });
}

// ---- data interface -------------------------------------------------

std::uint64_t
AdaptiveThread::readWord(Addr a)
{
    return (current_ ? *current_ : static_cast<TmThread &>(stm_))
        .readWord(a);
}

void
AdaptiveThread::writeWord(Addr a, std::uint64_t v, bool is_ptr)
{
    (current_ ? *current_ : static_cast<TmThread &>(stm_))
        .writeWord(a, v, is_ptr);
}

std::uint64_t
AdaptiveThread::readField(Addr obj, unsigned off)
{
    return (current_ ? *current_ : static_cast<TmThread &>(stm_))
        .readField(obj, off);
}

void
AdaptiveThread::writeField(Addr obj, unsigned off, std::uint64_t v,
                           bool is_ptr)
{
    (current_ ? *current_ : static_cast<TmThread &>(stm_))
        .writeField(obj, off, v, is_ptr);
}

Addr
AdaptiveThread::txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    return (current_ ? *current_ : static_cast<TmThread &>(stm_))
        .txAlloc(field_bytes, ptr_mask);
}

void
AdaptiveThread::txFree(Addr obj)
{
    (current_ ? *current_ : static_cast<TmThread &>(stm_)).txFree(obj);
}

void
AdaptiveThread::validateNow()
{
    if (current_)
        current_->validateNow();
}

bool
AdaptiveThread::inTx() const
{
    return current_ != nullptr && current_->inTx();
}

bool
AdaptiveThread::inIrrevocable() const
{
    return current_ != nullptr && current_->inIrrevocable();
}

// ---- stats ----------------------------------------------------------

const TmStats &
AdaptiveThread::stats() const
{
    merged_ = stats_;
    merged_.merge(hytm_.stats());
    merged_.merge(hastm_.stats());
    merged_.merge(cautious_.stats());
    merged_.merge(stm_.stats());
    return merged_;
}

void
AdaptiveThread::resetStats()
{
    stats_ = TmStats{};
    hytm_.resetStats();
    hastm_.resetStats();
    cautious_.resetStats();
    stm_.resetStats();
    arbiter_.resetWindows();
}

// ---- unreachable base hooks -----------------------------------------

void
AdaptiveThread::begin()
{
    panic("AdaptiveThread::begin: the dispatch loop never runs");
}

bool
AdaptiveThread::commit()
{
    panic("AdaptiveThread::commit: the dispatch loop never runs");
}

void
AdaptiveThread::rollback()
{
    panic("AdaptiveThread::rollback: the dispatch loop never runs");
}

} // namespace hastm
