#include "stm/tm_iface.hh"

#include "cpu/core.hh"
#include "sim/logging.hh"

namespace hastm {

const char *
tmSchemeName(TmScheme s)
{
    switch (s) {
      case TmScheme::Sequential:    return "seq";
      case TmScheme::Lock:          return "lock";
      case TmScheme::Stm:           return "stm";
      case TmScheme::Hastm:         return "hastm";
      case TmScheme::HastmCautious: return "hastm-cautious";
      case TmScheme::HastmNoReuse:  return "hastm-noreuse";
      case TmScheme::HastmNaive:    return "naive-aggressive";
      case TmScheme::Hytm:          return "hytm";
      case TmScheme::Adaptive:      return "adaptive";
      default:                      return "unknown";
    }
}

const char *
adaptiveModeName(AdaptiveMode m)
{
    switch (m) {
      case AdaptiveMode::Hytm:          return "hytm";
      case AdaptiveMode::Hastm:         return "hastm";
      case AdaptiveMode::HastmCautious: return "hastm-cautious";
      case AdaptiveMode::Stm:           return "stm";
      case AdaptiveMode::Serial:        return "serial";
      default:                          return "?";
    }
}

const char *
abortKindName(AbortKind k)
{
    switch (k) {
      case AbortKind::Unknown:         return "unknown";
      case AbortKind::Validation:      return "validation";
      case AbortKind::CmKill:          return "cmKill";
      case AbortKind::SpuriousCounter: return "spuriousCounter";
      case AbortKind::HtmConflict:     return "htmConflict";
      case AbortKind::HtmCapacity:     return "htmCapacity";
      case AbortKind::HtmExplicit:     return "htmExplicit";
      default:                         return "?";
    }
}

const char *
nativeFaultKindName(NativeFaultKind k)
{
    switch (k) {
      case NativeFaultKind::Yield:         return "yield";
      case NativeFaultKind::SpinDelay:     return "spinDelay";
      case NativeFaultKind::Starve:        return "starve";
      case NativeFaultKind::ExtensionFail: return "extensionFail";
      case NativeFaultKind::CmKill:        return "cmKill";
      case NativeFaultKind::GateStall:     return "gateStall";
    }
    return "?";
}

const char *
granularityName(Granularity g)
{
    switch (g) {
      case Granularity::CacheLine: return "cacheline";
      case Granularity::Word:      return "word";
      case Granularity::Object:    return "object";
      default:                     return "unknown";
    }
}

bool
TmExec::atomic(const std::function<void()> &fn)
{
    if (depth_ > 0)
        return nestedAtomic(fn);

    unsigned attempt = 0;
    unsigned retry_attempt = 0;
    for (;;) {
        begin();
        try {
            fn();
            if (commit()) {
                stats_.retriesPerCommit.record(attempt);
                abortsSinceCommit_ = 0;
                if (inIrrevocable())
                    leaveIrrevocable();
                return true;
            }
            // Commit-time conflict: state already rolled back by the
            // scheme's commit(), attribution stashed in
            // commitFailure_; back off and re-execute.
            ++stats_.aborts;
            ++stats_.abortsByKind[std::size_t(commitFailure_.kind)];
            ++abortsSinceCommit_;
            noteAbort(commitFailure_);
            onConflict(attempt++);
            maybeEscalate(attempt);
        } catch (const TxConflictAbort &e) {
            rollback();
            ++stats_.aborts;
            ++stats_.abortsByKind[std::size_t(e.kind)];
            ++abortsSinceCommit_;
            noteAbort(e);
            onConflict(attempt++);
            maybeEscalate(attempt);
        } catch (const TxUserAbort &) {
            rollback();
            ++stats_.userAborts;
            if (inIrrevocable())
                leaveIrrevocable();
            return false;
        } catch (const TxRetryRequest &) {
            rollbackForRetry();
            ++stats_.retries;
            // A voluntary wait must not hold the serial token: every
            // other thread is quiesced and could never produce the
            // awaited change.
            if (inIrrevocable())
                leaveIrrevocable();
            waitForChange(retry_attempt++);
        }
    }
}

bool
TmExec::atomicOrElse(const std::function<void()> &first,
                       const std::function<void()> &second)
{
    // orElse composition [11]: the first alternative runs as a nested
    // transaction; a retry() inside it is caught here after the
    // nested effects have been rolled back (STM schemes) and control
    // falls through to the second alternative. If the second also
    // retries, the request propagates to the atomic() driver, which
    // waits for a read-set change and re-executes the whole block.
    return atomic([&] {
        try {
            nestedAtomic(first);
            return;
        } catch (const TxRetryRequest &) {
            // fall through to the second alternative
        }
        second();
    });
}

void
TmExec::retry()
{
    HASTM_ASSERT(inTx());
    throw TxRetryRequest{};
}

void
TmExec::userAbort()
{
    HASTM_ASSERT(inTx());
    throw TxUserAbort{};
}

void
TmThread::onConflict(unsigned attempt)
{
    // Capped exponential backoff, jittered by core id to break
    // symmetric livelock.
    unsigned shift = attempt < 10 ? attempt : 10;
    Cycles wait = (Cycles(32) << shift) + 13 * (core_.id() + 1);
    core_.stall(wait);
}

void
TmThread::waitForChange(unsigned attempt)
{
    // Default (schemes without read-set monitoring): plain backoff.
    unsigned shift = attempt < 12 ? attempt : 12;
    core_.stall((Cycles(128) << shift) + 17 * (core_.id() + 1));
}

void
TmThread::simInstr(unsigned n)
{
    core_.execInstr(n);
}

void
TmThread::simInstrIlp(unsigned n)
{
    core_.execInstrIlp(n);
}

bool
TmExec::nestedAtomic(const std::function<void()> &fn)
{
    // Flattening: run in the parent's context; any abort exception
    // propagates and restarts the outermost transaction.
    fn();
    return true;
}

} // namespace hastm
