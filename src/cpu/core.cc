#include "cpu/core.hh"

#include <algorithm>

#include "sim/fault.hh"
#include "sim/logging.hh"

namespace hastm {

namespace {

/** The architected mark counter saturates (§3). */
constexpr std::uint64_t kMarkCounterMax = 0xffff;

void
bumpCounterSaturating(std::uint64_t &ctr, unsigned n)
{
    ctr = std::min<std::uint64_t>(kMarkCounterMax, ctr + n);
}

} // namespace

const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::App:        return "app";
      case Phase::TxBegin:    return "tx_begin";
      case Phase::TlsAccess:  return "tls_access";
      case Phase::RdBarrier:  return "rd_barrier";
      case Phase::WrBarrier:  return "wr_barrier";
      case Phase::Validate:   return "validate";
      case Phase::Commit:     return "commit";
      case Phase::Abort:      return "abort";
      case Phase::Contention: return "contention";
      case Phase::Lock:       return "lock";
      case Phase::Gc:         return "gc";
      default:                return "unknown";
    }
}

Core::Core(CoreId id, MemSystem &mem, Scheduler &sched,
           const TimingParams &timing)
    : id_(id), mem_(mem), sched_(sched), timing_(timing)
{
    // The store-queue ring needs a slot for the store being pushed.
    if (timing_.storeQueueSize == 0)
        panic("core %u: TimingParams::storeQueueSize must be at least 1",
              unsigned(id_));
    storeQueue_.resize(timing_.storeQueueSize);
    for (unsigned n = 0; n < ilpCycles_.size(); ++n)
        ilpCycles_[n] = ilpCharge(n);
    for (Cycles lat = 0; lat < metaCycles_.size(); ++lat)
        metaCycles_[lat] = metaCharge(lat);
    mem_.setListener(id_, this);
    for (auto &per_smt : markCounter_)
        per_smt.fill(0);
}

void
Core::interrupt()
{
    sinceInterrupt_ = 0;
    // An OS interrupt is a ring transition: the hardware (or the OS
    // on its way back to user mode) executes resetmarkall, so marks
    // never leak across protection domains (§3). The transaction
    // itself is *not* aborted — it will simply fall back to software
    // validation (§5).
    Cycles cost = timing_.interruptCost;
    totalCycles_ += cost;
    phaseCycles_[std::size_t(phase_)] += cost;
    if (fullMarkIsa_) {
        for (unsigned f = 0; f < kNumFilters; ++f)
            mem_.resetMarkAll(id_, smt_, f);
    }
    for (unsigned f = 0; f < kNumFilters; ++f)
        bumpCounterSaturating(markCounter_[smt_][f], 1);
    sched_.advance(cost);
}

void
Core::maybeFault()
{
    // fire() recurses into advance() (stalls, injected switches, and
    // evictions all charge cycles), so guard against re-entry; other
    // cores reached through sched_.advance() fire their own injector
    // state independently.
    if (!fault_ || inFault_)
        return;
    inFault_ = true;
    faultDue_ = fault_->fire(*this);
    inFault_ = false;
}

void
Core::setFaultInjector(FaultInjector *f, Cycles due)
{
    fault_ = f;
    faultDue_ = f ? due : ~Cycles(0);
}

void
Core::injectContextSwitch(Cycles cost)
{
    totalCycles_ += cost;
    phaseCycles_[std::size_t(phase_)] += cost;
    // A full preemption (unlike interrupt()'s ring transition it
    // descheduled every hardware context): all filters of all SMT
    // contexts lose their marks and the counters record the loss...
    if (fullMarkIsa_) {
        for (SmtId t = 0; t < kMaxSmt; ++t)
            for (unsigned f = 0; f < kNumFilters; ++f)
                mem_.resetMarkAll(id_, t, f);
    }
    for (SmtId t = 0; t < kMaxSmt; ++t)
        for (unsigned f = 0; f < kNumFilters; ++f)
            bumpCounterSaturating(markCounter_[t][f], 1);
    // ...and speculative state does not survive a switch either.
    specLost(SpecLoss::Capacity);
    mem_.clearSpecAll(id_);
    sched_.advance(cost);
}

void
Core::countAccess(const AccessResult &r, bool is_write)
{
    if (is_write) {
        ++stores_;
    } else {
        ++loads_;
        if (r.l1Hit)
            ++l1HitLoads_;
    }
}

Cycles
Core::storeQueuePush()
{
    const unsigned size = timing_.storeQueueSize;
    auto pop = [&] {
        sqHead_ = sqHead_ + 1 == size ? 0 : sqHead_ + 1;
        --sqCount_;
    };
    Cycles now = totalCycles_;
    while (sqCount_ > 0 && storeQueue_[sqHead_] <= now)
        pop();
    Cycles stall = 0;
    if (sqCount_ == size) {
        stall = storeQueue_[sqHead_] - now;
        now = storeQueue_[sqHead_];
        pop();
    }
    unsigned tail = sqHead_ + sqCount_;
    storeQueue_[tail >= size ? tail - size : tail] =
        now + timing_.storeRetireLat;
    ++sqCount_;
    return stall;
}

void
Core::execInstr(unsigned n)
{
    noteInstr(n);
    advance(n);
}

void
Core::execInstrIlp(unsigned n)
{
    noteInstr(n);
    advance(n < ilpCycles_.size() ? ilpCycles_[n] : ilpCharge(n));
}

void
Core::dependentBranch()
{
    noteInstr(1);
    advance(timing_.depBranchPenalty);
}

void
Core::stall(Cycles c)
{
    advance(c);
}

void
Core::pushPhase(Phase p)
{
    phaseStack_.push_back(p);
    phase_ = p;
}

void
Core::popPhase()
{
    HASTM_ASSERT(phaseStack_.size() > 1);
    phaseStack_.pop_back();
    phase_ = phaseStack_.back();
}

Cycles
Core::phaseCycles(Phase p) const
{
    return phaseCycles_[std::size_t(p)];
}

std::uint64_t
Core::phaseInstrs(Phase p) const
{
    return phaseInstrs_[std::size_t(p)];
}

void
Core::setSmt(SmtId smt)
{
    // The L1-hit fast path treats numSmt == 1 as "no SMT sibling".
    HASTM_ASSERT(smt < mem_.params().numSmt);
    smt_ = smt;
}

void
Core::setSpecHandler(std::function<void(SpecLoss)> handler)
{
    specHandler_ = std::move(handler);
}

void
Core::resetCounters()
{
    phaseCycles_.fill(0);
    phaseInstrs_.fill(0);
    totalCycles_ = 0;
    totalInstrs_ = 0;
    loads_ = stores_ = l1HitLoads_ = 0;
    sqHead_ = sqCount_ = 0;
    sinceInterrupt_ = 0;
}

void
Core::marksDiscarded(SmtId smt, unsigned filter, unsigned count)
{
    bumpCounterSaturating(markCounter_[smt][filter], count);
}

void
Core::specLost(SpecLoss why)
{
    if (specHandler_)
        specHandler_(why);
}

} // namespace hastm
