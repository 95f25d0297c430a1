#include "htm/htm_machine.hh"

#include "sim/logging.hh"

namespace hastm {

HtmMachine::HtmMachine(Core &core) : core_(core)
{
    core_.setSpecHandler([this](SpecLoss why) { onSpecLost(why); });
}

HtmMachine::~HtmMachine()
{
    core_.setSpecHandler(nullptr);
}

void
HtmMachine::txBegin()
{
    HASTM_ASSERT(!active_);
    core_.mem().clearSpecAll(core_.id());
    undo_.clear();
    active_ = true;
    doomed_ = false;
    lastCause_ = HtmAbortCause::None;
    core_.execInstr(8);  // txbegin: register checkpoint
}

bool
HtmMachine::txCommit()
{
    HASTM_ASSERT(active_);
    if (doomed_) {
        active_ = false;
        return false;
    }
    // The commit instruction itself takes time; a conflicting snoop
    // can still doom the transaction while it retires, so the commit
    // point is the doomed_ check *after* the charge.
    core_.execInstr(6);
    if (doomed_) {
        active_ = false;
        return false;
    }
    core_.mem().clearSpecAll(core_.id());
    undo_.clear();
    active_ = false;
    return true;
}

void
HtmMachine::txAbortExplicit()
{
    HASTM_ASSERT(active_);
    if (!doomed_)
        doAbort(HtmAbortCause::Explicit);
}

void
HtmMachine::reset()
{
    active_ = false;
    doomed_ = false;
}

void
HtmMachine::onSpecLost(SpecLoss why)
{
    if (!active_ || doomed_)
        return;  // stale tag of an already-finished transaction
    doAbort(why == SpecLoss::Conflict ? HtmAbortCause::Conflict
                                      : HtmAbortCause::Capacity);
}

void
HtmMachine::doAbort(HtmAbortCause cause)
{
    // Hardware discards dirty speculative lines in place: restore the
    // pre-transaction values instantly (no timed accesses — the
    // requester must see committed data before its access completes).
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it)
        core_.mem().arena().write<std::uint64_t>(it->first, it->second);
    undo_.clear();
    core_.mem().clearSpecAll(core_.id());
    doomed_ = true;
    lastCause_ = cause;
    ++aborts_;
    if (cause == HtmAbortCause::Capacity)
        ++capacityAborts_;
}

std::uint64_t
HtmMachine::specLoad(Addr a)
{
    HASTM_ASSERT(active_);
    bool tracked = false;
    std::uint64_t v = core_.loadSpec<std::uint64_t>(a, tracked);
    if (!doomed_ && !tracked)
        doAbort(HtmAbortCause::Capacity);
    return v;
}

void
HtmMachine::specStore(Addr a, std::uint64_t v)
{
    HASTM_ASSERT(active_);
    // Resolve coherence first; this can doom us (self-eviction of a
    // speculative line) or abort a remote speculative writer. Only
    // write the new value if we are still live, so a doomed
    // transaction never publishes data that nothing would roll back.
    AccessResult r = core_.memAccess(a, 8, true);
    if (!doomed_) {
        std::uint64_t old = core_.mem().arena().read<std::uint64_t>(a);
        undo_.emplace_back(a, old);
        core_.mem().arena().write<std::uint64_t>(a, v);
        bool tracked = core_.mem().setSpec(core_.id(), a, 8, true);
        if (!tracked)
            doAbort(HtmAbortCause::Capacity);
    }
    core_.finishAccess(r, true);
}

} // namespace hastm
