#include "cpu/machine.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hastm {

Machine::Machine(const MachineParams &params)
    : params_(params), rng_(params.seed)
{
    arena_ = std::make_unique<MemArena>(params_.arenaBytes);
    heap_ = std::make_unique<SimAllocator>(*arena_, 64,
                                           params_.arenaBytes - 64, &sched_);
    mem_ = std::make_unique<MemSystem>(*arena_, params_.mem);
    for (CoreId c = 0; c < params_.mem.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(c, *mem_, sched_,
                                                params_.timing));
    if (params_.fault.enabled) {
        fault_ = std::make_unique<FaultInjector>(params_.fault,
                                                 params_.mem.numCores);
        for (CoreId c = 0; c < params_.mem.numCores; ++c)
            cores_[c]->setFaultInjector(fault_.get(), fault_->arm(c, 0));
    }
}

void
Machine::run(const std::vector<std::function<void(Core &)>> &fns)
{
    HASTM_ASSERT(fns.size() <= cores_.size());
    // Every machine gets a fresh scheduler per run: virtual time
    // restarts from each core's accumulated cycle count so repeated
    // run() calls (populate, then measure) stay causally ordered.
    for (CoreId c = 0; c < fns.size(); ++c) {
        Core &core = *cores_[c];
        sched_.spawn([fn = fns[c], &core] { fn(core); }, core.cycles());
    }
    sched_.run();
}

void
Machine::runOnCores(unsigned n, const std::function<void(Core &)> &body)
{
    std::vector<std::function<void(Core &)>> fns(n, body);
    run(fns);
}

Cycles
Machine::maxCoreCycles() const
{
    Cycles best = 0;
    for (const auto &core : cores_)
        best = std::max(best, core->cycles());
    return best;
}

void
Machine::resetCounters()
{
    for (auto &core : cores_)
        core->resetCounters();
    mem_->resetCounters();
    if (fault_) {
        // Reports should describe the measured phase only; re-arm
        // relative to each core's (freshly zeroed) cycle count so the
        // campaign stays a pure function of (config, seed).
        fault_->resetCounts();
        for (CoreId c = 0; c < params_.mem.numCores; ++c)
            cores_[c]->setFaultInjector(fault_.get(),
                                        fault_->arm(c, cores_[c]->cycles()));
    }
}

} // namespace hastm
