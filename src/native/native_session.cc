#include "native/native_session.hh"

#include <thread>

#include "sim/logging.hh"

namespace hastm {

NativeSession::NativeSession(const NativeSessionConfig &cfg)
    : rt_(cfg.watchdog, cfg.heapBytes, cfg.fault, cfg.numThreads)
{
    HASTM_ASSERT(cfg.numThreads >= 1);
    threads_.reserve(cfg.numThreads);
    for (unsigned i = 0; i < cfg.numThreads; ++i)
        threads_.push_back(std::make_unique<NativeThread>(rt_, i));
}

void
NativeSession::run(const std::vector<std::function<void(TmExec &)>> &bodies)
{
    HASTM_ASSERT(bodies.size() <= threads_.size());
    if (bodies.size() == 1) {
        bodies[0](*threads_[0]);
        return;
    }
    std::vector<std::thread> workers;
    workers.reserve(bodies.size());
    for (std::size_t i = 0; i < bodies.size(); ++i)
        workers.emplace_back(
            [this, &bodies, i] { bodies[i](*threads_[i]); });
    for (auto &w : workers)
        w.join();
}

TmStats
NativeSession::totalStats() const
{
    TmStats total;
    for (const auto &t : threads_)
        total.merge(t->stats());
    return total;
}

void
NativeSession::resetStats()
{
    for (auto &t : threads_)
        t->resetStats();
}

} // namespace hastm
