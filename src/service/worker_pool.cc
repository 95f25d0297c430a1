#include "service/worker_pool.hh"

#include <algorithm>
#include <chrono>

#include "sim/logging.hh"

namespace hastm {

namespace {

std::uint64_t
hostNowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

// ---- WorkerPool ----

WorkerPool::WorkerPool(unsigned workers, ExecFn fn)
    : fn_(std::move(fn)),
      cap_(2 * std::max(1u, workers)),
      stats_(std::max(1u, workers))
{
    startNs_ = hostNowNs();
    threads_.reserve(stats_.size());
    for (unsigned w = 0; w < stats_.size(); ++w)
        threads_.emplace_back([this, w] { loop(w); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::loop(unsigned w)
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lk(mu_);
            canPull_.wait(lk, [this] {
                return !channel_.empty() || stopping_;
            });
            if (channel_.empty())
                return;  // stopping, channel drained
            job = channel_.front();
            channel_.pop_front();
            canSubmit_.notify_one();
        }
        std::uint64_t t0 = hostNowNs();
        ExecOutcome o = fn_(w, job.req);
        std::uint64_t t1 = hostNowNs();
        {
            std::lock_guard<std::mutex> lk(mu_);
            PoolWorkerStats &s = stats_[w];
            ++s.executed;
            s.commits += o.commits;
            s.aborts += o.aborts;
            s.busyHostNs += t1 - t0;
            results_.emplace(job.ticket, o);
            collected_.notify_all();
        }
    }
}

std::uint64_t
WorkerPool::submit(const ServiceRequest &req)
{
    std::unique_lock<std::mutex> lk(mu_);
    HASTM_ASSERT(!stopping_);
    canSubmit_.wait(lk, [this] { return channel_.size() < cap_; });
    std::uint64_t ticket = nextTicket_++;
    channel_.push_back({ticket, req});
    canPull_.notify_one();
    return ticket;
}

ExecOutcome
WorkerPool::collect(std::uint64_t ticket)
{
    std::unique_lock<std::mutex> lk(mu_);
    collected_.wait(lk, [this, ticket] {
        return results_.find(ticket) != results_.end();
    });
    auto it = results_.find(ticket);
    ExecOutcome o = it->second;
    results_.erase(it);
    return o;
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopping_) {
            HASTM_ASSERT(stopped_);
            return;
        }
        stopping_ = true;
        canPull_.notify_all();
    }
    for (std::thread &t : threads_)
        t.join();
    wallNs_ = hostNowNs() - startNs_;
    stopped_ = true;
}

const std::vector<PoolWorkerStats> &
WorkerPool::workerStats() const
{
    HASTM_ASSERT(stopped_);
    return stats_;
}

std::uint64_t
WorkerPool::wallHostNs() const
{
    HASTM_ASSERT(stopped_);
    return wallNs_;
}

} // namespace hastm
