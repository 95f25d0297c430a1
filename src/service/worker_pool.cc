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

/**
 * Spin rounds before a wait parks: about 100 us on the 4-core
 * reference host (a pause is ~16 ns there), above the 8-55 us a
 * condition-variable round trip has measured on it. serve_kv
 * throughput was flat from 1024 to 16384 rounds, so the budget only
 * bounds how long an idle thread burns its core.
 */
constexpr unsigned kSpinRounds = 4096;

void
spinPause(unsigned round)
{
    // Yield now and then so a spinner sharing its core with the
    // thread it waits for (more threads than cores) lets it run.
    if (round % 64 == 63) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

} // namespace

// ---- WorkerPool ----

WorkerPool::WorkerPool(unsigned workers, ExecFn fn)
    : fn_(std::move(fn)),
      cap_(2 * std::max(1u, workers)),
      ring_(new Slot[cap_]),
      stats_(std::max(1u, workers))
{
    for (unsigned i = 0; i < cap_; ++i)
        ring_[i].seq.store(i, std::memory_order_relaxed);
    startNs_ = hostNowNs();
    threads_.reserve(stats_.size());
    for (unsigned w = 0; w < stats_.size(); ++w)
        threads_.emplace_back([this, w] { loop(w); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

template <typename Pred>
void
WorkerPool::await(Pred ready)
{
    for (unsigned i = 0; i < kSpinRounds; ++i) {
        if (ready())
            return;
        spinPause(i);
    }
    std::unique_lock<std::mutex> lk(mu_);
    sleepers_.fetch_add(1);
    cv_.wait(lk, ready);
    sleepers_.fetch_sub(1);
}

void
WorkerPool::wake()
{
    if (sleepers_.load() != 0) {
        std::lock_guard<std::mutex> lk(mu_);
        cv_.notify_all();
    }
}

void
WorkerPool::checkProducer()
{
#ifndef NDEBUG
    if (producer_ == std::thread::id())
        producer_ = std::this_thread::get_id();
    HASTM_ASSERT(producer_ == std::this_thread::get_id());
#endif
}

void
WorkerPool::push(const Job &job)
{
    Slot &slot = ring_[tail_ % cap_];
    const std::uint64_t pos = tail_;
    await([&slot, pos] { return slot.seq.load() == pos; });
    slot.job = job;
    slot.seq.store(pos + 1);
    ++tail_;
    wake();
}

WorkerPool::Job
WorkerPool::pull()
{
    for (;;) {
        std::uint64_t pos = head_.load();
        Slot &slot = ring_[pos % cap_];
        std::uint64_t seq = slot.seq.load();
        if (seq == pos + 1) {
            if (!head_.compare_exchange_weak(pos, pos + 1))
                continue;
            Job job = slot.job;
            slot.seq.store(pos + cap_);
            wake();
            return job;
        }
        if (seq > pos + 1)
            continue;  // another worker claimed pos: reload the head
        // Empty: nothing published at pos yet. The predicate also
        // holds once the head moves on (a stale head), so a waiter
        // never sleeps past published work.
        await([this] {
            std::uint64_t p = head_.load();
            return ring_[p % cap_].seq.load() >= p + 1;
        });
    }
}

void
WorkerPool::loop(unsigned w)
{
    PoolWorkerStats s;
    for (;;) {
        Job job = pull();
        if (!job.cell)
            break;  // stop marker: every earlier job is claimed
        std::uint64_t t0 = hostNowNs();
        ExecOutcome o = fn_(w, job.req);
        std::uint64_t t1 = hostNowNs();
        ++s.executed;
        s.commits += o.commits;
        s.aborts += o.aborts;
        s.busyHostNs += t1 - t0;
        job.cell->out = o;
        job.cell->ready.store(true);
        wake();
    }
    stats_[w] = s;
}

std::uint64_t
WorkerPool::submit(const ServiceRequest &req)
{
    checkProducer();
    HASTM_ASSERT(!stopped_);
    std::uint64_t ticket;
    if (free_.empty()) {
        ticket = cells_.size();
        cells_.emplace_back();
    } else {
        ticket = free_.back();
        free_.pop_back();
    }
    Cell &cell = cells_[ticket];
    cell.busy = true;
    push({&cell, req});
    return ticket;
}

ExecOutcome
WorkerPool::collect(std::uint64_t ticket)
{
    checkProducer();
    HASTM_ASSERT(ticket < cells_.size() && cells_[ticket].busy);
    Cell &cell = cells_[ticket];
    await([&cell] { return cell.ready.load(); });
    ExecOutcome o = cell.out;
    cell.ready.store(false, std::memory_order_relaxed);
    cell.busy = false;
    free_.push_back(ticket);
    return o;
}

void
WorkerPool::stop()
{
    if (stopped_)
        return;
    checkProducer();
    for (std::size_t w = 0; w < threads_.size(); ++w)
        push(Job{});
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
