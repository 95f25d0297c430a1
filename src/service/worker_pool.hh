/**
 * @file
 * Real multi-threaded serving for the transaction service.
 *
 * WorkerPool owns N long-lived host threads pulling admitted requests
 * from a bounded dispatch channel and executing them CONCURRENTLY —
 * in NativeRequestExecutor each worker is bound to one NativeThread
 * of a shared native session, so cross-worker TL2 conflicts are
 * genuine. The discrete-event loop stays single-threaded and keeps
 * virtual time authoritative: it submits each admitted request into
 * the channel right away (so real concurrency tracks real load) and
 * collects the measured stat deltas only when the virtual queue head
 * reaches a free virtual worker; the virtual completion time is then
 * dispatch + the deterministic service-time model over those deltas.
 *
 * Deadlock freedom: workers never wait on the event loop (the result
 * table is unbounded); submit() blocks only until a worker frees
 * channel space, and every pulled request finishes in bounded time
 * (the native STM's watchdog/serial gate guarantee progress), so the
 * loop's only blocking points — a full channel, an uncollected
 * ticket — always drain.
 *
 * Determinism contract (two-mode, DESIGN.md §12): one worker pulls
 * the channel FIFO, so requests run alone in admission order and the
 * service stays bit-identical; with N > 1 the measured outcomes
 * depend on real interleaving, so results are fingerprint-exempt and
 * validated instead by the replay oracle over the recorded per-worker
 * op logs (ordered by the per-thread seq), optional sim-replay
 * cross-validation through the sequential simulated backend, the
 * native protocol invariant sweep, and the service's accounting
 * identities.
 */

#ifndef HASTM_SERVICE_WORKER_POOL_HH
#define HASTM_SERVICE_WORKER_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/executor.hh"

namespace hastm {

/**
 * N host worker threads around a bounded dispatch channel. The
 * caller (one producer: the event loop) submits requests and collects
 * ticketed outcomes; workers run the caller-supplied function, which
 * must be safe to call concurrently from distinct workers.
 */
class WorkerPool
{
  public:
    using ExecFn =
        std::function<ExecOutcome(unsigned worker,
                                  const ServiceRequest &req)>;

    /** Starts the worker threads immediately (they park on the
     *  empty channel). Channel capacity is 2 * workers. */
    WorkerPool(unsigned workers, ExecFn fn);

    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Enqueue @p req; blocks while the channel is full. */
    std::uint64_t submit(const ServiceRequest &req);

    /** Block until @p ticket's request finished; its outcome. */
    ExecOutcome collect(std::uint64_t ticket);

    /** Drain the channel and join every worker (idempotent). */
    void stop();

    /** stop() has run: no worker is left to submit to. */
    bool stopped() const { return stopped_; }

    unsigned workers() const { return unsigned(stats_.size()); }

    /** Per-worker tallies; call stop() first. */
    const std::vector<PoolWorkerStats> &workerStats() const;

    /** Start -> stop() host wall time; call stop() first. */
    std::uint64_t wallHostNs() const;

  private:
    struct Job
    {
        std::uint64_t ticket;
        ServiceRequest req;
    };

    void loop(unsigned w);

    ExecFn fn_;
    const unsigned cap_;

    mutable std::mutex mu_;
    std::condition_variable canSubmit_;  //!< channel has space
    std::condition_variable canPull_;    //!< channel has work / stop
    std::condition_variable collected_;  //!< a result landed
    std::deque<Job> channel_;
    std::unordered_map<std::uint64_t, ExecOutcome> results_;
    std::uint64_t nextTicket_ = 0;
    bool stopping_ = false;

    std::vector<PoolWorkerStats> stats_;
    std::vector<std::thread> threads_;
    std::uint64_t startNs_ = 0;
    std::uint64_t wallNs_ = 0;
    bool stopped_ = false;
};

} // namespace hastm

#endif // HASTM_SERVICE_WORKER_POOL_HH
