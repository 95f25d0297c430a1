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
 * One producer. submit(), collect(), stop() and the destructor are
 * called from one thread (the event loop, or a benchmark's front
 * end); debug builds assert it. Only the workers run concurrently
 * with it.
 *
 * Handoff (no lock on the fast path):
 *  - Channel. A ring of 2 * workers slots, each with its own sequence
 *    number (Vyukov's bounded queue). Slot i starts at sequence i.
 *    The producer owns the tail outright: it waits until the tail
 *    slot's sequence equals the tail position (free), writes the job,
 *    then stores position + 1 (published). Workers claim the head
 *    with a CAS, copy the job out and store position + capacity,
 *    which frees the slot for the producer's next lap. The ring is
 *    FIFO, so one worker runs requests alone in admission order.
 *  - Results. Each ticket names a result cell the producer owns; the
 *    job carries a pointer to it. The worker stores the outcome, then
 *    sets the cell's ready flag (release); collect() reads the flag
 *    (acquire), copies the outcome and returns the cell to the
 *    producer's free list. A ticket is valid from submit() until its
 *    collect() and may be handed out again afterwards. Cells live as
 *    long as the pool, so the table is unbounded, and once it holds
 *    as many cells as tickets were ever outstanding at once, no
 *    request allocates.
 *  - Waits. A full channel (submit), an empty one (a worker) and a
 *    result not yet ready (collect) each spin a fixed budget (about
 *    a park/wake round trip), then park on the pool's one
 *    mutex/condvar.
 *
 * No lost wakeup. A parking thread, holding the mutex, increments
 * sleepers_ and then re-checks its predicate before it waits; every
 * state change (slot published, slot freed, cell ready) is a store
 * followed by a load of sleepers_, and when that load is nonzero the
 * notifier takes the mutex and notifies. All four accesses are
 * seq_cst, so in their single total order either the sleeper's
 * re-check sees the new state, or the notifier's load sees the
 * sleeper — and then its mutex acquisition waits until the sleeper is
 * inside the wait. Nobody parked: a notifier does one extra load and
 * takes no lock.
 *
 * Deadlock freedom: workers never wait on the producer's collect()
 * (the result cells are unbounded: a worker always has a cell to
 * store into); submit() waits only until a worker frees channel
 * space, and every pulled request finishes in bounded time (the
 * native STM's watchdog/serial gate guarantee progress), so the
 * producer's only blocking points — a full channel, an uncollected
 * ticket — always drain. stop() pushes one stop marker per worker
 * behind every queued job, so each worker runs the jobs ahead of its
 * marker and then exits.
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

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
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

    /** Parked threads right now (tests; racy outside the mutex). */
    unsigned
    waitersForTest()
    {
        std::lock_guard<std::mutex> lk(mu_);
        return sleepers_.load();
    }

  private:
    /** One ticket's outcome: the producer owns it, and between
     *  submit() and ready the one worker running the job writes it. */
    struct alignas(64) Cell
    {
        std::atomic<bool> ready{false};
        ExecOutcome out;
        bool busy = false;  //!< producer only: ticket outstanding
    };

    /** A request and its cell; a null cell is a stop marker. */
    struct Job
    {
        Cell *cell = nullptr;
        ServiceRequest req;
    };

    /** One ring slot, alone on its cache line. */
    struct alignas(64) Slot
    {
        std::atomic<std::uint64_t> seq{0};
        Job job;
    };

    void loop(unsigned w);

    /** Producer: wait for the tail slot to be free, then publish. */
    void push(const Job &job);

    /** Worker: wait for and claim the head job. */
    Job pull();

    /** Spin a bounded budget on @p ready, then park until it holds. */
    template <typename Pred>
    void await(Pred ready);

    /** After a state change: wake the parked threads, if any. */
    void wake();

    /** Debug builds: the caller is the one producer thread. */
    void checkProducer();

    ExecFn fn_;
    const unsigned cap_;

    // ---- shared with the workers ----
    std::unique_ptr<Slot[]> ring_;
    alignas(64) std::atomic<std::uint64_t> head_{0};  //!< next claim
    alignas(64) std::atomic<unsigned> sleepers_{0};  //!< parked threads
    alignas(64) std::mutex mu_;  //!< parking only
    std::condition_variable cv_;

    // ---- producer only ----
    alignas(64) std::uint64_t tail_ = 0;  //!< next position to publish
    std::deque<Cell> cells_;              //!< indexed by ticket
    std::vector<std::uint64_t> free_;     //!< tickets not outstanding
    std::thread::id producer_;

    std::vector<PoolWorkerStats> stats_;  //!< stored by each worker at exit
    std::vector<std::thread> threads_;
    std::uint64_t startNs_ = 0;
    std::uint64_t wallNs_ = 0;
    bool stopped_ = false;
};

} // namespace hastm

#endif // HASTM_SERVICE_WORKER_POOL_HH
