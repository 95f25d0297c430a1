/**
 * @file
 * Deterministic cooperative scheduler for simulated threads.
 *
 * Each simulated software thread runs on a Fiber and carries a virtual
 * time in cycles. The scheduler always resumes the runnable thread
 * with the smallest virtual time (ties broken by thread id), which
 * interleaves cores at memory-access granularity and makes every run
 * bit-reproducible. Blocking, wake-up, and stop-the-world safepoints
 * (for the garbage collector) are supported.
 *
 * The other runnable threads wait in a run queue sorted by (time, id),
 * so advance(), which every simulated access and instruction batch
 * passes through, compares the running thread against the queue's
 * front instead of scanning every thread. A hand-over puts the running
 * thread where the front was and moves it back to its place: O(threads)
 * per switch, O(1) per advance that does not switch. The rare events
 * (run()'s picks, spawn, unblock, block/exit, stop/resume) rebuild the
 * queue anew.
 */

#ifndef HASTM_SIM_SCHEDULER_HH
#define HASTM_SIM_SCHEDULER_HH

#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sim/fiber.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace hastm {

/** Scheduling state of a simulated thread. */
enum class ThreadState : std::uint8_t {
    Runnable,   //!< Eligible to run.
    Blocked,    //!< Waiting for an explicit unblock().
    Safepoint,  //!< Parked by a stop-the-world request.
    Finished,   //!< Entry function completed.
};

/**
 * Owns all simulated threads and drives their interleaving. The host
 * thread that calls run() becomes the scheduler context. When another
 * thread's virtual time falls behind the running thread's, advance()
 * switches straight from the running fiber into that thread's fiber:
 * one fiber switch per core change. Only the paths that must reach
 * run() switch back to its main fiber: block(), threadExit(), a park
 * at a stop-the-world safepoint, and stopTheWorld() while it waits.
 * run() then picks the next thread and detects deadlock.
 */
class Scheduler
{
  public:
    using ThreadFn = std::function<void()>;

    Scheduler() = default;
    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Create a new runnable thread starting at virtual time
     * @p start_time. Must not be called while run() is live unless
     * called from within a simulated thread.
     */
    ThreadId spawn(ThreadFn fn, Cycles start_time = 0);

    /** Run until every thread has finished. Panics on deadlock. */
    void run();

    // ---- calls made from inside simulated threads ----

    /**
     * Advance the current thread's virtual time by @p cycles and, if
     * a runnable thread now has a smaller (time, id), switch directly
     * to it. This is the yield point every simulated memory access and
     * instruction batch passes through.
     */
    void
    advance(Cycles cycles)
    {
        HASTM_ASSERT(inThread());
        Thread &self = *threads_[current_];
        self.time += cycles;
        if (stopPending_ ||
            (!runQueue_.empty() && runsBefore(*runQueue_.front(), self)))
            handOver(self);
    }

    /** Yield without advancing time (still honours safepoints). */
    void yield();

    /** Block the current thread until someone calls unblock() on it. */
    void block();

    /**
     * Make @p tid runnable again. Its virtual time is bumped to at
     * least the caller's time so it cannot run "in the past".
     */
    void unblock(ThreadId tid);

    /** Mark the current thread finished and switch away; never returns. */
    [[noreturn]] void threadExit();

    /**
     * Stop-the-world: park every other non-finished thread at its next
     * yield point and return once the caller is the only runner.
     */
    void stopTheWorld();

    /** Release a stop-the-world; parked threads resume at caller time. */
    void resumeTheWorld();

    // ---- queries ----

    /** Id of the thread currently executing (valid inside threads). */
    ThreadId currentThread() const;

    /** True when called from inside a simulated thread. */
    bool inThread() const { return current_ != kNoThread; }

    /** Current thread's virtual time. */
    Cycles now() const;

    /** Virtual time of an arbitrary thread. */
    Cycles timeOf(ThreadId tid) const { return threads_[tid]->time; }

    ThreadState stateOf(ThreadId tid) const { return threads_[tid]->state; }

    std::size_t numThreads() const { return threads_.size(); }

    /** Total scheduler context switches (a determinism fingerprint). */
    std::uint64_t switches() const { return switches_; }

  private:
    struct Thread
    {
        ThreadId id;
        ThreadState state = ThreadState::Runnable;
        Cycles time = 0;
        std::unique_ptr<Fiber> fiber;
    };

    static constexpr ThreadId kNoThread =
        std::numeric_limits<ThreadId>::max();

    /** The scheduling order: true when @p a runs before @p b. */
    static bool
    runsBefore(const Thread &a, const Thread &b)
    {
        return a.time < b.time || (a.time == b.time && a.id < b.id);
    }

    /**
     * Refill runQueue_ with every runnable thread except the current
     * one, in (time, id) order.
     */
    void rebuildRunQueue();

    /**
     * advance()'s slow path: park at a pending safepoint, or switch
     * to the queue's front if it now runs before @p self.
     */
    void handOver(Thread &self);

    /** Switch from the current thread back to run()'s main fiber. */
    void switchToScheduler();

    /** Park here if a stop-the-world is pending and we are not the VIP. */
    void maybePark();

    std::vector<std::unique_ptr<Thread>> threads_;
    /** Runnable threads other than current_, ascending (time, id). */
    std::vector<Thread *> runQueue_;
    Fiber mainFiber_;
    ThreadId current_ = kNoThread;
    ThreadId stopRequester_ = kNoThread;
    bool stopPending_ = false;
    std::uint64_t switches_ = 0;
};

} // namespace hastm

#endif // HASTM_SIM_SCHEDULER_HH
