/**
 * @file
 * Deterministic cooperative scheduler for simulated threads.
 *
 * Each simulated software thread runs on a Fiber and carries a virtual
 * time in cycles. Cross-thread effects happen in (time, id) order: a
 * thread that is about to touch state another thread can see calls
 * sync() first, which hands the host to every runnable thread with a
 * smaller (time, id). A pure time charge (charge()) affects no other
 * thread, so it never switches — the conservative discrete-event rule
 * (Chandy & Misra) that only events able to affect each other need
 * ordering. Every run stays bit-reproducible. Blocking, wake-up, and
 * stop-the-world safepoints (for the garbage collector) are supported.
 *
 * The other runnable threads wait in a run queue sorted by (time, id),
 * so sync() compares the running thread against the queue's front
 * instead of scanning every thread. A hand-over puts the running
 * thread where the front was and moves it back to its place: O(threads)
 * per switch, O(1) per sync that does not switch. The rare events
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
 * thread that calls run() becomes the scheduler context. When sync()
 * finds that another thread's virtual time has fallen behind the
 * running thread's, it switches straight from the running fiber into
 * that thread's fiber: one fiber switch per core change. Only the
 * paths that must reach run() switch back to its main fiber: block(),
 * threadExit(), a park at a stop-the-world safepoint, and
 * stopTheWorld() while it waits. run() then picks the next thread and
 * detects deadlock.
 *
 * Correct use: a thread calls sync() before every operation that can
 * observe or change state another thread can see (simulated memory,
 * shared host-side structures). Between two syncs it may charge() any
 * amount of time and touch only its own state. The visible operations
 * then run in (time, id, program) order, exactly as if every charge
 * had switched, while the host switches only where a visible
 * operation needs it. The scheduler's own cross-thread operations
 * (spawn and unblock from inside a thread, block, threadExit,
 * stopTheWorld, resumeTheWorld) sync themselves.
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
     * called from within a simulated thread. From inside a thread,
     * spawn() syncs before it creates the thread; a caller passing
     * now() syncs first, or a stop-the-world that parks it in that
     * sync leaves the read time behind.
     */
    ThreadId spawn(ThreadFn fn, Cycles start_time = 0);

    /** Run until every thread has finished. Panics on deadlock. */
    void run();

    // ---- calls made from inside simulated threads ----

    /**
     * Advance the current thread's virtual time by @p cycles. Never
     * switches to another runnable thread; it only parks the thread
     * when a stop-the-world is pending.
     */
    void
    charge(Cycles cycles)
    {
        HASTM_ASSERT(inThread());
        running_->time += cycles;
        if (stopPending_)
            maybePark();
    }

    /**
     * Order the caller's next cross-thread operation: switch to every
     * runnable thread with a smaller (time, id) first, and park at a
     * pending stop-the-world.
     */
    void
    sync()
    {
        HASTM_ASSERT(inThread());
        if (stopPending_ || (!runQueue_.empty() &&
                             runsBefore(*runQueue_.front(), *running_)))
            handOver(*running_);
    }

    /** charge() then sync(): the switch-on-every-charge schedule. */
    void
    advance(Cycles cycles)
    {
        charge(cycles);
        sync();
    }

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
     * charge or sync and return once the caller is the only runner.
     * The caller's virtual time is where the pause starts.
     */
    void stopTheWorld();

    /**
     * Release a stop-the-world. Each parked thread resumes delayed by
     * the pause: the cycles the caller spent since stopTheWorld().
     */
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

    /** Make @p t the running thread (nullptr: back in run()). */
    void
    setRunning(Thread *t)
    {
        running_ = t;
        current_ = t ? t->id : kNoThread;
    }

    /**
     * Refill runQueue_ with every runnable thread except the current
     * one, in (time, id) order.
     */
    void rebuildRunQueue();

    /**
     * sync()'s slow path: park at a pending safepoint, or switch to
     * the queue's front if it now runs before @p self.
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
    Thread *running_ = nullptr;  //!< threads_[current_], or null
    ThreadId stopRequester_ = kNoThread;
    bool stopPending_ = false;
    Cycles stopStart_ = 0;  //!< the requester's time at stopTheWorld()
    std::uint64_t switches_ = 0;
};

} // namespace hastm

#endif // HASTM_SIM_SCHEDULER_HH
