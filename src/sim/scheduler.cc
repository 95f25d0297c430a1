#include "sim/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hastm {

ThreadId
Scheduler::spawn(ThreadFn fn, Cycles start_time)
{
    auto t = std::make_unique<Thread>();
    t->id = static_cast<ThreadId>(threads_.size());
    t->time = start_time;
    ThreadId id = t->id;
    t->fiber = std::make_unique<Fiber>([this, fn = std::move(fn)] {
        fn();
        threadExit();
    });
    threads_.push_back(std::move(t));
    return id;
}

ThreadId
Scheduler::pickNext() const
{
    ThreadId best = kNoThread;
    Cycles best_time = 0;
    for (const auto &t : threads_) {
        if (t->state != ThreadState::Runnable)
            continue;
        if (best == kNoThread || t->time < best_time) {
            best = t->id;
            best_time = t->time;
        }
    }
    return best;
}

void
Scheduler::run()
{
    HASTM_ASSERT(current_ == kNoThread);
    for (;;) {
        ThreadId next = pickNext();
        if (next == kNoThread) {
            // Either done, or everyone is blocked: that is a deadlock.
            for (const auto &t : threads_) {
                if (t->state != ThreadState::Finished)
                    panic("scheduler deadlock: thread %u is %s with no "
                          "runnable peers", t->id,
                          t->state == ThreadState::Blocked
                              ? "blocked" : "parked");
            }
            return;
        }
        current_ = next;
        ++switches_;
        mainFiber_.switchTo(*threads_[next]->fiber);
        // Control returns here whenever the running thread yields.
        current_ = kNoThread;
    }
}

void
Scheduler::switchToScheduler()
{
    Thread &self = *threads_[current_];
    self.fiber->switchTo(mainFiber_);
    // Resumed: run() or a peer's advance() has set current_ to us.
    maybePark();
}

void
Scheduler::maybePark()
{
    while (stopPending_ && current_ != stopRequester_) {
        Thread &self = *threads_[current_];
        self.state = ThreadState::Safepoint;
        self.fiber->switchTo(mainFiber_);
    }
}

void
Scheduler::advance(Cycles cycles)
{
    HASTM_ASSERT(inThread());
    Thread &self = *threads_[current_];
    self.time += cycles;
    if (stopPending_ && current_ != stopRequester_) {
        maybePark();
        return;
    }
    // Hand the host straight to the earliest runnable thread, if that
    // is no longer us. run() would pick the same thread, so going
    // direct changes no interleaving and no switch count.
    ThreadId next = pickNext();
    if (next == current_)
        return;
    current_ = next;
    ++switches_;
    self.fiber->switchTo(*threads_[next]->fiber);
    // Resumed: whoever switched back here set current_ to us.
    maybePark();
}

void
Scheduler::yield()
{
    advance(0);
}

void
Scheduler::block()
{
    HASTM_ASSERT(inThread());
    Thread &self = *threads_[current_];
    self.state = ThreadState::Blocked;
    switchToScheduler();
}

void
Scheduler::unblock(ThreadId tid)
{
    Thread &t = *threads_[tid];
    HASTM_ASSERT(t.state == ThreadState::Blocked);
    t.state = ThreadState::Runnable;
    if (inThread() && t.time < now())
        t.time = now();
}

void
Scheduler::threadExit()
{
    HASTM_ASSERT(inThread());
    Thread &self = *threads_[current_];
    self.state = ThreadState::Finished;
    self.fiber->switchTo(mainFiber_);
    panic("finished thread %u was resumed", self.id);
}

void
Scheduler::stopTheWorld()
{
    HASTM_ASSERT(inThread());
    HASTM_ASSERT(!stopPending_);
    stopPending_ = true;
    stopRequester_ = current_;
    // Spin until every other live thread is parked or finished. Each
    // iteration bumps our virtual time past the latest runnable peer,
    // so the scheduler runs every peer up to its next safepoint check
    // before control returns here.
    for (;;) {
        Thread &self = *threads_[current_];
        bool all_parked = true;
        Cycles max_other = 0;
        for (const auto &t : threads_) {
            if (t->id == current_)
                continue;
            if (t->state == ThreadState::Runnable) {
                all_parked = false;
                max_other = std::max(max_other, t->time);
            }
        }
        if (all_parked)
            return;
        self.time = std::max(self.time, max_other + 1);
        switchToScheduler();
    }
}

void
Scheduler::resumeTheWorld()
{
    HASTM_ASSERT(inThread());
    HASTM_ASSERT(stopPending_ && current_ == stopRequester_);
    stopPending_ = false;
    stopRequester_ = kNoThread;
    for (auto &t : threads_) {
        if (t->state == ThreadState::Safepoint) {
            t->state = ThreadState::Runnable;
            if (t->time < now())
                t->time = now();
        }
    }
}

ThreadId
Scheduler::currentThread() const
{
    HASTM_ASSERT(inThread());
    return current_;
}

Cycles
Scheduler::now() const
{
    HASTM_ASSERT(inThread());
    return threads_[current_]->time;
}

} // namespace hastm
