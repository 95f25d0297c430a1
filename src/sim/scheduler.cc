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
    rebuildRunQueue();
    return id;
}

void
Scheduler::rebuildRunQueue()
{
    runQueue_.clear();
    for (const auto &t : threads_) {
        if (t->state == ThreadState::Runnable && t->id != current_)
            runQueue_.push_back(t.get());
    }
    std::sort(runQueue_.begin(), runQueue_.end(),
              [](const Thread *a, const Thread *b) {
                  return runsBefore(*a, *b);
              });
}

void
Scheduler::run()
{
    HASTM_ASSERT(current_ == kNoThread);
    for (;;) {
        rebuildRunQueue();
        if (runQueue_.empty()) {
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
        Thread &next = *runQueue_.front();
        runQueue_.erase(runQueue_.begin());
        current_ = next.id;
        ++switches_;
        mainFiber_.switchTo(*next.fiber);
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
Scheduler::handOver(Thread &self)
{
    if (stopPending_ && current_ != stopRequester_) {
        maybePark();
        return;
    }
    if (runQueue_.empty() || !runsBefore(*runQueue_.front(), self))
        return;
    // Hand the host straight to the queue's front, the earliest
    // runnable thread. run() would pick the same thread, so going
    // direct changes no interleaving and no switch count. We take the
    // front's slot and move back past every thread that runs first.
    Thread &next = *runQueue_.front();
    std::size_t i = 0;
    for (; i + 1 < runQueue_.size() && runsBefore(*runQueue_[i + 1], self);
         ++i)
        runQueue_[i] = runQueue_[i + 1];
    runQueue_[i] = &self;
    current_ = next.id;
    ++switches_;
    self.fiber->switchTo(*next.fiber);
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
    rebuildRunQueue();
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
    rebuildRunQueue();
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
