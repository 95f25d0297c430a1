#include "sim/scheduler.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace hastm {

ThreadId
Scheduler::spawn(ThreadFn fn, Cycles start_time)
{
    // Thread ids break time ties, so peers must spawn in (time, id)
    // order too.
    if (inThread())
        sync();
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
        setRunning(&next);
        ++switches_;
        mainFiber_.switchTo(*next.fiber);
        // Control returns here whenever the running thread yields.
        setRunning(nullptr);
    }
}

void
Scheduler::switchToScheduler()
{
    running_->fiber->switchTo(mainFiber_);
    // Resumed: run() or a peer's sync() has made us the running thread.
    maybePark();
}

void
Scheduler::maybePark()
{
    while (stopPending_ && current_ != stopRequester_) {
        running_->state = ThreadState::Safepoint;
        running_->fiber->switchTo(mainFiber_);
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
    setRunning(&next);
    ++switches_;
    self.fiber->switchTo(*next.fiber);
    // Resumed: whoever switched back here set current_ to us.
    maybePark();
}

void
Scheduler::block()
{
    sync();
    running_->state = ThreadState::Blocked;
    switchToScheduler();
}

void
Scheduler::unblock(ThreadId tid)
{
    if (inThread())
        sync();
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
    // Whether a thread is still live is visible to stopTheWorld().
    sync();
    Thread &self = *running_;
    self.state = ThreadState::Finished;
    self.fiber->switchTo(mainFiber_);
    panic("finished thread %u was resumed", self.id);
}

void
Scheduler::stopTheWorld()
{
    sync();
    HASTM_ASSERT(!stopPending_);
    Thread &self = *running_;
    stopPending_ = true;
    stopRequester_ = current_;
    stopStart_ = self.time;
    // Wait until every other live thread is parked or finished. Each
    // iteration lifts our virtual time past the latest runnable peer,
    // so run() resumes every peer up to its next safepoint before
    // control returns here. The lift only orders the parking: the
    // pause starts at our time on entry, whatever the peers' times.
    for (;;) {
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
            break;
        self.time = std::max(self.time, max_other + 1);
        switchToScheduler();
    }
    self.time = stopStart_;
}

void
Scheduler::resumeTheWorld()
{
    // A thread spawned or woken during the pause parks before the
    // release, as it would at any earlier switch.
    sync();
    HASTM_ASSERT(stopPending_ && current_ == stopRequester_);
    stopPending_ = false;
    stopRequester_ = kNoThread;
    // Delaying every parked thread by the pause keeps each one's
    // later times independent of where it parked: a thread that ran
    // further before parking only did its own work earlier.
    const Cycles pause = now() - stopStart_;
    for (auto &t : threads_) {
        if (t->state == ThreadState::Safepoint) {
            t->state = ThreadState::Runnable;
            t->time += pause;
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
    return running_->time;
}

} // namespace hastm
