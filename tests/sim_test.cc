/**
 * @file
 * Unit tests for the simulation kernel: fibers, scheduler, RNG,
 * stats, logging plumbing.
 */

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fiber.hh"
#include "sim/rng.hh"
#include "sim/scheduler.hh"
#include "sim/stats.hh"

namespace hastm {
namespace {

TEST(Fiber, PingPongSwitching)
{
    Fiber main_fiber;
    std::vector<int> order;
    Fiber *child_ptr = nullptr;
    Fiber child([&] {
        order.push_back(1);
        child_ptr->switchTo(main_fiber);
        order.push_back(3);
        child_ptr->switchTo(main_fiber);
        // Never reached again.
        for (;;)
            child_ptr->switchTo(main_fiber);
    });
    child_ptr = &child;
    order.push_back(0);
    main_fiber.switchTo(child);
    order.push_back(2);
    main_fiber.switchTo(child);
    order.push_back(4);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Fiber, DeepStackUsage)
{
    Fiber main_fiber;
    Fiber *child_ptr = nullptr;
    std::uint64_t result = 0;
    // Recurse enough to use a lot of the 512 KiB fiber stack.
    std::function<std::uint64_t(int)> rec = [&](int n) -> std::uint64_t {
        volatile char pad[256] = {};
        pad[0] = static_cast<char>(n);
        return n == 0 ? std::uint64_t(pad[0]) : rec(n - 1) + 1;
    };
    Fiber child([&] {
        result = rec(1000);
        child_ptr->switchTo(main_fiber);
        for (;;)
            child_ptr->switchTo(main_fiber);
    });
    child_ptr = &child;
    main_fiber.switchTo(child);
    EXPECT_EQ(result, 1000u);
}

TEST(Fiber, CatchHandlersOnTwoFibersKeepTheirOwnExceptions)
{
    // Each fiber switches away inside a catch handler, and the host
    // context ends its handler first. The caught-exception stack is
    // per host thread, so unless switchTo() swaps it, ending the host
    // context's handler pops (and frees) the child's exception.
    auto caughtValue = [] {
        try {
            std::rethrow_exception(std::current_exception());
        } catch (int v) {
            return v;
        }
    };
    Fiber main_fiber;
    Fiber *child_ptr = nullptr;
    int child_saw = 0;
    Fiber child([&] {
        try {
            throw 2;
        } catch (int) {
            child_ptr->switchTo(main_fiber);
            child_saw = caughtValue();
        }
        for (;;)
            child_ptr->switchTo(main_fiber);
    });
    child_ptr = &child;
    try {
        throw 1;
    } catch (int) {
        main_fiber.switchTo(child);
        EXPECT_EQ(caughtValue(), 1);
    }
    EXPECT_EQ(std::current_exception(), nullptr);
    main_fiber.switchTo(child);
    EXPECT_EQ(child_saw, 2);
    EXPECT_EQ(std::current_exception(), nullptr);
}

TEST(Scheduler, RunsAllThreadsToCompletion)
{
    Scheduler sched;
    int done = 0;
    for (int i = 0; i < 5; ++i)
        sched.spawn([&] { ++done; });
    sched.run();
    EXPECT_EQ(done, 5);
}

TEST(Scheduler, InterleavesByVirtualTime)
{
    Scheduler sched;
    std::vector<int> order;
    // Thread 0 advances in big steps, thread 1 in small steps; the
    // min-time rule must run thread 1 several times per thread-0 step.
    sched.spawn([&] {
        for (int i = 0; i < 3; ++i) {
            order.push_back(0);
            sched.advance(100);
        }
    });
    sched.spawn([&] {
        for (int i = 0; i < 6; ++i) {
            order.push_back(1);
            sched.advance(10);
        }
    });
    sched.run();
    // First events: both at time 0 (tie -> lower id first), then the
    // small-step thread dominates until it catches up.
    ASSERT_GE(order.size(), 4u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 1);
    // Thread 1's six steps of 10 all fit before thread 0's second
    // step at t=100.
    int ones_before_second_zero = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
        if (order[i] == 0)
            break;
        ++ones_before_second_zero;
    }
    EXPECT_EQ(ones_before_second_zero, 6);
}

TEST(Scheduler, DeterministicSwitchCount)
{
    auto run_once = [] {
        Scheduler sched;
        for (int t = 0; t < 4; ++t) {
            sched.spawn([&sched, t] {
                for (int i = 0; i < 50; ++i)
                    sched.advance(1 + (t + i) % 7);
            });
        }
        sched.run();
        return sched.switches();
    };
    EXPECT_EQ(run_once(), run_once());
}

/**
 * One step of a scripted simulated thread. The same scripts drive the
 * real Scheduler and the reference model below.
 */
struct Step
{
    enum Op { Advance, Block, Unblock, Stop, Resume } op;
    std::uint64_t arg = 0;  //!< cycles for Advance, thread for Unblock
};

using Script = std::vector<Step>;
using Trace = std::vector<std::pair<ThreadId, Cycles>>;

/**
 * Reference model of the scheduling rule: whenever the running thread
 * yields, the runnable thread with minimal (time, id) runs next, and
 * every hand-over to a thread counts one switch. A thread records
 * (id, time) when it starts and after each of its steps returns.
 */
struct SchedModel
{
    struct T
    {
        Cycles time = 0;
        ThreadState st = ThreadState::Runnable;
        std::size_t pc = 0;
        bool started = false;
        bool inStep = false;  //!< suspended inside step pc
    };

    std::vector<Script> scripts;
    std::vector<T> ts;
    Trace trace;
    std::uint64_t switches = 0;
    bool stopPending = false;
    ThreadId requester = 0;

    explicit SchedModel(std::vector<Script> s)
        : scripts(std::move(s)), ts(scripts.size())
    {
    }

    ThreadId
    pick() const
    {
        ThreadId best = ThreadId(-1);
        for (ThreadId i = 0; i < ts.size(); ++i) {
            if (ts[i].st != ThreadState::Runnable)
                continue;
            if (best == ThreadId(-1) || ts[i].time < ts[best].time)
                best = i;
        }
        return best;
    }

    /** Run thread @p id until it gives the host up. */
    void
    resume(ThreadId id)
    {
        T &t = ts[id];
        if (!t.started) {
            t.started = true;
            trace.push_back({id, t.time});
        }
        for (;;) {
            if (t.inStep) {
                // Every resume honours a pending safepoint first.
                if (stopPending && id != requester) {
                    t.st = ThreadState::Safepoint;
                    return;
                }
                if (scripts[id][t.pc].op == Step::Stop) {
                    Cycles max_other = 0;
                    bool all_parked = true;
                    for (ThreadId o = 0; o < ts.size(); ++o) {
                        if (o != id &&
                            ts[o].st == ThreadState::Runnable) {
                            all_parked = false;
                            max_other = std::max(max_other, ts[o].time);
                        }
                    }
                    if (!all_parked) {
                        t.time = std::max(t.time, max_other + 1);
                        return;
                    }
                }
                t.inStep = false;
                trace.push_back({id, t.time});
                ++t.pc;
            }
            if (t.pc == scripts[id].size()) {
                t.st = ThreadState::Finished;
                return;
            }
            const Step &s = scripts[id][t.pc];
            t.inStep = true;
            switch (s.op) {
              case Step::Advance:
                t.time += s.arg;
                if (stopPending && id != requester)
                    break;  // parks at the top of the loop
                if (pick() != id)
                    return;
                break;
              case Step::Block:
                t.st = ThreadState::Blocked;
                return;
              case Step::Unblock: {
                T &u = ts[s.arg];
                u.st = ThreadState::Runnable;
                u.time = std::max(u.time, t.time);
                break;
              }
              case Step::Stop:
                stopPending = true;
                requester = id;
                break;
              case Step::Resume:
                stopPending = false;
                for (T &u : ts) {
                    if (u.st == ThreadState::Safepoint) {
                        u.st = ThreadState::Runnable;
                        u.time = std::max(u.time, t.time);
                    }
                }
                break;
            }
        }
    }

    void
    run()
    {
        for (ThreadId next; (next = pick()) != ThreadId(-1);) {
            ++switches;
            resume(next);
        }
    }
};

TEST(Scheduler, InterleavingMatchesMinTimeIdReferenceModel)
{
    using S = Step;
    // Uneven step sizes with equal-time ties (threads 0, 2 and 3 all
    // meet at t=10, 20, 30, ...), one block/unblock pair and one
    // stop-the-world that catches every peer mid-script.
    const std::vector<Script> scripts = {
        {{S::Advance, 10}, {S::Advance, 10}, {S::Advance, 10},
         {S::Advance, 10}, {S::Advance, 10}, {S::Advance, 10},
         {S::Advance, 10}, {S::Advance, 10}},
        {{S::Advance, 5}, {S::Block}, {S::Advance, 7}, {S::Advance, 7},
         {S::Advance, 7}, {S::Advance, 7}},
        {{S::Advance, 10}, {S::Advance, 15}, {S::Unblock, 1},
         {S::Advance, 20}, {S::Stop}, {S::Advance, 100}, {S::Resume},
         {S::Advance, 5}, {S::Advance, 5}},
        {{S::Advance, 5}, {S::Advance, 5}, {S::Advance, 5},
         {S::Advance, 5}, {S::Advance, 5}, {S::Advance, 5},
         {S::Advance, 5}, {S::Advance, 5}, {S::Advance, 5},
         {S::Advance, 5}, {S::Advance, 5}, {S::Advance, 5}},
    };

    Scheduler sched;
    Trace trace;
    for (const Script &script : scripts) {
        sched.spawn([&sched, &trace, &script] {
            ThreadId me = sched.currentThread();
            trace.push_back({me, sched.now()});
            for (const Step &s : script) {
                switch (s.op) {
                  case Step::Advance:
                    sched.advance(s.arg);
                    break;
                  case Step::Block:
                    sched.block();
                    break;
                  case Step::Unblock:
                    sched.unblock(static_cast<ThreadId>(s.arg));
                    break;
                  case Step::Stop:
                    sched.stopTheWorld();
                    break;
                  case Step::Resume:
                    sched.resumeTheWorld();
                    break;
                }
                trace.push_back({me, sched.now()});
            }
        });
    }
    sched.run();

    SchedModel model(scripts);
    model.run();
    std::size_t steps = scripts.size();
    for (const Script &s : scripts)
        steps += s.size();
    ASSERT_EQ(model.trace.size(), steps);
    EXPECT_EQ(trace, model.trace);
    EXPECT_EQ(sched.switches(), model.switches);
    // The scripts really interleave: far more switches than threads.
    EXPECT_GT(model.switches, 20u);
}

TEST(Scheduler, BlockAndUnblock)
{
    Scheduler sched;
    bool woken = false;
    ThreadId sleeper = sched.spawn([&] {
        sched.block();
        woken = true;
    });
    sched.spawn([&] {
        sched.advance(50);
        sched.unblock(sleeper);
    });
    sched.run();
    EXPECT_TRUE(woken);
    // The woken thread resumed no earlier than its waker.
    EXPECT_GE(sched.timeOf(sleeper), 50u);
}

TEST(SchedulerDeathTest, DeadlockPanics)
{
    EXPECT_DEATH({
        Scheduler sched;
        sched.spawn([&] { sched.block(); });
        sched.run();
    }, "deadlock");
}

TEST(Scheduler, StopTheWorldParksPeers)
{
    Scheduler sched;
    int peer_progress = 0;
    bool world_stopped_at = false;
    sched.spawn([&] {
        for (int i = 0; i < 100; ++i) {
            ++peer_progress;
            sched.advance(1);
        }
    });
    sched.spawn([&] {
        sched.advance(5);
        sched.stopTheWorld();
        // No peer can advance while the world is stopped.
        int snapshot = peer_progress;
        sched.advance(1000);
        world_stopped_at = (snapshot == peer_progress);
        sched.resumeTheWorld();
    });
    sched.run();
    EXPECT_TRUE(world_stopped_at);
    EXPECT_EQ(peer_progress, 100);
}

TEST(Scheduler, SpawnFromInsideThread)
{
    Scheduler sched;
    int children = 0;
    sched.spawn([&] {
        for (int i = 0; i < 3; ++i)
            sched.spawn([&] { ++children; });
    });
    sched.run();
    EXPECT_EQ(children, 3);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, RangeIsBounded)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.range(17), 17u);
}

TEST(Rng, ChancePctRoughlyCalibrated)
{
    Rng rng(11);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.chancePct(30);
    EXPECT_NEAR(hits / double(trials), 0.30, 0.01);
}

TEST(Stats, RegistryAndDump)
{
    StatGroup group("g");
    Counter a, b;
    group.add("alpha", &a);
    group.add("beta", &b);
    a.inc(3);
    b.inc();
    EXPECT_EQ(group.get("alpha"), 3u);
    EXPECT_EQ(group.get("beta"), 1u);
    EXPECT_EQ(group.tryGet("missing"), 0u);
    EXPECT_TRUE(group.has("alpha"));
    EXPECT_FALSE(group.has("missing"));
    group.resetAll();
    EXPECT_EQ(group.get("alpha"), 0u);
}

TEST(StatsDeathTest, GetPanicsOnUnknownName)
{
    StatGroup group("g");
    Counter a;
    group.add("alpha", &a);
    // A typo in a stat name must fail loudly, not read as zero.
    EXPECT_DEATH((void)group.get("allpha"), "unknown stat");
    EXPECT_EQ(group.tryGet("allpha"), 0u);
}

} // namespace
} // namespace hastm
