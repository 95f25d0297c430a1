/**
 * @file
 * Unit tests for the simulation kernel: fibers, scheduler, RNG,
 * stats, logging plumbing.
 */

#include <algorithm>
#include <deque>
#include <exception>
#include <functional>
#include <iterator>
#include <string>
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
    enum Op { Advance, Block, Unblock, Stop, Resume, Spawn } op;
    /**
     * Advance: cycles. Unblock: the thread to wake if it is blocked.
     * Spawn: the pool script the new thread runs (it starts at the
     * spawner's time).
     */
    std::uint64_t arg = 0;
};

using Script = std::vector<Step>;
using Trace = std::vector<std::pair<ThreadId, Cycles>>;

/**
 * Reference model of the scheduling rule: whenever the running thread
 * yields, the runnable thread with minimal (time, id) runs next, and
 * every hand-over to a thread counts one switch. A thread records
 * (id, time) when it starts and after each of its steps returns.
 * Threads 0..initial-1 run pool scripts 0..initial-1. A run the real
 * Scheduler would refuse (a nested stop, a resume without a stop, a
 * deadlock) clears valid and ends the model run.
 */
struct SchedModel
{
    struct T
    {
        std::size_t script = 0;
        Cycles time = 0;
        ThreadState st = ThreadState::Runnable;
        std::size_t pc = 0;
        bool started = false;
        bool inStep = false;  //!< suspended inside step pc
    };

    std::vector<Script> pool;
    std::deque<T> ts;  //!< a spawn keeps references to the others valid
    Trace trace;
    std::uint64_t switches = 0;
    bool stopPending = false;
    ThreadId requester = 0;
    bool valid = true;

    SchedModel(std::vector<Script> p, std::size_t initial)
        : pool(std::move(p)), ts(initial)
    {
        for (std::size_t i = 0; i < initial; ++i)
            ts[i].script = i;
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
        const Script &script = pool[t.script];
        if (!t.started) {
            t.started = true;
            trace.push_back({id, t.time});
        }
        // A thread resumed inside a step (a yield or a block) honours
        // a pending safepoint first. Steps that do not yield run on.
        if (t.inStep && stopPending && id != requester) {
            t.st = ThreadState::Safepoint;
            return;
        }
        for (;;) {
            if (t.inStep) {
                if (script[t.pc].op == Step::Stop) {
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
            if (t.pc == script.size()) {
                t.st = ThreadState::Finished;
                return;
            }
            const Step &s = script[t.pc];
            t.inStep = true;
            switch (s.op) {
              case Step::Advance:
                t.time += s.arg;
                if (stopPending && id != requester) {
                    t.st = ThreadState::Safepoint;
                    return;
                }
                if (pick() != id)
                    return;
                break;
              case Step::Block:
                t.st = ThreadState::Blocked;
                return;
              case Step::Unblock:
                if (s.arg < ts.size() &&
                    ts[s.arg].st == ThreadState::Blocked) {
                    T &u = ts[s.arg];
                    u.st = ThreadState::Runnable;
                    u.time = std::max(u.time, t.time);
                }
                break;
              case Step::Stop:
                if (stopPending) {
                    valid = false;
                    return;
                }
                stopPending = true;
                requester = id;
                break;
              case Step::Resume:
                if (!stopPending) {
                    valid = false;
                    return;
                }
                stopPending = false;
                for (T &u : ts) {
                    if (u.st == ThreadState::Safepoint) {
                        u.st = ThreadState::Runnable;
                        u.time = std::max(u.time, t.time);
                    }
                }
                break;
              case Step::Spawn:
                ts.emplace_back();
                ts.back().script = s.arg;
                ts.back().time = t.time;
                break;
            }
        }
    }

    void
    run()
    {
        for (ThreadId next; valid && (next = pick()) != ThreadId(-1);) {
            ++switches;
            resume(next);
        }
        for (const T &t : ts)
            valid = valid && t.st == ThreadState::Finished;
    }
};

/** Run the first @p initial pool scripts on a real Scheduler. */
std::pair<Trace, std::uint64_t>
runScripts(const std::vector<Script> &pool, std::size_t initial)
{
    Scheduler sched;
    Trace trace;
    std::function<void(const Script &)> body = [&](const Script &script) {
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
                if (s.arg < sched.numThreads() &&
                    sched.stateOf(ThreadId(s.arg)) ==
                        ThreadState::Blocked)
                    sched.unblock(ThreadId(s.arg));
                break;
              case Step::Stop:
                sched.stopTheWorld();
                break;
              case Step::Resume:
                sched.resumeTheWorld();
                break;
              case Step::Spawn: {
                const Script &child = pool[s.arg];
                sched.spawn([&body, &child] { body(child); }, sched.now());
                break;
              }
            }
            trace.push_back({me, sched.now()});
        }
    };
    for (std::size_t i = 0; i < initial; ++i)
        sched.spawn([&body, &pool, i] { body(pool[i]); });
    sched.run();
    return {trace, sched.switches()};
}

/**
 * A seeded random scenario: 2-6 threads whose scripts mix advances
 * with many equal-time ties, blocks, wake-ups, spawns from inside a
 * thread, and at most one stop/resume pair each. Two extra pool
 * scripts (no spawn, no stop) serve as spawn targets.
 */
std::pair<std::vector<Script>, std::size_t>
randomScenario(std::uint64_t seed)
{
    using S = Step;
    Rng rng(seed);
    const std::size_t initial = 2 + rng.range(5);
    const std::size_t pool_size = initial + 2;
    auto advance = [&rng] {
        static constexpr Cycles kSteps[] = {0, 1, 5, 5, 10, 10, 20};
        return S{S::Advance, kSteps[rng.range(std::size(kSteps))]};
    };
    std::vector<Script> pool(pool_size);
    for (std::size_t i = 0; i < pool_size; ++i) {
        const bool child = i >= initial;
        bool spawned = false, stopped = false;
        const std::size_t len = 2 + rng.range(child ? 5 : 11);
        Script &script = pool[i];
        while (script.size() < len) {
            std::uint64_t roll = rng.range(100);
            if (roll < 55) {
                script.push_back(advance());
            } else if (roll < 65) {
                script.push_back({S::Block});
            } else if (roll < 85) {
                script.push_back({S::Unblock, rng.range(pool_size)});
            } else if (roll < 92 && !child && !spawned) {
                spawned = true;
                script.push_back({S::Spawn, initial + rng.range(2)});
            } else if (!child && !stopped) {
                stopped = true;
                script.push_back({S::Stop});
                for (std::uint64_t k = rng.range(3); k > 0; --k)
                    script.push_back(advance());
                script.push_back({S::Resume});
            }
        }
    }
    return {pool, initial};
}

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

    auto [trace, switches] = runScripts(scripts, scripts.size());
    SchedModel model(scripts, scripts.size());
    model.run();
    ASSERT_TRUE(model.valid);
    std::size_t steps = scripts.size();
    for (const Script &s : scripts)
        steps += s.size();
    ASSERT_EQ(model.trace.size(), steps);
    EXPECT_EQ(trace, model.trace);
    EXPECT_EQ(switches, model.switches);
    // The scripts really interleave: far more switches than threads.
    EXPECT_GT(model.switches, 20u);

    // Seeded random scenarios. Those the real Scheduler would refuse
    // are skipped; every run-queue rebuild path must still be crossed
    // by the ones that run. A run that finishes woke every block.
    unsigned ran = 0, with_block = 0, with_stop = 0, with_spawn = 0;
    for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
        auto [pool, initial] = randomScenario(seed);
        SchedModel m(pool, initial);
        m.run();
        if (!m.valid)
            continue;
        SCOPED_TRACE("scenario seed " + std::to_string(seed));
        auto [t, sw] = runScripts(pool, initial);
        EXPECT_EQ(t, m.trace);
        EXPECT_EQ(sw, m.switches);
        ++ran;
        bool block = false, stop = false;
        for (std::size_t i = 0; i < m.ts.size(); ++i) {
            for (const Step &s : pool[m.ts[i].script]) {
                block |= s.op == Step::Block;
                stop |= s.op == Step::Stop;
            }
        }
        with_block += block;
        with_stop += stop;
        with_spawn += m.ts.size() > initial;
    }
    EXPECT_GE(ran, 100u);
    EXPECT_GE(with_block, 20u);
    EXPECT_GE(with_stop, 20u);
    EXPECT_GE(with_spawn, 20u);
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
