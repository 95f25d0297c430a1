/**
 * @file
 * HASTM-specific behaviour: barrier filtering, mark-counter
 * validation, aggressive mode and its spurious aborts, the mode
 * policy, the §3.3 default ISA implementation, interrupt survival,
 * and inter-atomic mark reuse.
 */

#include <gtest/gtest.h>

#include "hastm/mode_policy.hh"
#include "workloads/tm_api.hh"

namespace hastm {
namespace {

struct Env
{
    explicit Env(TmScheme scheme, unsigned threads = 2,
                 Granularity gran = Granularity::CacheLine,
                 MachineParams mp = defaultMachine(),
                 StmConfig stm = StmConfig{})
    {
        mp.mem.numCores = std::max(mp.mem.numCores, threads);
        machine = std::make_unique<Machine>(mp);
        SessionConfig sc;
        sc.scheme = scheme;
        sc.numThreads = threads;
        sc.stm = stm;
        sc.stm.gran = gran;
        session = std::make_unique<TmSession>(*machine, sc);
    }

    static MachineParams
    defaultMachine()
    {
        MachineParams mp;
        mp.mem.numCores = 2;
        mp.arenaBytes = 8 * 1024 * 1024;
        return mp;
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<TmSession> session;
};

TEST(Hastm, ReadBarrierFastPathFiltersRepeatedReads)
{
    for (Granularity gran : {Granularity::CacheLine, Granularity::Object}) {
        Env env(TmScheme::Hastm, 1, gran);
        env.machine->run({[&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            Addr obj = t.txAlloc(16);
            t.atomic([&] {
                for (int i = 0; i < 10; ++i)
                    t.readField(obj, 0);
            });
            // First read takes the slow path; the following nine hit
            // the 2-instruction filter.
            EXPECT_GE(t.stats().rdFastHits, 9u)
                << "granularity " << int(gran);
        }});
    }
}

TEST(Hastm, NoReuseSchemeTakesNoReadFastPath)
{
    // The scheme alone selects the Fig 17 unfiltered-read ablation:
    // the same read-reuse loop hits the filter under Hastm and never
    // under HastmNoReuse.
    for (TmScheme scheme : {TmScheme::Hastm, TmScheme::HastmNoReuse}) {
        Env env(scheme, 1);
        env.machine->run({[&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            Addr obj = t.txAlloc(16);
            t.atomic([&] {
                for (int i = 0; i < 10; ++i)
                    t.readField(obj, 0);
            });
            if (scheme == TmScheme::Hastm)
                EXPECT_GT(t.stats().rdFastHits, 0u);
            else
                EXPECT_EQ(t.stats().rdFastHits, 0u);
            EXPECT_GE(t.stats().rdBarriers, 10u);
        }});
    }
}

TEST(Hastm, ValidationFastWhenUndisturbed)
{
    Env env(TmScheme::Hastm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(64);
        t.atomic([&] {
            for (unsigned i = 0; i < 8; ++i)
                t.readField(obj, 8 * i);
        });
        EXPECT_GE(t.stats().fastValidations, 1u);
        EXPECT_EQ(t.stats().fullValidations, 0u);
    }});
}

TEST(Hastm, FalseSharingForcesFullValidationButCommits)
{
    // Object mode: two 32-byte objects share one cache line, so a
    // remote write to B invalidates the marked line holding A's
    // record. The mark counter goes non-zero, validation falls back
    // to the full read-set walk, finds A untouched, and commits —
    // "invalidation of a marked cache line does not by itself abort a
    // transaction" (§5).
    StmConfig stm;
    stm.validateEvery = 0;  // only commit-time validation
    Env env(TmScheme::HastmCautious, 2, Granularity::Object,
            Env::defaultMachine(), stm);
    std::vector<Addr> objs(2);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        objs[0] = t.txAlloc(16);  // 32-byte objects, same line
        objs[1] = t.txAlloc(16);
    }});
    Addr line0 = objs[0] & ~Addr(63);
    Addr line1 = objs[1] & ~Addr(63);
    ASSERT_EQ(line0, line1) << "objects must share a cache line";
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] {
                t.readField(objs[0], 0);
                core.stall(20000);  // remote write to B lands here
                t.readField(objs[0], 8);
            });
            EXPECT_EQ(t.stats().aborts, 0u);
            EXPECT_GE(t.stats().fullValidations, 1u);
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(3000);
            t.atomic([&] { t.writeField(objs[1], 0, 7); });
        },
    });
}

TEST(Hastm, AggressiveSpuriousAbortFallsBackToCautious)
{
    // Same false-sharing setup, but the reader is in aggressive mode
    // (single-thread policy pre-warmed by a commit): the lost mark
    // cannot be validated in software — no read set — so the
    // transaction takes a spurious abort and re-executes cautiously.
    StmConfig stm;
    stm.validateEvery = 0;
    Env env(TmScheme::Hastm, 2, Granularity::Object,
            Env::defaultMachine(), stm);
    std::vector<Addr> objs(2);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        objs[0] = t.txAlloc(16);
        objs[1] = t.txAlloc(16);
    }});
    ASSERT_EQ(objs[0] & ~Addr(63), objs[1] & ~Addr(63));
    bool in_window = false;
    bool writer_done = false;
    env.machine->run({
        [&](Core &core) {
            auto &t = static_cast<HastmThread &>(env.session->thread(0));
            // Prime the adaptive policy: single-thread-style warmup
            // is not available with 2 threads, so drive the window
            // with clean commits until it chooses aggressive.
            for (int i = 0; i < 40; ++i)
                t.atomic([&] { t.readField(objs[0], 0); });
            bool was_aggressive = false;
            unsigned attempts = 0;
            t.atomic([&] {
                ++attempts;
                was_aggressive = t.aggressive() || was_aggressive;
                t.readField(objs[0], 0);
                in_window = true;
                while (!writer_done)
                    core.stall(500);  // remote write lands here
                t.readField(objs[0], 8);
            });
            EXPECT_TRUE(was_aggressive);
            EXPECT_GE(attempts, 2u);
            EXPECT_GE(t.stats().aggressiveAborts, 1u);
            EXPECT_GE(t.stats().commits, 41u);  // everything commits
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            while (!in_window)
                core.stall(200);
            t.atomic([&] { t.writeField(objs[1], 0, 7); });
            writer_done = true;
        },
    });
}

TEST(Hastm, SingleThreadPolicyGoesAggressiveAfterFirstCommit)
{
    Env env(TmScheme::Hastm, 1);
    env.machine->run({[&](Core &core) {
        auto &t = static_cast<HastmThread &>(env.session->thread(0));
        Addr obj = t.txAlloc(16);
        bool first_aggressive = true, second_aggressive = false;
        t.atomic([&] {
            first_aggressive = t.aggressive();
            t.readField(obj, 0);
        });
        t.atomic([&] {
            second_aggressive = t.aggressive();
            t.readField(obj, 0);
        });
        EXPECT_FALSE(first_aggressive);   // starts cautious (§6)
        EXPECT_TRUE(second_aggressive);   // aggressive after a commit
        EXPECT_GE(t.stats().aggressiveCommits, 1u);
        (void)core;
    }});
}

TEST(Hastm, NaivePolicyStartsAggressiveAndRetriesCautious)
{
    ModePolicy naive(ModeStrategy::Naive, 4, 32, 0.25);
    EXPECT_TRUE(naive.chooseAggressive());
    naive.onAbort(true, true);
    EXPECT_FALSE(naive.chooseAggressive());  // cautious re-execution
    naive.onCommit(false, false);
    EXPECT_TRUE(naive.chooseAggressive());   // straight back
}

TEST(Hastm, AdaptivePolicyRespectsWatermark)
{
    ModePolicy adaptive(ModeStrategy::Adaptive, 4, 8, 0.25);
    EXPECT_FALSE(adaptive.chooseAggressive());  // no history: cautious
    for (int i = 0; i < 8; ++i)
        adaptive.onCommit(false, false);
    EXPECT_TRUE(adaptive.chooseAggressive());   // clean window
    for (int i = 0; i < 4; ++i)
        adaptive.onAbort(false, true);
    adaptive.onCommit(false, false);  // clear the retry flag
    EXPECT_FALSE(adaptive.chooseAggressive());  // 4/8 bad > watermark
}

TEST(Hastm, NeverPolicyStaysCautious)
{
    ModePolicy never(ModeStrategy::Never, 1, 8, 0.25);
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(never.chooseAggressive());
        never.onCommit(false, false);
    }
}

TEST(Hastm, DefaultIsaImplementationIsCorrectButUnaccelerated)
{
    // §3.3: with the default implementation the installed code base
    // executes correctly but sees no filtering or fast validation.
    Env env(TmScheme::Hastm, 2);
    for (unsigned c = 0; c < 2; ++c)
        env.machine->core(c).setFullMarkIsa(false);
    Addr obj = 0;
    env.machine->run({[&](Core &core) {
        obj = env.session->threadFor(core).txAlloc(16);
    }});
    env.machine->runOnCores(2, [&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        for (int i = 0; i < 60; ++i) {
            t.atomic([&] {
                std::uint64_t v = t.readField(obj, 0);
                core.execInstr(10);
                t.writeField(obj, 0, v + 1);
            });
        }
    });
    std::uint64_t v = 0;
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        t.atomic([&] { v = t.readField(obj, 0); });
        EXPECT_EQ(t.stats().rdFastHits, 0u);
        EXPECT_EQ(t.stats().fastValidations, 0u);
    }});
    EXPECT_EQ(v, 120u);
    TmStats total = env.session->totalStats();
    EXPECT_EQ(total.rdFastHits, 0u);
    EXPECT_EQ(total.fastValidations, 0u);
}

TEST(Hastm, SurvivesContextSwitchesWithoutAborting)
{
    // §5: an interrupt executes resetmarkall; the transaction is not
    // aborted, it merely falls back to a full software validation.
    MachineParams mp = Env::defaultMachine();
    mp.timing.interruptQuantum = 2000;
    mp.timing.interruptCost = 300;
    StmConfig stm;
    stm.validateEvery = 0;
    Env env(TmScheme::HastmCautious, 1, Granularity::CacheLine, mp, stm);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(8 * 64);
        t.atomic([&] {
            for (unsigned i = 0; i < 64; ++i) {
                t.readField(obj, 8 * i);
                core.execInstr(100);  // guarantees quantum crossings
            }
            t.writeField(obj, 0, 1);
        });
        EXPECT_EQ(t.stats().aborts, 0u);
        EXPECT_EQ(t.stats().commits, 1u);
        EXPECT_GE(t.stats().fullValidations, 1u);
        EXPECT_EQ(t.stats().fastValidations, 0u);
    }});
}

TEST(Hastm, InterAtomicMarkReuseInAggressiveMode)
{
    // Fig 10: with marks kept across transactions, the second atomic
    // block's first read of the same object takes the fast path. The
    // paper's measurements clear marks (clearMarksAtEnd); this is the
    // optimisation they forgo.
    StmConfig stm;
    stm.clearMarksAtEnd = false;
    Env env(TmScheme::Hastm, 1, Granularity::Object,
            Env::defaultMachine(), stm);
    env.machine->run({[&](Core &core) {
        auto &t = static_cast<HastmThread &>(env.session->thread(0));
        Addr obj = t.txAlloc(16);
        t.atomic([&] { t.readField(obj, 0); });   // cautious, marks obj
        t.atomic([&] { t.readField(obj, 0); });   // aggressive now
        std::uint64_t hits_before = t.stats().rdFastHits;
        t.atomic([&] { t.readField(obj, 0); });   // reuses the mark
        EXPECT_GE(t.stats().rdFastHits, hits_before + 1);
        (void)core;
    }});
}

TEST(Hastm, CapacityOverflowDegradesGracefully)
{
    // A read set far beyond the (tiny) L1 loses marks to evictions:
    // cautious transactions fall back to full validation and still
    // commit; the makespan stays finite. §2's "consistent performance
    // across a variety of transactions".
    MachineParams mp = Env::defaultMachine();
    mp.mem.l1 = CacheParams{2048, 2, 64, 16};   // 2 KiB L1
    StmConfig stm;
    stm.validateEvery = 0;
    Env env(TmScheme::HastmCautious, 1, Granularity::CacheLine, mp, stm);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr big = t.txAlloc(8 * 2048);  // 16 KiB of data
        t.atomic([&] {
            for (unsigned i = 0; i < 2048; ++i)
                t.readField(big, 8 * i);
        });
        EXPECT_EQ(t.stats().commits, 1u);
        EXPECT_EQ(t.stats().aborts, 0u);
        EXPECT_GE(t.stats().fullValidations, 1u);
        (void)core;
    }});
}

TEST(Hastm, AggressiveRetryWaitsOnMarkCounter)
{
    // Aggressive-mode retry has no read set; the mark counter is the
    // hardware watch channel for the wait.
    StmConfig stm;
    Env env(TmScheme::HastmNaive, 2, Granularity::CacheLine,
            Env::defaultMachine(), stm);
    Addr obj = 0;
    env.machine->run({[&](Core &core) {
        obj = env.session->threadFor(core).txAlloc(16);
    }});
    env.machine->run({
        [&](Core &core) {
            auto &t = static_cast<HastmThread &>(env.session->thread(0));
            std::uint64_t got = 0;
            t.atomic([&] {
                got = t.readField(obj, 0);
                if (got == 0)
                    t.retry();
            });
            EXPECT_EQ(got, 42u);
            EXPECT_GE(t.stats().retries, 1u);
            (void)core;
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(40000);
            t.atomic([&] { t.writeField(obj, 0, 42); });
        },
    });
}

} // namespace
} // namespace hastm
