/**
 * @file
 * STM runtime tests: transactional semantics across every scheme
 * (conformance suite), plus STM-specific machinery — undo, version
 * management, conflict detection, nesting with partial rollback,
 * retry/orElse, log growth, contention policies.
 */

#include <gtest/gtest.h>

#include "backend/sim_backend.hh"
#include "stm/irrevocable.hh"
#include "workloads/tm_api.hh"

#include "conformance_suite.hh"

namespace hastm {
namespace {

struct Env
{
    explicit Env(TmScheme scheme, unsigned threads = 2,
                 Granularity gran = Granularity::CacheLine,
                 MachineParams mp = defaultMachine())
    {
        mp.mem.numCores = std::max(mp.mem.numCores, threads);
        machine = std::make_unique<Machine>(mp);
        SessionConfig sc;
        sc.scheme = scheme;
        sc.numThreads = threads;
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

// ------------------------------------------------ conformance suite

struct SchemeCase
{
    TmScheme scheme;
    Granularity gran;
};

class TmConformance : public ::testing::TestWithParam<SchemeCase>
{
  protected:
    /** Same machine shape Env builds, behind the backend interface. */
    SimBackendConfig
    cfg(unsigned threads)
    {
        SimBackendConfig c;
        c.machine = Env::defaultMachine();
        c.session.scheme = GetParam().scheme;
        c.session.numThreads = threads;
        c.session.stm.gran = GetParam().gran;
        return c;
    }
};

TEST_P(TmConformance, CommittedWritesPersist)
{
    SimBackend b(cfg(1));
    conform::committedWritesPersist(b);
}

TEST_P(TmConformance, ReadYourOwnWrites)
{
    SimBackend b(cfg(1));
    conform::readYourOwnWrites(b);
}

TEST_P(TmConformance, UserAbortRollsBackAndExits)
{
    // Lock cannot roll back (documented); skip it here.
    if (GetParam().scheme == TmScheme::Lock ||
        GetParam().scheme == TmScheme::Sequential) {
        GTEST_SKIP() << "baselines have no rollback";
    }
    SimBackend b(cfg(1));
    conform::userAbortRollsBackAndExits(b);
}

TEST_P(TmConformance, CounterIncrementsAreAtomic)
{
    if (GetParam().scheme == TmScheme::Sequential)
        GTEST_SKIP() << "single-threaded baseline";
    SimBackend b(cfg(2));
    conform::counterIncrementsAreAtomic(b);
}

TEST_P(TmConformance, DisjointWritesBothSurvive)
{
    if (GetParam().scheme == TmScheme::Sequential)
        GTEST_SKIP() << "single-threaded baseline";
    SimBackend b(cfg(2));
    conform::disjointWritesBothSurvive(b);
}

TEST_P(TmConformance, MoneyConservedUnderTransfers)
{
    if (GetParam().scheme == TmScheme::Sequential)
        GTEST_SKIP() << "single-threaded baseline";
    SimBackend b(cfg(2));
    conform::moneyConservedUnderTransfers(b);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, TmConformance,
    ::testing::Values(
        SchemeCase{TmScheme::Sequential, Granularity::CacheLine},
        SchemeCase{TmScheme::Lock, Granularity::CacheLine},
        SchemeCase{TmScheme::Stm, Granularity::CacheLine},
        SchemeCase{TmScheme::Stm, Granularity::Object},
        SchemeCase{TmScheme::Hastm, Granularity::CacheLine},
        SchemeCase{TmScheme::Hastm, Granularity::Object},
        SchemeCase{TmScheme::HastmCautious, Granularity::CacheLine},
        SchemeCase{TmScheme::HastmNoReuse, Granularity::Object},
        SchemeCase{TmScheme::HastmNaive, Granularity::CacheLine},
        SchemeCase{TmScheme::Hytm, Granularity::CacheLine},
        SchemeCase{TmScheme::Hytm, Granularity::Object},
        SchemeCase{TmScheme::Adaptive, Granularity::CacheLine}),
    [](const ::testing::TestParamInfo<SchemeCase> &info) {
        std::string name = tmSchemeName(info.param.scheme);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        name += info.param.gran == Granularity::Object ? "_obj" : "_line";
        return name;
    });

// ------------------------------------------------- STM-specific

TEST(Stm, VersionsAdvanceByTwoAndStayOdd)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        auto &t = static_cast<StmThread &>(env.session->thread(0));
        Addr obj = t.txAlloc(16);
        Addr rec = env.session->globals().recTable().recordFor(
            obj + kObjHeaderBytes);
        std::uint64_t v0 =
            env.machine->arena().read<std::uint64_t>(rec);
        EXPECT_TRUE(txrec::isVersion(v0));
        t.atomic([&] { t.writeField(obj, 0, 1); });
        std::uint64_t v1 =
            env.machine->arena().read<std::uint64_t>(rec);
        EXPECT_TRUE(txrec::isVersion(v1));
        EXPECT_EQ(v1, v0 + 2);
        (void)core;
    }});
}

TEST(Stm, ConflictingWriterAbortsAndRetries)
{
    Env env(TmScheme::Stm, 2);
    Addr obj = 0;
    env.machine->run({[&](Core &core) {
        obj = env.session->threadFor(core).txAlloc(16);
    }});
    // Thread 0 holds the record for a long time; thread 1 conflicts,
    // self-aborts (Polite policy), and eventually succeeds.
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] {
                t.writeField(obj, 0, 1);
                core.stall(20000);
            });
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(500);  // let thread 0 acquire first
            t.atomic([&] {
                std::uint64_t v = t.readField(obj, 0);
                t.writeField(obj, 0, v + 1);
            });
            EXPECT_GE(t.stats().aborts + t.stats().commits, 1u);
        },
    });
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        std::uint64_t v = 0;
        t.atomic([&] { v = t.readField(obj, 0); });
        EXPECT_EQ(v, 2u);
    }});
}

TEST(Stm, NestedCommitMergesIntoParent)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(32);
        t.atomic([&] {
            t.writeField(obj, 0, 1);
            t.atomic([&] { t.writeField(obj, 8, 2); });
            EXPECT_EQ(t.readField(obj, 8), 2u);
        });
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 1u);
            EXPECT_EQ(t.readField(obj, 8), 2u);
        });
        EXPECT_GE(t.stats().nestedCommits, 1u);
    }});
}

TEST(Stm, NestedUserAbortRollsBackOnlyInner)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(32);
        t.atomic([&] {
            t.writeField(obj, 0, 10);
            bool inner = t.atomic([&] {
                t.writeField(obj, 0, 77);   // same field: partial undo
                t.writeField(obj, 8, 88);
                t.userAbort();
            });
            EXPECT_FALSE(inner);
            // Inner effects undone, outer write intact.
            EXPECT_EQ(t.readField(obj, 0), 10u);
            EXPECT_EQ(t.readField(obj, 8), 0u);
            t.writeField(obj, 8, 20);
        });
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 10u);
            EXPECT_EQ(t.readField(obj, 8), 20u);
        });
        EXPECT_GE(t.stats().nestedAborts, 1u);
    }});
}

TEST(Stm, NestedAbortReleasesNestedAcquisitions)
{
    // A record first acquired inside an aborted nested transaction
    // must be released so another thread can use it.
    Env env(TmScheme::Stm, 2);
    Addr obj = 0;
    env.machine->run({[&](Core &core) {
        obj = env.session->threadFor(core).txAlloc(16);
    }});
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] {
                t.atomic([&] {
                    t.writeField(obj, 0, 99);
                    t.userAbort();
                });
                core.stall(20000);  // keep outer alive, obj released
            });
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(2000);
            bool ok = t.atomic([&] { t.writeField(obj, 0, 5); });
            EXPECT_TRUE(ok);
        },
    });
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        std::uint64_t v = 0;
        t.atomic([&] { v = t.readField(obj, 0); });
        EXPECT_EQ(v, 5u);
    }});
}

TEST(Stm, OrElseFallsThroughOnRetry)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(32);
        bool committed = t.atomicOrElse(
            [&] {
                t.writeField(obj, 0, 1);  // must be rolled back
                t.retry();
            },
            [&] { t.writeField(obj, 8, 2); });
        EXPECT_TRUE(committed);
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 0u);  // first alt undone
            EXPECT_EQ(t.readField(obj, 8), 2u);
        });
    }});
}

TEST(Stm, RetryWakesOnRemoteWrite)
{
    Env env(TmScheme::Stm, 2);
    Addr obj = 0;
    env.machine->run({[&](Core &core) {
        obj = env.session->threadFor(core).txAlloc(16);
    }});
    Cycles consumer_done = 0;
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            std::uint64_t got = 0;
            t.atomic([&] {
                got = t.readField(obj, 0);
                if (got == 0)
                    t.retry();
            });
            EXPECT_EQ(got, 42u);
            EXPECT_GE(t.stats().retries, 1u);
            consumer_done = core.cycles();
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(30000);
            t.atomic([&] { t.writeField(obj, 0, 42); });
        },
    });
    EXPECT_GE(consumer_done, 30000u);
}

TEST(Stm, LogChunkOverflowGrowsTransparently)
{
    // Force multiple 4 KiB read-set/undo chunks in one transaction.
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr big = t.txAlloc(8 * 1200);
        t.atomic([&] {
            for (unsigned i = 0; i < 1200; ++i)
                t.writeField(big, 8 * i, i);
            for (unsigned i = 0; i < 1200; ++i)
                EXPECT_EQ(t.readField(big, 8 * i), i);
        });
        auto &st = static_cast<StmThread &>(t);
        EXPECT_GT(st.descriptor().undoLog().entries(), 170u);
        (void)core;
    }});
}

TEST(Stm, AbortRestoresAcrossChunkBoundaries)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr big = t.txAlloc(8 * 600);
        t.atomic([&] {
            for (unsigned i = 0; i < 600; ++i)
                t.writeField(big, 8 * i, 7);
        });
        t.atomic([&] {
            for (unsigned i = 0; i < 600; ++i)
                t.writeField(big, 8 * i, 1000 + i);
            t.userAbort();
        });
        t.atomic([&] {
            for (unsigned i = 0; i < 600; i += 37)
                EXPECT_EQ(t.readField(big, 8 * i), 7u);
        });
        (void)core;
    }});
}

TEST(Stm, TxAllocFreedOnAbortAndFreeDeferredToCommit)
{
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        std::size_t live0 = env.machine->heap().liveBlocks();
        t.atomic([&] {
            t.txAlloc(64);
            t.userAbort();
        });
        EXPECT_EQ(env.machine->heap().liveBlocks(), live0);

        Addr obj = t.txAlloc(64);
        std::size_t live1 = env.machine->heap().liveBlocks();
        t.atomic([&] {
            t.txFree(obj);
            // Deferred: the object is still allocated here.
            EXPECT_EQ(env.machine->heap().liveBlocks(), live1);
        });
        EXPECT_EQ(env.machine->heap().liveBlocks(), live1 - 1);
        (void)core;
    }});
}

TEST(Stm, ContentionPolicies)
{
    for (CmPolicy policy :
         {CmPolicy::Polite, CmPolicy::Aggressive, CmPolicy::Karma}) {
        MachineParams mp = Env::defaultMachine();
        Machine machine(mp);
        SessionConfig sc;
        sc.scheme = TmScheme::Stm;
        sc.numThreads = 2;
        sc.stm.cm.policy = policy;
        TmSession session(machine, sc);
        Addr obj = 0;
        machine.run({[&](Core &core) {
            obj = session.threadFor(core).txAlloc(16);
        }});
        machine.runOnCores(2, [&](Core &core) {
            TmThread &t = session.threadFor(core);
            for (int i = 0; i < 40; ++i) {
                t.atomic([&] {
                    std::uint64_t v = t.readField(obj, 0);
                    core.execInstr(30);
                    t.writeField(obj, 0, v + 1);
                });
            }
        });
        std::uint64_t v = 0;
        machine.run({[&](Core &core) {
            TmThread &t = session.threadFor(core);
            t.atomic([&] { v = t.readField(obj, 0); });
        }});
        EXPECT_EQ(v, 80u) << "policy " << cmPolicyName(policy);
    }
}

TEST(Stm, PeriodicValidationAbortsDoomedTransaction)
{
    // Thread 1 reads a value, stalls while thread 0 changes it, then
    // keeps reading: periodic validation must abort and re-execute.
    MachineParams mp = Env::defaultMachine();
    Machine machine(mp);
    SessionConfig sc;
    sc.scheme = TmScheme::Stm;
    sc.numThreads = 2;
    sc.stm.validateEvery = 4;
    TmSession session(machine, sc);
    Addr obj = 0;
    machine.run({[&](Core &core) {
        TmThread &t = session.threadFor(core);
        obj = t.txAlloc(8 * 40);
    }});
    machine.run({
        [&](Core &core) {
            TmThread &t = session.threadFor(core);
            core.stall(3000);
            t.atomic([&] {
                t.writeField(obj, 0,
                             t.readField(obj, 0) + 1);
            });
        },
        [&](Core &core) {
            TmThread &t = session.threadFor(core);
            unsigned attempts = 0;
            t.atomic([&] {
                ++attempts;
                t.readField(obj, 0);
                core.stall(8000);  // let the writer commit
                for (unsigned i = 1; i < 40; ++i)
                    t.readField(obj, 8 * i);
            });
            EXPECT_GE(attempts, 2u);
            EXPECT_GE(t.stats().aborts, 1u);
        },
    });
}

// ------------------------------------------------ rollback edge cases

TEST(StmRollback, ReadOnlyAbortWithEmptyUndoLog)
{
    // Regression: rollback() anchors its reverse undo walk with
    // TxLog::beginPos(). A transaction that wrote nothing (read-only,
    // aborted by userAbort or validation) must roll back cleanly with
    // zero undo entries instead of touching chunk bookkeeping.
    Env env(TmScheme::Stm, 1);
    env.machine->run({[&](Core &core) {
        TmThread &t = env.session->threadFor(core);
        Addr obj = t.txAlloc(16);
        t.atomic([&] { t.writeField(obj, 0, 7); });
        std::uint64_t seen = 0;
        bool committed = t.atomic([&] {
            seen = t.readField(obj, 0);
            t.userAbort();
        });
        EXPECT_FALSE(committed);
        EXPECT_EQ(seen, 7u);
        // The structure is untouched and the thread is reusable.
        std::uint64_t v = 0;
        t.atomic([&] { v = t.readField(obj, 0); });
        EXPECT_EQ(v, 7u);
        EXPECT_EQ(t.stats().userAborts, 1u);
    }});
}

// ------------------------------------------------ serial gate protocol

TEST(SerialGate, EnterQuiescesBehindAnAdvertisedArrival)
{
    // Regression for the arrival TOCTOU: arrive() must publish the
    // core's activity flag *before* it checks the token, so that by
    // the time it returns, a concurrent enter() is guaranteed to see
    // the flag and wait out the transaction. Under the old protocol
    // (park first, advertise later) core 1's enter() could slip
    // through the window and run "serially" alongside core 0.
    Machine m(Env::defaultMachine());
    SerialGate gate(m);
    Cycles quiesced_at = 0;
    m.run({
        [&](Core &core) {
            gate.arrive(core);             // flag up, token free
            core.stall(5000);              // transaction body
            gate.noteActive(core, false);  // commit-side clear
        },
        [&](Core &core) {
            // Start well after core 0's arrive() has returned (a few
            // hundred cycles of cold misses) but well before its
            // transaction finishes. Entering *during* the arrive
            // window is also legal — the arrival retreats — but then
            // there is nothing to quiesce behind.
            core.stall(2000);
            gate.enter(core);
            quiesced_at = core.cycles();
            gate.exit(core);
        },
    });
    // enter() may not complete until core 0's flag cleared at ~5000.
    EXPECT_GE(quiesced_at, 5000u);
}

TEST(SerialGate, ArrivalParksWhileTheTokenIsHeld)
{
    Machine m(Env::defaultMachine());
    SerialGate gate(m);
    Cycles arrived_at = 0;
    m.run({
        [&](Core &core) {
            gate.enter(core);   // token taken at cycle ~0
            core.stall(8000);   // serial section
            gate.exit(core);
        },
        [&](Core &core) {
            core.stall(100);
            gate.arrive(core);  // must park until exit()
            arrived_at = core.cycles();
            gate.noteActive(core, false);
        },
    });
    EXPECT_GE(arrived_at, 8000u);
}

TEST(StmGuardDeathTest, AddressBelowHeapBaseIsRejected)
{
    // guardAddr()'s lower bound is the heap's first managed byte, not
    // a hard-coded constant. An in-range read works; a sub-base
    // address from a healthy transaction is a caller bug and panics.
    Env env(TmScheme::Stm, 1);
    Addr base = env.machine->heap().base();
    EXPECT_GE(base, 64u);
    EXPECT_DEATH(
        env.machine->run({[&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] { t.readWord(base - 8); });
        }}),
        "out-of-range address");
}

TEST(StmGuardDeathTest, AddressNearTwoToTheSixtyFourTakesTheValidationPath)
{
    // data + size wraps to 0 for this address. The guard must still
    // see it as out of range, validate, and then panic with its own
    // message instead of letting the arena read the host memory just
    // below its buffer.
    Env env(TmScheme::Stm, 1);
    EXPECT_DEATH(
        env.machine->run({[&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] { t.readWord(~Addr(0) - 7); });
        }}),
        "out-of-range address");
}

// ------------------------------------------------ starvation watchdog

TEST(Watchdog, EachBoundTripsAtItsThresholdAndZeroDisablesIt)
{
    // The one predicate StmThread, HytmThread and NativeThread
    // escalate on.
    Watchdog w{4, 16};
    EXPECT_FALSE(w.starved(0, 0));
    EXPECT_FALSE(w.starved(3, 15));
    EXPECT_TRUE(w.starved(4, 0));
    EXPECT_TRUE(w.starved(0, 16));
    EXPECT_TRUE(w.starved(5, 17));

    Watchdog no_consec{0, 16};
    EXPECT_FALSE(no_consec.starved(1000, 15));
    EXPECT_TRUE(no_consec.starved(0, 16));

    Watchdog no_retries{4, 0};
    EXPECT_FALSE(no_retries.starved(3, 1000));
    EXPECT_TRUE(no_retries.starved(4, 0));

    Watchdog off{0, 0};
    EXPECT_FALSE(off.starved(~0u, ~0u));
}

} // namespace
} // namespace hastm
