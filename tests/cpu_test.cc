/**
 * @file
 * Unit tests for the core model: timing, phases, the mark-bit ISA
 * (full and §3.3 default implementations), interrupts, store queue.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"

namespace hastm {
namespace {

MachineParams
smallParams()
{
    MachineParams p;
    p.mem.numCores = 2;
    p.mem.prefetchNextLine = false;
    p.arenaBytes = 4 * 1024 * 1024;
    return p;
}

TEST(Core, LoadStoreRoundTripAndCycles)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        Cycles before = core.cycles();
        core.store<std::uint64_t>(4096, 42);
        EXPECT_EQ(core.load<std::uint64_t>(4096), 42u);
        EXPECT_GT(core.cycles(), before);
        EXPECT_EQ(core.instructions(), 2u);
    }});
}

TEST(Core, CasSemantics)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        core.store<std::uint64_t>(4096, 10);
        EXPECT_EQ(core.cas<std::uint64_t>(4096, 10, 20), 10u);
        EXPECT_EQ(core.load<std::uint64_t>(4096), 20u);
        EXPECT_EQ(core.cas<std::uint64_t>(4096, 10, 30), 20u);  // fails
        EXPECT_EQ(core.load<std::uint64_t>(4096), 20u);
    }});
}

TEST(Core, PhaseAttribution)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        core.execInstr(10);
        {
            Core::PhaseScope scope(core, Phase::RdBarrier);
            core.execInstr(7);
            {
                Core::PhaseScope inner(core, Phase::Validate);
                core.execInstr(5);
            }
        }
        EXPECT_EQ(core.phaseCycles(Phase::App), 10u);
        EXPECT_EQ(core.phaseCycles(Phase::RdBarrier), 7u);
        EXPECT_EQ(core.phaseCycles(Phase::Validate), 5u);
        EXPECT_EQ(core.phaseInstrs(Phase::Validate), 5u);
    }});
}

TEST(Core, IlpBatchCheaperThanSerial)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        Cycles t0 = core.cycles();
        core.execInstr(12);
        Cycles serial = core.cycles() - t0;
        t0 = core.cycles();
        core.execInstrIlp(12);
        Cycles ilp = core.cycles() - t0;
        EXPECT_LT(ilp, serial);
        EXPECT_GE(ilp, 1u);
    }});
}

TEST(MarkIsa, LoadSetThenTest)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        core.store<std::uint64_t>(4096, 99);
        bool marked = true;
        EXPECT_EQ(core.loadTestMark<std::uint64_t>(4096, marked), 99u);
        EXPECT_FALSE(marked);  // never marked
        EXPECT_EQ(core.loadSetMark<std::uint64_t>(4096), 99u);
        core.loadTestMark<std::uint64_t>(4096, marked);
        EXPECT_TRUE(marked);
        core.loadResetMark<std::uint64_t>(4096);
        core.loadTestMark<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);
    }});
}

TEST(MarkIsa, LineGranularityVariants)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        bool marked = false;
        core.loadSetMark<std::uint64_t>(4096);   // 8-byte granularity
        core.loadTestMarkLine<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);  // whole line is not covered
        core.loadSetMarkLine<std::uint64_t>(4096 + 32);
        core.loadTestMarkLine<std::uint64_t>(4096, marked);
        EXPECT_TRUE(marked);
        // And the 8-byte test inside the line also passes now.
        core.loadTestMark<std::uint64_t>(4096 + 48, marked);
        EXPECT_TRUE(marked);
    }});
}

TEST(MarkIsa, CounterTracksRemoteInvalidation)
{
    Machine m(smallParams());
    m.run({
        [](Core &core) {
            core.resetMarkCounter();
            core.loadSetMark<std::uint64_t>(4096);
            EXPECT_EQ(core.readMarkCounter(), 0u);
            core.stall(1000);  // let core 1 store
            EXPECT_GE(core.readMarkCounter(), 1u);
            bool marked = true;
            core.loadTestMark<std::uint64_t>(4096, marked);
            EXPECT_FALSE(marked);
        },
        [](Core &core) {
            core.stall(200);
            core.store<std::uint64_t>(4096, 7);
        },
    });
}

TEST(MarkIsa, ResetMarkAllIncrementsCounter)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        core.resetMarkCounter();
        core.loadSetMark<std::uint64_t>(4096);
        core.resetMarkAll();
        EXPECT_GE(core.readMarkCounter(), 1u);
        bool marked = true;
        core.loadTestMark<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);
        core.resetMarkCounter();
        EXPECT_EQ(core.readMarkCounter(), 0u);
    }});
}

TEST(MarkIsa, DefaultImplementationSemantics)
{
    // §3.3: marking never sticks; loadsetmark bumps the counter, so
    // software behaves as if every marked line were evicted at once.
    Machine m(smallParams());
    m.run({[](Core &core) {
        core.setFullMarkIsa(false);
        core.resetMarkCounter();
        core.store<std::uint64_t>(4096, 5);
        EXPECT_EQ(core.loadSetMark<std::uint64_t>(4096), 5u);
        EXPECT_GE(core.readMarkCounter(), 1u);
        bool marked = true;
        EXPECT_EQ(core.loadTestMark<std::uint64_t>(4096, marked), 5u);
        EXPECT_FALSE(marked);
        core.resetMarkCounter();
        core.resetMarkAll();
        EXPECT_GE(core.readMarkCounter(), 1u);
    }});
}

TEST(Core, InterruptInjectionClearsMarks)
{
    MachineParams p = smallParams();
    p.timing.interruptQuantum = 500;
    p.timing.interruptCost = 100;
    Machine m(p);
    m.run({[](Core &core) {
        core.resetMarkCounter();
        core.loadSetMark<std::uint64_t>(4096);
        // Burn enough cycles to cross the quantum: the injected ring
        // transition executes resetmarkall (§3).
        for (int i = 0; i < 20; ++i)
            core.execInstr(100);
        EXPECT_GE(core.readMarkCounter(), 1u);
        bool marked = true;
        core.loadTestMark<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);
    }});
}

TEST(Core, StoreQueueBackpressure)
{
    MachineParams p = smallParams();
    p.timing.storeQueueSize = 2;
    p.timing.storeRetireLat = 50;
    Machine m(p);
    m.run({[](Core &core) {
        // Warm the line so each store is a 1-cycle hit; the bounded
        // queue must throttle a burst beyond 2 in flight.
        core.store<std::uint64_t>(4096, 0);
        Cycles t0 = core.cycles();
        for (int i = 0; i < 10; ++i)
            core.store<std::uint64_t>(4096, i);
        Cycles burst = core.cycles() - t0;
        EXPECT_GT(burst, 10u * (1 + 1));  // stalled well beyond hit cost
    }});
}

TEST(CoreDeathTest, ZeroStoreQueueSizeIsRejected)
{
    // The store-queue ring needs a slot for the store it pushes.
    MachineParams p = smallParams();
    p.timing.storeQueueSize = 0;
    EXPECT_DEATH({ Machine m(p); }, "storeQueueSize must be at least 1");
}

TEST(Core, StoreQueueOfOneSlotSerialisesStores)
{
    MachineParams p = smallParams();
    p.timing.storeQueueSize = 1;
    p.timing.storeRetireLat = 50;
    Machine m(p);
    m.run({[](Core &core) {
        core.store<std::uint64_t>(4096, 0);
        Cycles t0 = core.cycles();
        for (int i = 0; i < 4; ++i)
            core.store<std::uint64_t>(4096, i);
        // The warm-up store has retired by t0. The first store then
        // hits, and each later one waits for its predecessor's retire.
        EXPECT_EQ(core.cycles() - t0,
                  3u * 50 + core.mem().params().storeHitLat);
    }});
}

TEST(Core, DependentBranchChargesPenalty)
{
    Machine m(smallParams());
    m.run({[](Core &core) {
        Cycles t0 = core.cycles();
        core.dependentBranch();
        EXPECT_EQ(core.cycles() - t0, core.timing().depBranchPenalty);
    }});
}

TEST(Machine, MultiRunKeepsCacheState)
{
    Machine m(smallParams());
    m.run({[](Core &core) { core.store<std::uint64_t>(4096, 1); }});
    m.resetCounters();
    m.run({[](Core &core) {
        Cycles t0 = core.cycles();
        EXPECT_EQ(core.load<std::uint64_t>(4096), 1u);
        // The populate run warmed the line; this is an L1 hit.
        EXPECT_EQ(core.cycles() - t0, core.mem().params().l1HitLat);
    }});
}

TEST(Machine, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        MachineParams p;
        p.mem.numCores = 4;
        p.arenaBytes = 4 * 1024 * 1024;
        Machine m(p);
        std::vector<std::function<void(Core &)>> fns;
        for (unsigned t = 0; t < 4; ++t) {
            fns.push_back([t](Core &core) {
                Rng rng(t + 1);
                for (int i = 0; i < 200; ++i) {
                    Addr a = 4096 + 8 * rng.range(512);
                    if (rng.chancePct(30))
                        core.store<std::uint64_t>(a, i);
                    else
                        core.load<std::uint64_t>(a);
                }
            });
        }
        m.run(fns);
        return m.maxCoreCycles();
    };
    EXPECT_EQ(run_once(), run_once());
}

} // namespace
} // namespace hastm
