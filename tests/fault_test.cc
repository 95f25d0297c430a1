/**
 * @file
 * Fault injection, graceful degradation, and the replay oracle.
 *
 * Covers the sim/fault subsystem (profiles, per-core determinism,
 * forced evictions, injected context switches), the §3.3 default
 * mark-ISA implementation's counter semantics under faults (it may
 * overcount, it must never undercount), the harness oracle's replay
 * logic, and end-to-end campaigns: every scheme survives every
 * profile, the starvation watchdog actually escalates, and a
 * deliberately broken commit validation is *caught* by the oracle.
 */

#include <gtest/gtest.h>

#include "cpu/machine.hh"
#include "harness/experiment.hh"
#include "harness/oracle.hh"
#include "sim/fault.hh"

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

ExperimentConfig
stressCfg(TmScheme scheme, const std::string &profile, std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.scheme = scheme;
    cfg.threads = 4;
    cfg.totalOps = 512;
    cfg.updatePct = 50;
    cfg.initialSize = 64;
    cfg.keyRange = 128;
    cfg.hashBuckets = 16;       // crowded buckets => real conflicts
    cfg.seed = seed;
    cfg.recordOps = true;
    cfg.machine.arenaBytes = 16ull * 1024 * 1024;
    cfg.machine.fault = faultProfile(profile);
    cfg.machine.fault.seed = seed;
    cfg.stm.watchdog.consecAborts = 4;
    cfg.stm.watchdog.retriesPerCommit = 16;
    return cfg;
}

// ------------------------------------------------------------ profiles

TEST(FaultProfiles, NamedPresetsResolve)
{
    EXPECT_FALSE(faultProfile("off").enabled);
    for (const char *name : {"light", "heavy", "ctx", "evict",
                             "spurious"}) {
        FaultParams p = faultProfile(name);
        EXPECT_TRUE(p.enabled) << name;
        EXPECT_EQ(p.profile, name);
        EXPECT_GT(p.meanInterval, 0u) << name;
    }
    EXPECT_TRUE(faultProfile("heavy").evictFromL2);
    // Single-kind profiles only enable their kind.
    FaultParams ctx = faultProfile("ctx");
    EXPECT_GT(ctx.weights[std::size_t(FaultKind::CtxSwitch)], 0u);
    EXPECT_EQ(ctx.weights[std::size_t(FaultKind::EvictMarked)], 0u);
    EXPECT_EQ(ctx.weights[std::size_t(FaultKind::SpuriousHtmAbort)], 0u);
    EXPECT_EQ(ctx.weights[std::size_t(FaultKind::SnoopDelay)], 0u);
}

TEST(FaultInjector, ArmIsDeterministicPerCoreStream)
{
    FaultParams p = faultProfile("light");
    p.seed = 99;
    FaultInjector a(p, 4), b(p, 4);
    for (unsigned c = 0; c < 4; ++c) {
        // Same seed => identical due times, drawn per-core.
        EXPECT_EQ(a.arm(c, 1000), b.arm(c, 1000));
    }
    // Due times stay within the documented interval envelope.
    FaultInjector d(p, 1);
    for (int i = 0; i < 64; ++i) {
        Cycles due = d.arm(0, 0);
        EXPECT_GE(due, p.meanInterval / 2);
        EXPECT_LT(due, p.meanInterval / 2 + p.meanInterval);
    }
}

// ---------------------------------------------- direct fault effects

TEST(Faults, ForceEvictMarkedDropsMarksAndBumpsCounter)
{
    Machine m(smallParams());
    m.run({[&](Core &core) {
        for (Addr a = 4096; a < 4096 + 8 * 64; a += 64)
            core.loadSetMarkLine<std::uint64_t>(a);
        std::uint64_t ctr0 = core.readMarkCounter();
        unsigned evicted =
            core.mem().forceEvictMarked(core.id(), 4, false);
        EXPECT_EQ(evicted, 4u);
        EXPECT_GT(core.readMarkCounter(), ctr0);
        // A second sweep can take the rest, and then runs dry.
        evicted = core.mem().forceEvictMarked(core.id(), 100, false);
        EXPECT_EQ(evicted, 4u);
        EXPECT_EQ(core.mem().forceEvictMarked(core.id(), 100, false), 0u);
    }});
}

TEST(Faults, ForceEvictThroughL2BackInvalidates)
{
    Machine m(smallParams());
    m.run({[&](Core &core) {
        for (Addr a = 8192; a < 8192 + 4 * 64; a += 64)
            core.loadSetMarkLine<std::uint64_t>(a);
        std::uint64_t ctr0 = core.readMarkCounter();
        unsigned evicted =
            core.mem().forceEvictMarked(core.id(), 4, true);
        EXPECT_EQ(evicted, 4u);
        EXPECT_GT(core.readMarkCounter(), ctr0);
        bool marked = true;
        core.loadTestMarkLine<std::uint64_t>(8192, marked);
        EXPECT_FALSE(marked);
    }});
}

TEST(Faults, InjectedContextSwitchWipesMarksAndChargesCost)
{
    Machine m(smallParams());
    m.run({[&](Core &core) {
        core.loadSetMarkLine<std::uint64_t>(4096);
        std::uint64_t ctr0 = core.readMarkCounter();
        Cycles before = core.cycles();
        core.injectContextSwitch(500);
        EXPECT_GE(core.cycles(), before + 500);
        bool marked = true;
        core.loadTestMarkLine<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);
        EXPECT_GT(core.readMarkCounter(), ctr0);
    }});
}

// ------------------------- §3.3 default implementation under faults

TEST(MarkIsaDefault, CounterCountsEverySetAndNeverUndercounts)
{
    Machine m(smallParams());
    m.run({[&](Core &core) {
        core.setFullMarkIsa(false);
        core.resetMarkCounter();
        bool marked = true;
        for (unsigned i = 0; i < 5; ++i)
            core.loadSetMark<std::uint64_t>(4096 + 8 * i);
        // The default implementation cannot mark, so the counter must
        // report every set as (potentially) lost...
        EXPECT_EQ(core.readMarkCounter(), 5u);
        // ...and tests must conservatively report "not marked".
        core.loadTestMark<std::uint64_t>(4096, marked);
        EXPECT_FALSE(marked);
        // Injected preemption only moves the counter up.
        std::uint64_t before = core.readMarkCounter();
        core.injectContextSwitch(100);
        EXPECT_GE(core.readMarkCounter(), before);
    }});
}

TEST(MarkIsaDefault, CounterSaturatesInsteadOfWrapping)
{
    Machine m(smallParams());
    m.run({[&](Core &core) {
        core.setFullMarkIsa(false);
        core.resetMarkCounter();
        // Push well past the 16-bit architectural counter.
        for (unsigned i = 0; i < 0x10010; ++i)
            core.loadSetMark<std::uint64_t>(4096);
        EXPECT_EQ(core.readMarkCounter(), 0xffffu);
        core.loadSetMark<std::uint64_t>(4096);
        // Saturation, not wrap-around: a wrap would let validation
        // conclude "no marks lost" after exactly 2^16 losses.
        EXPECT_EQ(core.readMarkCounter(), 0xffffu);
    }});
}

// -------------------------------------------------------- the oracle

std::vector<OpRecord>
simpleLog()
{
    return {
        {10, 0, 0, OpKind::Insert, 5, 50, true},
        {20, 0, 1, OpKind::Contains, 5, 0, true},
        {30, 1, 1, OpKind::Insert, 5, 51, false},  // update in place
        {40, 1, 1, OpKind::Remove, 5, 0, true},
        {50, 0, 1, OpKind::Contains, 5, 0, false},
    };
}

TEST(Oracle, AcceptsASerializableHistory)
{
    OracleOutcome o = replayOps(simpleLog(), 0, 0, true, 7);
    EXPECT_TRUE(o.ok) << o.diag;
    EXPECT_TRUE(o.diag.empty());
}

TEST(Oracle, SortsAcrossCoresAndEpochs)
{
    // Shuffled delivery order; epoch 0 must sort before epoch 1 even
    // though its stamps restart from a reset clock.
    std::vector<OpRecord> log = {
        {40, 1, 1, OpKind::Remove, 5, 0, true},
        {10, 0, 0, OpKind::Insert, 5, 50, true},
        {50, 0, 1, OpKind::Contains, 5, 0, false},
        {30, 1, 1, OpKind::Insert, 5, 51, false},
        {20, 0, 1, OpKind::Contains, 5, 0, true},
    };
    OracleOutcome o = replayOps(std::move(log), 0, 0, true, 7);
    EXPECT_TRUE(o.ok) << o.diag;
}

TEST(Oracle, RejectsAWrongResultWithReproducingSeed)
{
    std::vector<OpRecord> log = simpleLog();
    log.back().result = true;  // claims the removed key is present
    OracleOutcome o = replayOps(std::move(log), 0, 0, true, 1234);
    EXPECT_FALSE(o.ok);
    EXPECT_NE(o.diag.find("contains"), std::string::npos) << o.diag;
    EXPECT_NE(o.diag.find("seed=1234"), std::string::npos) << o.diag;
}

TEST(Oracle, SameStampSameCoreOrdersByProgramSequence)
{
    // Read-only commits can reuse a stamp, so one core may log
    // several ops with identical (epoch, stamp, core). The per-thread
    // seq must order them in program order, independent of the order
    // the per-thread logs happened to be concatenated in.
    std::vector<OpRecord> log = {
        {10, 0, 1, OpKind::Insert, 5, 50, true, 1},
        {10, 0, 1, OpKind::Contains, 5, 0, false, 0},
        {10, 0, 1, OpKind::Remove, 5, 0, true, 2},
    };
    OracleOutcome o = replayOps(log, 0, 0, true, 7);
    EXPECT_TRUE(o.ok) << o.diag;
    std::swap(log[0], log[2]);  // delivery order must not matter
    o = replayOps(log, 0, 0, true, 7);
    EXPECT_TRUE(o.ok) << o.diag;
}

TEST(Oracle, RejectsFinalStateMismatch)
{
    std::vector<OpRecord> log = {{10, 0, 1, OpKind::Insert, 3, 9, true}};
    std::uint64_t checksum = 3 * 0x9e3779b97f4a7c15ull + 9;
    EXPECT_TRUE(replayOps(log, checksum, 1, true, 1).ok);
    EXPECT_FALSE(replayOps(log, checksum + 1, 1, true, 1).ok);
    EXPECT_FALSE(replayOps(log, checksum, 2, true, 1).ok);
    EXPECT_FALSE(replayOps(log, checksum, 1, false, 1).ok);
}

// ------------------------------------------------ end-to-end campaigns

TEST(FaultCampaign, DeterministicForAGivenSeed)
{
    ExperimentConfig cfg = stressCfg(TmScheme::Hastm, "heavy", 5);
    ExperimentResult a = runDataStructure(cfg);
    ExperimentResult b = runDataStructure(cfg);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.tm.commits, b.tm.commits);
    EXPECT_EQ(a.tm.aborts, b.tm.aborts);
    for (unsigned k = 0; k < kNumFaultKinds; ++k)
        EXPECT_EQ(a.tm.faultsInjected[k], b.tm.faultsInjected[k]);
}

TEST(FaultCampaign, EverySchemeSurvivesTheHeavyProfile)
{
    const TmScheme schemes[] = {TmScheme::Stm, TmScheme::Hastm,
                                TmScheme::HastmCautious,
                                TmScheme::HastmNaive, TmScheme::Hytm};
    for (TmScheme scheme : schemes) {
        ExperimentConfig cfg = stressCfg(scheme, "heavy", 3);
        ExperimentResult r = runDataStructure(cfg);
        EXPECT_TRUE(r.oracleChecked);
        EXPECT_TRUE(r.oracleOk)
            << tmSchemeName(scheme) << ": " << r.oracleDiag;
        std::uint64_t faults = 0;
        for (unsigned k = 0; k < kNumFaultKinds; ++k)
            faults += r.tm.faultsInjected[k];
        EXPECT_GT(faults, 0u) << tmSchemeName(scheme);
    }
}

TEST(FaultCampaign, WatchdogEscalatesSomewhereAndStaysCorrect)
{
    // The serial-irrevocable path must actually fire under pressure —
    // an escalation mechanism that never triggers proves nothing.
    std::uint64_t entries = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        for (TmScheme scheme : {TmScheme::Stm, TmScheme::Hytm}) {
            ExperimentConfig cfg = stressCfg(scheme, "heavy", seed);
            cfg.stm.watchdog.consecAborts = 2;
            cfg.stm.watchdog.retriesPerCommit = 4;
            ExperimentResult r = runDataStructure(cfg);
            ASSERT_TRUE(r.oracleOk)
                << tmSchemeName(scheme) << ": " << r.oracleDiag;
            entries += r.tm.irrevocableEntries;
        }
    }
    EXPECT_GT(entries, 0u);
}

TEST(FaultCampaign, AdaptiveReleasesTheGateOnEveryAbortPath)
{
    // Regression for the serial-gate leak family: a transaction that
    // aborts out of the adaptive serial rung (faults firing while the
    // token is held, or an escalation abandoned mid-dispatch) must
    // release the token — a leak deadlocks the next arrival, so mere
    // completion under a tight watchdog is the assertion.
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ExperimentConfig cfg = stressCfg(TmScheme::Adaptive, "heavy",
                                         seed);
        cfg.stm.watchdog.consecAborts = 2;
        cfg.stm.watchdog.retriesPerCommit = 4;
        ExperimentResult r = runDataStructure(cfg);
        EXPECT_TRUE(r.oracleChecked);
        EXPECT_TRUE(r.oracleOk) << "seed " << seed << ": "
                                << r.oracleDiag;
    }
}

TEST(FaultCampaign, OracleCatchesBrokenValidation)
{
    // Turn commit-time validation off (test-only hook): doomed STM
    // transactions commit stale state. The oracle must notice on at
    // least one seed, and name a reproducing seed when it does.
    bool caught = false;
    std::string diag;
    for (std::uint64_t seed = 1; seed <= 8 && !caught; ++seed) {
        ExperimentConfig cfg = stressCfg(TmScheme::Stm, "heavy", seed);
        cfg.stm.testSkipCommitValidation = true;
        ExperimentResult r = runDataStructure(cfg);
        if (!r.oracleOk) {
            caught = true;
            diag = r.oracleDiag;
        }
    }
    ASSERT_TRUE(caught)
        << "broken validation slipped past the oracle on all seeds";
    EXPECT_NE(diag.find("seed="), std::string::npos) << diag;
}

} // namespace
} // namespace hastm
