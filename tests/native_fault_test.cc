/**
 * @file
 * Native fault-injection tests.
 *
 * Three layers: the injector alone (profile parsing, the shared
 * --fault-profile helper, pending-arm and allow_abort gating,
 * windowed starvation, bit-identical replay from (profile, seed));
 * the injector wired into a NativeBackend (a forged extension failure
 * at an exact program point, per-kind TmStats counters, the stall
 * profile against the timed gate); and whole torture cells through
 * runNativeDataStructure (determinism, invariant sweep, nonzero
 * injected-fault counts). The NativeGate
 * timed-wait regression (satellite of PR 8) gets a death test: a
 * deliberately stalled arrival must fail fast with the holder /
 * inflight / waiter diagnostic instead of hanging the suite.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "backend/native_backend.hh"
#include "harness/native_experiment.hh"
#include "native/native_fault.hh"
#include "native/native_stm.hh"
#include "sim/fault.hh"

namespace hastm {
namespace {

std::uint64_t
totalInjected(const TmStats &tm)
{
    std::uint64_t n = 0;
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
        n += tm.nativeFaultsInjected[k];
    return n;
}

// --------------------------------------------------- profile parsing

TEST(NativeFaultProfiles, EveryNamedProfileParses)
{
    for (const std::string &name : nativeFaultProfileNames()) {
        NativeFaultParams p = nativeFaultProfile(name);
        EXPECT_EQ(p.profile, name);
        EXPECT_EQ(p.enabled, name != "off") << name;
        EXPECT_GT(p.meanPeriod, 0u) << name;
    }
    // The native vocabulary mirrors the sim's off/light/heavy core.
    const auto &names = nativeFaultProfileNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "off"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "light"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "heavy"),
              names.end());
    EXPECT_GE(names.size(), 5u);
}

TEST(NativeFaultProfiles, UnknownNameDiesWithDiagnostic)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH((void)nativeFaultProfile("bogus"),
                 "unknown native fault profile 'bogus'");
}

TEST(NativeFaultProfiles, SimSweepIncludesSpurious)
{
    // Satellite regression: the sim campaign's sweep list comes from
    // this function now, and it must include the once-omitted
    // spurious profile.
    const auto &names = simFaultProfileNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "spurious"),
              names.end());
    for (const std::string &n : names)
        EXPECT_EQ(faultProfile(n).profile, n);
}

// -------------------------------------- shared --fault-profile flag

TEST(FaultProfileArg, ReturnsValueAndEmptyWhenAbsent)
{
    const char *with[] = {"bench", "--fault-profile", "heavy", "--ci"};
    EXPECT_EQ(faultProfileArg(4, const_cast<char **>(with),
                              nativeFaultProfileNames()),
              "heavy");
    const char *without[] = {"bench", "--ci"};
    EXPECT_EQ(faultProfileArg(2, const_cast<char **>(without),
                              nativeFaultProfileNames()),
              "");
}

TEST(FaultProfileArg, UnknownSpellingIsFatalListingNames)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--fault-profile", "heav"};
    EXPECT_EXIT((void)faultProfileArg(3, const_cast<char **>(argv),
                                      nativeFaultProfileNames()),
                ::testing::ExitedWithCode(1),
                "unknown fault profile 'heav'");
}

TEST(FaultProfileArg, MissingValueIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const char *argv[] = {"bench", "--fault-profile"};
    EXPECT_EXIT((void)faultProfileArg(2, const_cast<char **>(argv),
                                      simFaultProfileNames()),
                ::testing::ExitedWithCode(1),
                "--fault-profile needs a profile name");
}

// ------------------------------------------- injector determinism

/** Drive an injector through a fixed rotating poll sequence. */
void
drivePolls(NativeFaultInjector &inj, unsigned tid, unsigned polls)
{
    for (unsigned i = 0; i < polls; ++i) {
        auto point = NativeFaultPoint(i % kNumNativeFaultPoints);
        // Periodically disallow aborts, as irrevocable phases would.
        bool allow_abort = (i / 7) % 5 != 0;
        inj.poll(tid, point, allow_abort);
    }
}

TEST(NativeFaultInjector, SamePollSequenceIsBitIdentical)
{
    NativeFaultParams p = nativeFaultProfile("heavy");
    p.seed = 99;
    NativeFaultInjector a(p, 2), b(p, 2);
    a.recordFired(true);
    b.recordFired(true);
    for (unsigned tid = 0; tid < 2; ++tid) {
        drivePolls(a, tid, 5000);
        drivePolls(b, tid, 5000);
    }
    for (unsigned tid = 0; tid < 2; ++tid) {
        EXPECT_EQ(a.sequenceHash(tid), b.sequenceHash(tid));
        EXPECT_EQ(a.firedLog(tid), b.firedLog(tid));
        EXPECT_FALSE(a.firedLog(tid).empty()) << "injector never fired";
        for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
            EXPECT_EQ(a.count(tid, NativeFaultKind(k)),
                      b.count(tid, NativeFaultKind(k)));
    }
    EXPECT_EQ(a.sequenceHashAll(), b.sequenceHashAll());
    EXPECT_EQ(a.totalAll(), b.totalAll());
    EXPECT_GT(a.totalAll(), 0u);
}

TEST(NativeFaultInjector, DifferentSeedDiverges)
{
    NativeFaultParams p = nativeFaultProfile("heavy");
    p.seed = 99;
    NativeFaultParams q = p;
    q.seed = 100;
    NativeFaultInjector a(p, 1), b(q, 1);
    drivePolls(a, 0, 5000);
    drivePolls(b, 0, 5000);
    EXPECT_NE(a.sequenceHash(0), b.sequenceHash(0));
}

TEST(NativeFaultInjector, ThreadsHaveIndependentStreams)
{
    NativeFaultParams p = nativeFaultProfile("heavy");
    p.seed = 7;
    NativeFaultInjector inj(p, 2);
    drivePolls(inj, 0, 5000);
    drivePolls(inj, 1, 5000);
    EXPECT_NE(inj.sequenceHash(0), inj.sequenceHash(1));
}

// -------------------------------------- pending-arm + abort gating

NativeFaultParams
singleKindParams(NativeFaultKind kind)
{
    NativeFaultParams p;
    p.enabled = true;
    p.profile = "test";
    p.seed = 5;
    p.meanPeriod = 1;  // arm a fault at (nearly) every poll
    p.weights = {};
    p.weights[std::size_t(kind)] = 1;
    return p;
}

TEST(NativeFaultInjector, IneligibleKindParksUntilEligiblePoint)
{
    // ExtensionFail may only fire at ExtendRevalidate: polls anywhere
    // else must inject nothing, and the armed fault must survive
    // until the first eligible hook.
    NativeFaultInjector inj(singleKindParams(
                                NativeFaultKind::ExtensionFail),
                            1);
    for (unsigned i = 0; i < 200; ++i) {
        auto r = inj.poll(0, NativeFaultPoint::Backoff, true);
        EXPECT_FALSE(r.fired);
    }
    EXPECT_EQ(inj.totalAll(), 0u);
    auto r = inj.poll(0, NativeFaultPoint::ExtendRevalidate, true);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.kind, NativeFaultKind::ExtensionFail);
    EXPECT_EQ(inj.count(0, NativeFaultKind::ExtensionFail), 1u);
}

TEST(NativeFaultInjector, AbortKindsWaitOutIrrevocableMode)
{
    NativeFaultInjector inj(singleKindParams(NativeFaultKind::CmKill),
                            1);
    // Eligible point, but aborts disallowed (irrevocable): parked.
    for (unsigned i = 0; i < 200; ++i) {
        auto r = inj.poll(0, NativeFaultPoint::Tl2ReadGap, false);
        EXPECT_FALSE(r.fired);
    }
    EXPECT_EQ(inj.totalAll(), 0u);
    auto r = inj.poll(0, NativeFaultPoint::Tl2ReadGap, true);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.kind, NativeFaultKind::CmKill);
}

TEST(NativeFaultInjector, GateStallConfinedToGatePoints)
{
    NativeFaultInjector inj(singleKindParams(NativeFaultKind::GateStall),
                            1);
    inj.params();  // touch accessor
    for (unsigned i = 0; i < 100; ++i) {
        auto r = inj.poll(0, NativeFaultPoint::PostAcquire, true);
        EXPECT_FALSE(r.fired);
    }
    auto r = inj.poll(0, NativeFaultPoint::GateArrive, true);
    EXPECT_TRUE(r.fired);
    EXPECT_EQ(r.kind, NativeFaultKind::GateStall);
}

TEST(NativeFaultInjector, WindowedStarvationPicksOneVictimPerWindow)
{
    NativeFaultParams p;
    p.enabled = true;
    p.profile = "test";
    p.seed = 11;
    p.meanPeriod = 1 << 30;  // no scheduled faults, starvation only
    p.weights = {};
    p.starveWindow = 16;
    p.starveYields = 1;
    NativeFaultInjector a(p, 2), b(p, 2);
    std::vector<bool> starvedA, starvedB;
    for (unsigned i = 0; i < 256; ++i) {
        starvedA.push_back(a.poll(0, NativeFaultPoint::Backoff,
                                  true).starved);
        starvedB.push_back(b.poll(0, NativeFaultPoint::Backoff,
                                  true).starved);
    }
    EXPECT_EQ(starvedA, starvedB);  // deterministic victim schedule
    // Thread 0 is the victim in half the windows: starved sometimes,
    // never always.
    std::size_t n = 0;
    for (bool s : starvedA)
        n += s;
    EXPECT_GT(n, 0u);
    EXPECT_LT(n, starvedA.size());
    EXPECT_EQ(a.count(0, NativeFaultKind::Starve), n);
}

// ------------------------------------------ timed gate regression

TEST(NativeGateStall, TimedWaitFailsFastWithDiagnostic)
{
    // An injected stall the gate cannot recover from: the token is
    // held and never released, so the arriving thread's timed wait
    // must expire and panic with the accounting diagnostic instead of
    // parking forever (the pre-PR-8 behaviour).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            NativeGate g;
            g.setStallLimitMs(50);
            NativeGate::Slot &slot = g.registerSlot();
            int holder = 0;
            int other = 0;
            g.enter(&holder);
            g.arrive(&other, slot);
        },
        "NativeGate: stalled > 50 ms waiting on arrive: token release");
}

// ------------------------------------- injector wired into backend

TEST(NativeFaultBackend, ForcedExtensionFailureAbortsAndRetries)
{
    // The deterministic inline-rival setup from native_test.cc, but
    // the extension *would* succeed — only the injector's forged
    // ExtensionFail (armed at every poll, eligible only at the
    // extension hook) makes it fail. Opacity demands the first
    // attempt aborts; the retry (fresh snapshot, no extension) reads
    // the rival's value.
    NativeSessionConfig cfg;
    cfg.numThreads = 2;
    cfg.heapBytes = 16ull << 20;
    cfg.fault = singleKindParams(NativeFaultKind::ExtensionFail);
    NativeBackend b(cfg);
    b.run({[&](TmExec &t) {
        Addr x = t.txAlloc(256);
        Addr y = t.txAlloc(256);
        t.atomic([&] {
            t.writeField(x, 0, 1);
            t.writeField(y, 0, 2);
        });
        NativeThread &rival = b.session().thread(1);
        std::uint64_t got = 0;
        bool sabotaged = false;
        t.atomic([&] {
            EXPECT_EQ(t.readField(x, 0), 1u);
            // Commit the rival once only: the retry's fresh snapshot
            // needs no extension, so the forged failure cannot recur
            // (re-running the rival would re-trigger it forever).
            if (!sabotaged) {
                sabotaged = true;
                rival.atomic([&] { rival.writeField(y, 0, 99); });
            }
            got = t.readField(y, 0);
        });
        EXPECT_EQ(got, 99u);
        EXPECT_GE(t.stats().extensionFailures, 1u);
        EXPECT_GE(t.stats().aborts, 1u);
        EXPECT_GE(t.stats().nativeFaultsInjected[std::size_t(
                      NativeFaultKind::ExtensionFail)],
                  1u);
    }});
}

TEST(NativeFaultBackend, InjectedKillsAreCountedPerKind)
{
    NativeSessionConfig cfg;
    cfg.numThreads = 1;
    cfg.heapBytes = 16ull << 20;
    cfg.fault = singleKindParams(NativeFaultKind::CmKill);
    NativeBackend b(cfg);
    b.run({[&](TmExec &t) {
        Addr a = t.txAlloc(64);
        for (unsigned i = 0; i < 64; ++i)
            t.atomic([&] { t.writeField(a, 0, i); });
        EXPECT_GE(t.stats().nativeFaultsInjected[std::size_t(
                      NativeFaultKind::CmKill)],
                  1u);
        EXPECT_GE(t.stats().aborts, 1u);
        // Injected kills abort but must not wedge: every transaction
        // eventually committed (possibly escalated by the watchdog).
        std::uint64_t final_val = 0;
        t.atomic([&] { final_val = t.readField(a, 0); });
        EXPECT_EQ(final_val, 63u);
    }});
    for (unsigned i = 0; i < b.session().numThreads(); ++i)
        EXPECT_EQ(b.session().thread(i).invariantReport(), "")
            << "thread " << i;
    EXPECT_TRUE(b.session().runtime().gate().quiescent());
}

// ---------------------------------------------- whole torture cells

NativeExperimentConfig
cellCfg(const std::string &profile, std::uint64_t seed, unsigned threads)
{
    NativeExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.threads = threads;
    cfg.totalOps = 512;
    cfg.updatePct = 40;
    cfg.initialSize = 128;
    cfg.keyRange = 256;
    cfg.hashBuckets = 64;
    cfg.heapBytes = 32ull << 20;
    cfg.stm.watchdogConsecAborts = 8;
    cfg.stm.watchdogRetriesPerCommit = 32;
    cfg.recordOps = true;
    cfg.fault = nativeFaultProfile(profile);
    cfg.fault.seed = seed;
    return cfg;
}

TEST(NativeTortureCell, RepeatedCellIsBitIdentical)
{
    NativeExperimentConfig cfg = cellCfg("heavy", 21, 1);
    NativeExperimentResult a = runNativeDataStructure(cfg);
    NativeExperimentResult b = runNativeDataStructure(cfg);
    EXPECT_GT(a.faultSequenceHash, 0u);
    EXPECT_EQ(a.faultSequenceHash, b.faultSequenceHash);
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.finalSize, b.finalSize);
    EXPECT_EQ(a.tm.commits, b.tm.commits);
    EXPECT_EQ(a.tm.aborts, b.tm.aborts);
    EXPECT_EQ(totalInjected(a.tm), totalInjected(b.tm));
    EXPECT_GT(totalInjected(a.tm), 0u);
    EXPECT_TRUE(a.oracleOk) << a.oracleDiag;
    EXPECT_TRUE(a.nativeInvariantsOk) << a.nativeInvariantDiag;
}

TEST(NativeTortureCell, ReseededCellDiverges)
{
    NativeExperimentConfig cfg = cellCfg("heavy", 21, 1);
    NativeExperimentResult a = runNativeDataStructure(cfg);
    cfg.fault.seed += 1;
    NativeExperimentResult c = runNativeDataStructure(cfg);
    EXPECT_NE(a.faultSequenceHash, c.faultSequenceHash);
}

TEST(NativeTortureCell, MultiThreadedHeavyCellSurvivesChecks)
{
    NativeExperimentConfig cfg = cellCfg("heavy", 3, 4);
    NativeExperimentResult r;
    CrossCheckOutcome cc = crossValidateNative(cfg, &r);
    EXPECT_TRUE(cc.ok) << cc.diag;
    EXPECT_GT(totalInjected(r.tm), 0u);
    EXPECT_TRUE(r.nativeInvariantsOk) << r.nativeInvariantDiag;
}

TEST(NativeTortureCell, StallProfileCompletesUnderTimedGate)
{
    // Gate-transition sleeps well under the (generous) stall limit:
    // the timed wait must tolerate them, and the GateStall counter
    // proves they ran.
    NativeExperimentConfig cfg = cellCfg("stall", 9, 2);
    NativeExperimentResult r = runNativeDataStructure(cfg);
    EXPECT_TRUE(r.oracleOk) << r.oracleDiag;
    EXPECT_TRUE(r.nativeInvariantsOk) << r.nativeInvariantDiag;
    EXPECT_GE(r.tm.nativeFaultsInjected[std::size_t(
                  NativeFaultKind::GateStall)],
              1u);
}

} // anonymous namespace
} // namespace hastm
