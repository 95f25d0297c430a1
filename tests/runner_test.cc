/**
 * @file
 * Tests for the parallel experiment runner and the coherence fast
 * paths it relies on:
 *
 *  - determinism: the same configuration run twice sequentially and
 *    once under the thread pool yields identical simulated results
 *    (only hostNanos may differ);
 *  - snoop equivalence: the L2 sharer-directory fast path produces
 *    exactly the same coherence counters, latencies, and mark/spec
 *    bookkeeping as the reference probe-every-core scan.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/report.hh"
#include "harness/runner.hh"
#include "mem/arena.hh"
#include "mem/mem_system.hh"

namespace hastm {
namespace {

/** Everything deterministic about a result, as one comparable blob. */
std::string
fingerprint(ExperimentResult r)
{
    r.hostNanos = 0;
    std::ostringstream os;
    toJson(r).dump(os, 0);
    return os.str();
}

ExperimentConfig
smallCfg(TmScheme scheme, unsigned threads)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Bst;
    cfg.scheme = scheme;
    cfg.threads = threads;
    cfg.totalOps = 256;
    cfg.initialSize = 128;
    cfg.keyRange = 512;
    cfg.machine.arenaBytes = 8ull * 1024 * 1024;
    return cfg;
}

// ------------------------------------------------------------- runner

TEST(Runner, ResolveJobsParsing)
{
    const char *argv1[] = {"bench", "--jobs", "3"};
    EXPECT_EQ(ExperimentRunner::resolveJobs(3, const_cast<char **>(argv1)),
              3u);

    const char *argv2[] = {"bench", "--json", "/tmp/x.json"};
    EXPECT_EQ(ExperimentRunner::resolveJobs(3, const_cast<char **>(argv2)),
              1u);
}

TEST(Runner, SequentialJobsPolicy)
{
    std::string msg;

    // No flag: fine and silent.
    const char *plain[] = {"bench"};
    EXPECT_TRUE(ExperimentRunner::sequentialJobsOk(
        1, const_cast<char **>(plain), &msg));
    EXPECT_TRUE(msg.empty());

    // Explicit --jobs 1 is the sequential default spelled out.
    const char *one[] = {"bench", "--jobs", "1"};
    EXPECT_TRUE(ExperimentRunner::sequentialJobsOk(
        3, const_cast<char **>(one), &msg));
    EXPECT_TRUE(msg.empty());

    // Explicit parallelism is an error, with the reason in the text.
    const char *four[] = {"bench", "--jobs", "4"};
    EXPECT_FALSE(ExperimentRunner::sequentialJobsOk(
        3, const_cast<char **>(four), &msg));
    EXPECT_NE(msg.find("sequential"), std::string::npos);

    // Unparsable and missing counts are errors too.
    const char *bad[] = {"bench", "--jobs", "zebra"};
    EXPECT_FALSE(ExperimentRunner::sequentialJobsOk(
        3, const_cast<char **>(bad), &msg));
    EXPECT_FALSE(msg.empty());
    const char *missing[] = {"bench", "--jobs"};
    EXPECT_FALSE(ExperimentRunner::sequentialJobsOk(
        2, const_cast<char **>(missing), &msg));
    EXPECT_FALSE(msg.empty());
}

TEST(Runner, ParallelMatchesSequential)
{
    std::vector<ExperimentConfig> cfgs = {
        smallCfg(TmScheme::Stm, 1),  smallCfg(TmScheme::Stm, 4),
        smallCfg(TmScheme::Hastm, 2), smallCfg(TmScheme::Hytm, 2),
        smallCfg(TmScheme::Lock, 4),
    };

    // Sequential reference, run twice: the simulator itself must be
    // deterministic before the parallel comparison means anything.
    std::vector<std::string> ref;
    for (const ExperimentConfig &cfg : cfgs) {
        std::string a = fingerprint(runDataStructure(cfg));
        std::string b = fingerprint(runDataStructure(cfg));
        ASSERT_EQ(a, b) << "sequential rerun diverged";
        ref.push_back(a);
    }

    ExperimentRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4u);
    std::vector<ExperimentRunner::Handle> handles;
    for (const ExperimentConfig &cfg : cfgs)
        handles.push_back(runner.add(cfg));
    EXPECT_EQ(runner.pending(), cfgs.size());
    runner.runAll();
    EXPECT_EQ(runner.pending(), 0u);

    for (std::size_t i = 0; i < cfgs.size(); ++i)
        EXPECT_EQ(fingerprint(runner.result(handles[i])), ref[i])
            << "experiment " << i << " diverged under the parallel runner";
}

TEST(Runner, MicroAndGenericTasksAcrossBatches)
{
    MicroConfig micro;
    micro.scheme = TmScheme::Hastm;
    micro.threads = 2;
    micro.transactions = 32;
    micro.workingLines = 256;
    micro.machine.arenaBytes = 8ull * 1024 * 1024;
    std::string ref = fingerprint(runMicro(micro));

    ExperimentRunner runner(2);
    auto h1 = runner.add(micro);
    auto h2 = runner.add([] {
        ExperimentResult r;
        r.checksum = 0x1234;
        return r;
    });
    runner.runAll();
    EXPECT_EQ(fingerprint(runner.result(h1)), ref);
    EXPECT_EQ(runner.result(h2).checksum, 0x1234u);

    // Handles from the first batch stay valid after a second runAll.
    auto h3 = runner.add(micro);
    runner.runAll();
    EXPECT_EQ(fingerprint(runner.result(h3)), ref);
    EXPECT_EQ(fingerprint(runner.result(h1)), ref);
}

// ------------------------------------------------- sharer directory

/**
 * Hammer a hierarchy with false sharing, migratory lines, marks, and
 * speculative tags from every core, and return every observable the
 * model produces. The pseudo-random stream is fixed, so the blob is
 * comparable across directory settings.
 */
std::string
driveFalseSharing(bool directory)
{
    MemParams p;
    p.numCores = 8;
    p.numSmt = 2;
    p.l1 = CacheParams{4 * 1024, 2, 64, 16};
    p.l2 = CacheParams{8 * 1024, 4, 64, 16};
    p.prefetchNextLine = true;
    p.prefetchDegree = 2;
    p.sharerDirectory = directory;
    MemArena arena(1 << 20);
    MemSystem mem(arena, p);

    std::uint32_t x = 12345;
    auto next = [&x] {
        x = x * 1103515245u + 12345u;
        return x >> 8;
    };
    std::uint64_t latency = 0;
    unsigned mark_hits = 0;
    for (int i = 0; i < 20000; ++i) {
        CoreId c = next() % 8;
        SmtId t = next() % 2;
        Addr a = 64 * (next() % 256) + 8 * (next() % 8);
        bool wr = next() % 4 == 0;
        latency += mem.access(c, t, a, 8, wr).latency;
        if (next() % 3 == 0)
            mem.setMarks(c, t, a, 8);
        if (next() % 7 == 0 && mem.testMarks(c, t, a, 8))
            ++mark_hits;
        if (next() % 64 == 0)
            mem.resetMarkAll(c, t);
        if (next() % 16 == 0)
            mem.setSpec(c, a, 8, wr);
        if (next() % 32 == 0)
            mem.clearSpecAll(c);
    }
    std::ostringstream os;
    mem.stats().dump(os);
    os << "latency " << latency << "\nmark_hits " << mark_hits << "\n";
    for (CoreId c = 0; c < 8; ++c)
        os << "l1_valid." << unsigned(c) << " "
           << mem.l1(c).validLines() << "\n";
    os << "l2_valid " << mem.l2().validLines() << "\n";
    return os.str();
}

TEST(SharerDirectory, SnoopEquivalentToReferenceScan)
{
    std::string fast = driveFalseSharing(true);
    std::string reference = driveFalseSharing(false);
    EXPECT_EQ(fast, reference);
}

TEST(SharerDirectory, ExperimentEquivalentToReferenceScan)
{
    // End-to-end: a contended multi-core HASTM experiment (prefetcher
    // on, small caches) must be bit-identical with the directory off.
    ExperimentConfig cfg = smallCfg(TmScheme::Hastm, 4);
    cfg.machine.mem.l1 = CacheParams{4 * 1024, 2, 64, 16};
    cfg.machine.mem.l2 = CacheParams{16 * 1024, 4, 64, 16};
    cfg.machine.mem.prefetchDegree = 2;
    cfg.machine.mem.sharerDirectory = true;
    std::string fast = fingerprint(runDataStructure(cfg));
    cfg.machine.mem.sharerDirectory = false;
    std::string reference = fingerprint(runDataStructure(cfg));
    EXPECT_EQ(fast, reference);
}

} // namespace
} // namespace hastm
