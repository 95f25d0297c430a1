/**
 * @file
 * Sharded transaction-record table tests: geometry derivation,
 * datum->record mapping invariants across every geometry, per-region
 * shard isolation, the false-conflict classifier's true-vs-aliased
 * verdicts, and determinism of the fig_shard configurations under
 * the parallel runner.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "mem/arena.hh"
#include "stm/conflict_class.hh"
#include "workloads/tm_api.hh"

namespace hastm {
namespace {

MachineParams
smallMachine(unsigned cores = 2)
{
    MachineParams mp;
    mp.mem.numCores = cores;
    mp.arenaBytes = 8 * 1024 * 1024;
    return mp;
}

struct Env
{
    explicit Env(TmScheme scheme, unsigned threads, StmConfig stm)
    {
        MachineParams mp = smallMachine(threads);
        machine = std::make_unique<Machine>(mp);
        SessionConfig sc;
        sc.scheme = scheme;
        sc.numThreads = threads;
        sc.stm = stm;
        session = std::make_unique<TmSession>(*machine, sc);
    }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<TmSession> session;
};

// --------------------------------------------------- geometry maths

TEST(RecGeometry, DerivesFromOneLog2Constant)
{
    EXPECT_EQ(txrec::maskFor(txrec::kDefaultLog2Records), 0x3ffc0u);
    EXPECT_EQ(txrec::bytesFor(txrec::kDefaultLog2Records),
              256u * 1024u);
    EXPECT_EQ(txrec::kTableMask,
              txrec::maskFor(txrec::kDefaultLog2Records));
    EXPECT_EQ(txrec::kTableBytes,
              txrec::bytesFor(txrec::kDefaultLog2Records));
    // One line-aligned record per line of span, at every geometry.
    for (unsigned l = txrec::kMinLog2Records;
         l <= txrec::kMaxLog2Records; ++l) {
        EXPECT_EQ(txrec::bytesFor(l),
                  txrec::maskFor(l) + (std::size_t(1) << txrec::kLineLog2));
        EXPECT_EQ(txrec::maskFor(l) & 63u, 0u);
    }
}

TEST(RecGeometry, Log2ForRecordsRoundTrips)
{
    EXPECT_EQ(txrec::log2ForRecords(16), 4u);
    EXPECT_EQ(txrec::log2ForRecords(4096), 12u);
    EXPECT_EQ(txrec::log2ForRecords(std::size_t(1) << 20), 20u);
}

TEST(RecGeometryDeathTest, RejectsNonPowerOfTwoRecordCounts)
{
    EXPECT_DEATH(txrec::log2ForRecords(3000), "power of two");
}

TEST(RecGeometryDeathTest, RejectsOutOfRangeShardLog2)
{
    Machine machine(smallMachine());
    TxRecGeometry geo;
    geo.log2Records = txrec::kMaxLog2Records + 1;
    EXPECT_DEATH(
        TxRecordTable(machine.arena(), machine.heap(), geo),
        "recShardLog2Records");
}

TEST(RecGeometryDeathTest, RejectsBadConfigAtSessionBuild)
{
    // The same validation guards the user-facing config path.
    Machine machine(smallMachine());
    SessionConfig sc;
    sc.scheme = TmScheme::Stm;
    sc.numThreads = 1;
    sc.stm.recShardLog2Records = 3;  // below kMinLog2Records
    EXPECT_DEATH(TmSession(machine, sc), "recShardLog2Records");
}

// ------------------------------------------------- mapping invariants

TEST(RecMapping, DefaultGeometryIsThePaperTable)
{
    Machine machine(smallMachine());
    TxRecordTable table(machine.arena(), machine.heap());
    EXPECT_EQ(table.numShards(), 1u);
    EXPECT_EQ(table.mask(), 0x3ffc0u);
    for (Addr a : {Addr(0x40), Addr(0x12345678), Addr(0x3ffc0),
                   Addr(0x7fffff8)}) {
        EXPECT_EQ(table.recordFor(a), table.base() + (a & 0x3ffc0u));
    }
    // Two addresses one table-span apart alias onto the same record:
    // the false-conflict source the sharded table exists to remove.
    EXPECT_EQ(table.recordFor(0x40), table.recordFor(0x40 + txrec::kTableBytes));
}

TEST(RecMapping, RecordsAreLineAlignedInEveryGeometry)
{
    Machine machine(smallMachine());
    const TxRecGeometry geos[] = {
        {},                     // paper
        {12, true, false},      // hash mix
        {8, false, false},      // small table
        {8, true, true},        // small mixed per-arena shards
    };
    for (const TxRecGeometry &geo : geos) {
        TxRecordTable table(machine.arena(), machine.heap(), geo);
        for (Addr a = 0x40; a < 0x40000; a += 0x1238) {
            Addr rec = table.recordFor(a);
            EXPECT_EQ(rec & 63u, 0u);
            EXPECT_LT(rec - table.base(), table.shardBytes());
            Addr wrec = table.recordForWord(a);
            EXPECT_EQ(wrec & 63u, 0u);
            EXPECT_LT(wrec - table.base(), table.shardBytes());
        }
    }
}

TEST(RecMapping, HashMixKeepsOneRecordPerLine)
{
    // The mix is keyed on the line index alone: every word of a line
    // maps to that line's record (HASTM's per-line mark filtering
    // depends on this), while the word hash deliberately splits them.
    Machine machine(smallMachine());
    TxRecordTable table(machine.arena(), machine.heap(),
                        {12, true, false});
    Addr line = 0x5300;
    Addr rec = table.recordFor(line);
    bool word_split = false;
    for (unsigned off = 0; off < 64; off += 8) {
        EXPECT_EQ(table.recordFor(line + off), rec);
        if (table.recordForWord(line + off) !=
            table.recordForWord(line)) {
            word_split = true;
        }
    }
    EXPECT_TRUE(word_split);
}

TEST(RecMapping, WordGranularitySplitsLinesLikeTheSeed)
{
    Machine machine(smallMachine());
    TxRecordTable table(machine.arena(), machine.heap());
    for (Addr a : {Addr(0x1000), Addr(0x77f8), Addr(0x123450)}) {
        Addr expect = table.base() +
                      (((a >> 3) * txrec::kHashMult >> 20
                        << txrec::kLineLog2) &
                       table.mask());
        EXPECT_EQ(table.recordForWord(a), expect);
    }
}

// ------------------------------------------------------ shard shards

TEST(RecShards, RegionsGetIsolatedShards)
{
    Machine machine(smallMachine());
    SimAllocator &heap = machine.heap();
    // One region defined before the table exists, one after: the
    // first is adopted at construction, the second arrives through
    // the arena's region listener.
    Addr r1 = heap.allocZeroed(64 * 1024, 64);
    machine.arena().defineRegion(r1, 64 * 1024);

    TxRecordTable table(machine.arena(), machine.heap(),
                        {8, false, true});
    EXPECT_EQ(table.numShards(), 2u);

    Addr r2 = heap.allocZeroed(64 * 1024, 64);
    machine.arena().defineRegion(r2, 64 * 1024);
    EXPECT_EQ(table.numShards(), 3u);

    // Every address of a region resolves to that region's shard, and
    // the record lands inside the shard's span.
    auto shard_of = [&](Addr a) {
        Addr rec = table.recordFor(a);
        for (unsigned s = 0; s < table.numShards(); ++s) {
            if (rec >= table.shardBase(s) &&
                rec < table.shardBase(s) + table.shardBytes()) {
                return int(s);
            }
        }
        return -1;
    };
    int s1 = shard_of(r1);
    int s2 = shard_of(r2);
    EXPECT_GT(s1, 0);
    EXPECT_GT(s2, 0);
    EXPECT_NE(s1, s2);
    for (Addr off = 0; off < 64 * 1024; off += 0x808) {
        EXPECT_EQ(shard_of(r1 + off), s1);
        EXPECT_EQ(shard_of(r2 + off), s2);
    }
    // Outside every region: the global shard 0, exactly the paper map.
    Addr outside = heap.allocZeroed(4096, 64);
    EXPECT_EQ(shard_of(outside), 0);
    EXPECT_EQ(table.recordFor(outside),
              table.base() + (outside & table.mask()));

    // Identical addresses, different regions, same offset pattern:
    // never the same record (the isolation the bench measures).
    for (Addr off = 0; off < 64 * 1024; off += 0x1040) {
        EXPECT_NE(table.recordFor(r1 + off), table.recordFor(r2 + off));
    }
    machine.arena().undefineRegion(r1);
    machine.arena().undefineRegion(r2);
}

TEST(RecShards, PerArenaWithoutRegionsMatchesDefault)
{
    Machine machine(smallMachine());
    TxRecordTable paper(machine.arena(), machine.heap());
    TxRecordTable sharded(machine.arena(), machine.heap(),
                          {12, false, true});
    EXPECT_EQ(sharded.numShards(), 1u);
    for (Addr a = 0x40; a < 0x20000; a += 0x999) {
        EXPECT_EQ(paper.recordFor(a) - paper.base(),
                  sharded.recordFor(a) - sharded.base());
        EXPECT_EQ(paper.recordForWord(a) - paper.base(),
                  sharded.recordForWord(a) - sharded.base());
    }
}

// --------------------------------------------- conflict classification

/**
 * Two threads collide on one record. With kTableBytes between their
 * lines the conflict is pure table aliasing; on the same line it is
 * true sharing. The owner (thread 0) holds the record across a stall
 * so the requester (thread 1) reliably sees the conflict and
 * classifies it against the live owner's footprint.
 */
struct PairStats
{
    std::uint64_t aliased = 0;
    std::uint64_t tru = 0;
    std::uint64_t aborts = 0;
};

PairStats
runConflictPair(Addr delta, bool per_arena_regions = false)
{
    StmConfig stm;
    stm.recShardPerArena = per_arena_regions;
    Env env(TmScheme::Stm, 2, stm);
    Addr blk = env.machine->heap().allocZeroed(
        txrec::kTableBytes + 4096, 64);
    Addr a1 = blk;
    Addr a2 = blk + delta;
    if (per_arena_regions) {
        env.machine->arena().defineRegion(a1, 64);
        env.machine->arena().defineRegion(a2, 64);
    }
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] {
                t.writeWord(a1, 1);
                // Hold ownership past the requester's whole Polite
                // backoff budget (~20k cycles) so it must self-abort.
                core.stall(60000);
            });
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(1000);
            t.atomic([&] { t.writeWord(a2, 2); });
        },
    });
    TmStats total;
    total.merge(env.session->thread(0).stats());
    total.merge(env.session->thread(1).stats());
    return {total.conflictsAliased, total.conflictsTrue, total.aborts};
}

TEST(ConflictClass, DisjointLinesOnOneRecordClassifyAsAliased)
{
    PairStats s = runConflictPair(txrec::kTableBytes);
    EXPECT_GE(s.aliased, 1u);
    EXPECT_EQ(s.tru, 0u);
}

TEST(ConflictClass, SameLineClassifiesAsTrueSharing)
{
    PairStats s = runConflictPair(0);
    EXPECT_GE(s.tru, 1u);
    EXPECT_EQ(s.aliased, 0u);
}

TEST(ConflictClass, VerdictSeesOnlyTheOwnersEarlierWrites)
{
    // The owner writes a1, computes for 100k cycles, then writes a2,
    // the requester's line under the same record. The requester's
    // aborts before cycle 100k must see only a1: aliased. The owner
    // reaches its second write first on the host (a charge does not
    // switch cores), so noting it without a sync would make them true.
    Env env(TmScheme::Stm, 2, StmConfig{});
    Addr blk = env.machine->heap().allocZeroed(
        txrec::kTableBytes + 4096, 64);
    Addr a1 = blk;
    Addr a2 = blk + txrec::kTableBytes;
    env.machine->run({
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            t.atomic([&] {
                t.writeWord(a1, 1);
                t.simInstr(100000);
                t.writeWord(a2, 1);
                core.stall(60000);
            });
        },
        [&](Core &core) {
            TmThread &t = env.session->threadFor(core);
            core.stall(1000);
            t.atomic([&] { t.writeWord(a2, 2); });
        },
    });
    const TmStats &s = env.session->thread(1).stats();
    EXPECT_GE(s.conflictsAliased, 1u);
}

TEST(ConflictClass, PerArenaShardsRemoveTheAliasedConflicts)
{
    // Same collision pattern as the aliased case, but each thread's
    // line sits in its own arena region and the geometry shards per
    // region: the records differ, so nothing conflicts at all.
    PairStats s = runConflictPair(txrec::kTableBytes, true);
    EXPECT_EQ(s.aborts, 0u);
    EXPECT_EQ(s.aliased, 0u);
    EXPECT_EQ(s.tru, 0u);
}

// ------------------------------------------------ footprint semantics

std::vector<Addr>
sorted(std::vector<Addr> v)
{
    std::sort(v.begin(), v.end());
    return v;
}

/** TxFootprint::writeLines into a fresh list. */
std::vector<Addr>
writeLines(const TxFootprint &fp, Addr rec)
{
    std::vector<Addr> lines{999};  // stale content must be replaced
    fp.writeLines(rec, lines);
    return lines;
}

/** A grouped footprint that wrote @p lines under @p rec. */
TxFootprint
wrote(Addr rec, std::initializer_list<Addr> lines)
{
    TxFootprint fp;
    for (Addr l : lines)
        fp.noteWrite(rec, l * 64);
    fp.groupWrites();
    return fp;
}

/**
 * Under record 0x1000: line 40 read three times and written twice,
 * line 41 only read, line 42 written twice. Under record 0x2000: line
 * 43 read, line 44 written. Line numbers are addresses >> 6.
 */
TxFootprint
sampleFootprint()
{
    TxFootprint fp;
    for (Addr off : {0, 8, 56})
        fp.noteRead(0x1000, 40 * 64 + off);
    fp.noteWrite(0x1000, 40 * 64 + 16);
    fp.noteWrite(0x1000, 40 * 64 + 24);
    fp.noteRead(0x1000, 41 * 64);
    fp.noteWrite(0x1000, 42 * 64);
    fp.noteWrite(0x1000, 42 * 64 + 8);
    fp.noteRead(0x2000, 43 * 64);
    fp.noteWrite(0x2000, 44 * 64);
    return fp;
}

TEST(TxFootprint, LinesDedupPerRecordAndWriteLinesSkipReadOnlyLines)
{
    TxFootprint fp = sampleFootprint();
    EXPECT_EQ(sorted(fp.linesUnder(0x1000)),
              (std::vector<Addr>{40, 41, 42}));
    EXPECT_EQ(sorted(writeLines(fp, 0x1000)), (std::vector<Addr>{40, 42}));
    EXPECT_EQ(fp.linesUnder(0x2000), (std::vector<Addr>{43, 44}));
    EXPECT_EQ(writeLines(fp, 0x2000), (std::vector<Addr>{44}));
    EXPECT_TRUE(fp.linesUnder(0x3000).empty());
    EXPECT_TRUE(writeLines(fp, 0x3000).empty());

    // Grouping the writes for a release changes no answer, and writes
    // noted after it still count.
    fp.groupWrites();
    EXPECT_EQ(sorted(writeLines(fp, 0x1000)), (std::vector<Addr>{40, 42}));
    fp.noteWrite(0x1000, 41 * 64 + 8);
    fp.noteWrite(0x1000, 40 * 64);
    EXPECT_EQ(sorted(writeLines(fp, 0x1000)),
              (std::vector<Addr>{40, 41, 42}));
    EXPECT_EQ(writeLines(fp, 0x2000), (std::vector<Addr>{44}));

    fp.reset();
    EXPECT_TRUE(fp.linesUnder(0x1000).empty());
    EXPECT_TRUE(writeLines(fp, 0x1000).empty());
}

TEST(TxFootprint, VerdictCountsEachLineUnderTheRecordOnce)
{
    MemArena arena(1 << 16);
    const Addr rec = 0x1000, self = 0x100, peer = 0x200;
    arena.write<std::uint64_t>(rec, 1);  // a version: no live owner
    TxFootprint mine = sampleFootprint();
    ConflictClassifier cc;

    ConflictClassifier::Verdict v = cc.classify(mine, self, rec, arena);
    EXPECT_EQ(v.cls, ConflictClass::Unknown);
    EXPECT_EQ(v.myLines, 3u);

    // The peer wrote a line this attempt only read: a true conflict.
    cc.publishRelease(peer, rec, wrote(rec, {41}));
    v = cc.classify(mine, self, rec, arena);
    EXPECT_EQ(v.cls, ConflictClass::True);
    EXPECT_EQ(v.myLines, 3u);

    // Line 44 was touched here, but under another record.
    cc.publishRelease(peer, rec, wrote(rec, {44}));
    v = cc.classify(mine, self, rec, arena);
    EXPECT_EQ(v.cls, ConflictClass::Aliased);
    EXPECT_EQ(v.myLines, 3u);

    // A live owner's write lines win over the last release; its reads
    // do not count.
    TxFootprint theirs;
    theirs.noteRead(rec, 42 * 64);
    theirs.noteWrite(rec, 45 * 64);
    cc.registerOwner(0x300, &theirs);
    arena.write<std::uint64_t>(rec, 0x300);
    v = cc.classify(mine, self, rec, arena);
    EXPECT_EQ(v.cls, ConflictClass::Aliased);
    theirs.noteWrite(rec, 42 * 64 + 8);
    v = cc.classify(mine, self, rec, arena);
    EXPECT_EQ(v.cls, ConflictClass::True);
    EXPECT_EQ(v.myLines, 3u);
}

/**
 * Host seconds to note @p writes writes, each under its own record,
 * and publish every record the way a commit does. Best of five.
 */
double
publishSeconds(unsigned writes)
{
    ConflictClassifier cc;
    TxFootprint fp;
    double best = 1e9;
    for (int rep = 0; rep < 6; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        fp.reset();
        for (unsigned i = 0; i < writes; ++i) {
            fp.noteRead(0x10000 + 64 * Addr(i), 64 * Addr(i));
            fp.noteWrite(0x10000 + 64 * Addr(i), 64 * Addr(i));
        }
        fp.groupWrites();
        for (unsigned i = 0; i < writes; ++i)
            cc.publishRelease(1, 0x10000 + 64 * Addr(i), fp);
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (rep > 0)  // the first round also grows the classifier's map
            best = std::min(best, dt.count());
    }
    EXPECT_EQ(writeLines(fp, 0x10000 + 64 * 7), (std::vector<Addr>{7}));
    return best;
}

TEST(TxFootprint, LargeWriteSetPublishesWithoutQuadraticBlowUp)
{
    // 8x the writes may cost ~8x (times a log factor); one probe of
    // the whole write log per record would cost ~64x.
    double small = publishSeconds(512);
    double large = publishSeconds(4096);
    std::printf("publish 512 writes: %.1f us, 4096 writes: %.1f us\n",
                small * 1e6, large * 1e6);
    EXPECT_LT(large, 24 * small);
}

// ------------------------------------------------ runner determinism

TEST(RecRunner, FigShardConfigsAreJobCountInvariant)
{
    auto mkcfg = [](unsigned log2, bool mix, bool per_arena) {
        MicroConfig cfg;
        cfg.scheme = TmScheme::Stm;
        cfg.threads = 2;
        cfg.transactions = 24;
        cfg.mix.accessesPerTx = 16;
        cfg.workingLines = 256;
        cfg.machine = smallMachine(2);
        cfg.stm.recShardLog2Records = log2;
        cfg.stm.recHashMix = mix;
        cfg.stm.recShardPerArena = per_arena;
        return cfg;
    };
    const MicroConfig cfgs[] = {
        mkcfg(12, false, false),
        mkcfg(12, false, true),
        mkcfg(8, true, true),
    };

    ExperimentRunner serial(1u);
    ExperimentRunner pool(3u);
    std::vector<ExperimentRunner::Handle> hs, hp;
    for (const MicroConfig &cfg : cfgs) {
        hs.push_back(serial.add(cfg));
        hp.push_back(pool.add(cfg));
    }
    serial.runAll();
    pool.runAll();
    for (std::size_t i = 0; i < hs.size(); ++i) {
        const ExperimentResult &a = serial.result(hs[i]);
        const ExperimentResult &b = pool.result(hp[i]);
        EXPECT_EQ(a.makespan, b.makespan) << "config " << i;
        EXPECT_EQ(a.instructions, b.instructions) << "config " << i;
        EXPECT_EQ(a.checksum, b.checksum) << "config " << i;
        EXPECT_EQ(a.tm.commits, b.tm.commits) << "config " << i;
        EXPECT_EQ(a.tm.aborts, b.tm.aborts) << "config " << i;
        EXPECT_EQ(a.tm.conflictsAliased, b.tm.conflictsAliased)
            << "config " << i;
        EXPECT_EQ(a.tm.conflictsTrue, b.tm.conflictsTrue)
            << "config " << i;
    }
}

} // namespace
} // namespace hastm
