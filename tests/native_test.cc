/**
 * @file
 * Native (host-thread) backend tests.
 *
 * The same conformance bodies the simulated schemes pass
 * (tests/conformance_suite.hh) run over NativeBackend, plus the
 * record mapping and native-specific machinery: empty-undo-log and partial-write
 * rollback through TxLog::beginPos, the host serial gate, scaling of
 * the session runner, and the cross-backend replay — a recorded
 * native op log replayed through the simulator must agree op-for-op
 * and in final state, for every workload and several seeds.
 *
 * The snapshot-protocol edges (timestamp extension success/failure,
 * Bloom-filter fallback, savepoint snapshot restore) are driven
 * deterministically: a second NativeThread borrowed from the session
 * is stepped inline from thread 0's body, so the "concurrent" rival
 * commit happens at an exact program point on a single host thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include <sys/resource.h>

#include "backend/native_backend.hh"
#include "backend/sim_backend.hh"
#include "harness/native_experiment.hh"
#include "native/native_heap.hh"
#include "native/native_stm.hh"

#include "conformance_suite.hh"

namespace hastm {
namespace {

NativeSessionConfig
nativeCfg(unsigned threads)
{
    NativeSessionConfig c;
    c.numThreads = threads;
    c.heapBytes = 16ull << 20;
    return c;
}

// ------------------------------------------------ conformance suite

class NativeConformance : public ::testing::TestWithParam<Granularity>
{
};

TEST_P(NativeConformance, CommittedWritesPersist)
{
    NativeBackend b(nativeCfg(1));
    conform::committedWritesPersist(b);
}

TEST_P(NativeConformance, ReadYourOwnWrites)
{
    NativeBackend b(nativeCfg(1));
    conform::readYourOwnWrites(b);
}

TEST_P(NativeConformance, UserAbortRollsBackAndExits)
{
    NativeBackend b(nativeCfg(1));
    conform::userAbortRollsBackAndExits(b);
}

TEST_P(NativeConformance, CounterIncrementsAreAtomic)
{
    NativeBackend b(nativeCfg(2));
    conform::counterIncrementsAreAtomic(b);
}

TEST_P(NativeConformance, DisjointWritesBothSurvive)
{
    NativeBackend b(nativeCfg(2));
    conform::disjointWritesBothSurvive(b);
}

TEST_P(NativeConformance, MoneyConservedUnderTransfers)
{
    NativeBackend b(nativeCfg(2));
    conform::moneyConservedUnderTransfers(b);
}

// The native STM has one record mapping, the paper's cache-line table
// (§4), so each parameterized native suite runs the one instance.
INSTANTIATE_TEST_SUITE_P(Stm, NativeConformance,
                         ::testing::Values(Granularity::CacheLine),
                         [](const auto &) { return "line"; });

// ------------------------------------------------------- native heap

namespace {

/** Peak resident set of this process so far, in KiB (Linux units). */
long
peakRssKib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

} // namespace

// --------------------------------------------------- record mapping

TEST(NativeRecordTable, PaperMaskSharesWordsOfALineAndAliasesEveryTableSpan)
{
    // The paper's table: rec = base + (addr & 0x3ffc0).
    NativeRecordTable tab;
    ASSERT_EQ(NativeRecordTable::kNumRecords, 4096u);
    const Addr line = 0x12340;
    auto *rec = &tab.recordFor(line);
    // The 8 words of one line share its record...
    for (Addr off = 8; off < 64; off += 8)
        EXPECT_EQ(&tab.recordFor(line + off), rec) << "word " << off / 8;
    // ...adjacent lines do not...
    EXPECT_NE(&tab.recordFor(line + 64), rec);
    EXPECT_NE(&tab.recordFor(line - 64), rec);
    // ...and addresses 256 KiB apart do.
    EXPECT_EQ(&tab.recordFor(line + 256 * 1024), rec);
    EXPECT_EQ(&tab.recordFor(line + 3 * 256 * 1024 + 24), rec);
    // One table span covers every record exactly once.
    std::set<const void *> seen;
    for (Addr a = 0; a < 256 * 1024; a += 64)
        seen.insert(&tab.recordFor(a));
    EXPECT_EQ(seen.size(), NativeRecordTable::kNumRecords);
}

TEST(NativeHeap, CapacityIsNotResidentUntilTouched)
{
    // Zero-fill-on-demand: a 1 GiB heap costs page tables, not pages.
    long before = peakRssKib();
    NativeHeap heap(std::size_t(1) << 30);
    Addr a = heap.alloc(4096);
    heap.storeWord(a, 1);
    EXPECT_EQ(heap.loadWord(a), 1u);
    EXPECT_LT(peakRssKib() - before, 16 * 1024);
    EXPECT_EQ(heap.capacityBytes(), std::size_t(1) << 30);
}

TEST(NativeHeap, FreshAllocReadsZero)
{
    NativeHeap heap(1 << 20);
    Addr a = heap.alloc(64 * 1024);
    for (Addr p = a; p < a + 64 * 1024; p += 8)
        ASSERT_EQ(heap.loadWord(p), 0u) << "offset " << p - a;
}

TEST(NativeHeap, FreeThenReallocRoundTrips)
{
    NativeHeap heap(1 << 20);
    Addr a = heap.alloc(256);
    for (Addr p = a; p < a + 256; p += 8)
        heap.storeWord(p, 0xabcd0000 + p);
    EXPECT_EQ(heap.allocatedBytes(), 256u);
    heap.free(a);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
    // First fit hands the same block back, contents as left ...
    Addr b = heap.alloc(256);
    EXPECT_EQ(b, a);
    EXPECT_EQ(heap.loadWord(b + 8), 0xabcd0000 + b + 8);
    heap.free(b);
    // ... and allocZeroed clears a reused block.
    Addr c = heap.allocZeroed(256);
    EXPECT_EQ(c, a);
    for (Addr p = c; p < c + 256; p += 8)
        ASSERT_EQ(heap.loadWord(p), 0u);
    EXPECT_EQ(heap.allocatedBytes(), 256u);
}

// ------------------------------------------------ rollback edge cases

TEST(NativeRollback, ReadOnlyAbortWithEmptyUndoLog)
{
    // TxLog::beginPos anchors the reverse undo walk; a transaction
    // with an empty write set must roll back without touching chunk
    // bookkeeping — on the native LogMem just as on the simulated one.
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(16);
        t.atomic([&] { t.writeField(obj, 0, 7); });
        std::uint64_t seen = 0;
        bool committed = t.atomic([&] {
            seen = t.readField(obj, 0);
            t.userAbort();
        });
        EXPECT_FALSE(committed);
        EXPECT_EQ(seen, 7u);
        std::uint64_t v = 0;
        t.atomic([&] { v = t.readField(obj, 0); });
        EXPECT_EQ(v, 7u);
        EXPECT_EQ(t.stats().userAborts, 1u);
    }});
}

TEST(NativeRollback, AbortAfterPartialWritesRestoresPriorValues)
{
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(32);
        t.atomic([&] {
            t.writeField(obj, 0, 1);
            t.writeField(obj, 8, 2);
        });
        bool committed = t.atomic([&] {
            t.writeField(obj, 0, 100);  // partial: two of three fields
            t.writeField(obj, 16, 300);
            t.userAbort();
        });
        EXPECT_FALSE(committed);
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 1u);
            EXPECT_EQ(t.readField(obj, 8), 2u);
            EXPECT_EQ(t.readField(obj, 16), 0u);
        });
    }});
}

TEST(NativeRollback, AbortRestoresAcrossChunkBoundaries)
{
    // Force the undo log past one 4 KiB chunk, then roll everything
    // back: the reverse walk must cross chunk links correctly.
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
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
    }});
}

TEST(NativeRollback, NestedUserAbortRollsBackOnlyInner)
{
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(32);
        t.atomic([&] {
            t.writeField(obj, 0, 10);
            bool inner = t.atomic([&] {
                t.writeField(obj, 0, 77);
                t.writeField(obj, 8, 88);
                t.userAbort();
            });
            EXPECT_FALSE(inner);
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

TEST(NativeRollback, PartialAbortReversionsNestedAcquiredRecordsForward)
{
    // The dirty-then-restored ABA guard: a record first acquired by a
    // nested frame must NOT return to its pre-acquisition version when
    // the frame aborts — a rival that loaded that version, read the
    // frame's in-place value, and re-checked after the restore would
    // accept uncommitted data. Snapshot mode consumes a real clock
    // tick, so the released version's time moves strictly forward.
    NativeBackend b(nativeCfg(1));
    NativeThread &t = b.session().thread(0);
    NativeRuntime &rt = b.session().runtime();
    b.run({[&](TmExec &) {
        Addr obj = t.txAlloc(32);
        t.atomic([&] { t.writeField(obj, 0, 7); });
        auto &rec = rt.records().recordFor(obj + kObjHeaderBytes);
        std::uint64_t before = rec.load();
        ASSERT_TRUE(txrec::isVersion(before));
        t.atomic([&] {
            bool inner = t.atomic([&] {
                t.writeField(obj, 0, 99);
                t.userAbort();
            });
            EXPECT_FALSE(inner);
            std::uint64_t after = rec.load();
            EXPECT_TRUE(txrec::isVersion(after));
            EXPECT_NE(after, before);
            EXPECT_GT(nativeclock::timeOf(after),
                      nativeclock::timeOf(before));
        });
        t.atomic([&] { EXPECT_EQ(t.readField(obj, 0), 7u); });
    }});
}

TEST(NativeRollback, TxAllocFreedOnAbortAndFreeDeferredToCommit)
{
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        t.atomic([&] {
            t.txAlloc(64);
            t.userAbort();
        });
        Addr obj = t.txAlloc(64);
        t.atomic([&] { t.txFree(obj); });
        // The block is genuinely free again: a fresh allocation of the
        // same size reuses the address (first-fit heap).
        Addr again = t.txAlloc(64);
        EXPECT_EQ(again, obj);
    }});
}

// ------------------------------------------------ retry and orElse

TEST(NativeRetry, OrElseFallsThroughOnRetry)
{
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(32);
        bool committed = t.atomicOrElse(
            [&] {
                t.writeField(obj, 0, 1);  // must be rolled back
                t.retry();
            },
            [&] { t.writeField(obj, 8, 2); });
        EXPECT_TRUE(committed);
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 0u);
            EXPECT_EQ(t.readField(obj, 8), 2u);
        });
    }});
}

TEST(NativeRetry, RetryWakesOnRemoteWrite)
{
    NativeBackend b(nativeCfg(2));
    Addr obj = 0;
    b.run({[&](TmExec &t) { obj = t.txAlloc(16); }});
    b.run({
        [&](TmExec &t) {
            std::uint64_t got = 0;
            t.atomic([&] {
                got = t.readField(obj, 0);
                if (got == 0)
                    t.retry();
            });
            EXPECT_EQ(got, 42u);
            EXPECT_GE(t.stats().retries, 1u);
        },
        [&](TmExec &t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            t.atomic([&] { t.writeField(obj, 0, 42); });
        },
    });
}

// ------------------------------------------------ serial-irrevocable

TEST(NativeGate, StarvingWriterEscalatesRunsAloneAndCommits)
{
    // Deterministic starvation: thread 0 sleeps inside a transaction
    // holding obj's record far longer than the contention spin
    // budget, so thread 1's write must abort; with a hair-trigger
    // watchdog the very next attempt escalates, quiesces behind
    // thread 0, and commits serially.
    NativeSessionConfig cfg = nativeCfg(2);
    cfg.watchdog.consecAborts = 1;
    cfg.watchdog.retriesPerCommit = 2;
    NativeBackend b(cfg);
    Addr obj = 0;
    b.run({[&](TmExec &t) { obj = t.txAlloc(16); }});
    std::atomic<bool> holder_in{false};
    b.run({
        [&](TmExec &t) {
            t.atomic([&] {
                t.writeField(obj, 0, 1);
                holder_in.store(true);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(80));
            });
        },
        [&](TmExec &t) {
            while (!holder_in.load())
                std::this_thread::yield();
            t.atomic([&] { t.writeField(obj, 8, 2); });
        },
    });
    EXPECT_GE(b.totalStats().irrevocableEntries, 1u);
    EXPECT_GE(b.totalStats().aborts, 1u);
    b.run({[&](TmExec &t) {
        t.atomic([&] {
            EXPECT_EQ(t.readField(obj, 0), 1u);
            EXPECT_EQ(t.readField(obj, 8), 2u);
        });
    }});
}

TEST(NativeGate, HairTriggerWatchdogStaysAtomicUnderContention)
{
    // Every abort escalates almost at once, so any escalations that
    // occur exercise enter/quiesce/exit under real contention.
    // Completion plus an exact counter value is the assertion — a
    // gate leak deadlocks, a quiesce bug loses an increment.
    constexpr unsigned kIncrements = 400;
    NativeSessionConfig cfg = nativeCfg(4);
    cfg.watchdog.consecAborts = 1;
    cfg.watchdog.retriesPerCommit = 2;
    NativeBackend b(cfg);
    Addr obj = 0;
    b.run({[&](TmExec &t) { obj = t.txAlloc(16); }});
    std::vector<std::function<void(TmExec &)>> bodies;
    for (unsigned tid = 0; tid < 4; ++tid) {
        bodies.push_back([&](TmExec &t) {
            for (unsigned i = 0; i < kIncrements; ++i) {
                t.atomic([&] {
                    t.writeField(obj, 0, t.readField(obj, 0) + 1);
                });
            }
        });
    }
    b.run(bodies);
    std::uint64_t v = 0;
    b.run({[&](TmExec &t) { t.atomic([&] { v = t.readField(obj, 0); }); }});
    EXPECT_EQ(v, 4u * kIncrements);
}

TEST(NativeGate, WakeupsFireOnlyWhenSomeoneIsParked)
{
    // Regression for the counted-wakeup fast path: a parked arrival
    // must still be woken by exit() now that broadcasts are skipped
    // when nobody waits. Deterministic: the main thread polls the
    // waiter count, so the helper is provably parked before exit().
    NativeGate g;
    NativeGate::Slot &slot = g.registerSlot();
    int tok = 0, other = 0;
    EXPECT_EQ(g.waitersForTest(), 0u);
    g.enter(&tok);
    std::atomic<bool> arrived{false};
    std::thread th([&] {
        g.arrive(&other, slot);
        arrived.store(true);
        g.depart(slot);
    });
    while (g.waitersForTest() == 0)
        std::this_thread::yield();
    EXPECT_FALSE(arrived.load());
    g.exit();
    th.join();
    EXPECT_TRUE(arrived.load());
    EXPECT_EQ(g.waitersForTest(), 0u);
}

TEST(NativeGate, EscalatorParksUntilInflightDrains)
{
    // The other wakeup edge: depart() must broadcast when an
    // escalating thread is parked in quiesce.
    NativeGate g;
    NativeGate::Slot &slot = g.registerSlot();
    int tok = 0, other = 0;
    g.arrive(&other, slot);
    std::atomic<bool> entered{false};
    std::thread th([&] {
        g.enter(&tok);
        entered.store(true);
        g.exit();
    });
    while (g.waitersForTest() == 0)
        std::this_thread::yield();
    EXPECT_FALSE(entered.load());
    auto t0 = std::chrono::steady_clock::now();
    g.depart(slot);
    th.join();
    EXPECT_TRUE(entered.load());
    EXPECT_EQ(g.waitersForTest(), 0u);
    // Without the wakeup the holder sleeps until its stall limit
    // (20 s by default) expires and finds the flag clear.
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(10));
}

TEST(NativeGate, QuiescentIsFalseWhileAnyFlagIsAdvertised)
{
    NativeGate g;
    NativeGate::Slot &a = g.registerSlot();
    NativeGate::Slot &b = g.registerSlot();
    int ta = 0, tb = 0;
    EXPECT_TRUE(g.quiescent());
    g.arrive(&tb, b);
    EXPECT_FALSE(g.quiescent());
    g.arrive(&ta, a);
    g.depart(b);
    EXPECT_FALSE(g.quiescent());
    g.depart(a);
    EXPECT_TRUE(g.quiescent());
    // A holder's own arrival passes its token and is still counted.
    g.enter(&ta);
    EXPECT_FALSE(g.quiescent());
    g.arrive(&ta, a);
    g.depart(a);
    g.exit();
    EXPECT_TRUE(g.quiescent());
}

TEST(NativeGate, HolderRunsAloneUnderConcurrentArrivals)
{
    // Mutual exclusion and lost-wakeup stress of the lock-free
    // arrival path: three threads loop arrive/depart around an
    // "inside" counter while a fourth loops enter/exit and checks the
    // counter stays 0 while it holds the token. serialWrites is a
    // plain int the holder writes and every arrival reads, so under
    // TSan the gate must also order those accesses. Each side runs a
    // minimum number of rounds, and the holder keeps cycling, holding
    // the token most of the time, until every arrival has finished:
    // an arrival that misses its wakeup wakes at the stall limit to a
    // held token and panics.
    constexpr unsigned kRounds = 2000;
    NativeGate g;
    g.setStallLimitMs(10000);
    std::atomic<unsigned> inside{0};
    std::atomic<bool> holderWarm{false};
    std::atomic<unsigned> finished{0};
    unsigned serialWrites = 0;
    std::atomic<unsigned> violations{0};
    std::vector<std::thread> arrivals;
    for (unsigned i = 0; i < 3; ++i) {
        NativeGate::Slot &slot = g.registerSlot();
        arrivals.emplace_back([&, &slot = slot] {
            unsigned seen = 0;
            for (unsigned n = 0; n < kRounds || !holderWarm.load(); ++n) {
                g.arrive(&slot, slot);
                inside.fetch_add(1);
                if (serialWrites < seen)
                    violations.fetch_add(1);
                seen = serialWrites;
                inside.fetch_sub(1);
                g.depart(slot);
            }
            finished.fetch_add(1);
        });
    }
    int holder = 0;
    unsigned rounds = 0;
    while (rounds < kRounds || finished.load() < arrivals.size()) {
        g.enter(&holder);
        for (unsigned k = 0; k < 8; ++k) {
            if (inside.load() != 0)
                violations.fetch_add(1);
            ++serialWrites;
            std::this_thread::yield();
        }
        g.exit();
        if (++rounds == kRounds)
            holderWarm.store(true);
        std::this_thread::yield();
    }
    for (std::thread &th : arrivals)
        th.join();
    EXPECT_EQ(violations.load(), 0u);
    EXPECT_EQ(serialWrites, 8 * rounds);
    EXPECT_TRUE(g.quiescent());
}

// ------------------------------------------- snapshot-protocol edges
//
// Deterministic rival commits: with a single body, run() executes
// inline on the calling host thread, and the session's second
// NativeThread can be stepped from inside thread 0's transaction (the
// gate admits any number of non-escalated transactions), so every
// interleaving below is an exact program point on one host thread.

class NativeSnapshot : public ::testing::TestWithParam<Granularity>
{
  protected:
    /** Two objects far enough apart (4 lines) that their first data
     *  words map to distinct transaction records. */
    static void
    allocPair(TmExec &t, Addr &x, Addr &y)
    {
        x = t.txAlloc(256);
        y = t.txAlloc(256);
        t.atomic([&] {
            t.writeField(x, 0, 1);
            t.writeField(y, 0, 2);
        });
    }
};

TEST_P(NativeSnapshot, ExtensionSucceedsWhenReadSetStillValid)
{
    NativeBackend b(nativeCfg(2));
    b.run({[&](TmExec &t) {
        Addr x = 0, y = 0;
        allocPair(t, x, y);
        NativeThread &rival = b.session().thread(1);
        std::uint64_t got = 0;
        t.atomic([&] {
            EXPECT_EQ(t.readField(x, 0), 1u);
            // A rival commit moves y's version past our snapshot; x
            // is untouched, so the extension must succeed and the
            // read must return the rival's value.
            rival.atomic([&] { rival.writeField(y, 0, 99); });
            got = t.readField(y, 0);
        });
        EXPECT_EQ(got, 99u);
        EXPECT_GE(t.stats().extensions, 1u);
        EXPECT_EQ(t.stats().extensionFailures, 0u);
        EXPECT_EQ(t.stats().aborts, 0u);
    }});
}

TEST_P(NativeSnapshot, ExtensionFailsWhenALoggedReadWentStale)
{
    NativeBackend b(nativeCfg(2));
    b.run({[&](TmExec &t) {
        Addr x = 0, y = 0;
        allocPair(t, x, y);
        NativeThread &rival = b.session().thread(1);
        bool sabotaged = false;
        std::uint64_t gx = 0, gy = 0;
        t.atomic([&] {
            gx = t.readField(x, 0);
            if (!sabotaged) {
                sabotaged = true;
                // The rival overwrites BOTH objects: y's bumped
                // version forces an extension, and the logged read of
                // x makes that extension fail — opacity demands an
                // abort, never a mixed view.
                rival.atomic([&] {
                    rival.writeField(x, 0, 10);
                    rival.writeField(y, 0, 20);
                });
            }
            gy = t.readField(y, 0);
        });
        // First attempt died in the extension; the retry saw a
        // consistent post-rival state.
        EXPECT_EQ(gx, 10u);
        EXPECT_EQ(gy, 20u);
        EXPECT_GE(t.stats().extensionFailures, 1u);
        EXPECT_GE(t.stats().aborts, 1u);
    }});
}

TEST_P(NativeSnapshot, WriteToFreshlyCommittedRecordExtendsFirst)
{
    // Read-after-write opacity: acquiring a record whose version is
    // newer than the snapshot must extend before taking ownership
    // (the undo log would otherwise capture a value the snapshot
    // cannot see).
    NativeBackend b(nativeCfg(2));
    b.run({[&](TmExec &t) {
        Addr x = 0, y = 0;
        allocPair(t, x, y);
        NativeThread &rival = b.session().thread(1);
        bool committed = t.atomic([&] {
            EXPECT_EQ(t.readField(x, 0), 1u);
            rival.atomic([&] { rival.writeField(y, 0, 50); });
            t.writeField(y, 0, 51);
        });
        EXPECT_TRUE(committed);
        EXPECT_GE(t.stats().extensions, 1u);
        EXPECT_EQ(t.stats().aborts, 0u);
        t.atomic([&] { EXPECT_EQ(t.readField(y, 0), 51u); });
    }});
}

TEST_P(NativeSnapshot, PartialAbortRestoresTheSavepointSnapshot)
{
    NativeBackend b(nativeCfg(2));
    NativeThread &t = b.session().thread(0);
    NativeThread &rival = b.session().thread(1);
    b.run({[&](TmExec &) {
        Addr x = 0, y = 0;
        allocPair(t, x, y);
        t.atomic([&] {
            std::uint64_t s0 = t.snapshotForTest();
            EXPECT_EQ(t.readField(x, 0), 1u);
            bool inner = t.atomic([&] {
                rival.atomic([&] { rival.writeField(y, 0, 9); });
                EXPECT_EQ(t.readField(y, 0), 9u);  // forces an extension
                EXPECT_GT(t.snapshotForTest(), s0);
                t.userAbort();
            });
            EXPECT_FALSE(inner);
            // The savepoint rewound the snapshot along with the logs:
            // the surviving parent read set is governed again by the
            // snapshot it was validated under.
            EXPECT_EQ(t.snapshotForTest(), s0);
            t.validateNow();
        });
        EXPECT_GE(t.stats().extensions, 1u);
    }});
}

TEST_P(NativeSnapshot, TxFreedBlockIsNotReusedWhileASnapshotCanReadIt)
{
    // Unsafe-reclamation regression: a rival frees a block this
    // transaction's snapshot can still validate reads into. First-fit
    // would hand the block straight back to the next allocation, and
    // the allocator's raw zeroing stores never bump the covering
    // records — the stale reads would keep passing forever. The limbo
    // list must hold the block (contents intact) until our epoch
    // retires, then release it on the next allocation.
    NativeBackend b(nativeCfg(2));
    NativeThread &t = b.session().thread(0);
    NativeThread &rival = b.session().thread(1);
    b.run({[&](TmExec &) {
        // 256-byte objects so the first data words map to distinct
        // records (same spacing as allocPair).
        Addr slot = t.txAlloc(256);  // "data structure" holding obj
        Addr obj = t.txAlloc(256);
        t.atomic([&] {
            t.writeField(slot, 0, obj);
            t.writeField(obj, 0, 7);
        });
        t.atomic([&] {
            // Pin obj in the snapshot the honest way: read the link,
            // then the payload.
            Addr p = t.readField(slot, 0);
            ASSERT_EQ(p, obj);
            EXPECT_EQ(t.readField(p, 0), 7u);
            // The rival unlinks and frees obj in one transaction (the
            // txFree contract) — a writer commit strictly after our
            // snapshot.
            rival.atomic([&] {
                rival.writeField(slot, 0, 0);
                rival.txFree(obj);
            });
            EXPECT_GE(rival.limboSizeForTest(), 1u);
            // A same-size allocation must NOT reuse the block while
            // we can still read it...
            Addr again = rival.txAlloc(256);
            EXPECT_NE(again, obj);
            // ...and the words still hold the value our snapshot is
            // entitled to.
            EXPECT_EQ(t.readField(p, 0), 7u);
            rival.txFree(again);
        });
        // Our epoch retired with the commit: the rival's next
        // allocation reclaims its own limbo list (limbo lists are
        // per-thread) and first-fit reuses the block.
        Addr later = rival.txAlloc(256);
        EXPECT_EQ(later, obj);
        EXPECT_EQ(rival.limboSizeForTest(), 0u);
    }});
}

INSTANTIATE_TEST_SUITE_P(Stm, NativeSnapshot,
                         ::testing::Values(Granularity::CacheLine),
                         [](const auto &) { return "line"; });

TEST(NativeSnapshotStats, ReadOnlyCommitLeavesTheClockAlone)
{
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(8 * 16);
        t.atomic([&] {
            for (unsigned i = 0; i < 16; ++i)
                t.writeField(obj, 8 * i, i);
        });
        NativeRuntime &rt = b.session().runtime();
        std::uint64_t before = rt.clockNow();
        std::uint64_t sum = 0;
        t.atomic([&] {
            for (unsigned i = 0; i < 16; ++i)
                sum += t.readField(obj, 8 * i);
        });
        EXPECT_EQ(rt.clockNow(), before);
        EXPECT_EQ(sum, 120u);
        EXPECT_GE(t.stats().clockBumpsSkipped, 1u);
        EXPECT_EQ(t.stats().extensions, 0u);
    }});
}

TEST(NativeSnapshotStats, SoloWriterNeverRevalidatesItsReadSet)
{
    // The ticket refinement: when no rival committed between snapshot
    // and commit ticket, validation is skipped outright.
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        Addr obj = t.txAlloc(8 * 64);
        t.atomic([&] {
            for (unsigned i = 0; i < 64; ++i)
                t.writeField(obj, 8 * i, 1);
        });
        for (unsigned r = 0; r < 20; ++r) {
            t.atomic([&] {
                std::uint64_t acc = 0;
                for (unsigned i = 0; i < 64; ++i)
                    acc += t.readField(obj, 8 * i);
                t.writeField(obj, 0, acc);
            });
        }
        EXPECT_EQ(t.stats().fullValidations, 0u);
    }});
}

TEST(NativeClockDeathTest, WriterPastMaxTimePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NativeBackend b(nativeCfg(1));
    Addr obj = 0;
    b.run({[&](TmExec &t) { obj = t.txAlloc(16); }});
    b.session().runtime().setClockForTest(nativeclock::kMaxTime);
    EXPECT_DEATH(b.run({[&](TmExec &t) {
                     t.atomic([&] { t.writeField(obj, 0, 1); });
                 }}),
                 "clock exhausted");
}

// ------------------------------------------------ write-set Bloom

TEST(NativeBloom, TinyFilterFallsBackToLogScanNeverFalseNegative)
{
    // 4096 distinct addresses saturate the 1024-bit filter: later
    // first-writes hit the filter, scan the log, find nothing, and
    // append anyway (counted false positives). A false NEGATIVE would
    // skip an undo entry and the abort below would fail to restore
    // some word — the value checks have teeth.
    NativeBackend b(nativeCfg(1));
    b.run({[&](TmExec &t) {
        constexpr unsigned kWords = 4096;
        Addr big = t.txAlloc(8 * kWords);
        t.atomic([&] {
            for (unsigned i = 0; i < kWords; ++i)
                t.writeField(big, 8 * i, 7);
        });
        bool committed = t.atomic([&] {
            for (unsigned i = 0; i < kWords; ++i)
                t.writeField(big, 8 * i, 1000 + i);
            for (unsigned i = 0; i < kWords; ++i)
                t.writeField(big, 8 * i, 2000 + i);  // dups: scan dedups
            t.userAbort();
        });
        EXPECT_FALSE(committed);
        t.atomic([&] {
            for (unsigned i = 0; i < kWords; ++i)
                EXPECT_EQ(t.readField(big, 8 * i), 7u);
        });
        EXPECT_GT(t.stats().bloomFalsePositives, 0u);
        EXPECT_GE(t.stats().undoElided, kWords);
    }});
}

// ------------------------------------------------ experiment runner

TEST(NativeExperiment, OracleAcceptsEveryWorkloadMultiThreaded)
{
    for (WorkloadKind w : {WorkloadKind::HashTable, WorkloadKind::Bst,
                           WorkloadKind::Btree}) {
        NativeExperimentConfig cfg;
        cfg.workload = w;
        cfg.threads = 4;
        cfg.totalOps = 2000;
        cfg.updatePct = 40;
        cfg.initialSize = 128;
        cfg.keyRange = 512;
        cfg.hashBuckets = 32;
        cfg.recordOps = true;
        NativeExperimentResult r = runNativeDataStructure(cfg);
        EXPECT_TRUE(r.oracleChecked);
        EXPECT_TRUE(r.oracleOk) << workloadName(w) << ": "
                                << r.oracleDiag;
        EXPECT_TRUE(r.invariantOk) << workloadName(w);
        EXPECT_GE(r.tm.commits, cfg.totalOps);
        EXPECT_GT(r.opsPerSec, 0.0);
    }
}

TEST(NativeExperiment, StatsCountRealWorkAcrossThreads)
{
    NativeExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.threads = 2;
    cfg.totalOps = 500;
    cfg.initialSize = 64;
    cfg.keyRange = 128;
    cfg.hashBuckets = 16;
    NativeExperimentResult r = runNativeDataStructure(cfg);
    // One commit per measured op at minimum (aborted attempts retry).
    EXPECT_GE(r.tm.commits, 500u);
    EXPECT_LE(r.finalSize, cfg.keyRange);
}

TEST(NativeExperiment, DisjointPartitionFillsPerThreadOutcomes)
{
    NativeExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.threads = 4;
    cfg.totalOps = 2000;
    cfg.updatePct = 40;
    cfg.initialSize = 128;
    cfg.keyRange = 512;
    cfg.hashBuckets = 32;
    cfg.disjoint = true;
    cfg.recordOps = true;
    NativeExperimentResult r = runNativeDataStructure(cfg);
    EXPECT_TRUE(r.oracleOk) << r.oracleDiag;
    EXPECT_TRUE(r.invariantOk);
    ASSERT_EQ(r.perThread.size(), 4u);
    std::uint64_t commits = 0, aborts = 0;
    for (const NativeThreadOutcome &o : r.perThread) {
        // Each thread retires its share of the measured ops, one
        // top-level commit per op at minimum.
        EXPECT_GE(o.commits, cfg.totalOps / 4);
        commits += o.commits;
        aborts += o.aborts;
    }
    // The per-thread capture and the merged totals describe the same
    // measured phase.
    EXPECT_EQ(commits, r.tm.commits);
    EXPECT_EQ(aborts, r.tm.aborts);
}

// ------------------------------------------------ cross-backend replay

TEST(CrossValidation, NativeLogReplaysThroughSimForAllWorkloadsAndSeeds)
{
    for (WorkloadKind w : {WorkloadKind::HashTable, WorkloadKind::Bst,
                           WorkloadKind::Btree}) {
        for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
            NativeExperimentConfig cfg;
            cfg.workload = w;
            cfg.threads = 4;
            cfg.totalOps = 600;
            cfg.updatePct = 40;
            cfg.initialSize = 64;
            cfg.keyRange = 256;
            cfg.hashBuckets = 16;
            cfg.seed = seed;
            CrossCheckOutcome out = crossValidateNative(cfg);
            EXPECT_TRUE(out.ok) << out.diag;
        }
    }
}

TEST(CrossValidation, ReplayDetectsATamperedLog)
{
    // The differ must actually have teeth: flip one recorded result
    // and the sim replay has to reject the log.
    NativeExperimentConfig cfg;
    cfg.workload = WorkloadKind::HashTable;
    cfg.threads = 2;
    cfg.totalOps = 300;
    cfg.updatePct = 40;
    cfg.initialSize = 32;
    cfg.keyRange = 64;
    cfg.hashBuckets = 8;
    cfg.recordOps = true;
    NativeExperimentResult r = runNativeDataStructure(cfg);
    ASSERT_TRUE(r.oracleOk) << r.oracleDiag;
    ASSERT_FALSE(r.opLog.empty());
    r.opLog[r.opLog.size() / 2].result =
        !r.opLog[r.opLog.size() / 2].result;

    SimBackendConfig sc;
    sc.session.scheme = TmScheme::Sequential;
    sc.session.numThreads = 1;
    SimBackend sim(sc);
    ReplayOutcome rep = replayThroughBackend(
        sim, cfg.workload, cfg.hashBuckets, r.opLog);
    EXPECT_FALSE(rep.ok);
    EXPECT_NE(rep.diag.find("replay op"), std::string::npos) << rep.diag;
}

// ------------------------------------------------ the shared verdict

/** A small contended 2-thread hash-table mix for the verdict tests. */
OpMixConfig
verdictMix()
{
    OpMixConfig mix;
    mix.workload = WorkloadKind::HashTable;
    mix.threads = 2;
    mix.totalOps = 300;
    mix.updatePct = 40;
    mix.initialSize = 32;
    mix.keyRange = 64;
    mix.hashBuckets = 8;
    mix.recordOps = true;
    return mix;
}

/** Run @p mix for real on @p b, building @p ds; returns the op log. */
std::vector<OpRecord>
recordRun(NativeBackend &b, const OpMixConfig &mix, DsInstance &ds)
{
    std::vector<std::vector<OpRecord>> logs(mix.threads);
    b.run({[&](TmExec &t) { ds = populateDs(t, mix, logs[0]); }});
    std::vector<std::function<void(TmExec &)>> bodies;
    for (unsigned tid = 0; tid < mix.threads; ++tid) {
        bodies.push_back([&, tid](TmExec &t) {
            runOpMix(t, ds.ops, mix, tid, 0, mix.keyRange, logs[tid]);
        });
    }
    b.run(bodies);
    std::vector<OpRecord> log;
    for (const std::vector<OpRecord> &l : logs)
        log.insert(log.end(), l.begin(), l.end());
    return log;
}

TEST(CrossValidation, VerdictFailsOracleAndSimReplayOnAFlippedResult)
{
    // The shared verdict must have teeth on a real run: a clean log
    // passes, and one flipped result fails both the oracle and the
    // sim replay, each naming the op.
    OpMixConfig mix = verdictMix();
    NativeBackend b(nativeCfg(mix.threads));
    DsInstance ds;
    std::vector<OpRecord> log = recordRun(b, mix, ds);
    NativeRunVerdict clean =
        checkNativeRun(b.session(), ds.ops, &log, mix.workload,
                       mix.hashBuckets, mix.seed, true);
    ASSERT_TRUE(clean.ok()) << clean.diag();
    ASSERT_TRUE(clean.simReplayChecked);

    OpRecord &op = log[log.size() / 2];
    op.result = !op.result;
    std::string named = std::string("(") + opKindName(op.kind) +
                        " key=" + std::to_string(op.key) + " ";
    NativeRunVerdict v = checkNativeRun(b.session(), ds.ops, &log,
                                        mix.workload, mix.hashBuckets,
                                        mix.seed, true);
    EXPECT_TRUE(v.nativeInvariantsOk) << v.nativeInvariantDiag;
    EXPECT_FALSE(v.oracleOk);
    EXPECT_FALSE(v.simReplayOk);
    EXPECT_FALSE(v.ok());
    EXPECT_NE(v.oracleDiag.find(named), std::string::npos) << v.oracleDiag;
    EXPECT_NE(v.simReplayDiag.find(named), std::string::npos)
        << v.simReplayDiag;
    EXPECT_EQ(v.diag().rfind("oracle: ", 0), 0u) << v.diag();
}

TEST(NativeVerdict, GateSlotLeftSetFailsTheSweep)
{
    // An arrival flag nobody cleared (a thread that never departed)
    // must fail the invariant sweep even though the replay is clean.
    OpMixConfig mix = verdictMix();
    NativeBackend b(nativeCfg(mix.threads));
    DsInstance ds;
    std::vector<OpRecord> log = recordRun(b, mix, ds);
    NativeGate::Slot &stray = b.session().runtime().gate().registerSlot();
    stray.store(true);
    NativeRunVerdict v = checkNativeRun(b.session(), ds.ops, &log,
                                        mix.workload, mix.hashBuckets,
                                        mix.seed, false);
    stray.store(false);
    EXPECT_FALSE(v.gateQuiescent);
    EXPECT_FALSE(v.nativeInvariantsOk);
    EXPECT_NE(v.nativeInvariantDiag.find("gate not quiescent"),
              std::string::npos)
        << v.nativeInvariantDiag;
    EXPECT_TRUE(v.oracleOk) << v.oracleDiag;
    EXPECT_FALSE(v.simReplayChecked);
    EXPECT_FALSE(v.ok());
    EXPECT_EQ(v.diag().rfind("native invariants: ", 0), 0u) << v.diag();
}

} // namespace
} // namespace hastm
