/**
 * @file
 * Unit tests for the memory subsystem: arena, allocator, cache
 * geometry, MESI coherence, mark-bit discard events, inclusive-L2
 * back-invalidation, and the prefetcher.
 */

#include <sys/resource.h>

#include <bit>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "mem/alloc.hh"
#include "mem/arena.hh"
#include "mem/cache.hh"
#include "mem/mem_system.hh"

namespace hastm {
namespace {

// ------------------------------------------------------------- arena

TEST(Arena, ReadWriteRoundTrip)
{
    MemArena arena(1 << 16);
    arena.write<std::uint64_t>(128, 0xdeadbeefcafebabeull);
    EXPECT_EQ(arena.read<std::uint64_t>(128), 0xdeadbeefcafebabeull);
    arena.write<std::uint8_t>(128, 0x11);
    EXPECT_EQ(arena.read<std::uint64_t>(128), 0xdeadbeefcafeba11ull);
}

TEST(ArenaDeathTest, OutOfRangePanics)
{
    MemArena arena(4096);
    EXPECT_DEATH(arena.read<std::uint64_t>(4095), "out of range");
    EXPECT_DEATH(arena.read<std::uint32_t>(0), "out of range");
    // addr + len wraps past 2^64 here; the check must not.
    EXPECT_DEATH(arena.read<std::uint64_t>(~Addr(0) - 7), "out of range");
    EXPECT_DEATH(arena.hostPtr(8, ~std::size_t(0)), "out of range");
}

/** Peak resident set of this process so far, in KiB (Linux units). */
long
peakRssKib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

TEST(Arena, SizeIsNotResidentUntilTouched)
{
    // Zero-fill-on-demand: a 1 GiB arena costs page tables, not pages.
    long before = peakRssKib();
    MemArena arena(std::size_t(1) << 30);
    arena.write<std::uint64_t>(4096, 1);
    EXPECT_EQ(arena.read<std::uint64_t>(4096), 1u);
    EXPECT_LT(peakRssKib() - before, 16 * 1024);
    EXPECT_EQ(arena.size(), std::size_t(1) << 30);
}

TEST(Arena, FreshArenaReadsZero)
{
    // Address 0 is the null address, so the first word is at 8.
    const std::size_t bytes = 1 << 20;
    MemArena arena(bytes);
    EXPECT_EQ(arena.read<std::uint64_t>(8), 0u);
    EXPECT_EQ(arena.read<std::uint64_t>(bytes / 2), 0u);
    EXPECT_EQ(arena.read<std::uint64_t>(bytes - 8), 0u);
}

// ---------------------------------------------------------- allocator

TEST(Allocator, AllocatesAlignedDisjointBlocks)
{
    MemArena arena(1 << 20);
    SimAllocator heap(arena, 64, (1 << 20) - 64);
    Addr a = heap.alloc(100, 16);
    Addr b = heap.alloc(100, 64);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_TRUE(a + 100 <= b || b + 100 <= a);
    EXPECT_EQ(heap.allocatedBytes(), 200u);
    EXPECT_EQ(heap.liveBlocks(), 2u);
}

TEST(Allocator, FreeAndCoalesceAllowsReuse)
{
    MemArena arena(1 << 16);
    SimAllocator heap(arena, 64, (1 << 16) - 64);
    // Fill most of the heap with three blocks, free them all, then a
    // block bigger than any single fragment must still fit.
    std::size_t third = ((1 << 16) - 64) / 3 - 32;
    Addr a = heap.alloc(third);
    Addr b = heap.alloc(third);
    Addr c = heap.alloc(third);
    heap.free(b);
    heap.free(a);
    heap.free(c);
    EXPECT_EQ(heap.allocatedBytes(), 0u);
    Addr big = heap.alloc(3 * third);
    EXPECT_NE(big, kNullAddr);
}

TEST(AllocatorDeathTest, DoubleFreePanics)
{
    MemArena arena(1 << 16);
    SimAllocator heap(arena, 64, (1 << 16) - 64);
    Addr a = heap.alloc(64);
    heap.free(a);
    EXPECT_DEATH(heap.free(a), "unallocated");
}

TEST(Allocator, ZeroedAllocation)
{
    // Only fresh pages are zero; a block handed back by first fit
    // holds whatever its last owner wrote until allocZeroed clears it.
    MemArena arena(1 << 16);
    SimAllocator heap(arena, 64, (1 << 16) - 64);
    Addr a = heap.alloc(64);
    for (Addr p = a; p < a + 64; p += 8)
        arena.write<std::uint64_t>(p, ~0ull);
    heap.free(a);
    Addr b = heap.allocZeroed(64);
    ASSERT_EQ(b, a);
    for (Addr p = b; p < b + 64; p += 8)
        EXPECT_EQ(arena.read<std::uint64_t>(p), 0u) << "offset " << p - b;
}

// ------------------------------------------------------------- cache

TEST(Cache, SubBlockMask)
{
    Cache cache("c", CacheParams{32 * 1024, 8, 64, 16});
    EXPECT_EQ(cache.subBlockMask(0, 8), 0b0001);
    EXPECT_EQ(cache.subBlockMask(16, 16), 0b0010);
    EXPECT_EQ(cache.subBlockMask(8, 16), 0b0011);
    EXPECT_EQ(cache.subBlockMask(0, 64), 0b1111);
    EXPECT_EQ(cache.subBlockMask(48, 8), 0b1000);
}

TEST(Cache, LruVictimSelection)
{
    // Tiny cache: 2 sets, 2 ways, so three same-set lines force an
    // eviction of the least recently touched.
    Cache cache("c", CacheParams{256, 2, 64, 16});
    Addr set0_a = 0, set0_b = 128, set0_c = 256;
    cache.fill(*cache.victimFor(set0_a), set0_a, MesiState::Shared);
    cache.fill(*cache.victimFor(set0_b), set0_b, MesiState::Shared);
    cache.touch(*cache.findLine(set0_a));  // b is now LRU
    CacheLine *victim = cache.victimFor(set0_c);
    EXPECT_EQ(victim->tag, set0_b);
}

TEST(Cache, GeometryIndexesTheSetNamedByLineNumberModSets)
{
    for (std::uint32_t line : {32u, 64u, 128u}) {
        for (std::uint32_t assoc : {1u, 4u, 8u, 16u}) {
            for (std::uint32_t sets : {16u, 256u}) {
                SCOPED_TRACE(testing::Message()
                             << "line " << line << " assoc " << assoc
                             << " sets " << sets);
                Cache cache("c", CacheParams{sets * assoc * line, assoc,
                                             line, 16});
                ASSERT_EQ(cache.params().numSets(), sets);
                // Frames are set-major, and an empty set hands out its
                // way 0 first, so set s starts at base + s * assoc.
                const CacheLine *base = cache.victimFor(0);
                auto set_of = [&](Addr a) {
                    return (a / line) & (sets - 1);
                };
                const std::uint32_t target = sets / 2 + 1;
                // Same set, distinct tags, high address bits set and
                // a varying offset inside the line.
                auto collider = [&](std::uint32_t k) {
                    return (Addr(k) << 33) + (Addr(k) * sets + target) *
                        line + (k * 8) % line;
                };
                for (std::uint32_t k = 0; k < assoc; ++k) {
                    Addr a = collider(k);
                    ASSERT_EQ(set_of(a), target);
                    CacheLine *frame = cache.victimFor(a);
                    ASSERT_EQ(frame, base + target * assoc + k);
                    cache.fill(*frame, a, MesiState::Shared);
                    EXPECT_EQ(cache.findLine(a), frame);
                }
                // A line one set over lands in its own set and evicts
                // none of the colliders.
                Addr neighbour = collider(assoc) + line;
                ASSERT_EQ(set_of(neighbour), target + 1);
                CacheLine *nframe = cache.victimFor(neighbour);
                EXPECT_EQ(nframe, base + (target + 1) * assoc);
                EXPECT_FALSE(nframe->valid());
                cache.fill(*nframe, neighbour, MesiState::Shared);
                for (std::uint32_t k = 0; k < assoc; ++k)
                    EXPECT_NE(cache.findLine(collider(k)), nullptr);
                // Re-touch collider 0, so the LRU one is collider 1
                // (collider 0 itself when the set has one way).
                cache.touch(*cache.findLine(collider(0)));
                Addr lru = collider(assoc > 1 ? 1 : 0);
                Addr extra = collider(assoc + 1);
                ASSERT_EQ(set_of(extra), target);
                CacheLine *victim = cache.victimFor(extra);
                EXPECT_EQ(victim->tag, cache.lineAddr(lru));
                cache.fill(*victim, extra, MesiState::Shared);
                EXPECT_EQ(cache.findLine(lru), nullptr);
                EXPECT_EQ(cache.findLine(extra), victim);
                EXPECT_EQ(cache.findLine(neighbour), nframe);
                EXPECT_EQ(cache.validLines(), assoc + 1);
            }
        }
    }
}

TEST(CacheDeathTest, NonPowerOfTwoSetCountAsserts)
{
    for (std::uint32_t line : {32u, 64u, 128u}) {
        EXPECT_DEATH(Cache("c", CacheParams{3 * 4 * line, 4, line, 16}),
                     "numSets\\(\\) - 1");
    }
}

// -------------------------------------------------- coherent hierarchy

struct TestEnv
{
    explicit TestEnv(MemParams p = makeParams())
        : arena(1 << 22), mem(arena, p)
    {
    }

    static MemParams
    makeParams()
    {
        MemParams p;
        p.numCores = 4;
        p.prefetchNextLine = false;  // deterministic expectations
        return p;
    }

    MemArena arena;
    MemSystem mem;
};

/** Counts listener events for one core. */
struct RecordingListener : MemListener
{
    unsigned markEvents = 0;
    unsigned specConflicts = 0;
    unsigned specCapacity = 0;

    void
    marksDiscarded(SmtId, unsigned, unsigned count) override
    {
        markEvents += count;
    }

    void
    specLost(SpecLoss why) override
    {
        if (why == SpecLoss::Conflict)
            ++specConflicts;
        else
            ++specCapacity;
    }
};

TEST(MemSystem, HitAfterMissAndLatencies)
{
    TestEnv env;
    auto miss = env.mem.access(0, 0, 4096, 8, false);
    EXPECT_FALSE(miss.l1Hit);
    EXPECT_GE(miss.latency, env.mem.params().memLat);
    auto hit = env.mem.access(0, 0, 4096, 8, false);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.latency, env.mem.params().l1HitLat);
}

TEST(MemSystem, L2HitAfterRemoteFill)
{
    TestEnv env;
    env.mem.access(0, 0, 4096, 8, false);   // memory -> L2 -> L1(0)
    auto r = env.mem.access(1, 0, 8192, 8, false);
    EXPECT_FALSE(r.l2Hit);
    auto r2 = env.mem.access(2, 0, 4096, 8, false);
    EXPECT_TRUE(r2.l2Hit);  // filled by core 0's miss
}

TEST(MemSystem, WriteInvalidatesRemoteCopies)
{
    TestEnv env;
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.access(1, 0, 4096, 8, false);
    EXPECT_NE(env.mem.l1(0).findLine(4096), nullptr);
    env.mem.access(2, 0, 4096, 8, true);
    EXPECT_EQ(env.mem.l1(0).findLine(4096), nullptr);
    EXPECT_EQ(env.mem.l1(1).findLine(4096), nullptr);
    EXPECT_EQ(env.mem.l1(2).findLine(4096)->state, MesiState::Modified);
}

TEST(MemSystem, UpgradeFromSharedInvalidatesPeers)
{
    TestEnv env;
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.access(1, 0, 4096, 8, false);
    // Core 0 still holds the line (Shared); writing upgrades it.
    auto r = env.mem.access(0, 0, 4096, 8, true);
    EXPECT_TRUE(r.l1Hit);
    EXPECT_EQ(env.mem.l1(0).findLine(4096)->state, MesiState::Modified);
    EXPECT_EQ(env.mem.l1(1).findLine(4096), nullptr);
}

TEST(MemSystem, MarkBitsSetTestReset)
{
    TestEnv env;
    env.mem.access(0, 0, 4096, 8, false);
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096, 8));
    env.mem.setMarks(0, 0, 4096, 8);
    EXPECT_TRUE(env.mem.testMarks(0, 0, 4096, 8));
    // Only the covered sub-block is marked.
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096 + 16, 8));
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096, 64));
    env.mem.resetMarks(0, 0, 4096, 8);
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096, 8));
}

TEST(MemSystem, RemoteStoreDiscardsMarksAndNotifies)
{
    TestEnv env;
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.setMarks(0, 0, 4096, 8);
    env.mem.access(1, 0, 4096, 8, true);  // remote store
    EXPECT_EQ(listener.markEvents, 1u);
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096, 8));
}

TEST(MemSystem, RemoteReadKeepsMarks)
{
    TestEnv env;
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.setMarks(0, 0, 4096, 8);
    env.mem.access(1, 0, 4096, 8, false);  // remote read: downgrade only
    EXPECT_EQ(listener.markEvents, 0u);
    EXPECT_TRUE(env.mem.testMarks(0, 0, 4096, 8));
}

TEST(MemSystem, CapacityEvictionDiscardsMarks)
{
    MemParams p = TestEnv::makeParams();
    p.l1 = CacheParams{1024, 1, 64, 16};  // 16 sets, direct mapped
    p.l2 = CacheParams{1 << 20, 16, 64, 16};
    TestEnv env(p);
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.setMarks(0, 0, 4096, 8);
    // Same set (stride = 1024 bytes in a 16-set cache): evicts.
    env.mem.access(0, 0, 4096 + 1024, 8, false);
    EXPECT_EQ(listener.markEvents, 1u);
}

TEST(MemSystem, InclusiveL2BackInvalidation)
{
    MemParams p = TestEnv::makeParams();
    p.l1 = CacheParams{32 * 1024, 8, 64, 16};
    p.l2 = CacheParams{4096, 1, 64, 16};  // tiny direct-mapped L2
    TestEnv env(p);
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 8192, 8, false);
    env.mem.setMarks(0, 0, 8192, 8);
    // Another core pulls a line mapping to the same L2 set; the L2
    // victim back-invalidates core 0's copy (inclusion), killing the
    // mark even though core 0's L1 had plenty of room — the Fig 19
    // destructive-interference mechanism.
    env.mem.access(1, 0, 8192 + 4096, 8, false);
    EXPECT_EQ(listener.markEvents, 1u);
    EXPECT_EQ(env.mem.l1(0).findLine(8192), nullptr);
}

TEST(MemSystem, ResetMarkAllClearsEverything)
{
    TestEnv env;
    env.mem.access(0, 0, 4096, 8, false);
    env.mem.access(0, 0, 8192, 8, false);
    env.mem.setMarks(0, 0, 4096, 8);
    env.mem.setMarks(0, 0, 8192, 8);
    env.mem.resetMarkAll(0, 0);
    EXPECT_FALSE(env.mem.testMarks(0, 0, 4096, 8));
    EXPECT_FALSE(env.mem.testMarks(0, 0, 8192, 8));
}

TEST(MemSystem, SmtStoreInvalidatesSiblingMarks)
{
    MemParams p = TestEnv::makeParams();
    p.numSmt = 2;
    TestEnv env(p);
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 1, 4096, 8, false);
    env.mem.setMarks(0, 1, 4096, 8);
    // SMT thread 0 of the same core stores to the line: thread 1's
    // marks are invalidated (§3.1) but the line stays present.
    env.mem.access(0, 0, 4096, 8, true);
    EXPECT_EQ(listener.markEvents, 1u);
    EXPECT_FALSE(env.mem.testMarks(0, 1, 4096, 8));
    EXPECT_NE(env.mem.l1(0).findLine(4096), nullptr);
}

TEST(MemSystem, SpecLinesAbortOnRemoteConflict)
{
    TestEnv env;
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 4096, 8, false);
    EXPECT_TRUE(env.mem.setSpec(0, 4096, 8, false));
    // Remote read of a spec-read line: no conflict.
    env.mem.access(1, 0, 4096, 8, false);
    EXPECT_EQ(listener.specConflicts, 0u);
    // Remote write: conflict.
    env.mem.access(2, 0, 4096, 8, true);
    EXPECT_EQ(listener.specConflicts, 1u);
}

TEST(MemSystem, SpecWriteLineAbortsOnRemoteRead)
{
    TestEnv env;
    RecordingListener listener;
    env.mem.setListener(0, &listener);
    env.mem.access(0, 0, 4096, 8, true);
    EXPECT_TRUE(env.mem.setSpec(0, 4096, 8, true));
    env.mem.access(1, 0, 4096, 8, false);  // remote read observes it
    EXPECT_EQ(listener.specConflicts, 1u);
}

TEST(MemSystem, PrefetchPullsNextLine)
{
    MemParams p = TestEnv::makeParams();
    p.prefetchNextLine = true;
    TestEnv env(p);
    env.mem.access(0, 0, 4096, 8, false);
    EXPECT_NE(env.mem.l1(0).findLine(4096 + 64), nullptr);
    EXPECT_GE(env.mem.stats().get("prefetches"), 1u);
}

TEST(MemSystem, StoreMissPrefetchTakesOwnership)
{
    // §7.4: a store miss on L prefetches L+1 read-for-exclusive, so
    // the prefetch alone invalidates remote Shared copies of L+1.
    MemParams p = TestEnv::makeParams();
    p.prefetchNextLine = true;
    TestEnv env(p);
    const Addr next = 4096 + 64;
    env.mem.access(1, 0, next, 8, false);
    env.mem.access(2, 0, next, 8, false);
    ASSERT_NE(env.mem.l1(1).findLine(next), nullptr);
    ASSERT_EQ(env.mem.l1(1).findLine(next)->state, MesiState::Shared);
    env.mem.access(0, 0, 4096, 8, true);
    const CacheLine *own = env.mem.l1(0).findLine(next);
    ASSERT_NE(own, nullptr);
    EXPECT_TRUE(own->prefetched);
    EXPECT_EQ(own->state, MesiState::Exclusive);
    EXPECT_EQ(env.mem.l1(1).findLine(next), nullptr);
    EXPECT_EQ(env.mem.l1(2).findLine(next), nullptr);
}

TEST(MemSystem, LineSpanningAccessTouchesBothLines)
{
    TestEnv env;
    env.mem.access(0, 0, 4096 + 60, 8, false);  // spans 4096 and 4160
    EXPECT_NE(env.mem.l1(0).findLine(4096), nullptr);
    EXPECT_NE(env.mem.l1(0).findLine(4160), nullptr);
}

// ------------------------------------------ inline L1-hit fast path

/** Every coherence counter of @p mem, one per line. */
std::string
statsOf(MemSystem &mem)
{
    std::ostringstream os;
    mem.stats().dump(os);
    return os.str();
}

/**
 * Run @p setup on two identical hierarchies, then make the same
 * access on both: on one through tryL1Hit() (falling back to access()
 * when it declines), on the other through access() alone. Both must
 * end with the same result, counters, line state and LRU stamp.
 * @return whether tryL1Hit() took the access.
 */
bool
fastPathMatchesAccess(const MemParams &p,
                      const std::function<void(MemSystem &)> &setup,
                      CoreId core, SmtId smt, Addr addr, unsigned size,
                      bool is_write)
{
    TestEnv fast(p), ref(p);
    setup(fast.mem);
    setup(ref.mem);
    std::string before = statsOf(fast.mem);
    AccessResult rf;
    bool took = fast.mem.tryL1Hit(core, addr, size, is_write, rf);
    if (!took) {
        // Declining changes nothing.
        EXPECT_EQ(statsOf(fast.mem), before);
        EXPECT_EQ(rf.latency, 0u);
        EXPECT_FALSE(rf.l1Hit);
        rf = fast.mem.access(core, smt, addr, size, is_write);
    }
    AccessResult rr = ref.mem.access(core, smt, addr, size, is_write);
    EXPECT_EQ(rf.latency, rr.latency);
    EXPECT_EQ(rf.l1Hit, rr.l1Hit);
    EXPECT_EQ(rf.l2Hit, rr.l2Hit);
    EXPECT_EQ(statsOf(fast.mem), statsOf(ref.mem));
    for (CoreId c = 0; c < p.numCores; ++c) {
        for (Addr a : {addr, addr + size - 1}) {
            const CacheLine *lf = fast.mem.l1(c).findLine(a);
            const CacheLine *lr = ref.mem.l1(c).findLine(a);
            EXPECT_EQ(lf == nullptr, lr == nullptr);
            if (lf && lr) {
                EXPECT_EQ(lf->state, lr->state);
                EXPECT_EQ(lf->lruStamp, lr->lruStamp);
                EXPECT_EQ(lf->markBits, lr->markBits);
            }
        }
    }
    return took;
}

TEST(L1HitPath, ReadHitChargesAsAccess)
{
    auto warm = [](MemSystem &m) { m.access(0, 0, 4096, 8, false); };
    EXPECT_TRUE(fastPathMatchesAccess(TestEnv::makeParams(), warm, 0, 0,
                                      4096 + 8, 8, false));
}

TEST(L1HitPath, ExclusiveAndModifiedWriteHitsChargeAsAccess)
{
    // A lone reader's fill is Exclusive; a write fill is Modified.
    auto exclusive = [](MemSystem &m) {
        m.access(0, 0, 4096, 8, false);
        ASSERT_EQ(m.l1(0).findLine(4096)->state, MesiState::Exclusive);
    };
    auto modified = [](MemSystem &m) {
        m.access(0, 0, 4096, 8, true);
        ASSERT_EQ(m.l1(0).findLine(4096)->state, MesiState::Modified);
    };
    EXPECT_TRUE(fastPathMatchesAccess(TestEnv::makeParams(), exclusive, 0,
                                      0, 4096, 8, true));
    EXPECT_TRUE(fastPathMatchesAccess(TestEnv::makeParams(), modified, 0,
                                      0, 4096, 8, true));
}

TEST(L1HitPath, SharedWriteTakesTheUpgradePath)
{
    auto shared = [](MemSystem &m) {
        m.access(0, 0, 4096, 8, false);
        m.access(1, 0, 4096, 8, false);
        ASSERT_EQ(m.l1(0).findLine(4096)->state, MesiState::Shared);
    };
    EXPECT_FALSE(fastPathMatchesAccess(TestEnv::makeParams(), shared, 0,
                                       0, 4096, 8, true));
}

TEST(L1HitPath, LineCrossingAccessTakesTheFullPath)
{
    auto both = [](MemSystem &m) {
        m.access(0, 0, 4096, 8, false);
        m.access(0, 0, 4160, 8, false);
    };
    EXPECT_FALSE(fastPathMatchesAccess(TestEnv::makeParams(), both, 0, 0,
                                       4096 + 60, 8, false));
    EXPECT_FALSE(fastPathMatchesAccess(TestEnv::makeParams(), both, 0, 0,
                                       4096 + 60, 8, true));
}

TEST(L1HitPath, SmtWriteHitTakesTheFullPath)
{
    MemParams p = TestEnv::makeParams();
    p.numSmt = 2;
    // Thread 1 marked the line; thread 0's store must clear them.
    auto marked = [](MemSystem &m) {
        m.access(0, 1, 4096, 8, true);
        m.setMarks(0, 1, 4096, 8);
    };
    EXPECT_FALSE(fastPathMatchesAccess(p, marked, 0, 0, 4096, 8, true));
    // Reads still hit inline with SMT on.
    EXPECT_TRUE(fastPathMatchesAccess(p, marked, 0, 0, 4096, 8, false));
}

TEST(L1HitPath, HitOutsideTheMruWayTakesTheFullPath)
{
    MemParams p = TestEnv::makeParams();
    // Two lines of one L1 set: the second fill becomes the MRU way.
    Addr set_stride = Addr(p.l1.numSets()) * p.l1.lineSize;
    auto two = [set_stride](MemSystem &m) {
        m.access(0, 0, 4096, 8, false);
        m.access(0, 0, 4096 + set_stride, 8, false);
    };
    EXPECT_FALSE(fastPathMatchesAccess(p, two, 0, 0, 4096, 8, false));
    EXPECT_TRUE(fastPathMatchesAccess(p, two, 0, 0, 4096 + set_stride, 8,
                                      false));
}

// ---------------------------------------- directory / frame consistency

/**
 * Check the hierarchy's host-side bookkeeping against its tag state:
 * every valid L1 line's recorded L2 frame holds its tag and that
 * core's sharer bit, and every sharer bit has an L1 copy.
 */
void
expectDirectoryConsistent(MemSystem &mem)
{
    const unsigned cores = mem.params().numCores;
    for (CoreId c = 0; c < cores; ++c) {
        mem.l1(c).forEachLine([&](CacheLine &line) {
            CacheLine &l2line = mem.l2().lineAt(line.l2Frame);
            ASSERT_TRUE(l2line.valid()) << "core " << c;
            ASSERT_EQ(l2line.tag, line.tag) << "core " << c;
            ASSERT_TRUE(l2line.sharers & (std::uint32_t(1) << c))
                << "core " << c << " line " << line.tag;
        });
    }
    mem.l2().forEachLine([&](CacheLine &l2line) {
        for (std::uint32_t bits = l2line.sharers; bits; bits &= bits - 1) {
            auto c = static_cast<CoreId>(std::countr_zero(bits));
            ASSERT_LT(c, cores);
            ASSERT_NE(mem.l1(c).findLine(l2line.tag), nullptr)
                << "core " << c << " line " << l2line.tag;
        }
    });
}

TEST(MemSystem, L2FrameIndexAndSharersStayConsistent)
{
    for (bool directory : {true, false}) {
        SCOPED_TRACE(directory ? "sharer directory" : "reference scan");
        MemParams p;
        p.numCores = 4;
        // A small inclusive L2 (twice one L1) forces back-invalidation.
        p.l1 = CacheParams{2 * 1024, 2, 64, 16};
        p.l2 = CacheParams{4 * 1024, 4, 64, 16};
        p.prefetchNextLine = true;
        p.prefetchDegree = 2;
        p.sharerDirectory = directory;
        TestEnv env(p);
        std::uint32_t x = 2024;
        auto next = [&x] {
            x = x * 1103515245u + 12345u;
            return x >> 8;
        };
        for (int i = 0; i < 20000; ++i) {
            auto c = static_cast<CoreId>(next() % 4);
            Addr a = 64 * (next() % 512) + 8 * (next() % 8);
            bool wr = next() % 3 == 0;
            AccessResult r;
            if (!env.mem.tryL1Hit(c, a, 8, wr, r))
                env.mem.access(c, 0, a, 8, wr);
            if (next() % 4 == 0)
                env.mem.setMarks(c, 0, a, 8);
            if (next() % 97 == 0)
                env.mem.forceEvictMarked(c, 1 + next() % 4,
                                         next() % 2 == 0);
            if (i % 500 == 0)
                expectDirectoryConsistent(env.mem);
        }
        expectDirectoryConsistent(env.mem);
        // The streams reached every path the bookkeeping crosses.
        EXPECT_GT(env.mem.stats().get("back_invalidations"), 100u);
        EXPECT_GT(env.mem.stats().get("prefetches"), 100u);
        EXPECT_GT(env.mem.stats().get("upgrades"), 10u);
        EXPECT_GT(env.mem.stats().get("c0.mark_discards"), 100u);
    }
}

} // namespace
} // namespace hastm
