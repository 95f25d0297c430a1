/**
 * @file
 * Multi-core coherent memory hierarchy.
 *
 * Private per-core L1 data caches, one shared inclusive L2, and main
 * memory (the MemArena). Coherence is MESI with functional-immediate
 * semantics: a store's invalidations take effect at the instant the
 * store executes, which is exact under the deterministic single-host-
 * thread scheduler.
 *
 * The inclusive L2 doubles as a directory: each L2 line carries a
 * bitmap of the L1s holding a copy, so snoops, ownership upgrades,
 * and inclusion back-invalidations visit only actual sharers instead
 * of probing every core (MemParams::sharerDirectory gates the fast
 * path; the reference all-cores scan is kept for equivalence tests).
 * Each L1 line records the frame of its L2 copy, so dropping an L1
 * copy clears its sharer bit without an L2 lookup, and a miss looks
 * its L2 line up once for both the snoop and the fill.
 *
 * The common case never leaves this header: tryL1Hit() charges a
 * single-line hit in the set's most-recently-hit way that needs no
 * coherence work, with the same hit routine accessLine() uses, and
 * cores try it before access().
 *
 * The hierarchy is where the paper's hardware mechanisms live:
 *  - per-thread mark bits on L1 sub-blocks (§3.1, Fig 1), whose
 *    discard events (snoop invalidation, eviction, inclusive-L2
 *    back-invalidation) are reported to the owning core so it can
 *    bump its mark counter;
 *  - speculative read/write bits used by the bounded HTM machine,
 *    whose loss events (conflict or capacity) abort hardware
 *    transactions.
 */

#ifndef HASTM_MEM_MEM_SYSTEM_HH
#define HASTM_MEM_MEM_SYSTEM_HH

#include <memory>
#include <vector>

#include "mem/arena.hh"
#include "mem/cache.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace hastm {

/** Why a speculative (HTM) line was lost. */
enum class SpecLoss : std::uint8_t {
    Conflict,   //!< remote access touched a speculative line
    Capacity,   //!< eviction / back-invalidation displaced it
};

/**
 * Per-core callback interface. cpu::Core implements this to maintain
 * the architected mark counter; the HTM machine implements the
 * speculative-loss part to abort hardware transactions synchronously
 * (rolling back functionally-applied speculative stores before the
 * conflicting access proceeds).
 */
class MemListener
{
  public:
    virtual ~MemListener() = default;

    /**
     * @p count marked lines of SMT thread @p smt, filter @p filter
     * were discarded.
     */
    virtual void marksDiscarded(SmtId smt, unsigned filter,
                                unsigned count) = 0;

    /** A speculative line was lost; must roll back the HW txn now. */
    virtual void specLost(SpecLoss why) = 0;
};

/** Latency and structural parameters of the hierarchy. */
struct MemParams
{
    unsigned numCores = 4;
    unsigned numSmt = 1;           //!< SMT threads per core (<= kMaxSmt)
    CacheParams l1{32 * 1024, 8, 64, 16};
    CacheParams l2{1024 * 1024, 16, 64, 16};
    Cycles l1HitLat = 3;
    Cycles l2HitLat = 14;
    Cycles memLat = 120;
    Cycles storeHitLat = 1;        //!< store queue absorbs hit stores
    Cycles upgradeLat = 18;        //!< S->M ownership upgrade
    Cycles dirtyForwardLat = 30;   //!< cache-to-cache M forward
    /**
     * Next-line prefetch on L1 miss. Store-miss prefetches fetch with
     * ownership (read-for-exclusive), invalidating remote copies —
     * one of the §7.4 mechanisms by which "prefetches and speculative
     * accesses from one core kick out marked cache lines from another
     * core".
     */
    bool prefetchNextLine = true;
    unsigned prefetchDegree = 1;   //!< next lines fetched per miss
    /**
     * Host-side fast path: snoops, upgrades, and back-invalidations
     * consult the inclusive L2's per-line sharer bitmap and visit
     * only the cores that actually hold the line, instead of probing
     * every L1. Purely a host-time optimisation — coherence events
     * and all counters are bit-identical either way (the reference
     * all-cores scan stays available for equivalence tests).
     */
    bool sharerDirectory = true;
};

/** Result of one memory access. */
struct AccessResult
{
    Cycles latency = 0;
    bool l1Hit = false;
    bool l2Hit = false;
};

/** The full coherent hierarchy. */
class MemSystem
{
  public:
    MemSystem(MemArena &arena, const MemParams &params);

    /** Register the listener for @p core (Core or HTM machine proxy). */
    void setListener(CoreId core, MemListener *listener);

    /**
     * Perform a data access of @p size bytes at @p addr by (core,smt).
     * Handles line-spanning accesses. Coherence actions (remote
     * invalidations, mark discards, HTM aborts) happen before return.
     */
    AccessResult access(CoreId core, SmtId smt, Addr addr, unsigned size,
                        bool is_write);

    /**
     * The inline L1-hit path, tried before access(). It takes a
     * single-line access that hits the line in its L1 set's
     * most-recently-hit way, when the hit needs no coherence work: a
     * read, or a write to an Exclusive/Modified line without SMT
     * siblings. It then charges exactly what access() would and
     * returns true; otherwise it changes nothing and returns false.
     */
    bool
    tryL1Hit(CoreId core, Addr addr, unsigned size, bool is_write,
             AccessResult &res)
    {
        Cache &l1 = *l1s_[core];
        return l1.withinLine(addr, size) &&
            l1Hit(core, l1.mruLine(addr), is_write, res);
    }

    // ---- mark-bit operations (used by cpu::MarkIsa) ----

    /** OR the sub-block mask covering [addr,addr+len) into the marks. */
    void setMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                  unsigned filter = 0);

    /** Clear the mark bits covering [addr,addr+len). */
    void resetMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                    unsigned filter = 0);

    /**
     * AND of the mark bits covering [addr,addr+len); false when any
     * covered line is absent (its marks were discarded with it).
     */
    bool testMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                   unsigned filter = 0) const;

    /** Clear every mark bit of (core,smt,filter) in its L1. */
    void resetMarkAll(CoreId core, SmtId smt, unsigned filter = 0);

    // ---- HTM speculative-bit operations (used by htm::HtmMachine) ----

    /**
     * Tag the lines covering [addr,addr+len) as speculatively
     * accessed.
     * @return false if any covered line was already displaced (the
     *         caller must treat the transaction as capacity-aborted).
     */
    bool setSpec(CoreId core, Addr addr, unsigned len, bool is_write);

    /** Drop all speculative tags of @p core (commit or abort). */
    void clearSpecAll(CoreId core);

    // ---- fault injection (used by sim::FaultInjector) ----

    /**
     * Force-evict up to @p max_lines currently *marked* lines from
     * @p core's L1 — an adversarial stand-in for the §7.4 capacity /
     * prefetch interference that displaces marked lines. With
     * @p from_l2 the lines are evicted from the inclusive L2 instead,
     * back-invalidating every sharer.
     * @return the number of lines actually evicted.
     */
    unsigned forceEvictMarked(CoreId core, unsigned max_lines,
                              bool from_l2);

    // ---- introspection ----

    MemArena &arena() { return arena_; }
    const MemParams &params() const { return params_; }
    Cache &l1(CoreId core) { return *l1s_[core]; }
    Cache &l2() { return *l2_; }
    StatGroup &stats() { return stats_; }

    /** Reset every coherence/event counter (cache contents stay). */
    void resetCounters() { stats_.resetAll(); }

  private:
    /**
     * The L1-hit test shared by tryL1Hit() and accessLine(): charge a
     * hit on @p line (nullptr = miss) in @p core's L1 unless it is a
     * write that needs coherence work first (a Shared line's upgrade,
     * or SMT siblings' marks to clear). Returns false, having changed
     * nothing, when it does not charge.
     */
    bool
    l1Hit(CoreId core, CacheLine *line, bool is_write, AccessResult &res)
    {
        if (!line || (is_write && (line->state == MesiState::Shared ||
                                   params_.numSmt != 1)))
            return false;
        chargeL1Hit(core, *line, is_write, res);
        return true;
    }

    /**
     * The one L1-hit charge: count the hit, touch @p line's LRU stamp,
     * and add the hit latency. A write leaves the line Modified.
     */
    void
    chargeL1Hit(CoreId core, CacheLine &line, bool is_write,
                AccessResult &res)
    {
        l1Hits_[core].inc();
        res.l1Hit = true;
        l1s_[core]->touch(line);
        if (is_write) {
            line.state = MesiState::Modified;
            res.latency += params_.storeHitLat;
        } else {
            res.latency += params_.l1HitLat;
        }
    }

    /**
     * Call @p fn(core, line) for every L1 other than @p self holding
     * @p la, in ascending core order. @p l2line is @p la's line in the
     * inclusive L2, nullptr if absent. Uses the L2 sharer directory
     * when enabled, else the reference scan over every core. @p fn
     * may invalidate the line it is handed.
     */
    template <typename Fn>
    void forEachRemoteHolder(Addr la, CacheLine *l2line, CoreId self,
                             Fn &&fn);
    /** Invalidate @p line in @p core's L1, reporting mark/spec losses. */
    void invalidateL1Line(CoreId core, CacheLine &line, SpecLoss why);

    /** Evict (same reporting, Capacity reason). */
    void evictL1Line(CoreId core, CacheLine &line);

    /**
     * Ensure @p la is present in the L2, evicting inclusively.
     * @p line is @p la's L2 line from the caller's own lookup (nullptr
     * if absent). Sets @p hit if the line was already resident and
     * returns the L2 line (never null) so callers can update its
     * sharer directory without a second tag lookup.
     */
    CacheLine *l2Fill(Addr la, CacheLine *line, AccessResult &res,
                      bool &hit);

    /**
     * Fill @p la into @p core's L1 with @p state, evicting a victim.
     * @p l2line is @p la's line in the inclusive L2 (from l2Fill).
     */
    void l1Fill(CoreId core, Addr la, MesiState state, bool prefetched,
                CacheLine *l2line);

    /** One-line access (addr..addr+len within a single line). */
    void accessLine(CoreId core, SmtId smt, Addr addr, unsigned len,
                    bool is_write, AccessResult &res);

    /** Issue a next-line prefetch after a demand miss. */
    void prefetch(CoreId core, Addr next_la, bool exclusive);

    MemArena &arena_;
    MemParams params_;
    std::unique_ptr<Cache> l2_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<MemListener *> listeners_;

    StatGroup stats_;
    std::vector<Counter> l1Hits_, l1Misses_, l2Hits_, l2Misses_;
    std::vector<Counter> markDiscards_, specConflicts_, specCapacity_;
    Counter prefetches_, backInvals_, upgrades_, dirtyForwards_;
};

} // namespace hastm

#endif // HASTM_MEM_MEM_SYSTEM_HH
