/**
 * @file
 * Set-associative cache model with per-thread mark bits.
 *
 * The cache is tags-only: data always lives in the MemArena. Each
 * line carries, per SMT thread, one mark bit per 16-byte sub-block
 * (four bits for a 64-byte line — the paper's configuration, §3.1),
 * plus speculative read/write bits used by the bounded HTM machine.
 *
 * Host-performance fast paths (no simulated-behaviour change):
 *  - the set index is a shift and a mask precomputed from the
 *    power-of-two geometry, not two divisions per lookup;
 *  - a per-set MRU way hint lets repeat hits skip the associativity
 *    scan in findLine(), and mruLine() checks only that way, inline,
 *    for MemSystem's L1-hit path;
 *  - each L1 line records its inclusive-L2 frame (CacheLine::l2Frame,
 *    reached through lineAt()), so the L1 side finds its directory
 *    entry without an L2 tag lookup;
 *  - interest lists of possibly-marked / possibly-speculative lines
 *    let resetMarkAll / clearSpecAll walk only those lines instead of
 *    the whole tag array;
 *  - the valid-line count is maintained incrementally.
 */

#ifndef HASTM_MEM_CACHE_HH
#define HASTM_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace hastm {

/** MESI coherence states. */
enum class MesiState : std::uint8_t { Invalid, Shared, Exclusive, Modified };

/** Maximum SMT threads per core supported by the mark-bit storage. */
constexpr unsigned kMaxSmt = 2;

/**
 * Independent mark-bit filters per hardware thread (§3: "one could
 * support multiple filters concurrently with independent mark bits to
 * enable additional software uses"). Filter 0 drives the HASTM read
 * barriers; filter 1 is used by the write-barrier / undo-log
 * filtering extension (§5's "additional mark bits").
 */
constexpr unsigned kNumFilters = 2;

/** Geometry and policy parameters for one cache level. */
struct CacheParams
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineSize = 64;
    std::uint32_t subBlock = 16;  //!< mark-bit granularity (bytes)

    std::uint32_t numSets() const { return sizeBytes / (assoc * lineSize); }
    std::uint32_t subBlocksPerLine() const { return lineSize / subBlock; }
};

/** One cache line's tag-side state. */
struct CacheLine
{
    Addr tag = 0;                 //!< line-aligned address
    std::uint64_t lruStamp = 0;

    /**
     * Directory sidecar, used on L2 lines only: bitmap of the L1
     * caches currently holding a copy of this line (the shared L2 is
     * inclusive, so it can answer "which cores must be snooped" for
     * every line). Maintained by MemSystem on every L1 fill and
     * invalidation; purely a host-side acceleration — coherence
     * actions driven through it are identical to an all-cores scan.
     */
    std::uint32_t sharers = 0;

    /**
     * Used on L1 lines only: the frame index (Cache::frameOf) of this
     * line in the inclusive L2, set by MemSystem at fill. Inclusion
     * keeps the L2 line in that frame for as long as the L1 copy is
     * valid, so the L1 side reaches its directory entry without a tag
     * lookup.
     */
    std::uint32_t l2Frame = 0;

    MesiState state = MesiState::Invalid;
    bool prefetched = false;      //!< brought in by the prefetcher

    /**
     * Mark-bit mask per (SMT thread, filter); bit i covers
     * sub-block i.
     */
    std::array<std::array<std::uint8_t, kNumFilters>, kMaxSmt> markBits{};

    /** HTM speculative-read / speculative-write bits. */
    bool specRead = false;
    bool specWrite = false;

    /**
     * Host-side membership flags for the owning cache's marked- and
     * spec-line lists (see Cache::noteMarked / forEachMarkedLine).
     */
    bool inMarkedList = false;
    bool inSpecList = false;

    bool valid() const { return state != MesiState::Invalid; }

    bool
    anyMark() const
    {
        for (const auto &per_smt : markBits)
            for (auto m : per_smt)
                if (m)
                    return true;
        return false;
    }

    bool anySpec() const { return specRead || specWrite; }

    /** Clear all transient metadata (on fill or invalidate). */
    void
    clearMeta()
    {
        for (auto &per_smt : markBits)
            per_smt.fill(0);
        specRead = specWrite = false;
        prefetched = false;
        sharers = 0;
        inMarkedList = inSpecList = false;
    }
};

/**
 * A single cache level. Lookup, LRU victim selection, and the
 * metadata bookkeeping live here; coherence policy lives in MemSystem.
 */
class Cache
{
  public:
    Cache(std::string name, const CacheParams &params);

    const CacheParams &params() const { return params_; }
    const std::string &name() const { return name_; }

    /** Line-align an address. */
    Addr
    lineAddr(Addr a) const
    {
        return a & ~static_cast<Addr>(params_.lineSize - 1);
    }

    /** True when [a, a+size) lies within one line. */
    bool
    withinLine(Addr a, unsigned size) const
    {
        return (a & (params_.lineSize - 1)) + size <= params_.lineSize;
    }

    /** Find the line holding @p a; nullptr on miss. */
    CacheLine *findLine(Addr a);
    const CacheLine *findLine(Addr a) const;

    /**
     * The line holding @p a if it sits in its set's most-recently-hit
     * way, else nullptr (the line may still be in another way).
     */
    CacheLine *
    mruLine(Addr a)
    {
        std::uint32_t si = setIndex(a);
        CacheLine &line = lines_[std::size_t(si) * params_.assoc +
                                 mruWay_[si]];
        return line.valid() && line.tag == lineAddr(a) ? &line : nullptr;
    }

    /** Frame index of @p line: its position in the set-major array. */
    std::uint32_t
    frameOf(const CacheLine &line) const
    {
        return static_cast<std::uint32_t>(&line - lines_.data());
    }

    /** The line in frame @p frame (see frameOf). */
    CacheLine &lineAt(std::uint32_t frame) { return lines_[frame]; }

    /**
     * Choose a victim frame in @p a's set: an invalid frame if one
     * exists, else the LRU-oldest. Never returns nullptr.
     */
    CacheLine *victimFor(Addr a);

    /** Touch a line's LRU stamp. */
    void touch(CacheLine &line) { line.lruStamp = ++lruClock_; }

    /**
     * Install @p a into @p frame (which the caller obtained from
     * victimFor and already handled the eviction of). Metadata is
     * cleared: a newly filled line has no marks and no spec bits.
     */
    void fill(CacheLine &frame, Addr a, MesiState state);

    /**
     * Invalidate @p line: drop its coherence state, metadata, and
     * list memberships, keeping the valid-line count exact. All
     * invalidations must come through here (not by assigning
     * MesiState::Invalid directly) or validLines() drifts.
     */
    void invalidate(CacheLine &line);

    /** Iterate all valid lines (used by resetMarkAll / clearSpecAll). */
    template <typename Fn>
    void
    forEachLine(Fn &&fn)
    {
        for (auto &line : lines_)
            if (line.valid())
                fn(line);
    }

    /**
     * Record that @p line now carries at least one mark bit so the
     * next forEachMarkedLine() walk will visit it. Idempotent.
     */
    void
    noteMarked(CacheLine &line)
    {
        if (!line.inMarkedList) {
            line.inMarkedList = true;
            markedLines_.push_back(frameOf(line));
        }
    }

    /** Same bookkeeping for the HTM speculative-bit list. */
    void
    noteSpec(CacheLine &line)
    {
        if (!line.inSpecList) {
            line.inSpecList = true;
            specLines_.push_back(frameOf(line));
        }
    }

    /**
     * Visit every valid line that may carry mark bits, instead of
     * scanning all sets x ways. Stale entries (lines invalidated or
     * fully unmarked since they were noted) are compacted away during
     * the walk. @p fn may clear marks but must not set new ones.
     */
    template <typename Fn>
    void
    forEachMarkedLine(Fn &&fn)
    {
        walkList(markedLines_, std::forward<Fn>(fn),
                 [](const CacheLine &l) { return l.anyMark(); },
                 &CacheLine::inMarkedList);
    }

    /** Spec-bit analogue of forEachMarkedLine(). */
    template <typename Fn>
    void
    forEachSpecLine(Fn &&fn)
    {
        walkList(specLines_, std::forward<Fn>(fn),
                 [](const CacheLine &l) { return l.anySpec(); },
                 &CacheLine::inSpecList);
    }

    /** Sub-block mask covering [addr, addr+len) within addr's line. */
    std::uint8_t subBlockMask(Addr addr, unsigned len) const;

    /** Number of valid lines (O(1); maintained by fill/invalidate). */
    unsigned validLines() const { return validCount_; }

  private:
    std::uint32_t
    setIndex(Addr a) const
    {
        return static_cast<std::uint32_t>(a >> lineShift_) & setMask_;
    }

    /**
     * Shared walk-and-compact over an interest list. Entries whose
     * flag is false (duplicates, invalidated lines) are skipped and
     * dropped; entries that stop satisfying @p live after @p fn are
     * dropped; survivors keep their flag. Flags are held false during
     * the walk so duplicated indices are visited exactly once.
     */
    template <typename Fn, typename Live>
    void
    walkList(std::vector<std::uint32_t> &list, Fn &&fn, Live &&live,
             bool CacheLine::*flag)
    {
        std::size_t out = 0;
        for (std::size_t k = 0; k < list.size(); ++k) {
            CacheLine &line = lines_[list[k]];
            if (!(line.*flag))
                continue;
            line.*flag = false;
            if (!line.valid() || !live(line))
                continue;
            fn(line);
            if (live(line))
                list[out++] = list[k];
        }
        list.resize(out);
        for (std::uint32_t idx : list)
            lines_[idx].*flag = true;
    }

    std::string name_;
    CacheParams params_;
    std::vector<CacheLine> lines_;   //!< sets * assoc, set-major
    std::vector<std::uint8_t> mruWay_;  //!< per-set most-recent-hit way
    std::vector<std::uint32_t> markedLines_;  //!< lines that may be marked
    std::vector<std::uint32_t> specLines_;    //!< lines that may be spec
    std::uint64_t lruClock_ = 0;
    unsigned validCount_ = 0;
    unsigned lineShift_ = 0;     //!< log2(lineSize)
    std::uint32_t setMask_ = 0;  //!< numSets - 1
};

} // namespace hastm

#endif // HASTM_MEM_CACHE_HH
