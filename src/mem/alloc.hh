/**
 * @file
 * First-fit free-list allocator over the simulated arena.
 *
 * Simulated programs allocate nodes, logs, and transaction-record
 * tables from here. Address 0 is reserved as the null address, and
 * the first 64 bytes of the arena are never handed out.
 */

#ifndef HASTM_MEM_ALLOC_HH
#define HASTM_MEM_ALLOC_HH

#include <cstddef>
#include <map>

#include "sim/types.hh"

namespace hastm {

class MemArena;

/**
 * Simple first-fit allocator with coalescing. Not a timing model —
 * allocation cost is charged separately by callers that care (the STM
 * charges cycles for log-chunk allocation slow paths).
 */
class SimAllocator
{
  public:
    /**
     * Manage [base, base+length) of @p arena.
     * @param base First managed byte; must be at least 64.
     */
    SimAllocator(MemArena &arena, Addr base, std::size_t length);

    /**
     * Allocate @p size bytes aligned to @p align (a power of two).
     * Panics on exhaustion — simulated heaps are sized generously and
     * running out indicates a configuration bug.
     */
    Addr alloc(std::size_t size, std::size_t align = 16);

    /** Allocate and zero-fill. */
    Addr allocZeroed(std::size_t size, std::size_t align = 16);

    /** Return a block obtained from alloc(). */
    void free(Addr addr);

    /**
     * Ignore frees of unallocated addresses instead of panicking.
     * Only test harnesses that deliberately corrupt execution (e.g.
     * StmConfig::testSkipCommitValidation lets doomed transactions
     * commit stale state, so two of them can free the same node)
     * enable this: such runs must fail through the replay oracle, not
     * crash the host process.
     */
    void setLenientFree(bool lenient) { lenientFree_ = lenient; }

    /** Bytes currently handed out. */
    std::size_t allocatedBytes() const { return allocated_; }

    /** Number of live allocations. */
    std::size_t liveBlocks() const { return sizes_.size(); }

    /** First managed byte; no valid allocation lies below this. */
    Addr base() const { return base_; }

  private:
    MemArena &arena_;
    Addr base_;
    std::map<Addr, std::size_t> freeBlocks_;  //!< addr -> length
    std::map<Addr, std::size_t> sizes_;       //!< live allocation sizes
    std::size_t allocated_ = 0;
    bool lenientFree_ = false;

    void insertFree(Addr addr, std::size_t len);
};

} // namespace hastm

#endif // HASTM_MEM_ALLOC_HH
