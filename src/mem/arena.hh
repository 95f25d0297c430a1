/**
 * @file
 * The simulated physical address space.
 *
 * Everything the simulated program touches — transaction records,
 * descriptors, logs, and the application data structures themselves —
 * lives in this arena and is addressed with simulated Addr values.
 * The arena is the single source of truth for data; the cache models
 * in mem/cache.hh are tags-only (exact, because the simulator is
 * single-host-threaded and coherence is applied at access time).
 *
 * The host buffer is an anonymous zero-fill-on-demand mapping
 * (mem/zero_pages.hh): every address reads 0 until first written, and
 * a host page becomes resident only when the simulated program touches
 * it. A machine's 64 MB arena therefore costs about what its workload
 * uses, with no up-front zeroing pass.
 */

#ifndef HASTM_MEM_ARENA_HH
#define HASTM_MEM_ARENA_HH

#include <cstring>
#include <functional>
#include <type_traits>
#include <vector>

#include "mem/zero_pages.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace hastm {

/**
 * A named span of the simulated address space. Workloads and the
 * managed heap register the arenas they carve out (per-thread working
 * sets, GC semispaces) so address-keyed metadata — notably the
 * sharded transaction-record table — can be partitioned by region
 * instead of hashed through one global map.
 */
struct MemRegion
{
    Addr base = kNullAddr;
    std::size_t bytes = 0;
};

/** Flat byte-addressable simulated memory. */
class MemArena
{
  public:
    /** @param bytes Size of the simulated physical memory. */
    explicit MemArena(std::size_t bytes);

    MemArena(const MemArena &) = delete;
    MemArena &operator=(const MemArena &) = delete;

    /** Read a trivially-copyable T at simulated address @p a. */
    template <typename T>
    T
    read(Addr a) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(a, sizeof(T));
        T v;
        std::memcpy(&v, data_.get() + a, sizeof(T));
        return v;
    }

    /** Write a trivially-copyable T at simulated address @p a. */
    template <typename T>
    void
    write(Addr a, T v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(a, sizeof(T));
        std::memcpy(data_.get() + a, &v, sizeof(T));
    }

    /** Raw host pointer for bulk operations (GC copying, memset). */
    std::uint8_t *
    hostPtr(Addr a, std::size_t len)
    {
        checkRange(a, len);
        return data_.get() + a;
    }

    std::size_t size() const { return size_; }

    // ---- region registry (host-side metadata, no simulated cost) ----

    /**
     * Register the span [base, base+bytes) as a distinct region and
     * notify listeners. Registration order is the simulated program
     * order (single-host-threaded), so everything derived from it is
     * deterministic. Re-defining an identical region is a no-op.
     */
    void defineRegion(Addr base, std::size_t bytes);

    /** Forget a region (its owner freed the memory). Listeners are
     *  not notified: consumers that materialised per-region state
     *  keep it, preserving a stable address→metadata mapping. */
    void undefineRegion(Addr base);

    const std::vector<MemRegion> &regions() const { return regions_; }

    using RegionListener = std::function<void(const MemRegion &)>;

    /** Subscribe to future defineRegion calls; returns a token. */
    std::size_t addRegionListener(RegionListener fn);

    /** Unsubscribe (pass the addRegionListener token). */
    void removeRegionListener(std::size_t token);

  private:
    void
    checkRange(Addr a, std::size_t len) const
    {
        // a + len could wrap; len <= size_ - a cannot once a <= size_.
        if (a == kNullAddr || a > size_ || len > size_ - a)
            panic("arena access out of range: addr %#llx len %zu",
                  static_cast<unsigned long long>(a), len);
    }

    std::size_t size_;
    ZeroPages<std::uint8_t> data_;
    std::vector<MemRegion> regions_;
    std::vector<std::pair<std::size_t, RegionListener>> listeners_;
    std::size_t nextListener_ = 0;
};

} // namespace hastm

#endif // HASTM_MEM_ARENA_HH
