/**
 * @file
 * A managed (garbage-collected) object heap over simulated memory.
 *
 * Supports the language-integration requirement of §2: a moving
 * collector must be able to suspend transactions, inspect and rewrite
 * their buffered state (logs carry metadata for precise GC), move
 * objects they reference, and resume them without aborting. Objects
 * use the standard 16-byte header ([txrec][gc meta]); the meta word's
 * pointer map drives precise tracing.
 */

#ifndef HASTM_GC_HEAP_HH
#define HASTM_GC_HEAP_HH

#include <cstdint>
#include <map>

#include "sim/types.hh"

namespace hastm {

class Core;
class Machine;

/** Semispace bump-allocated heap for managed objects. */
class ManagedHeap
{
  public:
    /**
     * Carve two semispaces of @p half_bytes each out of the machine's
     * simulated heap.
     */
    ManagedHeap(Machine &machine, std::size_t half_bytes);
    ~ManagedHeap();
    ManagedHeap(const ManagedHeap &) = delete;
    ManagedHeap &operator=(const ManagedHeap &) = delete;

    /**
     * Allocate an object with @p field_bytes of field storage (header
     * included automatically), timed on @p core.
     * @return the object address, or kNullAddr when from-space is
     *         full (run a collection and retry).
     */
    Addr alloc(Core &core, std::size_t field_bytes,
               std::uint32_t ptr_mask);

    /** Bytes currently allocated in from-space. */
    std::size_t usedBytes() const { return bump_ - fromBase_; }

    /** Number of live objects after the last collection / allocs. */
    std::size_t objectCount() const { return objects_.size(); }

    /** True when @p a points into the current from-space. */
    bool
    contains(Addr a) const
    {
        return a >= fromBase_ && a < fromEnd_;
    }

    /**
     * Object containing (possibly interior) address @p a, or
     * kNullAddr. Used to trace interior pointers from undo logs.
     */
    Addr objectContaining(Addr a) const;

    /** Total size (header + fields, padded) of the object at @p obj. */
    std::size_t objectBytes(Addr obj) const;

    Machine &machine() { return machine_; }

  private:
    friend class Collector;

    Machine &machine_;
    std::size_t halfBytes_;
    Addr spaceA_;
    Addr spaceB_;
    Addr fromBase_;
    Addr fromEnd_;
    Addr bump_;

    /** Live objects in from-space: base address -> total bytes. */
    std::map<Addr, std::size_t> objects_;
};

} // namespace hastm

#endif // HASTM_GC_HEAP_HH
