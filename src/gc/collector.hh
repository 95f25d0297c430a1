/**
 * @file
 * Stop-the-world semispace (Cheney) collector.
 *
 * Demonstrates and tests the paper's language-integration claim (§2,
 * §5): the collector parks every other thread at a safepoint, traces
 * from application roots *and* from the suspended transactions' logs
 * (read/write-set records, undo-log targets, logged object-reference
 * values), copies live objects, rewrites the transactional metadata,
 * and resumes. Suspended transactions keep running and commit without
 * aborting — they merely lose their mark bits (the collector bumps
 * each core's mark counter) and fall back to one full software
 * validation, exactly as §5 describes.
 */

#ifndef HASTM_GC_COLLECTOR_HH
#define HASTM_GC_COLLECTOR_HH

#include <unordered_map>
#include <vector>

#include "gc/heap.hh"
#include "sim/types.hh"

namespace hastm {

class Core;
class StmThread;

/** Outcome of one collection. */
struct GcResult
{
    std::size_t objectsCopied = 0;
    std::size_t bytesCopied = 0;
    std::size_t objectsReclaimed = 0;
};

/** Cheney copying collector for a ManagedHeap. */
class Collector
{
  public:
    explicit Collector(ManagedHeap &heap) : heap_(heap) {}

    /** Register a host-side root slot (updated in place by collect). */
    void addRoot(Addr *slot) { roots_.push_back(slot); }

    /** Register a transactional thread whose logs must be traced. */
    void addThread(StmThread *thread) { threads_.push_back(thread); }

    /**
     * Run a full collection from the simulated thread bound to
     * @p gc_core. Stops the world, copies, fixes up, resumes.
     */
    GcResult collect(Core &gc_core);

  private:
    /** Copy @p obj to to-space if live and not yet forwarded. */
    Addr forward(Addr obj);

    /** Translate any (possibly interior) from-space address. */
    Addr translate(Addr a) const;

    ManagedHeap &heap_;
    std::vector<Addr *> roots_;
    std::vector<StmThread *> threads_;

    // Per-collection state.
    std::unordered_map<Addr, Addr> forwarding_;
    std::map<Addr, std::size_t> newObjects_;
    std::vector<Addr> scanQueue_;
    Addr toBump_ = kNullAddr;
};

} // namespace hastm

#endif // HASTM_GC_COLLECTOR_HH
