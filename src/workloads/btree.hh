/**
 * @file
 * Transactional B+tree (§7 workloads).
 *
 * Order-8 B+tree with proactive splits on the way down. Keys within
 * a node are contiguous, giving the high spatial locality / cache
 * reuse (~68 %) the paper measures for its Btree — this is the
 * workload where HASTM's read-barrier filtering shines (Fig 16/17).
 * Deletes are lazy (no rebalancing), which keeps separators valid and
 * matches the benchmark's steady-state population.
 */

#ifndef HASTM_WORKLOADS_BTREE_HH
#define HASTM_WORKLOADS_BTREE_HH

#include <cstdint>

#include "stm/tm_iface.hh"

namespace hastm {

class Collector;

/** Ordered map from uint64 keys to uint64 values. */
class Btree
{
  public:
    explicit Btree(TmExec &t);

    bool containsOp(TmExec &t, std::uint64_t key);
    bool insertOp(TmExec &t, std::uint64_t key, std::uint64_t value);
    bool removeOp(TmExec &t, std::uint64_t key);

    // Raw bodies (inside an atomic block).
    bool contains(TmExec &t, std::uint64_t key);
    bool insert(TmExec &t, std::uint64_t key, std::uint64_t value);
    bool remove(TmExec &t, std::uint64_t key);
    std::uint64_t get(TmExec &t, std::uint64_t key, bool &found);

    std::uint64_t sizeOp(TmExec &t);
    std::uint64_t checksumOp(TmExec &t);

    /** Verify leaf-chain ordering in one transaction. */
    bool checkInvariantOp(TmExec &t);

    void registerRoots(Collector &gc);

    static constexpr unsigned kMaxKeys = 8;

  private:
    // Node field slots (8 bytes each). Field byte offset = 8 * slot.
    static constexpr unsigned kIsLeaf = 0;      // slot 0
    static constexpr unsigned kNKeys = 8;       // slot 1
    static unsigned keyOff(unsigned i) { return 16 + 8 * i; }      // 2..9
    static unsigned childOff(unsigned i) { return 80 + 8 * i; }    // 10..18
    static unsigned valOff(unsigned i) { return 80 + 8 * i; }      // 10..17
    static constexpr unsigned kNextLeaf = 80 + 8 * 8;              // slot 18
    static constexpr unsigned kFieldBytes = 19 * 8;
    static constexpr std::uint32_t kInternalPtrMask = 0x7fc00;
    static constexpr std::uint32_t kLeafPtrMask = 0x40000;

    Addr allocNode(TmExec &t, bool leaf);

    /** Index of the child to descend into / key position in a leaf. */
    unsigned findSlot(TmExec &t, Addr node, unsigned nkeys,
                      std::uint64_t key);

    /** Split the full child at @p idx of @p parent. */
    void splitChild(TmExec &t, Addr parent, unsigned idx);

    /** Leftmost leaf (for scans). */
    Addr firstLeaf(TmExec &t);

    Addr rootHolder_;
};

} // namespace hastm

#endif // HASTM_WORKLOADS_BTREE_HH
