/**
 * @file
 * Transactional chained hash table (§7 workloads).
 *
 * Coarse-grained atomic sections: every operation is one transaction,
 * as the paper's benchmarks do ("the atomic sections encapsulate the
 * code that coarse-grained locking would synchronize on"). Hashing
 * spreads nodes across buckets, so intra-transaction cache reuse is
 * tiny (< 3 %, §7.3) — the HASTM benefit here comes from read-log
 * elision and validation, not from filtering.
 *
 * Each bucket is its own one-field object so conflict detection is
 * per-bucket under object granularity too; the bucket directory is a
 * host-side table standing in for a statically-addressed array.
 */

#ifndef HASTM_WORKLOADS_HASHTABLE_HH
#define HASTM_WORKLOADS_HASHTABLE_HH

#include <cstdint>
#include <vector>

#include "stm/tm_iface.hh"

namespace hastm {

class Collector;

/** Chained hash map from uint64 keys to uint64 values. */
class HashTable
{
  public:
    /** Allocate the buckets through @p t (outside transactions). */
    HashTable(TmExec &t, unsigned num_buckets);

    // Whole-operation transactions (the benchmark interface).
    bool containsOp(TmExec &t, std::uint64_t key);
    bool insertOp(TmExec &t, std::uint64_t key, std::uint64_t value);
    bool removeOp(TmExec &t, std::uint64_t key);

    // Raw bodies; must run inside an atomic block (for nesting tests).
    bool contains(TmExec &t, std::uint64_t key);
    bool insert(TmExec &t, std::uint64_t key, std::uint64_t value);
    bool remove(TmExec &t, std::uint64_t key);

    /** Value lookup; @p found reports hit/miss. Raw body. */
    std::uint64_t get(TmExec &t, std::uint64_t key, bool &found);

    /** Element count (single full walk inside one transaction). */
    std::uint64_t sizeOp(TmExec &t);

    /** Order-independent content fingerprint (one transaction). */
    std::uint64_t checksumOp(TmExec &t);

    /** Register the bucket objects as GC roots. */
    void registerRoots(Collector &gc);

  private:
    // Node field offsets.
    static constexpr unsigned kKey = 0;
    static constexpr unsigned kVal = 8;
    static constexpr unsigned kNext = 16;
    static constexpr std::uint32_t kNodePtrMask = 0b100;

    // Bucket object: single head-pointer field.
    static constexpr unsigned kHead = 0;

    Addr bucketFor(TmExec &t, std::uint64_t key) const;

    std::vector<Addr> buckets_;
    unsigned numBuckets_;
};

} // namespace hastm

#endif // HASTM_WORKLOADS_HASHTABLE_HH
