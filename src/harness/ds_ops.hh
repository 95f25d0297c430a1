/**
 * @file
 * Type-erased handle over the transactional data structures, shared
 * by the simulated experiment runner, the native runner, and the
 * cross-backend replay. The ops close over TmExec, so one DsInstance
 * works on either backend (constructed via whichever thread built
 * the structure).
 *
 * Also the one op-mix body both experiment runners use: populateDs()
 * and runOpMix() draw the same Rng streams on either substrate, so a
 * sim run and a native run of one OpMixConfig perform the identical
 * multiset of operations and differ only in interleaving.
 */

#ifndef HASTM_HARNESS_DS_OPS_HH
#define HASTM_HARNESS_DS_OPS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "harness/oracle.hh"
#include "workloads/bst.hh"
#include "workloads/btree.hh"
#include "workloads/hashtable.hh"

namespace hastm {

/** Which transactional data structure an experiment drives. */
enum class WorkloadKind : std::uint8_t { HashTable, Bst, Btree };

const char *workloadName(WorkloadKind k);

/** The data-structure op mix both experiment runners share. */
struct OpMixConfig
{
    WorkloadKind workload = WorkloadKind::Bst;
    unsigned threads = 1;
    std::uint64_t totalOps = 4096;  //!< measured phase, split evenly
    unsigned updatePct = 20;        //!< paper: 20 % of operations update
    std::uint64_t initialSize = 1024;
    std::uint64_t keyRange = 8192;
    std::uint64_t seed = 42;
    unsigned hashBuckets = 256;
    /**
     * Record every committed operation and replay the log against the
     * sequential specification after the run (harness/oracle.hh).
     * Host-side only: on the simulator, recording charges no cycles.
     */
    bool recordOps = false;
};

/** Type-erased operations over one data-structure instance. */
struct DsOps
{
    std::function<bool(TmExec &, std::uint64_t)> contains;
    std::function<bool(TmExec &, std::uint64_t, std::uint64_t)> insert;
    std::function<bool(TmExec &, std::uint64_t)> remove;
    std::function<std::uint64_t(TmExec &)> checksum;
    std::function<std::uint64_t(TmExec &)> size;
    std::function<bool(TmExec &)> invariant;
};

/** One constructed data structure plus its erased ops. */
struct DsInstance
{
    std::unique_ptr<HashTable> ht;
    std::unique_ptr<Bst> bst;
    std::unique_ptr<Btree> btree;
    DsOps ops;
};

/**
 * Build @p kind transactionally through @p t (which must be able to
 * run atomic blocks right now) and wire up the erased ops.
 */
inline DsInstance
makeDs(TmExec &t, WorkloadKind kind, unsigned hash_buckets)
{
    DsInstance d;
    switch (kind) {
      case WorkloadKind::HashTable: {
        d.ht = std::make_unique<HashTable>(t, hash_buckets);
        HashTable *ht = d.ht.get();
        d.ops.contains = [ht](TmExec &t2, std::uint64_t k) {
            return ht->containsOp(t2, k);
        };
        d.ops.insert = [ht](TmExec &t2, std::uint64_t k, std::uint64_t v) {
            return ht->insertOp(t2, k, v);
        };
        d.ops.remove = [ht](TmExec &t2, std::uint64_t k) {
            return ht->removeOp(t2, k);
        };
        d.ops.checksum = [ht](TmExec &t2) { return ht->checksumOp(t2); };
        d.ops.size = [ht](TmExec &t2) { return ht->sizeOp(t2); };
        d.ops.invariant = [](TmExec &) { return true; };
        break;
      }
      case WorkloadKind::Bst: {
        d.bst = std::make_unique<Bst>(t);
        Bst *bst = d.bst.get();
        d.ops.contains = [bst](TmExec &t2, std::uint64_t k) {
            return bst->containsOp(t2, k);
        };
        d.ops.insert = [bst](TmExec &t2, std::uint64_t k,
                             std::uint64_t v) {
            return bst->insertOp(t2, k, v);
        };
        d.ops.remove = [bst](TmExec &t2, std::uint64_t k) {
            return bst->removeOp(t2, k);
        };
        d.ops.checksum = [bst](TmExec &t2) { return bst->checksumOp(t2); };
        d.ops.size = [bst](TmExec &t2) { return bst->sizeOp(t2); };
        d.ops.invariant = [bst](TmExec &t2) {
            return bst->checkInvariantOp(t2);
        };
        break;
      }
      case WorkloadKind::Btree: {
        d.btree = std::make_unique<Btree>(t);
        Btree *btree = d.btree.get();
        d.ops.contains = [btree](TmExec &t2, std::uint64_t k) {
            return btree->containsOp(t2, k);
        };
        d.ops.insert = [btree](TmExec &t2, std::uint64_t k,
                               std::uint64_t v) {
            return btree->insertOp(t2, k, v);
        };
        d.ops.remove = [btree](TmExec &t2, std::uint64_t k) {
            return btree->removeOp(t2, k);
        };
        d.ops.checksum = [btree](TmExec &t2) {
            return btree->checksumOp(t2);
        };
        d.ops.size = [btree](TmExec &t2) { return btree->sizeOp(t2); };
        d.ops.invariant = [btree](TmExec &t2) {
            return btree->checkInvariantOp(t2);
        };
        break;
      }
    }
    return d;
}

/** Run one map operation (@p value is read by inserts only). */
inline bool
applyOp(TmExec &t, const DsOps &ops, OpKind kind, std::uint64_t key,
        std::uint64_t value)
{
    switch (kind) {
      case OpKind::Insert:
        return ops.insert(t, key, value);
      case OpKind::Remove:
        return ops.remove(t, key);
      case OpKind::Contains:
        break;
    }
    return ops.contains(t, key);
}

/**
 * Build @p cfg's structure through @p t and populate it from the
 * populate stream (seed*7919+1) until initialSize inserts were fresh.
 * With recordOps, each insert is appended to @p log as an epoch-0
 * record of core 0.
 */
DsInstance populateDs(TmExec &t, const OpMixConfig &cfg,
                      std::vector<OpRecord> &log);

/**
 * Thread @p tid's measured share: totalOps/threads ops drawn from
 * stream seed + 104729*(tid+1), keys in [lo, lo + span), updatePct %
 * updates split evenly between inserts and removes so the population
 * stays near its initial size. With recordOps, each op is appended to
 * @p log as an epoch-1 record of core @p tid.
 */
void runOpMix(TmExec &t, const DsOps &ops, const OpMixConfig &cfg,
              unsigned tid, std::uint64_t lo, std::uint64_t span,
              std::vector<OpRecord> &log);

} // namespace hastm

#endif // HASTM_HARNESS_DS_OPS_HH
