#include "harness/ds_ops.hh"

#include "sim/rng.hh"

namespace hastm {

const char *
workloadName(WorkloadKind k)
{
    switch (k) {
      case WorkloadKind::HashTable: return "hashtable";
      case WorkloadKind::Bst:       return "bst";
      case WorkloadKind::Btree:     return "btree";
      default:                      return "unknown";
    }
}

DsInstance
populateDs(TmExec &t, const OpMixConfig &cfg, std::vector<OpRecord> &log)
{
    DsInstance ds = makeDs(t, cfg.workload, cfg.hashBuckets);
    Rng rng(cfg.seed * 7919 + 1);
    std::uint64_t inserted = 0;
    while (inserted < cfg.initialSize) {
        std::uint64_t key = rng.range(cfg.keyRange);
        std::uint64_t val = key * 3 + 1;
        bool fresh = ds.ops.insert(t, key, val);
        if (cfg.recordOps) {
            log.push_back({t.commitStamp(), 0, 0, OpKind::Insert, key, val,
                           fresh, log.size()});
        }
        if (fresh)
            ++inserted;
    }
    return ds;
}

void
runOpMix(TmExec &t, const DsOps &ops, const OpMixConfig &cfg, unsigned tid,
         std::uint64_t lo, std::uint64_t span, std::vector<OpRecord> &log)
{
    Rng rng(cfg.seed + 104729ull * (tid + 1));
    std::uint64_t count = cfg.totalOps / cfg.threads;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint64_t key = lo + rng.range(span);
        std::uint64_t dice = rng.range(100);
        OpKind kind = OpKind::Contains;
        std::uint64_t val = 0;
        if (dice < cfg.updatePct) {
            if (rng.chancePct(50)) {
                kind = OpKind::Insert;
                val = key ^ dice;
            } else {
                kind = OpKind::Remove;
            }
        }
        bool res = applyOp(t, ops, kind, key, val);
        if (cfg.recordOps) {
            log.push_back({t.commitStamp(), tid, 1, kind, key, val, res,
                           log.size()});
        }
    }
}

} // namespace hastm
