#include "harness/native_experiment.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "backend/native_backend.hh"
#include "backend/sim_backend.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace hastm {

namespace {

std::uint64_t
hostNowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Pin the calling thread to the @p slot-th CPU the process may run on
 * (wrapping past the last), so a multi-thread measurement gets one
 * core per thread whatever the scheduler's placement policy. Without
 * it, a host whose cpuset has scheduler load balancing off keeps every
 * thread on the CPU that spawned it, and a 4-thread cell measures one
 * core. No-op where the affinity calls are unavailable or fail.
 */
void
pinToCpuSlot(unsigned slot)
{
#if defined(__linux__)
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    unsigned want = slot % unsigned(CPU_COUNT(&allowed));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || want-- != 0)
            continue;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pthread_setaffinity_np(pthread_self(), sizeof one, &one);
        return;
    }
#else
    (void)slot;
#endif
}

} // namespace

NativeExperimentResult
runNativeDataStructure(const NativeExperimentConfig &cfg)
{
    HASTM_ASSERT(cfg.threads >= 1);
    NativeSessionConfig nc;
    nc.numThreads = cfg.threads;
    nc.stm = cfg.stm;
    nc.heapBytes = cfg.heapBytes;
    nc.fault = cfg.fault;
    NativeBackend backend(nc);

    std::vector<std::vector<OpRecord>> opLogs(cfg.threads);

    // ---- build + populate (thread 0): same stream as the sim runner ----
    DsInstance ds;
    DsOps &ops = ds.ops;
    backend.run({[&](TmExec &t) {
        ds = makeDs(t, cfg.workload, cfg.hashBuckets);
        Rng rng(cfg.seed * 7919 + 1);
        std::uint64_t inserted = 0;
        while (inserted < cfg.initialSize) {
            std::uint64_t key = rng.range(cfg.keyRange);
            std::uint64_t val = key * 3 + 1;
            bool fresh = ops.insert(t, key, val);
            if (cfg.recordOps) {
                opLogs[0].push_back({t.commitStamp(), 0, 0,
                                     OpKind::Insert, key, val, fresh,
                                     opLogs[0].size()});
            }
            if (fresh)
                ++inserted;
        }
    }});
    backend.resetStats();

    // ---- measured phase: fixed total work split across threads ----
    std::uint64_t per_thread = cfg.totalOps / cfg.threads;
    std::vector<std::function<void(TmExec &)>> bodies;
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        bodies.push_back([&, tid](TmExec &t) {
            // A single body runs inline on the caller, whose affinity
            // must not change; spawned workers exit with the run.
            if (cfg.threads > 1)
                pinToCpuSlot(tid);
            Rng rng(cfg.seed + 104729ull * (tid + 1));
            auto record = [&](OpKind kind, std::uint64_t key,
                              std::uint64_t val, bool res) {
                if (cfg.recordOps) {
                    opLogs[tid].push_back({t.commitStamp(), tid, 1,
                                           kind, key, val, res,
                                           opLogs[tid].size()});
                }
            };
            // Disjoint mix: thread t owns keyRange/threads keys.
            std::uint64_t lo = 0, span = cfg.keyRange;
            if (cfg.disjoint && cfg.threads > 1) {
                span = cfg.keyRange / cfg.threads;
                if (span == 0)
                    span = 1;
                lo = span * tid;
            }
            for (std::uint64_t i = 0; i < per_thread; ++i) {
                std::uint64_t key = lo + rng.range(span);
                std::uint64_t dice = rng.range(100);
                if (dice < cfg.updatePct) {
                    if (rng.chancePct(50)) {
                        record(OpKind::Insert, key, key ^ dice,
                               ops.insert(t, key, key ^ dice));
                    } else {
                        record(OpKind::Remove, key, 0,
                               ops.remove(t, key));
                    }
                } else {
                    record(OpKind::Contains, key, 0,
                           ops.contains(t, key));
                }
            }
        });
    }
    std::uint64_t t0 = hostNowNanos();
    backend.run(bodies);
    std::uint64_t t1 = hostNowNanos();

    NativeExperimentResult result;
    result.tm = backend.totalStats();
    // Per-thread capture must happen here too: the verification phase
    // below runs on thread 0 and would pollute its counters.
    result.perThread.resize(cfg.threads);
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        const TmStats &ts = backend.thread(tid).stats();
        NativeThreadOutcome &out = result.perThread[tid];
        out.commits = ts.commits;
        out.aborts = ts.aborts;
        std::uint64_t attempts = ts.commits + ts.aborts;
        if (attempts > 0)
            out.abortRate = double(ts.aborts) / double(attempts);
    }
    result.hostNanos = t1 - t0;
    if (result.hostNanos > 0) {
        result.opsPerSec = double(per_thread * cfg.threads) * 1e9 /
                           double(result.hostNanos);
    }

    // ---- post-run verification (single-threaded, still transactional:
    // the native STM has no capacity bound, so whole-structure walks
    // are safe here) ----
    backend.run({[&](TmExec &t) {
        result.checksum = ops.checksum(t);
        result.finalSize = ops.size(t);
        result.invariantOk = ops.invariant(t);
    }});

    // ---- native protocol invariant sweep (always on; the session is
    // quiescent here, every body joined) ----
    NativeSession &sess = backend.session();
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        if (!diag.empty()) {
            result.nativeInvariantsOk = false;
            if (!result.nativeInvariantDiag.empty())
                result.nativeInvariantDiag += " | ";
            result.nativeInvariantDiag +=
                "thread " + std::to_string(tid) + ": " + diag;
        }
    }
    if (!sess.runtime().gate().quiescent()) {
        result.nativeInvariantsOk = false;
        if (!result.nativeInvariantDiag.empty())
            result.nativeInvariantDiag += " | ";
        result.nativeInvariantDiag += "gate not quiescent";
    }
    if (NativeFaultInjector *inj = sess.runtime().fault())
        result.faultSequenceHash = inj->sequenceHashAll();

    // ---- replay oracle over the serialization-ordered log ----
    if (cfg.recordOps) {
        for (auto &l : opLogs) {
            result.opLog.insert(result.opLog.end(), l.begin(), l.end());
        }
        std::sort(result.opLog.begin(), result.opLog.end(), opOrderLess);
        OracleOutcome verdict =
            replayOps(result.opLog, result.checksum, result.finalSize,
                      result.invariantOk, cfg.seed);
        result.oracleChecked = true;
        result.oracleOk = verdict.ok;
        result.oracleDiag = std::move(verdict.diag);
    }
    return result;
}

ReplayOutcome
replayThroughBackend(TmBackend &backend, WorkloadKind workload,
                     unsigned hash_buckets,
                     const std::vector<OpRecord> &log)
{
    ReplayOutcome out;
    backend.run({[&](TmExec &t) {
        DsInstance ds = makeDs(t, workload, hash_buckets);
        for (std::size_t i = 0; i < log.size(); ++i) {
            const OpRecord &op = log[i];
            bool res;
            switch (op.kind) {
              case OpKind::Insert:
                res = ds.ops.insert(t, op.key, op.value);
                break;
              case OpKind::Remove:
                res = ds.ops.remove(t, op.key);
                break;
              case OpKind::Contains:
              default:
                res = ds.ops.contains(t, op.key);
                break;
            }
            if (res != op.result) {
                out.ok = false;
                std::ostringstream ss;
                ss << "replay op " << i << "/" << log.size() << " ("
                   << opKindName(op.kind) << " key=" << op.key
                   << " core=" << op.core << " epoch="
                   << unsigned(op.epoch) << " stamp=" << op.stamp
                   << ") returned " << (res ? "true" : "false")
                   << " on " << backendKindName(backend.kind())
                   << " but the recording backend observed "
                   << (op.result ? "true" : "false");
                out.diag = ss.str();
                return;
            }
        }
        out.checksum = ds.ops.checksum(t);
        out.finalSize = ds.ops.size(t);
        out.invariantOk = ds.ops.invariant(t);
    }});
    return out;
}

CrossCheckOutcome
crossValidateNative(const NativeExperimentConfig &cfg)
{
    return crossValidateNative(cfg, nullptr);
}

CrossCheckOutcome
crossValidateNative(const NativeExperimentConfig &cfg,
                    NativeExperimentResult *native_out)
{
    CrossCheckOutcome out;
    auto fail = [&](const std::string &what) {
        out.ok = false;
        std::ostringstream ss;
        ss << what << " [workload=" << workloadName(cfg.workload)
           << " threads=" << cfg.threads << " seed=" << cfg.seed << "]";
        out.diag = ss.str();
    };

    NativeExperimentConfig ncfg = cfg;
    ncfg.recordOps = true;
    NativeExperimentResult native = runNativeDataStructure(ncfg);
    if (native_out)
        *native_out = native;
    if (!native.nativeInvariantsOk) {
        fail("native invariants: " + native.nativeInvariantDiag);
        return out;
    }
    if (!native.oracleOk) {
        fail("native oracle: " + native.oracleDiag);
        return out;
    }

    SimBackendConfig sc;
    sc.session.scheme = TmScheme::Sequential;
    sc.session.numThreads = 1;
    SimBackend sim(sc);
    ReplayOutcome rep = replayThroughBackend(sim, cfg.workload,
                                             cfg.hashBuckets,
                                             native.opLog);
    if (!rep.ok) {
        fail("sim replay diverged: " + rep.diag);
        return out;
    }
    if (!rep.invariantOk) {
        fail("sim replay broke the structural invariant");
        return out;
    }
    if (rep.finalSize != native.finalSize ||
        rep.checksum != native.checksum) {
        std::ostringstream ss;
        ss << "final state differs: native size=" << native.finalSize
           << " checksum=" << native.checksum << ", sim size="
           << rep.finalSize << " checksum=" << rep.checksum;
        fail(ss.str());
        return out;
    }
    return out;
}

} // namespace hastm
