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

/**
 * The native runner. crossValidateNative differs from a plain run only
 * in asking the verdict for the sim replay.
 */
NativeExperimentResult
runNative(const NativeExperimentConfig &cfg, bool sim_replay)
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
    backend.run({[&](TmExec &t) { ds = populateDs(t, cfg, opLogs[0]); }});
    backend.resetStats();

    // ---- measured phase: fixed total work split across threads ----
    std::vector<std::function<void(TmExec &)>> bodies;
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        bodies.push_back([&, tid](TmExec &t) {
            // A single body runs inline on the caller, whose affinity
            // must not change; spawned workers exit with the run.
            if (cfg.threads > 1)
                pinToCpuSlot(tid);
            // Disjoint mix: thread t owns keyRange/threads keys.
            std::uint64_t lo = 0, span = cfg.keyRange;
            if (cfg.disjoint && cfg.threads > 1) {
                span = cfg.keyRange / cfg.threads;
                if (span == 0)
                    span = 1;
                lo = span * tid;
            }
            runOpMix(t, ds.ops, cfg, tid, lo, span, opLogs[tid]);
        });
    }
    std::uint64_t t0 = hostNowNanos();
    backend.run(bodies);
    std::uint64_t t1 = hostNowNanos();

    NativeExperimentResult result;
    result.tm = backend.totalStats();
    // Per-thread capture must happen here too: the verdict below runs
    // on thread 0 and would pollute its counters.
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
        std::uint64_t done = cfg.totalOps / cfg.threads * cfg.threads;
        result.opsPerSec = double(done) * 1e9 / double(result.hostNanos);
    }

    // ---- verdict (single-threaded, still transactional: the native
    // STM has no capacity bound, so whole-structure walks are safe) ----
    if (cfg.recordOps) {
        for (auto &l : opLogs)
            result.opLog.insert(result.opLog.end(), l.begin(), l.end());
    }
    NativeSession &sess = backend.session();
    static_cast<NativeRunVerdict &>(result) = checkNativeRun(
        sess, ds.ops, cfg.recordOps ? &result.opLog : nullptr,
        cfg.workload, cfg.hashBuckets, cfg.seed, sim_replay);
    if (NativeFaultInjector *inj = sess.runtime().fault())
        result.faultSequenceHash = inj->sequenceHashAll();
    return result;
}

} // namespace

std::string
NativeRunVerdict::diag() const
{
    if (!nativeInvariantsOk)
        return "native invariants: " + nativeInvariantDiag;
    if (!oracleOk)
        return "oracle: " + oracleDiag;
    if (!simReplayOk)
        return "sim replay: " + simReplayDiag;
    return {};
}

NativeRunVerdict
checkNativeRun(NativeSession &sess, const DsOps &ops,
               std::vector<OpRecord> *log, WorkloadKind workload,
               unsigned hash_buckets, std::uint64_t seed, bool sim_replay)
{
    NativeRunVerdict v;

    // ---- native protocol invariant sweep ----
    auto leak = [&](const std::string &what) {
        v.nativeInvariantsOk = false;
        if (!v.nativeInvariantDiag.empty())
            v.nativeInvariantDiag += " | ";
        v.nativeInvariantDiag += what;
    };
    for (unsigned tid = 0; tid < sess.numThreads(); ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        if (!diag.empty())
            leak("thread " + std::to_string(tid) + ": " + diag);
    }
    v.gateQuiescent = sess.runtime().gate().quiescent();
    if (!v.gateQuiescent)
        leak("gate not quiescent");

    // ---- final state ----
    TmExec &t0 = sess.thread(0);
    v.checksum = ops.checksum(t0);
    v.finalSize = ops.size(t0);
    v.invariantOk = ops.invariant(t0);
    if (!log)
        return v;

    // ---- replay oracle over the serialization-ordered log ----
    std::sort(log->begin(), log->end(), opOrderLess);
    OracleOutcome oracle =
        replayOps(*log, v.checksum, v.finalSize, v.invariantOk, seed);
    v.oracleChecked = true;
    v.oracleOk = oracle.ok;
    v.oracleDiag = std::move(oracle.diag);

    // ---- Sequential-sim replay ----
    if (sim_replay) {
        SimBackendConfig sc;
        sc.session.scheme = TmScheme::Sequential;
        sc.session.numThreads = 1;
        SimBackend sim(sc);
        ReplayOutcome rep =
            replayThroughBackend(sim, workload, hash_buckets, *log);
        v.simReplayChecked = true;
        if (!rep.ok) {
            v.simReplayDiag = rep.diag;
        } else if (!rep.invariantOk) {
            v.simReplayDiag = "broke the structural invariant";
        } else if (rep.finalSize != v.finalSize ||
                   rep.checksum != v.checksum) {
            std::ostringstream ss;
            ss << "final state differs: native size=" << v.finalSize
               << " checksum=" << v.checksum << ", sim size="
               << rep.finalSize << " checksum=" << rep.checksum;
            v.simReplayDiag = ss.str();
        }
        v.simReplayOk = v.simReplayDiag.empty();
    }
    return v;
}

NativeExperimentResult
runNativeDataStructure(const NativeExperimentConfig &cfg)
{
    return runNative(cfg, false);
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
            bool res = applyOp(t, ds.ops, op.kind, op.key, op.value);
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
crossValidateNative(const NativeExperimentConfig &cfg,
                    NativeExperimentResult *native_out)
{
    NativeExperimentConfig ncfg = cfg;
    ncfg.recordOps = true;
    NativeExperimentResult native = runNative(ncfg, true);
    CrossCheckOutcome out;
    if (!native.ok()) {
        out.ok = false;
        std::ostringstream ss;
        ss << native.diag() << " [workload=" << workloadName(cfg.workload)
           << " threads=" << cfg.threads << " seed=" << cfg.seed << "]";
        out.diag = ss.str();
    }
    if (native_out)
        *native_out = std::move(native);
    return out;
}

} // namespace hastm
