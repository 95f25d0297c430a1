/**
 * @file
 * Native-backend experiment driver plus the cross-backend replay.
 *
 * runNativeDataStructure() is the host-thread counterpart of
 * runDataStructure(): the same populate/measure phases, the same Rng
 * streams (populate from seed*7919+1, thread t measured from
 * seed + 104729*(t+1)), the same op mix — so a sim run and a native
 * run of one config perform the identical multiset of operations and
 * differ only in interleaving. Because the native backend stamps
 * commits from one global counter at the serialization point, the
 * recorded op log admits the same replay-oracle check as the
 * simulator's, and — the stronger test — can be replayed through the
 * *simulated* backend to prove the two substrates implement the same
 * data-structure semantics (replayThroughBackend /
 * crossValidateNative).
 */

#ifndef HASTM_HARNESS_NATIVE_EXPERIMENT_HH
#define HASTM_HARNESS_NATIVE_EXPERIMENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "backend/tm_backend.hh"
#include "harness/ds_ops.hh"
#include "harness/oracle.hh"
#include "native/native_fault.hh"
#include "stm/stm.hh"

namespace hastm {

/** Configuration of one native (host-thread) experiment run. */
struct NativeExperimentConfig
{
    WorkloadKind workload = WorkloadKind::Bst;
    unsigned threads = 1;
    std::uint64_t totalOps = 4096;
    unsigned updatePct = 20;        //!< paper: 20 % of operations update
    std::uint64_t initialSize = 1024;
    std::uint64_t keyRange = 8192;
    std::uint64_t seed = 42;
    unsigned hashBuckets = 256;
    StmConfig stm;
    std::size_t heapBytes = 64ull << 20;
    /**
     * Partition the key range per thread: thread t draws keys from
     * [t*keyRange/threads, (t+1)*keyRange/threads) in the measured
     * phase, so transactions conflict only through record aliasing
     * and structure connectivity (scaling-sweep "disjoint" mix). The
     * populate phase still covers the whole range.
     */
    bool disjoint = false;
    /**
     * Record every committed operation: run the replay oracle over
     * the log and return it (serialization order) in the result for
     * cross-backend replay.
     */
    bool recordOps = false;
    /**
     * Deterministic fault injection (native/native_fault.hh), applied
     * to the measured phase's session. Off by default; the torture
     * campaign (bench/stress_native) sets a named profile + seed.
     */
    NativeFaultParams fault;
};

/** One thread's measured-phase contribution (schema v7). */
struct NativeThreadOutcome
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;     //!< conflict aborts (all kinds)
    double abortRate = 0.0;       //!< aborts / (commits + aborts)
};

/** Measured outcome of one native experiment. */
struct NativeExperimentResult
{
    TmStats tm;

    /** Per-thread measured-phase commits/aborts (indexed by tid). */
    std::vector<NativeThreadOutcome> perThread;
    std::uint64_t checksum = 0;      //!< final structure fingerprint
    std::uint64_t finalSize = 0;
    bool invariantOk = true;

    // ---- oracle verdict (recordOps runs only) ----
    bool oracleChecked = false;
    bool oracleOk = true;
    std::string oracleDiag;

    /** Serialization-ordered op log (recordOps runs only). */
    std::vector<OpRecord> opLog;

    // ---- native protocol invariants (always-on, end-of-run) ----
    /** Per-thread + gate invariant sweep verdict (see
     *  NativeThread::invariantReport, NativeGate::quiescent). */
    bool nativeInvariantsOk = true;
    std::string nativeInvariantDiag;

    /** Combined injected-fault sequence fingerprint (0 when the run
     *  had no injector); bit-identical across replays of one
     *  (profile, seed) cell whose schedules repeat. */
    std::uint64_t faultSequenceHash = 0;

    /** Wall time of the measured phase (steady_clock ns). */
    std::uint64_t hostNanos = 0;
    /** Measured-phase throughput: totalOps / wall seconds. */
    double opsPerSec = 0.0;
};

/**
 * Run one data-structure experiment on host threads. With more than
 * one thread, measured-phase thread t is pinned to the t-th CPU the
 * process may use (wrapping), so throughput never depends on where
 * the scheduler happens to place the threads.
 */
NativeExperimentResult
runNativeDataStructure(const NativeExperimentConfig &cfg);

/** Outcome of replaying an op log through a backend. */
struct ReplayOutcome
{
    bool ok = true;
    std::string diag;                //!< first divergence when !ok
    std::uint64_t checksum = 0;      //!< final state, when ok
    std::uint64_t finalSize = 0;
    bool invariantOk = true;
};

/**
 * Replay @p log (already in serialization order — sort with
 * opOrderLess first if needed) single-threaded through @p backend,
 * diffing every op's observed result, and report the final state.
 * Runs on the backend's thread 0.
 */
ReplayOutcome replayThroughBackend(TmBackend &backend,
                                   WorkloadKind workload,
                                   unsigned hash_buckets,
                                   const std::vector<OpRecord> &log);

/** Verdict of a native-vs-sim cross-validation. */
struct CrossCheckOutcome
{
    bool ok = true;
    std::string diag;
};

/**
 * The backend-equivalence check: run @p cfg natively with op
 * recording, then replay the serialized log through the simulated
 * backend (sequential scheme, one core) and require identical per-op
 * results and an identical final size/checksum. Any divergence means
 * one backend's barriers or one backend's data-structure execution
 * broke serializability.
 */
CrossCheckOutcome crossValidateNative(const NativeExperimentConfig &cfg);

/**
 * Same check, also returning the native run's full result through
 * @p native_out (may be null) so a caller that needs the stats — the
 * torture campaign reports fault counters, invariant verdicts, and
 * sequence hashes per cell — does not pay for a second native run.
 * The invariant sweep is folded into the verdict: a cell whose
 * replay matches but whose protocol state leaked still fails.
 */
CrossCheckOutcome crossValidateNative(const NativeExperimentConfig &cfg,
                                      NativeExperimentResult *native_out);

} // namespace hastm

#endif // HASTM_HARNESS_NATIVE_EXPERIMENT_HH
