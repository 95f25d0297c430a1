/**
 * @file
 * Native-backend experiment runner, the cross-backend replay, and the
 * one end-of-run verdict every native run gets.
 *
 * runNativeDataStructure() is the host-thread counterpart of
 * runDataStructure(): both run the shared op-mix body (populateDs /
 * runOpMix in harness/ds_ops.hh), so a sim run and a native run of one
 * config perform the identical multiset of operations and differ only
 * in interleaving. Because the native backend stamps commits from one
 * global counter at the serialization point, the recorded op log
 * admits the same replay-oracle check as the simulator's, and — the
 * stronger test — can be replayed through the *simulated* backend to
 * prove the two substrates implement the same data-structure
 * semantics (replayThroughBackend).
 *
 * checkNativeRun() is the verdict: the protocol-invariant sweep, the
 * final structure state, the replay oracle and, when asked, the
 * Sequential-sim replay. runNativeDataStructure, crossValidateNative,
 * the service's native pool (NativeRequestExecutor::poolOutcome) and
 * the torture campaign (bench/stress_native) all reach it, so a
 * strengthened check lands everywhere at once.
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

class NativeSession;

/**
 * Configuration of one native (host-thread) experiment run. recordOps
 * also returns the serialization-ordered log in the result, for
 * cross-backend replay.
 */
struct NativeExperimentConfig : OpMixConfig
{
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

/** The end-of-run verdict of one native run (checkNativeRun). */
struct NativeRunVerdict
{
    /** Protocol invariant sweep, always on (NativeThread::
     *  invariantReport per thread, NativeGate::quiescent). */
    bool nativeInvariantsOk = true;
    std::string nativeInvariantDiag;
    bool gateQuiescent = true;

    /** Final structure state, read through thread 0. */
    std::uint64_t checksum = 0;
    std::uint64_t finalSize = 0;
    bool invariantOk = true;

    /** Replay oracle (runs that recorded a log). */
    bool oracleChecked = false;
    bool oracleOk = true;
    std::string oracleDiag;

    /** Sequential-sim replay (when asked). */
    bool simReplayChecked = false;
    bool simReplayOk = true;
    std::string simReplayDiag;

    bool ok() const { return nativeInvariantsOk && oracleOk && simReplayOk; }

    /** The first failing check, named; empty when ok(). */
    std::string diag() const;
};

/**
 * The verdict over a quiescent @p sess (every body joined) whose
 * structure is reached through @p ops. Sweeps every thread's
 * invariantReport() and the gate, reads the final checksum, size and
 * invariant through thread 0 (transactions: they count in thread 0's
 * stats), then, when @p log is non-null, sorts it into serialization
 * order (opOrderLess) in place and replays it through the oracle
 * (@p seed is echoed into its diagnostic) and, with @p sim_replay,
 * through a one-core Sequential simulated backend, whose final size,
 * checksum and invariant must match. Every check runs even after
 * another failed.
 */
NativeRunVerdict checkNativeRun(NativeSession &sess, const DsOps &ops,
                                std::vector<OpRecord> *log,
                                WorkloadKind workload,
                                unsigned hash_buckets, std::uint64_t seed,
                                bool sim_replay);

/** Measured outcome of one native experiment, with its verdict. */
struct NativeExperimentResult : NativeRunVerdict
{
    TmStats tm;

    /** Per-thread measured-phase commits/aborts (indexed by tid). */
    std::vector<NativeThreadOutcome> perThread;

    /** Serialization-ordered op log (recordOps runs only). */
    std::vector<OpRecord> opLog;

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
 * recording and require the whole verdict, sim replay included:
 * identical per-op results and final size/checksum on the simulated
 * backend, a clean oracle and a clean invariant sweep. Any divergence
 * means one backend's barriers or one backend's data-structure
 * execution broke serializability. @p native_out (may be null)
 * receives the native run's full result, so a caller that needs the
 * stats does not pay for a second native run.
 */
CrossCheckOutcome
crossValidateNative(const NativeExperimentConfig &cfg,
                    NativeExperimentResult *native_out = nullptr);

} // namespace hastm

#endif // HASTM_HARNESS_NATIVE_EXPERIMENT_HH
