/**
 * @file
 * Request executors: one transactional request, really executed.
 *
 * The service's discrete-event loop is single-threaded and virtual-
 * clocked, but the requests it dispatches run for real on a TmBackend
 * — real barriers, real aborts, real watchdog escalations, real
 * serial-gate entries — and the measured outcome (barrier/abort/
 * irrevocable deltas) feeds the deterministic service-time model.
 * Each backend has exactly one executor, both driven the same way:
 * every admitted request is submitted at admission and its outcome
 * collected at virtual dispatch.
 *
 *  - NativeRequestExecutor runs one long-lived host thread per
 *    virtual worker, each bound to one NativeThread, behind a
 *    WorkerPool (service/worker_pool.hh). A request starts the moment
 *    it is submitted and runs concurrently with everything else
 *    admitted, so contention is whatever the concurrently running
 *    requests genuinely produce. With one worker the requests run
 *    FIFO in admission order, alone, so every measured outcome — and
 *    the whole service run — is bit-identical run to run. With N > 1
 *    outcomes depend on host interleaving; the executor records every
 *    request and validates the run instead (replay oracle, sim
 *    replay, invariant sweep).
 *  - SimRequestExecutor is the same pool on the simulator: one
 *    simulated core per virtual worker. A submitted request waits in
 *    a host-side FIFO; the first collect() of a request that has not
 *    run yet runs the whole waiting backlog as one batch on
 *    min(workers, backlog) worker fibers, each taking the next
 *    request in FIFO order, and stores every outcome under its
 *    ticket. The requests of one batch run side by side under the
 *    deterministic scheduler, so their conflicts are genuine; a
 *    request that finds the backlog empty runs alone. Fibers are
 *    cooperative and the batch boundaries follow the discrete-event
 *    loop, so every sim run is bit-identical run to run. This is
 *    where the Adaptive arbiter and every simulated scheme meet
 *    open-system overload.
 */

#ifndef HASTM_SERVICE_EXECUTOR_HH
#define HASTM_SERVICE_EXECUTOR_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/native_backend.hh"
#include "backend/sim_backend.hh"
#include "harness/ds_ops.hh"
#include "harness/native_experiment.hh"
#include "service/arrival.hh"

namespace hastm {

class WorkerPool;

/** The data structure one executor serves, plus its initial load. */
struct ExecutorWorkload
{
    WorkloadKind workload = WorkloadKind::HashTable;
    unsigned hashBuckets = 64;
    std::uint64_t initialSize = 256;
    std::uint64_t keyRange = 1024;
    std::uint64_t seed = 1;
};

/** Measured outcome of one executed request (stats deltas). */
struct ExecOutcome
{
    bool opResult = false;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t barriers = 0;        //!< read + write barriers
    std::uint64_t irrevocable = 0;     //!< serial-gate escalations
    std::uint64_t serialDispatch = 0;  //!< adaptive serial-rung txns
    std::uint64_t commitStamp = 0;
};

/** One host worker thread's end-of-run tally (native pool). */
struct PoolWorkerStats
{
    std::uint64_t executed = 0;    //!< requests this worker ran
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t busyHostNs = 0;  //!< wall time inside request bodies
};

/**
 * End-of-run report of the native pool: per-worker host occupancy
 * plus the native-run verdict (checkNativeRun) over the recorded op
 * log — the native protocol invariant sweep, the replay oracle and
 * the optional sim-replay cross-validation. It stands in for
 * bit-identical fingerprints when workers > 1 and is checked at every
 * worker count. enabled stays false for the sim executor.
 */
struct PoolOutcome : NativeRunVerdict
{
    bool enabled = false;
    unsigned workers = 0;
    std::vector<PoolWorkerStats> perWorker;
    std::uint64_t wallHostNs = 0;       //!< populate -> quiesce
    double execPerHostSec = 0.0;        //!< executed / host wall sec
    std::uint64_t opsRecorded = 0;      //!< populate + request ops
};

/** One backend's request-execution engine for the service. */
class RequestExecutor
{
  public:
    virtual ~RequestExecutor() = default;

    /** Build + populate the structure for @p workers virtual
     *  workers; resets stats afterwards. */
    virtual void populate(const ExecutorWorkload &w, unsigned workers) = 0;

    /** Hand an admitted request to the executor; returns its ticket.
     *  May block while the native dispatch channel is full. */
    virtual std::uint64_t submit(const ServiceRequest &req) = 0;

    /** Block until the submitted request really finished. */
    virtual ExecOutcome collect(std::uint64_t ticket) = 0;

    /** Synchronous probe (calibration, post-run checks). */
    virtual ExecOutcome
    execute(const ServiceRequest &req)
    {
        return collect(submit(req));
    }

    /** Pool occupancy + validation report (native only; quiesces the
     *  pool first). */
    virtual PoolOutcome poolOutcome() { return {}; }

    virtual TmStats totalStats() const = 0;
    virtual std::uint64_t checksum() = 0;
    virtual std::uint64_t size() = 0;
    virtual bool invariant() = 0;
};

/**
 * The native executor: a NativeBackend with one NativeThread per
 * virtual worker (sized by populate()), every request recorded for
 * the end-of-run replay validation.
 */
class NativeRequestExecutor : public RequestExecutor
{
  public:
    /**
     * @param watchdog  the sessions' starvation bounds.
     * @param sim_replay  also cross-validate the recorded op log
     *        through the sequential simulated backend in
     *        poolOutcome(). Disable under TSan (fibers cannot be
     *        instrumented) — the in-process replay oracle still runs.
     * @param fault  native fault-injection campaign (off by default).
     */
    explicit NativeRequestExecutor(const Watchdog &watchdog = {},
                                   bool sim_replay = true,
                                   const NativeFaultParams &fault = {});
    ~NativeRequestExecutor() override;

    void populate(const ExecutorWorkload &w, unsigned workers) override;
    std::uint64_t submit(const ServiceRequest &req) override;
    ExecOutcome collect(std::uint64_t ticket) override;
    ExecOutcome execute(const ServiceRequest &req) override;
    PoolOutcome poolOutcome() override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;

  private:
    ExecOutcome runOne(unsigned worker, const ServiceRequest &req);
    void quiesce();

    const Watchdog watchdog_;
    const bool simReplay_;
    const NativeFaultParams fault_;
    std::unique_ptr<NativeBackend> backend_;
    DsInstance ds_;
    ExecutorWorkload workload_;
    std::vector<OpRecord> popLog_;
    /** Per-worker request logs; log w is written only by worker w
     *  (the pool join orders them before the merge reads). */
    std::vector<std::vector<OpRecord>> logs_;
    std::unique_ptr<WorkerPool> pool_;
};

/**
 * The sim executor: a SimBackend with one simulated core per virtual
 * worker (sized by populate()), running the admitted backlog in
 * batches on worker fibers.
 */
class SimRequestExecutor : public RequestExecutor
{
  public:
    SimRequestExecutor(TmScheme scheme, const StmConfig &stm);

    void populate(const ExecutorWorkload &w, unsigned workers) override;
    std::uint64_t submit(const ServiceRequest &req) override;
    ExecOutcome collect(std::uint64_t ticket) override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;

  private:
    void runBacklog();

    const TmScheme scheme_;
    const StmConfig stm_;
    std::unique_ptr<SimBackend> backend_;
    DsInstance ds_;
    /** Submitted requests that have not run yet, in ticket order. */
    std::deque<std::pair<std::uint64_t, ServiceRequest>> backlog_;
    /** Outcomes of requests that ran but are not collected yet. */
    std::unordered_map<std::uint64_t, ExecOutcome> done_;
    std::uint64_t nextTicket_ = 0;
};

/**
 * Shared executor plumbing, exported for the benchmarks: everything
 * that drives requests must populate identically and measure
 * identically or the numbers would not be comparable.
 */
namespace svcdetail {

/**
 * Build the structure through @p t, then load initialSize random
 * inserts from the dedicated populate stream (same derivation as
 * harness/native_experiment.cc). When @p pop_log is non-null, every
 * populate insert is recorded as an epoch-0 OpRecord for the replay
 * oracle.
 */
void buildAndPopulate(TmExec &t, const ExecutorWorkload &w, DsInstance *ds,
                      std::vector<OpRecord> *pop_log = nullptr);

/** Run @p req's single map operation through @p t. */
ExecOutcome runOp(TmExec &t, const DsOps &ops, const ServiceRequest &req);

/** runOp plus @p t's stats deltas and commit stamp. */
ExecOutcome measureOp(TmExec &t, const DsOps &ops,
                      const ServiceRequest &req);

} // namespace svcdetail

} // namespace hastm

#endif // HASTM_SERVICE_EXECUTOR_HH
