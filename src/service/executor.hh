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
 *  - SimRequestExecutor runs each request at collect time as a
 *    2-fiber simulator step: body 0 is the request, bracketed by a
 *    RivalryExec with reads of a per-class hot word, body 1 a genuine
 *    rival fiber committing hot-word writes concurrently under the
 *    deterministic scheduler. The caller scales the rival count by
 *    how many busy virtual workers collide on the request's conflict
 *    class. The fibers pace each other through a host-side handshake
 *    (fibers are cooperative, so plain flags are deterministic): each
 *    worker attempt signals for exactly one rival commit and spins
 *    simulated instructions until it lands inside the attempt's
 *    window. This is where the Adaptive arbiter and every simulated
 *    scheme meet open-system overload. (Running the backlog on N
 *    worker fibers instead reverses the adaptive-vs-STM result; see
 *    EXPERIMENTS.md.)
 */

#ifndef HASTM_SERVICE_EXECUTOR_HH
#define HASTM_SERVICE_EXECUTOR_HH

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
    /** Keys map to key % conflictClasses hot words (sim rivalry). */
    unsigned conflictClasses = 8;
};

/** Measured outcome of one executed request (stats deltas). */
struct ExecOutcome
{
    bool opResult = false;
    unsigned rivals = 0;               //!< sim rival commits armed
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t barriers = 0;        //!< read + write barriers
    std::uint64_t irrevocable = 0;     //!< serial-gate escalations
    std::uint64_t serialDispatch = 0;  //!< adaptive serial-rung txns
    std::uint64_t commitStamp = 0;
};

/**
 * TmExec decorator injecting deterministic rivalry around the atomic
 * blocks the data-structure ops run. Delegates the whole retry loop
 * to the inner thread (so stats, watchdog, and serial-irrevocable
 * behavior are the inner scheme's own) with the body wrapped:
 *
 *   read hot[cls]; body(); fire one rival commit / spacer;
 *   read hot[cls] again  ->  genuine stale-read abort
 *
 * Each armed attempt consumes one pending rival and fires it through
 * the caller-supplied hook (the sim executor's fiber handshake), so
 * `rivals` attempts take a real conflict abort each, then the request
 * commits cleanly (or a watchdog escalation cuts the sequence short).
 * Irrevocable attempts never bracket: an irrevocable transaction runs
 * alone by definition.
 */
class RivalryExec : public TmExec
{
  public:
    explicit RivalryExec(TmExec &inner) : inner_(inner) {}

    void
    arm(Addr hot, unsigned cls, unsigned rivals,
        std::function<void()> fire)
    {
        hot_ = hot;
        cls_ = cls;
        pending_ = rivals;
        fire_ = std::move(fire);
    }

    bool atomic(const std::function<void()> &fn) override;

    bool
    atomicOrElse(const std::function<void()> &first,
                 const std::function<void()> &second) override
    {
        return inner_.atomicOrElse(first, second);
    }

    std::uint64_t readWord(Addr a) override { return inner_.readWord(a); }
    void
    writeWord(Addr a, std::uint64_t v, bool is_ptr) override
    {
        inner_.writeWord(a, v, is_ptr);
    }
    std::uint64_t
    readField(Addr obj, unsigned off) override
    {
        return inner_.readField(obj, off);
    }
    void
    writeField(Addr obj, unsigned off, std::uint64_t v,
               bool is_ptr) override
    {
        inner_.writeField(obj, off, v, is_ptr);
    }
    Addr
    txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask) override
    {
        return inner_.txAlloc(field_bytes, ptr_mask);
    }
    void txFree(Addr obj) override { inner_.txFree(obj); }
    void validateNow() override { inner_.validateNow(); }
    bool inTx() const override { return inner_.inTx(); }
    void simInstr(unsigned n) override { inner_.simInstr(n); }
    void simInstrIlp(unsigned n) override { inner_.simInstrIlp(n); }
    const TmStats &stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    void setSite(std::uint32_t site) override { inner_.setSite(site); }
    std::uint32_t site() const override { return inner_.site(); }
    bool inIrrevocable() const override { return inner_.inIrrevocable(); }

  protected:
    // Never reached: atomic() delegates to the inner driver, so the
    // base retry loop (which would call these) never runs here.
    void begin() override { unreachable("begin"); }
    bool commit() override { unreachable("commit"); return false; }
    void rollback() override { unreachable("rollback"); }
    void onConflict(unsigned) override { unreachable("onConflict"); }
    void waitForChange(unsigned) override { unreachable("waitForChange"); }

  private:
    [[noreturn]] static void unreachable(const char *hook);

    TmExec &inner_;
    Addr hot_ = kNullAddr;
    unsigned cls_ = 0;
    unsigned pending_ = 0;
    std::function<void()> fire_;
};

/**
 * Host-side handshake pacing the sim rival fiber (cooperative fibers
 * under the deterministic scheduler make plain fields race-free).
 */
struct RivalPace
{
    unsigned want = 0;  //!< rival commits requested by the worker
    unsigned done = 0;  //!< rival commits landed
    bool quit = false;  //!< worker finished; rival must not wait more
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

    /**
     * Block until the submitted request really finished. @p rivals
     * is how many busy virtual workers collide with it: the sim
     * executor injects that many rival commits, the native pool
     * ignores it (its workers really run side by side).
     */
    virtual ExecOutcome collect(std::uint64_t ticket, unsigned rivals) = 0;

    /** Synchronous, rival-free probe (calibration, post-run checks). */
    virtual ExecOutcome
    execute(const ServiceRequest &req)
    {
        return collect(submit(req), 0);
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
     * @param sim_replay  also cross-validate the recorded op log
     *        through the sequential simulated backend in
     *        poolOutcome(). Disable under TSan (fibers cannot be
     *        instrumented) — the in-process replay oracle still runs.
     * @param fault  native fault-injection campaign (off by default).
     */
    explicit NativeRequestExecutor(const StmConfig &stm,
                                   bool sim_replay = true,
                                   const NativeFaultParams &fault = {});
    ~NativeRequestExecutor() override;

    void populate(const ExecutorWorkload &w, unsigned workers) override;
    std::uint64_t submit(const ServiceRequest &req) override;
    ExecOutcome collect(std::uint64_t ticket, unsigned rivals) override;
    ExecOutcome execute(const ServiceRequest &req) override;
    PoolOutcome poolOutcome() override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;

  private:
    ExecOutcome runOne(unsigned worker, const ServiceRequest &req);
    void quiesce();

    const StmConfig stm_;
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

/** The sim executor: a request core plus a rival core. */
class SimRequestExecutor : public RequestExecutor
{
  public:
    SimRequestExecutor(TmScheme scheme, const StmConfig &stm);

    /** @p workers is unused: requests run one at a time, the other
     *  busy workers' contention arrives as rivals. */
    void populate(const ExecutorWorkload &w, unsigned workers) override;
    std::uint64_t submit(const ServiceRequest &req) override;
    ExecOutcome collect(std::uint64_t ticket, unsigned rivals) override;
    TmStats totalStats() const override;
    std::uint64_t checksum() override;
    std::uint64_t size() override;
    bool invariant() override;

  private:
    std::unique_ptr<SimBackend> backend_;
    DsInstance ds_;
    Addr hot_ = kNullAddr;
    unsigned classes_ = 1;
    std::unordered_map<std::uint64_t, ServiceRequest> pending_;
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
