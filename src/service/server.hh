/**
 * @file
 * The open-system transaction service (DESIGN.md §12).
 *
 * A discrete-event simulation over a virtual nanosecond clock drives
 * a worker pool through an arrival process, a bounded queue, and an
 * admission controller; every admitted request is REALLY executed by
 * the configured backend's executor (service/executor.hh) and its
 * measured stats deltas feed a deterministic service-time model:
 *
 *   serviceNs = baseServiceNs
 *             + perBarrierNs  * (read+write barrier delta)
 *             + perAbortNs    * (abort delta)
 *             + perIrrevocNs  * (serial-gate escalation delta)
 *
 * Every admitted request is submitted to the executor at admission,
 * and its measured outcome is collected when it reaches a free
 * virtual worker. On the native pool, requests admitted but not yet
 * collected run side by side on real host threads; the sim executor
 * runs the admitted backlog side by side on simulated worker cores,
 * one batch per collection of a request that has not run yet. Either
 * way a deeper queue means more requests running at once, whose
 * genuine conflicts lengthen service, which deepens the queue: the
 * open-system overload feedback loop.
 *
 * Measurement is first-class: per-request latency (arrival ->
 * completion) in a log-linear percentile histogram, windowed p99
 * (the DelayBackpressure control signal), goodput, drop/shed counts,
 * a queue-depth time series, SLO-violation windows, and per-phase
 * stats segments (the burst-recovery evidence). With a deterministic
 * executor — the sim executor, or a one-worker native pool —
 * everything is a pure function of (ServiceConfig, executor): reruns
 * are bit-identical at any host parallelism because the only clock is
 * virtual.
 *
 * A native pool of two or more workers relaxes exactly one side of
 * that: the measured deltas — and the latencies and segments derived
 * from them — depend on host interleaving. Virtual time stays
 * authoritative and every accounting identity still holds exactly;
 * such results carry fingerprintExempt and rely on the PoolOutcome
 * validation block instead of the bit-identity claim.
 */

#ifndef HASTM_SERVICE_SERVER_HH
#define HASTM_SERVICE_SERVER_HH

#include <string>
#include <utility>
#include <vector>

#include "harness/latency_hist.hh"
#include "service/admission.hh"
#include "service/arrival.hh"
#include "service/executor.hh"
#include "sim/json.hh"

namespace hastm {

struct ServiceConfig
{
    ExecutorWorkload workload;
    unsigned workers = 4;
    ArrivalConfig arrival;
    AdmissionConfig admission;
    std::uint64_t durationNs = 20'000'000;  //!< arrivals stop here
    std::uint64_t windowNs = 1'000'000;     //!< p99 control window
    // ---- deterministic service-time model ----
    std::uint64_t baseServiceNs = 1500;
    std::uint64_t perBarrierNs = 12;
    std::uint64_t perAbortNs = 1500;
    std::uint64_t perIrrevocNs = 4000;
};

/** One closed latency window (the backpressure control signal). */
struct ServiceWindow
{
    std::uint64_t startNs = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t p99Ns = 0;
    bool sloViolated = false;
};

/**
 * One arrival phase (burst on/off segment). offered, shed and the TM
 * counters belong to the requests that arrived in the phase, even
 * when they are dispatched after it ends; completed counts the
 * completions that fall inside it.
 */
struct ServiceSegment
{
    bool burst = false;
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    std::uint64_t offered = 0;
    std::uint64_t completed = 0;
    std::uint64_t shed = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t irrevocableEntries = 0;
    std::uint64_t serialDispatch = 0;  //!< adaptive serial-rung txns
};

struct ServiceResult
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    std::uint64_t droppedFull = 0;
    std::uint64_t shedPolicy = 0;
    std::uint64_t completed = 0;
    std::uint64_t makespanNs = 0;  //!< last completion (>= duration)
    double goodputPerSec = 0.0;    //!< completed / makespan
    LatencyHistogram latency;      //!< arrival -> completion, committed
    std::uint64_t p50Ns = 0, p99Ns = 0, p999Ns = 0;
    std::uint64_t sloViolationWindows = 0;
    std::uint64_t windowCount = 0;
    std::vector<ServiceWindow> windows;
    std::vector<std::pair<std::uint64_t, unsigned>> depthSeries;
    unsigned maxQueueDepth = 0;
    std::vector<ServiceSegment> segments;
    TmStats tm;  //!< executor totals (every worker)
    // ---- virtual per-worker occupancy (schema v10) ----
    /** Virtual busy ns per virtual worker (sums to totalBusyNs). */
    std::vector<std::uint64_t> workerBusyNs;
    /** Completed requests per virtual worker (sums to completed). */
    std::vector<std::uint64_t> workerCompleted;
    std::uint64_t totalBusyNs = 0;
    // ---- end-of-run verification ----
    std::uint64_t finalSize = 0;
    std::uint64_t checksum = 0;
    bool invariantOk = false;
    bool gateQuiescent = false;
    /**
     * True when the executor's outcomes depend on host interleaving
     * (a native pool of two or more workers): everything derived from
     * them then varies run to run, so the fingerprint must not be
     * compared across runs — the PoolOutcome validation (replay
     * oracle, sim replay, invariant sweep) plus the accounting
     * identities stand in for bit-identity. Every other executor
     * keeps the full bit-identical contract.
     */
    bool fingerprintExempt = false;
    PoolOutcome pool;  //!< native pool report (enabled=false on sim)

    /** FNV-1a over every deterministic field (rerun comparison).
     *  Meaningless across runs when fingerprintExempt. */
    std::uint64_t fingerprint() const;
};

/**
 * The deterministic service-time model (see the file comment): the
 * virtual nanoseconds a request whose execution measured @p o holds a
 * worker, at least 1.
 */
std::uint64_t serviceNsFor(const ServiceConfig &cfg, const ExecOutcome &o);

Json toJson(const ServiceConfig &cfg);
Json toJson(const ServiceResult &r);

/** Drive @p exec through the configured open-system run. */
ServiceResult runService(const ServiceConfig &cfg, RequestExecutor &exec);

} // namespace hastm

#endif // HASTM_SERVICE_SERVER_HH
