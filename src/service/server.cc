#include "service/server.hh"

#include <algorithm>
#include <deque>
#include <queue>

#include "harness/report.hh"
#include "sim/logging.hh"

namespace hastm {

namespace {

struct Completion
{
    std::uint64_t time;
    unsigned worker;
    std::uint64_t arrivalNs;
    std::uint64_t dispatchNs;

    bool
    operator>(const Completion &o) const
    {
        return time != o.time ? time > o.time : worker > o.worker;
    }
};

struct Worker
{
    bool busy = false;
    unsigned cls = 0;
};

/** A queued admitted request plus its executor ticket. */
struct Queued
{
    ServiceRequest req;
    std::uint64_t ticket = 0;
    std::size_t segment = 0;  //!< arrival phase (index into segments)
};

/** TM counters of the requests that arrived in one phase. */
struct SegmentTm
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t irrevocableEntries = 0;
    std::uint64_t serialDispatch = 0;
};

/** Queue-depth samples per run (the series holds up to two more). */
constexpr unsigned kDepthSamples = 128;

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void
mix(std::uint64_t *h, std::uint64_t v)
{
    *h = (*h ^ v) * kFnvPrime;
}

/** The whole DES in one object so the helpers share state. */
class ServiceRun
{
  public:
    ServiceRun(const ServiceConfig &cfg, RequestExecutor &exec)
        : cfg_(cfg), exec_(exec),
          admission_(cfg.admission),
          workers_(std::max(1u, cfg.workers)),
          wBusy_(workers_.size(), 0),
          wDone_(workers_.size(), 0),
          samplePeriod_(std::max<std::uint64_t>(
              1, cfg.durationNs / kDepthSamples))
    {
    }

    ServiceResult run();

  private:
    void advanceTo(std::uint64_t t);
    void closeWindow();
    void closeSegment(std::uint64_t end_ns);
    void dispatchFree(std::uint64_t now);
    std::uint64_t serviceNsFor(const ExecOutcome &o) const;

    const ServiceConfig &cfg_;
    RequestExecutor &exec_;
    AdmissionController admission_;
    ServiceResult r_;

    std::vector<Worker> workers_;
    std::vector<std::uint64_t> wBusy_, wDone_;  //!< virtual occupancy
    /**
     * TM counters per arrival phase, summed from collected outcomes
     * (reading live pool-thread stats mid-run would race). A request
     * counts in the phase it arrived in, not the one it is virtually
     * dispatched in: a burst's backlog is burst work (the native pool
     * runs it from admission), so it must not land in the recovery
     * phase. Copied into the segments once every request is in.
     */
    std::vector<SegmentTm> segTm_;
    std::deque<Queued> queue_;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions_;

    // window state
    std::uint64_t windowStart_ = 0;
    LatencyHistogram winHist_;
    std::uint64_t winShed_ = 0;
    std::uint64_t lastWindowP99_ = 0;

    // queue-depth sampling
    std::uint64_t nextSample_ = 0;
    std::uint64_t samplePeriod_;

    // arrival-phase segments
    std::vector<std::uint64_t> boundaries_;
    std::size_t nextBoundary_ = 0;
    std::uint64_t segStart_ = 0;
    bool segBurst_ = false;
    std::uint64_t segOffered_ = 0, segCompleted_ = 0, segShed_ = 0;
};

std::uint64_t
ServiceRun::serviceNsFor(const ExecOutcome &o) const
{
    std::uint64_t ns = cfg_.baseServiceNs +
                       cfg_.perBarrierNs * o.barriers +
                       cfg_.perAbortNs * o.aborts +
                       cfg_.perIrrevocNs * o.irrevocable;
    return std::max<std::uint64_t>(ns, 1);
}

void
ServiceRun::closeWindow()
{
    ServiceWindow w;
    w.startNs = windowStart_;
    w.completed = winHist_.count();
    w.shed = winShed_;
    if (w.completed > 0) {
        w.p99Ns = winHist_.p99();
        w.sloViolated = w.p99Ns > cfg_.admission.sloP99Ns;
        // The control signal: an empty window keeps the previous
        // estimate (no completions carry no delay information).
        lastWindowP99_ = w.p99Ns;
    }
    ++r_.windowCount;
    if (w.sloViolated)
        ++r_.sloViolationWindows;
    if (r_.windows.size() < 4096)
        r_.windows.push_back(w);
    winHist_.reset();
    winShed_ = 0;
    windowStart_ += cfg_.windowNs;
}

void
ServiceRun::closeSegment(std::uint64_t end_ns)
{
    ServiceSegment s;
    s.burst = segBurst_;
    s.startNs = segStart_;
    s.endNs = end_ns;
    s.offered = segOffered_;
    s.completed = segCompleted_;
    s.shed = segShed_;
    r_.segments.push_back(s);
    segStart_ = end_ns;
    segBurst_ = !segBurst_;
    segOffered_ = segCompleted_ = segShed_ = 0;
}

void
ServiceRun::advanceTo(std::uint64_t t)
{
    // Interleave the three bookkeeping streams in time order.
    for (;;) {
        std::uint64_t wEnd = windowStart_ + cfg_.windowNs;
        std::uint64_t sAt = nextSample_ <= cfg_.durationNs
                                ? nextSample_
                                : ~std::uint64_t(0);
        std::uint64_t bAt = nextBoundary_ < boundaries_.size()
                                ? boundaries_[nextBoundary_]
                                : ~std::uint64_t(0);
        std::uint64_t next = std::min({wEnd, sAt, bAt});
        if (next > t)
            return;
        if (next == sAt) {
            if (r_.depthSeries.size() < std::size_t(kDepthSamples) + 2) {
                r_.depthSeries.emplace_back(
                    sAt, unsigned(queue_.size()));
            }
            nextSample_ += samplePeriod_;
        } else if (next == bAt) {
            closeSegment(bAt);
            ++nextBoundary_;
        } else {
            closeWindow();
        }
    }
}

void
ServiceRun::dispatchFree(std::uint64_t now)
{
    for (;;) {
        if (queue_.empty())
            return;
        unsigned free = unsigned(workers_.size());
        for (unsigned w = 0; w < workers_.size(); ++w) {
            if (!workers_[w].busy) {
                free = w;
                break;
            }
        }
        if (free == workers_.size())
            return;
        Queued q = queue_.front();
        queue_.pop_front();
        const ServiceRequest &req = q.req;
        unsigned cls =
            unsigned(req.key % std::max(1u, cfg_.workload.conflictClasses));
        unsigned colliding = 0;
        for (const Worker &w : workers_) {
            if (w.busy && w.cls == cls)
                ++colliding;
        }
        // Block for the request's measured outcome. The native pool
        // has been running it since admission, alongside everything
        // else admitted; the sim executor runs it now, against rivals
        // scaled by the busy workers it collides with.
        ExecOutcome o =
            exec_.collect(q.ticket, std::min(colliding, cfg_.rivalCap));
        r_.rivalsInjected += o.rivals;
        if (q.segment >= segTm_.size())
            segTm_.resize(q.segment + 1);
        SegmentTm &tm = segTm_[q.segment];
        tm.commits += o.commits;
        tm.aborts += o.aborts;
        tm.irrevocableEntries += o.irrevocable;
        tm.serialDispatch += o.serialDispatch;
        workers_[free].busy = true;
        workers_[free].cls = cls;
        completions_.push(
            {now + serviceNsFor(o), free, req.arrivalNs, now});
    }
}

ServiceResult
ServiceRun::run()
{
    // populate() resets the stats, so the accumulated base is zero.
    exec_.populate(cfg_.workload, unsigned(workers_.size()));

    ArrivalGen gen(cfg_.arrival, cfg_.workload.seed * 31 + 7);
    boundaries_ = gen.phaseBoundaries(cfg_.durationNs);
    segBurst_ = gen.burstAt(0);

    ServiceRequest pending;
    bool havePending = gen.next(cfg_.durationNs, &pending);

    constexpr std::uint64_t kInf = ~std::uint64_t(0);
    std::uint64_t lastCompletion = 0;
    for (;;) {
        std::uint64_t tA = havePending ? pending.arrivalNs : kInf;
        std::uint64_t tC =
            completions_.empty() ? kInf : completions_.top().time;
        if (tA == kInf && tC == kInf)
            break;
        if (tC <= tA) {
            // Completion: free the worker, record latency, refill.
            Completion c = completions_.top();
            completions_.pop();
            advanceTo(c.time);
            std::uint64_t lat = c.time - c.arrivalNs;
            r_.latency.record(lat);
            winHist_.record(lat);
            ++r_.completed;
            ++segCompleted_;
            workers_[c.worker].busy = false;
            wBusy_[c.worker] += c.time - c.dispatchNs;
            ++wDone_[c.worker];
            lastCompletion = c.time;
            dispatchFree(c.time);
        } else {
            advanceTo(tA);
            ++r_.offered;
            ++segOffered_;
            AdmissionDecision d = admission_.decide(
                unsigned(queue_.size()), lastWindowP99_);
            switch (d) {
              case AdmissionDecision::Admit: {
                ++r_.admitted;
                // Real execution may start now: the executor runs the
                // request concurrently with everything else admitted
                // but not yet virtually dispatched.
                queue_.push_back({pending, exec_.submit(pending),
                                  r_.segments.size()});
                r_.maxQueueDepth = std::max(
                    r_.maxQueueDepth, unsigned(queue_.size()));
                dispatchFree(tA);
                break;
              }
              case AdmissionDecision::DropFull:
                ++r_.droppedFull;
                ++winShed_;
                ++segShed_;
                break;
              case AdmissionDecision::Shed:
                ++r_.shedPolicy;
                ++winShed_;
                ++segShed_;
                break;
            }
            havePending = gen.next(cfg_.durationNs, &pending);
        }
    }
    HASTM_ASSERT(queue_.empty());

    r_.makespanNs = std::max(cfg_.durationNs, lastCompletion);
    advanceTo(r_.makespanNs);
    if (winHist_.count() > 0 || winShed_ > 0)
        closeWindow();  // final partial window
    closeSegment(r_.makespanNs);
    for (std::size_t i = 0; i < segTm_.size(); ++i) {
        ServiceSegment &s = r_.segments[i];
        s.commits = segTm_[i].commits;
        s.aborts = segTm_[i].aborts;
        s.irrevocableEntries = segTm_[i].irrevocableEntries;
        s.serialDispatch = segTm_[i].serialDispatch;
    }

    r_.p50Ns = r_.latency.p50();
    r_.p99Ns = r_.latency.p99();
    r_.p999Ns = r_.latency.p999();
    r_.goodputPerSec =
        r_.makespanNs
            ? double(r_.completed) * 1e9 / double(r_.makespanNs)
            : 0.0;
    r_.workerBusyNs = wBusy_;
    r_.workerCompleted = wDone_;
    for (std::uint64_t b : wBusy_)
        r_.totalBusyNs += b;
    // Pool verification first: it quiesces the worker threads, after
    // which the end-of-run structure reads below are single-threaded
    // on either backend.
    r_.pool = exec_.poolOutcome();
    r_.fingerprintExempt = r_.pool.enabled && r_.pool.workers > 1;
    r_.gateQuiescent = r_.pool.gateQuiescent;  // true for the sim
    r_.tm = exec_.totalStats();
    r_.finalSize = exec_.size();
    r_.checksum = exec_.checksum();
    r_.invariantOk = exec_.invariant();
    return std::move(r_);
}

} // namespace

ServiceResult
runService(const ServiceConfig &cfg, RequestExecutor &exec)
{
    ServiceRun run(cfg, exec);
    return run.run();
}

std::uint64_t
ServiceResult::fingerprint() const
{
    std::uint64_t h = kFnvOffset;
    mix(&h, offered);
    mix(&h, admitted);
    mix(&h, droppedFull);
    mix(&h, shedPolicy);
    mix(&h, completed);
    mix(&h, makespanNs);
    mix(&h, maxQueueDepth);
    mix(&h, rivalsInjected);
    mix(&h, sloViolationWindows);
    mix(&h, windowCount);
    mix(&h, latency.count());
    mix(&h, latency.sum());
    for (unsigned i = 0; i < latency.usedBuckets(); ++i)
        mix(&h, latency.bucketCount(i));
    for (const ServiceWindow &w : windows) {
        mix(&h, w.p99Ns);
        mix(&h, w.completed);
        mix(&h, w.shed);
    }
    for (const auto &[t, d] : depthSeries) {
        mix(&h, t);
        mix(&h, d);
    }
    for (const ServiceSegment &s : segments) {
        mix(&h, s.offered);
        mix(&h, s.completed);
        mix(&h, s.aborts);
        mix(&h, s.irrevocableEntries);
        mix(&h, s.serialDispatch);
    }
    mix(&h, tm.commits);
    mix(&h, tm.aborts);
    mix(&h, tm.irrevocableEntries);
    mix(&h, finalSize);
    mix(&h, checksum);
    mix(&h, std::uint64_t(invariantOk));
    mix(&h, std::uint64_t(gateQuiescent));
    return h;
}

Json
toJson(const ServiceConfig &cfg)
{
    Json a = Json::object();
    a.set("kind", arrivalKindName(cfg.arrival.kind))
        .set("ratePerSec", cfg.arrival.ratePerSec)
        .set("burstRatePerSec", cfg.arrival.burstRatePerSec)
        .set("offNs", cfg.arrival.offNs)
        .set("onNs", cfg.arrival.onNs)
        .set("zipfS", cfg.arrival.zipfS)
        .set("updatePct", cfg.arrival.updatePct)
        .set("keyRange", cfg.arrival.keyRange);

    Json adm = Json::object();
    adm.set("policy", admissionPolicyName(cfg.admission.policy))
        .set("queueCap", cfg.admission.queueCap)
        .set("sloP99Ns", cfg.admission.sloP99Ns)
        .set("sloMultiple", cfg.admission.sloMultiple);

    Json j = Json::object();
    j.set("workload", workloadName(cfg.workload.workload))
        .set("hashBuckets", cfg.workload.hashBuckets)
        .set("initialSize", cfg.workload.initialSize)
        .set("keyRange", cfg.workload.keyRange)
        .set("seed", cfg.workload.seed)
        .set("conflictClasses", cfg.workload.conflictClasses)
        .set("workers", cfg.workers)
        .set("rivalCap", cfg.rivalCap)
        .set("arrival", std::move(a))
        .set("admission", std::move(adm))
        .set("durationNs", cfg.durationNs)
        .set("windowNs", cfg.windowNs)
        .set("baseServiceNs", cfg.baseServiceNs)
        .set("perBarrierNs", cfg.perBarrierNs)
        .set("perAbortNs", cfg.perAbortNs)
        .set("perIrrevocNs", cfg.perIrrevocNs);
    return j;
}

Json
toJson(const ServiceResult &r)
{
    Json windows = Json::array();
    for (const ServiceWindow &w : r.windows) {
        windows.push(Json::object()
                         .set("startNs", w.startNs)
                         .set("completed", w.completed)
                         .set("shed", w.shed)
                         .set("p99Ns", w.p99Ns)
                         .set("sloViolated", w.sloViolated));
    }
    Json depth = Json::array();
    for (const auto &[t, d] : r.depthSeries)
        depth.push(Json::array().push(t).push(d));
    Json segments = Json::array();
    for (const ServiceSegment &s : r.segments) {
        segments.push(Json::object()
                          .set("burst", s.burst)
                          .set("startNs", s.startNs)
                          .set("endNs", s.endNs)
                          .set("offered", s.offered)
                          .set("completed", s.completed)
                          .set("shed", s.shed)
                          .set("commits", s.commits)
                          .set("aborts", s.aborts)
                          .set("irrevocableEntries", s.irrevocableEntries)
                          .set("serialDispatch", s.serialDispatch));
    }
    Json occ_workers = Json::array();
    for (std::size_t w = 0; w < r.workerBusyNs.size(); ++w) {
        occ_workers.push(Json::object()
                             .set("busyNs", r.workerBusyNs[w])
                             .set("completed", r.workerCompleted[w]));
    }
    Json occupancy = Json::object();
    occupancy.set("perWorker", std::move(occ_workers))
        .set("totalBusyNs", r.totalBusyNs);
    Json j = Json::object();
    j.set("offered", r.offered)
        .set("admitted", r.admitted)
        .set("droppedFull", r.droppedFull)
        .set("shedPolicy", r.shedPolicy)
        .set("completed", r.completed)
        .set("makespanNs", r.makespanNs)
        .set("goodputPerSec", r.goodputPerSec)
        .set("latency", toJson(r.latency))
        .set("p50Ns", r.p50Ns)
        .set("p99Ns", r.p99Ns)
        .set("p999Ns", r.p999Ns)
        .set("sloViolationWindows", r.sloViolationWindows)
        .set("windowCount", r.windowCount)
        .set("windows", std::move(windows))
        .set("depthSeries", std::move(depth))
        .set("maxQueueDepth", r.maxQueueDepth)
        .set("rivalsInjected", r.rivalsInjected)
        .set("segments", std::move(segments))
        .set("tm", toJson(r.tm))
        .set("finalSize", r.finalSize)
        .set("checksum", r.checksum)
        .set("occupancy", std::move(occupancy))
        .set("invariantOk", r.invariantOk)
        .set("gateQuiescent", r.gateQuiescent)
        .set("fingerprintExempt", r.fingerprintExempt)
        .set("fingerprint", r.fingerprint());
    if (r.pool.enabled) {
        Json pw = Json::array();
        for (const PoolWorkerStats &s : r.pool.perWorker) {
            pw.push(Json::object()
                        .set("executed", s.executed)
                        .set("commits", s.commits)
                        .set("aborts", s.aborts)
                        .set("busyHostNs", s.busyHostNs));
        }
        Json pool = Json::object();
        pool.set("workers", r.pool.workers)
            .set("perWorker", std::move(pw))
            .set("wallHostNs", r.pool.wallHostNs)
            .set("execPerHostSec", r.pool.execPerHostSec)
            .set("opsRecorded", r.pool.opsRecorded)
            .set("oracleChecked", r.pool.oracleChecked)
            .set("oracleOk", r.pool.oracleOk)
            .set("simReplayChecked", r.pool.simReplayChecked)
            .set("simReplayOk", r.pool.simReplayOk)
            .set("nativeInvariantsOk", r.pool.nativeInvariantsOk);
        if (!r.pool.ok())
            pool.set("diag", r.pool.diag());
        j.set("pool", std::move(pool));
    }
    return j;
}

} // namespace hastm
