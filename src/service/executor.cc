#include "service/executor.hh"

#include <algorithm>

#include "service/worker_pool.hh"
#include "sim/logging.hh"

namespace hastm {

namespace svcdetail {

void
buildAndPopulate(TmExec &t, const ExecutorWorkload &w, DsInstance *ds,
                 std::vector<OpRecord> *pop_log)
{
    *ds = makeDs(t, w.workload, w.hashBuckets);
    Rng pop(w.seed * 7919 + 1);
    for (std::uint64_t i = 0; i < w.initialSize; ++i) {
        std::uint64_t key = pop.range(w.keyRange);
        std::uint64_t val = pop.next() >> 16;
        bool res = ds->ops.insert(t, key, val);
        if (pop_log) {
            pop_log->push_back({t.commitStamp(), 0, 0, OpKind::Insert,
                                key, val, res, pop_log->size()});
        }
    }
}

ExecOutcome
runOp(TmExec &t, const DsOps &ops, const ServiceRequest &req)
{
    ExecOutcome o;
    o.opResult = applyOp(t, ops, req.op, req.key, req.value);
    return o;
}

ExecOutcome
measureOp(TmExec &t, const DsOps &ops, const ServiceRequest &req)
{
    // The stat fields the service-time model and segments consume.
    auto snap = [&t](ExecOutcome *o) {
        const TmStats &s = t.stats();
        o->commits = s.commits;
        o->aborts = s.aborts;
        o->barriers = s.rdBarriers + s.wrBarriers;
        o->irrevocable = s.irrevocableEntries;
        o->serialDispatch =
            s.adaptiveDispatch[unsigned(AdaptiveMode::Serial)];
    };
    ExecOutcome before, after;
    snap(&before);
    after.opResult = runOp(t, ops, req).opResult;
    snap(&after);
    after.commits -= before.commits;
    after.aborts -= before.aborts;
    after.barriers -= before.barriers;
    after.irrevocable -= before.irrevocable;
    after.serialDispatch -= before.serialDispatch;
    after.commitStamp = t.commitStamp();
    return after;
}

} // namespace svcdetail

// ---- NativeRequestExecutor ----

NativeRequestExecutor::NativeRequestExecutor(const Watchdog &watchdog,
                                             bool sim_replay,
                                             const NativeFaultParams &fault)
    : watchdog_(watchdog), simReplay_(sim_replay), fault_(fault)
{
}

NativeRequestExecutor::~NativeRequestExecutor() = default;

void
NativeRequestExecutor::populate(const ExecutorWorkload &w, unsigned workers)
{
    // The pool's threads run on the old backend's NativeThreads:
    // retire them before the backend goes.
    pool_.reset();
    NativeSessionConfig nc;
    nc.numThreads = std::max(1u, workers);
    nc.watchdog = watchdog_;
    nc.fault = fault_;
    backend_ = std::make_unique<NativeBackend>(nc);
    workload_ = w;
    popLog_.clear();
    logs_.assign(nc.numThreads, {});
    // Inline on thread 0 before the pool spins up: no concurrency
    // during populate, so the epoch-0 log is in program order.
    svcdetail::buildAndPopulate(backend_->thread(0), w, &ds_, &popLog_);
    backend_->resetStats();
    pool_ = std::make_unique<WorkerPool>(
        nc.numThreads, [this](unsigned worker, const ServiceRequest &req) {
            return runOne(worker, req);
        });
}

ExecOutcome
NativeRequestExecutor::runOne(unsigned worker, const ServiceRequest &req)
{
    // Only worker `worker` ever touches thread(worker): per-thread
    // stats deltas and the op log are race-free by construction.
    ExecOutcome o =
        svcdetail::measureOp(backend_->thread(worker), ds_.ops, req);
    std::vector<OpRecord> &log = logs_[worker];
    log.push_back({o.commitStamp, worker, 1, req.op, req.key, req.value,
                   o.opResult, log.size()});
    return o;
}

std::uint64_t
NativeRequestExecutor::submit(const ServiceRequest &req)
{
    HASTM_ASSERT(pool_);
    return pool_->submit(req);
}

ExecOutcome
NativeRequestExecutor::collect(std::uint64_t ticket)
{
    HASTM_ASSERT(pool_);
    return pool_->collect(ticket);
}

ExecOutcome
NativeRequestExecutor::execute(const ServiceRequest &req)
{
    // Through the pool while it runs; inline on thread 0 once the
    // end-of-run validation has quiesced it (unrecorded: the oracle
    // has already run).
    HASTM_ASSERT(pool_);
    if (!pool_->stopped())
        return RequestExecutor::execute(req);
    return svcdetail::measureOp(backend_->thread(0), ds_.ops, req);
}

void
NativeRequestExecutor::quiesce()
{
    if (pool_)
        pool_->stop();
}

PoolOutcome
NativeRequestExecutor::poolOutcome()
{
    quiesce();
    PoolOutcome po;
    po.enabled = true;
    if (!pool_)
        return po;
    po.workers = pool_->workers();
    po.perWorker = pool_->workerStats();
    po.wallHostNs = pool_->wallHostNs();
    std::uint64_t executed = 0;
    for (const PoolWorkerStats &s : po.perWorker)
        executed += s.executed;
    po.execPerHostSec =
        po.wallHostNs
            ? double(executed) * 1e9 / double(po.wallHostNs)
            : 0.0;

    std::vector<OpRecord> log = popLog_;
    for (const std::vector<OpRecord> &l : logs_)
        log.insert(log.end(), l.begin(), l.end());
    po.opsRecorded = log.size();
    static_cast<NativeRunVerdict &>(po) = checkNativeRun(
        backend_->session(), ds_.ops, &log, workload_.workload,
        workload_.hashBuckets, workload_.seed, simReplay_);
    return po;
}

TmStats
NativeRequestExecutor::totalStats() const
{
    return backend_ ? backend_->totalStats() : TmStats{};
}

std::uint64_t
NativeRequestExecutor::checksum()
{
    quiesce();
    return ds_.ops.checksum(backend_->thread(0));
}

std::uint64_t
NativeRequestExecutor::size()
{
    quiesce();
    return ds_.ops.size(backend_->thread(0));
}

bool
NativeRequestExecutor::invariant()
{
    quiesce();
    return ds_.ops.invariant(backend_->thread(0));
}

// ---- SimRequestExecutor ----

SimRequestExecutor::SimRequestExecutor(TmScheme scheme,
                                       const StmConfig &stm)
    : scheme_(scheme), stm_(stm)
{
}

void
SimRequestExecutor::populate(const ExecutorWorkload &w, unsigned workers)
{
    SimBackendConfig cfg;
    cfg.session.scheme = scheme_;
    cfg.session.numThreads = std::max(1u, workers);
    cfg.machine.mem.numCores = cfg.session.numThreads;
    cfg.session.stm = stm_;
    backend_ = std::make_unique<SimBackend>(cfg);
    backlog_.clear();
    done_.clear();
    backend_->run({[&](TmExec &t) {
        svcdetail::buildAndPopulate(t, w, &ds_);
    }});
    backend_->resetStats();
}

std::uint64_t
SimRequestExecutor::submit(const ServiceRequest &req)
{
    std::uint64_t ticket = nextTicket_++;
    backlog_.emplace_back(ticket, req);
    return ticket;
}

void
SimRequestExecutor::runBacklog()
{
    // Every fiber drains the one shared FIFO. Fibers are cooperative,
    // so the host-side queue needs no lock, and which fiber takes
    // which request is fixed by the deterministic scheduler: each
    // fiber syncs before it looks at the queue, so the fiber whose
    // core is earliest in (cycle, core) order takes the next request.
    Scheduler &sched = backend_->machine().sched();
    auto drain = [this, &sched](TmExec &t) {
        for (;;) {
            sched.sync();
            if (backlog_.empty())
                break;
            auto [ticket, req] = backlog_.front();
            backlog_.pop_front();
            done_.emplace(ticket, svcdetail::measureOp(t, ds_.ops, req));
        }
    };
    std::size_t fibers =
        std::min<std::size_t>(backend_->numThreads(), backlog_.size());
    backend_->run(std::vector<std::function<void(TmExec &)>>(fibers,
                                                             drain));
}

ExecOutcome
SimRequestExecutor::collect(std::uint64_t ticket)
{
    auto it = done_.find(ticket);
    if (it == done_.end()) {
        runBacklog();
        it = done_.find(ticket);
        HASTM_ASSERT(it != done_.end());
    }
    ExecOutcome o = it->second;
    done_.erase(it);
    return o;
}

TmStats
SimRequestExecutor::totalStats() const
{
    return backend_ ? backend_->totalStats() : TmStats{};
}

std::uint64_t
SimRequestExecutor::checksum()
{
    std::uint64_t v = 0;
    backend_->run({[&](TmExec &t) { v = ds_.ops.checksum(t); }});
    return v;
}

std::uint64_t
SimRequestExecutor::size()
{
    std::uint64_t v = 0;
    backend_->run({[&](TmExec &t) { v = ds_.ops.size(t); }});
    return v;
}

bool
SimRequestExecutor::invariant()
{
    bool ok = false;
    backend_->run({[&](TmExec &t) { ok = ds_.ops.invariant(t); }});
    return ok;
}

} // namespace hastm
