#include "service/executor.hh"

#include <algorithm>

#include "harness/native_experiment.hh"
#include "service/worker_pool.hh"
#include "sim/logging.hh"

namespace hastm {

// ---- RivalryExec ----

bool
RivalryExec::atomic(const std::function<void()> &fn)
{
    // Delegate the whole retry loop to the inner thread so its
    // scheme, stats, watchdog, and gate behavior apply unchanged;
    // only the body is wrapped. The wrapper re-evaluates its state on
    // every attempt: once the inner thread escalates to irrevocable,
    // the bracket (and any rival firing) is skipped — the block then
    // commits alone, exactly like a quiesced overload victim.
    return inner_.atomic([&] {
        if (pending_ == 0 || !fire_ || inner_.inIrrevocable()) {
            fn();
            return;
        }
        inner_.readField(hot_, cls_ * 8);
        fn();
        --pending_;
        fire_();  // rival commit invalidates the bracket read
        inner_.readField(hot_, cls_ * 8);
    });
}

void
RivalryExec::unreachable(const char *hook)
{
    panic("RivalryExec::%s: decorator scheme hooks must never run",
          hook);
}

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
    switch (req.op) {
      case OpKind::Contains:
        o.opResult = ops.contains(t, req.key);
        break;
      case OpKind::Insert:
        o.opResult = ops.insert(t, req.key, req.value);
        break;
      case OpKind::Remove:
        o.opResult = ops.remove(t, req.key);
        break;
    }
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

NativeRequestExecutor::NativeRequestExecutor(const StmConfig &stm,
                                             bool sim_replay,
                                             const NativeFaultParams &fault)
    : stm_(stm), simReplay_(sim_replay), fault_(fault)
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
    nc.stm = stm_;
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
NativeRequestExecutor::collect(std::uint64_t ticket, unsigned)
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

    auto fail = [&](const std::string &what) {
        if (po.diag.empty())
            po.diag = what;
    };

    // ---- native protocol invariant sweep (always on) ----
    NativeSession &sess = backend_->session();
    for (unsigned tid = 0; tid < sess.numThreads(); ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        if (!diag.empty()) {
            po.nativeInvariantsOk = false;
            fail("thread " + std::to_string(tid) + ": " + diag);
        }
    }
    if (!sess.runtime().gate().quiescent()) {
        po.nativeInvariantsOk = false;
        fail("gate not quiescent");
    }

    // ---- replay oracle over the merged, serialization-ordered log ----
    std::vector<OpRecord> log = popLog_;
    for (const std::vector<OpRecord> &l : logs_)
        log.insert(log.end(), l.begin(), l.end());
    std::sort(log.begin(), log.end(), opOrderLess);
    po.opsRecorded = log.size();
    TmExec &t0 = backend_->thread(0);
    std::uint64_t cks = ds_.ops.checksum(t0);
    std::uint64_t sz = ds_.ops.size(t0);
    bool inv = ds_.ops.invariant(t0);
    OracleOutcome oo = replayOps(log, cks, sz, inv, workload_.seed);
    po.oracleChecked = true;
    po.oracleOk = oo.ok;
    if (!oo.ok)
        fail("oracle: " + oo.diag);

    // ---- sim-replay cross-validation (fibers; off under TSan) ----
    if (simReplay_) {
        SimBackendConfig sc;
        sc.session.scheme = TmScheme::Sequential;
        sc.session.numThreads = 1;
        SimBackend sim(sc);
        ReplayOutcome rep = replayThroughBackend(
            sim, workload_.workload, workload_.hashBuckets, log);
        po.simReplayChecked = true;
        po.simReplayOk = rep.ok && rep.invariantOk &&
                         rep.checksum == cks && rep.finalSize == sz;
        if (!po.simReplayOk) {
            fail("sim replay: " +
                 (rep.diag.empty() ? std::string("final state differs")
                                   : rep.diag));
        }
    }
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

bool
NativeRequestExecutor::gateQuiescent()
{
    quiesce();
    return backend_->session().runtime().gate().quiescent();
}

// ---- SimRequestExecutor ----

SimRequestExecutor::SimRequestExecutor(TmScheme scheme,
                                       const StmConfig &stm)
{
    SimBackendConfig cfg;
    cfg.machine.mem.numCores = 2;  // core 0 requests, core 1 rivalry
    cfg.session.scheme = scheme;
    cfg.session.numThreads = 2;
    cfg.session.stm = stm;
    backend_ = std::make_unique<SimBackend>(cfg);
}

void
SimRequestExecutor::populate(const ExecutorWorkload &w, unsigned)
{
    pending_.clear();
    classes_ = std::max(1u, w.conflictClasses);
    backend_->run({[&](TmExec &t) {
        t.setSite(txsite::kGeneric);
        t.atomic([&] {
            hot_ = t.txAlloc(classes_ * 8);
            for (unsigned c = 0; c < classes_; ++c)
                t.writeField(hot_, c * 8, 1);
        });
        svcdetail::buildAndPopulate(t, w, &ds_);
    }});
    backend_->resetStats();
}

std::uint64_t
SimRequestExecutor::submit(const ServiceRequest &req)
{
    std::uint64_t ticket = nextTicket_++;
    pending_.emplace(ticket, req);
    return ticket;
}

ExecOutcome
SimRequestExecutor::collect(std::uint64_t ticket, unsigned rivals)
{
    auto it = pending_.find(ticket);
    HASTM_ASSERT(it != pending_.end());
    const ServiceRequest req = it->second;
    pending_.erase(it);
    unsigned cls = unsigned(req.key % classes_);
    ExecOutcome o;
    RivalPace pace;
    // Spin quantum and cap for the handshake: enough simulated work
    // for the peer fiber to run a whole short transaction, bounded so
    // a rival that cannot commit right now (e.g. stalled by the
    // worker's own hardware transaction) never wedges the run.
    constexpr unsigned kSpin = 25, kSpinCap = 400;
    std::vector<std::function<void(TmExec &)>> bodies;
    bodies.emplace_back([&](TmExec &t) {
        RivalryExec rx(t);
        rx.arm(hot_, cls, rivals, [&pace, &t] {
            ++pace.want;
            for (unsigned i = 0; i < kSpinCap && pace.done < pace.want;
                 ++i) {
                t.simInstr(kSpin);
            }
        });
        o = svcdetail::measureOp(rx, ds_.ops, req);
        o.commitStamp = t.commitStamp();
        pace.quit = true;
    });
    if (rivals > 0) {
        bodies.emplace_back([&, cls, rivals](TmExec &t) {
            t.setSite(txsite::kGeneric);
            for (unsigned i = 0; i < rivals; ++i) {
                while (!pace.quit && pace.want <= i)
                    t.simInstr(kSpin);
                if (pace.want <= i)
                    break;  // worker finished without this rival
                t.atomic([&] {
                    std::uint64_t v = t.readField(hot_, cls * 8);
                    t.writeField(hot_, cls * 8, v + 1);
                });
                ++pace.done;
            }
        });
    }
    backend_->run(bodies);
    o.rivals = rivals;
    return o;
}

TmStats
SimRequestExecutor::totalStats() const
{
    return backend_->totalStats();
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
