/**
 * @file
 * The three native (host-thread STM) workloads: serve_kv drives the
 * service's WorkerPool from a fixed population of clients,
 * closed_short and closed_hot drive NativeBackend::run closed-loop.
 * All use the default snapshot-clock STM and take every input from
 * ArrivalGen streams seeded by --seed.
 */

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>

#include "backend/native_backend.hh"
#include "bench.hh"
#include "harness/ds_ops.hh"
#include "harness/oracle.hh"
#include "service/arrival.hh"
#include "service/executor.hh"
#include "service/worker_pool.hh"
#include "timed_exec.hh"

namespace bench {

namespace {

using namespace hastm;

/** Structure, initial population and op mix of a native workload. */
struct Shape
{
    WorkloadKind ds;
    unsigned buckets;
    std::uint64_t initialSize, keyRange;
    unsigned updatePct;
    double zipfS;
};

/**
 * serve_kv and closed_short: short read-mostly lookups, uniform keys.
 * Inserts and removes are equally likely, so a key is present half
 * the time at equilibrium; both structures are populated there (half
 * the key range) and do not drift in size, or in speed, during a run.
 */
constexpr Shape kKv{WorkloadKind::HashTable, 1024, 8192, 16384, 10, 0.0};

/** closed_hot: a small tree whose hot keys every thread updates. */
constexpr Shape kHot{WorkloadKind::Bst, 0, 256, 512, 50, 0.99};

/**
 * closed_short runs one thread: with more, the serial gate's mutex is
 * contended on every transaction and the run measures how fast the
 * host wakes a parked thread, which on a shared VM varied 4x within
 * hours. closed_hot keeps three threads, since conflicts are its point.
 */
constexpr unsigned kShortThreads = 1;
constexpr unsigned kHotThreads = 3;

constexpr unsigned kServeWorkers = 2;  // + the generator = 3 load threads
/**
 * Requests serve_kv's generator keeps in flight. More than the workers
 * plus the channel (2 per worker) hold, so the channel never runs dry
 * and the generator waits in submit() for space, as the front end of a
 * saturated service does.
 */
constexpr unsigned kServeClients = 8;
/**
 * Requests per serve_kv segment. A segment's logs are allocated and
 * touched at set-up, so peak RSS does not depend on throughput.
 */
constexpr std::size_t kSegmentReqs = 1 << 18;

constexpr std::size_t kRingOps = 1 << 17;   //!< per closed-loop thread
constexpr std::uint64_t kWindowNs = 1'000'000'000;
constexpr std::size_t kWindowCap = 1 << 14;  //!< samples per thread+window
constexpr unsigned kSetupReps = 9;
constexpr std::size_t kSpanCap = 1 << 16;   //!< spans per traced thread
constexpr std::uint64_t kSampleEvery = 256; //!< requests with full spans
constexpr std::size_t kDoneRing = 4096;     //!< > requests ever in flight

/**
 * The value every insert stores. A fixed function of the key makes the
 * structure's content a key set, which serve_kv reads back between
 * segments with contains().
 */
constexpr std::uint64_t
valueOf(std::uint64_t key)
{
    return key * 3 + 1;
}

/** A populated native session. */
struct Store
{
    std::unique_ptr<NativeBackend> backend;
    DsInstance ds;
    std::vector<OpRecord> popLog;  //!< epoch-0 inserts, for the oracle
    std::uint64_t size = 0;        //!< expected element count
};

Store
buildStore(const Shape &s, unsigned threads, std::uint64_t seed)
{
    NativeSessionConfig nc;
    nc.numThreads = threads;
    Store st;
    st.backend = std::make_unique<NativeBackend>(nc);
    TmExec &t = st.backend->thread(0);
    st.ds = makeDs(t, s.ds, s.buckets);
    Rng rng(seed * 7919 + 1);
    while (st.size < s.initialSize) {
        std::uint64_t key = rng.range(s.keyRange);
        bool fresh = st.ds.ops.insert(t, key, valueOf(key));
        st.popLog.push_back({t.commitStamp(), 0, 0, OpKind::Insert, key,
                             valueOf(key), fresh, st.popLog.size()});
        st.size += fresh;
    }
    st.backend->resetStats();
    return st;
}

ArrivalConfig
arrivals(const Shape &s, double rate)
{
    ArrivalConfig a;
    a.ratePerSec = rate;
    a.zipfS = s.zipfS;
    a.updatePct = s.updatePct;
    a.keyRange = s.keyRange;
    return a;
}

/** @p n requests of @p s's mix (arrival times unused). */
std::vector<ServiceRequest>
genRequests(const Shape &s, std::uint64_t seed, std::size_t n)
{
    ArrivalGen gen(arrivals(s, 1e6), seed);
    std::vector<ServiceRequest> out(n);
    for (ServiceRequest &r : out) {
        gen.next(~std::uint64_t(0), &r);
        if (r.op == OpKind::Insert)
            r.value = valueOf(r.key);
    }
    return out;
}

/** Post-run protocol and structure checks of a quiescent store. */
void
checkStore(Report &rep, Store &st)
{
    NativeSession &sess = st.backend->session();
    for (unsigned tid = 0; tid < sess.numThreads(); ++tid) {
        std::string diag = sess.thread(tid).invariantReport();
        rep.check(diag.empty(), "thread " + std::to_string(tid) +
                                    " protocol invariants " + diag);
    }
    rep.check(sess.runtime().gate().quiescent(), "serial gate quiescent");
    TmExec &t0 = st.backend->thread(0);
    std::uint64_t size = st.ds.ops.size(t0);
    rep.check(size == st.size,
              "size identity: final " + std::to_string(size) +
                  " == populated + inserted - removed " +
                  std::to_string(st.size));
    rep.check(st.ds.ops.invariant(t0), "structure invariant");
}

// ---- per-layer metrics ----

void
emitTmCounts(Report &rep, const TmStats &s, std::uint64_t ops)
{
    double kops = double(ops) / 1e3;
    rep.add("native.commit_ratio",
            ratio(double(s.commits), double(s.commits + s.aborts)), "ratio");
    rep.add("native.aborts.validation",
            ratio(double(s.abortsByKind[std::size_t(AbortKind::Validation)]),
                  kops), "1/kop");
    rep.add("native.aborts.cm_kill",
            ratio(double(s.abortsByKind[std::size_t(AbortKind::CmKill)]),
                  kops), "1/kop");
    rep.add("native.extensions_per_kop", ratio(double(s.extensions), kops),
            "1/kop");
    rep.add("native.extension_failures_per_kop",
            ratio(double(s.extensionFailures), kops), "1/kop");
    rep.add("native.irrevocable_per_kop",
            ratio(double(s.irrevocableEntries), kops), "1/kop");
    rep.add("native.clock_bumps_skipped_ratio",
            ratio(double(s.clockBumpsSkipped), double(s.commits)), "ratio");
    rep.add("native.rd_barriers_per_op",
            ratio(double(s.rdBarriers), double(ops)), "count");
    rep.add("native.wr_barriers_per_op",
            ratio(double(s.wrBarriers), double(ops)), "count");
}

void
emitTmTimes(Report &rep, const LayerSums &l)
{
    rep.add("native.driver_ns_per_attempt",
            ratio(double(l.opNs - l.bodyNs), double(l.attempts)), "ns");
    rep.add("native.read_barrier_ns", ratio(double(l.readNs), double(l.reads)),
            "ns");
    rep.add("native.write_barrier_ns",
            ratio(double(l.writeNs), double(l.writes)), "ns");
    rep.add("native.barrier_share",
            ratio(double(l.readNs + l.writeNs), double(l.opNs)), "ratio");
    rep.add("native.attempts_per_op", ratio(double(l.attempts), double(l.ops)),
            "count");
    rep.add("native.wasted_body_share",
            ratio(double(l.wastedBodyNs), double(l.bodyNs)), "ratio");
    rep.add("native.alloc_ns", ratio(double(l.allocNs), double(l.allocs)),
            "ns");
    for (unsigned k = 0; k < kNumOpKinds; ++k) {
        rep.add(std::string("native.op_ns.") + kOpKindNames[k],
                ratio(double(l.kindNs[k]), double(l.kindOps[k])), "ns");
    }
}

/**
 * The traced run's end-to-end view: tracing overhead (traced minus
 * untraced, as a share of the untraced), the ungated tail, and both
 * halves' values for layers.json.
 */
void
emitTracedE2e(Report &rep, const E2e &plain, const E2e &traced)
{
    auto rel = [](double t, double u) { return ratio(t - u, u); };
    rep.add("trace.overhead.ops_per_s", rel(traced.opsPerS, plain.opsPerS),
            "ratio");
    rep.add("trace.overhead.p50_us", rel(traced.p50Us, plain.p50Us), "ratio");
    rep.add("tail.p90_us", plain.p90Us, "us");
    rep.add("tail.p99_us", plain.p99Us, "us");
    for (const auto &[tag, e] : {std::pair{"untraced", plain},
                                 std::pair{"traced", traced}}) {
        std::string p = std::string("detail.") + tag + ".";
        rep.add(p + "ops_per_s", e.opsPerS, "1/s");
        rep.add(p + "p50_us", e.p50Us, "us");
        rep.add(p + "p90_us", e.p90Us, "us");
        rep.add(p + "p99_us", e.p99Us, "us");
    }
}

void
writeTrace(Report &rep, const Options &opt,
           const std::vector<std::unique_ptr<SpanLog>> &logs,
           const std::string &thread_prefix, const SpanLog *async,
           std::uint64_t origin)
{
    std::vector<const SpanLog *> ptrs;
    std::vector<std::string> names;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < logs.size(); ++i) {
        ptrs.push_back(logs[i].get());
        names.push_back(thread_prefix + std::to_string(i));
        dropped += logs[i]->dropped();
    }
    std::string path = opt.traceDir + "/trace.json";
    rep.check(writeChromeTrace(path, ptrs, names, async, origin),
              "wrote " + path);
    rep.info("trace spans dropped (buffers full): " + std::to_string(dropped));
}

// ---- closed loop ----

struct ClosedRun
{
    std::optional<Windowed> win;  //!< per-call latency, by completion
    Mix mix;
    TmStats tm;
    LayerSums layers;
    std::uint64_t origin = 0;
};

/** Every thread runs its input ring against the store for @p seconds. */
ClosedRun
measureClosed(Store &st, const std::vector<std::vector<ServiceRequest>> &rings,
              double seconds, std::uint64_t seed,
              std::vector<std::unique_ptr<SpanLog>> *spans)
{
    unsigned n = st.backend->numThreads();
    struct Out
    {
        std::optional<Windowed> win;
        Mix mix;
        LayerSums layers;
    };
    std::vector<Out> outs(n);
    std::atomic<unsigned> ready{0};
    std::atomic<std::uint64_t> start{0};
    std::uint64_t dur = std::uint64_t(seconds * 1e9);
    std::vector<std::function<void(TmExec &)>> bodies;
    for (unsigned tid = 0; tid < n; ++tid) {
        bodies.push_back([&, tid](TmExec &t) {
            std::unique_ptr<TimedExec> timed;
            if (spans)
                timed = std::make_unique<TimedExec>(t, *(*spans)[tid]);
            TmExec &x = timed ? *timed : t;
            if (ready.fetch_add(1) + 1 == n)
                start.store(nowNs());
            std::uint64_t t0;
            while ((t0 = start.load()) == 0) {
            }
            // Thread-local until the end: the per-op bookkeeping must
            // not share cache lines with the other threads'.
            Windowed win(t0, dur, kWindowNs, kWindowCap, seed * 31 + tid);
            Mix mix;
            const std::vector<ServiceRequest> &ring = rings[tid];
            for (std::uint64_t i = 0, b = t0; b < t0 + dur; ++i) {
                const ServiceRequest &req = ring[i % ring.size()];
                if (timed)
                    timed->beginRequest(i, i % kSampleEvery == 0);
                std::uint64_t a = nowNs();
                bool res = svcdetail::runOp(x, st.ds.ops, req).opResult;
                b = nowNs();
                win.add(b, b - a);
                mix.note(req.op, res);
            }
            outs[tid].win = std::move(win);
            outs[tid].mix = mix;
            if (timed)
                outs[tid].layers = timed->sums();
        });
    }
    st.backend->run(bodies);
    ClosedRun r;
    r.tm = st.backend->totalStats();
    r.origin = start.load();
    r.win.emplace(r.origin, dur, kWindowNs);
    for (Out &o : outs) {
        r.win->append(*o.win);
        r.mix.merge(o.mix);
        r.layers.merge(o.layers);
    }
    st.size += r.mix.sizeDelta();
    return r;
}

void
runClosed(const Options &opt, Report &rep, const Shape &shape,
          unsigned threads)
{
    auto measure = [&](bool traced, double seconds,
                       std::vector<double> *setups) {
        Store st;
        std::vector<std::vector<ServiceRequest>> rings;
        unsigned reps = setups ? kSetupReps : 1;
        for (unsigned i = 0; i < reps; ++i) {
            st = Store{};  // tear down outside the timed region
            rings.clear();
            std::uint64_t t0 = nowNs();
            st = buildStore(shape, threads, opt.seed);
            for (unsigned tid = 0; tid < threads; ++tid) {
                rings.push_back(genRequests(
                    shape, opt.seed + 104729ull * (tid + 1), kRingOps));
            }
            if (setups)
                setups->push_back(double(nowNs() - t0) / 1e9);
        }
        std::vector<std::unique_ptr<SpanLog>> spans;
        for (unsigned i = 0; traced && i < threads; ++i)
            spans.push_back(std::make_unique<SpanLog>(kSpanCap));
        ClosedRun r = measureClosed(st, rings, seconds, opt.seed,
                                    traced ? &spans : nullptr);
        checkStore(rep, st);
        rep.attempted += r.mix.total();
        if (traced)
            writeTrace(rep, opt, spans, "load thread ", nullptr, r.origin);
        return r;
    };
    auto e2e = [](ClosedRun &r) {
        return E2e{r.win->rate(), r.win->us(0.50), r.win->us(0.90),
                   r.win->us(0.99)};
    };

    if (!opt.trace) {
        std::vector<double> setups;
        ClosedRun r = measure(false, opt.seconds, &setups);
        emitE2e(rep, e2e(r), r.win->note(), setups);
        return;
    }
    // Counts from the untraced half, times from the traced half.
    ClosedRun plain = measure(false, opt.seconds / 2, nullptr);
    ClosedRun traced = measure(true, opt.seconds / 2, nullptr);
    emitTmCounts(rep, plain.tm, plain.mix.total());
    emitTmTimes(rep, traced.layers);
    emitMix(rep, plain.mix);
    emitTracedE2e(rep, e2e(plain), e2e(traced));
}

// ---- a fixed population of clients through the service's worker pool ----

/** When one request ran, as the executing worker saw it. */
struct ExecTimes
{
    std::uint64_t seq, startNs, endNs;
};

/**
 * What one worker executed in the current segment, in its program
 * order: ops[i] is the request of times[i]. Sized for a whole segment
 * at set-up, so the workers never allocate.
 */
struct WorkerLog
{
    std::vector<ExecTimes> times;
    std::vector<OpRecord> ops;
    std::size_t n = 0;
};

/** serve_kv's set-up: the store, the input ring and the segment logs. */
struct ServeSetup
{
    Store st;
    std::vector<ServiceRequest> ring;  //!< one segment's requests
    std::vector<WorkerLog> logs;
    std::vector<std::uint64_t> submitNs;  //!< by position in the segment
};

ServeSetup
buildServe(std::uint64_t seed)
{
    ServeSetup s;
    s.st = buildStore(kKv, kServeWorkers, seed);
    s.ring = genRequests(kKv, seed + 0x9e3779b97f4a7c15ull, kSegmentReqs);
    s.logs.resize(kServeWorkers);
    for (WorkerLog &log : s.logs) {
        log.times.resize(kSegmentReqs);
        log.ops.resize(kSegmentReqs);
    }
    s.submitNs.resize(kSegmentReqs);
    return s;
}

/**
 * The structure's content as epoch-0 inserts, read back key by key
 * through @p t into @p out: the replay oracle's starting state for the
 * next segment. False when it disagrees with the structure's own size
 * or checksum.
 */
bool
readBack(Store &st, TmExec &t, std::uint64_t key_range,
         std::vector<OpRecord> *out)
{
    out->clear();
    std::uint64_t sum = 0;
    for (std::uint64_t key = 0; key < key_range; ++key) {
        if (!st.ds.ops.contains(t, key))
            continue;
        out->push_back({0, 0, 0, OpKind::Insert, key, valueOf(key), true,
                        out->size()});
        sum += key * 0x9e3779b97f4a7c15ull + valueOf(key);
    }
    return out->size() == st.ds.ops.size(t) && sum == st.ds.ops.checksum(t);
}

/** The TmStats fields emitTmCounts reads, summed over segments. */
void
addCounts(TmStats &acc, const TmStats &s)
{
    acc.commits += s.commits;
    acc.aborts += s.aborts;
    for (std::size_t k = 0; k < acc.abortsByKind.size(); ++k)
        acc.abortsByKind[k] += s.abortsByKind[k];
    acc.extensions += s.extensions;
    acc.extensionFailures += s.extensionFailures;
    acc.irrevocableEntries += s.irrevocableEntries;
    acc.clockBumpsSkipped += s.clockBumpsSkipped;
    acc.rdBarriers += s.rdBarriers;
    acc.wrBarriers += s.wrBarriers;
}

/** Median over segments of each segment's @p q quantile, in us. */
double
medianUs(std::vector<Samples> &segs, double q)
{
    std::vector<double> v;
    for (Samples &s : segs)
        v.push_back(s.us(q));
    return median(v);
}

struct ServeRun
{
    // One entry per segment.
    std::vector<double> rates;             //!< completions per second
    std::vector<Samples> latency, queue, exec;
    double submitUs = 0.0;  //!< mean generator time inside submit()
    double busyRatio = 0.0, dispatchUs = 0.0;
    Mix mix;
    TmStats tm;
    LayerSums layers;

    /** Median of segments, plus the pooled sample count and tail. */
    std::string
    note()
    {
        Samples all;
        for (const Samples &s : latency)
            all.append(s);
        return "median of " + std::to_string(rates.size()) + " segments of " +
               std::to_string(kSegmentReqs) + " requests; " + all.tailNote() +
               " pooled";
    }
};

/**
 * Segments of kSegmentReqs requests while the next one still fits in
 * @p seconds (at least one). Within a segment the generator keeps
 * kServeClients requests in flight. Between segments the pool is
 * idle: the segment is checked, and its time is not measured.
 */
ServeRun
measureServe(const Options &opt, Report &rep, ServeSetup &s, double seconds,
             bool traced)
{
    const unsigned W = kServeWorkers;
    const std::size_t N = kSegmentReqs;
    Store &st = s.st;
    std::unique_ptr<std::atomic<std::uint64_t>[]> done(
        new std::atomic<std::uint64_t>[kDoneRing]());
    std::vector<std::unique_ptr<SpanLog>> spans;
    std::vector<std::unique_ptr<TimedExec>> timed;
    for (unsigned w = 0; traced && w < W; ++w) {
        spans.push_back(std::make_unique<SpanLog>(kSpanCap));
        timed.push_back(
            std::make_unique<TimedExec>(st.backend->thread(w), *spans[w]));
    }
    SpanLog async(kSpanCap);

    // Worker w touches only logs[w], timed[w] and thread w; `done`
    // publishes "ExecFn finished" so the generator never blocks in
    // collect() on a request still running.
    WorkerPool pool(W, [&](unsigned w, const ServiceRequest &req) {
        std::uint64_t start = nowNs();
        TmExec &native = st.backend->thread(w);
        TmExec *t = &native;
        if (traced) {
            timed[w]->beginRequest(req.seq, req.seq % kSampleEvery == 0);
            t = timed[w].get();
        }
        ExecOutcome o = svcdetail::runOp(*t, st.ds.ops, req);
        std::uint64_t end = nowNs();
        WorkerLog &log = s.logs[w];
        log.times[log.n] = {req.seq, start, end};
        log.ops[log.n] = {native.commitStamp(), w, 1, req.op, req.key,
                          req.value, o.opResult, log.n};
        ++log.n;
        done[req.seq % kDoneRing].store(req.seq + 1,
                                        std::memory_order_release);
        return o;
    });

    struct Pending
    {
        std::uint64_t ticket, seq;
        bool seen;  //!< finished at an earlier drain: collect now
    };
    std::vector<Pending> pending;
    std::uint64_t base = 0;  // seq of the segment's first request
    // Per position in the segment: 0 none, 1/2 result+1.
    std::vector<std::uint8_t> collected(N), logged(N);
    std::uint64_t in_flight = 0, duplicates = 0;
    auto drain = [&](bool all) {
        for (std::size_t i = 0; i < pending.size();) {
            Pending &p = pending[i];
            if (all || p.seen) {
                ExecOutcome o = pool.collect(p.ticket);
                std::uint8_t &c = collected[p.seq - base];
                duplicates += c != 0;
                c = std::uint8_t(1 + o.opResult);
                pending[i] = pending.back();
                pending.pop_back();
                continue;
            }
            if (done[p.seq % kDoneRing].load(std::memory_order_acquire) ==
                p.seq + 1) {
                p.seen = true;
                --in_flight;
            }
            ++i;
        }
    };

    ServeRun r;
    TmExec &t0 = st.backend->thread(0);  // checks, while the pool idles
    std::vector<OpRecord> start_state = st.popLog;
    const std::uint64_t origin = nowNs(), budget = std::uint64_t(seconds * 1e9);
    std::uint64_t measured = 0, last = 0, submit_ns = 0, busy_ns = 0;
    std::uint64_t missing = 0, mismatched = 0, bad_seq = 0, replay_fail = 0,
                  read_back_fail = 0;
    std::string replay_diag;
    while (r.rates.empty() || measured + last <= budget) {
        std::uint64_t seg = r.rates.size();
        for (WorkerLog &log : s.logs)
            log.n = 0;
        std::fill(collected.begin(), collected.end(), 0);
        std::fill(logged.begin(), logged.end(), 0);
        st.backend->resetStats();

        std::uint64_t begin = nowNs();
        for (std::size_t j = 0; j < N; ++j) {
            while (in_flight >= kServeClients)
                drain(false);
            ServiceRequest req = s.ring[j];
            req.seq = base + j;
            std::uint64_t a = nowNs();
            s.submitNs[j] = a;
            pending.push_back({pool.submit(req), req.seq, false});
            submit_ns += nowNs() - a;
            ++in_flight;
        }
        while (in_flight > 0)
            drain(false);
        drain(true);
        addCounts(r.tm, st.backend->totalStats());

        // ---- the segment's requests, from the worker logs ----
        Samples lat(kWindowCap, opt.seed * 31 + seg),
            queue(kWindowCap, opt.seed * 37 + seg),
            exec(kWindowCap, opt.seed * 41 + seg);
        std::uint64_t end = begin;
        // Sized once: growing it would briefly hold two copies, by an
        // amount that depends on how the workers split the segment.
        std::vector<OpRecord> oplog;
        oplog.reserve(start_state.size() + N);
        oplog.insert(oplog.end(), start_state.begin(), start_state.end());
        for (unsigned w = 0; w < W; ++w) {
            const WorkerLog &log = s.logs[w];
            for (std::size_t i = 0; i < log.n; ++i) {
                const ExecTimes &x = log.times[i];
                const OpRecord &op = log.ops[i];
                if (x.seq < base || x.seq >= base + N ||
                    logged[x.seq - base]) {
                    ++bad_seq;
                    continue;
                }
                std::uint64_t sub = s.submitNs[x.seq - base];
                logged[x.seq - base] = std::uint8_t(1 + op.result);
                r.mix.note(op.kind, op.result);
                lat.add(x.endNs - sub);
                queue.add(x.startNs - sub);
                exec.add(x.endNs - x.startNs);
                busy_ns += x.endNs - x.startNs;
                end = std::max(end, x.endNs);
                if (traced && x.seq % kSampleEvery == 0) {
                    async.add("svc.request", sub, x.endNs, x.seq);
                    async.add("svc.queue", sub, x.startNs, x.seq);
                    spans[w]->add("svc.exec", x.startNs, x.endNs, x.seq);
                }
            }
            oplog.insert(oplog.end(), log.ops.begin(),
                         log.ops.begin() + std::ptrdiff_t(log.n));
        }
        for (std::size_t j = 0; j < N; ++j) {
            missing += logged[j] == 0;
            mismatched += collected[j] != logged[j];
        }
        r.rates.push_back(double(N) * 1e9 / double(end - begin));
        r.latency.push_back(std::move(lat));
        r.queue.push_back(std::move(queue));
        r.exec.push_back(std::move(exec));
        measured += end - begin;
        rep.attempted += N;
        base += N;

        // ---- replay the segment from its starting state ----
        OracleOutcome oo =
            replayOps(std::move(oplog), st.ds.ops.checksum(t0),
                      st.ds.ops.size(t0), st.ds.ops.invariant(t0), opt.seed);
        if (!oo.ok && replay_fail++ == 0)
            replay_diag = "segment " + std::to_string(seg) + ": " + oo.diag;
        read_back_fail += !readBack(st, t0, kKv.keyRange, &start_state);
        last = end - begin;
    }
    pool.stop();

    rep.failed += missing + mismatched + bad_seq + duplicates + replay_fail +
                  read_back_fail;
    rep.check(missing == 0 && bad_seq == 0,
              "every request executed exactly once (" +
                  std::to_string(base) + " submitted in " +
                  std::to_string(r.rates.size()) + " segments)");
    rep.check(mismatched == 0 && duplicates == 0,
              "every ticket collected exactly once, with the executed result");
    rep.check(replay_fail == 0,
              "replay oracle over every segment's worker logs, from the "
              "content read back before it " + replay_diag);
    rep.check(read_back_fail == 0, "the content read back after every "
                                   "segment matches the structure's size "
                                   "and checksum");
    st.size += r.mix.sizeDelta();
    checkStore(rep, st);

    double wall = double(W) * double(measured);
    r.submitUs = ratio(double(submit_ns), double(base)) / 1e3;
    r.busyRatio = ratio(double(busy_ns), wall);
    r.dispatchUs = ratio(wall - double(busy_ns), double(base)) / 1e3;
    if (traced) {
        for (unsigned w = 0; w < W; ++w)
            r.layers.merge(timed[w]->sums());
        writeTrace(rep, opt, spans, "worker ", &async, origin);
    }
    return r;
}

} // namespace

void
runServeKv(const Options &opt, Report &rep)
{
    auto measure = [&](bool traced, double seconds,
                       std::vector<double> *setups) {
        ServeSetup s;
        unsigned reps = setups ? kSetupReps : 1;
        for (unsigned i = 0; i < reps; ++i) {
            // Tear down outside the timed region, and before the next
            // copy is built, so the peak holds only one.
            s = ServeSetup{};
            std::uint64_t t0 = nowNs();
            s = buildServe(opt.seed);
            if (setups)
                setups->push_back(double(nowNs() - t0) / 1e9);
        }
        return measureServe(opt, rep, s, seconds, traced);
    };
    auto e2e = [](ServeRun &r) {
        return E2e{median(r.rates), medianUs(r.latency, 0.50),
                   medianUs(r.latency, 0.90), medianUs(r.latency, 0.99)};
    };

    if (!opt.trace) {
        std::vector<double> setups;
        ServeRun r = measure(false, opt.seconds, &setups);
        emitE2e(rep, e2e(r), r.note(), setups);
        return;
    }
    ServeRun plain = measure(false, opt.seconds / 2, nullptr);
    ServeRun traced = measure(true, opt.seconds / 2, nullptr);
    rep.add("service.queue_wait_p50_us", medianUs(plain.queue, 0.50), "us");
    rep.add("service.queue_wait_p99_us", medianUs(plain.queue, 0.99), "us");
    rep.add("service.exec_p50_us", medianUs(plain.exec, 0.50), "us");
    rep.add("service.exec_p99_us", medianUs(plain.exec, 0.99), "us");
    rep.add("service.submit_block_us", plain.submitUs, "us");
    rep.add("service.worker_busy_ratio", plain.busyRatio, "ratio");
    rep.add("service.dispatch_us_per_req", plain.dispatchUs, "us");
    emitTmCounts(rep, plain.tm, plain.mix.total());
    emitTmTimes(rep, traced.layers);
    emitMix(rep, plain.mix);
    emitTracedE2e(rep, e2e(plain), e2e(traced));
}

void
runClosedShort(const Options &opt, Report &rep)
{
    runClosed(opt, rep, kKv, kShortThreads);
}

void
runClosedHot(const Options &opt, Report &rep)
{
    runClosed(opt, rep, kHot, kHotThreads);
}

} // namespace bench
