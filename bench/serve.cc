/**
 * @file
 * Open-system transaction service campaign (DESIGN.md §12).
 *
 * Drives the service subsystem (src/service/) across every execution
 * substrate — the native STM and the simulated software, hybrid,
 * and adaptive schemes — through four open-system load
 * shapes derived from each cell's own calibrated capacity:
 *
 *   under  0.5x capacity, Poisson         (drop-free baseline)
 *   sat    1.0x capacity, Poisson         (knee of the curve)
 *   over   2.0x capacity, Poisson         (delay-based shedding)
 *   burst  0.25x / 3x on-off burst        (recovery evidence)
 *
 * Capacity is not guessed: each scheme/seed pair first runs a
 * contention-free calibration batch of Contains requests through a
 * 1-worker executor and derives the effective mean service time from
 * the measured barrier counts and the virtual service-time model, so
 * "2x overload" means the same thing on a barrier-heavy software STM
 * and on the hardware rung.
 *
 * Native cells run their workers REALLY in parallel: the pool
 * executor (service/executor.hh) executes admitted requests
 * concurrently on N host threads sharing one native STM — genuine
 * cross-worker conflicts — and workers = 1 is one FIFO host thread
 * with a bit-identical fingerprint. Sim cells run each request on one
 * simulated core against rival commits from a second, scaled by how
 * many busy workers collide with it. A worker-scaling sweep
 * (native x 1/2/4 workers x sat/over) measures the throughput
 * headline; the saturated 4-worker cell must
 * reach >= 1.8x the 1-worker goodput on a >= 4-core host (the check
 * skips with a warning below that).
 *
 * Every cell is self-checked:
 *  - accounting: offered == admitted + dropped + shed, completed ==
 *    admitted after drain, per-worker occupancy sums to the total
 *    busy time, invariants and (native) gate quiescence;
 *  - under: zero drops, zero sheds, everything completes;
 *  - over: the DelayBackpressure policy really sheds, the committed
 *    p99 stays within sloP99Ns * sloMultiple, and goodput holds at
 *    >= half capacity — overload degrades into shedding, not
 *    collapse;
 *  - burst: the post-burst calm phase recovers — the final window's
 *    p99 returns to within 2x the pre-burst p99 (+ one mean service
 *    time of slack) and the queue drains;
 *  - determinism (two-mode): the whole matrix runs twice (through
 *    the same --jobs pool). Deterministic cells (sim, native w1) must
 *    fingerprint bit-identically across passes; native w2+ cells are
 *    fingerprint-exempt. Every native cell must pass the replay
 *    oracle over its recorded op log, the sim-replay
 *    cross-validation, and the native invariant sweep — on BOTH
 *    passes.
 *
 * Flags: --ci trims the matrix for CI latency; --backend
 * native|sim|all restricts the substrate (TSan runs use --backend
 * native: the sim's fibers cannot be instrumented); --scheme /
 * --load / --workers / --seed restrict axes; --no-sim-replay skips
 * the pool cells' fiber-based sim replay (TSan again; the in-process
 * replay oracle still runs); --jobs N runs cells in parallel; --json
 * writes the report (BENCH_serve.json baseline).
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/cli.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/table.hh"
#include "service/server.hh"
#include "sim/logging.hh"

using namespace hastm;

namespace {

// ---- the scheme axis ----

struct SchemeCell
{
    const char *name;
    bool native;
    TmScheme scheme;  //!< sim scheme select
};

const SchemeCell kSchemes[] = {
    {"native", true, TmScheme::Stm},
    {"sim/stm", false, TmScheme::Stm},
    {"sim/hastm", false, TmScheme::Hastm},
    {"sim/adaptive", false, TmScheme::Adaptive},
};

/** Build the executor for one cell (populate() sizes it from the
 *  cell's worker count). */
std::unique_ptr<RequestExecutor>
makeExecutor(const SchemeCell &s, bool sim_replay)
{
    if (s.native)
        return std::make_unique<NativeRequestExecutor>(StmConfig{},
                                                       sim_replay);
    return std::make_unique<SimRequestExecutor>(s.scheme, StmConfig{});
}

// ---- the load axis ----

enum class LoadKind { Under, Sat, Over, Burst };

const LoadKind kLoads[] = {LoadKind::Under, LoadKind::Sat,
                           LoadKind::Over, LoadKind::Burst};

const char *
loadName(LoadKind l)
{
    switch (l) {
      case LoadKind::Under: return "under";
      case LoadKind::Sat:   return "sat";
      case LoadKind::Over:  return "over";
      case LoadKind::Burst: return "burst";
    }
    return "?";
}

ExecutorWorkload
serveWorkload(std::uint64_t seed)
{
    ExecutorWorkload w;
    w.workload = WorkloadKind::HashTable;
    w.hashBuckets = 64;
    w.initialSize = 128;
    w.keyRange = 256;
    w.seed = seed;
    w.conflictClasses = 4;
    return w;
}

/**
 * Effective mean service time for one scheme: a zero-rival batch of
 * Contains requests, one at a time, through a fresh 1-worker
 * executor, fed into the virtual service-time model. Deterministic (the 1-worker
 * executors are), so both passes and every worker count agree on
 * capacity.
 */
std::uint64_t
calibrateServiceNs(const SchemeCell &s, const ServiceConfig &proto)
{
    std::unique_ptr<RequestExecutor> exec =
        makeExecutor(s, /*sim_replay=*/false);
    exec->populate(proto.workload, 1);
    constexpr unsigned kProbes = 64;
    std::uint64_t barriers = 0, aborts = 0, irrevoc = 0;
    for (unsigned i = 0; i < kProbes; ++i) {
        ServiceRequest req;
        req.op = OpKind::Contains;
        req.key = (i * 37) % proto.workload.keyRange;
        ExecOutcome o = exec->execute(req);
        barriers += o.barriers;
        aborts += o.aborts;
        irrevoc += o.irrevocable;
    }
    return proto.baseServiceNs +
           proto.perBarrierNs * (barriers / kProbes) +
           proto.perAbortNs * (aborts / kProbes) +
           proto.perIrrevocNs * (irrevoc / kProbes);
}

ServiceConfig
serveConfig(LoadKind load, std::uint64_t seed, unsigned workers,
            std::uint64_t duration_ns, std::uint64_t service_ns)
{
    ServiceConfig cfg;
    cfg.workload = serveWorkload(seed);
    cfg.workers = workers;
    cfg.baseServiceNs = 40'000;
    cfg.perBarrierNs = 12;
    cfg.perAbortNs = 20'000;
    cfg.perIrrevocNs = 40'000;
    cfg.durationNs = duration_ns;
    cfg.windowNs = 1'000'000;
    cfg.rivalCap = 3;
    cfg.admission.queueCap = 64;
    cfg.admission.sloP99Ns = 20 * service_ns;
    cfg.admission.sloMultiple = 2.0;
    cfg.arrival.keyRange = cfg.workload.keyRange;
    cfg.arrival.zipfS = 0.8;
    cfg.arrival.updatePct = 20;
    double capacity = cfg.workers * 1e9 / double(service_ns);
    switch (load) {
      case LoadKind::Under:
        cfg.arrival.ratePerSec = 0.5 * capacity;
        break;
      case LoadKind::Sat:
        cfg.arrival.ratePerSec = 1.0 * capacity;
        break;
      case LoadKind::Over:
        cfg.arrival.ratePerSec = 2.0 * capacity;
        cfg.admission.policy = AdmissionPolicy::DelayBackpressure;
        // The attainable p99 is bounded by the queue-drain ceiling
        // (queueCap / workers + 1) * serviceNs: a fixed multiple of
        // serviceNs is unreachable at 4 workers (threshold above the
        // ceiling -> backpressure never bites) and unavoidable at 1
        // (ceiling above the bound -> pre-shed backlog blows it). Set
        // the trigger at roughly half the ceiling, with slack so the
        // checked bound (x sloMultiple) clears the worst-case
        // backlog drain at every worker count.
        cfg.admission.sloP99Ns =
            (cfg.admission.queueCap / workers + 8) * service_ns / 2;
        // The pre-shed backlog (run concurrently on the native pool,
        // against rivals on the sim) drains at an abort-inflated
        // service time the contention-free calibration cannot see;
        // widen the checked bound (not the trigger) to cover it.
        cfg.admission.sloMultiple = 2.5;
        break;
      case LoadKind::Burst:
        // One calm lead-in, one burst, one calm tail: the process is
        // periodic (period off+on = 5/8 duration), so the second
        // period would start exactly at the horizon — a single burst
        // per run. The queue bound doubles as the backlog bound: 32
        // requests at a contention-inflated service time drain well
        // inside the 3/8-duration tail, so recovery is observable
        // even at the short CI horizon.
        cfg.arrival.kind = ArrivalKind::OnOffBurst;
        cfg.arrival.ratePerSec = 0.25 * capacity;
        cfg.arrival.burstRatePerSec = 3.0 * capacity;
        cfg.arrival.offNs = duration_ns * 3 / 8;
        cfg.arrival.onNs = duration_ns / 4;
        cfg.admission.queueCap = 32;
        break;
    }
    return cfg;
}

// ---- self-checks ----

/** p99 of the last window closing at or before @p t (0 if none). */
std::uint64_t
windowP99Before(const ServiceResult &r, std::uint64_t window_ns,
                std::uint64_t t)
{
    std::uint64_t p = 0;
    for (const ServiceWindow &w : r.windows) {
        if (w.startNs + window_ns <= t && w.completed > 0)
            p = w.p99Ns;
    }
    return p;
}

/** Returns "" when every check for @p load passes, else a diag. */
std::string
checkCell(LoadKind load, const ServiceConfig &cfg, const ServiceResult &r,
          std::uint64_t service_ns)
{
    if (r.offered != r.admitted + r.droppedFull + r.shedPolicy)
        return "accounting: offered != admitted + dropped + shed";
    if (r.completed != r.admitted)
        return "drain: completed != admitted";
    if (!r.invariantOk)
        return "structure invariant violated";
    if (!r.gateQuiescent)
        return "native gate not quiescent after drain";
    std::uint64_t occBusy = 0, occDone = 0;
    for (std::uint64_t b : r.workerBusyNs)
        occBusy += b;
    for (std::uint64_t d : r.workerCompleted)
        occDone += d;
    if (occBusy != r.totalBusyNs)
        return "occupancy: per-worker busyNs does not sum to total";
    if (occDone != r.completed)
        return "occupancy: per-worker completed does not sum";
    if (r.pool.enabled) {
        // Native cell: the native-run verdict must actually have run
        // and passed (for w2+ it stands in for bit-identity).
        const PoolOutcome &p = r.pool;
        if (!p.oracleChecked)
            return "pool replay oracle did not run";
        if (!p.ok())
            return "pool verdict failed: " + p.diag();
        std::uint64_t executed = 0;
        for (const PoolWorkerStats &w : p.perWorker)
            executed += w.executed;
        if (executed != r.admitted)
            return "pool executed != admitted";
    }
    double capacity = cfg.workers * 1e9 / double(service_ns);
    switch (load) {
      case LoadKind::Under:
        if (r.droppedFull + r.shedPolicy != 0)
            return "underload dropped or shed requests";
        if (r.completed != r.offered)
            return "underload did not complete every request";
        break;
      case LoadKind::Sat:
        // The contention feedback loop (backlog -> concurrent
        // requests or rivals -> aborts -> longer service) pushes
        // effective utilization past 1.0 at the contention-free-
        // calibrated knee, so some queue-full drops are expected; the
        // check is "most work completes, no collapse".
        if (r.completed < r.offered * 2 / 3)
            return "saturation completed < 2/3 of offered";
        if (r.goodputPerSec < 0.5 * capacity)
            return "saturation goodput collapsed below half capacity";
        break;
      case LoadKind::Over: {
        if (r.shedPolicy == 0)
            return "overload shed nothing (backpressure never bit)";
        double slo =
            double(cfg.admission.sloP99Ns) * cfg.admission.sloMultiple;
        if (double(r.p99Ns) > slo)
            return "overload committed p99 " + std::to_string(r.p99Ns) +
                   "ns blew the SLO bound " +
                   std::to_string(std::uint64_t(slo)) + "ns";
        if (r.goodputPerSec < 0.5 * capacity)
            return "overload goodput collapsed below half capacity";
        break;
      }
      case LoadKind::Burst: {
        if (r.segments.size() < 3)
            return "burst run closed fewer than 3 phase segments";
        std::uint64_t pre =
            windowP99Before(r, cfg.windowNs, cfg.arrival.offNs);
        // Recovery = the best window after the burst ends; windows
        // right at the phase edge still hold backlog completions, so
        // the claim is "latency returned to pre-burst levels within
        // the calm tail", not "instantly".
        std::uint64_t burst_end = cfg.arrival.offNs + cfg.arrival.onNs;
        std::uint64_t post = 0;
        for (const ServiceWindow &w : r.windows) {
            if (w.startNs >= burst_end && w.completed > 0 &&
                (post == 0 || w.p99Ns < post))
                post = w.p99Ns;
        }
        if (pre == 0 || post == 0)
            return "burst run lacks pre/post windows to compare";
        if (post > 3 * pre + 2 * service_ns)
            return "burst recovery failed: best post-burst p99 " +
                   std::to_string(post) + "ns vs pre-burst " +
                   std::to_string(pre) + "ns";
        break;
      }
    }
    return "";
}

// ---- cells ----

struct Cell
{
    const SchemeCell *scheme = nullptr;
    LoadKind load = LoadKind::Under;
    std::uint64_t seed = 1;
    unsigned workers = 4;
    std::uint64_t serviceNs = 0;  //!< calibrated, filled pre-run
    ServiceConfig cfg;
    ServiceResult result;  //!< first pass
    std::uint64_t rerunFingerprint = 0;  //!< second pass
    std::string rerunDiag;  //!< second pass self-check (pool cells)
};

std::string
cellLabel(const Cell &c)
{
    return std::string(c.scheme->name) + "/" + loadName(c.load) + "/w" +
           std::to_string(c.workers) + "/seed" + std::to_string(c.seed);
}

std::string
reproLine(const Cell &c)
{
    return std::string("reproduce: serve --scheme ") + c.scheme->name +
           " --load " + loadName(c.load) + " --workers " +
           std::to_string(c.workers) + " --seed " +
           std::to_string(c.seed);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    BenchReport report("serve", argc, argv);
    bool ci = hasFlag(argc, argv, "--ci");
    bool sim_replay = !hasFlag(argc, argv, "--no-sim-replay");

    std::vector<const SchemeCell *> schemes;
    std::string backend = argValue(argc, argv, "--backend");
    std::string only_scheme = argValue(argc, argv, "--scheme");
    for (const SchemeCell &s : kSchemes) {
        if (!backend.empty() && backend != "all" &&
            backend != (s.native ? "native" : "sim"))
            continue;
        if (!only_scheme.empty() && only_scheme != s.name)
            continue;
        schemes.push_back(&s);
    }
    if (schemes.empty())
        fatal("no schemes selected (--backend native|sim|all, "
              "--scheme <name>)");

    std::vector<LoadKind> loads(std::begin(kLoads), std::end(kLoads));
    if (std::string l = argValue(argc, argv, "--load"); !l.empty()) {
        loads.clear();
        for (LoadKind k : kLoads) {
            if (l == loadName(k))
                loads.push_back(k);
        }
        if (loads.empty())
            fatal("--load must be under|sat|over|burst, got '%s'",
                  l.c_str());
    }

    std::vector<std::uint64_t> seeds = ci ? std::vector<std::uint64_t>{1}
                                          : std::vector<std::uint64_t>{1, 2};
    if (std::string s = argValue(argc, argv, "--seed"); !s.empty())
        seeds = {std::strtoull(s.c_str(), nullptr, 10)};

    unsigned only_workers = countArg(argc, argv, "--workers");

    std::uint64_t duration_ns = ci ? 6'000'000 : 16'000'000;
    unsigned host_cores = std::thread::hardware_concurrency();

    std::cout << "Open-system service campaign (" << schemes.size()
              << " schemes x " << loads.size() << " loads x "
              << seeds.size() << " seeds + worker-scaling sweep, "
              << duration_ns / 1000000
              << "ms horizon, calibrated capacity, two-mode "
                 "determinism, " << host_cores << " host cores)\n\n";

    // ---- calibrate each scheme/seed once, then build the matrix:
    // the main grid at 4 workers plus the native worker-scaling
    // cells at 1 and 2 workers (sat/over) ----
    std::vector<Cell> cells;
    auto addCell = [&](const SchemeCell *s, LoadKind load,
                       std::uint64_t seed, unsigned workers,
                       std::uint64_t service_ns) {
        if (only_workers && workers != only_workers)
            return;
        Cell c;
        c.scheme = s;
        c.load = load;
        c.seed = seed;
        c.workers = workers;
        c.serviceNs = service_ns;
        c.cfg = serveConfig(load, seed, workers, duration_ns, service_ns);
        cells.push_back(std::move(c));
    };
    for (const SchemeCell *s : schemes) {
        for (std::uint64_t seed : seeds) {
            ServiceConfig proto =
                serveConfig(LoadKind::Under, seed, 1, duration_ns, 1);
            std::uint64_t service_ns = calibrateServiceNs(*s, proto);
            for (LoadKind load : loads)
                addCell(s, load, seed, 4, service_ns);
            // Worker-scaling sweep: the 4-worker points are the main
            // grid's; add the 1- and 2-worker rungs for the native
            // scheme on the saturated and overloaded regimes.
            if (s->native && seed == seeds[0]) {
                for (LoadKind load : loads) {
                    if (load != LoadKind::Sat && load != LoadKind::Over)
                        continue;
                    addCell(s, load, seed, 1, service_ns);
                    addCell(s, load, seed, 2, service_ns);
                }
            }
        }
    }
    if (cells.empty())
        fatal("axis restrictions selected no cells");

    // ---- two full passes through the same pool; every simulated
    // and native state is built per cell, so parallel execution
    // cannot perturb results ----
    ExperimentRunner runner(argc, argv);
    for (Cell &c : cells) {
        runner.add([&c, sim_replay]() -> ExperimentResult {
            std::unique_ptr<RequestExecutor> exec =
                makeExecutor(*c.scheme, sim_replay);
            c.result = runService(c.cfg, *exec);
            return {};
        });
    }
    for (Cell &c : cells) {
        runner.add([&c, sim_replay]() -> ExperimentResult {
            std::unique_ptr<RequestExecutor> exec =
                makeExecutor(*c.scheme, sim_replay);
            ServiceResult r = runService(c.cfg, *exec);
            c.rerunFingerprint = r.fingerprint();
            c.rerunDiag = checkCell(c.load, c.cfg, r, c.serviceNs);
            return {};
        });
    }
    runner.runAll();

    // ---- verdicts, table, report ----
    Table table({"scheme", "load", "wrk", "seed", "offered", "done",
                 "shed", "drop", "p50us", "p99us", "irrevoc",
                 "verdict"});
    std::vector<std::string> failures;
    std::uint64_t slo_windows = 0, shed_total = 0, drop_total = 0;
    for (Cell &c : cells) {
        const ServiceResult &r = c.result;
        std::string diag = checkCell(c.load, c.cfg, r, c.serviceNs);
        if (diag.empty() && r.fingerprintExempt && !c.rerunDiag.empty())
            diag = "pass-2 self-checks failed: " + c.rerunDiag;
        if (diag.empty() && !r.fingerprintExempt &&
            r.fingerprint() != c.rerunFingerprint)
            diag = "determinism: pass-2 fingerprint diverged";
        slo_windows += r.sloViolationWindows;
        shed_total += r.shedPolicy;
        drop_total += r.droppedFull;
        table.addRow({c.scheme->name, loadName(c.load),
                      fmt(std::uint64_t(c.workers)), fmt(c.seed),
                      fmt(r.offered),
                      fmt(r.completed), fmt(r.shedPolicy),
                      fmt(r.droppedFull), fmt(r.p50Ns / 1000),
                      fmt(r.p99Ns / 1000),
                      fmt(r.tm.irrevocableEntries),
                      diag.empty() ? "ok" : "FAIL"});
        if (!diag.empty()) {
            failures.push_back(cellLabel(c) + ": " + diag + "\n    " +
                               reproLine(c));
        }
        Json cell = Json::object();
        cell.set("scheme", c.scheme->name)
            .set("load", loadName(c.load))
            .set("workers", c.workers)
            .set("calibratedServiceNs", c.serviceNs)
            .set("service", toJson(c.cfg))
            .set("result", toJson(r))
            .set("rerunIdentical",
                 r.fingerprintExempt
                     ? c.rerunDiag.empty()
                     : r.fingerprint() == c.rerunFingerprint);
        report.addCustom(cellLabel(c), std::move(cell));
    }
    table.print(std::cout);

    // ---- worker-scaling self-check: saturated goodput must really
    // scale with the pool (>= 1.8x at 4 workers vs 1) when the host
    // has the cores to show it ----
    {
        const Cell *sat1 = nullptr, *sat4 = nullptr;
        Json sweep = Json::array();
        for (const Cell &c : cells) {
            if (!c.scheme->native || c.seed != seeds[0])
                continue;
            if (c.load != LoadKind::Sat && c.load != LoadKind::Over)
                continue;
            sweep.push(
                Json::object()
                    .set("workers", c.workers)
                    .set("load", loadName(c.load))
                    .set("goodputPerSec", c.result.goodputPerSec)
                    .set("execPerHostSec",
                         c.result.pool.enabled
                             ? c.result.pool.execPerHostSec
                             : 0.0));
            if (c.load == LoadKind::Sat && c.workers == 1)
                sat1 = &c;
            if (c.load == LoadKind::Sat && c.workers == 4)
                sat4 = &c;
        }
        double ratio = 0.0;
        bool have = sat1 && sat4 && sat1->result.goodputPerSec > 0;
        if (have) {
            ratio = sat4->result.goodputPerSec /
                    sat1->result.goodputPerSec;
        }
        bool checked = have && host_cores >= 4;
        if (checked && ratio < 1.8) {
            failures.push_back(
                "worker scaling: saturated 4-worker goodput only " +
                std::to_string(ratio) + "x the 1-worker cell\n    " +
                reproLine(*sat4));
        }
        if (have) {
            std::cout << "\nworker scaling (native, sat): "
                      << "4w/1w goodput ratio "
                      << std::to_string(ratio);
            if (!checked) {
                std::cout << " [check SKIPPED: " << host_cores
                          << " host cores < 4]";
            }
            std::cout << "\n";
        } else if (host_cores < 4) {
            std::cout << "\nworker scaling check skipped (" << host_cores
                      << " host cores < 4)\n";
        }
        Json ws = Json::object();
        ws.set("hostCores", std::uint64_t(host_cores))
            .set("cells", std::move(sweep))
            .set("sat4v1GoodputRatio", ratio)
            .set("checked", checked);
        report.addCustom("workerScaling", std::move(ws));
    }

    // ---- summary SLO block ----
    Json slo = Json::object();
    slo.set("cells", std::uint64_t(cells.size()))
        .set("sloViolationWindows", slo_windows)
        .set("shedTotal", shed_total)
        .set("dropTotal", drop_total)
        .set("failures", std::uint64_t(failures.size()));
    report.addCustom("summary/slo", std::move(slo));

    if (!failures.empty()) {
        std::cout << "\nSERVE FAILURES (" << failures.size() << "):\n";
        for (const std::string &f : failures)
            std::cout << "  - " << f << "\n";
        return 1;
    }
    std::cout << "all " << cells.size()
              << " cells passed (self-checks + two-mode determinism)\n";
    return 0;
}
