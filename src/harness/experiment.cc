#include "harness/experiment.hh"

#include <chrono>

#include "sim/logging.hh"

namespace hastm {

namespace {

void
gatherResult(Machine &machine, TmSession &session, ExperimentResult &r)
{
    r.makespan = machine.maxCoreCycles();
    r.tm = session.totalStats();
    if (session.scheme() == TmScheme::Adaptive) {
        std::vector<const Arbiter *> arbs;
        Json per_thread = Json::array();
        for (unsigned i = 0; i < session.numThreads(); ++i) {
            if (auto *a =
                    dynamic_cast<AdaptiveThread *>(&session.thread(i))) {
                arbs.push_back(&a->arbiter());
                per_thread.push(a->decisionJson());
            }
        }
        Json adaptive = Json::object();
        adaptive.set("sites", Arbiter::aggregate(arbs));
        adaptive.set("perThread", std::move(per_thread));
        r.adaptive = std::move(adaptive);
    }
    if (const FaultInjector *fi = machine.faults()) {
        for (unsigned k = 0; k < kNumFaultKinds; ++k)
            r.tm.faultsInjected[k] = fi->count(FaultKind(k));
    }
    for (unsigned c = 0; c < machine.numCores(); ++c) {
        Core &core = machine.core(c);
        for (std::size_t p = 0; p < std::size_t(Phase::NumPhases); ++p) {
            r.phaseCycles[p] += core.phaseCycles(Phase(p));
            r.phaseInstrs[p] += core.phaseInstrs(Phase(p));
        }
        r.instructions += core.instructions();
        r.loads += core.loads();
        r.stores += core.stores();
        r.l1HitLoads += core.l1HitLoads();
    }
}

std::uint64_t
hostNowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

} // namespace

ExperimentResult
runDataStructure(const ExperimentConfig &cfg)
{
    std::uint64_t host_start = hostNowNanos();
    HASTM_ASSERT(cfg.threads >= 1);
    MachineParams mp = cfg.machine;
    mp.mem.numCores = std::max(mp.mem.numCores, cfg.threads);
    mp.seed = cfg.seed;
    Machine machine(mp);
    // Deliberately corrupted runs (validation off) can double-free
    // nodes; they must be failed by the replay oracle, not by a
    // host-process panic in the simulated allocator.
    if (cfg.stm.testSkipCommitValidation)
        machine.heap().setLenientFree(true);

    SessionConfig sc;
    sc.scheme = cfg.scheme;
    sc.numThreads = cfg.threads;
    sc.stm = cfg.stm;
    TmSession session(machine, sc);

    // Per-thread op logs for the replay oracle (host-side only; no
    // simulated cycles are charged for the recording itself).
    std::vector<std::vector<OpRecord>> opLogs(cfg.threads);

    // ---- build + populate (thread 0), warming the caches ----
    DsInstance ds;
    machine.run({[&](Core &core) {
        ds = populateDs(session.threadFor(core), cfg, opLogs[0]);
    }});

    machine.resetCounters();
    session.resetStats();

    // ---- measured phase: fixed total work split across threads ----
    std::vector<std::function<void(Core &)>> bodies;
    for (unsigned tid = 0; tid < cfg.threads; ++tid) {
        bodies.push_back([&, tid](Core &core) {
            runOpMix(session.threadFor(core), ds.ops, cfg, tid, 0,
                     cfg.keyRange, opLogs[tid]);
        });
    }
    machine.run(bodies);

    ExperimentResult result;
    gatherResult(machine, session, result);

    // ---- post-run verification (not part of the makespan) ----
    // Runs in quiescence through a sequential reader: whole-structure
    // walks would blow a bounded HTM's capacity (HyTM would retry
    // forever), and the measured phase is over anyway.
    machine.run({[&](Core &core) {
        SeqThread verifier(core, session.globals());
        result.checksum = ds.ops.checksum(verifier);
        result.finalSize = ds.ops.size(verifier);
        result.invariantOk = ds.ops.invariant(verifier);
    }});

    // ---- replay oracle: every observed result vs a sequential spec ----
    if (cfg.recordOps) {
        std::vector<OpRecord> log;
        for (auto &l : opLogs)
            log.insert(log.end(), l.begin(), l.end());
        OracleOutcome verdict =
            replayOps(std::move(log), result.checksum, result.finalSize,
                      result.invariantOk, cfg.seed);
        result.oracleChecked = true;
        result.oracleOk = verdict.ok;
        result.oracleDiag = std::move(verdict.diag);
    }
    result.hostNanos = hostNowNanos() - host_start;
    return result;
}

ExperimentResult
runMicro(const MicroConfig &cfg)
{
    std::uint64_t host_start = hostNowNanos();
    HASTM_ASSERT(cfg.threads >= 1);
    MachineParams mp = cfg.machine;
    mp.mem.numCores = std::max(mp.mem.numCores, cfg.threads);
    mp.seed = cfg.seed;
    Machine machine(mp);
    // Deliberately corrupted runs (validation off) can double-free
    // nodes; they must be failed by the replay oracle, not by a
    // host-process panic in the simulated allocator.
    if (cfg.stm.testSkipCommitValidation)
        machine.heap().setLenientFree(true);

    SessionConfig sc;
    sc.scheme = cfg.scheme;
    sc.numThreads = cfg.threads;
    sc.stm = cfg.stm;
    TmSession session(machine, sc);

    MicroWorkload work(machine, cfg.workingLines, cfg.threads,
                       cfg.disjoint);

    // Warm-up transaction per thread, then measure.
    machine.runOnCores(cfg.threads, [&](Core &core) {
        TmThread &t = session.threadFor(core);
        Rng rng(cfg.seed + core.id());
        work.runTx(t, core.id(), cfg.mix, rng);
    });
    machine.resetCounters();
    session.resetStats();

    machine.runOnCores(cfg.threads, [&](Core &core) {
        TmThread &t = session.threadFor(core);
        Rng rng(cfg.seed + 31337ull * (core.id() + 1));
        for (unsigned i = 0; i < cfg.transactions; ++i)
            work.runTx(t, core.id(), cfg.mix, rng);
    });

    ExperimentResult result;
    gatherResult(machine, session, result);
    result.checksum = work.rawSum();
    result.hostNanos = hostNowNanos() - host_start;
    return result;
}

PhasedResult
runPhased(const PhasedConfig &cfg)
{
    std::uint64_t host_start = hostNowNanos();
    HASTM_ASSERT(cfg.threads >= 1);
    HASTM_ASSERT(!cfg.phases.empty());
    MachineParams mp = cfg.machine;
    mp.mem.numCores = std::max(mp.mem.numCores, cfg.threads);
    mp.seed = cfg.seed;
    Machine machine(mp);
    // Deliberately corrupted runs (validation off) can double-free
    // nodes; they must be failed by the replay oracle, not by a
    // host-process panic in the simulated allocator.
    if (cfg.stm.testSkipCommitValidation)
        machine.heap().setLenientFree(true);

    SessionConfig sc;
    sc.scheme = cfg.scheme;
    sc.numThreads = cfg.threads;
    sc.stm = cfg.stm;
    TmSession session(machine, sc);

    std::size_t max_priv = 2, max_shared = 2;
    for (const PhaseMix &m : cfg.phases) {
        max_priv = std::max(max_priv, m.privateLines);
        max_shared = std::max(max_shared, m.sharedLines);
    }
    PhaseShiftWorkload work(machine, max_priv, max_shared, cfg.threads);

    // Warm-up transaction per thread under the first phase's mix.
    machine.runOnCores(cfg.threads, [&](Core &core) {
        TmThread &t = session.threadFor(core);
        t.setSite(txsite::kPhaseShift);
        Rng rng(cfg.seed + core.id());
        work.runTx(t, core.id(), cfg.phases.front(), rng);
    });
    machine.resetCounters();
    session.resetStats();

    // Generator state persists across phases (one long access stream
    // per thread, shifting its character at the barriers).
    std::vector<Rng> rngs;
    for (unsigned tid = 0; tid < cfg.threads; ++tid)
        rngs.emplace_back(cfg.seed + 31337ull * (tid + 1));

    PhasedResult result;
    for (const PhaseMix &mix : cfg.phases) {
        Cycles c0 = machine.maxCoreCycles();
        TmStats s0 = session.totalStats();
        machine.runOnCores(cfg.threads, [&](Core &core) {
            TmThread &t = session.threadFor(core);
            t.setSite(txsite::kPhaseShift);
            Rng &rng = rngs[core.id()];
            for (unsigned i = 0; i < mix.txnsPerThread; ++i)
                work.runTx(t, core.id(), mix, rng);
        });
        TmStats s1 = session.totalStats();
        PhaseOutcome po;
        po.name = mix.name;
        po.cycles = machine.maxCoreCycles() - c0;
        po.commits = s1.commits - s0.commits;
        po.aborts = s1.aborts - s0.aborts;
        po.switches = s1.adaptiveSwitches - s0.adaptiveSwitches;
        po.probes = s1.adaptiveProbes - s0.adaptiveProbes;
        result.phases.push_back(std::move(po));
    }

    gatherResult(machine, session, result.total);
    result.total.checksum = work.rawSum();
    result.total.hostNanos = hostNowNanos() - host_start;
    return result;
}

} // namespace hastm
