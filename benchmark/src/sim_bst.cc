/**
 * @file
 * sim_bst: the paper's headline pair — base STM against HASTM on a
 * binary search tree larger than the simulated 1 MB L2, 4 simulated
 * cores — run as a measure of the simulator's own speed.
 *
 * Every cell is one runDataStructure call, timed whole by its
 * hostNanos. A round runs, for each scheme, a full cell and a 4-op
 * cell of the same configuration. The 4-op cell is the full cell's
 * set-up (machine build, populate, final verification), so the full
 * cell minus the 4-op cell is the host time of the measured ops.
 */

#include <cstdio>

#include "bench.hh"
#include "harness/experiment.hh"
#include "timed_exec.hh"

namespace bench {

namespace {

using namespace hastm;

struct SimShape
{
    std::uint64_t initialSize, keyRange, ops;
};

/** ~2 MB of tree nodes against the simulated 1 MB L2. */
constexpr SimShape kFull{32768, 131072, 20000};
constexpr SimShape kSmoke{4096, 16384, 2000};
constexpr std::uint64_t kSetupOps = 4;
constexpr unsigned kCores = 4;
constexpr unsigned kUpdatePct = 20;  // the paper's mix

ExperimentConfig
cellConfig(TmScheme scheme, const SimShape &s, std::uint64_t ops,
           std::uint64_t seed)
{
    ExperimentConfig c;
    c.workload = WorkloadKind::Bst;
    c.scheme = scheme;
    c.threads = kCores;
    c.totalOps = ops;
    c.updatePct = kUpdatePct;
    c.initialSize = s.initialSize;
    c.keyRange = s.keyRange;
    c.seed = seed;
    return c;
}

/** FNV-1a over every simulated statistic of @p r (host time excluded). */
std::uint64_t
fingerprint(const ExperimentResult &r, std::uint64_t h = 0xcbf29ce484222325ull)
{
    auto mix = [&](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    const TmStats &s = r.tm;
    for (std::uint64_t v :
         {r.makespan, r.instructions, r.loads, r.stores, r.l1HitLoads,
          r.checksum, r.finalSize, std::uint64_t(r.invariantOk), s.commits,
          s.aborts, s.nestedCommits, s.nestedAborts, s.retries, s.userAborts,
          s.fastValidations, s.fullValidations, s.rdFastHits, s.rdBarriers,
          s.wrBarriers, s.wrFastHits, s.undoElided, s.aggressiveCommits,
          s.aggressiveAborts, s.htmAborts, s.htmCapacityAborts, s.cmKills,
          s.irrevocableEntries, s.conflictsTrue, s.conflictsAliased,
          s.conflictsUnclassified})
        mix(v);
    for (std::size_t p = 0; p < std::size_t(Phase::NumPhases); ++p) {
        mix(r.phaseCycles[p]);
        mix(r.phaseInstrs[p]);
    }
    for (std::uint64_t v : s.abortsByKind)
        mix(v);
    return h;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx", (unsigned long long)v);
    return buf;
}

/** One scheme's two cells of one round. */
struct SchemeRound
{
    ExperimentResult full, setup;

    /** Host ns of the full cell's extra ops: full minus set-up. */
    double
    measuredNs() const
    {
        return double(full.hostNanos) - double(setup.hostNanos);
    }

    /** Simulated instructions of those ops. */
    double
    measuredInstrs() const
    {
        return double(full.instructions) - double(setup.instructions);
    }
};

/** Fig 12/17-style cycle shares and rates of one scheme's full cell. */
void
emitCellLayers(Report &rep, const char *s, const SchemeRound &c,
               std::uint64_t ops)
{
    const ExperimentResult &r = c.full;
    double cycles = 0.0;
    for (Cycles x : r.phaseCycles)
        cycles += double(x);
    const std::string cpu = std::string("cpu.") + s + ".";
    for (Phase p : {Phase::App, Phase::TxBegin, Phase::TlsAccess,
                    Phase::RdBarrier, Phase::WrBarrier, Phase::Validate,
                    Phase::Commit, Phase::Abort, Phase::Contention}) {
        rep.add(cpu + "cycles_share." + phaseName(p),
                ratio(double(r.phaseCycles[std::size_t(p)]), cycles),
                "ratio");
    }
    rep.add(cpu + "instr_per_op", ratio(double(r.instructions), double(ops)),
            "count");
    rep.add(cpu + "ipc", ratio(double(r.instructions), cycles), "ratio");
    rep.add(std::string("mem.") + s + ".l1_hit_ratio",
            ratio(double(r.l1HitLoads), double(r.loads)), "ratio");
    rep.add(std::string("harness.") + s + ".host_ns_per_sim_instr",
            ratio(c.measuredNs(), c.measuredInstrs()), "ns");
}

} // namespace

void
runSimBst(const Options &opt, Report &rep)
{
    const SimShape &shape = opt.smoke ? kSmoke : kFull;
    const std::uint64_t origin = nowNs();
    const std::uint64_t deadline = origin + std::uint64_t(opt.seconds * 1e9);
    SpanLog spans(1024);
    auto cell = [&](TmScheme scheme, std::uint64_t ops, bool record,
                    std::uint64_t round) {
        ExperimentConfig cfg = cellConfig(scheme, shape, ops, opt.seed);
        cfg.recordOps = record;
        std::uint64_t t = nowNs();
        ExperimentResult r = runDataStructure(cfg);
        spans.add(scheme == TmScheme::Stm ? "sim.stm.cell" : "sim.hastm.cell",
                  t, nowNs(), round);
        rep.check(r.invariantOk, std::string(tmSchemeName(scheme)) + " " +
                                     std::to_string(ops) +
                                     "-op cell structure invariant");
        rep.attempted += ops;
        return r;
    };

    // The oracle cell runs first, inside the time budget: the replay
    // oracle over every op it recorded, and the simulated statistics
    // every timed HASTM cell must repeat (recording is host-side only).
    const ExperimentResult oracle =
        cell(TmScheme::Hastm, shape.ops, true, 0);
    rep.check(oracle.oracleOk, "replay oracle (runDataStructure, hastm) " +
                                   oracle.oracleDiag);
    const std::uint64_t hastm_fp = fingerprint(oracle);

    // Rounds until the next one would overrun the run time; at least
    // one.
    std::vector<SchemeRound> stm, hastm;
    std::vector<double> setups, rates;
    Samples per_op;  // host ns per simulated op, one sample per round
    std::uint64_t now = nowNs(), last = 0;
    while (stm.empty() || now + last <= deadline) {
        std::uint64_t i = stm.size();
        for (auto [scheme, rounds] : {std::pair{TmScheme::Stm, &stm},
                                      std::pair{TmScheme::Hastm, &hastm}}) {
            rounds->push_back({cell(scheme, shape.ops, false, i),
                               cell(scheme, kSetupOps, false, i)});
        }
        const SchemeRound &a = stm.back(), &b = hastm.back();
        // The two schemes' set-ups differ, so a round's set-up is the
        // pair's: one sample per round.
        setups.push_back(double(a.setup.hostNanos + b.setup.hostNanos) / 1e9);
        rep.check(fingerprint(a.full) == fingerprint(stm[0].full),
                  "round " + std::to_string(i) + " stm cell repeats the "
                  "simulated statistics of round 0");
        rep.check(fingerprint(b.full) == hastm_fp,
                  "round " + std::to_string(i) + " hastm cell repeats the "
                  "simulated statistics of the oracle cell");
        double ns_per_op = (a.measuredNs() + b.measuredNs()) /
                           double(2 * (shape.ops - kSetupOps));
        per_op.add(std::uint64_t(ns_per_op));
        rates.push_back(1e9 / ns_per_op);
        std::uint64_t t = nowNs();
        last = t - now;
        now = t;
    }
    const SchemeRound &s0 = stm[0], &h0 = hastm[0];
    rep.info("fingerprint " + hex(fingerprint(h0.full, fingerprint(s0.full))) +
             " (simulated statistics of the stm + hastm cells; identical "
             "across speed-only changes)");
    rep.info("simulated makespan: stm " + std::to_string(s0.full.makespan) +
             ", hastm " + std::to_string(h0.full.makespan) + " cycles; " +
             std::to_string(stm.size()) + " rounds measured");

    // Host time per simulated op of an STM + HASTM pair, over rounds.
    E2e e{median(rates), per_op.us(0.50), per_op.us(0.90), per_op.us(0.99)};
    if (!opt.trace) {
        emitE2e(rep, e, "over " + std::to_string(stm.size()) + " rounds",
                setups);
        return;
    }
    double n = double(shape.ops);
    emitCellLayers(rep, "stm", s0, shape.ops);
    emitCellLayers(rep, "hastm", h0, shape.ops);
    const TmStats &h = h0.full.tm;
    rep.add("hastm.mark_filter_hit_ratio",
            ratio(double(h.rdFastHits), double(h.rdBarriers)), "ratio");
    rep.add("hastm.fast_validation_ratio",
            ratio(double(h.fastValidations),
                  double(h.fastValidations + h.fullValidations)), "ratio");
    rep.add("hastm.aggressive_aborts", double(h.aggressiveAborts), "count");
    rep.add("sim.hastm_speedup",
            ratio(double(s0.full.makespan), double(h0.full.makespan)),
            "ratio");
    rep.add("sim.stm_cycles_per_op", double(s0.full.makespan) / n, "cycles");
    rep.add("sim.hastm_cycles_per_op", double(h0.full.makespan) / n,
            "cycles");
    rep.add("harness.populate_s", median(setups), "s");
    std::vector<double> mips;
    for (std::size_t i = 0; i < stm.size(); ++i) {
        mips.push_back((stm[i].measuredInstrs() + hastm[i].measuredInstrs()) /
                       (stm[i].measuredNs() + hastm[i].measuredNs()) * 1e3);
    }
    rep.add("harness.sim_mips", median(mips), "MIPS");
    std::string path = opt.traceDir + "/trace.json";
    rep.check(writeChromeTrace(path, {&spans}, {"simulator"}, nullptr, origin),
              "wrote " + path);
}

} // namespace bench
