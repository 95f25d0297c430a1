#include "harness/report.hh"

#include <cstdlib>
#include <fstream>

#include "cpu/core.hh"
#include "sim/logging.hh"

namespace hastm {

Json
toJson(const Histogram &h)
{
    Json j = Json::object();
    j.set("count", h.count())
        .set("sum", h.sum())
        .set("min", h.min())
        .set("max", h.max())
        .set("mean", h.mean());
    // Sparse bucket list: [lo, n] pairs for non-empty buckets only.
    Json buckets = Json::array();
    for (unsigned i = 0; i < h.usedBuckets(); ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        Json b = Json::array();
        b.push(Histogram::bucketLo(i));
        b.push(h.bucketCount(i));
        buckets.push(std::move(b));
    }
    j.set("buckets", std::move(buckets));
    return j;
}

Json
toJson(const LatencyHistogram &h)
{
    Json j = Json::object();
    j.set("count", h.count())
        .set("sum", h.sum())
        .set("min", h.min())
        .set("max", h.max())
        .set("mean", h.mean())
        .set("p50", h.p50())
        .set("p99", h.p99())
        .set("p999", h.p999());
    // Sparse bucket list: [lo, n] pairs for non-empty buckets only.
    Json buckets = Json::array();
    for (unsigned i = 0; i < h.usedBuckets(); ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        Json b = Json::array();
        b.push(LatencyHistogram::bucketLo(i));
        b.push(h.bucketCount(i));
        buckets.push(std::move(b));
    }
    j.set("buckets", std::move(buckets));
    return j;
}

Json
toJson(const TmStats &s)
{
    Json j = Json::object();
    j.set("commits", s.commits)
        .set("aborts", s.aborts)
        .set("nestedCommits", s.nestedCommits)
        .set("nestedAborts", s.nestedAborts)
        .set("retries", s.retries)
        .set("userAborts", s.userAborts)
        .set("fastValidations", s.fastValidations)
        .set("fullValidations", s.fullValidations)
        .set("rdBarriers", s.rdBarriers)
        .set("rdFastHits", s.rdFastHits)
        .set("wrBarriers", s.wrBarriers)
        .set("wrFastHits", s.wrFastHits)
        .set("undoElided", s.undoElided)
        .set("aggressiveCommits", s.aggressiveCommits)
        .set("aggressiveAborts", s.aggressiveAborts)
        .set("htmAborts", s.htmAborts)
        .set("irrevocableEntries", s.irrevocableEntries);
    // Schema v7: native snapshot-clock protocol counters (all zero on
    // the sim backend and under the McRT-style native protocol).
    j.set("extensions", s.extensions)
        .set("extensionFailures", s.extensionFailures)
        .set("bloomFalsePositives", s.bloomFalsePositives)
        .set("clockBumpsSkipped", s.clockBumpsSkipped);
    // Schema v5: false-conflict accounting for the sharded record
    // table. trueSharing + aliased + unclassified covers every
    // conflict abort that named a record.
    Json conflicts = Json::object();
    conflicts.set("trueSharing", s.conflictsTrue)
        .set("aliased", s.conflictsAliased)
        .set("unclassified", s.conflictsUnclassified);
    j.set("conflicts", std::move(conflicts));
    Json reasons = Json::object();
    reasons.set("conflict", s.aborts)
        .set("user", s.userAborts)
        .set("htmCapacity", s.htmCapacityAborts)
        .set("cmKill", s.cmKills);
    j.set("abortReasons", std::move(reasons));
    // Schema v3: precise per-abort attribution (satellite of the
    // robustness PR) and the injected-fault tally for the run.
    Json kinds = Json::object();
    for (unsigned k = 0; k < kNumAbortKinds; ++k)
        kinds.set(abortKindName(AbortKind(k)), s.abortsByKind[k]);
    j.set("abortKinds", std::move(kinds));
    Json faults = Json::object();
    for (unsigned k = 0; k < kNumFaultKinds; ++k)
        faults.set(faultKindName(FaultKind(k)), s.faultsInjected[k]);
    j.set("faultsInjected", std::move(faults));
    // Schema v8: the native backend's injected-fault tally (all zero
    // on the sim backend and on un-tortured native runs).
    Json nfaults = Json::object();
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k)
        nfaults.set(nativeFaultKindName(NativeFaultKind(k)),
                    s.nativeFaultsInjected[k]);
    j.set("nativeFaultsInjected", std::move(nfaults));
    // Schema v4: adaptive-runtime decision counters (all zero for the
    // fixed schemes).
    Json adaptive = Json::object();
    adaptive.set("switches", s.adaptiveSwitches)
        .set("probes", s.adaptiveProbes);
    Json dispatch = Json::object();
    for (unsigned m = 0; m < kNumAdaptiveModes; ++m)
        dispatch.set(adaptiveModeName(AdaptiveMode(m)),
                     s.adaptiveDispatch[m]);
    adaptive.set("dispatch", std::move(dispatch));
    j.set("adaptive", std::move(adaptive));
    j.set("readSetAtCommit", toJson(s.readSetAtCommit))
        .set("undoLogAtCommit", toJson(s.undoLogAtCommit))
        .set("retriesPerCommit", toJson(s.retriesPerCommit))
        .set("aliasedLinesAtAbort", toJson(s.aliasedLinesAtAbort));
    return j;
}

Json
toJson(const StmConfig &c)
{
    Json j = Json::object();
    j.set("granularity", granularityName(c.gran))
        .set("validateEvery", c.validateEvery)
        .set("cmPolicy", cmPolicyName(c.cm.policy))
        .set("clearMarksAtEnd", c.clearMarksAtEnd)
        .set("filterWrites", c.filterWrites)
        .set("watchdogConsecAborts", c.watchdog.consecAborts)
        .set("watchdogRetriesPerCommit", c.watchdog.retriesPerCommit)
        .set("recShardLog2Records", c.recShardLog2Records)
        .set("recHashMix", c.recHashMix)
        .set("recShardPerArena", c.recShardPerArena);
    if (!c.tracePath.empty())
        j.set("tracePath", c.tracePath);
    return j;
}

Json
toJson(const Watchdog &w)
{
    Json j = Json::object();
    j.set("consecAborts", w.consecAborts)
        .set("retriesPerCommit", w.retriesPerCommit);
    return j;
}

Json
toJson(const ExperimentConfig &c)
{
    Json j = Json::object();
    // Schema v6: execution substrate. ExperimentConfig always runs on
    // the cycle-level simulator; native runs use
    // NativeExperimentConfig below.
    j.set("backend", "sim");
    j.set("workload", workloadName(c.workload))
        .set("scheme", tmSchemeName(c.scheme))
        .set("threads", c.threads)
        .set("totalOps", c.totalOps)
        .set("updatePct", c.updatePct)
        .set("initialSize", c.initialSize)
        .set("keyRange", c.keyRange)
        .set("seed", c.seed)
        .set("hashBuckets", c.hashBuckets)
        .set("faultProfile", c.machine.fault.profile)
        .set("faultSeed", c.machine.fault.seed)
        .set("recordOps", c.recordOps)
        .set("stm", toJson(c.stm));
    return j;
}

Json
toJson(const MicroConfig &c)
{
    Json j = Json::object();
    j.set("backend", "sim");
    j.set("scheme", tmSchemeName(c.scheme))
        .set("threads", c.threads)
        .set("transactions", c.transactions)
        .set("accessesPerTx", c.mix.accessesPerTx)
        .set("loadPct", c.mix.loadPct)
        .set("loadReusePct", c.mix.loadReusePct)
        .set("storeReusePct", c.mix.storeReusePct)
        .set("workingLines", std::uint64_t(c.workingLines))
        .set("disjoint", c.disjoint)
        .set("seed", c.seed)
        .set("faultProfile", c.machine.fault.profile)
        .set("faultSeed", c.machine.fault.seed)
        .set("stm", toJson(c.stm));
    return j;
}

Json
toJson(const ExperimentResult &r)
{
    Json j = Json::object();
    j.set("makespan", std::uint64_t(r.makespan))
        .set("instructions", r.instructions)
        .set("loads", r.loads)
        .set("stores", r.stores)
        .set("l1HitLoads", r.l1HitLoads)
        .set("checksum", r.checksum)
        .set("finalSize", r.finalSize)
        .set("invariantOk", r.invariantOk)
        .set("oracleChecked", r.oracleChecked)
        .set("oracleOk", r.oracleOk);
    if (!r.oracleDiag.empty())
        j.set("oracleDiag", r.oracleDiag);
    // Schema v2: host-side throughput. These are the only fields that
    // vary between runs of the same config — diff tools comparing
    // reports for determinism should ignore them.
    j.set("hostNanos", r.hostNanos);
    double sim_ips = r.hostNanos
        ? double(r.instructions) * 1e9 / double(r.hostNanos)
        : 0.0;
    j.set("simInstrPerHostSec", sim_ips);
    Json phases = Json::object();
    for (std::size_t p = 0; p < std::size_t(Phase::NumPhases); ++p) {
        Json one = Json::object();
        one.set("cycles", std::uint64_t(r.phaseCycles[p]))
            .set("instrs", r.phaseInstrs[p]);
        phases.set(phaseName(Phase(p)), std::move(one));
    }
    j.set("phases", std::move(phases));
    j.set("tm", toJson(r.tm));
    // Schema v4: per-site decision summary of adaptive runs.
    if (!r.adaptive.isNull())
        j.set("adaptive", r.adaptive);
    return j;
}

Json
toJson(const NativeExperimentConfig &c)
{
    Json j = Json::object();
    j.set("backend", "native");
    j.set("workload", workloadName(c.workload))
        .set("threads", c.threads)
        .set("totalOps", c.totalOps)
        .set("updatePct", c.updatePct)
        .set("initialSize", c.initialSize)
        .set("keyRange", c.keyRange)
        .set("seed", c.seed)
        .set("hashBuckets", c.hashBuckets)
        .set("heapBytes", std::uint64_t(c.heapBytes))
        .set("disjoint", c.disjoint)
        .set("recordOps", c.recordOps)
        .set("watchdog", toJson(c.watchdog));
    // Schema v8: native fault-injection campaign identity — profile +
    // seed reproduce the injected sequence bit-identically.
    j.set("faultProfile", c.fault.profile).set("faultSeed", c.fault.seed);
    return j;
}

Json
toJson(const NativeExperimentResult &r)
{
    Json j = Json::object();
    j.set("checksum", r.checksum)
        .set("finalSize", r.finalSize)
        .set("invariantOk", r.invariantOk)
        .set("oracleChecked", r.oracleChecked)
        .set("oracleOk", r.oracleOk);
    if (!r.oracleDiag.empty())
        j.set("oracleDiag", r.oracleDiag);
    // Schema v8: native protocol invariant sweep + injected-fault
    // sequence fingerprint (0 without an injector; otherwise
    // bit-identical across replays of one (profile, seed) cell whose
    // per-thread schedules repeat).
    j.set("nativeInvariantsOk", r.nativeInvariantsOk);
    if (!r.nativeInvariantDiag.empty())
        j.set("nativeInvariantDiag", r.nativeInvariantDiag);
    j.set("faultSequenceHash", r.faultSequenceHash);
    // Host wall time and throughput are the payload of a native run;
    // there is no simulated cycle count on this substrate. Both vary
    // run-to-run — determinism diffs must ignore them.
    j.set("hostNanos", r.hostNanos).set("opsPerSec", r.opsPerSec);
    // Schema v7: per-thread measured-phase outcomes (scaling sweeps
    // read abort-rate skew from these).
    if (!r.perThread.empty()) {
        Json threads = Json::array();
        for (const NativeThreadOutcome &t : r.perThread) {
            Json one = Json::object();
            one.set("commits", t.commits)
                .set("aborts", t.aborts)
                .set("abortRate", t.abortRate);
            threads.push(std::move(one));
        }
        j.set("perThread", std::move(threads));
    }
    j.set("tm", toJson(r.tm));
    return j;
}

// ------------------------------------------------------------ BenchReport

namespace {

/** Resolve the output path from the command line or the environment. */
std::string
resolvePath(const std::string &bench, int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            return argv[i + 1];
    }
    if (const char *env = std::getenv("HASTM_BENCH_JSON")) {
        std::string s(env);
        if (s.empty())
            return {};
        // A trailing slash (or an existing directory-looking value
        // without an extension) is treated as a directory to drop the
        // canonically named file into.
        if (s.back() == '/')
            return s + "BENCH_" + bench + ".json";
        return s;
    }
    return {};
}

} // namespace

BenchReport::BenchReport(std::string bench_name, int argc, char **argv)
    : bench_(std::move(bench_name)),
      path_(resolvePath(bench_, argc, argv))
{
}

BenchReport::~BenchReport()
{
    if (!written_)
        write();
}

void
BenchReport::add(const std::string &label, const ExperimentConfig &cfg,
                 const ExperimentResult &r)
{
    if (!enabled())
        return;
    Json run = Json::object();
    run.set("label", label)
        .set("config", toJson(cfg))
        .set("result", toJson(r));
    runs_.push(std::move(run));
}

void
BenchReport::add(const std::string &label, const MicroConfig &cfg,
                 const ExperimentResult &r)
{
    if (!enabled())
        return;
    Json run = Json::object();
    run.set("label", label)
        .set("config", toJson(cfg))
        .set("result", toJson(r));
    runs_.push(std::move(run));
}

void
BenchReport::add(const std::string &label,
                 const NativeExperimentConfig &cfg,
                 const NativeExperimentResult &r)
{
    if (!enabled())
        return;
    Json run = Json::object();
    run.set("label", label)
        .set("config", toJson(cfg))
        .set("result", toJson(r));
    runs_.push(std::move(run));
}

void
BenchReport::addCustom(const std::string &label, Json data)
{
    if (!enabled())
        return;
    Json run = Json::object();
    run.set("label", label).set("data", std::move(data));
    runs_.push(std::move(run));
}

bool
BenchReport::write()
{
    written_ = true;
    if (!enabled())
        return true;
    Json doc = Json::object();
    doc.set("bench", bench_)
        .set("schemaVersion", kReportSchemaVersion)
        .set("runs", std::move(runs_));
    runs_ = Json::array();
    std::ofstream os(path_);
    if (!os) {
        warn("report: cannot open '%s' for writing", path_.c_str());
        return false;
    }
    doc.dump(os, 2);
    os << '\n';
    if (!os) {
        warn("report: write to '%s' failed", path_.c_str());
        return false;
    }
    return true;
}

} // namespace hastm
