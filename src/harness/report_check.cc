#include "harness/report_check.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <regex>
#include <set>
#include <string_view>

#include "harness/report.hh"

namespace hastm {

namespace {

/** One named check: "" when @p doc passes, else a diagnosis. */
using CheckFn = std::string (*)(const Json &doc);

struct ReportCheck
{
    const char *bench;  //!< the "bench" it applies to; "*" for every one
    const char *name;
    CheckFn fn;
};

const Json &
nullJson()
{
    static const Json null;
    return null;
}

/** The member at dotted @p path ("result.tm.commits"), or null. */
const Json &
at(const Json &node, std::string_view path)
{
    const Json *cur = &node;
    for (;;) {
        std::size_t dot = path.find('.');
        cur = cur->find(std::string(path.substr(0, dot)));
        if (!cur)
            return nullJson();
        if (dot == std::string_view::npos)
            return *cur;
        path.remove_prefix(dot + 1);
    }
}

/** Compact rendering of @p v for a diagnosis, cut at 160 chars. */
std::string
show(const Json &v)
{
    std::string s = v.str(-1);
    return s.size() > 160 ? s.substr(0, 157) + "..." : s;
}

const std::string &
label(const Json &run)
{
    return at(run, "label").asString();
}

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out(1);
    for (char c : s) {
        if (c == sep)
            out.emplace_back();
        else
            out.back() += c;
    }
    return out;
}

bool
startsWith(const std::string &s, std::string_view prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

/** The elements of array @p arr (none when it is not an array). */
std::vector<const Json *>
elements(const Json &arr)
{
    std::vector<const Json *> out;
    for (std::size_t i = 0; arr.isArray() && i < arr.size(); ++i)
        out.push_back(&arr.at(i));
    return out;
}

/** The runs of @p doc that @p keep selects. */
template <typename Pred>
std::vector<const Json *>
runsWhere(const Json &doc, Pred keep)
{
    std::vector<const Json *> out;
    for (const Json *run : elements(at(doc, "runs"))) {
        if (keep(*run))
            out.push_back(run);
    }
    return out;
}

std::vector<const Json *>
runsWithPrefix(const Json &doc, std::string_view prefix)
{
    return runsWhere(
        doc, [&](const Json &run) { return startsWith(label(run), prefix); });
}

/** Runs carrying a "config" (one simulated or native experiment). */
std::vector<const Json *>
configRuns(const Json &doc)
{
    return runsWhere(doc, [](const Json &run) { return run.find("config"); });
}

/** serve's campaign cells: the runs whose data holds a "result". */
std::vector<const Json *>
serveCells(const Json &doc)
{
    return runsWhere(doc, [](const Json &run) {
        return !at(run, "data.result").isNull();
    });
}

bool
isNativeCell(const Json &run)
{
    return startsWith(label(run), "native/");
}

/** serve's native cells, which run on the worker pool. */
std::vector<const Json *>
poolCells(const Json &doc)
{
    return runsWhere(doc, [](const Json &run) {
        return !at(run, "data.result").isNull() && isNativeCell(run);
    });
}

/** The load segment of a serve label (.../<load>/w<n>/seed<s>). */
std::string
serveLoad(const Json &run)
{
    std::vector<std::string> seg = split(label(run), '/');
    return seg.size() >= 3 ? seg[seg.size() - 3] : "";
}

/** The first run labelled @p l, or null. */
const Json &
runLabelled(const Json &doc, std::string_view l)
{
    for (const Json *run : elements(at(doc, "runs"))) {
        if (label(*run) == l)
            return *run;
    }
    return nullJson();
}

/** The data of the run labelled @p l ("data" member), or null. */
const Json &
dataOf(const Json &doc, std::string_view l)
{
    return at(runLabelled(doc, l), "data");
}

/**
 * The first diagnosis @p fn gives over @p runs, prefixed with that
 * run's label; "" when every run passes.
 */
template <typename Fn>
std::string
eachRun(const std::vector<const Json *> &runs, Fn fn)
{
    for (const Json *run : runs) {
        std::string d = fn(*run);
        if (!d.empty())
            return label(*run) + ": " + d;
    }
    return "";
}

std::string
need(bool ok, const std::string &diag)
{
    return ok ? "" : diag;
}

/** Members of @p node that are missing among @p keys, comma-joined. */
std::string
missingKeys(const Json &node, std::initializer_list<const char *> keys)
{
    std::string out;
    for (const char *k : keys) {
        if (!node.find(k))
            out += (out.empty() ? "" : ", ") + std::string(k);
    }
    return out;
}

std::uint64_t
sumOf(const Json &arr, std::string_view key)
{
    std::uint64_t n = 0;
    for (const Json *e : elements(arr))
        n += at(*e, key).asUint();
    return n;
}

/**
 * Per-kind totals of the counter object at @p path over @p runs;
 * "" when every kind in @p kinds is nonzero, else the zero kinds.
 */
std::string
faultKindsFired(const std::vector<const Json *> &runs, std::string_view path,
                std::initializer_list<const char *> kinds)
{
    std::string zero;
    for (const char *kind : kinds) {
        std::uint64_t total = 0;
        for (const Json *run : runs)
            total += at(at(*run, path), kind).asUint();
        if (total == 0)
            zero += (zero.empty() ? "" : ", ") + std::string(kind);
    }
    return need(zero.empty(), "no injected fault of kind " + zero +
                                  " across " + std::to_string(runs.size()) +
                                  " cells");
}

bool
fullMatch(const std::string &s, const char *pattern)
{
    return std::regex_match(s, std::regex(pattern));
}

std::string
count(const char *what, std::size_t n)
{
    return std::to_string(n) + " " + what;
}

// ------------------------------------------------------------ the table

const ReportCheck kChecks[] = {
    // ---- every report
    {"*", "shape", [](const Json &d) -> std::string {
         if (!d.isObject())
             return "the document is not an object";
         if (!at(d, "bench").isString())
             return "no \"bench\" string";
         const Json &runs = at(d, "runs");
         if (!runs.isArray())
             return "no \"runs\" array";
         for (std::size_t i = 0; i < runs.size(); ++i) {
             if (!at(runs.at(i), "label").isString())
                 return "runs[" + std::to_string(i) +
                        "] has no \"label\" string";
         }
         return "";
     }},
    {"*", "schemaVersion", [](const Json &d) {
         const Json &v = at(d, "schemaVersion");
         return need(v.isNumber() && v.asDouble() == kReportSchemaVersion,
                     "schemaVersion " + show(v) + ", expected " +
                         std::to_string(kReportSchemaVersion));
     }},

    // ---- fig11: the paper's Fig 11 sweep
    {"fig11", "invariantOk", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             return need(at(run, "result.invariantOk").asBool(),
                         "structure invariant failed");
         });
     }},

    // ---- stress_faults: every scheme under every sim fault profile
    {"stress_faults", "oracleOk", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             return need(at(run, "result.oracleChecked").asBool() &&
                             at(run, "result.oracleOk").asBool(),
                         "not oracle-checked clean");
         });
     }},
    {"stress_faults", "faultKinds", [](const Json &d) {
         return faultKindsFired(configRuns(d), "result.tm.faultsInjected",
                                {"ctxSwitch", "evictMarked",
                                 "spuriousHtmAbort", "snoopDelay"});
     }},

    // ---- adaptive (fig_adaptive): the schema-v4 decision counters
    {"adaptive", "runCount", [](const Json &d) {
         std::size_t n = at(d, "runs").size();
         return need(n >= 4, count("runs; expected adaptive + 3 fixed", n));
     }},
    {"adaptive", "switches", [](const Json &d) {
         const Json &a = at(dataOf(d, "phased/adaptive"), "result.tm.adaptive");
         return need(at(a, "switches").asUint() >= 2,
                     "phased/adaptive: tm.adaptive " + show(a) +
                         ", need >= 2 switches");
     }},
    {"adaptive", "dispatchCoversCommits", [](const Json &d) {
         const Json &tm = at(dataOf(d, "phased/adaptive"), "result.tm");
         std::uint64_t dispatched = 0;
         for (const auto &[rung, n] : at(tm, "adaptive.dispatch").members())
             dispatched += n.asUint();
         std::uint64_t commits = at(tm, "commits").asUint();
         return need(at(tm, "commits").isNumber() && dispatched == commits,
                     "phased/adaptive: dispatch covers " +
                         std::to_string(dispatched) + " of " +
                         std::to_string(commits) + " commits");
     }},
    {"adaptive", "siteDispatchFrac", [](const Json &d) -> std::string {
         const Json &sites =
             at(dataOf(d, "phased/adaptive"), "result.adaptive.sites");
         for (const Json *site : elements(sites)) {
             double total = 0;
             for (const auto &[rung, f] : at(*site, "dispatchFrac").members())
                 total += f.asDouble();
             if (!(std::fabs(total - 1.0) < 1e-9))
                 return "phased/adaptive: site " + show(at(*site, "site")) +
                        " dispatchFrac sums to " + std::to_string(total);
         }
         return "";
     }},

    // ---- shard (fig_shard): the schema-v5 geometry and conflict fields
    {"shard", "runCount", [](const Json &d) {
         std::size_t n = configRuns(d).size();
         return need(n >= 30, count("runs; expected the full sweep (>= 30)",
                                    n));
     }},
    {"shard", "geometryFields", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             std::string miss = missingKeys(
                 at(run, "config.stm"),
                 {"recShardLog2Records", "recHashMix", "recShardPerArena"});
             return need(miss.empty(), "config.stm lacks " + miss);
         });
     }},
    {"shard", "conflictFields", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             std::string miss =
                 missingKeys(at(run, "result.tm.conflicts"),
                             {"trueSharing", "aliased", "unclassified"});
             return need(miss.empty(), "result.tm.conflicts lacks " + miss);
         });
     }},
    {"shard", "aliasedHalved", [](const Json &d) {
         const char *kAliased = "result.tm.conflicts.aliased";
         std::uint64_t one =
             at(runLabelled(d, "micro/disjoint/paper-1shard/stm"), kAliased)
                 .asUint();
         std::uint64_t arena =
             at(runLabelled(d, "micro/disjoint/arena-shards/stm"), kAliased)
                 .asUint();
         return need(one >= 2 && arena * 2 <= one,
                     "micro/disjoint aliased aborts " + std::to_string(one) +
                         " (paper-1shard) -> " + std::to_string(arena) +
                         " (arena-shards); need >= 2 halved");
     }},

    // ---- host_native (host_perf --backend native)
    {"host_native", "perfBackend", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "scale/"), [](const Json &run) {
             const Json &b = at(run, "config.backend");
             return need(b.asString() == "native", "backend " + show(b));
         });
     }},
    {"host_native", "threadCounts", [](const Json &d) {
         std::set<std::uint64_t> threads;
         for (const Json *run : runsWithPrefix(d, "scale/"))
             threads.insert(at(*run, "config.threads").asUint());
         return need(threads.size() >= 2,
                     count("thread counts measured; need >= 2",
                           threads.size()));
     }},
    {"host_native", "perfLabels", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "scale/"), [](const Json &run) {
             return need(fullMatch(label(run), "scale/[a-z-]+/t\\d+"),
                         "not scale/<mix>/t<n>");
         });
     }},
    {"host_native", "perfOpsPerSec", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "scale/"), [](const Json &run) {
             const Json &v = at(run, "result.opsPerSec");
             return need(v.asDouble() > 0, "opsPerSec " + show(v));
         });
     }},
    {"host_native", "xvalCount", [](const Json &d) {
         std::size_t n = runsWithPrefix(d, "xval/").size();
         return need(n >= 3, count("cross-validations; expected 3 workloads",
                                   n));
     }},
    {"host_native", "xvalLabels", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "xval/"), [](const Json &run) {
             return need(fullMatch(label(run), "xval/[a-z]+/seed\\d+"),
                         "not xval/<workload>/seed<s>");
         });
     }},
    {"host_native", "xvalOk", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "xval/"), [](const Json &run) {
             return need(at(run, "data.ok").asBool(),
                         "sim replay diverged");
         });
     }},

    // ---- stress_native: the native torture campaign
    {"stress_native", "cellLabels", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             return need(split(label(run), '/').size() == 3,
                         "not <profile>/t<n>/seed<s>");
         });
     }},
    {"stress_native", "profileCount", [](const Json &d) {
         std::set<std::string> profiles;
         for (const Json *run : configRuns(d))
             profiles.insert(split(label(*run), '/')[0]);
         return need(profiles.size() >= 5,
                     count("fault profiles; need >= 5", profiles.size()));
     }},
    {"stress_native", "nativeInvariantsOk", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             return need(at(run, "result.nativeInvariantsOk").asBool(),
                         "protocol invariant sweep failed");
         });
     }},
    {"stress_native", "oracleOk", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             const Json &ok = at(run, "result.oracleOk");
             return need(ok.isNull() || ok.asBool(), "replay oracle failed");
         });
     }},
    {"stress_native", "faultProfileLabel", [](const Json &d) {
         return eachRun(configRuns(d), [](const Json &run) {
             const Json &p = at(run, "config.faultProfile");
             return need(p.asString() == split(label(run), '/')[0],
                         "config.faultProfile " + show(p));
         });
     }},
    // starve needs the full seed matrix to fire reliably, so the
    // trimmed --ci matrix only guarantees these five kinds.
    {"stress_native", "faultKinds", [](const Json &d) {
         return faultKindsFired(configRuns(d), "result.tm.nativeFaultsInjected",
                                {"yield", "spinDelay", "extensionFail",
                                 "cmKill", "gateStall"});
     }},
    {"stress_native", "determinismCount", [](const Json &d) {
         std::size_t n = runsWithPrefix(d, "determinism/").size();
         return need(n == 1, count("determinism/ runs; expected 1", n));
     }},
    {"stress_native", "repeatIdentical", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "determinism/"), [](const Json &run) {
             return need(at(run, "data.repeatIdentical").asBool(),
                         "rerun was not bit-identical");
         });
     }},
    {"stress_native", "reseededDiverged", [](const Json &d) {
         return eachRun(runsWithPrefix(d, "determinism/"), [](const Json &run) {
             return need(at(run, "data.reseededDiverged").asBool(),
                         "a new fault seed did not change the sequence");
         });
     }},

    // ---- serve: the open-system transaction-service campaign
    {"serve", "cellCount", [](const Json &d) {
         std::size_t n = serveCells(d).size();
         return need(n >= 20, count("cells; expected the full --ci grid "
                                    "(>= 20)", n));
     }},
    {"serve", "loadClasses", [](const Json &d) {
         std::set<std::string> loads;
         for (const Json *run : serveCells(d))
             loads.insert(serveLoad(*run));
         std::string got;
         for (const std::string &l : loads)
             got += (got.empty() ? "" : ", ") + l;
         return need(loads == std::set<std::string>{"under", "sat", "over",
                                                    "burst"},
                     "loads {" + got + "}, expected {burst, over, sat, under}");
     }},
    {"serve", "rerunIdentical", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             return need(at(run, "data.rerunIdentical").asBool(),
                         "rerun was not identical");
         });
     }},
    {"serve", "invariantAndQuiescent", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             return need(at(run, "data.result.invariantOk").asBool() &&
                             at(run, "data.result.gateQuiescent").asBool(),
                         "structure invariant or gate quiescence failed");
         });
     }},
    {"serve", "latencyFields", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             std::string miss =
                 missingKeys(at(run, "data.result.latency"),
                             {"count", "p50", "p99", "p999", "buckets"});
             return need(miss.empty(), "latency lacks " + miss);
         });
     }},
    {"serve", "p99Matches", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             const Json &p99 = at(run, "data.result.p99Ns");
             const Json &hist = at(run, "data.result.latency.p99");
             return need(p99.asDouble() == hist.asDouble(),
                         "p99Ns " + show(p99) + " != latency.p99 " +
                             show(hist));
         });
     }},
    {"serve", "perWorkerCount", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             std::size_t n = at(run, "data.result.occupancy.perWorker").size();
             std::uint64_t w = at(run, "data.workers").asUint();
             return need(n == w, count("occupancy.perWorker entries for ", n) +
                                     std::to_string(w) + " workers");
         });
     }},
    {"serve", "busyNsSum", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             const Json &occ = at(run, "data.result.occupancy");
             std::uint64_t sum = sumOf(at(occ, "perWorker"), "busyNs");
             std::uint64_t total = at(occ, "totalBusyNs").asUint();
             return need(sum == total, "per-worker busyNs sums to " +
                                           std::to_string(sum) + ", not " +
                                           std::to_string(total));
         });
     }},
    {"serve", "completedSum", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             const Json &res = at(run, "data.result");
             std::uint64_t sum =
                 sumOf(at(res, "occupancy.perWorker"), "completed");
             std::uint64_t done = at(res, "completed").asUint();
             return need(sum == done, "per-worker completed sums to " +
                                          std::to_string(sum) + ", not " +
                                          std::to_string(done));
         });
     }},
    {"serve", "poolIffNative", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             bool pool = at(run, "data.result").find("pool") != nullptr;
             return need(pool == isNativeCell(run),
                         pool ? "a sim cell carries a pool block"
                              : "a native cell has no pool block");
         });
     }},
    {"serve", "fingerprintExempt", [](const Json &d) {
         return eachRun(serveCells(d), [](const Json &run) {
             bool want =
                 isNativeCell(run) && at(run, "data.workers").asUint() > 1;
             const Json &got = at(run, "data.result.fingerprintExempt");
             return need(got.asBool() == want,
                         "fingerprintExempt " + show(got) + ", expected " +
                             (want ? "true" : "false"));
         });
     }},
    {"serve", "poolWorkers", [](const Json &d) {
         return eachRun(poolCells(d), [](const Json &run) {
             const Json &w = at(run, "data.result.pool.workers");
             return need(w.asUint() == at(run, "data.workers").asUint(),
                         "pool.workers " + show(w));
         });
     }},
    {"serve", "poolOracle", [](const Json &d) {
         return eachRun(poolCells(d), [](const Json &run) {
             const Json &pool = at(run, "data.result.pool");
             return need(at(pool, "oracleChecked").asBool() &&
                             at(pool, "oracleOk").asBool(),
                         "pool not replay-oracle checked clean");
         });
     }},
    {"serve", "poolSimReplay", [](const Json &d) {
         return eachRun(poolCells(d), [](const Json &run) {
             const Json &pool = at(run, "data.result.pool");
             return need(!at(pool, "simReplayChecked").asBool() ||
                             at(pool, "simReplayOk").asBool(),
                         "pool sim replay diverged");
         });
     }},
    {"serve", "poolInvariants", [](const Json &d) {
         return eachRun(poolCells(d), [](const Json &run) {
             return need(at(run, "data.result.pool.nativeInvariantsOk")
                             .asBool(),
                         "pool invariant sweep failed");
         });
     }},
    {"serve", "executedSum", [](const Json &d) {
         return eachRun(poolCells(d), [](const Json &run) {
             const Json &res = at(run, "data.result");
             std::uint64_t sum = sumOf(at(res, "pool.perWorker"), "executed");
             std::uint64_t admitted = at(res, "admitted").asUint();
             return need(sum == admitted,
                         "pool executed " + std::to_string(sum) + " of " +
                             std::to_string(admitted) + " admitted");
         });
     }},
    {"serve", "pooledCells", [](const Json &d) {
         std::size_t n = poolCells(d).size();
         return need(n >= 8, count("native cells; expected the native grid "
                                   "to run pooled (>= 8)", n));
     }},
    {"serve", "overloadSheds", [](const Json &d) -> std::string {
         std::vector<const Json *> over = runsWhere(d, [](const Json &run) {
             return !at(run, "data.result").isNull() &&
                    label(run).find("/over/") != std::string::npos;
         });
         if (over.empty())
             return "no overload cells";
         return eachRun(over, [](const Json &run) {
             return need(at(run, "data.result.shedPolicy").asUint() > 0,
                         "overload cell did not shed via policy");
         });
     }},
    {"serve", "workerScaling", [](const Json &d) {
         const Json &ws = dataOf(d, "workerScaling");
         return need(at(ws, "hostCores").asUint() > 0 &&
                         at(ws, "cells").size() >= 6,
                     "workerScaling " + show(ws) +
                         ": need hostCores > 0 and >= 6 cells");
     }},
    {"serve", "sat4v1Ratio", [](const Json &d) {
         const Json &ws = dataOf(d, "workerScaling");
         const Json &ratio = at(ws, "sat4v1GoodputRatio");
         return need(!at(ws, "checked").asBool() || ratio.asDouble() >= 1.8,
                     "sat4v1GoodputRatio " + show(ratio) + " < 1.8");
     }},
    {"serve", "sloSummary", [](const Json &d) {
         const Json &slo = dataOf(d, "summary/slo");
         return need(at(slo, "failures").isNumber() &&
                         at(slo, "failures").asUint() == 0 &&
                         at(slo, "cells").asUint() == serveCells(d).size(),
                     "summary/slo " + show(slo) + " for " +
                         count("cells", serveCells(d).size()));
     }},
    {"serve", "sloShedTotal", [](const Json &d) {
         const Json &slo = dataOf(d, "summary/slo");
         return need(at(slo, "shedTotal").asUint() > 0,
                     "summary/slo " + show(slo) + ": nothing shed");
     }},
};

bool
applies(const ReportCheck &c, const std::string &bench)
{
    return std::string_view(c.bench) == "*" || c.bench == bench;
}

bool
isVolatile(const std::string &key)
{
    return key == "hostNanos" || key == "simInstrPerHostSec";
}

bool
sameNumber(const Json &a, const Json &b)
{
    if (a.type() == Json::Type::Double || b.type() == Json::Type::Double)
        return a.asDouble() == b.asDouble();
    bool a_neg = a.type() == Json::Type::Int && a.asInt() < 0;
    bool b_neg = b.type() == Json::Type::Int && b.asInt() < 0;
    return a_neg == b_neg && a.asUint() == b.asUint();
}

std::string
diffAt(const Json &a, const Json &b, const std::string &path)
{
    auto differ = [&] {
        return (path.empty() ? "<root>" : path) + ": " + show(a) + " vs " +
               show(b);
    };
    if (a.isNumber() && b.isNumber())
        return sameNumber(a, b) ? "" : differ();
    if (a.type() != b.type())
        return differ();
    switch (a.type()) {
      case Json::Type::Bool:
        return a.asBool() == b.asBool() ? "" : differ();
      case Json::Type::String:
        return a.asString() == b.asString() ? "" : differ();
      case Json::Type::Array: {
        if (a.size() != b.size())
            return path + ": " + std::to_string(a.size()) + " vs " +
                   std::to_string(b.size()) + " elements";
        for (std::size_t i = 0; i < a.size(); ++i) {
            std::string d = diffAt(a.at(i), b.at(i),
                                   path + "[" + std::to_string(i) + "]");
            if (!d.empty())
                return d;
        }
        return "";
      }
      case Json::Type::Object: {
        for (const auto &[key, av] : a.members()) {
            if (isVolatile(key))
                continue;
            std::string sub = path.empty() ? key : path + "." + key;
            const Json *bv = b.find(key);
            if (!bv)
                return sub + ": only in the first report";
            std::string d = diffAt(av, *bv, sub);
            if (!d.empty())
                return d;
        }
        for (const auto &[key, bv] : b.members()) {
            if (!isVolatile(key) && !a.find(key))
                return (path.empty() ? key : path + "." + key) +
                       ": only in the second report";
        }
        return "";
      }
      default:
        return "";
    }
}

std::string
ratioText(double got, double ref)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.0f vs %.0f (%.2fx)", got, ref,
                  got / ref);
    return buf;
}

std::string
fixed2(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", v);
    return buf;
}

/** scale/<mix>/t<n> cell label -> opsPerSec. */
std::map<std::string, double>
scaleCells(const Json &doc)
{
    std::map<std::string, double> out;
    for (const Json *run : runsWithPrefix(doc, "scale/")) {
        if (fullMatch(label(*run), "scale/[a-z-]+/t\\d+"))
            out[label(*run)] = at(*run, "result.opsPerSec").asDouble();
    }
    return out;
}

GuardOutcome
guardHostNative(const Json &fresh, const Json &committed)
{
    auto cores = [](const Json &r) {
        return at(dataOf(r, "scalingSummary"), "hostCores").asUint();
    };
    std::uint64_t fc = cores(fresh), bc = cores(committed);
    if (fc != bc)
        return {GuardVerdict::Skip,
                "perf guard skipped: runner has " + std::to_string(fc) +
                    " cores, committed baseline was measured on " +
                    std::to_string(bc)};
    std::map<std::string, double> got = scaleCells(fresh);
    double worst = 1.0;
    std::string bad;
    for (const auto &[cell, ref] : scaleCells(committed)) {
        auto it = got.find(cell);
        if (it == got.end())  // --ci runs a subset of the full matrix
            continue;
        double ratio = it->second / ref;
        worst = std::min(worst, ratio);
        if (ratio < 0.8)
            bad += (bad.empty() ? "" : "; ") + cell + ": " +
                   ratioText(it->second, ref);
    }
    if (!bad.empty())
        return {GuardVerdict::Fail, "native throughput regressed >20%: " + bad};
    return {GuardVerdict::Pass,
            "perf guard ok: worst cell at " + fixed2(worst) + "x baseline"};
}

GuardOutcome
guardServe(const Json &fresh, const Json &committed)
{
    const Json &fws = dataOf(fresh, "workerScaling");
    const Json &bws = dataOf(committed, "workerScaling");
    std::uint64_t fc = at(fws, "hostCores").asUint();
    std::uint64_t bc = at(bws, "hostCores").asUint();
    if (fc != bc)
        return {GuardVerdict::Skip,
                "serve guard skipped: runner has " + std::to_string(fc) +
                    " cores, committed baseline was measured on " +
                    std::to_string(bc)};
    auto sat4 = [](const Json &ws) -> const Json & {
        for (const Json *c : elements(at(ws, "cells"))) {
            if (at(*c, "workers").asUint() == 4 &&
                at(*c, "load").asString() == "sat")
                return at(*c, "goodputPerSec");
        }
        return nullJson();
    };
    if (!sat4(fws).isNumber() || !sat4(bws).isNumber())
        return {GuardVerdict::Fail, "no 4-worker saturated workerScaling cell"};
    double got = sat4(fws).asDouble(), ref = sat4(bws).asDouble();
    if (!(got / ref >= 0.8))
        return {GuardVerdict::Fail,
                "4-worker native saturated goodput regressed: " +
                    ratioText(got, ref)};
    return {GuardVerdict::Pass, "serve guard ok: sat/w4 goodput at " +
                                    fixed2(got / ref) + "x baseline"};
}

} // namespace

std::vector<std::string>
reportCheckNames(const std::string &bench)
{
    std::vector<std::string> out;
    for (const ReportCheck &c : kChecks) {
        if (applies(c, bench))
            out.push_back(c.name);
    }
    return out;
}

std::vector<ReportFailure>
checkReport(const Json &doc)
{
    const std::string &bench = at(doc, "bench").asString();
    std::vector<ReportFailure> out;
    for (const ReportCheck &c : kChecks) {
        if (!applies(c, bench))
            continue;
        std::string diag = c.fn(doc);
        if (!diag.empty())
            out.push_back({c.name, std::move(diag)});
    }
    return out;
}

std::string
diffReports(const Json &a, const Json &b)
{
    return diffAt(a, b, "");
}

GuardOutcome
guardReport(const Json &fresh, const Json &committed)
{
    const std::string &bench = at(fresh, "bench").asString();
    if (bench != at(committed, "bench").asString())
        return {GuardVerdict::Fail,
                "bench \"" + bench + "\" vs committed \"" +
                    at(committed, "bench").asString() + "\""};
    if (bench == "host_native")
        return guardHostNative(fresh, committed);
    if (bench == "serve")
        return guardServe(fresh, committed);
    return {GuardVerdict::Fail, "no throughput guard for bench \"" + bench +
                                    "\""};
}

} // namespace hastm
