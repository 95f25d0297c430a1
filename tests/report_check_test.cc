/**
 * @file
 * Report checker tests (harness/report_check.hh).
 *
 * Every committed BENCH_*.json baseline is loaded from the source
 * tree, checked clean, and then broken once per table check: each
 * mutation must fail exactly the check it targets, so no check is
 * vacuous and no check overlaps another. The pair comparisons behind
 * `report_check --same` and `--guard` are tested at their edges.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/report_check.hh"

using namespace hastm;

namespace {

const char *const kBaselines[] = {
    "BENCH_adaptive.json",      "BENCH_fig11.json",
    "BENCH_host_native.json",   "BENCH_serve.json",
    "BENCH_shard.json",         "BENCH_stress_faults.json",
    "BENCH_stress_native.json",
};

/** A committed baseline, parsed once per test binary. */
const Json &
baseline(const std::string &name)
{
    static std::map<std::string, Json> cache;
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;
    std::ifstream in(std::string(HASTM_SOURCE_DIR) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    std::string err;
    Json doc = Json::parse(text.str(), &err);
    EXPECT_TRUE(err.empty()) << name << ": " << err;
    return cache.emplace(name, std::move(doc)).first->second;
}

std::vector<std::string>
failedChecks(const Json &doc)
{
    std::vector<std::string> out;
    for (const ReportFailure &f : checkReport(doc))
        out.push_back(f.check);
    return out;
}

const std::string &
labelOf(const Json &run)
{
    return run.find("label")->asString();
}

/** Copy of array @p arr with @p fn applied; false drops the element. */
Json
mapArray(const Json &arr, const std::function<bool(Json &)> &fn)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
        Json e = arr.at(i);
        if (fn(e))
            out.push(std::move(e));
    }
    return out;
}

/** Copy of object @p obj without member @p key. */
Json
without(const Json &obj, const std::string &key)
{
    Json out = Json::object();
    for (const auto &[k, v] : obj.members()) {
        if (k != key)
            out.set(k, v);
    }
    return out;
}

void
editRuns(Json &doc, const std::function<bool(Json &)> &fn)
{
    doc["runs"] = mapArray(doc["runs"], fn);
}

void
editRun(Json &doc, const std::string &label,
        const std::function<void(Json &)> &fn)
{
    editRuns(doc, [&](Json &run) {
        if (labelOf(run) == label)
            fn(run);
        return true;
    });
}

/** Replace element @p i of @p arr through @p fn. */
void
editAt(Json &arr, std::size_t i, const std::function<void(Json &)> &fn)
{
    std::size_t n = 0;
    arr = mapArray(arr, [&](Json &e) {
        if (n++ == i)
            fn(e);
        return true;
    });
}

void
bump(Json &v, std::uint64_t by = 1)
{
    v = Json(static_cast<unsigned long long>(v.asUint() + by));
}

bool
isServeCell(const Json &run)
{
    const Json *data = run.find("data");
    return data && data->find("result");
}

/** Keep the serve cells @p keep selects, and resummarise their count. */
void
keepServeCells(Json &doc, const std::function<bool(const Json &)> &keep)
{
    unsigned cells = 0;
    editRuns(doc, [&](Json &run) {
        if (!isServeCell(run))
            return true;
        if (!keep(run))
            return false;
        ++cells;
        return true;
    });
    editRun(doc, "summary/slo",
            [&](Json &run) { run["data"]["cells"] = cells; });
}

struct Mutation
{
    const char *file;
    const char *check;  //!< the one check the mutation must fail
    std::function<void(Json &)> apply;
};

const std::vector<Mutation> &
mutations()
{
    static const std::vector<Mutation> all = {
        // ---- every report (on fig11)
        {"BENCH_fig11.json", "shape",
         [](Json &d) { editAt(d["runs"], 0, [](Json &run) {
             run = without(run, "label"); }); }},
        {"BENCH_fig11.json", "schemaVersion",
         [](Json &d) { d["schemaVersion"] = 12; }},

        {"BENCH_fig11.json", "invariantOk",
         [](Json &d) { editRun(d, "btree/stm/16", [](Json &run) {
             run["result"]["invariantOk"] = false; }); }},

        // ---- stress_faults
        {"BENCH_stress_faults.json", "oracleOk",
         [](Json &d) { editRun(d, "hytm/heavy/seed2", [](Json &run) {
             run["result"]["oracleOk"] = false; }); }},
        {"BENCH_stress_faults.json", "faultKinds",
         [](Json &d) { editRuns(d, [](Json &run) {
             Json &tm = run["result"]["tm"];
             tm["faultsInjected"] = without(tm["faultsInjected"],
                                            "snoopDelay");
             return true; }); }},

        // ---- adaptive
        {"BENCH_adaptive.json", "runCount",
         [](Json &d) { editRuns(d, [](Json &run) {
             return labelOf(run) != "phased/stm"; }); }},
        {"BENCH_adaptive.json", "switches",
         [](Json &d) { editRun(d, "phased/adaptive", [](Json &run) {
             run["data"]["result"]["tm"]["adaptive"]["switches"] = 1; }); }},
        {"BENCH_adaptive.json", "dispatchCoversCommits",
         [](Json &d) { editRun(d, "phased/adaptive", [](Json &run) {
             bump(run["data"]["result"]["tm"]["commits"]); }); }},
        {"BENCH_adaptive.json", "siteDispatchFrac",
         [](Json &d) { editRun(d, "phased/adaptive", [](Json &run) {
             editAt(run["data"]["result"]["adaptive"]["sites"], 0,
                    [](Json &site) {
                        Json &f = site["dispatchFrac"]["hytm"];
                        f = f.asDouble() + 0.01;
                    }); }); }},

        // ---- shard
        {"BENCH_shard.json", "runCount",
         [](Json &d) {
             unsigned kept = 0;
             editRuns(d, [&](Json &run) {
                 return !run.find("config") ||
                        labelOf(run).find("/disjoint/paper-1shard/") !=
                            std::string::npos ||
                        labelOf(run).find("/disjoint/arena-shards/") !=
                            std::string::npos ||
                        ++kept <= 23;
             });
         }},
        {"BENCH_shard.json", "geometryFields",
         [](Json &d) { editRun(d, "ds/bst/hastm/paper-1shard", [](Json &run) {
             run["config"]["stm"] = without(run["config"]["stm"],
                                            "recHashMix"); }); }},
        {"BENCH_shard.json", "conflictFields",
         [](Json &d) { editRun(d, "micro/shared/arena-small/hytm",
                               [](Json &run) {
             Json &tm = run["result"]["tm"];
             tm["conflicts"] = without(tm["conflicts"], "unclassified");
         }); }},
        {"BENCH_shard.json", "aliasedHalved",
         [](Json &d) {
             std::uint64_t one = 0;
             editRun(d, "micro/disjoint/paper-1shard/stm", [&](Json &run) {
                 one = run["result"]["tm"]["conflicts"]["aliased"].asUint();
             });
             editRun(d, "micro/disjoint/arena-shards/stm", [&](Json &run) {
                 run["result"]["tm"]["conflicts"]["aliased"] =
                     Json(static_cast<unsigned long long>(one / 2 + 1));
             });
         }},

        // ---- host_native
        {"BENCH_host_native.json", "perfBackend",
         [](Json &d) { editRun(d, "scale/disjoint/t2", [](Json &run) {
             run["config"]["backend"] = "sim"; }); }},
        {"BENCH_host_native.json", "threadCounts",
         [](Json &d) { editRuns(d, [](Json &run) {
             if (labelOf(run).rfind("scale/", 0) == 0)
                 run["config"]["threads"] = 4;
             return true; }); }},
        {"BENCH_host_native.json", "perfLabels",
         [](Json &d) { editRun(d, "scale/read-heavy/t2", [](Json &run) {
             run["label"] = "scale/read-heavy/snapshot/t2"; }); }},
        {"BENCH_host_native.json", "perfOpsPerSec",
         [](Json &d) { editRun(d, "scale/disjoint/t8", [](Json &run) {
             run["result"]["opsPerSec"] = 0; }); }},
        {"BENCH_host_native.json", "xvalCount",
         [](Json &d) {
             unsigned kept = 0;
             editRuns(d, [&](Json &run) {
                 return labelOf(run).rfind("xval/", 0) != 0 || ++kept <= 2;
             });
         }},
        {"BENCH_host_native.json", "xvalLabels",
         [](Json &d) { editRun(d, "xval/bst/seed1", [](Json &run) {
             run["label"] = "xval/bst/snapshot/seed1"; }); }},
        {"BENCH_host_native.json", "xvalOk",
         [](Json &d) { editRun(d, "xval/btree/seed2", [](Json &run) {
             run["data"]["ok"] = false; }); }},

        // ---- stress_native
        {"BENCH_stress_native.json", "cellLabels",
         [](Json &d) { editRun(d, "heavy/t4/seed1", [](Json &run) {
             run["label"] = "heavy/snapshot/t4/seed1"; }); }},
        {"BENCH_stress_native.json", "profileCount",
         [](Json &d) { editRuns(d, [](Json &run) {
             // Fold four profiles into "heavy": every injected fault
             // stays, but only off, light and heavy remain.
             std::string l = labelOf(run);
             for (const char *p : {"delay/", "stall/", "kill/", "starve/"}) {
                 if (l.rfind(p, 0) == 0) {
                     run["label"] = "heavy/" + l.substr(l.find('/') + 1);
                     run["config"]["faultProfile"] = "heavy";
                 }
             }
             return true; }); }},
        {"BENCH_stress_native.json", "nativeInvariantsOk",
         [](Json &d) { editRun(d, "light/t2/seed1", [](Json &run) {
             run["result"]["nativeInvariantsOk"] = false; }); }},
        {"BENCH_stress_native.json", "oracleOk",
         [](Json &d) { editRun(d, "kill/t4/seed2", [](Json &run) {
             run["result"]["oracleOk"] = false; }); }},
        {"BENCH_stress_native.json", "faultProfileLabel",
         [](Json &d) { editRun(d, "stall/t1/seed1", [](Json &run) {
             run["config"]["faultProfile"] = "kill"; }); }},
        {"BENCH_stress_native.json", "faultKinds",
         [](Json &d) { editRuns(d, [](Json &run) {
             if (run.find("config")) {
                 Json &tm = run["result"]["tm"];
                 tm["nativeFaultsInjected"] =
                     without(tm["nativeFaultsInjected"], "gateStall");
             }
             return true; }); }},
        {"BENCH_stress_native.json", "determinismCount",
         [](Json &d) {
             Json again;
             editRun(d, "determinism/heavy", [&](Json &run) { again = run; });
             d["runs"].push(again);
         }},
        {"BENCH_stress_native.json", "repeatIdentical",
         [](Json &d) { editRun(d, "determinism/heavy", [](Json &run) {
             run["data"]["repeatIdentical"] = false; }); }},
        {"BENCH_stress_native.json", "reseededDiverged",
         [](Json &d) { editRun(d, "determinism/heavy", [](Json &run) {
             run["data"]["reseededDiverged"] = false; }); }},

        // ---- serve
        {"BENCH_serve.json", "cellCount",
         [](Json &d) {
             unsigned kept = 0;
             keepServeCells(d, [&](const Json &) { return ++kept <= 19; });
         }},
        {"BENCH_serve.json", "loadClasses",
         [](Json &d) { keepServeCells(d, [](const Json &run) {
             return labelOf(run).find("/burst/") == std::string::npos; }); }},
        {"BENCH_serve.json", "rerunIdentical",
         [](Json &d) { editRun(d, "sim/stm/sat/w4/seed1", [](Json &run) {
             run["data"]["rerunIdentical"] = false; }); }},
        {"BENCH_serve.json", "invariantAndQuiescent",
         [](Json &d) { editRun(d, "native/over/w2/seed1", [](Json &run) {
             run["data"]["result"]["gateQuiescent"] = false; }); }},
        {"BENCH_serve.json", "latencyFields",
         [](Json &d) { editRun(d, "sim/hastm/burst/w4/seed2", [](Json &run) {
             Json &res = run["data"]["result"];
             res["latency"] = without(res["latency"], "p999"); }); }},
        {"BENCH_serve.json", "p99Matches",
         [](Json &d) { editRun(d, "native/under/w4/seed1", [](Json &run) {
             bump(run["data"]["result"]["p99Ns"]); }); }},
        {"BENCH_serve.json", "perWorkerCount",
         [](Json &d) { editRun(d, "sim/adaptive/under/w4/seed1",
                               [](Json &run) {
             Json idle = Json::object();
             idle.set("busyNs", 0).set("completed", 0);
             run["data"]["result"]["occupancy"]["perWorker"].push(idle);
         }); }},
        {"BENCH_serve.json", "busyNsSum",
         [](Json &d) { editRun(d, "native/sat/w4/seed1", [](Json &run) {
             editAt(run["data"]["result"]["occupancy"]["perWorker"], 0,
                    [](Json &w) { bump(w["busyNs"]); }); }); }},
        {"BENCH_serve.json", "completedSum",
         [](Json &d) { editRun(d, "native/burst/w4/seed2", [](Json &run) {
             editAt(run["data"]["result"]["occupancy"]["perWorker"], 1,
                    [](Json &w) { bump(w["completed"]); }); }); }},
        {"BENCH_serve.json", "poolIffNative",
         [](Json &d) {
             Json pool;
             editRun(d, "native/sat/w4/seed1", [&](Json &run) {
                 pool = run["data"]["result"]["pool"]; });
             editRun(d, "sim/stm/sat/w4/seed1", [&](Json &run) {
                 run["data"]["result"]["pool"] = pool; });
         }},
        {"BENCH_serve.json", "fingerprintExempt",
         [](Json &d) { editRun(d, "native/sat/w1/seed1", [](Json &run) {
             run["data"]["result"]["fingerprintExempt"] = true; }); }},
        {"BENCH_serve.json", "poolWorkers",
         [](Json &d) { editRun(d, "native/sat/w2/seed1", [](Json &run) {
             run["data"]["result"]["pool"]["workers"] = 3; }); }},
        {"BENCH_serve.json", "poolOracle",
         [](Json &d) { editRun(d, "native/under/w4/seed2", [](Json &run) {
             run["data"]["result"]["pool"]["oracleOk"] = false; }); }},
        {"BENCH_serve.json", "poolSimReplay",
         [](Json &d) { editRun(d, "native/burst/w4/seed1", [](Json &run) {
             run["data"]["result"]["pool"]["simReplayOk"] = false; }); }},
        {"BENCH_serve.json", "poolInvariants",
         [](Json &d) { editRun(d, "native/over/w4/seed1", [](Json &run) {
             run["data"]["result"]["pool"]["nativeInvariantsOk"] = false;
         }); }},
        {"BENCH_serve.json", "executedSum",
         [](Json &d) { editRun(d, "native/over/w1/seed1", [](Json &run) {
             editAt(run["data"]["result"]["pool"]["perWorker"], 0,
                    [](Json &w) { bump(w["executed"]); }); }); }},
        {"BENCH_serve.json", "pooledCells",
         [](Json &d) {
             unsigned native = 0;
             keepServeCells(d, [&](const Json &run) {
                 return labelOf(run).rfind("native/", 0) != 0 ||
                        ++native <= 7;
             });
         }},
        {"BENCH_serve.json", "overloadSheds",
         [](Json &d) { editRun(d, "sim/hastm/over/w4/seed1", [](Json &run) {
             run["data"]["result"]["shedPolicy"] = 0; }); }},
        {"BENCH_serve.json", "workerScaling",
         [](Json &d) { editRun(d, "workerScaling", [](Json &run) {
             run["data"]["hostCores"] = 0; }); }},
        {"BENCH_serve.json", "sat4v1Ratio",
         [](Json &d) { editRun(d, "workerScaling", [](Json &run) {
             run["data"]["checked"] = true;
             run["data"]["sat4v1GoodputRatio"] = 1.79; }); }},
        {"BENCH_serve.json", "sloSummary",
         [](Json &d) { editRun(d, "summary/slo", [](Json &run) {
             run["data"]["failures"] = 1; }); }},
        {"BENCH_serve.json", "sloShedTotal",
         [](Json &d) { editRun(d, "summary/slo", [](Json &run) {
             run["data"]["shedTotal"] = 0; }); }},
    };
    return all;
}

} // namespace

TEST(ReportCheck, EveryCommittedBaselinePasses)
{
    for (const char *file : kBaselines) {
        SCOPED_TRACE(file);
        EXPECT_EQ(failedChecks(baseline(file)), std::vector<std::string>{});
    }
}

TEST(ReportCheck, EachMutationFailsExactlyItsCheck)
{
    for (const Mutation &m : mutations()) {
        SCOPED_TRACE(std::string(m.file) + " / " + m.check);
        Json doc = baseline(m.file);
        m.apply(doc);
        EXPECT_EQ(failedChecks(doc), std::vector<std::string>{m.check});
    }
}

TEST(ReportCheck, EveryCheckHasAMutation)
{
    std::set<std::pair<std::string, std::string>> covered;
    std::set<std::string> common;
    for (const Mutation &m : mutations()) {
        covered.emplace(m.file, m.check);
        common.insert(m.check);
    }
    const std::vector<std::string> everyBench = reportCheckNames("");
    for (const char *file : kBaselines) {
        const Json *bench = baseline(file).find("bench");
        ASSERT_NE(bench, nullptr) << file;
        for (const std::string &check : reportCheckNames(bench->asString())) {
            bool shared = std::find(everyBench.begin(), everyBench.end(),
                                    check) != everyBench.end();
            EXPECT_TRUE(shared ? common.count(check) > 0
                               : covered.count({file, check}) > 0)
                << file << " has no mutation for check " << check;
        }
    }
}

TEST(ReportCheck, UnknownBenchGetsOnlyTheCommonChecks)
{
    EXPECT_EQ(reportCheckNames("fig12"),
              (std::vector<std::string>{"shape", "schemaVersion"}));
    Json doc = Json::object();
    doc.set("bench", "fig12").set("schemaVersion", 12).set("runs",
                                                           Json::array());
    EXPECT_EQ(failedChecks(doc), std::vector<std::string>{"schemaVersion"});
}

TEST(ReportCheck, SameIgnoresOnlyHostTiming)
{
    const Json &base = baseline("BENCH_fig11.json");
    EXPECT_EQ(diffReports(base, base), "");

    Json timing = base;
    editRun(timing, "hashtable/stm/4", [](Json &run) {
        bump(run["result"]["hostNanos"], 12345);
        run["result"]["simInstrPerHostSec"] = 1.5;
    });
    EXPECT_EQ(diffReports(base, timing), "");

    Json count = base;
    editRun(count, "hashtable/stm/4",
            [](Json &run) { bump(run["result"]["tm"]["commits"]); });
    std::string diff = diffReports(base, count);
    EXPECT_NE(diff.find("result.tm.commits"), std::string::npos) << diff;
    EXPECT_NE(diffReports(count, base), "");

    Json extra = base;
    extra["generated"] = "today";
    EXPECT_NE(diffReports(base, extra).find("generated"), std::string::npos);
}

namespace {

/** host_native pair: scale cells at 1000 ops/s, one fresh one at @p got. */
std::pair<Json, Json>
nativeGuardPair(double got, int core_delta = 0)
{
    Json committed = baseline("BENCH_host_native.json");
    editRuns(committed, [](Json &run) {
        if (labelOf(run).rfind("scale/", 0) == 0)
            run["result"]["opsPerSec"] = 1000.0;
        return true;
    });
    Json fresh = committed;
    editRun(fresh, "scale/write-heavy/t4",
            [&](Json &run) { run["result"]["opsPerSec"] = got; });
    editRun(fresh, "scalingSummary", [&](Json &run) {
        Json &cores = run["data"]["hostCores"];
        cores = static_cast<long long>(cores.asInt() + core_delta);
    });
    return {fresh, committed};
}

/** serve pair: committed sat/w4 goodput 1000/s, fresh's at @p got. */
std::pair<Json, Json>
serveGuardPair(double got, int core_delta = 0)
{
    auto setSat4 = [](Json &doc, double goodput, int delta) {
        editRun(doc, "workerScaling", [&](Json &run) {
            Json &cores = run["data"]["hostCores"];
            cores = static_cast<long long>(cores.asInt() + delta);
            run["data"]["cells"] =
                mapArray(run["data"]["cells"], [&](Json &c) {
                    if (c["workers"].asUint() == 4 &&
                        c["load"].asString() == "sat")
                        c["goodputPerSec"] = goodput;
                    return true;
                });
        });
    };
    Json committed = baseline("BENCH_serve.json");
    setSat4(committed, 1000.0, 0);
    Json fresh = committed;
    setSat4(fresh, got, core_delta);
    return {fresh, committed};
}

} // namespace

TEST(ReportCheck, NativeGuardHoldsAtEightyPercent)
{
    auto [fail_fresh, fail_base] = nativeGuardPair(790.0);
    GuardOutcome g = guardReport(fail_fresh, fail_base);
    EXPECT_EQ(g.verdict, GuardVerdict::Fail);
    EXPECT_NE(g.message.find("scale/write-heavy/t4"), std::string::npos)
        << g.message;

    auto [pass_fresh, pass_base] = nativeGuardPair(800.0);
    EXPECT_EQ(guardReport(pass_fresh, pass_base).verdict, GuardVerdict::Pass);

    auto [skip_fresh, skip_base] = nativeGuardPair(790.0, 1);
    EXPECT_EQ(guardReport(skip_fresh, skip_base).verdict, GuardVerdict::Skip);
}

TEST(ReportCheck, ServeGuardHoldsAtEightyPercent)
{
    auto [fail_fresh, fail_base] = serveGuardPair(790.0);
    EXPECT_EQ(guardReport(fail_fresh, fail_base).verdict, GuardVerdict::Fail);

    auto [pass_fresh, pass_base] = serveGuardPair(800.0);
    EXPECT_EQ(guardReport(pass_fresh, pass_base).verdict, GuardVerdict::Pass);

    auto [skip_fresh, skip_base] = serveGuardPair(790.0, -1);
    EXPECT_EQ(guardReport(skip_fresh, skip_base).verdict, GuardVerdict::Skip);
}

TEST(ReportCheck, GuardRefusesOtherBenchesAndMismatchedPairs)
{
    const Json &fig11 = baseline("BENCH_fig11.json");
    EXPECT_EQ(guardReport(fig11, fig11).verdict, GuardVerdict::Fail);
    EXPECT_EQ(guardReport(baseline("BENCH_serve.json"),
                          baseline("BENCH_host_native.json"))
                  .verdict,
              GuardVerdict::Fail);
}
