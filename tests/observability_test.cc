/**
 * @file
 * Observability subsystem tests: the JSON document model (writer,
 * escaping, parser round-trips), histogram bucket math, the
 * experiment-report schema, and the transaction event trace.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cpu/core.hh"
#include "harness/report.hh"
#include "sim/json.hh"
#include "sim/trace.hh"

namespace hastm {
namespace {

// ------------------------------------------------------------- JSON

TEST(Json, ScalarsSerialize)
{
    EXPECT_EQ(Json().str(-1), "null");
    EXPECT_EQ(Json(true).str(-1), "true");
    EXPECT_EQ(Json(false).str(-1), "false");
    EXPECT_EQ(Json(-42).str(-1), "-42");
    EXPECT_EQ(Json(std::uint64_t(18446744073709551615ull)).str(-1),
              "18446744073709551615");
    EXPECT_EQ(Json(1.5).str(-1), "1.5");
    EXPECT_EQ(Json("hi").str(-1), "\"hi\"");
}

TEST(Json, EscapingCoversControlAndSpecialChars)
{
    EXPECT_EQ(Json::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(Json::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(Json::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(Json::escape(std::string("a\x01") + "b"), "a\\u0001b");
    EXPECT_EQ(Json(std::string("x\r\f\by")).str(-1),
              "\"x\\r\\f\\by\"");
}

TEST(Json, ObjectsKeepInsertionOrder)
{
    Json j = Json::object();
    j.set("zebra", 1).set("apple", 2).set("mango", 3);
    EXPECT_EQ(j.str(-1), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    // Overwriting keeps the original slot.
    j.set("apple", 9);
    EXPECT_EQ(j.str(-1), "{\"zebra\":1,\"apple\":9,\"mango\":3}");
}

TEST(Json, NestedStructuresSerialize)
{
    Json arr = Json::array();
    arr.push(1).push("two");
    Json inner = Json::object();
    inner.set("k", Json());
    arr.push(std::move(inner));
    Json j = Json::object();
    j.set("list", std::move(arr));
    EXPECT_EQ(j.str(-1), "{\"list\":[1,\"two\",{\"k\":null}]}");
}

TEST(Json, ParseRoundTripsEverything)
{
    Json doc = Json::object();
    doc.set("name", "bench \"x\"\n")
        .set("big", std::uint64_t(1) << 63)
        .set("neg", -17)
        .set("pi", 3.25)
        .set("flag", true)
        .set("nothing", Json());
    Json hist = Json::array();
    hist.push(0).push(1).push(2);
    doc.set("hist", std::move(hist));

    for (int indent : {-1, 0, 2, 4}) {
        std::string err;
        Json back = Json::parse(doc.str(indent), &err);
        EXPECT_TRUE(err.empty()) << err;
        ASSERT_TRUE(back.isObject());
        EXPECT_EQ(back.find("name")->asString(), "bench \"x\"\n");
        EXPECT_EQ(back.find("big")->asUint(), std::uint64_t(1) << 63);
        EXPECT_EQ(back.find("neg")->asInt(), -17);
        EXPECT_DOUBLE_EQ(back.find("pi")->asDouble(), 3.25);
        EXPECT_TRUE(back.find("flag")->asBool());
        EXPECT_TRUE(back.find("nothing")->isNull());
        ASSERT_EQ(back.find("hist")->size(), 3u);
        EXPECT_EQ(back.find("hist")->at(2).asUint(), 2u);
    }
}

TEST(Json, ParseHandlesEscapesAndUnicode)
{
    std::string err;
    Json j = Json::parse("\"a\\u0041\\n\\t\\\\\\\"\"", &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(j.asString(), "aA\n\t\\\"");
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated",
          "{\"a\" 1}", "[1 2]", "nul"}) {
        std::string err;
        Json j = Json::parse(bad, &err);
        EXPECT_TRUE(j.isNull()) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
}

// -------------------------------------------------------- Histogram

TEST(Histogram, BucketMath)
{
    // Bucket 0 holds only the value 0; bucket i >= 1 holds
    // [2^(i-1), 2^i).
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(7), 3u);
    EXPECT_EQ(Histogram::bucketOf(8), 4u);
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t(0)), 64u);

    EXPECT_EQ(Histogram::bucketLo(0), 0u);
    EXPECT_EQ(Histogram::bucketLo(1), 1u);
    EXPECT_EQ(Histogram::bucketLo(2), 2u);
    EXPECT_EQ(Histogram::bucketLo(3), 4u);
    EXPECT_EQ(Histogram::bucketLo(64), std::uint64_t(1) << 63);

    // Every value maps into the bucket whose range contains it.
    for (std::uint64_t v : {1ull, 2ull, 3ull, 100ull, 4095ull, 4096ull}) {
        unsigned b = Histogram::bucketOf(v);
        EXPECT_GE(v, Histogram::bucketLo(b));
        if (b < 64)
            EXPECT_LT(v, Histogram::bucketLo(b + 1));
    }
}

TEST(Histogram, RecordTracksMoments)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.usedBuckets(), 0u);
    h.record(0);
    h.record(5);
    h.record(16);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 21u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 16u);
    EXPECT_DOUBLE_EQ(h.mean(), 7.0);
    EXPECT_EQ(h.bucketCount(0), 1u);                       // 0
    EXPECT_EQ(h.bucketCount(Histogram::bucketOf(5)), 1u);  // [4,8)
    EXPECT_EQ(h.bucketCount(Histogram::bucketOf(16)), 1u); // [16,32)
    EXPECT_EQ(h.usedBuckets(), Histogram::bucketOf(16) + 1);
}

TEST(Histogram, MergeAndReset)
{
    Histogram a, b;
    a.record(1);
    a.record(1000);
    b.record(3);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 1004u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 1000u);
    Histogram empty;
    a.merge(empty);  // merging an empty histogram changes nothing
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.min(), 1u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_EQ(a.usedBuckets(), 0u);
}

TEST(Histogram, JsonReportsSparseBuckets)
{
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(6);
    Json j = toJson(h);
    EXPECT_EQ(j.find("count")->asUint(), 10u);
    EXPECT_EQ(j.find("sum")->asUint(), 60u);
    const Json *buckets = j.find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_EQ(buckets->size(), 1u);  // only [4,8) is populated
    EXPECT_EQ(buckets->at(0).at(0).asUint(), 4u);
    EXPECT_EQ(buckets->at(0).at(1).asUint(), 10u);
}

// ---------------------------------------------------- report schema

ExperimentConfig
smallConfig(TmScheme scheme)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Bst;
    cfg.scheme = scheme;
    cfg.threads = 2;
    cfg.totalOps = 600;
    cfg.initialSize = 128;
    cfg.keyRange = 512;
    cfg.machine.arenaBytes = 16 * 1024 * 1024;
    return cfg;
}

TEST(Report, ExperimentJsonIsSchemaComplete)
{
    ExperimentConfig cfg = smallConfig(TmScheme::Stm);
    ExperimentResult res = runDataStructure(cfg);

    // Serialize, print, and re-parse: what a downstream consumer sees.
    Json doc = Json::object();
    doc.set("config", toJson(cfg)).set("result", toJson(res));
    std::string err;
    Json back = Json::parse(doc.str(2), &err);
    ASSERT_TRUE(err.empty()) << err;

    const Json *config = back.find("config");
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->find("scheme")->asString(), "stm");
    EXPECT_EQ(config->find("workload")->asString(), "bst");
    EXPECT_EQ(config->find("threads")->asUint(), 2u);
    ASSERT_NE(config->find("stm"), nullptr);
    EXPECT_EQ(config->find("stm")->find("granularity")->asString(),
              "cacheline");

    const Json *result = back.find("result");
    ASSERT_NE(result, nullptr);
    // Every top-level counter is present and sane.
    for (const char *key : {"makespan", "instructions", "loads",
                            "stores", "l1HitLoads", "checksum",
                            "finalSize"}) {
        ASSERT_NE(result->find(key), nullptr) << key;
        EXPECT_TRUE(result->find(key)->isNumber()) << key;
    }
    EXPECT_GT(result->find("makespan")->asUint(), 0u);
    ASSERT_NE(result->find("invariantOk"), nullptr);
    EXPECT_TRUE(result->find("invariantOk")->asBool());

    // Every phase appears by name with cycle and instruction counts.
    const Json *phases = result->find("phases");
    ASSERT_NE(phases, nullptr);
    for (std::size_t p = 0; p < std::size_t(Phase::NumPhases); ++p) {
        const Json *one = phases->find(phaseName(Phase(p)));
        ASSERT_NE(one, nullptr) << phaseName(Phase(p));
        ASSERT_NE(one->find("cycles"), nullptr);
        ASSERT_NE(one->find("instrs"), nullptr);
    }

    // TM counters, the abort-reason breakdown, and the histograms.
    const Json *tm = result->find("tm");
    ASSERT_NE(tm, nullptr);
    EXPECT_GE(tm->find("commits")->asUint(), 600u);
    const Json *reasons = tm->find("abortReasons");
    ASSERT_NE(reasons, nullptr);
    for (const char *key : {"conflict", "user", "htmCapacity", "cmKill"})
        ASSERT_NE(reasons->find(key), nullptr) << key;
    for (const char *key :
         {"readSetAtCommit", "undoLogAtCommit", "retriesPerCommit"}) {
        const Json *hist = tm->find(key);
        ASSERT_NE(hist, nullptr) << key;
        EXPECT_EQ(hist->find("count")->asUint(), tm->find("commits")->asUint())
            << key;
        ASSERT_NE(hist->find("buckets"), nullptr) << key;
    }
}

TEST(Report, BenchReportWritesParsableDocument)
{
    std::string path = testing::TempDir() + "hastm_report_test.json";
    {
        const char *argv[] = {"bench", "--json", path.c_str()};
        BenchReport report("unit", 3, const_cast<char **>(argv));
        ASSERT_TRUE(report.enabled());
        EXPECT_EQ(report.path(), path);
        ExperimentConfig cfg = smallConfig(TmScheme::Lock);
        report.add("lock/2", cfg, runDataStructure(cfg));
        Json extra = Json::object();
        extra.set("note", "custom payload");
        report.addCustom("aux", std::move(extra));
        EXPECT_EQ(report.runCount(), 2u);
    }  // destructor writes

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    std::stringstream ss;
    ss << is.rdbuf();
    std::string err;
    Json doc = Json::parse(ss.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc.find("bench")->asString(), "unit");
    EXPECT_EQ(doc.find("schemaVersion")->asUint(),
              kReportSchemaVersion);
    const Json *runs = doc.find("runs");
    ASSERT_NE(runs, nullptr);
    ASSERT_EQ(runs->size(), 2u);
    EXPECT_EQ(runs->at(0).find("label")->asString(), "lock/2");
    const Json *result = runs->at(0).find("result");
    ASSERT_NE(result, nullptr);
    // Schema v2 host-throughput fields.
    ASSERT_NE(result->find("hostNanos"), nullptr);
    EXPECT_GT(result->find("hostNanos")->asUint(), 0u);
    ASSERT_NE(result->find("simInstrPerHostSec"), nullptr);
    EXPECT_EQ(runs->at(1).find("data")->find("note")->asString(),
              "custom payload");
}

TEST(Report, EnvVarDirectoryNamesCanonicalFile)
{
    std::string dir = testing::TempDir();  // ends with '/'
    ASSERT_EQ(setenv("HASTM_BENCH_JSON", dir.c_str(), 1), 0);
    BenchReport report("fig99");
    EXPECT_EQ(report.path(), dir + "BENCH_fig99.json");
    ASSERT_EQ(unsetenv("HASTM_BENCH_JSON"), 0);
    BenchReport off("fig99");
    EXPECT_FALSE(off.enabled());
    // Disabled reports swallow adds and write nothing.
    Json j = Json::object();
    off.addCustom("x", std::move(j));
    EXPECT_EQ(off.runCount(), 0u);
    EXPECT_TRUE(off.write());
}

// ------------------------------------------------------------ trace

TEST(Trace, ExperimentEmitsValidChromeTrace)
{
    std::string path = testing::TempDir() + "hastm_trace_test.json";
    ExperimentConfig cfg = smallConfig(TmScheme::Stm);
    cfg.stm.tracePath = path;
    ExperimentResult res = runDataStructure(cfg);
    EXPECT_TRUE(res.invariantOk);

    std::ifstream is(path);
    ASSERT_TRUE(is.good()) << "trace file not written";
    std::stringstream ss;
    ss << is.rdbuf();
    std::string err;
    Json doc = Json::parse(ss.str(), &err);
    ASSERT_TRUE(err.empty()) << err;

    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_GT(events->size(), 0u);
    std::size_t commits = 0;
    // An event is emitted at its end cycle (ts + dur; ts for an
    // instant), and the cores emit in (cycle, core) order.
    std::pair<std::uint64_t, std::uint64_t> last{0, 0};
    unsigned descents = 0;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        ASSERT_NE(e.find("name"), nullptr);
        ASSERT_NE(e.find("ph"), nullptr);
        ASSERT_NE(e.find("ts"), nullptr);
        ASSERT_NE(e.find("tid"), nullptr);
        const std::string &ph = e.find("ph")->asString();
        EXPECT_TRUE(ph == "X" || ph == "i") << ph;
        std::uint64_t end = e.find("ts")->asUint();
        if (ph == "X") {
            ASSERT_NE(e.find("dur"), nullptr);
            end += e.find("dur")->asUint();
            const Json *args = e.find("args");
            ASSERT_NE(args, nullptr);
            if (args->find("outcome")->asString() == "commit")
                ++commits;
        }
        std::pair<std::uint64_t, std::uint64_t> key{
            end, e.find("tid")->asUint()};
        descents += key < last;
        last = key;
    }
    // Every committed transaction left a span.
    EXPECT_GE(commits, res.tm.commits);
    // Core cycles restart once, when the measured phase follows the
    // populate phase; otherwise the file is in emission order.
    EXPECT_LE(descents, 1u);
}

TEST(Trace, SinkWithEmptyPathIsInert)
{
    TraceSink sink("");
    sink.complete(0, 10, 5, "tx");
    sink.instant(1, 20, "validate");
    EXPECT_EQ(sink.eventCount(), 2u);
    EXPECT_TRUE(sink.flush());  // no path: nothing written, no error
}

} // namespace
} // namespace hastm
