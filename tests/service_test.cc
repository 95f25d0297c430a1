/**
 * @file
 * Open-system transaction service tests (service/ + the latency
 * histogram satellite).
 *
 * Covers: exact bucket boundaries and quantile error of the
 * log-linear LatencyHistogram; determinism, rate, Zipf skew, and
 * phase geometry of the arrival generators; the admission policies
 * as pure decision functions; end-to-end service runs on both
 * backends, offered the same arrivals —
 * underload completes everything, overload sheds without collapse,
 * deterministic executors rerun bit-identically, multi-worker native
 * pools validate without a fingerprint — and the serial-gate overload
 * regression: a burst drives real watchdog escalations through the
 * NativeGate, and recovery drains them (gate quiescent, optimistic
 * execution resumes abort-free).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "harness/report.hh"
#include "service/server.hh"

namespace hastm {
namespace {

// ---- LatencyHistogram ----

TEST(LatencyHist, LowValuesHaveExactBuckets)
{
    EXPECT_EQ(LatencyHistogram::kBuckets, 1920u);
    for (std::uint64_t v = 0; v < LatencyHistogram::kSubCount; ++v) {
        unsigned i = LatencyHistogram::bucketOf(v);
        EXPECT_EQ(i, unsigned(v));
        EXPECT_EQ(LatencyHistogram::bucketLo(i), v);
        EXPECT_EQ(LatencyHistogram::bucketHi(i), v);
    }
}

TEST(LatencyHist, PowerOfTwoBoundaries)
{
    constexpr unsigned kSub = LatencyHistogram::kSubCount;
    constexpr unsigned kHalf = LatencyHistogram::kSubHalf;
    // 64 opens the first major bucket: sub-bucket width 2.
    EXPECT_EQ(LatencyHistogram::bucketOf(63), 63u);
    EXPECT_EQ(LatencyHistogram::bucketOf(64), kSub);
    EXPECT_EQ(LatencyHistogram::bucketOf(65), kSub);
    EXPECT_EQ(LatencyHistogram::bucketOf(66), kSub + 1);
    EXPECT_EQ(LatencyHistogram::bucketLo(kSub), 64u);
    EXPECT_EQ(LatencyHistogram::bucketHi(kSub), 65u);
    // Last sub-bucket of [64, 128) holds {126, 127}; 128 starts the
    // next major bucket with width 4.
    EXPECT_EQ(LatencyHistogram::bucketOf(127), kSub + kHalf - 1);
    EXPECT_EQ(LatencyHistogram::bucketOf(128), kSub + kHalf);
    EXPECT_EQ(LatencyHistogram::bucketLo(kSub + kHalf), 128u);
    EXPECT_EQ(LatencyHistogram::bucketHi(kSub + kHalf), 131u);
    // Top of the range: 2^63 opens the last major bucket; the all-ones
    // value lands in the very last bucket.
    std::uint64_t top = std::uint64_t(1) << 63;
    unsigned lastMajor = kSub + (63 - LatencyHistogram::kSubBits) * kHalf;
    EXPECT_EQ(LatencyHistogram::bucketOf(top), lastMajor);
    EXPECT_EQ(LatencyHistogram::bucketOf(~std::uint64_t(0)),
              LatencyHistogram::kBuckets - 1);
    EXPECT_EQ(LatencyHistogram::bucketLo(lastMajor), top);
    // Every bucket's bounds are consistent and adjacent.
    for (unsigned i = 0; i + 1 < LatencyHistogram::kBuckets; ++i) {
        EXPECT_LE(LatencyHistogram::bucketLo(i),
                  LatencyHistogram::bucketHi(i));
        EXPECT_EQ(LatencyHistogram::bucketHi(i) + 1,
                  LatencyHistogram::bucketLo(i + 1));
        EXPECT_EQ(LatencyHistogram::bucketOf(LatencyHistogram::bucketLo(i)),
                  i);
        EXPECT_EQ(LatencyHistogram::bucketOf(LatencyHistogram::bucketHi(i)),
                  i);
    }
}

TEST(LatencyHist, ExactQuantilesInTheLowRange)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 50; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 50u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 50u);
    EXPECT_EQ(h.p50(), 25u);
    EXPECT_EQ(h.quantile(0.02), 1u);
    EXPECT_EQ(h.quantile(1.0), 50u);
}

TEST(LatencyHist, QuantileErrorBounded)
{
    // The design bound: relative quantile error <= 1/kSubHalf.
    Rng rng(42);
    std::vector<std::uint64_t> vals;
    LatencyHistogram h;
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t v = 100 + (rng.next() % 10'000'000);
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        std::uint64_t rank = std::uint64_t(q * double(vals.size()));
        std::uint64_t exact = vals[rank - 1];
        std::uint64_t est = h.quantile(q);
        double rel = std::abs(double(est) - double(exact)) / double(exact);
        EXPECT_LE(rel, 1.0 / LatencyHistogram::kSubHalf + 1e-9)
            << "q=" << q << " exact=" << exact << " est=" << est;
    }
}

TEST(LatencyHist, MergeAndReset)
{
    LatencyHistogram a, b;
    a.record(10);
    a.record(1000);
    b.record(5);
    b.record(500000);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.min(), 5u);
    EXPECT_EQ(a.max(), 500000u);
    EXPECT_EQ(a.sum(), 501015u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.quantile(0.5), 0u);
    EXPECT_EQ(a.usedBuckets(), 0u);
}

TEST(LatencyHist, JsonHasPercentilesAndSparseBuckets)
{
    LatencyHistogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.record(v);
    Json j = toJson(h);
    ASSERT_NE(j.find("p50"), nullptr);
    ASSERT_NE(j.find("p99"), nullptr);
    ASSERT_NE(j.find("p999"), nullptr);
    EXPECT_EQ(j.find("count")->asUint(), 100u);
    const Json *buckets = j.find("buckets");
    ASSERT_NE(buckets, nullptr);
    ASSERT_TRUE(buckets->isArray());
    ASSERT_GT(buckets->size(), 0u);
    // Each entry is [lo, n] with n > 0.
    for (std::size_t i = 0; i < buckets->size(); ++i) {
        ASSERT_EQ(buckets->at(i).size(), 2u);
        EXPECT_GT(buckets->at(i).at(1).asUint(), 0u);
    }
}

// ---- arrival processes ----

ArrivalConfig
poissonCfg(double rate, std::uint64_t key_range = 256)
{
    ArrivalConfig a;
    a.kind = ArrivalKind::Poisson;
    a.ratePerSec = rate;
    a.keyRange = key_range;
    return a;
}

TEST(Arrival, PoissonIsDeterministicInTheSeed)
{
    ArrivalConfig cfg = poissonCfg(1e6);
    ArrivalGen g1(cfg, 7), g2(cfg, 7), g3(cfg, 8);
    ServiceRequest a, b, c;
    bool anyDiffers = false;
    for (int i = 0; i < 500; ++i) {
        ASSERT_TRUE(g1.next(10'000'000, &a));
        ASSERT_TRUE(g2.next(10'000'000, &b));
        EXPECT_EQ(a.arrivalNs, b.arrivalNs);
        EXPECT_EQ(a.key, b.key);
        EXPECT_EQ(int(a.op), int(b.op));
        EXPECT_EQ(a.seq, std::uint64_t(i));
        if (g3.next(10'000'000, &c) &&
            (c.arrivalNs != a.arrivalNs || c.key != a.key)) {
            anyDiffers = true;
        }
    }
    EXPECT_TRUE(anyDiffers);
}

TEST(Arrival, PoissonRateIsRight)
{
    ArrivalGen gen(poissonCfg(1e6), 11);
    ServiceRequest r;
    std::uint64_t n = 0, last = 0;
    while (gen.next(20'000'000, &r)) {
        EXPECT_GT(r.arrivalNs, last);
        last = r.arrivalNs;
        ++n;
    }
    // 1e6/s over 20 ms => ~20000; allow 10%.
    EXPECT_GT(n, 18000u);
    EXPECT_LT(n, 22000u);
    EXPECT_FALSE(gen.next(20'000'000, &r)) << "exhaustion is sticky";
}

TEST(Arrival, UpdateMixFollowsThePercentage)
{
    ArrivalConfig all = poissonCfg(1e6);
    all.updatePct = 100;
    ArrivalConfig none = poissonCfg(1e6);
    none.updatePct = 0;
    ArrivalGen ga(all, 3), gn(none, 3);
    ServiceRequest r;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(ga.next(10'000'000, &r));
        EXPECT_NE(int(r.op), int(OpKind::Contains));
        ASSERT_TRUE(gn.next(10'000'000, &r));
        EXPECT_EQ(int(r.op), int(OpKind::Contains));
    }
}

TEST(Arrival, ZipfSkewsTowardLowRanks)
{
    ZipfKeys keys(512, 1.1);
    Rng rng(99);
    std::vector<std::uint64_t> byRank(512, 0);
    for (int i = 0; i < 20000; ++i) {
        std::uint64_t k = keys.draw(rng);
        ASSERT_LT(k, 512u);
        ++byRank[keys.rankOf(k)];
    }
    // Rank 0 dominates; the tail is cold.
    std::uint64_t tail = 0;
    for (std::uint64_t r = 256; r < 512; ++r)
        tail = std::max(tail, byRank[r]);
    EXPECT_GT(byRank[0], 20000u / 10);
    EXPECT_GT(byRank[0], tail * 8);
    // The permutation spreads rank 0 away from key 0 (fixed seed, so
    // this is a stable property, not a probabilistic one).
    std::uint64_t hotKey = 0;
    for (std::uint64_t k = 0; k < 512; ++k) {
        if (keys.rankOf(k) == 0)
            hotKey = k;
    }
    EXPECT_NE(hotKey, 0u);
}

TEST(Arrival, ZipfZeroIsUniform)
{
    ZipfKeys keys(64, 0.0);
    Rng rng(5);
    std::vector<std::uint64_t> counts(64, 0);
    for (int i = 0; i < 64000; ++i)
        ++counts[keys.draw(rng)];
    auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_GT(*lo, 500u);   // E = 1000
    EXPECT_LT(*hi, 1500u);
}

TEST(Arrival, BurstPhaseGeometry)
{
    ArrivalConfig cfg;
    cfg.kind = ArrivalKind::OnOffBurst;
    cfg.ratePerSec = 2e5;
    cfg.burstRatePerSec = 2e6;
    cfg.offNs = 3'000'000;
    cfg.onNs = 1'000'000;
    ArrivalGen gen(cfg, 21);
    EXPECT_FALSE(gen.burstAt(0));
    EXPECT_FALSE(gen.burstAt(2'999'999));
    EXPECT_TRUE(gen.burstAt(3'000'000));
    EXPECT_TRUE(gen.burstAt(3'999'999));
    EXPECT_FALSE(gen.burstAt(4'000'000));
    std::vector<std::uint64_t> b = gen.phaseBoundaries(10'000'000);
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 3'000'000u);
    EXPECT_EQ(b[1], 4'000'000u);
    EXPECT_EQ(b[2], 7'000'000u);
    EXPECT_EQ(b[3], 8'000'000u);
    // Arrivals are ~10x denser inside the on phase.
    std::uint64_t off = 0, on = 0;
    ServiceRequest r;
    while (gen.next(8'000'000, &r))
        (gen.burstAt(r.arrivalNs) ? on : off) += 1;
    double offRate = double(off) / 6.0;  // 6 ms off in [0, 8) ms
    double onRate = double(on) / 2.0;    // 2 ms on
    EXPECT_GT(onRate, offRate * 5.0);
}

TEST(Arrival, PoissonHasNoPhaseBoundaries)
{
    ArrivalGen gen(poissonCfg(1e6), 1);
    EXPECT_TRUE(gen.phaseBoundaries(100'000'000).empty());
    EXPECT_FALSE(gen.burstAt(12345));
}

// ---- admission policies ----

TEST(Admission, DropTailOnlyDropsWhenFull)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::DropTail;
    cfg.queueCap = 4;
    AdmissionController c(cfg);
    EXPECT_EQ(int(c.decide(0, 0)), int(AdmissionDecision::Admit));
    EXPECT_EQ(int(c.decide(3, 1u << 30)), int(AdmissionDecision::Admit));
    EXPECT_EQ(int(c.decide(4, 0)), int(AdmissionDecision::DropFull));
}

TEST(Admission, BackpressureShedsOnDelayKeepingAProbe)
{
    AdmissionConfig cfg;
    cfg.policy = AdmissionPolicy::DelayBackpressure;
    cfg.queueCap = 64;
    cfg.sloP99Ns = 1000;
    AdmissionController c(cfg);
    // Within SLO: always admit, and the probe counter does not tick.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(int(c.decide(5, 1000)), int(AdmissionDecision::Admit));
    // Over SLO: 1 admit in kShedKeepOneIn.
    static_assert(kShedKeepOneIn == 4);
    int admits = 0, sheds = 0;
    for (int i = 0; i < 12; ++i) {
        AdmissionDecision d = c.decide(5, 1001);
        (d == AdmissionDecision::Admit ? admits : sheds) += 1;
    }
    EXPECT_EQ(admits, 3);
    EXPECT_EQ(sheds, 9);
    // Recovered p99 re-opens admission fully.
    EXPECT_EQ(int(c.decide(5, 900)), int(AdmissionDecision::Admit));
}

// ---- end-to-end service runs ----

ServiceConfig
baseServiceCfg()
{
    ServiceConfig cfg;
    cfg.workload.workload = WorkloadKind::HashTable;
    cfg.workload.initialSize = 128;
    cfg.workload.keyRange = 256;
    cfg.workload.seed = 1;
    cfg.workers = 4;
    cfg.arrival = poissonCfg(3e4, 256);
    cfg.durationNs = 10'000'000;
    cfg.windowNs = 1'000'000;
    cfg.baseServiceNs = 20'000;
    cfg.perAbortNs = 20'000;
    return cfg;
}

TEST(Service, NativeUnderloadCompletesEverything)
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.workers = 1;
    NativeRequestExecutor exec;
    ServiceResult r = runService(cfg, exec);
    EXPECT_GT(r.offered, 200u);
    EXPECT_EQ(r.admitted, r.offered);
    EXPECT_EQ(r.completed, r.offered);
    EXPECT_EQ(r.droppedFull, 0u);
    EXPECT_EQ(r.shedPolicy, 0u);
    EXPECT_TRUE(r.invariantOk);
    EXPECT_TRUE(r.gateQuiescent);
    EXPECT_GE(r.makespanNs, cfg.durationNs);
    EXPECT_GE(r.p50Ns, cfg.baseServiceNs);
    EXPECT_GE(r.p99Ns, r.p50Ns);
    EXPECT_GT(r.goodputPerSec, 0.0);
    EXPECT_EQ(r.latency.count(), r.completed);
    EXPECT_GE(r.windowCount, cfg.durationNs / cfg.windowNs);
    EXPECT_FALSE(r.depthSeries.empty());
    ASSERT_EQ(r.segments.size(), 1u);
    EXPECT_EQ(r.segments[0].offered, r.offered);
    EXPECT_EQ(r.segments[0].completed, r.completed);
}

TEST(Service, NativeRerunIsBitIdentical)
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.arrival.zipfS = 1.1;
    cfg.workers = 1;
    NativeRequestExecutor e1, e2;
    ServiceResult a = runService(cfg, e1);
    ServiceResult b = runService(cfg, e2);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.checksum, b.checksum);
    EXPECT_EQ(a.p99Ns, b.p99Ns);
}

TEST(Service, NativeOverloadShedsInsteadOfCollapsing)
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.workers = 1;
    cfg.arrival.ratePerSec = 2e5;  // ~4x the ~50k/s capacity
    cfg.admission.policy = AdmissionPolicy::DelayBackpressure;
    cfg.admission.queueCap = 64;
    // Below the ~1.3ms a full queue takes to drain, so the delay
    // signal, not the queue bound, has to do the shedding.
    cfg.admission.sloP99Ns = 800'000;
    NativeRequestExecutor exec;
    ServiceResult r = runService(cfg, exec);
    EXPECT_GT(r.shedPolicy + r.droppedFull, 0u);
    EXPECT_LT(r.completed, r.offered);
    EXPECT_GT(r.completed, 0u);
    EXPECT_LE(r.maxQueueDepth, cfg.admission.queueCap);
    EXPECT_GE(r.sloViolationWindows, 1u);
    EXPECT_TRUE(r.invariantOk);
    // The latency histogram only holds completed (served) requests,
    // so backpressure keeps its p99 far below the no-shedding bound
    // of queueCap * serviceNs.
    EXPECT_LT(r.p99Ns,
              cfg.admission.queueCap * cfg.baseServiceNs * 2);
}

TEST(Service, BurstSegmentsAlternateAndAccount)
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.arrival.kind = ArrivalKind::OnOffBurst;
    cfg.arrival.ratePerSec = 2e4;
    cfg.arrival.burstRatePerSec = 4e5;
    cfg.arrival.offNs = 4'000'000;
    cfg.arrival.onNs = 2'000'000;
    cfg.durationNs = 12'000'000;
    cfg.workers = 1;
    NativeRequestExecutor exec;
    ServiceResult r = runService(cfg, exec);
    // Boundaries at 4, 6, 10 ms -> 4 segments off/on/off/on.
    ASSERT_EQ(r.segments.size(), 4u);
    EXPECT_FALSE(r.segments[0].burst);
    EXPECT_TRUE(r.segments[1].burst);
    EXPECT_FALSE(r.segments[2].burst);
    EXPECT_TRUE(r.segments[3].burst);
    std::uint64_t offered = 0, completed = 0;
    for (const ServiceSegment &s : r.segments) {
        offered += s.offered;
        completed += s.completed;
        EXPECT_LE(s.startNs, s.endNs);
    }
    EXPECT_EQ(offered, r.offered);
    EXPECT_EQ(completed, r.completed);
    // The burst is ~20x the base rate.
    EXPECT_GT(r.segments[1].offered, r.segments[0].offered);
}

TEST(Service, ArrivalsDoNotDependOnTheBackend)
{
    // The arrival stream is a function of the config and seed alone:
    // a native and a simulated run of one burst config are offered
    // the same requests, phase by phase.
    ServiceConfig cfg = baseServiceCfg();
    cfg.arrival.kind = ArrivalKind::OnOffBurst;
    cfg.arrival.ratePerSec = 1e4;
    cfg.arrival.burstRatePerSec = 1e5;
    cfg.arrival.offNs = 2'000'000;
    cfg.arrival.onNs = 1'000'000;
    cfg.durationNs = 6'000'000;
    cfg.workers = 1;
    NativeRequestExecutor native;
    SimRequestExecutor sim(TmScheme::Stm, StmConfig{});
    ServiceResult a = runService(cfg, native);
    ServiceResult b = runService(cfg, sim);
    EXPECT_EQ(a.offered, b.offered);
    // Boundaries at 2, 3, 5 ms -> 4 segments off/on/off/on.
    ASSERT_EQ(a.segments.size(), 4u);
    ASSERT_EQ(b.segments.size(), a.segments.size());
    for (std::size_t i = 0; i < a.segments.size(); ++i) {
        EXPECT_GT(a.segments[i].offered, 0u) << i;
        EXPECT_EQ(a.segments[i].offered, b.segments[i].offered) << i;
    }
}

/** Sim overload: the admitted backlog queues up, so the executor
 *  runs batches of several requests on its worker fibers. */
ServiceConfig
simOverloadCfg()
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.arrival.ratePerSec = 6e5;
    cfg.durationNs = 1'500'000;
    cfg.workload.initialSize = 32;
    cfg.admission.queueCap = 16;
    return cfg;
}

TEST(Service, SimStmRunsAndRerunsBitIdentical)
{
    ServiceConfig under = baseServiceCfg();
    under.arrival.ratePerSec = 5e4;  // genuine underload
    under.durationNs = 2'000'000;
    under.workload.initialSize = 32;
    SimRequestExecutor e1(TmScheme::Stm, StmConfig{});
    ServiceResult a = runService(under, e1);
    EXPECT_GT(a.completed, 50u);
    EXPECT_EQ(a.completed, a.offered);
    EXPECT_TRUE(a.invariantOk);
    EXPECT_GE(a.tm.commits, a.completed);
    SimRequestExecutor e2(TmScheme::Stm, StmConfig{});
    ServiceResult b = runService(under, e2);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    // Overload: the backlog runs in multi-request batches on the
    // worker fibers, and the batches follow the event loop, so a
    // rerun is still bit-identical.
    ServiceConfig over = simOverloadCfg();
    SimRequestExecutor e3(TmScheme::Stm, StmConfig{});
    ServiceResult c = runService(over, e3);
    EXPECT_GT(c.maxQueueDepth, 1u);
    SimRequestExecutor e4(TmScheme::Stm, StmConfig{});
    ServiceResult d = runService(over, e4);
    EXPECT_EQ(c.fingerprint(), d.fingerprint());
}

TEST(Service, DepthSeriesStaysBounded)
{
    // 128 sample periods plus the t=0 sample, capped at 130: at 8191
    // ns the 63 ns period fits 131 samples, so the cap binds there.
    ServiceConfig cfg = baseServiceCfg();
    cfg.arrival.ratePerSec = 5e5;
    cfg.workload.initialSize = 32;
    for (std::uint64_t duration : {2'000'000ull, 8'191ull}) {
        cfg.durationNs = duration;
        SimRequestExecutor exec(TmScheme::Stm, StmConfig{});
        ServiceResult r = runService(cfg, exec);
        EXPECT_GE(r.depthSeries.size(), 128u) << duration;
        EXPECT_LE(r.depthSeries.size(), 130u) << duration;
    }
}

TEST(Service, SimPooledWorkersConflictForReal)
{
    // One overload config, two pool sizes. Four worker fibers run the
    // backlog side by side and conflict; one fiber runs every request
    // alone. So the aborts come from concurrency alone.
    ServiceConfig cfg = simOverloadCfg();
    SimRequestExecutor pooled(TmScheme::Stm, StmConfig{});
    ServiceResult r = runService(cfg, pooled);
    EXPECT_GT(r.tm.aborts, 0u);
    EXPECT_TRUE(r.invariantOk);
    cfg.workers = 1;
    SimRequestExecutor alone(TmScheme::Stm, StmConfig{});
    ServiceResult r1 = runService(cfg, alone);
    EXPECT_EQ(r1.tm.aborts, 0u);
    EXPECT_TRUE(r1.invariantOk);
}

TEST(Service, JsonSerializationIsWellFormed)
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.durationNs = 2'000'000;
    cfg.workers = 1;
    NativeRequestExecutor exec;
    ServiceResult r = runService(cfg, exec);
    Json jc = toJson(cfg);
    Json jr = toJson(r);
    EXPECT_NE(jc.find("arrival"), nullptr);
    EXPECT_NE(jc.find("admission"), nullptr);
    ASSERT_NE(jr.find("latency"), nullptr);
    EXPECT_NE(jr.find("latency")->find("p99"), nullptr);
    EXPECT_EQ(jr.find("completed")->asUint(), r.completed);
    EXPECT_EQ(jr.find("fingerprint")->asUint(), r.fingerprint());
    // Round-trips through the strict parser.
    std::string err;
    Json back = Json::parse(jr.str(), &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_FALSE(back.isNull());
}

// ---- serial-gate overload regression (satellite #3) ----

TEST(Service, NativeGateOverloadEscalatesAndRecovers)
{
    // Four pool workers on a hot spot: every request updates one of
    // two keys whose buckets share a cache line, so any two requests
    // running at once conflict for real. The "starve" fault profile
    // (schedule delays only, no forced aborts) keeps one victim per
    // window losing those races, and stretches the protocol windows
    // so the requests also overlap on a host with fewer cores than
    // workers.
    ServiceConfig cfg = baseServiceCfg();
    cfg.workload.initialSize = 2;
    cfg.workload.keyRange = 2;
    cfg.arrival.keyRange = 2;
    cfg.arrival.updatePct = 100;
    cfg.arrival.kind = ArrivalKind::OnOffBurst;
    cfg.arrival.ratePerSec = 1e3;      // calm: the queue stays empty,
                                       // so each request runs alone
    cfg.arrival.burstRatePerSec = 8e5; // burst: 4x capacity
    cfg.arrival.offNs = 8'000'000;
    cfg.arrival.onNs = 4'000'000;
    cfg.durationNs = 20'000'000;  // off [0,8), on [8,12), off [12,20]
    Watchdog watchdog;
    // Hair-trigger watchdog: the first lost race escalates. A second
    // consecutive loss is up to the host scheduler — a retry after
    // backoff usually runs alone on a loaded host — so a threshold
    // of 2 left some loaded runs with aborts but no escalation.
    watchdog.consecAborts = 1;
    NativeRequestExecutor exec{watchdog, /*sim_replay=*/true,
                               nativeFaultProfile("starve")};
    ServiceResult r = runService(cfg, exec);
    ASSERT_EQ(r.segments.size(), 3u);
    EXPECT_FALSE(r.segments[0].burst);
    EXPECT_TRUE(r.segments[1].burst);
    EXPECT_FALSE(r.segments[2].burst);
    // Sustained overload drove real serial-irrevocable entries
    // through the NativeGate...
    EXPECT_GT(r.segments[1].irrevocableEntries, 0u);
    EXPECT_GT(r.segments[1].aborts, 0u);
    // ...the calm pre-burst phase had none (one request in flight at
    // a time: no conflicts, no watchdog)...
    EXPECT_EQ(r.segments[0].irrevocableEntries, 0u);
    // ...and recovery drained them: far fewer than the burst, the
    // gate quiescent, state intact.
    EXPECT_LT(r.segments[2].irrevocableEntries,
              r.segments[1].irrevocableEntries);
    EXPECT_TRUE(r.gateQuiescent);
    EXPECT_TRUE(r.invariantOk);
    // Direct quiescence probe: a lone request after the run commits
    // first try, no aborts, no new gate entries.
    TmStats before = exec.totalStats();
    ServiceRequest probe;
    probe.op = OpKind::Contains;
    probe.key = 1;
    ExecOutcome o = exec.execute(probe);
    EXPECT_EQ(o.aborts, 0u);
    EXPECT_EQ(o.irrevocable, 0u);
    EXPECT_EQ(o.commits, 1u);
    TmStats after = exec.totalStats();
    EXPECT_EQ(after.irrevocableEntries, before.irrevocableEntries);
    EXPECT_TRUE(exec.poolOutcome().gateQuiescent);
}

ServiceConfig
simBurstCfg()
{
    ServiceConfig cfg = baseServiceCfg();
    cfg.workload.initialSize = 32;
    cfg.arrival.kind = ArrivalKind::OnOffBurst;
    cfg.arrival.ratePerSec = 1e3;
    cfg.arrival.burstRatePerSec = 6e5;
    cfg.arrival.offNs = 1'500'000;
    cfg.arrival.onNs = 1'000'000;
    cfg.durationNs = 4'000'000;  // off [0,1.5), on [1.5,2.5), off rest
    cfg.admission.queueCap = 16;
    return cfg;
}

TEST(Service, SimStmOverloadEscalatesIntoSerialAndRecovers)
{
    // A two-key hot spot: the burst's backlog runs on four worker
    // fibers whose requests genuinely conflict often enough to trip
    // the watchdog.
    ServiceConfig cfg = simBurstCfg();
    cfg.workload.keyRange = 2;
    cfg.arrival.keyRange = 2;
    StmConfig stm;
    stm.watchdog.consecAborts = 2;  // hair-trigger watchdog
    SimRequestExecutor exec(TmScheme::Stm, stm);
    ServiceResult r = runService(cfg, exec);
    ASSERT_EQ(r.segments.size(), 3u);
    EXPECT_TRUE(r.segments[1].burst);
    // The calm lead-in never overlaps requests: no conflicts, no
    // aborts, no escalations.
    EXPECT_EQ(r.segments[0].irrevocableEntries, 0u);
    // The burst drives real watchdog escalations into the simulated
    // serial-irrevocable gate; recovery ends with the structure
    // intact and far fewer escalations than the burst.
    EXPECT_GT(r.segments[1].aborts, 0u);
    EXPECT_GT(r.segments[1].irrevocableEntries, 0u);
    EXPECT_LT(r.segments[2].irrevocableEntries,
              r.segments[1].irrevocableEntries);
    EXPECT_TRUE(r.invariantOk);
}

TEST(Service, SimAdaptiveAndStmServeTheSameBurst)
{
    // The same open-system burst, same seed, same hair-trigger
    // watchdog, two runtimes, the backlog on four worker fibers. Both
    // are offered the identical stream and keep the structure intact;
    // the adaptive runtime rides the hardware rung, takes its genuine
    // conflicts there as HTM aborts, and demotes only sites that keep
    // failing. Which runtime completes more is measured, not asserted
    // (EXPERIMENTS.md, "Adaptive vs STM under genuine concurrency").
    ServiceConfig cfg = simBurstCfg();
    StmConfig stm;
    stm.watchdog.consecAborts = 2;
    SimRequestExecutor sw(TmScheme::Stm, stm);
    ServiceResult rs = runService(cfg, sw);
    SimRequestExecutor ad(TmScheme::Adaptive, stm);
    ServiceResult ra = runService(cfg, ad);
    ASSERT_EQ(ra.segments.size(), 3u);
    EXPECT_TRUE(rs.invariantOk);
    EXPECT_TRUE(ra.invariantOk);
    EXPECT_EQ(ra.offered, rs.offered);
    // The hardware rung really engaged: HTM conflicts were taken
    // there (the software run cannot have any), and the arbiter kept
    // the majority of dispatches on it through the burst.
    EXPECT_GT(ra.tm.htmAborts, 0u);
    EXPECT_EQ(rs.tm.htmAborts, 0u);
    std::uint64_t dispatched = 0;
    for (unsigned m = 0; m < kNumAdaptiveModes; ++m)
        dispatched += ra.tm.adaptiveDispatch[m];
    EXPECT_GT(ra.tm.adaptiveDispatch[unsigned(AdaptiveMode::Hytm)],
              dispatched / 2);
    // Per-segment serial tallies add up to the session total, and
    // the calm lead-in saw none of it.
    std::uint64_t serialTotal = 0;
    for (const ServiceSegment &s : ra.segments)
        serialTotal += s.serialDispatch;
    EXPECT_EQ(serialTotal,
              ra.tm.adaptiveDispatch[unsigned(AdaptiveMode::Serial)]);
    EXPECT_EQ(ra.segments[0].serialDispatch, 0u);
}

// ---- LatencyHistogram satellites (merge + boundary) ----

TEST(LatencyHist, MergeAcrossDisjointMajorBuckets)
{
    // a populates only the exact region and the 2^10 major bucket; b
    // only 2^6 and 2^20. The merged histogram must hold all four
    // populations with quantiles that thread through every one.
    LatencyHistogram a, b;
    for (int i = 0; i < 10; ++i)
        a.record(12);          // exact bucket 12
    for (int i = 0; i < 10; ++i)
        a.record(1024);        // major bucket 2^10, first sub-bucket
    for (int i = 0; i < 10; ++i)
        b.record(64);          // the first log-linear bucket
    for (int i = 0; i < 10; ++i)
        b.record(1 << 20);     // far major bucket
    a.merge(b);
    EXPECT_EQ(a.count(), 40u);
    EXPECT_EQ(a.min(), 12u);
    EXPECT_EQ(a.max(), std::uint64_t(1) << 20);
    EXPECT_EQ(a.sum(), 10u * (12 + 64 + 1024 + (1u << 20)));
    // Quantiles walk the merged buckets in value order: each quarter
    // lands in its own population (within sub-bucket rounding).
    EXPECT_EQ(a.quantile(0.25), 12u);
    EXPECT_EQ(a.quantile(0.50),
              LatencyHistogram::bucketHi(LatencyHistogram::bucketOf(64)));
    EXPECT_EQ(a.quantile(0.75),
              LatencyHistogram::bucketHi(LatencyHistogram::bucketOf(1024)));
    EXPECT_GE(a.quantile(1.0), std::uint64_t(1) << 20);
}

TEST(LatencyHist, ExactToLogLinearBoundary)
{
    // The contract at the seam: every value below kSubCount (64) has
    // a bucket to itself; 64 starts the first width-2 log-linear
    // sub-bucket.
    EXPECT_EQ(LatencyHistogram::bucketOf(63), 63u);
    EXPECT_EQ(LatencyHistogram::bucketLo(63), 63u);
    EXPECT_EQ(LatencyHistogram::bucketHi(63), 63u);
    unsigned seam = LatencyHistogram::bucketOf(64);
    EXPECT_EQ(seam, LatencyHistogram::kSubCount);
    EXPECT_EQ(LatencyHistogram::bucketLo(seam), 64u);
    EXPECT_EQ(LatencyHistogram::bucketHi(seam), 65u);
    EXPECT_EQ(LatencyHistogram::bucketOf(65), seam);
    EXPECT_EQ(LatencyHistogram::bucketOf(66), seam + 1);
    // Quantiles stay exact right up to the seam and take at most the
    // sub-bucket rounding just past it: 63 reports exactly, 64 may
    // report its bucket's inclusive hi (65).
    LatencyHistogram h;
    h.record(63);
    h.record(64);
    EXPECT_EQ(h.quantile(0.5), 63u);
    EXPECT_LE(h.quantile(1.0), 65u);
    EXPECT_GE(h.quantile(1.0), 64u);
}

// ---- the native worker pool (schema v10) ----

TEST(Service, PooledNativeRunValidatesWithoutFingerprint)
{
    // A 2-worker pool cell: measured outcomes depend on host
    // interleaving, so the run must declare itself fingerprint-exempt
    // and pass the validation that stands in for bit-identity —
    // replay oracle over the merged op log, sim-replay
    // cross-validation, native invariant sweep, and every accounting
    // identity.
    ServiceConfig cfg = baseServiceCfg();
    cfg.workers = 2;
    NativeRequestExecutor exec;
    ServiceResult r = runService(cfg, exec);
    EXPECT_GT(r.offered, 0u);
    EXPECT_EQ(r.offered, r.admitted + r.droppedFull + r.shedPolicy);
    EXPECT_EQ(r.completed, r.admitted);
    EXPECT_TRUE(r.invariantOk);
    EXPECT_TRUE(r.gateQuiescent);
    EXPECT_TRUE(r.fingerprintExempt);
    // Virtual occupancy: one slot per virtual worker, sums exact.
    ASSERT_EQ(r.workerBusyNs.size(), cfg.workers);
    std::uint64_t busy = 0, done = 0;
    for (std::uint64_t b : r.workerBusyNs)
        busy += b;
    for (std::uint64_t d : r.workerCompleted)
        done += d;
    EXPECT_EQ(busy, r.totalBusyNs);
    EXPECT_EQ(done, r.completed);
    // The pool validation block.
    ASSERT_TRUE(r.pool.enabled);
    EXPECT_EQ(r.pool.workers, 2u);
    EXPECT_TRUE(r.pool.oracleChecked);
    EXPECT_TRUE(r.pool.oracleOk) << r.pool.diag();
    EXPECT_TRUE(r.pool.simReplayChecked);
    EXPECT_TRUE(r.pool.simReplayOk) << r.pool.diag();
    EXPECT_TRUE(r.pool.nativeInvariantsOk) << r.pool.diag();
    ASSERT_EQ(r.pool.perWorker.size(), 2u);
    std::uint64_t executed = 0, commits = 0;
    for (const PoolWorkerStats &w : r.pool.perWorker) {
        executed += w.executed;
        commits += w.commits;
    }
    EXPECT_EQ(executed, r.admitted);
    // tm totals also count the end-of-run verification transactions
    // (checksum/size/invariant run on thread 0), so >=, not ==.
    EXPECT_GE(r.tm.commits, commits);
    // The merged log carries the populate inserts ahead of the
    // request ops (epoch 0 vs 1).
    EXPECT_GE(r.pool.opsRecorded, r.admitted);
    // The report serialization carries the exemption and the block.
    Json j = toJson(r);
    ASSERT_NE(j.find("fingerprintExempt"), nullptr);
    EXPECT_TRUE(j.find("fingerprintExempt")->asBool());
    ASSERT_NE(j.find("pool"), nullptr);
    ASSERT_NE(j.find("occupancy"), nullptr);
}

TEST(Service, SyncNativeRunKeepsTheBitIdentityContract)
{
    // The other determinism mode: a one-worker pool runs requests
    // FIFO in admission order, alone, so it must not be exempted —
    // and must fingerprint identically across runs, while still
    // passing the same validation as a multi-worker pool.
    ServiceConfig cfg = baseServiceCfg();
    cfg.workers = 1;
    NativeRequestExecutor e1, e2;
    ServiceResult a = runService(cfg, e1);
    EXPECT_FALSE(a.fingerprintExempt);
    ASSERT_TRUE(a.pool.enabled);
    EXPECT_EQ(a.pool.workers, 1u);
    EXPECT_TRUE(a.pool.oracleOk) << a.pool.diag();
    EXPECT_TRUE(a.pool.simReplayOk) << a.pool.diag();
    EXPECT_EQ(a.tm.aborts, 0u);
    ServiceResult b = runService(cfg, e2);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    Json j = toJson(a);
    ASSERT_NE(j.find("fingerprintExempt"), nullptr);
    EXPECT_FALSE(j.find("fingerprintExempt")->asBool());
    EXPECT_NE(j.find("pool"), nullptr);
}

TEST(Service, PooledExecutorInlinePathMatchesPopulateContract)
{
    // Before the DES starts submitting, the pool executor must serve
    // the calibration-style synchronous probe: execute() on a fresh
    // populate works and reports sane deltas.
    NativeRequestExecutor exec;
    ExecutorWorkload w;
    w.workload = WorkloadKind::HashTable;
    w.initialSize = 64;
    w.keyRange = 128;
    w.seed = 3;
    exec.populate(w, 2);
    ServiceRequest req;
    req.op = OpKind::Contains;
    req.key = 5;
    ExecOutcome o = exec.execute(req);
    EXPECT_GT(o.barriers, 0u);
    EXPECT_GT(exec.size(), 0u);
    EXPECT_TRUE(exec.invariant());
    EXPECT_TRUE(exec.poolOutcome().gateQuiescent);
}

} // namespace
} // namespace hastm
