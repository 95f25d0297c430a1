/**
 * @file
 * Shared pieces of the repo benchmark program: the host clock, exact
 * order statistics over latency samples, the metric report every
 * workload fills, and the workload entry points.
 *
 * Every number is taken from outside the library: the benchmark times
 * its own calls into public functions (WorkerPool::submit and the
 * pool's ExecFn, DsOps calls on TmExec, NativeBackend::totalStats,
 * the simulator's runDataStructure). Nothing inside src/ is
 * instrumented.
 */

#ifndef HASTM_BENCHMARK_BENCH_HH
#define HASTM_BENCHMARK_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/oracle.hh"
#include "sim/rng.hh"

namespace bench {

inline std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One benchmark process's command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;       //!< per-layer run (--trace 1)
    std::string traceDir;     //!< where the traced run writes its files
    bool smoke = false;       //!< ~1 s sanity run; never for numbers
};

/**
 * Latency samples in nanoseconds with exact order statistics. With a
 * cap, add() keeps a uniform random sample of the whole stream
 * (reservoir sampling), so a closed loop running millions of calls
 * holds bounded memory.
 */
class Samples
{
  public:
    explicit Samples(std::size_t cap = 0, std::uint64_t seed = 1)
        : cap_(cap), rng_(seed)
    {
    }

    void
    add(std::uint64_t ns)
    {
        ++seen_;
        if (cap_ == 0 || v_.size() < cap_) {
            v_.push_back(ns);
        } else {
            std::uint64_t j = rng_.range(seen_);
            if (j < cap_)
                v_[j] = ns;
        }
        sorted_ = false;
    }

    void append(const Samples &o);

    /** Samples held (after reservoir thinning). */
    std::size_t count() const { return v_.size(); }

    /** Samples offered to add(), thinned or not. */
    std::uint64_t seen() const { return seen_; }

    /** Nearest-rank quantile @p q in [0, 1], in microseconds. */
    double us(double q);

    /**
     * "n=<count> p99.9=<v>us": the sample count and the highest of
     * p99.9, p99.99, ... that still has at least ten samples beyond it
     * (only the count when even p99.9 has fewer).
     */
    std::string tailNote();

  private:
    std::vector<std::uint64_t> v_;
    std::size_t cap_;
    std::uint64_t seen_ = 0;
    hastm::Rng rng_;
    bool sorted_ = true;
};

/**
 * Completions and their latencies, split into equal windows of host
 * time. Interference on a shared host arrives in bursts of a second
 * or two; the median over windows of a per-window statistic steps
 * over them, where a statistic of the whole run would absorb them.
 */
class Windowed
{
  public:
    /**
     * Windows of about @p width_ns covering [origin, origin + span);
     * at least one. @p cap bounds the samples kept per window.
     */
    Windowed(std::uint64_t origin_ns, std::uint64_t span_ns,
             std::uint64_t width_ns, std::size_t cap = 0,
             std::uint64_t seed = 1);

    /** A completion at @p at_ns (dropped outside the windows). */
    void
    add(std::uint64_t at_ns, std::uint64_t lat_ns)
    {
        if (at_ns < origin_)
            return;
        std::uint64_t w = (at_ns - origin_) / width_;
        if (w < w_.size())
            w_[w].add(lat_ns);
    }

    /** Merge @p o, which must have the same windows. */
    void append(const Windowed &o);

    /** Median over windows of completions per second. */
    double rate() const;

    /** Median over windows of the window's @p q quantile, in us. */
    double us(double q);

    /** Window count plus the pooled sample count and tail. */
    std::string note();

  private:
    std::uint64_t origin_, width_;
    std::vector<Samples> w_;
};

/** One measured metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note;  //!< sample count / tail percentile, when any
};

/**
 * What one workload process measured and checked. The last line of
 * print() is the JSON object benchmark/run.py relays.
 */
class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    /** A correctness gate: a failed check fails the run. */
    void check(bool ok, const std::string &what);

    /** Extra result line (fingerprints, validity gauges). */
    void info(const std::string &line) { info_.push_back(line); }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    bool correct() const { return failures_.empty(); }

    void print() const;

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
    std::vector<std::string> failures_;
    std::vector<std::string> info_;
};

/** Data-structure op kinds, in DsOps order (contains/insert/remove). */
constexpr unsigned kNumOpKinds = 3;
extern const char *const kOpKindNames[kNumOpKinds];

/** Op counts and true results, by kind. */
struct Mix
{
    std::array<std::uint64_t, kNumOpKinds> ops{}, hits{};

    void
    note(hastm::OpKind k, bool res)
    {
        unsigned i = k == hastm::OpKind::Contains ? 0
                     : k == hastm::OpKind::Insert ? 1
                                                  : 2;
        ++ops[i];
        hits[i] += res;
    }

    void merge(const Mix &o);

    std::uint64_t total() const { return ops[0] + ops[1] + ops[2]; }

    /** Net element change: successful inserts minus removes. */
    std::int64_t
    sizeDelta() const
    {
        return std::int64_t(hits[1]) - std::int64_t(hits[2]);
    }
};

/** workloads.ops.<kind> shares and workloads.hit_ratio. */
void emitMix(Report &rep, const Mix &m);

/** a / b, or 0 when b is 0 (a layer the run never exercised). */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

/** The end-to-end numbers one measured run produced. */
struct E2e
{
    double opsPerS = 0.0, p50Us = 0.0, p90Us = 0.0, p99Us = 0.0;
};

/**
 * Every end-to-end metric: @p e's rate and median latency, peak RSS,
 * and the median of the run's set-up repetitions @p setups; @p note
 * describes the samples. The p90 and p99 are printed but not gated:
 * their run-to-run spread on a shared host is too wide for a bound
 * (they are the per-layer tail.p90_us and tail.p99_us).
 */
void emitE2e(Report &rep, const E2e &e, const std::string &note,
             const std::vector<double> &setups);

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** Median of @p v (v non-empty). */
double median(std::vector<double> v);

// ---- workloads (one per process) ----

void runServeKv(const Options &opt, Report &rep);
void runClosedShort(const Options &opt, Report &rep);
void runClosedHot(const Options &opt, Report &rep);
void runSimBst(const Options &opt, Report &rep);

} // namespace bench

#endif // HASTM_BENCHMARK_BENCH_HH
