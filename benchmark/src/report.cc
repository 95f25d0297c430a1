#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.hh"

namespace bench {

namespace {

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

const char *const kOpKindNames[kNumOpKinds] = {"contains", "insert",
                                               "remove"};

void
Mix::merge(const Mix &o)
{
    for (unsigned i = 0; i < kNumOpKinds; ++i) {
        ops[i] += o.ops[i];
        hits[i] += o.hits[i];
    }
}

void
emitMix(Report &rep, const Mix &m)
{
    double n = double(m.total());
    for (unsigned k = 0; k < kNumOpKinds; ++k) {
        rep.add(std::string("workloads.ops.") + kOpKindNames[k],
                ratio(double(m.ops[k]), n), "ratio");
    }
    rep.add("workloads.hit_ratio",
            ratio(double(m.hits[0] + m.hits[1] + m.hits[2]), n), "ratio");
}

// ---- Samples ----

void
Samples::append(const Samples &o)
{
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    seen_ += o.seen_;
    sorted_ = false;
}

double
Samples::us(double q)
{
    if (v_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(v_.begin(), v_.end());
        sorted_ = true;
    }
    std::size_t rank = std::size_t(std::ceil(q * double(v_.size())));
    rank = std::clamp<std::size_t>(rank, 1, v_.size());
    return double(v_[rank - 1]) / 1e3;
}

std::string
Samples::tailNote()
{
    std::string note = "n=" + std::to_string(v_.size());
    // p99.9, p99.99, ...: keep the last one with >= 10 samples above.
    double miss = 1e-3;
    std::string best;
    while (double(v_.size()) * miss >= 10.0) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), " p%.*f=%.3fus",
                      int(std::lround(-std::log10(miss))) - 2,
                      100.0 * (1.0 - miss), us(1.0 - miss));
        best = buf;
        miss /= 10.0;
    }
    return note + best;
}

// ---- Windowed ----

Windowed::Windowed(std::uint64_t origin_ns, std::uint64_t span_ns,
                   std::uint64_t width_ns, std::size_t cap,
                   std::uint64_t seed)
    : origin_(origin_ns)
{
    std::uint64_t n = std::max<std::uint64_t>(1, span_ns / width_ns);
    width_ = std::max<std::uint64_t>(1, span_ns / n);
    for (std::uint64_t i = 0; i < n; ++i)
        w_.emplace_back(cap, seed * 1000003 + i);
}

void
Windowed::append(const Windowed &o)
{
    for (std::size_t i = 0; i < w_.size() && i < o.w_.size(); ++i)
        w_[i].append(o.w_[i]);
}

double
Windowed::rate() const
{
    std::vector<double> r;
    for (const Samples &s : w_)
        r.push_back(double(s.seen()) * 1e9 / double(width_));
    return median(r);
}

double
Windowed::us(double q)
{
    std::vector<double> v;
    for (Samples &s : w_) {
        if (s.count())
            v.push_back(s.us(q));
    }
    return v.empty() ? 0.0 : median(v);
}

std::string
Windowed::note()
{
    Samples all;
    for (const Samples &s : w_)
        all.append(s);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "median of %zu windows of %.3f s; ",
                  w_.size(), double(width_) / 1e9);
    return buf + all.tailNote() + " pooled";
}

// ---- Report ----

void
Report::check(bool ok, const std::string &what)
{
    std::cout << "check " << (ok ? "ok   " : "FAIL ") << what << "\n";
    if (!ok) {
        failures_.push_back(what);
        if (failed == 0)
            failed = 1;
    }
}

void
Report::print() const
{
    for (const std::string &l : info_)
        std::cout << l << "\n";
    for (const Metric &m : metrics_) {
        std::cout << "metric " << m.name << " = " << num(m.value) << " "
                  << m.unit;
        if (!m.note.empty())
            std::cout << "  (" << m.note << ")";
        std::cout << "\n";
    }
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::cout << (i ? ", " : "") << "\"" << m.name
                  << "\": {\"value\": " << num(m.value)
                  << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

void
emitE2e(Report &rep, const E2e &e, const std::string &note,
        const std::vector<double> &setups)
{
    char range[64];
    std::snprintf(range, sizeof(range), "; min %.4f s, max %.4f s",
                  *std::min_element(setups.begin(), setups.end()),
                  *std::max_element(setups.begin(), setups.end()));
    rep.add("setup_s", median(setups), "s",
            "median of " + std::to_string(setups.size()) + range);
    rep.add("rss_mb", peakRssMb(), "MB");
    rep.add("ops_per_s", e.opsPerS, "1/s");
    char tail[64];
    std::snprintf(tail, sizeof(tail), "; ungated p90=%.3fus p99=%.3fus",
                  e.p90Us, e.p99Us);
    rep.add("p50_us", e.p50Us, "us", note + tail);
}

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace bench
