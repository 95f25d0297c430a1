#include "timed_exec.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace bench {

using hastm::Addr;

namespace {

/** DsOps kind of the transaction site an op tagged, or -1. */
int
kindOfSite(std::uint32_t site)
{
    switch (site) {
      case hastm::txsite::kDsContains: return 0;
      case hastm::txsite::kDsInsert:   return 1;
      case hastm::txsite::kDsRemove:   return 2;
      default:                         return -1;
    }
}

} // namespace

void
LayerSums::merge(const LayerSums &o)
{
    ops += o.ops;
    opNs += o.opNs;
    attempts += o.attempts;
    bodyNs += o.bodyNs;
    wastedBodyNs += o.wastedBodyNs;
    reads += o.reads;
    readNs += o.readNs;
    writes += o.writes;
    writeNs += o.writeNs;
    allocs += o.allocs;
    allocNs += o.allocNs;
    for (unsigned k = 0; k < kNumOpKinds; ++k) {
        kindOps[k] += o.kindOps[k];
        kindNs[k] += o.kindNs[k];
    }
}

bool
TimedExec::atomic(const std::function<void()> &fn)
{
    // A nested block is part of the enclosing attempt's body.
    if (inner_.inTx())
        return inner_.atomic(fn);
    int kind = kindOfSite(inner_.site());
    std::uint64_t body0 = sums_.bodyNs, last = 0;
    std::uint64_t t0 = nowNs();
    bool ok = inner_.atomic([&] {
        // Destroyed after `attempt` has added this attempt's time, on
        // the normal and the abort-exception path alike.
        struct Last
        {
            std::uint64_t &last;
            const std::uint64_t &body;
            std::uint64_t from;
            ~Last() { last = body - from; }
        } mark{last, sums_.bodyNs, sums_.bodyNs};
        Interval attempt{*this, "tm.attempt", sums_.attempts, sums_.bodyNs,
                         nowNs()};
        fn();
    });
    std::uint64_t t1 = nowNs();
    // Every attempt but the last was re-executed: its body was wasted.
    sums_.wastedBodyNs += sums_.bodyNs - body0 - last;
    ++sums_.ops;
    sums_.opNs += t1 - t0;
    if (kind >= 0) {
        ++sums_.kindOps[kind];
        sums_.kindNs[kind] += t1 - t0;
    }
    if (sampled_)
        spans_.add("tm.op", t0, t1, req_);
    return ok;
}

std::uint64_t
TimedExec::readWord(Addr a)
{
    Interval iv{*this, "tm.read", sums_.reads, sums_.readNs, nowNs()};
    return inner_.readWord(a);
}

void
TimedExec::writeWord(Addr a, std::uint64_t v, bool is_ptr)
{
    Interval iv{*this, "tm.write", sums_.writes, sums_.writeNs, nowNs()};
    inner_.writeWord(a, v, is_ptr);
}

std::uint64_t
TimedExec::readField(Addr obj, unsigned off)
{
    Interval iv{*this, "tm.read", sums_.reads, sums_.readNs, nowNs()};
    return inner_.readField(obj, off);
}

void
TimedExec::writeField(Addr obj, unsigned off, std::uint64_t v, bool is_ptr)
{
    Interval iv{*this, "tm.write", sums_.writes, sums_.writeNs, nowNs()};
    inner_.writeField(obj, off, v, is_ptr);
}

Addr
TimedExec::txAlloc(std::size_t field_bytes, std::uint32_t ptr_mask)
{
    Interval iv{*this, "tm.alloc", sums_.allocs, sums_.allocNs, nowNs()};
    return inner_.txAlloc(field_bytes, ptr_mask);
}

void
TimedExec::txFree(Addr obj)
{
    Interval iv{*this, "tm.alloc", sums_.allocs, sums_.allocNs, nowNs()};
    inner_.txFree(obj);
}

void
TimedExec::unreachable(const char *hook)
{
    std::fprintf(stderr, "TimedExec::%s: decorator scheme hooks must "
                         "never run\n", hook);
    std::abort();
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &threads,
                 const std::vector<std::string> &names,
                 const SpanLog *async, std::uint64_t origin_ns)
{
    std::ofstream os(path);
    if (!os)
        return false;
    auto usOf = [](double ns) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", ns / 1e3);
        return std::string(buf);
    };
    auto us = [&](std::uint64_t ns) {
        return usOf(double(std::int64_t(ns - origin_ns)));
    };
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };
    for (std::size_t t = 0; t < threads.size(); ++t) {
        sep();
        os << "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
              "\"tid\": " << t + 1 << ", \"args\": {\"name\": \""
           << names[t] << "\"}}";
        for (const Span &s : threads[t]->spans()) {
            sep();
            os << "{\"ph\": \"X\", \"name\": \"" << s.name
               << "\", \"pid\": 1, \"tid\": " << t + 1
               << ", \"ts\": " << us(s.startNs)
               << ", \"dur\": " << usOf(double(s.endNs - s.startNs))
               << ", \"args\": {\"req\": " << s.req << "}}";
        }
    }
    if (async) {
        for (const Span &s : async->spans()) {
            for (const char *ph : {"b", "e"}) {
                sep();
                os << "{\"ph\": \"" << ph << "\", \"cat\": \"svc\", "
                   << "\"name\": \"" << s.name << "\", \"id\": " << s.req
                   << ", \"pid\": 1, \"tid\": 0, \"ts\": "
                   << us(*ph == 'b' ? s.startNs : s.endNs)
                   << ", \"args\": {\"req\": " << s.req << "}}";
            }
        }
    }
    os << "\n]}\n";
    return bool(os);
}

} // namespace bench
