/**
 * @file
 * The traced run's instrumentation, all of it outside the library:
 * TimedExec is a TmExec decorator (shaped like service/executor.hh's
 * RivalryExec) that the traced run wraps around each NativeThread.
 * It times the calls a data-structure operation makes through it —
 * atomic() and each attempt's body, the read/write barriers, and
 * txAlloc/txFree — into per-layer sums, and records full spans for a
 * bounded sample of requests, keyed by request id:
 *
 *   svc.request -> svc.queue / svc.exec -> tm.op -> tm.attempt
 *                                          -> tm.read / tm.write / tm.alloc
 *
 * Everything a TimedExec does not time (begin, commit, rollback,
 * backoff, serial-gate waits) is the op's time minus its attempts'
 * body time: the "driver" share of each attempt.
 */

#ifndef HASTM_BENCHMARK_TIMED_EXEC_HH
#define HASTM_BENCHMARK_TIMED_EXEC_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hh"
#include "stm/tm_iface.hh"

namespace bench {

/** Per-layer time sums over every op a TimedExec ran. */
struct LayerSums
{
    std::uint64_t ops = 0, opNs = 0;
    std::uint64_t attempts = 0, bodyNs = 0, wastedBodyNs = 0;
    std::uint64_t reads = 0, readNs = 0;
    std::uint64_t writes = 0, writeNs = 0;
    std::uint64_t allocs = 0, allocNs = 0;  //!< txAlloc + txFree
    std::array<std::uint64_t, kNumOpKinds> kindOps{}, kindNs{};

    void merge(const LayerSums &o);
};

/** One completed span; async spans (svc.request/svc.queue) overlap
 *  freely, so they go to their own track in the trace file. */
struct Span
{
    const char *name;
    std::uint64_t startNs, endNs;
    std::uint64_t req;
};

/** Fixed-capacity span buffer of one thread (never reallocates). */
class SpanLog
{
  public:
    explicit SpanLog(std::size_t cap) : cap_(cap) { spans_.reserve(cap); }

    void
    add(const char *name, std::uint64_t s, std::uint64_t e,
        std::uint64_t req)
    {
        if (spans_.size() < cap_)
            spans_.push_back({name, s, e, req});
        else
            ++dropped_;
    }

    const std::vector<Span> &spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::size_t cap_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

class TimedExec : public hastm::TmExec
{
  public:
    TimedExec(hastm::TmExec &inner, SpanLog &spans)
        : inner_(inner), spans_(spans)
    {
    }

    /** Tag the ops that follow with request id @p req; spans are
     *  recorded only while @p sampled. */
    void
    beginRequest(std::uint64_t req, bool sampled)
    {
        req_ = req;
        sampled_ = sampled;
    }

    const LayerSums &sums() const { return sums_; }

    bool atomic(const std::function<void()> &fn) override;

    bool
    atomicOrElse(const std::function<void()> &first,
                 const std::function<void()> &second) override
    {
        return inner_.atomicOrElse(first, second);
    }

    std::uint64_t readWord(hastm::Addr a) override;
    void writeWord(hastm::Addr a, std::uint64_t v, bool is_ptr) override;
    std::uint64_t readField(hastm::Addr obj, unsigned off) override;
    void writeField(hastm::Addr obj, unsigned off, std::uint64_t v,
                    bool is_ptr) override;
    hastm::Addr txAlloc(std::size_t field_bytes,
                        std::uint32_t ptr_mask) override;
    void txFree(hastm::Addr obj) override;

    void validateNow() override { inner_.validateNow(); }
    bool inTx() const override { return inner_.inTx(); }
    void simInstr(unsigned n) override { inner_.simInstr(n); }
    void simInstrIlp(unsigned n) override { inner_.simInstrIlp(n); }
    const hastm::TmStats &stats() const override { return inner_.stats(); }
    void resetStats() override { inner_.resetStats(); }
    void setSite(std::uint32_t site) override { inner_.setSite(site); }
    std::uint32_t site() const override { return inner_.site(); }
    bool inIrrevocable() const override { return inner_.inIrrevocable(); }

  protected:
    // Never reached: atomic() delegates the retry loop to the inner
    // thread, so the base driver that calls these never runs here.
    void begin() override { unreachable("begin"); }
    bool commit() override { unreachable("commit"); }
    void rollback() override { unreachable("rollback"); }
    void onConflict(unsigned) override { unreachable("onConflict"); }
    void waitForChange(unsigned) override { unreachable("waitForChange"); }

  private:
    /** Closes one timed interval on scope exit — also when the timed
     *  call leaves by a conflict-abort exception. */
    struct Interval
    {
        TimedExec &x;
        const char *name;
        std::uint64_t &count, &ns;
        std::uint64_t t0;

        ~Interval()
        {
            std::uint64_t t1 = nowNs();
            ++count;
            ns += t1 - t0;
            if (x.sampled_)
                x.spans_.add(name, t0, t1, x.req_);
        }
    };

    [[noreturn]] static void unreachable(const char *hook);

    hastm::TmExec &inner_;
    SpanLog &spans_;
    LayerSums sums_;
    std::uint64_t req_ = 0;
    bool sampled_ = false;
};

/**
 * Write @p threads' spans (one track each, named by @p names) plus
 * the overlapping @p async request spans as Chrome trace_event JSON
 * (loads in Perfetto), timestamps relative to @p origin_ns.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &threads,
                      const std::vector<std::string> &names,
                      const SpanLog *async, std::uint64_t origin_ns);

} // namespace bench

#endif // HASTM_BENCHMARK_TIMED_EXEC_HH
