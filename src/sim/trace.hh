/**
 * @file
 * Transaction event tracing in Chrome trace_event format.
 *
 * A TraceSink collects timestamped events (transaction begin /
 * commit / abort spans, validation and contention instants) keyed by
 * core id and writes a JSON document loadable in about://tracing or
 * https://ui.perfetto.dev. Simulated cycles are reported as the
 * microsecond timestamps — the viewer's time axis then reads directly
 * in cycles. Collection is host-side only and charges no simulated
 * cost; the sink is created only when StmConfig::tracePath is set, so
 * the default configuration has zero overhead beyond a null check.
 * Every core appends to one event list, so an event from inside a
 * simulated thread syncs its core first: the file lists events in the
 * (cycle, core) order the cores reach them.
 */

#ifndef HASTM_SIM_TRACE_HH
#define HASTM_SIM_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/types.hh"

namespace hastm {

class Scheduler;

/** One in-memory trace; written to disk when flushed or destroyed. */
class TraceSink
{
  public:
    /** @p sched: the scheduler of the simulated threads that emit. */
    explicit TraceSink(std::string path, Scheduler *sched = nullptr)
        : path_(std::move(path)), sched_(sched) {}

    ~TraceSink() { flush(); }
    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    /** A span ("X") event: [ts, ts+dur) on track @p tid. */
    void
    complete(unsigned tid, Cycles ts, Cycles dur, const char *name,
             Json args = Json())
    {
        sync();
        events_.push_back(make(tid, ts, "X", name, std::move(args))
                              .set("dur", std::uint64_t(dur)));
    }

    /** An instantaneous ("i") event on track @p tid. */
    void
    instant(unsigned tid, Cycles ts, const char *name, Json args = Json())
    {
        sync();
        events_.push_back(make(tid, ts, "i", name, std::move(args))
                              .set("s", "t"));
    }

    std::size_t eventCount() const { return events_.size(); }

    /**
     * Write the accumulated events to the configured path (overwrites)
     * and keep collecting; returns false on I/O failure.
     */
    bool flush();

    const std::string &path() const { return path_; }

  private:
    /** Order an emitting simulated thread among the other cores. */
    void sync();

    static Json
    make(unsigned tid, Cycles ts, const char *ph, const char *name,
         Json args)
    {
        Json e = Json::object();
        e.set("name", name)
            .set("ph", ph)
            .set("ts", std::uint64_t(ts))
            .set("pid", 0)
            .set("tid", tid);
        if (!args.isNull())
            e.set("args", std::move(args));
        return e;
    }

    std::string path_;
    Scheduler *sched_;
    std::vector<Json> events_;
};

} // namespace hastm

#endif // HASTM_SIM_TRACE_HH
