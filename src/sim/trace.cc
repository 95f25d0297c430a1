#include "sim/trace.hh"

#include <fstream>

#include "sim/logging.hh"
#include "sim/scheduler.hh"

namespace hastm {

void
TraceSink::sync()
{
    if (sched_ && sched_->inThread())
        sched_->sync();
}

bool
TraceSink::flush()
{
    if (path_.empty())
        return true;
    std::ofstream os(path_);
    if (!os) {
        warn("trace: cannot open '%s' for writing", path_.c_str());
        return false;
    }
    Json doc = Json::object();
    Json arr = Json::array();
    for (const Json &e : events_)
        arr.push(e);
    doc.set("traceEvents", std::move(arr));
    doc.set("displayTimeUnit", "ns");
    doc.dump(os, -1);
    os << '\n';
    return bool(os);
}

} // namespace hastm
