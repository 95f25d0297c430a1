#include "gc/collector.hh"

#include <cstring>

#include "cpu/machine.hh"
#include "sim/logging.hh"
#include "stm/stm.hh"

namespace hastm {

Addr
Collector::forward(Addr obj)
{
    auto fwd = forwarding_.find(obj);
    if (fwd != forwarding_.end())
        return fwd->second;
    auto it = heap_.objects_.find(obj);
    HASTM_ASSERT(it != heap_.objects_.end());
    std::size_t bytes = it->second;

    Addr to = toBump_;
    toBump_ += bytes;
    MemArena &arena = heap_.machine().arena();
    std::memcpy(arena.hostPtr(to, bytes), arena.hostPtr(obj, bytes),
                bytes);
    forwarding_.emplace(obj, to);
    newObjects_.emplace(to, bytes);
    scanQueue_.push_back(to);
    return to;
}

Addr
Collector::translate(Addr a) const
{
    Addr obj = heap_.objectContaining(a);
    if (obj == kNullAddr)
        return a;
    // const_cast-free: translate() is only called through the mutable
    // wrapper below during a collection.
    auto fwd = forwarding_.find(obj);
    HASTM_ASSERT(fwd != forwarding_.end());
    return fwd->second + (a - obj);
}

GcResult
Collector::collect(Core &gc_core)
{
    Machine &machine = heap_.machine();
    machine.sched().stopTheWorld();

    forwarding_.clear();
    newObjects_.clear();
    scanQueue_.clear();
    Addr to_base = heap_.fromBase_ == heap_.spaceA_ ? heap_.spaceB_
                                                    : heap_.spaceA_;
    toBump_ = to_base;
    const std::size_t live_before = heap_.objects_.size();

    MemArena &arena = machine.arena();

    // Tracing translate: copies the containing object on first touch,
    // so anything reachable only from transactional metadata survives.
    auto trace = [&](Addr a) -> Addr {
        Addr obj = heap_.objectContaining(a);
        if (obj == kNullAddr)
            return a;
        return forward(obj) + (a - obj);
    };

    // 1. Application roots.
    for (Addr *slot : roots_) {
        if (*slot != kNullAddr)
            *slot = trace(*slot);
    }

    // 2. Suspended transactions: trace + rewrite their metadata. The
    // collector never touches the transaction records' *contents*
    // (versions / owner pointers move with the objects untouched), so
    // the transactions resume without aborting (§5).
    for (StmThread *t : threads_)
        t->gcFixup(trace);

    // 3. Cheney scan: fix pointer fields of everything copied,
    // copying referents on demand.
    while (!scanQueue_.empty()) {
        Addr obj = scanQueue_.back();
        scanQueue_.pop_back();
        std::uint64_t meta = arena.read<std::uint64_t>(obj + kGcMetaOff);
        auto fix = [&](unsigned slot) {
            Addr field = obj + kObjHeaderBytes + 8ull * slot;
            std::uint64_t v = arena.read<std::uint64_t>(field);
            if (v != kNullAddr)
                arena.write<std::uint64_t>(field, trace(v));
        };
        if (objmeta::allPtrs(meta)) {
            unsigned slots =
                static_cast<unsigned>(objmeta::size(meta) / 8);
            for (unsigned slot = 0; slot < slots; ++slot)
                fix(slot);
        } else {
            std::uint32_t mask = objmeta::ptrMask(meta);
            for (unsigned slot = 0; mask != 0; ++slot, mask >>= 1) {
                if (mask & 1)
                    fix(slot);
            }
        }
    }

    // 4. Flip the semispaces.
    GcResult result;
    result.objectsCopied = newObjects_.size();
    result.bytesCopied = toBump_ - to_base;
    result.objectsReclaimed = live_before - newObjects_.size();
    heap_.fromBase_ = to_base;
    heap_.fromEnd_ = to_base + heap_.halfBytes_;
    heap_.bump_ = toBump_;
    heap_.objects_ = std::move(newObjects_);
    newObjects_.clear();

    // 5. Charge the pause on the collecting core and account the
    // cache damage: every thread's marks are gone (the copying traffic
    // and the ring transitions would have flushed them), so resumed
    // transactions do one full software validation instead of
    // aborting.
    {
        Core::PhaseScope scope(gc_core, Phase::Gc);
        gc_core.stall(result.bytesCopied / 2 + result.objectsCopied * 16 +
                      500);
    }
    MemSystem &mem = machine.mem();
    for (CoreId c = 0; c < machine.numCores(); ++c) {
        for (SmtId s = 0; s < mem.params().numSmt; ++s) {
            for (unsigned f = 0; f < kNumFilters; ++f) {
                mem.resetMarkAll(c, s, f);
                machine.core(c).marksDiscarded(s, f, 1);
            }
        }
    }

    machine.sched().resumeTheWorld();
    return result;
}

} // namespace hastm
