#include "mem/arena.hh"

namespace hastm {

MemArena::MemArena(std::size_t bytes)
    : size_(bytes), data_(mapZeroPages<std::uint8_t>(bytes))
{
    HASTM_ASSERT(bytes >= 4096);
}

void
MemArena::defineRegion(Addr base, std::size_t bytes)
{
    checkRange(base, bytes);
    for (const MemRegion &r : regions_) {
        if (r.base == base && r.bytes == bytes)
            return;
    }
    regions_.push_back({base, bytes});
    // Notify in subscription order; the caller runs on the simulated
    // program's host thread, so this is deterministic program order.
    for (auto &[token, fn] : listeners_)
        fn(regions_.back());
}

void
MemArena::undefineRegion(Addr base)
{
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
        if (it->base == base) {
            regions_.erase(it);
            return;
        }
    }
}

std::size_t
MemArena::addRegionListener(RegionListener fn)
{
    listeners_.emplace_back(nextListener_, std::move(fn));
    return nextListener_++;
}

void
MemArena::removeRegionListener(std::size_t token)
{
    for (auto it = listeners_.begin(); it != listeners_.end(); ++it) {
        if (it->first == token) {
            listeners_.erase(it);
            return;
        }
    }
}

} // namespace hastm
