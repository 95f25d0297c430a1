#include "mem/cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace hastm {

Cache::Cache(std::string name, const CacheParams &params)
    : name_(std::move(name)), params_(params)
{
    HASTM_ASSERT(params_.lineSize > 0 &&
                 (params_.lineSize & (params_.lineSize - 1)) == 0);
    HASTM_ASSERT(params_.subBlock > 0 &&
                 params_.lineSize % params_.subBlock == 0);
    HASTM_ASSERT(params_.subBlocksPerLine() <= 8);
    HASTM_ASSERT(params_.numSets() > 0);
    HASTM_ASSERT((params_.numSets() & (params_.numSets() - 1)) == 0);
    HASTM_ASSERT(params_.assoc <= 255);  // mruWay_ holds a way index
    lineShift_ = static_cast<unsigned>(std::countr_zero(params_.lineSize));
    setMask_ = params_.numSets() - 1;
    lines_.resize(static_cast<std::size_t>(params_.numSets()) *
                  params_.assoc);
    mruWay_.resize(params_.numSets(), 0);
}

CacheLine *
Cache::findLine(Addr a)
{
    Addr la = lineAddr(a);
    std::uint32_t si = setIndex(a);
    CacheLine *set = &lines_[std::size_t(si) * params_.assoc];
    // MRU way hint: repeat hits to the hot line of a set skip the
    // associativity scan (host-side only; no simulated effect).
    CacheLine &hinted = set[mruWay_[si]];
    if (hinted.valid() && hinted.tag == la)
        return &hinted;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (set[w].valid() && set[w].tag == la) {
            mruWay_[si] = static_cast<std::uint8_t>(w);
            return &set[w];
        }
    }
    return nullptr;
}

const CacheLine *
Cache::findLine(Addr a) const
{
    return const_cast<Cache *>(this)->findLine(a);
}

CacheLine *
Cache::victimFor(Addr a)
{
    CacheLine *set = &lines_[std::size_t(setIndex(a)) * params_.assoc];
    CacheLine *victim = &set[0];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        if (!set[w].valid())
            return &set[w];
        if (set[w].lruStamp < victim->lruStamp)
            victim = &set[w];
    }
    return victim;
}

void
Cache::fill(CacheLine &frame, Addr a, MesiState state)
{
    HASTM_ASSERT(state != MesiState::Invalid);
    if (!frame.valid())
        ++validCount_;
    frame.tag = lineAddr(a);
    frame.state = state;
    frame.clearMeta();
    touch(frame);
    std::uint32_t si = setIndex(a);
    mruWay_[si] = static_cast<std::uint8_t>(
        frameOf(frame) - std::size_t(si) * params_.assoc);
}

void
Cache::invalidate(CacheLine &line)
{
    if (!line.valid())
        return;
    --validCount_;
    line.state = MesiState::Invalid;
    line.clearMeta();
}

std::uint8_t
Cache::subBlockMask(Addr addr, unsigned len) const
{
    Addr la = lineAddr(addr);
    unsigned first = static_cast<unsigned>((addr - la) / params_.subBlock);
    Addr last_byte = addr + (len ? len : 1) - 1;
    HASTM_ASSERT(lineAddr(last_byte) == la);
    unsigned last = static_cast<unsigned>((last_byte - la) /
                                          params_.subBlock);
    std::uint8_t mask = 0;
    for (unsigned i = first; i <= last; ++i)
        mask |= static_cast<std::uint8_t>(1u << i);
    return mask;
}

} // namespace hastm
