/**
 * @file
 * Implementation of the six mark-bit ISA instructions (§3).
 *
 * Both the full hardware implementation and the paper's §3.3 default
 * implementation are provided; Core::setFullMarkIsa() selects. Under
 * the default implementation marking never happens and loadsetmark /
 * resetmarkall increment the mark counter, which is exactly the legal
 * execution where every marked line is immediately evicted — software
 * stays correct but sees no acceleration.
 */

#include "cpu/core.hh"

#include <algorithm>

namespace hastm {

namespace {

constexpr std::uint64_t kMarkCounterMax = 0xffff;

void
bumpSaturating(std::uint64_t &ctr, unsigned n)
{
    ctr = std::min<std::uint64_t>(kMarkCounterMax, ctr + n);
}

} // namespace

template <typename T>
T
Core::loadSetMark(Addr a, unsigned gran, unsigned filter)
{
    if (gran == 0)
        gran = sizeof(T);
    AccessResult r = dataAccess(a, sizeof(T), false);
    T v = mem_.arena().read<T>(a);
    countAccess(r, false);
    noteInstr(1);
    Cycles extra = 0;
    if (fullMarkIsa_) {
        mem_.setMarks(id_, smt_, a, gran, filter);
        // loadsetmark consumes a store-queue entry in addition to the
        // load port (§7).
        extra = storeQueuePush();
    } else {
        bumpSaturating(markCounter_[smt_][filter], 1);
    }
    advance(memLatency(r.latency) + extra);
    return v;
}

template <typename T>
T
Core::loadResetMark(Addr a, unsigned gran, unsigned filter)
{
    if (gran == 0)
        gran = sizeof(T);
    AccessResult r = dataAccess(a, sizeof(T), false);
    T v = mem_.arena().read<T>(a);
    countAccess(r, false);
    noteInstr(1);
    if (fullMarkIsa_)
        mem_.resetMarks(id_, smt_, a, gran, filter);
    advance(memLatency(r.latency));
    return v;
}

template <typename T>
T
Core::loadTestMark(Addr a, bool &marked, unsigned gran, unsigned filter)
{
    if (gran == 0)
        gran = sizeof(T);
    AccessResult r = dataAccess(a, sizeof(T), false);
    T v = mem_.arena().read<T>(a);
    countAccess(r, false);
    noteInstr(1);
    // Test after the access: on a hit the bits are untouched; on a
    // miss the fresh fill has all bits clear, so the result is false
    // either way — matching "set since last access and never
    // invalidated in between".
    marked = fullMarkIsa_ && mem_.testMarks(id_, smt_, a, gran, filter);
    advance(memLatency(r.latency));
    return v;
}

template <typename T>
T
Core::loadSetMarkLine(Addr a, unsigned filter)
{
    const unsigned line = mem_.params().l1.lineSize;
    Addr la = a & ~static_cast<Addr>(line - 1);
    AccessResult r = dataAccess(a, sizeof(T), false);
    T v = mem_.arena().read<T>(a);
    countAccess(r, false);
    noteInstr(1);
    Cycles extra = 0;
    if (fullMarkIsa_) {
        mem_.setMarks(id_, smt_, la, line, filter);
        extra = storeQueuePush();
    } else {
        bumpSaturating(markCounter_[smt_][filter], 1);
    }
    advance(memLatency(r.latency) + extra);
    return v;
}

template <typename T>
T
Core::loadTestMarkLine(Addr a, bool &marked, unsigned filter)
{
    const unsigned line = mem_.params().l1.lineSize;
    Addr la = a & ~static_cast<Addr>(line - 1);
    AccessResult r = dataAccess(a, sizeof(T), false);
    T v = mem_.arena().read<T>(a);
    countAccess(r, false);
    noteInstr(1);
    marked = fullMarkIsa_ && mem_.testMarks(id_, smt_, la, line, filter);
    advance(memLatency(r.latency));
    return v;
}

void
Core::resetMarkAll(unsigned filter)
{
    // Other cores' snoops discard marks and bump the counter.
    sync();
    noteInstr(1);
    if (fullMarkIsa_)
        mem_.resetMarkAll(id_, smt_, filter);
    bumpSaturating(markCounter_[smt_][filter], 1);
    advance(4);
}

void
Core::resetMarkCounter(unsigned filter)
{
    sync();
    noteInstr(1);
    markCounter_[smt_][filter] = 0;
    advance(1);
}

std::uint64_t
Core::readMarkCounter(unsigned filter)
{
    noteInstr(1);
    advance(1);
    sync();
    return markCounter_[smt_][filter];
}

// Explicit instantiations for the data-type variants the ISA defines
// (8/16/32/64-bit integers, single and double precision FP).
#define HASTM_INSTANTIATE_MARK_OPS(T)                                   \
    template T Core::loadSetMark<T>(Addr, unsigned, unsigned);          \
    template T Core::loadResetMark<T>(Addr, unsigned, unsigned);        \
    template T Core::loadTestMark<T>(Addr, bool &, unsigned, unsigned); \
    template T Core::loadSetMarkLine<T>(Addr, unsigned);                \
    template T Core::loadTestMarkLine<T>(Addr, bool &, unsigned);

HASTM_INSTANTIATE_MARK_OPS(std::uint8_t)
HASTM_INSTANTIATE_MARK_OPS(std::uint16_t)
HASTM_INSTANTIATE_MARK_OPS(std::uint32_t)
HASTM_INSTANTIATE_MARK_OPS(std::uint64_t)
HASTM_INSTANTIATE_MARK_OPS(std::int32_t)
HASTM_INSTANTIATE_MARK_OPS(std::int64_t)
HASTM_INSTANTIATE_MARK_OPS(float)
HASTM_INSTANTIATE_MARK_OPS(double)

#undef HASTM_INSTANTIATE_MARK_OPS

} // namespace hastm
