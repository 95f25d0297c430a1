#include "gc/heap.hh"

#include "cpu/machine.hh"
#include "sim/logging.hh"
#include "stm/tm_iface.hh"
#include "stm/tx_record.hh"

namespace hastm {

ManagedHeap::ManagedHeap(Machine &machine, std::size_t half_bytes)
    : machine_(machine), halfBytes_(half_bytes)
{
    spaceA_ = machine.heap().alloc(half_bytes, 64);
    spaceB_ = machine.heap().alloc(half_bytes, 64);
    fromBase_ = spaceA_;
    fromEnd_ = spaceA_ + half_bytes;
    bump_ = fromBase_;
    // The semispaces partition the managed address range; register
    // them so a sharded record table keys word-granularity metadata
    // by space (object granularity embeds records and ignores this).
    machine.arena().defineRegion(spaceA_, half_bytes);
    machine.arena().defineRegion(spaceB_, half_bytes);
}

ManagedHeap::~ManagedHeap()
{
    machine_.arena().undefineRegion(spaceA_);
    machine_.arena().undefineRegion(spaceB_);
    machine_.heap().free(spaceA_);
    machine_.heap().free(spaceB_);
}

Addr
ManagedHeap::alloc(Core &core, std::size_t field_bytes,
                   std::uint32_t ptr_mask)
{
    std::size_t total = kObjHeaderBytes + ((field_bytes + 15) & ~15ull);
    core.sync();  // every core bumps the one pointer
    if (bump_ + total > fromEnd_)
        return kNullAddr;
    Addr obj = bump_;
    bump_ += total;
    objects_.emplace(obj, total);
    core.execInstr(12);  // bump-allocation fast path
    core.store<std::uint64_t>(obj + kTxRecOff, txrec::kInitialVersion);
    core.store<std::uint64_t>(obj + kGcMetaOff,
                              objmeta::make(field_bytes, ptr_mask));
    for (Addr a = obj + kObjHeaderBytes; a < obj + total; a += 8)
        core.store<std::uint64_t>(a, 0);
    return obj;
}

Addr
ManagedHeap::objectContaining(Addr a) const
{
    auto it = objects_.upper_bound(a);
    if (it == objects_.begin())
        return kNullAddr;
    --it;
    if (a >= it->first && a < it->first + it->second)
        return it->first;
    return kNullAddr;
}

std::size_t
ManagedHeap::objectBytes(Addr obj) const
{
    auto it = objects_.find(obj);
    HASTM_ASSERT(it != objects_.end());
    return it->second;
}

} // namespace hastm
