#include "mem/alloc.hh"

#include <cstring>

#include "mem/arena.hh"
#include "sim/logging.hh"

namespace hastm {

SimAllocator::SimAllocator(MemArena &arena, Addr base, std::size_t length)
    : arena_(arena), base_(base)
{
    HASTM_ASSERT(base >= 64);
    HASTM_ASSERT(base + length <= arena.size());
    freeBlocks_.emplace(base, length);
}

Addr
SimAllocator::alloc(std::size_t size, std::size_t align)
{
    HASTM_ASSERT(size > 0);
    HASTM_ASSERT((align & (align - 1)) == 0);
    for (auto it = freeBlocks_.begin(); it != freeBlocks_.end(); ++it) {
        Addr start = it->first;
        std::size_t len = it->second;
        Addr aligned = (start + align - 1) & ~(Addr(align) - 1);
        std::size_t pad = aligned - start;
        if (pad + size > len)
            continue;
        // Split: [start,aligned) stays free, [aligned,aligned+size) is
        // allocated, the tail returns to the free list.
        std::size_t tail = len - pad - size;
        freeBlocks_.erase(it);
        if (pad > 0)
            insertFree(start, pad);
        if (tail > 0)
            insertFree(aligned + size, tail);
        sizes_.emplace(aligned, size);
        allocated_ += size;
        return aligned;
    }
    panic("simulated heap exhausted: request %zu bytes, %zu allocated",
          size, allocated_);
}

Addr
SimAllocator::allocZeroed(std::size_t size, std::size_t align)
{
    Addr a = alloc(size, align);
    std::memset(arena_.hostPtr(a, size), 0, size);
    return a;
}

void
SimAllocator::free(Addr addr)
{
    auto it = sizes_.find(addr);
    if (it == sizes_.end()) {
        if (lenientFree_)
            return;
        panic("free of unallocated simulated address %#llx",
              static_cast<unsigned long long>(addr));
    }
    std::size_t size = it->second;
    sizes_.erase(it);
    allocated_ -= size;
    insertFree(addr, size);
}

void
SimAllocator::insertFree(Addr addr, std::size_t len)
{
    auto [it, ok] = freeBlocks_.emplace(addr, len);
    HASTM_ASSERT(ok);
    // Coalesce with successor.
    auto next = std::next(it);
    if (next != freeBlocks_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        freeBlocks_.erase(next);
    }
    // Coalesce with predecessor.
    if (it != freeBlocks_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            freeBlocks_.erase(it);
        }
    }
}

} // namespace hastm
