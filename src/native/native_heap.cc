#include "native/native_heap.hh"

#include <type_traits>

#include "sim/logging.hh"

namespace hastm {

namespace {

// Address 0 stays the null address and the first line is never
// handed out, matching the simulated arena's convention.
constexpr Addr kHeapBase = 64;

// The mapping's zero pages are used as atomic words holding 0
// without a constructor running over them (which would touch every
// page): that needs an atomic with exactly a plain word's
// representation.
using Word = std::atomic<std::uint64_t>;
static_assert(sizeof(Word) == 8 && alignof(Word) == 8);
static_assert(Word::is_always_lock_free);
static_assert(std::is_trivially_destructible_v<Word>);

} // namespace

NativeHeap::NativeHeap(std::size_t bytes)
    : bytes_((bytes + 7) & ~std::size_t(7)),
      words_(mapZeroPages<Word>(bytes_))
{
    HASTM_ASSERT(bytes_ > kHeapBase);
    freeBlocks_.emplace(kHeapBase, bytes_ - kHeapBase);
}

Addr
NativeHeap::alloc(std::size_t size, std::size_t align)
{
    HASTM_ASSERT(size > 0 && align > 0 && (align & (align - 1)) == 0);
    size = (size + 7) & ~std::size_t(7);
    std::lock_guard<std::mutex> lk(allocMu_);
    for (auto it = freeBlocks_.begin(); it != freeBlocks_.end(); ++it) {
        Addr start = it->first;
        std::size_t len = it->second;
        Addr aligned = (start + align - 1) & ~(Addr(align) - 1);
        std::size_t pad = aligned - start;
        if (len < pad + size)
            continue;
        freeBlocks_.erase(it);
        if (pad > 0)
            insertFree(start, pad);
        if (len > pad + size)
            insertFree(aligned + size, len - pad - size);
        sizes_.emplace(aligned, size);
        allocated_ += size;
        return aligned;
    }
    panic("native heap exhausted: request %zu bytes, %zu allocated",
          size, allocated_);
}

Addr
NativeHeap::allocZeroed(std::size_t size, std::size_t align)
{
    Addr a = alloc(size, align);
    for (Addr p = a; p < a + ((size + 7) & ~std::size_t(7)); p += 8)
        storeWord(p, 0);
    return a;
}

void
NativeHeap::free(Addr addr)
{
    std::lock_guard<std::mutex> lk(allocMu_);
    auto it = sizes_.find(addr);
    if (it == sizes_.end())
        panic("native free of unallocated address %#llx",
              static_cast<unsigned long long>(addr));
    std::size_t size = it->second;
    sizes_.erase(it);
    allocated_ -= size;
    insertFree(addr, size);
}

std::size_t
NativeHeap::allocatedBytes() const
{
    std::lock_guard<std::mutex> lk(allocMu_);
    return allocated_;
}

void
NativeHeap::insertFree(Addr addr, std::size_t len)
{
    auto [it, ok] = freeBlocks_.emplace(addr, len);
    HASTM_ASSERT(ok);
    auto next = std::next(it);
    if (next != freeBlocks_.end() && it->first + it->second == next->first) {
        it->second += next->second;
        freeBlocks_.erase(next);
    }
    if (it != freeBlocks_.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second == it->first) {
            prev->second += it->second;
            freeBlocks_.erase(it);
        }
    }
}

} // namespace hastm
