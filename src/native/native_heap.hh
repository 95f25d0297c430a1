/**
 * @file
 * Host-memory heap for the native TM backend.
 *
 * The simulated runtime addresses everything through the 64-bit
 * simulated address space; the native backend keeps the same Addr
 * currency (so TxLog, the record geometry, and the workloads are
 * shared verbatim) but resolves addresses into one big host buffer of
 * std::atomic words. Every 8-byte slot is an atomic, which makes the
 * backend TSan-clean by construction: transactional data races are
 * mediated by the record protocol, and the raw accesses themselves
 * are relaxed atomics, never plain loads/stores. The buffer is an
 * anonymous zero-fill-on-demand mapping (mem/zero_pages.hh, shared
 * with the simulated arena): a word reads 0 until first stored, and a
 * page costs resident memory only once touched, so a session's
 * capacity is virtual until its workload uses it.
 *
 * The allocator is the same first-fit-with-coalescing discipline as
 * mem/alloc.cc, guarded by a host mutex. It stays off the
 * transactional fast path: objects at populate time, log chunks on
 * overflow, and blocks a NativeThread's size bins cannot serve.
 */

#ifndef HASTM_NATIVE_NATIVE_HEAP_HH
#define HASTM_NATIVE_NATIVE_HEAP_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>

#include "mem/zero_pages.hh"
#include "sim/types.hh"
#include "stm/tx_log.hh"

namespace hastm {

/** Word-atomic host heap; also the native TxLog substrate. */
class NativeHeap : public LogMem
{
  public:
    /** Manage @p bytes of host memory (rounded up to 8 bytes). */
    explicit NativeHeap(std::size_t bytes);

    NativeHeap(const NativeHeap &) = delete;
    NativeHeap &operator=(const NativeHeap &) = delete;

    // ---- word access (Addr is a byte offset, 8-byte aligned) ----

    std::uint64_t
    loadWord(Addr a, std::memory_order mo = std::memory_order_relaxed) const
    {
        return word(a).load(mo);
    }

    void
    storeWord(Addr a, std::uint64_t v,
              std::memory_order mo = std::memory_order_relaxed)
    {
        word(a).store(v, mo);
    }

    // ---- allocation ----

    /** Allocate @p size bytes aligned to @p align; panics when full. */
    Addr alloc(std::size_t size, std::size_t align = 16);

    /** Allocate and zero-fill. */
    Addr allocZeroed(std::size_t size, std::size_t align = 16);

    /** Return a block obtained from alloc(). */
    void free(Addr addr);

    std::size_t allocatedBytes() const;
    std::size_t capacityBytes() const { return bytes_; }

    // ---- LogMem (TxLog substrate; charges are no-ops) ----

    std::uint64_t load(Addr a) override { return loadWord(a); }
    void store(Addr a, std::uint64_t v) override { storeWord(a, v); }
    std::uint64_t readRaw(Addr a) override { return loadWord(a); }
    void writeRaw(Addr a, std::uint64_t v) override { storeWord(a, v); }
    Addr allocChunk(std::size_t bytes) override { return alloc(bytes, bytes); }
    void freeChunk(Addr a) override { free(a); }
    void charge(unsigned) override {}
    void chargeIlp(unsigned) override {}

  private:
    /** The atomic slot backing address @p a. */
    std::atomic<std::uint64_t> &
    word(Addr a) const
    {
        return words_[a >> 3];
    }

    void insertFree(Addr addr, std::size_t len);

    std::size_t bytes_;
    ZeroPages<std::atomic<std::uint64_t>> words_;

    mutable std::mutex allocMu_;
    std::map<Addr, std::size_t> freeBlocks_;
    std::map<Addr, std::size_t> sizes_;
    std::size_t allocated_ = 0;
};

} // namespace hastm

#endif // HASTM_NATIVE_NATIVE_HEAP_HH
