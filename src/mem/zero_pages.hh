/**
 * @file
 * Anonymous zero-fill-on-demand host memory.
 *
 * Both substrates keep their whole address space in one flat host
 * buffer: the simulator's MemArena and the native backend's
 * NativeHeap. Each maps it with mapZeroPages(): every byte reads 0
 * until it is first written, and a page becomes resident only when
 * touched, so a buffer's size is an upper bound on its footprint
 * rather than a cost paid up front.
 */

#ifndef HASTM_MEM_ZERO_PAGES_HH
#define HASTM_MEM_ZERO_PAGES_HH

#include <cstddef>
#include <memory>

namespace hastm {

/** munmap()s a mapping made by mapZeroPages(). */
struct UnmapPages
{
    std::size_t bytes;
    void operator()(void *p) const;
};

/** An owned zero-fill-on-demand buffer viewed as an array of T. */
template <typename T>
using ZeroPages = std::unique_ptr<T[], UnmapPages>;

/** Map @p bytes of anonymous memory that reads 0; panics on failure. */
void *mapZeroPagesRaw(std::size_t bytes);

/**
 * Map @p bytes as an array of T. No constructor runs over the pages
 * (that would touch them all), so T's all-zero bytes must be a valid
 * value.
 */
template <typename T>
ZeroPages<T>
mapZeroPages(std::size_t bytes)
{
    return ZeroPages<T>(static_cast<T *>(mapZeroPagesRaw(bytes)),
                        UnmapPages{bytes});
}

} // namespace hastm

#endif // HASTM_MEM_ZERO_PAGES_HH
