#include "mem/zero_pages.hh"

#include <sys/mman.h>

#include "sim/logging.hh"

namespace hastm {

void
UnmapPages::operator()(void *p) const
{
    munmap(p, bytes);
}

void *
mapZeroPagesRaw(std::size_t bytes)
{
    int flags = MAP_PRIVATE | MAP_ANONYMOUS;
#ifdef MAP_NORESERVE
    flags |= MAP_NORESERVE;  // the size is an upper bound, not a need
#endif
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, flags, -1, 0);
    if (p == MAP_FAILED)
        panic("cannot map %zu bytes of zero pages", bytes);
    return p;
}

} // namespace hastm
