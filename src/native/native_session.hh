/**
 * @file
 * A native TM session: shared runtime plus one NativeThread per host
 * thread, with a run() that actually spawns std::threads. The shape
 * mirrors workloads/tm_api.hh's TmSession so harness code can treat
 * the two substrates uniformly through TmBackend.
 */

#ifndef HASTM_NATIVE_NATIVE_SESSION_HH
#define HASTM_NATIVE_NATIVE_SESSION_HH

#include <functional>
#include <memory>
#include <vector>

#include "native/native_stm.hh"

namespace hastm {

struct NativeSessionConfig
{
    unsigned numThreads = 1;
    /** Starvation bounds before a thread escalates into
     *  serial-irrevocable mode. */
    Watchdog watchdog;
    std::size_t heapBytes = 64ull << 20;
    /** Deterministic fault injection (torture harness; off by
     *  default). Per-thread streams are sized from numThreads. */
    NativeFaultParams fault;
};

class NativeSession
{
  public:
    explicit NativeSession(const NativeSessionConfig &cfg);

    NativeSession(const NativeSession &) = delete;
    NativeSession &operator=(const NativeSession &) = delete;

    unsigned numThreads() const { return unsigned(threads_.size()); }
    NativeThread &thread(unsigned i) { return *threads_[i]; }
    NativeRuntime &runtime() { return rt_; }

    /**
     * Run one body per thread concurrently (body i on thread i, bound
     * to this session's NativeThread i); returns when all joined.
     * With a single body the call runs inline on the calling thread —
     * setup/teardown phases need no spawn.
     */
    void run(const std::vector<std::function<void(TmExec &)>> &bodies);

    TmStats totalStats() const;
    void resetStats();

  private:
    NativeRuntime rt_;
    std::vector<std::unique_ptr<NativeThread>> threads_;
};

} // namespace hastm

#endif // HASTM_NATIVE_NATIVE_SESSION_HH
