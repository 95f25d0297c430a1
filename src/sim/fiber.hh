/**
 * @file
 * Stackful fibers used to run simulated software threads.
 *
 * The simulator is single-host-threaded; each simulated thread runs on
 * its own fiber and yields around memory accesses, straight into the
 * next thread's fiber. The context switch is a hand-rolled x86-64
 * register save/restore (see fiber_switch.S) plus a swap of the host
 * thread's C++ exception state. BM_FiberSwitch in
 * bench/micro_primitives times a round trip of two switches at about
 * 35 ns on a 4-core Intel Xeon VM.
 */

#ifndef HASTM_SIM_FIBER_HH
#define HASTM_SIM_FIBER_HH

#include <cstddef>
#include <functional>
#include <memory>

namespace hastm {

/**
 * A single execution context. A default-constructed Fiber adopts the
 * calling host context (used for the scheduler's "main" fiber); a
 * Fiber constructed with a function gets its own stack and begins
 * executing the function on the first switchTo() into it.
 */
class Fiber
{
  public:
    /** Adopt the current host context (no private stack). */
    Fiber();

    /**
     * Create a suspended fiber that will run @p fn when first entered.
     * @param fn Entry function; must never return (the creator must
     *           arrange a final switch away, e.g. Scheduler::threadExit).
     * @param stack_size Private stack size in bytes.
     */
    explicit Fiber(std::function<void()> fn,
                   std::size_t stack_size = 512 * 1024);

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;
    ~Fiber() = default;

    /** Suspend this (currently running) fiber and resume @p next. */
    void switchTo(Fiber &next);

  private:
    static void bootstrap(void *self);
    void makeInitialStack();

    /**
     * Tell AddressSanitizer about a stack switch: beginSwitch() just
     * before leaving this fiber for @p next, endSwitch() on arriving
     * back in it (@p firstEntry on its first run). A host context's
     * stack bounds are learned on its first switch out. Both are
     * no-ops in builds without ASan.
     */
    void beginSwitch(Fiber &next);
    void endSwitch(bool firstEntry);

    /**
     * The host thread's C++ exception state while this fiber is
     * switched out: the Itanium C++ ABI's __cxa_eh_globals (stack of
     * caught exceptions, count of uncaught ones). It is per host
     * thread, so without the swap a fiber that switches inside a
     * catch handler would end another fiber's handler and free its
     * exception.
     */
    struct EhState
    {
        void *caught = nullptr;
        unsigned int uncaught = 0;
    };

    void *sp_ = nullptr;
    EhState eh_;
    std::unique_ptr<std::uint8_t[]> stack_;
    std::size_t stackSize_ = 0;
    std::function<void()> fn_;
#ifdef __SANITIZE_ADDRESS__
    const void *asanBottom_ = nullptr;
    std::size_t asanSize_ = 0;
    void *asanFakeStack_ = nullptr;
#endif
};

} // namespace hastm

#endif // HASTM_SIM_FIBER_HH
