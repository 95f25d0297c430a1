/**
 * @file
 * Stackful fibers used to run simulated software threads.
 *
 * The simulator is single-host-threaded; each simulated thread runs on
 * its own fiber and yields around memory accesses, straight into the
 * next thread's fiber. The context switch is a hand-rolled x86-64
 * register save/restore (see fiber_switch.S). BM_FiberSwitch in
 * bench/micro_primitives times a round trip of two switches at about
 * 32 ns on a 4-core Intel Xeon VM.
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

    void *sp_ = nullptr;
    std::unique_ptr<std::uint8_t[]> stack_;
    std::size_t stackSize_ = 0;
    std::function<void()> fn_;
};

} // namespace hastm

#endif // HASTM_SIM_FIBER_HH
