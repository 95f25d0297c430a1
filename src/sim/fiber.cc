#include "sim/fiber.hh"

#include <cxxabi.h>

#include <cstdint>
#include <cstring>

#include "sim/logging.hh"

#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {
void hastm_fiber_switch(void **save_sp, void **load_sp);
void hastm_fiber_boot();
}

namespace hastm {

namespace {
/**
 * This host thread's __cxa_eh_globals, looked up once per thread. The
 * cache is constant-initialised, so a switch pays one TLS load rather
 * than a call into the C++ runtime.
 */
void *
ehGlobals()
{
    thread_local void *globals = nullptr;
    if (__builtin_expect(globals == nullptr, 0))
        globals = abi::__cxa_get_globals();
    return globals;
}

#ifdef __SANITIZE_ADDRESS__
// The fiber this host thread last left; the fiber that resumes next
// records that stack's bounds in it.
thread_local Fiber *switchedFrom = nullptr;
#endif
} // namespace

Fiber::Fiber() = default;

Fiber::Fiber(std::function<void()> fn, std::size_t stack_size)
    : stackSize_(stack_size), fn_(std::move(fn))
{
    HASTM_ASSERT(stackSize_ >= 4096);
    stack_ = std::make_unique<std::uint8_t[]>(stackSize_);
#ifdef __SANITIZE_ADDRESS__
    asanBottom_ = stack_.get();
    asanSize_ = stackSize_;
#endif
    makeInitialStack();
}

void
Fiber::bootstrap(void *self)
{
    auto *fiber = static_cast<Fiber *>(self);
    fiber->endSwitch(true);
    fiber->fn_();
    panic("fiber entry function returned; fibers must switch away");
}

void
Fiber::makeInitialStack()
{
    // Build the frame hastm_fiber_switch expects to pop on first entry.
    // Layout (ascending addresses from the saved stack pointer):
    //   r15 r14 r13 r12(=this) rbx(=&bootstrap) rbp ret(=fiber_boot) 0
    // After the six pops and the ret, %rsp ends 8 mod 16, matching the
    // SysV alignment a function sees immediately after a call.
    auto top = reinterpret_cast<std::uintptr_t>(stack_.get()) + stackSize_;
    top &= ~std::uintptr_t(15);

    auto *frame = reinterpret_cast<std::uint64_t *>(top) - 8;
    frame[0] = 0;                                            // r15
    frame[1] = 0;                                            // r14
    frame[2] = 0;                                            // r13
    frame[3] = reinterpret_cast<std::uint64_t>(this);        // r12
    frame[4] = reinterpret_cast<std::uint64_t>(&bootstrap);  // rbx
    frame[5] = 0;                                            // rbp
    frame[6] = reinterpret_cast<std::uint64_t>(&hastm_fiber_boot);
    frame[7] = 0;                    // sentinel return address
    sp_ = frame;
}

#ifdef __SANITIZE_ADDRESS__
void
Fiber::beginSwitch(Fiber &next)
{
    switchedFrom = this;
    __sanitizer_start_switch_fiber(&asanFakeStack_, next.asanBottom_,
                                   next.asanSize_);
}

void
Fiber::endSwitch(bool firstEntry)
{
    __sanitizer_finish_switch_fiber(firstEntry ? nullptr : asanFakeStack_,
                                    &switchedFrom->asanBottom_,
                                    &switchedFrom->asanSize_);
}
#else
void Fiber::beginSwitch(Fiber &) {}
void Fiber::endSwitch(bool) {}
#endif

void
Fiber::switchTo(Fiber &next)
{
    HASTM_ASSERT(this != &next);
    void *eh = ehGlobals();
    std::memcpy(&eh_, eh, sizeof(EhState));
    std::memcpy(eh, &next.eh_, sizeof(EhState));
    beginSwitch(next);
    hastm_fiber_switch(&sp_, &next.sp_);
    endSwitch(false);
}

} // namespace hastm
