#include "native/native_fault.hh"

#include <chrono>
#include <thread>

#include "sim/logging.hh"

namespace hastm {

namespace {

constexpr unsigned kYieldMax = 4;   //!< Yield draws 1..kYieldMax yields
constexpr unsigned kSpinMax = 512;  //!< SpinDelay draws 1..kSpinMax spins

/**
 * Where each kind may fire. Delay kinds are safe everywhere — they
 * only stretch the window. GateStall is confined to gate transitions
 * (that is the window it exists to widen, and it must stay clear of
 * hooks reached while *holding* acquired records, where a long sleep
 * would stall every rival on those records past any useful bound).
 * The abort kinds are confined to points where throwing
 * TxConflictAbort is safe: inside a transaction body, before any
 * commit ticket is claimed, never mid-rollback or mid-gate-transition
 * (ExtensionFail is further confined to the one path whose failure it
 * forges). PostAcquire is abortable — rollback releases owned
 * records — and is exactly the window where a kill leaves the most
 * state to unwind.
 */
constexpr std::uint32_t
pointBit(NativeFaultPoint p)
{
    return 1u << unsigned(p);
}

constexpr std::uint32_t kAllPoints = (1u << kNumNativeFaultPoints) - 1;

constexpr std::uint32_t kAbortablePoints =
    pointBit(NativeFaultPoint::Tl2ReadGap) |
    pointBit(NativeFaultPoint::PreAcquire) |
    pointBit(NativeFaultPoint::PostAcquire) |
    pointBit(NativeFaultPoint::ExtendRevalidate);

constexpr std::uint32_t kGatePoints =
    pointBit(NativeFaultPoint::GateArrive) |
    pointBit(NativeFaultPoint::GateEnter) |
    pointBit(NativeFaultPoint::GateRelease);

constexpr std::uint32_t
eligibleMask(NativeFaultKind k)
{
    switch (k) {
      case NativeFaultKind::Yield:         return kAllPoints;
      case NativeFaultKind::SpinDelay:     return kAllPoints;
      case NativeFaultKind::Starve:        return kAllPoints;
      case NativeFaultKind::ExtensionFail:
        return pointBit(NativeFaultPoint::ExtendRevalidate);
      case NativeFaultKind::CmKill:        return kAbortablePoints;
      case NativeFaultKind::GateStall:     return kGatePoints;
    }
    return 0;
}

constexpr bool
abortInducing(NativeFaultKind k)
{
    return k == NativeFaultKind::ExtensionFail ||
           k == NativeFaultKind::CmKill;
}

} // anonymous namespace

NativeFaultParams
nativeFaultProfile(const std::string &name)
{
    NativeFaultParams p;
    p.profile = name;
    if (name == "off") {
        p.enabled = false;
    } else if (name == "light") {
        // Every kind at a gentle rate; the default sanity profile.
        p.enabled = true;
        p.meanPeriod = 96;
        p.weights = {2, 2, 0, 1, 1, 1};
    } else if (name == "heavy") {
        // Everything at once, including windowed starvation — the
        // profile the campaign leans on for coverage.
        p.enabled = true;
        p.meanPeriod = 24;
        p.weights = {3, 3, 0, 2, 2, 2};
        p.starveWindow = 4096;
        p.starveYields = 4;
    } else if (name == "delay") {
        // Pure schedule perturbation: no forced aborts, no sleeps —
        // any failure under this profile is a real interleaving bug.
        p.enabled = true;
        p.meanPeriod = 16;
        p.weights = {1, 1, 0, 0, 0, 0};
    } else if (name == "stall") {
        // Gate-transition sleeps: exercises NativeGate's timed wait
        // and wakeup accounting.
        p.enabled = true;
        p.meanPeriod = 32;
        p.weights = {0, 0, 0, 0, 0, 1};
        p.gateStallUs = 500;
    } else if (name == "kill") {
        // Forced aborts only: spurious CM kills plus forged
        // extension failures, driving escalation into the gate.
        p.enabled = true;
        p.meanPeriod = 32;
        p.weights = {0, 0, 0, 1, 2, 0};
    } else if (name == "starve") {
        // Priority starvation: one victim per window pays a delay at
        // every hook, losing races until the watchdog escalates it.
        p.enabled = true;
        p.meanPeriod = 128;
        p.weights = {1, 0, 0, 0, 0, 0};
        p.starveWindow = 512;
        p.starveYields = 8;
    } else {
        panic("unknown native fault profile '%s'", name.c_str());
    }
    return p;
}

const std::vector<std::string> &
nativeFaultProfileNames()
{
    static const std::vector<std::string> names{
        "off", "light", "heavy", "delay", "stall", "kill", "starve",
    };
    return names;
}

NativeFaultInjector::NativeFaultInjector(const NativeFaultParams &params,
                                         unsigned num_threads)
    : params_(params), numThreads_(num_threads ? num_threads : 1),
      threads_(numThreads_)
{
    HASTM_ASSERT(params_.meanPeriod > 0);
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k) {
        if (NativeFaultKind(k) != NativeFaultKind::Starve)
            weightSum_ += params_.weights[k];
    }
    // The same (golden-ratio) stream decorrelation the sim's
    // FaultInjector uses for its per-core streams.
    for (unsigned t = 0; t < numThreads_; ++t) {
        threads_[t].rng = Rng(params_.seed +
                              0x9e3779b97f4a7c15ull * (t + 1));
        threads_[t].untilNext = interval(threads_[t].rng);
    }
    starveOffset_ = Rng(params_.seed ^ 0xda3e39cb94b95bdbull).next();
}

std::uint64_t
NativeFaultInjector::interval(Rng &rng) const
{
    std::uint64_t iv = params_.meanPeriod / 2 +
                       rng.range(params_.meanPeriod);
    return iv ? iv : 1;
}

NativeFaultKind
NativeFaultInjector::pickKind(Rng &rng) const
{
    std::uint64_t pick = rng.range(weightSum_);
    for (unsigned k = 0; k < kNumNativeFaultKinds; ++k) {
        if (NativeFaultKind(k) == NativeFaultKind::Starve)
            continue;
        unsigned w = params_.weights[k];
        if (pick < w)
            return NativeFaultKind(k);
        pick -= w;
    }
    panic("fault kind draw out of range");
}

void
NativeFaultInjector::perform(NativeFaultKind kind, Rng &rng) const
{
    switch (kind) {
      case NativeFaultKind::Yield: {
        std::uint64_t n = 1 + rng.range(kYieldMax);
        for (std::uint64_t i = 0; i < n; ++i)
            std::this_thread::yield();
        break;
      }
      case NativeFaultKind::SpinDelay: {
        std::uint64_t n = 1 + rng.range(kSpinMax);
        volatile std::uint64_t sink = 0;
        for (std::uint64_t i = 0; i < n; ++i)
            sink = i;
        (void)sink;
        break;
      }
      case NativeFaultKind::Starve: {
        for (unsigned i = 0; i < params_.starveYields; ++i)
            std::this_thread::yield();
        break;
      }
      case NativeFaultKind::GateStall:
        std::this_thread::sleep_for(
            std::chrono::microseconds(params_.gateStallUs));
        break;
      case NativeFaultKind::ExtensionFail:
      case NativeFaultKind::CmKill:
        // Thrown by the caller, which owns the protocol state needed
        // to unwind safely.
        break;
    }
}

void
NativeFaultInjector::note(PerThread &t, NativeFaultPoint point,
                          NativeFaultKind k)
{
    ++t.fired[std::size_t(k)];
    std::uint32_t code = (std::uint32_t(point) << 8) | std::uint32_t(k);
    // FNV-1a over (event code, decision index): order- and
    // timing-sensitive within the thread, host-time-independent.
    t.seqHash = (t.seqHash ^ code) * 1099511628211ull;
    t.seqHash = (t.seqHash ^ t.decisions) * 1099511628211ull;
    if (recordLog_)
        t.log.push_back(code);
}

NativeFaultInjector::Fired
NativeFaultInjector::poll(unsigned tid, NativeFaultPoint point,
                          bool allow_abort)
{
    Fired res;
    if (!params_.enabled)
        return res;
    HASTM_ASSERT(tid < numThreads_);
    PerThread &t = threads_[tid];
    ++t.decisions;

    // Windowed priority starvation: each starveWindow hook
    // evaluations, one victim (rotating round-robin from a
    // seed-derived offset) pays a delay at every hook. The window
    // index derives from the thread's OWN decision counter, so the
    // choice stays per-thread-deterministic.
    if (params_.starveWindow && numThreads_ > 1) {
        std::uint64_t window = t.decisions / params_.starveWindow;
        if ((window + starveOffset_) % numThreads_ == tid) {
            perform(NativeFaultKind::Starve, t.rng);
            note(t, point, NativeFaultKind::Starve);
            res.starved = true;
        }
    }

    // Countdown to the next scheduled fault. A draw that cannot fire
    // here (wrong point, or abort-inducing while irrevocable) parks
    // in the pending mask and fires at the first eligible hook, so
    // rare-point kinds keep their weight-governed rate.
    if (t.untilNext > 0 && --t.untilNext == 0) {
        t.untilNext = interval(t.rng);
        if (weightSum_ > 0)
            t.pending |= 1ull << unsigned(pickKind(t.rng));
    }

    if (t.pending) {
        for (unsigned k = 0; k < kNumNativeFaultKinds; ++k) {
            std::uint64_t bit = 1ull << k;
            if (!(t.pending & bit))
                continue;
            NativeFaultKind kind = NativeFaultKind(k);
            if (!(eligibleMask(kind) & pointBit(point)))
                continue;
            if (abortInducing(kind) && !allow_abort)
                continue;
            t.pending &= ~bit;
            perform(kind, t.rng);
            note(t, point, kind);
            res.fired = true;
            res.kind = kind;
            break;  // at most one scheduled fault per hook
        }
    }
    return res;
}

std::uint64_t
NativeFaultInjector::sequenceHash(unsigned tid) const
{
    return threads_[tid].seqHash;
}

std::uint64_t
NativeFaultInjector::sequenceHashAll() const
{
    std::uint64_t h = 0;
    for (unsigned t = 0; t < numThreads_; ++t)
        h += threads_[t].seqHash * (2 * std::uint64_t(t) + 3);
    return h;
}

std::uint64_t
NativeFaultInjector::totalAll() const
{
    std::uint64_t n = 0;
    for (const PerThread &t : threads_)
        for (std::uint64_t c : t.fired)
            n += c;
    return n;
}

} // namespace hastm
