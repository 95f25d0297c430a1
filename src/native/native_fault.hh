/**
 * @file
 * Deterministic fault injection for the native (host-thread) backend.
 *
 * PR 3 gave the *simulator* seeded fault injection (sim/fault.hh);
 * this is its counterpart for the native STM, whose trickiest
 * transitions — the TL2 load/fence/reload bracket, the window between
 * a record acquisition and its release, the commit-ticket-to-writeback
 * gap, the extension-revalidate path, the undo rollback, and the
 * serial gate's arrive/enter/release edges — otherwise only ever run
 * under whatever interleavings the host scheduler happens to produce.
 * A NativeFaultInjector threads a hook point through each of those
 * edges and fires:
 *
 *  - Yield / SpinDelay: bounded schedule perturbation, stretching the
 *    hooked window so rival threads land inside it;
 *  - Starve: a priority-based mode that makes one chosen thread per
 *    window pay a delay at *every* hook, driving it into repeated
 *    losses so the starvation watchdog's escalation and the gate
 *    handoff actually execute;
 *  - ExtensionFail: force the next timestamp extension to fail as if
 *    a logged read had gone stale (exercises the extension-failure
 *    abort path without needing a racing writer);
 *  - CmKill: a spurious contention-manager kill (the native analogue
 *    of the sim's SpuriousHtmAbort — an abort with no real conflict);
 *  - GateStall: a bounded sleep at a gate transition, widening the
 *    windows NativeGate's timed wait and wakeup accounting protect.
 *
 * Determinism: all randomness comes from per-thread Rng streams
 * derived from (seed, tid) exactly like the sim's per-core streams,
 * and every decision is a pure function of the thread's OWN hook-call
 * sequence — the injector never reads the clock, other threads'
 * state, or host entropy. Replaying a run whose per-thread hook
 * sequences repeat (any single-threaded cell; multi-threaded cells up
 * to scheduling) therefore reproduces the injected-fault sequence
 * bit-identically from (profile, seed) alone.
 *
 * Scheduling: each thread counts hook evaluations down to its next
 * scheduled fault (uniform in [meanPeriod/2, 3*meanPeriod/2), the
 * sim's interval shape) and then draws a kind from the profile
 * weights. A kind not applicable at the current hook point (e.g.
 * ExtensionFail anywhere but the extension-revalidate path) is parked
 * as *pending* and fires at the thread's next eligible hook, so each
 * kind's rate follows its weight rather than the base-rate of the
 * hooks it happens to land on. Abort-inducing kinds (ExtensionFail,
 * CmKill) additionally wait out serial-irrevocable mode: an
 * irrevocable transaction must commit.
 */

#ifndef HASTM_NATIVE_NATIVE_FAULT_HH
#define HASTM_NATIVE_NATIVE_FAULT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "stm/tm_iface.hh"

namespace hastm {

/**
 * The hook points threaded through the native protocol. Abortable
 * points (where throwing TxConflictAbort is safe: inside a
 * transaction, owning no commit ticket, not mid-rollback) are the
 * only ones where CmKill/ExtensionFail may fire.
 */
enum class NativeFaultPoint : std::uint8_t {
    Tl2ReadGap,        //!< between the TL2 data load and record reload
    PreAcquire,        //!< before the record-acquire CAS
    PostAcquire,       //!< record owned, data not yet written
    CommitTicket,      //!< commit time claimed, records not released
    ExtendRevalidate,  //!< entering the extension revalidation
    PreRollback,       //!< abort taken, undo log not yet applied
    GateArrive,        //!< transaction begin, before gate arrival
    GateEnter,         //!< escalation, before taking the gate token
    GateRelease,       //!< leaving irrevocable, before the release
    Backoff,           //!< between re-executions (onConflict)
};

constexpr unsigned kNumNativeFaultPoints = 10;

/** Injection campaign parameters (NativeSessionConfig::fault). */
struct NativeFaultParams
{
    bool enabled = false;
    /** Profile name, recorded in reports for replayability. */
    std::string profile = "off";
    /** Campaign seed; per-thread streams are derived from it. */
    std::uint64_t seed = 1;
    /** Mean hook evaluations between faults on one thread (> 0). */
    unsigned meanPeriod = 48;
    /** Relative weight per NativeFaultKind (0 disables a kind).
     *  weights[Starve] is ignored: starvation is windowed via
     *  starveWindow, not drawn from the schedule. */
    std::array<unsigned, kNumNativeFaultKinds> weights{1, 1, 0, 1, 1, 1};
    /** Microseconds slept per GateStall (keep well under the serial
     *  gate's 20 s park bound, NativeGate::setStallLimitMs). */
    unsigned gateStallUs = 200;
    /** Hook evaluations per starvation window; each window picks one
     *  victim thread (round-robin offset by the seed) that pays
     *  starveYields yields at every hook. 0 disables starvation. */
    unsigned starveWindow = 0;
    unsigned starveYields = 8;
};

/**
 * Named presets: "off", "light", "heavy", "delay", "stall", "kill",
 * "starve" — the native mirror of the sim's profile vocabulary
 * (sim/fault.hh: off/light/heavy + single-kind focus profiles).
 * Unknown names are fatal with the same diagnostic shape as
 * faultProfile(). The caller typically overrides `seed`.
 */
NativeFaultParams nativeFaultProfile(const std::string &name);

/** The profile names nativeFaultProfile() accepts, in sweep order. */
const std::vector<std::string> &nativeFaultProfileNames();

/**
 * Per-session fault source. Threads poll their own padded slot at
 * each hook point; there is no shared mutable state, so polling is
 * lock-free, TSan-clean, and per-thread-deterministic by
 * construction.
 */
class NativeFaultInjector
{
  public:
    NativeFaultInjector(const NativeFaultParams &params,
                        unsigned num_threads);

    const NativeFaultParams &params() const { return params_; }

    /** What one hook evaluation injected. */
    struct Fired
    {
        /** Starvation delay was applied at this hook. */
        bool starved = false;
        /** Scheduled fault fired at this hook (else none). Yield /
         *  SpinDelay / GateStall were already performed inline; the
         *  caller converts ExtensionFail and CmKill into the
         *  protocol's abort exceptions. */
        bool fired = false;
        NativeFaultKind kind = NativeFaultKind::Yield;
    };

    /**
     * Evaluate hook @p point on thread @p tid. @p allow_abort false
     * (serial-irrevocable mode) keeps abort-inducing kinds pending.
     * Owner-called only: @p tid must be the calling thread's id.
     */
    Fired poll(unsigned tid, NativeFaultPoint point, bool allow_abort);

    /**
     * Order-sensitive FNV-1a fingerprint of thread @p tid's injected
     * sequence ((point, kind, decision-index) per event). Two runs
     * injected bit-identical sequences iff every thread's hash (and
     * event count) matches.
     */
    std::uint64_t sequenceHash(unsigned tid) const;

    /** All threads' hashes combined (order-independent across
     *  threads; call only while the session is quiescent). */
    std::uint64_t sequenceHashAll() const;

    /** Events injected on thread @p tid, by kind. */
    std::uint64_t count(unsigned tid, NativeFaultKind k) const
    {
        return threads_[tid].fired[std::size_t(k)];
    }

    /** Injected events on all threads (quiescent use only). */
    std::uint64_t totalAll() const;

    /**
     * The injected sequence of thread @p tid, one encoded
     * (point << 8 | kind) word per event, recorded only when
     * NativeFaultParams::recordSequence() — see recordSequence_ —
     * is enabled via recordFired(). Tests compare these directly.
     */
    const std::vector<std::uint32_t> &firedLog(unsigned tid) const
    {
        return threads_[tid].log;
    }

    /** Keep per-event logs (tests; off by default to bound memory). */
    void recordFired(bool on) { recordLog_ = on; }

  private:
    std::uint64_t interval(Rng &rng) const;
    NativeFaultKind pickKind(Rng &rng) const;
    void perform(NativeFaultKind kind, Rng &rng) const;

    /** One thread's stream + schedule, alone on its cache lines. */
    struct alignas(64) PerThread
    {
        Rng rng{0};
        std::uint64_t untilNext = 0;  //!< hooks until the next fault
        std::uint64_t decisions = 0;  //!< hook evaluations so far
        std::uint64_t seqHash = 1469598103934665603ull;  //!< FNV basis
        std::uint64_t pending = 0;    //!< bitmask of parked kinds
        std::array<std::uint64_t, kNumNativeFaultKinds> fired{};
        std::vector<std::uint32_t> log;
    };

    void note(PerThread &t, NativeFaultPoint point, NativeFaultKind k);

    NativeFaultParams params_;
    unsigned weightSum_ = 0;
    unsigned numThreads_;
    /** Seed-derived offset rotating the starvation victim. */
    std::uint64_t starveOffset_;
    bool recordLog_ = false;
    std::vector<PerThread> threads_;
};

} // namespace hastm

#endif // HASTM_NATIVE_NATIVE_FAULT_HH
