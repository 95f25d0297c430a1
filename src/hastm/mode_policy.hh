/**
 * @file
 * Aggressive/cautious mode selection (§6, §7.4).
 *
 * Aggressive mode elides read-set logging and validates with the mark
 * counter alone; it pays with a full re-execution whenever any marked
 * line is lost ("spurious aborts"). The policies:
 *
 *  - Adaptive (HASTM proper): single-threaded runs switch to
 *    aggressive after a transaction commits; multi-threaded runs keep
 *    a running window of bad events (aborts and commits that needed a
 *    full validation) and only go aggressive below a low watermark —
 *    "starts off in cautious mode and remains in cautious mode till
 *    the number of evictions/invalidations is below a threshold".
 *  - Naive: always try aggressive first and re-execute cautiously on
 *    abort — the HyTM-shaped strawman of Figs 21/22.
 *  - Never: pinned cautious (the HASTM-Cautious ablation, Fig 17).
 */

#ifndef HASTM_HASTM_MODE_POLICY_HH
#define HASTM_HASTM_MODE_POLICY_HH

#include <cstdint>
#include <deque>

namespace hastm {

/** Mode-selection strategies. */
enum class ModeStrategy : std::uint8_t {
    Adaptive,  //!< §6 policy (the real HASTM)
    Naive,     //!< always aggressive first (§7.4 strawman)
    Never,     //!< cautious only
};

/** Events in HASTM's sliding window of recent outcomes. */
constexpr unsigned kPolicyWindow = 32;

/** Bad-event ratio below which multi-threaded HASTM goes aggressive. */
constexpr double kAggressiveWatermark = 0.10;

/** Per-thread mode policy. */
class ModePolicy
{
  public:
    ModePolicy(ModeStrategy strategy, unsigned num_threads,
               unsigned window, double watermark)
        : strategy_(strategy), numThreads_(num_threads),
          window_(window), watermark_(watermark)
    {
    }

    /** Decide the mode for the next transaction attempt. */
    bool chooseAggressive() const;

    /** Record a committed transaction and whether it saw bad events. */
    void onCommit(bool aggressive, bool counter_nonzero);

    /** Record an abort; @p spurious when caused by mark-line loss. */
    void onAbort(bool aggressive, bool spurious);

    ModeStrategy strategy() const { return strategy_; }

  private:
    void pushEvent(bool bad);
    double badRatio() const;

    ModeStrategy strategy_;
    unsigned numThreads_;
    unsigned window_;
    double watermark_;

    bool everCommitted_ = false;
    bool retryingAfterAbort_ = false;
    std::deque<bool> events_;   //!< sliding window of bad-event flags
    unsigned badCount_ = 0;
};

} // namespace hastm

#endif // HASTM_HASTM_MODE_POLICY_HH
