/**
 * @file
 * The per-thread arbitration policy behind TmScheme::Adaptive.
 *
 * The arbiter keeps one profile per transaction site (txsite tags)
 * and, for each dispatched transaction, answers "which rung runs this
 * one?". Decisions are driven entirely by the simulated execution —
 * windowed abort rates by kind, the HTM capacity-abort fraction, the
 * mark-filter hit rate, and EWMA cycles-per-commit scores per rung —
 * so a fixed seed yields the same decision sequence no matter how the
 * host schedules the benches.
 *
 * Control moves along a demotion ladder
 *
 *   hytm -> hastm -> hastm-cautious -> stm -> serial
 *
 * when `demoteHysteresis` consecutive windows look bad for the
 * current rung — or immediately, when the open window has already
 * accumulated `stormAborts` aborts (an abort storm at the hardware
 * rung costs a full watchdog escalation per dispatch; waiting for the
 * window boundary is regret with no information value). It climbs
 * back via bounded-regret probing: every `probeEpoch` transactions
 * the site runs `probeLen` transactions on a rival rung and switches
 * only if the rival's EWMA score beats the incumbent's by
 * `switchMargin`; each rejected probe doubles the epoch (up to 8x)
 * so stable phases are not taxed by exploration, and any switch
 * resets the backoff. The Serial rung is its own ladder end: it buys
 * `serialBudget` guaranteed commits, then retreats to stm so one
 * pathological phase cannot pin a site to the global token forever.
 */

#ifndef HASTM_ADAPTIVE_ARBITER_HH
#define HASTM_ADAPTIVE_ARBITER_HH

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "sim/json.hh"
#include "stm/tm_iface.hh"

namespace hastm {

/**
 * Arbitration knobs for TmScheme::Adaptive. Windows and epochs are
 * counted in transactions dispatched at one txn site by one thread,
 * so decisions are deterministic in the simulated execution alone.
 * The demotion thresholds and the EWMA weight are constants in
 * arbiter.cc.
 */
struct AdaptiveParams
{
    unsigned window = 8;         //!< txns per decision window at a site
    unsigned probeEpoch = 25;    //!< txns between re-probes of rivals
    unsigned probeLen = 3;       //!< txns per bounded-regret probe
    unsigned probeAbortBudget = 8; //!< aborts ending a probe early
    double switchMargin = 0.2;   //!< a probe must win by this fraction
    double shiftFactor = 2.0;    //!< window/EWMA ratio flagging a shift
    unsigned demoteHysteresis = 2; //!< consecutive bad windows to demote
    unsigned stormAborts = 8;    //!< in-window aborts forcing demotion
    unsigned serialBudget = 4;   //!< committed serial txns before retreat
};

/**
 * Deltas of one dispatched transaction, taken from the executing
 * inner thread's TmStats (and core cycles) around the atomic block.
 */
struct TxSample
{
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;          //!< all re-executions
    std::uint64_t capacityAborts = 0;  //!< HTM capacity subset
    std::uint64_t spuriousAborts = 0;  //!< HASTM counter!=0 subset
    std::uint64_t fastHits = 0;        //!< mark-filter read fast paths
    std::uint64_t slowReads = 0;       //!< logged (unfiltered) reads
    std::uint64_t cycles = 0;
};

/** What finish() decided, for stats/trace attribution by the caller. */
struct ArbiterDecision
{
    bool switched = false;      //!< steady-state rung changed
    bool probeStarted = false;  //!< a bounded-regret probe began
    AdaptiveMode from = AdaptiveMode::Hytm;
    AdaptiveMode to = AdaptiveMode::Hytm;
};

class Arbiter
{
  public:
    explicit Arbiter(const AdaptiveParams &p) : p_(p) {}

    /** Rung the next transaction at @p site runs on. */
    AdaptiveMode modeFor(std::uint32_t site);

    /** Account a finished dispatch and run the decision rules. */
    ArbiterDecision finish(std::uint32_t site, const TxSample &s);

    /** Forget windows and probes but keep the learned EWMA scores. */
    void resetWindows();

    /**
     * Per-site decision summary for the schema-v4 reports: dispatch
     * counts and fractions per rung, switch/probe totals, the final
     * steady-state rung, and the learned scores.
     */
    Json toJson() const;

    /**
     * Session-wide per-site summary: dispatch counts and switch/probe
     * totals summed across every thread's arbiter, plus the count of
     * threads whose steady rung ended on each mode.
     */
    static Json aggregate(const std::vector<const Arbiter *> &arbs);

  private:
    struct SiteState
    {
        AdaptiveMode mode = AdaptiveMode::Hytm;  //!< HTM-first
        unsigned badWindows = 0;

        // current decision window (steady-state rung)
        TxSample window;
        unsigned windowTxns = 0;
        unsigned sinceProbe = 0;
        unsigned epochMul = 1;  //!< probe backoff (doubles per failure)

        // bounded-regret probe in flight
        bool probing = false;
        AdaptiveMode probeMode = AdaptiveMode::Hytm;
        unsigned probeLeft = 0;
        TxSample probe;
        unsigned nextProbe = 0;  //!< rotates through rival rungs

        // serial-rung budget (committed txns left before retreat)
        unsigned serialLeft = 0;

        // learned EWMA cycles-per-commit per rung (0 = no sample yet)
        std::array<double, kNumAdaptiveModes> score{};

        // decision accounting (survives resetWindows)
        std::array<std::uint64_t, kNumAdaptiveModes> dispatched{};
        std::uint64_t switches = 0;
        std::uint64_t probes = 0;
    };

    /** One rung down the ladder (Serial maps to itself). */
    static AdaptiveMode demoted(AdaptiveMode m);

    /** Fold a finished window/probe into the rung's EWMA score. */
    void updateScore(SiteState &st, AdaptiveMode m, const TxSample &s);

    /** True when @p s looks bad for rung @p m (demotion predicate). */
    bool badWindow(AdaptiveMode m, const TxSample &s) const;

    /** Next probe candidate for @p st (never Serial, never current). */
    AdaptiveMode nextProbeMode(SiteState &st);

    AdaptiveParams p_;

    /** Ordered by site id so JSON output is deterministic. */
    std::map<std::uint32_t, SiteState> sites_;
};

} // namespace hastm

#endif // HASTM_ADAPTIVE_ARBITER_HH
