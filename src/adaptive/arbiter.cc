#include "adaptive/arbiter.hh"

#include <algorithm>

namespace hastm {

namespace {

constexpr double kEwmaAlpha = 0.5;      //!< weight of the newest window
constexpr unsigned kProbeBackoff = 8;   //!< max epoch multiplier
constexpr double kDemoteAbortRate = 0.5;     //!< abort-rate trigger
constexpr double kDemoteCapacityFrac = 0.25; //!< HTM capacity trigger
constexpr double kDemoteSpuriousFrac = 0.25; //!< HASTM spurious trigger
constexpr double kMarkHitFloor = 0.02;  //!< mark-filter hit floor
constexpr double kSerialRetries = 8.0;  //!< aborts per commit (stm)

void
accumulate(TxSample &into, const TxSample &s)
{
    into.commits += s.commits;
    into.aborts += s.aborts;
    into.capacityAborts += s.capacityAborts;
    into.spuriousAborts += s.spuriousAborts;
    into.fastHits += s.fastHits;
    into.slowReads += s.slowReads;
    into.cycles += s.cycles;
}

} // namespace

AdaptiveMode
Arbiter::modeFor(std::uint32_t site)
{
    SiteState &st = sites_[site];
    return st.probing ? st.probeMode : st.mode;
}

AdaptiveMode
Arbiter::demoted(AdaptiveMode m)
{
    switch (m) {
      case AdaptiveMode::Hytm:          return AdaptiveMode::Hastm;
      case AdaptiveMode::Hastm:         return AdaptiveMode::HastmCautious;
      case AdaptiveMode::HastmCautious: return AdaptiveMode::Stm;
      case AdaptiveMode::Stm:           return AdaptiveMode::Serial;
      case AdaptiveMode::Serial:
      default:                          return AdaptiveMode::Serial;
    }
}

void
Arbiter::updateScore(SiteState &st, AdaptiveMode m, const TxSample &s)
{
    // EWMA of cycles per committed transaction. atomic() loops until
    // commit, so commits == 0 only when every dispatch user-aborted;
    // charge the whole window to one phantom commit in that case.
    std::uint64_t commits = s.commits ? s.commits : 1;
    double cpc = double(s.cycles) / double(commits);
    double &score = st.score[std::size_t(m)];
    score = score == 0.0 ? cpc
                         : kEwmaAlpha * cpc + (1.0 - kEwmaAlpha) * score;
}

bool
Arbiter::badWindow(AdaptiveMode m, const TxSample &s) const
{
    double attempts = double(s.commits + s.aborts);
    if (attempts <= 0.0)
        return false;
    double abort_rate = double(s.aborts) / attempts;
    switch (m) {
      case AdaptiveMode::Hytm:
        return abort_rate > kDemoteAbortRate ||
               double(s.capacityAborts) / attempts > kDemoteCapacityFrac;
      case AdaptiveMode::Hastm:
        return abort_rate > kDemoteAbortRate ||
               double(s.spuriousAborts) / attempts > kDemoteSpuriousFrac;
      case AdaptiveMode::HastmCautious: {
        if (abort_rate > kDemoteAbortRate)
            return true;
        // Mark-filter survival: when almost no read barrier hits the
        // filter, mark maintenance is pure overhead and the plain STM
        // is the cheaper rung. Only meaningful with enough reads.
        std::uint64_t reads = s.fastHits + s.slowReads;
        return reads >= 64 &&
               double(s.fastHits) / double(reads) < kMarkHitFloor;
      }
      case AdaptiveMode::Stm:
        return double(s.aborts) / double(s.commits ? s.commits : 1) >
               kSerialRetries;
      case AdaptiveMode::Serial:
      default:
        return false;
    }
}

AdaptiveMode
Arbiter::nextProbeMode(SiteState &st)
{
    for (unsigned i = 0; i < kNumAdaptiveModes; ++i) {
        auto m = AdaptiveMode(st.nextProbe % kNumAdaptiveModes);
        ++st.nextProbe;
        if (m != st.mode && m != AdaptiveMode::Serial)
            return m;
    }
    return st.mode;  // unreachable: >= 3 non-serial rivals always exist
}

ArbiterDecision
Arbiter::finish(std::uint32_t site, const TxSample &s)
{
    SiteState &st = sites_[site];
    AdaptiveMode ran = st.probing ? st.probeMode : st.mode;
    ++st.dispatched[std::size_t(ran)];

    ArbiterDecision d;
    d.from = st.mode;
    d.to = st.mode;

    if (st.probing) {
        accumulate(st.probe, s);
        // A probe ends at its length, or as soon as it burned its
        // abort budget: that keeps the regret of probing a rung that
        // is catastrophic *right now* (e.g. hardware during a
        // capacity-bound phase) bounded by a constant, not by
        // probeLen times the retry storm.
        bool spent = st.probe.aborts >= p_.probeAbortBudget;
        if (--st.probeLeft == 0 || spent) {
            updateScore(st, st.probeMode, st.probe);
            // Judge the probe by its own fresh measurement, not the
            // blended EWMA: after a phase shift the rival's history
            // reflects the *previous* phase (a hardware rung that
            // collapsed under big read sets keeps a terrible score
            // long after transactions shrank again), and averaging
            // the comeback against it would block recovery. The
            // incumbent's score stays EWMA — it is re-measured every
            // window, so it tracks the current phase already.
            std::uint64_t pc = st.probe.commits ? st.probe.commits : 1;
            double alt = double(st.probe.cycles) / double(pc);
            double cur = st.score[std::size_t(st.mode)];
            if (cur > 0.0 && alt < cur * (1.0 - p_.switchMargin)) {
                d.switched = true;
                d.to = st.probeMode;
                st.mode = st.probeMode;
                ++st.switches;
                st.badWindows = 0;
                st.nextProbe = 0;  // recovery-first: re-probe from the top
                st.epochMul = 1;
                // Seed the winner's score from this probe alone: its
                // EWMA may still carry another phase's history, and a
                // stale-high incumbent score would hand the site right
                // back on the next probe.
                st.score[std::size_t(st.probeMode)] = alt;
            } else {
                // The incumbent defended its rung: probe rarer (up to
                // kProbeBackoff x the base epoch) so a stable phase is
                // not taxed by exploration it keeps rejecting.
                st.epochMul = std::min(st.epochMul * 2, kProbeBackoff);
            }
            st.probing = false;
            st.probe = TxSample{};
            // Start a fresh steady window under whichever rung won.
            st.window = TxSample{};
            st.windowTxns = 0;
        }
        return d;
    }

    accumulate(st.window, s);
    ++st.windowTxns;
    ++st.sinceProbe;

    if (st.mode == AdaptiveMode::Serial) {
        // The serial rung is a budget, not a steady state: commit the
        // guaranteed transactions, then retreat to stm and let the
        // ladder (and probing) re-discover the contention level.
        if (st.serialLeft > s.commits) {
            st.serialLeft -= unsigned(s.commits);
        } else {
            updateScore(st, AdaptiveMode::Serial, st.window);
            st.window = TxSample{};
            st.windowTxns = 0;
            st.serialLeft = 0;
            d.switched = true;
            d.to = AdaptiveMode::Stm;
            st.mode = AdaptiveMode::Stm;
            ++st.switches;
            st.badWindows = 0;
            st.sinceProbe = 0;
            st.nextProbe = 0;
            st.epochMul = 1;
        }
        return d;
    }

    // Abort storm: a window already this bad cannot be rescued by the
    // remaining transactions, and at the hardware rung every further
    // dispatch may burn a full watchdog's worth of retries. Demote
    // now, without waiting for the window boundary or the hysteresis
    // count — the probe path climbs back if the storm was transient.
    if (p_.stormAborts != 0 && st.window.aborts >= p_.stormAborts &&
        demoted(st.mode) != st.mode) {
        updateScore(st, st.mode, st.window);
        AdaptiveMode down = demoted(st.mode);
        d.switched = true;
        d.to = down;
        st.mode = down;
        ++st.switches;
        if (down == AdaptiveMode::Serial)
            st.serialLeft = p_.serialBudget;
        st.badWindows = 0;
        st.window = TxSample{};
        st.windowTxns = 0;
        st.sinceProbe = 0;
        st.nextProbe = 0;
        st.epochMul = 1;
        return d;
    }

    if (st.windowTxns >= p_.window) {
        // Phase-shift detector: when the incumbent's fresh window is
        // suddenly far cheaper or dearer per commit than its own
        // EWMA, the workload changed character and the backed-off
        // probe schedule is stale. Re-arm immediate recovery-first
        // probing; the EWMA update below absorbs the new level.
        double prev = st.score[std::size_t(st.mode)];
        if (prev > 0.0 && p_.shiftFactor > 1.0) {
            std::uint64_t wc = st.window.commits ? st.window.commits : 1;
            double cpc = double(st.window.cycles) / double(wc);
            if (cpc * p_.shiftFactor < prev) {
                // Cheaper: a faster rung may have become viable, so
                // probe up-ladder right away.
                st.epochMul = 1;
                st.sinceProbe = p_.probeEpoch;
                st.nextProbe = 0;
                st.score[std::size_t(st.mode)] = cpc;
            } else if (cpc > prev * p_.shiftFactor) {
                // Dearer: moving *down* is the demotion predicates'
                // job — probing the faster rungs now would only add
                // regret. Just drop the backoff so probing resumes
                // at the base cadence once things settle.
                st.epochMul = 1;
                st.score[std::size_t(st.mode)] = cpc;
            }
            // Either way the pre-shift history is describing a
            // workload that no longer exists: replacing the score
            // outright (rather than letting the EWMA limp toward the
            // new level over many windows) stops rival probes from
            // "winning" against a stale incumbent and flapping the
            // site across rungs.
        }
        updateScore(st, st.mode, st.window);
        if (badWindow(st.mode, st.window)) {
            if (++st.badWindows >= p_.demoteHysteresis) {
                AdaptiveMode down = demoted(st.mode);
                if (down != st.mode) {
                    d.switched = true;
                    d.to = down;
                    st.mode = down;
                    ++st.switches;
                    if (down == AdaptiveMode::Serial)
                        st.serialLeft = p_.serialBudget;
                    st.sinceProbe = 0;
                    st.nextProbe = 0;
                    st.epochMul = 1;
                }
                st.badWindows = 0;
            }
        } else {
            st.badWindows = 0;
        }
        st.window = TxSample{};
        st.windowTxns = 0;
    }

    if (!d.switched && st.mode != AdaptiveMode::Serial &&
        p_.probeLen > 0 && st.sinceProbe >= p_.probeEpoch * st.epochMul) {
        st.probing = true;
        st.probeMode = nextProbeMode(st);
        st.probeLeft = p_.probeLen;
        st.probe = TxSample{};
        st.sinceProbe = 0;
        ++st.probes;
        d.probeStarted = true;
        d.to = st.probeMode;
    }
    return d;
}

void
Arbiter::resetWindows()
{
    for (auto &[site, st] : sites_) {
        (void)site;
        st.badWindows = 0;
        st.window = TxSample{};
        st.windowTxns = 0;
        st.sinceProbe = 0;
        st.epochMul = 1;
        st.probing = false;
        st.probe = TxSample{};
        st.probeLeft = 0;
        st.dispatched = {};
        st.switches = 0;
        st.probes = 0;
    }
}

Json
Arbiter::aggregate(const std::vector<const Arbiter *> &arbs)
{
    struct Agg
    {
        std::array<std::uint64_t, kNumAdaptiveModes> dispatched{};
        std::array<std::uint64_t, kNumAdaptiveModes> finalModes{};
        std::uint64_t switches = 0;
        std::uint64_t probes = 0;
    };
    std::map<std::uint32_t, Agg> by_site;
    for (const Arbiter *a : arbs) {
        for (const auto &[site, st] : a->sites_) {
            Agg &agg = by_site[site];
            for (unsigned m = 0; m < kNumAdaptiveModes; ++m)
                agg.dispatched[m] += st.dispatched[m];
            ++agg.finalModes[std::size_t(st.mode)];
            agg.switches += st.switches;
            agg.probes += st.probes;
        }
    }
    Json sites = Json::array();
    for (const auto &[site, agg] : by_site) {
        std::uint64_t total = 0;
        for (auto n : agg.dispatched)
            total += n;
        Json dispatch = Json::object();
        Json frac = Json::object();
        Json final_modes = Json::object();
        for (unsigned m = 0; m < kNumAdaptiveModes; ++m) {
            const char *name = adaptiveModeName(AdaptiveMode(m));
            dispatch.set(name, agg.dispatched[m]);
            frac.set(name, total ? double(agg.dispatched[m]) / double(total)
                                 : 0.0);
            final_modes.set(name, agg.finalModes[m]);
        }
        Json j = Json::object();
        j.set("site", std::uint64_t(site));
        j.set("txns", total);
        j.set("switches", agg.switches);
        j.set("probes", agg.probes);
        j.set("dispatch", std::move(dispatch));
        j.set("dispatchFrac", std::move(frac));
        j.set("finalModes", std::move(final_modes));
        sites.push(std::move(j));
    }
    return sites;
}

Json
Arbiter::toJson() const
{
    Json sites = Json::array();
    for (const auto &[site, st] : sites_) {
        std::uint64_t total = 0;
        for (auto n : st.dispatched)
            total += n;
        Json dispatch = Json::object();
        Json frac = Json::object();
        Json score = Json::object();
        for (unsigned m = 0; m < kNumAdaptiveModes; ++m) {
            const char *name = adaptiveModeName(AdaptiveMode(m));
            dispatch.set(name, st.dispatched[m]);
            frac.set(name, total ? double(st.dispatched[m]) / double(total)
                                 : 0.0);
            score.set(name, st.score[m]);
        }
        Json j = Json::object();
        j.set("site", std::uint64_t(site));
        j.set("finalMode", adaptiveModeName(st.mode));
        j.set("txns", total);
        j.set("switches", st.switches);
        j.set("probes", st.probes);
        j.set("dispatch", std::move(dispatch));
        j.set("dispatchFrac", std::move(frac));
        j.set("scoreCyclesPerCommit", std::move(score));
        sites.push(std::move(j));
    }
    return sites;
}

} // namespace hastm
