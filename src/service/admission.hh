/**
 * @file
 * Pluggable admission control for the bounded request queue.
 *
 * Two policies, both deterministic functions of queue state and the
 * last closed latency window (no wall clocks):
 *
 *  - DropTail: admit until the queue is physically full. The
 *    baseline every policy inherits — a full queue always drops.
 *  - DelayBackpressure: shed (admitting 1 in kShedKeepOneIn to keep
 *    probing) while the last closed window's p99 exceeds sloP99Ns —
 *    the signal is delay, not depth, so slow service sheds even at
 *    shallow depth and a fast drain re-opens admission.
 */

#ifndef HASTM_SERVICE_ADMISSION_HH
#define HASTM_SERVICE_ADMISSION_HH

#include <cstdint>

namespace hastm {

enum class AdmissionPolicy : std::uint8_t {
    DropTail,
    DelayBackpressure,
};

const char *admissionPolicyName(AdmissionPolicy p);

/** While shedding, DelayBackpressure still admits 1 of this many
 *  arrivals (progress probe). */
constexpr unsigned kShedKeepOneIn = 4;

struct AdmissionConfig
{
    AdmissionPolicy policy = AdmissionPolicy::DropTail;
    unsigned queueCap = 64;        //!< physical bound (all policies)
    std::uint64_t sloP99Ns = 2'000'000; //!< DelayBackpressure trigger
    /**
     * Self-check bound, not a control input: a campaign asserts the
     * committed-request p99 stays within sloP99Ns * sloMultiple
     * under overload.
     */
    double sloMultiple = 2.0;
};

enum class AdmissionDecision : std::uint8_t { Admit, DropFull, Shed };

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionConfig &cfg) : cfg_(cfg) {}

    /**
     * Decide one arrival given the instantaneous queue depth and the
     * p99 of the last closed latency window (0 until one closes).
     */
    AdmissionDecision
    decide(unsigned queue_depth, std::uint64_t last_window_p99)
    {
        if (queue_depth >= cfg_.queueCap)
            return AdmissionDecision::DropFull;
        switch (cfg_.policy) {
          case AdmissionPolicy::DropTail:
            return AdmissionDecision::Admit;
          case AdmissionPolicy::DelayBackpressure:
            if (last_window_p99 <= cfg_.sloP99Ns)
                return AdmissionDecision::Admit;
            return shedTick_++ % kShedKeepOneIn == 0
                       ? AdmissionDecision::Admit
                       : AdmissionDecision::Shed;
        }
        return AdmissionDecision::Admit;
    }

  private:
    AdmissionConfig cfg_;
    std::uint64_t shedTick_ = 0;
};

} // namespace hastm

#endif // HASTM_SERVICE_ADMISSION_HH
