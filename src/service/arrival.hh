/**
 * @file
 * Deterministic open-system arrival processes over a virtual clock.
 *
 * Every workload in the repo before this subsystem was closed-loop:
 * N threads spin on ops, so offered load self-throttles to whatever
 * the TM sustains and overload is unobservable. An arrival generator
 * decouples offered load from service capacity — requests arrive at
 * virtual-nanosecond timestamps drawn from a seeded Rng, so the whole
 * service run (admission decisions included) is a pure function of
 * (config, seed) and replays bit-identically at any host parallelism.
 *
 * Processes:
 *  - Poisson: exponential inter-arrivals at ratePerSec.
 *  - OnOffBurst: piecewise Poisson alternating an off phase at
 *    ratePerSec and an on phase at burstRatePerSec (phase 0 = off;
 *    period offNs + onNs). Sampling restarts at each phase boundary —
 *    correct by memorylessness of the exponential.
 *
 * Key popularity is uniform over [0, keyRange) or Zipf(s) via a
 * precomputed CDF (rank k has weight 1/(k+1)^s); ranks map to keys by
 * a fixed multiplicative shuffle so hot keys spread across the
 * structure instead of clustering at small values.
 */

#ifndef HASTM_SERVICE_ARRIVAL_HH
#define HASTM_SERVICE_ARRIVAL_HH

#include <cstdint>
#include <vector>

#include "harness/oracle.hh"
#include "sim/rng.hh"

namespace hastm {

enum class ArrivalKind : std::uint8_t { Poisson, OnOffBurst };

const char *arrivalKindName(ArrivalKind k);

struct ArrivalConfig
{
    ArrivalKind kind = ArrivalKind::Poisson;
    double ratePerSec = 500000.0;   //!< Poisson rate / off-phase rate
    double burstRatePerSec = 2.0e6; //!< on-phase rate (OnOffBurst)
    std::uint64_t offNs = 8'000'000; //!< off-phase length (phase 0)
    std::uint64_t onNs = 4'000'000;  //!< on-phase (burst) length
    double zipfS = 0.0;             //!< 0 = uniform key popularity
    unsigned updatePct = 20;        //!< inserts+removes share (50/50)
    std::uint64_t keyRange = 1024;
};

/** One transactional request flowing through the service. */
struct ServiceRequest
{
    std::uint64_t arrivalNs = 0;
    OpKind op = OpKind::Contains;
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    std::uint64_t seq = 0;  //!< arrival order (diagnostics, traces)
};

/**
 * Zipf(s) sampler over [0, n): rank k drawn with probability
 * proportional to 1/(k+1)^s, then shuffled into a key. s = 0
 * degenerates to uniform (no CDF built).
 */
class ZipfKeys
{
  public:
    ZipfKeys(std::uint64_t key_range, double s);

    std::uint64_t draw(Rng &rng) const;

    /** Popularity rank of @p key (tests; inverse of the shuffle). */
    std::uint64_t rankOf(std::uint64_t key) const;

  private:
    std::uint64_t range_;
    std::vector<double> cdf_;          //!< empty when uniform
    std::vector<std::uint64_t> perm_;  //!< fixed rank->key shuffle
};

/** Synthetic arrival stream (Poisson / OnOffBurst). */
class ArrivalGen
{
  public:
    ArrivalGen(const ArrivalConfig &cfg, std::uint64_t seed);

    /**
     * Produce the next request, or false once the next arrival would
     * land past @p horizon_ns (the generator is then exhausted).
     */
    bool next(std::uint64_t horizon_ns, ServiceRequest *out);

    /** True when virtual time @p t falls in an on (burst) phase. */
    bool burstAt(std::uint64_t t) const;

    /**
     * Phase boundaries in [0, horizon): every off->on and on->off
     * flip, in order. Empty for non-bursty kinds. The service closes
     * a stats segment at each boundary.
     */
    std::vector<std::uint64_t> phaseBoundaries(std::uint64_t horizon_ns) const;

  private:
    double rateAt(std::uint64_t t) const;

    /** Next boundary strictly after @p t (OnOffBurst only). */
    std::uint64_t nextBoundary(std::uint64_t t) const;

    ArrivalConfig cfg_;
    Rng rng_;
    ZipfKeys keys_;
    std::uint64_t now_ = 0;
    std::uint64_t seq_ = 0;
    bool exhausted_ = false;
};

} // namespace hastm

#endif // HASTM_SERVICE_ARRIVAL_HH
