#include "service/arrival.hh"

#include <cmath>

#include "sim/logging.hh"

namespace hastm {

const char *
arrivalKindName(ArrivalKind k)
{
    switch (k) {
      case ArrivalKind::Poisson:    return "poisson";
      case ArrivalKind::OnOffBurst: return "onoff";
    }
    return "?";
}

// ---- ZipfKeys ----

ZipfKeys::ZipfKeys(std::uint64_t key_range, double s) : range_(key_range)
{
    HASTM_ASSERT(key_range > 0);
    if (s <= 0.0)
        return;
    if (key_range > (1ull << 22))
        fatal("Zipf key range %llu too large for the CDF table",
              (unsigned long long)key_range);
    cdf_.resize(key_range);
    double total = 0.0;
    for (std::uint64_t k = 0; k < key_range; ++k) {
        total += 1.0 / std::pow(double(k + 1), s);
        cdf_[k] = total;
    }
    for (std::uint64_t k = 0; k < key_range; ++k)
        cdf_[k] /= total;
    // Fixed rank->key permutation (seed independent of the arrival
    // seed): rank 0 — the hottest key — should not always be key 0,
    // or every Zipf run would hammer whatever structural corner
    // small keys share (the BST's leftmost spine, bucket 0).
    perm_.resize(key_range);
    for (std::uint64_t k = 0; k < key_range; ++k)
        perm_[k] = k;
    Rng shuffle(0x5eed5eedull);
    for (std::uint64_t k = key_range - 1; k > 0; --k)
        std::swap(perm_[k], perm_[shuffle.range(k + 1)]);
}

std::uint64_t
ZipfKeys::draw(Rng &rng) const
{
    if (cdf_.empty())
        return rng.range(range_);
    double u = rng.uniform();
    // First rank whose CDF covers u.
    std::uint64_t lo = 0, hi = range_ - 1;
    while (lo < hi) {
        std::uint64_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return perm_[lo];
}

std::uint64_t
ZipfKeys::rankOf(std::uint64_t key) const
{
    if (cdf_.empty())
        return key;
    for (std::uint64_t r = 0; r < range_; ++r) {
        if (perm_[r] == key)
            return r;
    }
    return range_;
}

// ---- ArrivalGen ----

ArrivalGen::ArrivalGen(const ArrivalConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed), keys_(cfg.keyRange, cfg.zipfS)
{
    HASTM_ASSERT(cfg.ratePerSec > 0.0);
    if (cfg.kind == ArrivalKind::OnOffBurst) {
        HASTM_ASSERT(cfg.burstRatePerSec > 0.0);
        HASTM_ASSERT(cfg.onNs > 0 && cfg.offNs > 0);
    }
}

double
ArrivalGen::rateAt(std::uint64_t t) const
{
    if (cfg_.kind == ArrivalKind::OnOffBurst && burstAt(t))
        return cfg_.burstRatePerSec;
    return cfg_.ratePerSec;
}

bool
ArrivalGen::burstAt(std::uint64_t t) const
{
    if (cfg_.kind != ArrivalKind::OnOffBurst)
        return false;
    return t % (cfg_.offNs + cfg_.onNs) >= cfg_.offNs;
}

std::uint64_t
ArrivalGen::nextBoundary(std::uint64_t t) const
{
    std::uint64_t period = cfg_.offNs + cfg_.onNs;
    std::uint64_t base = (t / period) * period;
    if (t < base + cfg_.offNs)
        return base + cfg_.offNs;
    return base + period;
}

std::vector<std::uint64_t>
ArrivalGen::phaseBoundaries(std::uint64_t horizon_ns) const
{
    std::vector<std::uint64_t> out;
    if (cfg_.kind != ArrivalKind::OnOffBurst)
        return out;
    for (std::uint64_t t = nextBoundary(0); t < horizon_ns;
         t = nextBoundary(t))
        out.push_back(t);
    return out;
}

bool
ArrivalGen::next(std::uint64_t horizon_ns, ServiceRequest *out)
{
    if (exhausted_)
        return false;
    // Exponential inter-arrival at the phase rate in force; a draw
    // that crosses a phase boundary restarts there (memoryless).
    std::uint64_t t = now_;
    for (;;) {
        double lambda_per_ns = rateAt(t) * 1e-9;
        double u = rng_.uniform();
        double dt = -std::log(1.0 - u) / lambda_per_ns;
        // Clamp into [1, horizon] so time always advances and a
        // pathological draw cannot overflow the virtual clock.
        std::uint64_t step = dt >= double(horizon_ns)
                                 ? horizon_ns
                                 : std::uint64_t(dt) + 1;
        if (cfg_.kind == ArrivalKind::OnOffBurst) {
            std::uint64_t boundary = nextBoundary(t);
            if (t + step > boundary) {
                t = boundary;
                continue;
            }
        }
        t += step;
        break;
    }
    if (t > horizon_ns) {
        exhausted_ = true;
        return false;
    }
    now_ = t;
    out->arrivalNs = t;
    out->seq = seq_++;
    if (rng_.chancePct(cfg_.updatePct))
        out->op = rng_.chancePct(50) ? OpKind::Insert : OpKind::Remove;
    else
        out->op = OpKind::Contains;
    out->key = keys_.draw(rng_);
    out->value = out->op == OpKind::Insert ? rng_.next() >> 16 : 0;
    return true;
}

} // namespace hastm
