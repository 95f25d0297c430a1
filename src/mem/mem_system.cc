#include "mem/mem_system.hh"

#include <algorithm>
#include <bit>
#include <string>

#include "sim/logging.hh"

namespace hastm {

MemSystem::MemSystem(MemArena &arena, const MemParams &params)
    : arena_(arena), params_(params), stats_("mem")
{
    HASTM_ASSERT(params_.numCores >= 1);
    // The L2 sharer directory is a 32-bit core bitmap.
    HASTM_ASSERT(params_.numCores <= 32);
    HASTM_ASSERT(params_.numSmt >= 1 && params_.numSmt <= kMaxSmt);
    HASTM_ASSERT(params_.l1.lineSize == params_.l2.lineSize);

    l2_ = std::make_unique<Cache>("l2", params_.l2);
    l1Hits_.resize(params_.numCores);
    l1Misses_.resize(params_.numCores);
    l2Hits_.resize(params_.numCores);
    l2Misses_.resize(params_.numCores);
    markDiscards_.resize(params_.numCores);
    specConflicts_.resize(params_.numCores);
    specCapacity_.resize(params_.numCores);
    listeners_.resize(params_.numCores, nullptr);
    for (unsigned c = 0; c < params_.numCores; ++c) {
        l1s_.push_back(std::make_unique<Cache>(
            "l1." + std::to_string(c), params_.l1));
        std::string p = "c" + std::to_string(c) + ".";
        stats_.add(p + "l1_hits", &l1Hits_[c]);
        stats_.add(p + "l1_misses", &l1Misses_[c]);
        stats_.add(p + "l2_hits", &l2Hits_[c]);
        stats_.add(p + "l2_misses", &l2Misses_[c]);
        stats_.add(p + "mark_discards", &markDiscards_[c]);
        stats_.add(p + "spec_conflicts", &specConflicts_[c]);
        stats_.add(p + "spec_capacity", &specCapacity_[c]);
    }
    stats_.add("prefetches", &prefetches_);
    stats_.add("back_invalidations", &backInvals_);
    stats_.add("upgrades", &upgrades_);
    stats_.add("dirty_forwards", &dirtyForwards_);
}

void
MemSystem::setListener(CoreId core, MemListener *listener)
{
    HASTM_ASSERT(core < params_.numCores);
    listeners_[core] = listener;
}

template <typename Fn>
void
MemSystem::forEachRemoteHolder(Addr la, CacheLine *l2line, CoreId self,
                               Fn &&fn)
{
    if (params_.sharerDirectory) {
        // Inclusion means every L1-resident line is in the L2, so the
        // L2 line's sharer bitmap is the complete holder set; a
        // directory miss means no L1 can hold the line.
        if (!l2line)
            return;
        std::uint32_t bits =
            l2line->sharers & ~(std::uint32_t(1) << self);
        while (bits) {
            CoreId c = static_cast<CoreId>(std::countr_zero(bits));
            bits &= bits - 1;
            CacheLine *line = l1s_[c]->findLine(la);
            HASTM_ASSERT(line != nullptr);  // directory is exact
            fn(c, *line);
        }
        return;
    }
    // Reference path: probe every remote L1.
    for (CoreId c = 0; c < params_.numCores; ++c) {
        if (c == self)
            continue;
        if (CacheLine *line = l1s_[c]->findLine(la))
            fn(c, *line);
    }
}

void
MemSystem::invalidateL1Line(CoreId core, CacheLine &line, SpecLoss why)
{
    if (!line.valid())
        return;
    MemListener *l = listeners_[core];
    if (line.anyMark()) {
        for (SmtId t = 0; t < params_.numSmt; ++t) {
            for (unsigned f = 0; f < kNumFilters; ++f) {
                if (line.markBits[t][f]) {
                    markDiscards_[core].inc();
                    if (l)
                        l->marksDiscarded(t, f, 1);
                }
            }
        }
    }
    if (line.anySpec()) {
        if (why == SpecLoss::Conflict)
            specConflicts_[core].inc();
        else
            specCapacity_[core].inc();
        if (l)
            l->specLost(why);
    }
    // Keep the directory exact: this core stops sharing the line.
    l2_->lineAt(line.l2Frame).sharers &= ~(std::uint32_t(1) << core);
    l1s_[core]->invalidate(line);
}

void
MemSystem::evictL1Line(CoreId core, CacheLine &line)
{
    // Tags-only model: a Modified victim's data is already in the
    // arena, so "writeback" needs no data movement.
    invalidateL1Line(core, line, SpecLoss::Capacity);
}

CacheLine *
MemSystem::l2Fill(Addr la, CacheLine *line, AccessResult &res, bool &hit)
{
    if (line) {
        l2_->touch(*line);
        res.l2Hit = true;
        hit = true;
        return line;
    }
    hit = false;
    // Miss: fetch from memory, install, enforce inclusion on a victim.
    CacheLine *victim = l2_->victimFor(la);
    if (victim->valid()) {
        Addr victim_la = victim->tag;
        if (params_.sharerDirectory) {
            std::uint32_t bits = victim->sharers;
            while (bits) {
                CoreId c = static_cast<CoreId>(std::countr_zero(bits));
                bits &= bits - 1;
                CacheLine *l1line = l1s_[c]->findLine(victim_la);
                HASTM_ASSERT(l1line != nullptr);
                backInvals_.inc();
                invalidateL1Line(c, *l1line, SpecLoss::Capacity);
            }
        } else {
            for (CoreId c = 0; c < params_.numCores; ++c) {
                if (CacheLine *l1line = l1s_[c]->findLine(victim_la)) {
                    backInvals_.inc();
                    invalidateL1Line(c, *l1line, SpecLoss::Capacity);
                }
            }
        }
    }
    l2_->fill(*victim, la, MesiState::Shared);
    return victim;
}

void
MemSystem::l1Fill(CoreId core, Addr la, MesiState state, bool prefetched,
                  CacheLine *l2line)
{
    Cache &l1 = *l1s_[core];
    CacheLine *victim = l1.victimFor(la);
    if (victim->valid())
        evictL1Line(core, *victim);
    l1.fill(*victim, la, state);
    victim->prefetched = prefetched;
    // Register the new copy in the L2 directory and remember its
    // frame. The pointer from l2Fill stays valid across the
    // intervening snoops: they touch L2 sharer bitmaps but never move
    // or evict L2 lines.
    HASTM_ASSERT(l2line != nullptr && l2line->tag == la);
    l2line->sharers |= std::uint32_t(1) << core;
    victim->l2Frame = l2_->frameOf(*l2line);
}

void
MemSystem::prefetch(CoreId core, Addr next_la, bool exclusive)
{
    if (next_la + params_.l1.lineSize > arena_.size())
        return;
    Cache &l1 = *l1s_[core];
    if (l1.findLine(next_la))
        return;
    // Prefetch fills displace lines in the L1 and in the inclusive L2
    // — the "destructive interference" of §7.4. A store-stream
    // (exclusive) prefetch moreover steals ownership, invalidating
    // remote copies and discarding their marks.
    prefetches_.inc();
    AccessResult dummy;
    bool l2hit = false;
    CacheLine *l2line = l2Fill(next_la, l2_->findLine(next_la), dummy,
                               l2hit);
    bool shared_elsewhere = false;
    forEachRemoteHolder(next_la, l2line, core,
                        [&](CoreId c, CacheLine &line) {
        if (exclusive) {
            invalidateL1Line(c, line, SpecLoss::Conflict);
        } else {
            shared_elsewhere = true;
            if (line.state == MesiState::Modified ||
                line.state == MesiState::Exclusive) {
                line.state = MesiState::Shared;
            }
        }
    });
    MesiState fill_state = exclusive
        ? MesiState::Exclusive
        : (shared_elsewhere ? MesiState::Shared : MesiState::Exclusive);
    l1Fill(core, next_la, fill_state, true, l2line);
}

void
MemSystem::accessLine(CoreId core, SmtId smt, Addr addr, unsigned len,
                      bool is_write, AccessResult &res)
{
    Cache &l1 = *l1s_[core];
    Addr la = l1.lineAddr(addr);
    CacheLine *line = l1.findLine(la);

    if (l1Hit(core, line, is_write, res))
        return;
    if (line) {
        // ------------------------------------- L1 write hit, slow path
        if (line->state == MesiState::Shared) {
            // Ownership upgrade: invalidate every other copy.
            upgrades_.inc();
            res.latency += params_.upgradeLat;
            forEachRemoteHolder(la, &l2_->lineAt(line->l2Frame), core,
                                [&](CoreId c, CacheLine &other) {
                invalidateL1Line(c, other, SpecLoss::Conflict);
            });
        }
        // An SMT sibling's marks on this line are invalidated by our
        // store (§3.1); our own thread's marks persist.
        for (SmtId t = 0; t < params_.numSmt; ++t) {
            if (t == smt)
                continue;
            for (unsigned f = 0; f < kNumFilters; ++f) {
                if (line->markBits[t][f]) {
                    line->markBits[t][f] = 0;
                    markDiscards_[core].inc();
                    if (listeners_[core])
                        listeners_[core]->marksDiscarded(t, f, 1);
                }
            }
        }
        chargeL1Hit(core, *line, true, res);
        return;
    }

    // ------------------------------------------------- L1 miss
    l1Misses_[core].inc();

    // Snoop remote L1s. A remote speculatively-written line must abort
    // the remote hardware transaction before we can observe the data
    // (its rollback happens synchronously inside invalidateL1Line via
    // the listener). A write also conflicts with remote spec reads.
    // One L2 lookup serves the snoop and the fill.
    CacheLine *l2line = l2_->findLine(la);
    bool shared_elsewhere = false;
    forEachRemoteHolder(la, l2line, core,
                        [&](CoreId c, CacheLine &remote) {
        if (remote.state == MesiState::Modified ||
            remote.state == MesiState::Exclusive) {
            dirtyForwards_.inc();
            res.latency += params_.dirtyForwardLat;
        }
        if (is_write || remote.specWrite) {
            invalidateL1Line(c, remote, SpecLoss::Conflict);
        } else {
            remote.state = MesiState::Shared;
            shared_elsewhere = true;
        }
    });

    bool l2hit = false;
    l2line = l2Fill(la, l2line, res, l2hit);
    if (l2hit) {
        l2Hits_[core].inc();
        res.latency += params_.l2HitLat;
    } else {
        l2Misses_[core].inc();
        res.latency += params_.memLat;
    }

    MesiState fill_state = is_write
        ? MesiState::Modified
        : (shared_elsewhere ? MesiState::Shared : MesiState::Exclusive);
    l1Fill(core, la, fill_state, false, l2line);
    res.latency += is_write ? params_.storeHitLat : params_.l1HitLat;

    if (params_.prefetchNextLine) {
        for (unsigned d = 1; d <= params_.prefetchDegree; ++d) {
            prefetch(core, la + Addr(d) * params_.l1.lineSize, is_write);
        }
    }

    (void)smt;
    (void)len;
}

AccessResult
MemSystem::access(CoreId core, SmtId smt, Addr addr, unsigned size,
                  bool is_write)
{
    HASTM_ASSERT(core < params_.numCores);
    HASTM_ASSERT(size > 0);
    AccessResult res;
    Cache &l1 = *l1s_[core];
    Addr cur = addr;
    unsigned remaining = size;
    while (remaining > 0) {
        Addr la = l1.lineAddr(cur);
        Addr line_end = la + params_.l1.lineSize;
        unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(remaining, line_end - cur));
        accessLine(core, smt, cur, chunk, is_write, res);
        cur += chunk;
        remaining -= chunk;
    }
    return res;
}

void
MemSystem::setMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                    unsigned filter)
{
    HASTM_ASSERT(filter < kNumFilters);
    Cache &l1 = *l1s_[core];
    Addr cur = addr;
    unsigned remaining = len;
    while (remaining > 0) {
        Addr la = l1.lineAddr(cur);
        Addr line_end = la + params_.l1.lineSize;
        unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(remaining, line_end - cur));
        if (CacheLine *line = l1.findLine(la)) {
            line->markBits[smt][filter] |= l1.subBlockMask(cur, chunk);
            l1.noteMarked(*line);
        }
        // If the line is absent the mark is simply not set; the
        // instruction's load component already reported the discard
        // accounting through the normal miss path.
        cur += chunk;
        remaining -= chunk;
    }
}

void
MemSystem::resetMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                      unsigned filter)
{
    HASTM_ASSERT(filter < kNumFilters);
    Cache &l1 = *l1s_[core];
    Addr cur = addr;
    unsigned remaining = len;
    while (remaining > 0) {
        Addr la = l1.lineAddr(cur);
        Addr line_end = la + params_.l1.lineSize;
        unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(remaining, line_end - cur));
        if (CacheLine *line = l1.findLine(la))
            line->markBits[smt][filter] &=
                static_cast<std::uint8_t>(~l1.subBlockMask(cur, chunk));
        cur += chunk;
        remaining -= chunk;
    }
}

bool
MemSystem::testMarks(CoreId core, SmtId smt, Addr addr, unsigned len,
                     unsigned filter) const
{
    HASTM_ASSERT(filter < kNumFilters);
    const Cache &l1 = *l1s_[core];
    Addr cur = addr;
    unsigned remaining = len;
    while (remaining > 0) {
        Addr la = l1.lineAddr(cur);
        Addr line_end = la + params_.l1.lineSize;
        unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(remaining, line_end - cur));
        const CacheLine *line = l1.findLine(la);
        if (!line)
            return false;
        std::uint8_t mask = l1.subBlockMask(cur, chunk);
        if ((line->markBits[smt][filter] & mask) != mask)
            return false;
        cur += chunk;
        remaining -= chunk;
    }
    return true;
}

void
MemSystem::resetMarkAll(CoreId core, SmtId smt, unsigned filter)
{
    HASTM_ASSERT(filter < kNumFilters);
    // Visits only lines with live marks (per-transaction hot path)
    // instead of scanning the whole L1 tag array.
    l1s_[core]->forEachMarkedLine([smt, filter](CacheLine &line) {
        line.markBits[smt][filter] = 0;
    });
}

bool
MemSystem::setSpec(CoreId core, Addr addr, unsigned len, bool is_write)
{
    Cache &l1 = *l1s_[core];
    bool all_present = true;
    Addr cur = addr;
    unsigned remaining = len;
    while (remaining > 0) {
        Addr la = l1.lineAddr(cur);
        Addr line_end = la + params_.l1.lineSize;
        unsigned chunk = static_cast<unsigned>(
            std::min<Addr>(remaining, line_end - cur));
        if (CacheLine *line = l1.findLine(la)) {
            if (is_write)
                line->specWrite = true;
            else
                line->specRead = true;
            l1.noteSpec(*line);
        } else {
            // The line was displaced between the access and the tag
            // attempt (e.g. by the prefetcher); the HTM machine must
            // treat this as a capacity loss to stay sound.
            all_present = false;
        }
        cur += chunk;
        remaining -= chunk;
    }
    return all_present;
}

void
MemSystem::clearSpecAll(CoreId core)
{
    l1s_[core]->forEachSpecLine([](CacheLine &line) {
        line.specRead = line.specWrite = false;
    });
}

unsigned
MemSystem::forceEvictMarked(CoreId core, unsigned max_lines, bool from_l2)
{
    // Collect victims first: forEachMarkedLine's callback must not
    // invalidate lines mid-walk (it would mutate the interest list
    // being iterated).
    std::vector<Addr> tags;
    tags.reserve(max_lines);
    l1s_[core]->forEachMarkedLine([&](CacheLine &line) {
        if (tags.size() < max_lines)
            tags.push_back(line.tag);
    });
    unsigned evicted = 0;
    for (Addr la : tags) {
        if (!from_l2) {
            if (CacheLine *line = l1s_[core]->findLine(la)) {
                evictL1Line(core, *line);
                ++evicted;
            }
            continue;
        }
        // L2-level displacement: inclusion forces every L1 copy out
        // (the victim core's own, plus any sharer's).
        CacheLine *l2line = l2_->findLine(la);
        if (!l2line)
            continue;
        if (params_.sharerDirectory) {
            std::uint32_t bits = l2line->sharers;
            while (bits) {
                CoreId c = static_cast<CoreId>(std::countr_zero(bits));
                bits &= bits - 1;
                CacheLine *l1line = l1s_[c]->findLine(la);
                HASTM_ASSERT(l1line != nullptr);
                backInvals_.inc();
                invalidateL1Line(c, *l1line, SpecLoss::Capacity);
            }
        } else {
            for (CoreId c = 0; c < params_.numCores; ++c) {
                if (CacheLine *l1line = l1s_[c]->findLine(la)) {
                    backInvals_.inc();
                    invalidateL1Line(c, *l1line, SpecLoss::Capacity);
                }
            }
        }
        l2_->invalidate(*l2line);
        ++evicted;
    }
    return evicted;
}

} // namespace hastm
