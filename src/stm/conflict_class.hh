/**
 * @file
 * False-conflict accounting for the sharded record table.
 *
 * A conflict abort names the transaction record that moved, but the
 * record is a hash bucket: under cache-line granularity every
 * shard-span-aligned alias of a line shares one record, so an abort
 * can be a *true* conflict (the two transactions really touched
 * overlapping lines) or an *aliased* one (same record, disjoint
 * lines — pure metadata contention the sharded table exists to
 * remove). This module classifies each conflict abort by comparing
 * the aborter's per-record access footprint against the conflicting
 * party's write footprint.
 *
 * Everything here is host-side diagnostics derived from accesses the
 * runtime already performs: no simulated memory is touched and no
 * simulated cycles are charged, so enabling the accounting never
 * perturbs measured results (default-geometry runs stay bit-identical
 * to the unsharded implementation).
 */

#ifndef HASTM_STM_CONFLICT_CLASS_HH
#define HASTM_STM_CONFLICT_CLASS_HH

#include <compare>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "stm/tm_iface.hh"

namespace hastm {

class MemArena;

/** Verdict on one conflict abort. */
enum class ConflictClass : std::uint8_t {
    True,     //!< the parties' line sets overlap (real data conflict)
    Aliased,  //!< same record, disjoint lines (table-geometry artifact)
    Unknown,  //!< not enough footprint information to decide
};

/**
 * One transaction attempt's data accesses as flat logs of
 * (record, 64-byte line) notes: one log for reads, one for writes.
 * Reset at every top-level begin; noted in the read/write barriers
 * *before* the barrier can throw, so the access that triggered a
 * contention abort is already in the footprint when the abort is
 * classified. Noting is an append and reset() only clears; the
 * per-record, deduplicated line sets are built when asked for, which
 * happens on aborts and at releases.
 */
class TxFootprint
{
  public:
    void
    reset()
    {
        rd_.clear();
        wr_.clear();
        wrGrouped_ = 0;
    }

    void noteRead(Addr rec, Addr data) { rd_.push_back({rec, data >> 6}); }

    void noteWrite(Addr rec, Addr data) { wr_.push_back({rec, data >> 6}); }

    /** Distinct lines read or written under @p rec this attempt. */
    std::vector<Addr> linesUnder(Addr rec) const;

    /**
     * Sort and deduplicate the write notes taken so far, in O(w log w),
     * so that each writeLines() call afterwards is a binary search.
     * Call once before publishing every written record.
     */
    void groupWrites();

    /**
     * Replace @p out with the distinct lines written under @p rec this
     * attempt (sorted). Reuses @p out's capacity.
     */
    void writeLines(Addr rec, std::vector<Addr> &out) const;

  private:
    struct Note
    {
        Addr rec;
        Addr line;

        auto operator<=>(const Note &) const = default;
    };

    std::vector<Note> rd_;
    std::vector<Note> wr_;
    /** wr_[0, wrGrouped_) is sorted and duplicate-free. */
    std::size_t wrGrouped_ = 0;
};

/**
 * Session-wide classification state, owned by StmGlobals and shared
 * by every scheme (the adaptive rungs share one StmGlobals, so one
 * classifier sees all of them).
 *
 * Two sources describe "the other side" of a conflict on record R:
 *  - a live owner: R currently holds a descriptor address and that
 *    descriptor's thread registered its footprint here;
 *  - the last writer: whoever last released R (STM commit/rollback,
 *    HyTM hardware commit) published the lines it wrote under R.
 * Both are keyed by a publisher identity so a thread never classifies
 * its own abort against footprint data it published itself.
 *
 * Simulated threads share this state, so each caller syncs its core
 * before a call, and a registered owner syncs before noting a write:
 * a classification then sees exactly the footprints and releases of
 * the cycles before it.
 */
class ConflictClassifier
{
  public:
    /** Expose @p fp as the live footprint of descriptor @p desc. */
    void
    registerOwner(Addr desc, const TxFootprint *fp)
    {
        owners_[desc] = fp;
    }

    void
    unregisterOwner(Addr desc)
    {
        owners_.erase(desc);
    }

    /**
     * Record that @p publisher released @p rec after writing, in this
     * attempt, the lines @p fp noted under it (fp.groupWrites() must
     * have run). Allocates nothing once the record's entry and the
     * scratch list have grown to fit.
     */
    void
    publishRelease(Addr publisher, Addr rec, const TxFootprint &fp)
    {
        fp.writeLines(rec, scratch_);
        if (scratch_.empty())
            return;
        LastWrite &lw = lastWrite_[rec];
        lw.publisher = publisher;
        // The replaced list's buffer becomes the next scratch.
        lw.lines.swap(scratch_);
    }

    struct Verdict
    {
        ConflictClass cls = ConflictClass::Unknown;
        std::size_t myLines = 0;  //!< aborter's lines under the record
    };

    /**
     * Classify an abort of the transaction with footprint @p mine and
     * identity @p self that lost record @p rec. Reads the record's
     * current value from @p arena (host read, uncharged) to find a
     * live owner; falls back to the last published release.
     */
    Verdict classify(const TxFootprint &mine, Addr self, Addr rec,
                     const MemArena &arena) const;

  private:
    struct LastWrite
    {
        Addr publisher = kNullAddr;
        std::vector<Addr> lines;
    };

    std::unordered_map<Addr, const TxFootprint *> owners_;
    std::unordered_map<Addr, LastWrite> lastWrite_;
    std::vector<Addr> scratch_;  //!< publishRelease's line buffer
};

/** Fold a verdict into the per-thread outcome counters. */
inline void
accountConflictClass(TmStats &stats,
                     const ConflictClassifier::Verdict &v)
{
    switch (v.cls) {
      case ConflictClass::True:
        ++stats.conflictsTrue;
        break;
      case ConflictClass::Aliased:
        ++stats.conflictsAliased;
        stats.aliasedLinesAtAbort.record(v.myLines);
        break;
      case ConflictClass::Unknown:
        ++stats.conflictsUnclassified;
        break;
    }
}

} // namespace hastm

#endif // HASTM_STM_CONFLICT_CLASS_HH
