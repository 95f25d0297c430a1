/**
 * @file
 * A bounded hardware transactional memory machine.
 *
 * This is the hardware half of the HyTM comparator ([17][23][29],
 * §7.3): speculative read/write bits on L1 lines, conflict detection
 * through the coherence protocol, and abort on any speculative-line
 * loss — remote conflict, own-cache capacity eviction, or inclusive-L2
 * back-invalidation. Speculative stores are modelled functionally
 * with an internal undo buffer standing in for cache-buffered data;
 * an abort rolls the arena back instantly (hardware discards dirty
 * speculative lines in place), before the conflicting access observes
 * the data.
 */

#ifndef HASTM_HTM_HTM_MACHINE_HH
#define HASTM_HTM_HTM_MACHINE_HH

#include <cstdint>
#include <vector>

#include "cpu/core.hh"

namespace hastm {

/** Why a hardware transaction aborted. */
enum class HtmAbortCause : std::uint8_t {
    None,
    Conflict,   //!< remote access to a speculative line
    Capacity,   //!< speculative line evicted / back-invalidated
    Explicit,   //!< software requested (e.g. record not shared)
};

/** Per-core bounded HTM execution engine. */
class HtmMachine
{
  public:
    explicit HtmMachine(Core &core);
    ~HtmMachine();
    HtmMachine(const HtmMachine &) = delete;
    HtmMachine &operator=(const HtmMachine &) = delete;

    /** Begin a hardware transaction (checkpoint). */
    void txBegin();

    /**
     * Commit: drop the speculative tags, making every speculative
     * store permanent.
     * @return false when the transaction was already doomed.
     */
    bool txCommit();

    /** Software-initiated abort (Fig 14's contention-policy abort). */
    void txAbortExplicit();

    /** Reset after a doomed transaction (rollback already happened). */
    void reset();

    bool active() const { return active_; }
    bool doomed() const { return doomed_; }
    HtmAbortCause lastAbortCause() const { return lastCause_; }

    /** Transactional load; aborts are visible via doomed(). */
    std::uint64_t specLoad(Addr a);

    /** Transactional store. */
    void specStore(Addr a, std::uint64_t v);

    std::uint64_t aborts() const { return aborts_; }
    std::uint64_t capacityAborts() const { return capacityAborts_; }

  private:
    /** MemSystem listener path: a speculative line was lost. */
    void onSpecLost(SpecLoss why);

    /** Roll back all speculative stores and doom the transaction. */
    void doAbort(HtmAbortCause cause);

    Core &core_;
    std::vector<std::pair<Addr, std::uint64_t>> undo_;
    bool active_ = false;
    bool doomed_ = false;
    HtmAbortCause lastCause_ = HtmAbortCause::None;
    std::uint64_t aborts_ = 0;
    std::uint64_t capacityAborts_ = 0;
};

} // namespace hastm

#endif // HASTM_HTM_HTM_MACHINE_HH
