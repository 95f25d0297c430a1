/**
 * @file
 * HASTM: the hardware-accelerated software transactional memory
 * (§5, §6).
 *
 * HastmThread replaces the base STM's barrier and validation hot
 * paths with the mark-bit-filtered versions of Figs 5-9:
 *
 *  - object granularity: loadtestmark on the transaction record; a
 *    hit reduces the read barrier from 12 instructions to 2 (Fig 5);
 *  - cache-line granularity: loadtestmark_granularity64 on the datum
 *    itself fuses barrier and data load (Fig 7);
 *  - validation first checks the mark counter and only walks the read
 *    set when marked lines were lost (Fig 6);
 *  - aggressive mode elides read-set logging entirely and commits iff
 *    the mark counter stayed zero (Figs 8/9), falling back to a
 *    cautious re-execution otherwise (§6).
 *
 * The same class provides the paper's ablations and the naive
 * always-aggressive policy via HastmVariant.
 */

#ifndef HASTM_HASTM_HASTM_HH
#define HASTM_HASTM_HASTM_HH

#include "hastm/mode_policy.hh"
#include "stm/stm.hh"

namespace hastm {

/** Which flavour of HASTM to run (Fig 17 / Figs 21-22). */
enum class HastmVariant : std::uint8_t {
    Normal,    //!< adaptive cautious/aggressive policy (§6)
    Cautious,  //!< never aggressive (HASTM-Cautious)
    NoReuse,   //!< no read-barrier filtering (HASTM-NoReuse)
    Naive,     //!< always aggressive first (§7.4)
};

/** A hardware-accelerated software transaction thread. */
class HastmThread : public StmThread
{
  public:
    HastmThread(Core &core, StmGlobals &globals,
                HastmVariant variant = HastmVariant::Normal,
                unsigned num_threads = 1);

    HastmVariant variant() const { return variant_; }

    /** True while the current transaction runs in aggressive mode. */
    bool aggressive() const { return desc_.aggressive(); }

  protected:
    std::uint64_t readShared(Addr data, Addr rec) override;
    void writeBarrier(Addr data, Addr rec) override;
    void postWrite(Addr data, Addr rec) override;
    void undoAppend(Addr data, bool is_ptr) override;
    void validate(bool at_commit) override;
    void beginTop() override;
    void commitHook() override;
    void abortHook() override;
    void waitForChange(unsigned attempt) override;
    bool nestedAtomic(const std::function<void()> &fn) override;

  private:
    /** Object-granularity read barrier (Figs 5/8). */
    std::uint64_t readObjectPath(Addr data, Addr rec);

    /** Cache-line-granularity fused read (Figs 7/9). */
    std::uint64_t readCacheLinePath(Addr data, Addr rec);

    /** Slow-path record check shared by both paths. */
    std::uint64_t checkRecord(Addr rec, std::uint64_t recval);

    bool filterWrites() const;

    /** The write-filtering extension's mark-bit filter id. */
    static constexpr unsigned kWriteFilter = 1;

    HastmVariant variant_;
    ModePolicy policy_;
    bool commitCounterNonZero_ = false;
};

} // namespace hastm

#endif // HASTM_HASTM_HASTM_HH
