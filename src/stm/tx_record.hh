/**
 * @file
 * Transaction records (§4).
 *
 * A transaction record is a pointer-sized word associated with each
 * datum accessed inside a transaction. It is either
 *  - shared:    an odd-valued version number, or
 *  - exclusive: the (word-aligned, hence even) simulated address of
 *               the owning transaction's descriptor.
 *
 * Two mappings from datum to record are supported (§4):
 *  - object granularity: every object embeds a record in its header;
 *  - cache-line granularity: the datum's address offsets into a table
 *    of line-aligned records. The paper's table is a single global
 *    256 KiB array indexed by address bits 6..17:
 *        rec = TxRecTableBase + (addr & 0x3ffc0)
 *
 * This implementation generalises the paper's table into a *sharded*
 * record table: the table is split into one shard per registered
 * MemArena region (heap arenas partition the simulated address
 * space), each shard with configurable geometry (records-per-shard,
 * optional multiplicative hash mix). Two addresses in different
 * regions then never alias onto one record, eliminating the false
 * conflicts a single global table manufactures between unrelated
 * working sets. The default geometry is exactly the paper's single
 * table, so fig11-fig22 reproduce the paper unchanged.
 */

#ifndef HASTM_STM_TX_RECORD_HH
#define HASTM_STM_TX_RECORD_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace hastm {

class MemArena;
class SimAllocator;

namespace txrec {

/** Version numbers are odd; descriptors are 64-byte aligned. */
constexpr std::uint64_t kInitialVersion = 1;

/** True when @p v encodes a version number (record is shared). */
inline bool
isVersion(std::uint64_t v)
{
    return (v & 1) != 0;
}

/** The version that follows @p v after a committed release. */
inline std::uint64_t
nextVersion(std::uint64_t v)
{
    return v + 2;
}

/** Records are line-aligned to prevent ping-ponging (§4). */
constexpr unsigned kLineLog2 = 6;

/** The paper's geometry: 4096 records == address bits 6..17. */
constexpr unsigned kDefaultLog2Records = 12;

/** Accepted StmConfig::recShardLog2Records range (16 records .. 16 Mi
 *  records / 1 GiB per shard would never fit the arena; 2^20 is an
 *  ample ceiling). */
constexpr unsigned kMinLog2Records = 4;
constexpr unsigned kMaxLog2Records = 20;

/** Line-index mask selecting a record for a shard of 2^log2 records. */
constexpr Addr
maskFor(unsigned log2_records)
{
    return ((Addr(1) << log2_records) - 1) << kLineLog2;
}

/** Shard span in bytes: one 64-byte line per record. */
constexpr std::size_t
bytesFor(unsigned log2_records)
{
    return std::size_t(1) << (log2_records + kLineLog2);
}

/** Mask extracting address bits 6..17 (the paper's 0x3ffc0). */
constexpr Addr kTableMask = maskFor(kDefaultLog2Records);

/** Table span implied by the mask: 4096 records, 64 bytes apart. */
constexpr std::size_t kTableBytes = bytesFor(kDefaultLog2Records);

// The whole geometry derives from kDefaultLog2Records; these pin the
// derivation to the paper's constants so configurable shard sizes
// cannot drift out of sync with the mask/span relationship.
static_assert(kTableMask == 0x3ffc0,
              "default geometry must be the paper's bits 6..17 table");
static_assert(kTableBytes == kTableMask + (std::size_t(1) << kLineLog2),
              "table span must be mask + one line");
static_assert((kTableBytes & (kTableBytes - 1)) == 0,
              "table span must be a power of two");

/** Fibonacci multiplier shared by the word hash and the line mix. */
constexpr std::uint64_t kHashMult = 0x9e3779b97f4a7c15ull;

/**
 * log2 of a record count; fatal config error unless @p records is a
 * power of two in [2^kMinLog2Records, 2^kMaxLog2Records]. CLI front
 * ends funnel user-supplied shard sizes through this.
 */
unsigned log2ForRecords(std::size_t records);

/**
 * Byte offset of the record covering line-granularity datum @p data
 * within a table of geometry (@p mask, @p hash_mix). At the paper's
 * geometry (kTableMask, no mix) this is data & kTableMask, the
 * native backend's fixed mapping, so a datum maps to the same record
 * slot on both substrates.
 */
inline Addr
lineRecOffset(Addr data, Addr mask, bool hash_mix)
{
    if (hash_mix) {
        Addr line = data >> kLineLog2;
        Addr h = line * kHashMult;
        return (h >> 33 << kLineLog2) & mask;
    }
    return data & mask;
}

/** Byte offset of the record keyed by the 8-byte word at @p data. */
inline Addr
wordRecOffset(Addr data, Addr mask)
{
    Addr word = data >> 3;
    Addr h = word * kHashMult;
    return (h >> 20 << kLineLog2) & mask;
}

} // namespace txrec

/** Geometry of one record-table instance (StmConfig::recShard*). */
struct TxRecGeometry
{
    unsigned log2Records = txrec::kDefaultLog2Records;
    /**
     * Mix the line index multiplicatively before slicing record bits,
     * decorrelating the record from the low address bits (two
     * addresses a shard-span apart no longer collide by construction).
     * The mix is keyed on the *line* index only, so one line still
     * maps to one record — HASTM's per-line mark filtering stays
     * sound.
     */
    bool hashMix = false;
    /** One shard per registered MemArena region; addresses outside
     *  every region fall back to shard 0 (the global table). */
    bool perArenaShards = false;
};

/**
 * The transaction-record table used for cache-line and word
 * granularity conflict detection. Each record occupies its own cache
 * line to prevent ping-ponging (§4).
 *
 * Shard 0 is always present and serves every address not covered by
 * a region shard; with TxRecGeometry::perArenaShards the table
 * listens for MemArena::defineRegion and lazily allocates one shard
 * per region. The region→shard resolution is one host-side directory
 * load (indexed by line number), so the barrier hot path stays
 * branch-light; the directory itself is host metadata and charges no
 * simulated cycles (the simulated cost is charged explicitly in
 * StmThread::chargeRecCompute).
 */
class TxRecordTable
{
  public:
    /** Allocate and initialise shard 0 (all records shared, v1). */
    TxRecordTable(MemArena &arena, SimAllocator &heap,
                  TxRecGeometry geo = {});
    ~TxRecordTable();
    TxRecordTable(const TxRecordTable &) = delete;
    TxRecordTable &operator=(const TxRecordTable &) = delete;

    /** Record address for datum address @p data (line granularity). */
    Addr
    recordFor(Addr data) const
    {
        return bases_[shardIndexFor(data)] +
               txrec::lineRecOffset(data, mask_, hashMix_);
    }

    /**
     * Record address keyed by the 8-byte word instead of the cache
     * line: two words on one line map to different records, removing
     * line-level false conflicts at the price of touching more
     * records per transaction. Records stay line-aligned to avoid
     * ping-ponging; the hash mixes the word index so neighbouring
     * words do not collide into neighbouring records.
     */
    Addr
    recordForWord(Addr data) const
    {
        return bases_[shardIndexFor(data)] +
               txrec::wordRecOffset(data, mask_);
    }

    /**
     * Shard covering @p data. The directory has one entry per arena
     * line so region boundaries resolve exactly; indexing is masked
     * (not bounds-checked) because HyTM barriers can present a doomed
     * transaction's garbage address — any in-bounds entry is a valid
     * (if arbitrary) deterministic mapping for such a zombie access.
     */
    unsigned
    shardIndexFor(Addr data) const
    {
        if (dir_.empty())
            return 0;
        return dir_[(data >> txrec::kLineLog2) & dirMask_];
    }

    Addr base() const { return bases_[0]; }
    Addr shardBase(unsigned shard) const { return bases_[shard]; }
    unsigned numShards() const { return unsigned(bases_.size()); }
    Addr mask() const { return mask_; }
    bool hashMix() const { return hashMix_; }
    std::size_t shardBytes() const { return shardBytes_; }

  private:
    Addr allocShard();
    void coverRegion(Addr base, std::size_t bytes);

    MemArena &arena_;
    SimAllocator &heap_;
    Addr mask_;
    std::size_t shardBytes_;
    bool hashMix_;
    bool perArena_;
    std::vector<Addr> bases_;

    /** Line number → shard index; empty unless perArena regions exist. */
    std::vector<std::uint8_t> dir_;
    Addr dirMask_ = 0;

    std::size_t listenerId_ = 0;
    bool listening_ = false;
};

} // namespace hastm

#endif // HASTM_STM_TX_RECORD_HH
