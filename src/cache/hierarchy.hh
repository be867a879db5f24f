/**
 * @file
 * The two-level cache hierarchy of the simulated CMP: per-core private
 * L1 data caches and a shared, inclusive last-level cache (LLC) with a
 * directory-based MSI write-invalidate coherence protocol. The hierarchy
 * also hosts the per-core ATDs (and optional full-shadow oracle ATDs used
 * by tests and ablations) and classifies every access for the accounting
 * architecture: inter-thread hits/misses, coherency misses, writebacks.
 *
 * Latency is *not* applied here — the hierarchy reports what happened and
 * the core model / DRAM model translate outcomes into cycles. This keeps
 * tag manipulation single-pass and testable in isolation.
 *
 * State beyond the tag arrays (see set_assoc.hh) is kept per slot:
 *   - the directory (`sharers_`, `dirtyOwner_`) in arrays indexed by LLC
 *     slot, so only the LLC pays for it;
 *   - one back-pointer per L1 way (`l1LlcSlot_`) naming the LLC slot of
 *     the line that way holds.
 *
 * Inclusion invariant: every valid L1 line is valid in the LLC at the
 * slot its back-pointer names, with the core's sharer bit set. An LLC
 * line cannot leave its slot without first back-invalidating every L1
 * copy, so the back-pointer of a valid L1 line never goes stale. L1
 * evictions, write upgrades and L1 flushes therefore reach the
 * directory without probing the LLC; each use checks the tag.
 */

#ifndef SST_CACHE_HIERARCHY_HH
#define SST_CACHE_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/atd.hh"
#include "cache/set_assoc.hh"
#include "util/types.hh"

namespace sst {

/**
 * Hard cap on simulated cores: the LLC directory tracks L1 copies in a
 * 64-bit sharers bitmap. Layers that accept a core/thread count from
 * users (driver validation, CLIs) check against this instead of letting
 * the constructor assert abort the process.
 */
inline constexpr int kMaxSimCores = 64;


/** Geometry of the cache hierarchy; defaults follow the paper (Sec. 5). */
struct CacheParams
{
    std::uint64_t l1Bytes = 64 * 1024; ///< private L1D, 64KB
    int l1Ways = 8;
    std::uint64_t llcBytes = 2 * 1024 * 1024; ///< shared L2 = LLC, 2MB
    int llcWays = 16;
    int atdSamplingFactor = 32; ///< monitor every 32nd LLC set
    bool oracleAtds = false;    ///< also keep full-shadow ATDs (testing)
};

/** Everything the rest of the system needs to know about one access. */
struct AccessOutcome
{
    Addr line = 0;
    bool l1Hit = false;
    bool llcHit = false;          ///< meaningful when !l1Hit
    bool coherencyMiss = false;   ///< L1 tag resident but invalidated
    bool dirtyInOtherL1 = false;  ///< needed a cache-to-cache transfer
    bool atdSampled = false;
    bool atdHit = false;
    bool interThreadMiss = false; ///< LLC miss, ATD hit (negative interf.)
    bool interThreadHit = false;  ///< LLC hit, ATD miss (positive interf.)
    bool oracleInterThreadMiss = false; ///< full-shadow classification
    bool oracleInterThreadHit = false;
    bool victimWriteback = false; ///< LLC evicted a dirty line
    Addr victimLine = 0;

    /** Did the access go to DRAM? */
    bool dramAccess() const { return !l1Hit && !llcHit; }
};

/** Per-core ground-truth counters kept by the hierarchy. */
struct CacheStats
{
    std::uint64_t l1Accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t coherencyMisses = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t interThreadHitsSampled = 0;
    std::uint64_t interThreadMissesSampled = 0;
    std::uint64_t oracleInterThreadHits = 0;
    std::uint64_t oracleInterThreadMisses = 0;
    std::uint64_t invalidationsReceived = 0;
    std::uint64_t writebacks = 0;
};

/** Private L1s + shared LLC + coherence + ATDs. */
class CacheHierarchy
{
  public:
    CacheHierarchy(int ncores, const CacheParams &params);

    /**
     * Perform one access by @p core to byte address @p addr.
     * Updates all tag state (L1, LLC, directory, ATDs) and returns the
     * outcome classification.
     */
    AccessOutcome access(CoreId core, Addr addr, bool is_write);

    /**
     * Drop all of @p core's L1 contents (thread migration cost model:
     * the next thread starts with a cold L1).
     */
    void flushL1(CoreId core);

    /** Zero all per-core counters (region-of-interest start). */
    void resetStats();

    const CacheStats &stats(CoreId core) const
    {
        return stats_[static_cast<std::size_t>(core)];
    }

    const Atd &atd(CoreId core) const
    {
        return *atds_[static_cast<std::size_t>(core)];
    }

    int ncores() const { return ncores_; }
    const CacheParams &params() const { return params_; }

    using Slot = SetAssocArray::Slot;

    /** Read-only tag state, for invariant checks. */
    const SetAssocArray &l1(CoreId core) const
    {
        return l1s_[static_cast<std::size_t>(core)];
    }
    const SetAssocArray &llc() const { return llc_; }

    /** LLC slot recorded for @p core's L1 way @p l1_slot (meaningful
     *  while that way holds a valid line). */
    Slot
    l1LlcSlot(CoreId core, Slot l1_slot) const
    {
        return l1LlcSlot_[backIndex(core, l1_slot)];
    }

    /** Directory bitmap of the L1s holding the line in @p llc_slot. */
    std::uint64_t sharers(Slot llc_slot) const { return sharers_[llc_slot]; }

  private:
    std::size_t
    backIndex(CoreId core, Slot l1_slot) const
    {
        return static_cast<std::size_t>(core) * l1Slots_ + l1_slot;
    }

    /** LLC slot of the valid line in @p core's L1 way @p l1_slot. */
    Slot llcSlotOf(CoreId core, Slot l1_slot) const;
    /** Drop @p core from the directory entry of a line leaving its L1;
     *  a dirty copy writes back into the LLC. */
    void dropL1Copy(CoreId core, Slot llc_slot, bool dirty);
    void invalidateOtherL1s(Addr line, CoreId keeper, Slot dir);
    void insertIntoL1(CoreId core, Slot l1_slot, Addr line, bool dirty,
                      Slot dir);

    int ncores_;
    CacheParams params_;
    std::vector<SetAssocArray> l1s_;
    SetAssocArray llc_;
    std::size_t l1Slots_; ///< slots per L1 (all L1s share a geometry)
    /** Per L1 way, core-major: LLC slot of the line held there. */
    std::vector<Slot> l1LlcSlot_;
    /** Per LLC slot: bitmap of L1 copies. */
    std::vector<std::uint64_t> sharers_;
    /** Per LLC slot: core holding the line modified, or kInvalidId. */
    std::vector<CoreId> dirtyOwner_;
    std::vector<std::unique_ptr<Atd>> atds_;
    std::vector<std::unique_ptr<Atd>> oracleAtds_;
    std::vector<CacheStats> stats_;
};

} // namespace sst

#endif // SST_CACHE_HIERARCHY_HH
