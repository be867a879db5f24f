/**
 * @file
 * Spin detection mechanisms (Section 4.3 of the paper).
 *
 * TianSpinDetector implements Tian et al. [14]: a small per-core load
 * table watches load instructions; a load that returns the same value
 * from the same address `markThreshold` times is marked as a potential
 * spin-loop load. When a marked load later observes a *different* value
 * that was written by another core, the interval since the load's first
 * occurrence is reported as spinning time. This is the mechanism the
 * paper adopts (simpler hardware: 8 entries, 217 bytes per core).
 *
 * LiSpinDetector implements Li et al. [11]: backward branches are
 * monitored; if processor state (register state + intervening stores) is
 * unchanged since the previous occurrence of the same backward branch,
 * the elapsed interval is spinning. Implemented for the paper's
 * comparison; `sst explain` shows its stack as an ablation row.
 */

#ifndef SST_SYNC_SPIN_DETECT_HH
#define SST_SYNC_SPIN_DETECT_HH

#include <array>
#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace sst {

/** Load-based spin detector (Tian et al.), one instance per core. */
class TianSpinDetector
{
  public:
    struct Params
    {
        int tableEntries = 8;  ///< spin loops contain at most 8 loads
        int markThreshold = 4; ///< identical loads before marking
    };

    TianSpinDetector() : TianSpinDetector(Params{}) {}
    explicit TianSpinDetector(const Params &params);

    /**
     * Observe one committed load.
     *
     * @param pc load instruction address
     * @param addr effective address
     * @param value loaded value (a version number is sufficient — the
     *        detector only compares for equality)
     * @param written_by_other the last writer of @p addr is another core
     * @param now current cycle
     * @return detected spinning cycles ending now (0 if none)
     */
    Cycles observeLoad(PC pc, Addr addr, std::uint64_t value,
                       bool written_by_other, Cycles now);

    /** Total spinning cycles reported so far. */
    Cycles detectedCycles() const { return detected_; }

    /** Hardware bits of the load table (Section 4.7: 217 bytes/core). */
    static std::uint64_t hardwareBits() { return hardwareBits(Params{}); }
    static std::uint64_t hardwareBits(const Params &params);

  private:
    struct Entry
    {
        bool valid = false;
        bool marked = false;
        PC pc = 0;
        Addr addr = 0;
        std::uint64_t value = 0;
        int count = 0;
        Cycles firstSeen = 0;
        Cycles lastUse = 0;
    };

    Params params_;
    std::vector<Entry> table_;
    Cycles detected_ = 0;
};

/** Backward-branch spin detector (Li et al.), one instance per core. */
class LiSpinDetector
{
  public:
    struct Params
    {
        int tableEntries = 16; ///< monitored backward branches
    };

    LiSpinDetector() : LiSpinDetector(Params{}) {}
    explicit LiSpinDetector(const Params &params);

    /**
     * Observe one backward branch at @p pc with the current compact
     * processor-state hash @p state_hash (callers fold the most recently
     * loaded value and a store serial number into the hash; any non-silent
     * store changes it, per the mechanism's definition).
     * @return spinning cycles accumulated since the branch's previous
     *         occurrence if state is unchanged, else 0
     */
    Cycles observeBackwardBranch(PC pc, std::uint64_t state_hash,
                                 Cycles now);

    Cycles detectedCycles() const { return detected_; }

  private:
    struct Entry
    {
        bool valid = false;
        PC pc = 0;
        std::uint64_t stateHash = 0;
        Cycles lastSeen = 0;
        Cycles lastUse = 0;
    };

    Params params_;
    std::vector<Entry> table_;
    Cycles detected_ = 0;
};

} // namespace sst

#endif // SST_SYNC_SPIN_DETECT_HH
