/**
 * @file
 * Generic set-associative tag array with true-LRU replacement. Used for
 * the private L1 caches, the shared LLC and the per-core auxiliary tag
 * directories (ATDs). Tracks tags only — the toolkit never models data
 * values, just presence and status bits, like a simulator tag pipeline.
 *
 * Layout: struct-of-arrays, one entry per way slot (slot = set * ways +
 * way) in each of three arrays:
 *   - `tags_`:   resident line number, or kNoTag for an empty way (8 B);
 *   - `stamps_`: global LRU access stamp of the last fill/touch (8 B);
 *   - `state_`:  valid / dirty / coherence-invalidated bits (1 B).
 * A probe scans only the tag array (a 16-way set is two host cache
 * lines); the replacement choice reads the stamps of the same set.
 * Anything a particular cache keeps per line beyond that (the LLC's
 * coherence directory, the L1s' LLC back-pointers) lives with its owner
 * in arrays indexed by the same slot numbers.
 *
 * Probe/fill contract: probe() makes one pass over a set and reports
 * both the slot holding the line (valid or coherence-invalidated) and
 * the slot a fill would take. The fill slot is the line's own resident
 * way when there is one, else the first empty way, else the way with
 * the smallest stamp. fill() installs a line there and returns what it
 * displaced. A slot from probe() stays correct for fill() as long as
 * nothing else changes that set in between.
 */

#ifndef SST_CACHE_SET_ASSOC_HH
#define SST_CACHE_SET_ASSOC_HH

#include <cstdint>
#include <vector>

#include "util/types.hh"

namespace sst {

/**
 * Set-associative tag array. Geometry is (sets x ways); lines are mapped
 * by line number modulo the set count. LRU uses a global access stamp.
 */
class SetAssocArray
{
  public:
    /** Index of one way: set * ways + way. */
    using Slot = std::uint32_t;
    /** "No such slot" (probe miss). */
    static constexpr Slot kNoSlot = ~Slot(0);

    /** What a fill displaced. `line` and `dirty` are meaningful only
     *  when `valid`: empty and coherence-invalidated ways are no live
     *  victim. */
    struct Evicted
    {
        Addr line = 0;
        bool valid = false;
        bool dirty = false;
    };

    /**
     * @param size_bytes total capacity in bytes
     * @param ways associativity
     */
    SetAssocArray(std::uint64_t size_bytes, int ways);

    /** Construct directly from a set count and associativity. */
    static SetAssocArray fromSets(int sets, int ways);

    /** Set index of a line number. */
    std::uint64_t
    setIndex(Addr line) const
    {
        return line & (static_cast<std::uint64_t>(sets_) - 1);
    }

    /**
     * One pass over @p line's set.
     * @param[out] fill when non-null, receives the slot a fill of
     *             @p line would take (see the file comment)
     * @return the slot holding @p line, valid or coherence-invalidated;
     *         kNoSlot if the tag is not resident
     */
    Slot
    probe(Addr line, Slot *fill = nullptr) const
    {
        const std::size_t base = static_cast<std::size_t>(
            setIndex(line) * static_cast<std::uint64_t>(ways_));
        const std::size_t end = base + static_cast<std::size_t>(ways_);
        if (!fill) {
            for (std::size_t i = base; i < end; ++i) {
                // fill() never duplicates a line within a set, so the
                // first tag match is the only one.
                if (tags_[i] == line)
                    return static_cast<Slot>(i);
            }
            return kNoSlot;
        }
        // The LRU candidate is the first minimum in way order among
        // occupied ways; an empty way beats it, the line's own way
        // beats both.
        std::size_t free_way = end;
        std::size_t lru = end;
        for (std::size_t i = base; i < end; ++i) {
            const Addr tag = tags_[i];
            if (tag == line) {
                *fill = static_cast<Slot>(i);
                return static_cast<Slot>(i);
            }
            if (tag == kNoTag) {
                if (free_way == end)
                    free_way = i;
            } else if (lru == end || stamps_[i] < stamps_[lru]) {
                lru = i;
            }
        }
        *fill = static_cast<Slot>(free_way != end ? free_way : lru);
        return kNoSlot;
    }

    /** Slot holding a valid copy of @p line; kNoSlot on miss. */
    Slot
    findValid(Addr line) const
    {
        const Slot s = probe(line);
        return s != kNoSlot && valid(s) ? s : kNoSlot;
    }

    /**
     * Install @p line in @p slot (a fill slot from probe()) as valid,
     * clean and most recently used.
     * @return the line displaced from the slot
     */
    Evicted
    fill(Slot slot, Addr line)
    {
        Evicted out;
        out.line = tags_[slot];
        out.valid = (state_[slot] & kValid) != 0;
        out.dirty = (state_[slot] & kDirty) != 0;
        tags_[slot] = line;
        stamps_[slot] = ++stamp_;
        state_[slot] = kValid;
        return out;
    }

    /** Make @p slot most recently used (call on every hit). */
    void touch(Slot slot) { stamps_[slot] = ++stamp_; }

    /**
     * Invalidate @p line if it is valid.
     * @param keep_tag keep the tag resident and mark it
     *        coherence-invalidated (used by the L1s for coherency-miss
     *        detection); otherwise the way is emptied
     * @return true if the line was valid
     */
    bool invalidate(Addr line, bool keep_tag = false);

    Addr line(Slot slot) const { return tags_[slot]; }
    bool valid(Slot slot) const { return (state_[slot] & kValid) != 0; }
    bool dirty(Slot slot) const { return (state_[slot] & kDirty) != 0; }
    bool
    coherenceInvalidated(Slot slot) const
    {
        return (state_[slot] & kCoherenceInvalidated) != 0;
    }
    /** Mark or clear the dirty bit of a valid line. */
    void
    setDirty(Slot slot, bool dirty)
    {
        state_[slot] = static_cast<std::uint8_t>(
            dirty ? state_[slot] | kDirty : state_[slot] & ~kDirty);
    }

    int sets() const { return sets_; }
    int ways() const { return ways_; }
    /** Number of slots (sets x ways): the bound of every Slot. */
    Slot size() const { return static_cast<Slot>(tags_.size()); }

    /** Number of currently valid entries (test/diagnostic helper). */
    std::uint64_t validCount() const;

    /** Empty every way (flush). */
    void reset();

  private:
    /** No line resident in this way slot. */
    static constexpr Addr kNoTag = ~Addr(0);

    /** state_ bits. */
    static constexpr std::uint8_t kValid = 1;
    static constexpr std::uint8_t kDirty = 2;
    static constexpr std::uint8_t kCoherenceInvalidated = 4;

    SetAssocArray(int sets, int ways, bool);

    int sets_;
    int ways_;
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> state_;
    std::uint64_t stamp_ = 0;
};

} // namespace sst

#endif // SST_CACHE_SET_ASSOC_HH
