#include "set_assoc.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace sst {

SetAssocArray::SetAssocArray(std::uint64_t size_bytes, int ways)
    : SetAssocArray(static_cast<int>(size_bytes / kLineBytes /
                                     static_cast<std::uint64_t>(ways)),
                    ways, true)
{
}

SetAssocArray::SetAssocArray(int sets, int ways, bool)
    : sets_(sets), ways_(ways)
{
    sstAssert(ways_ > 0, "cache needs at least one way");
    sstAssert(sets_ > 0, "cache needs at least one set");
    sstAssert(isPow2(static_cast<std::uint64_t>(sets_)),
              "cache set count must be a power of two");
    const std::uint64_t slots = static_cast<std::uint64_t>(sets_) *
                                static_cast<std::uint64_t>(ways_);
    sstAssert(slots < kNoSlot, "cache has too many ways to index");
    tags_.assign(static_cast<std::size_t>(slots), kNoTag);
    stamps_.assign(static_cast<std::size_t>(slots), 0);
    state_.assign(static_cast<std::size_t>(slots), 0);
}

SetAssocArray
SetAssocArray::fromSets(int sets, int ways)
{
    return SetAssocArray(sets, ways, true);
}

bool
SetAssocArray::invalidate(Addr line, bool keep_tag)
{
    const Slot s = findValid(line);
    if (s == kNoSlot)
        return false;
    if (keep_tag) {
        // Still resident: the tag stays in the probe array.
        state_[s] = kCoherenceInvalidated;
    } else {
        tags_[s] = kNoTag;
        stamps_[s] = 0;
        state_[s] = 0;
    }
    return true;
}

void
SetAssocArray::reset()
{
    tags_.assign(tags_.size(), kNoTag);
    stamps_.assign(stamps_.size(), 0);
    state_.assign(state_.size(), 0);
}

std::uint64_t
SetAssocArray::validCount() const
{
    std::uint64_t n = 0;
    for (const std::uint8_t st : state_) {
        if (st & kValid)
            ++n;
    }
    return n;
}

} // namespace sst
