#include "hierarchy.hh"

#include "util/logging.hh"

namespace sst {

namespace {

std::uint64_t
bit(CoreId core)
{
    return std::uint64_t(1) << static_cast<unsigned>(core);
}

} // namespace

CacheHierarchy::CacheHierarchy(int ncores, const CacheParams &params)
    : ncores_(ncores), params_(params),
      llc_(params.llcBytes, params.llcWays)
{
    sstAssert(ncores >= 1 && ncores <= kMaxSimCores,
              "CacheHierarchy supports 1.." +
                  std::to_string(kMaxSimCores) + " cores");
    l1s_.reserve(static_cast<std::size_t>(ncores));
    for (int c = 0; c < ncores; ++c) {
        l1s_.emplace_back(params.l1Bytes, params.l1Ways);
        atds_.push_back(std::make_unique<Atd>(
            params.llcBytes, params.llcWays, params.atdSamplingFactor));
        if (params.oracleAtds) {
            oracleAtds_.push_back(std::make_unique<Atd>(
                params.llcBytes, params.llcWays, 1));
        }
    }
    l1Slots_ = l1s_.front().size();
    l1LlcSlot_.assign(static_cast<std::size_t>(ncores) * l1Slots_,
                      SetAssocArray::kNoSlot);
    sharers_.assign(llc_.size(), 0);
    dirtyOwner_.assign(llc_.size(), kInvalidId);
    stats_.resize(static_cast<std::size_t>(ncores));
}

CacheHierarchy::Slot
CacheHierarchy::llcSlotOf(CoreId core, Slot l1_slot) const
{
    const Slot dir = l1LlcSlot_[backIndex(core, l1_slot)];
    const SetAssocArray &l1 = l1s_[static_cast<std::size_t>(core)];
    sstAssert(dir < llc_.size() && llc_.valid(dir) &&
                  llc_.line(dir) == l1.line(l1_slot),
              "inclusion violated: L1 line has no LLC copy at its slot");
    return dir;
}

void
CacheHierarchy::dropL1Copy(CoreId core, Slot dir, bool dirty)
{
    // Silent drop for clean lines; dirty lines write back into the
    // LLC, which then owns the only up-to-date copy.
    sharers_[dir] &= ~bit(core);
    if (dirty) {
        llc_.setDirty(dir, true);
        if (dirtyOwner_[dir] == core)
            dirtyOwner_[dir] = kInvalidId;
    }
}

void
CacheHierarchy::invalidateOtherL1s(Addr line, CoreId keeper, Slot dir)
{
    // Walk set bits (ascending core id, like the old full-core loop)
    // instead of scanning all ncores per upgrade.
    std::uint64_t &sharers = sharers_[dir];
    for (std::uint64_t rest = sharers; rest != 0; rest &= rest - 1) {
        const int c = __builtin_ctzll(rest);
        if (c == keeper)
            continue;
        if (l1s_[static_cast<std::size_t>(c)].invalidate(line,
                                                         /*keep_tag=*/true))
            ++stats_[static_cast<std::size_t>(c)].invalidationsReceived;
        sharers &= ~bit(c);
    }
    if (dirtyOwner_[dir] != kInvalidId && dirtyOwner_[dir] != keeper)
        dirtyOwner_[dir] = kInvalidId;
}

void
CacheHierarchy::insertIntoL1(CoreId core, Slot l1_slot, Addr line,
                             bool dirty, Slot dir)
{
    auto &l1 = l1s_[static_cast<std::size_t>(core)];
    // Evict through the victim's back-pointer before fill() reuses it.
    if (l1.valid(l1_slot))
        dropL1Copy(core, llcSlotOf(core, l1_slot), l1.dirty(l1_slot));
    l1.fill(l1_slot, line);
    l1.setDirty(l1_slot, dirty);
    l1LlcSlot_[backIndex(core, l1_slot)] = dir;
}

AccessOutcome
CacheHierarchy::access(CoreId core, Addr addr, bool is_write)
{
    AccessOutcome out;
    const Addr line = lineNum(addr);
    out.line = line;

    auto &st = stats_[static_cast<std::size_t>(core)];
    auto &l1 = l1s_[static_cast<std::size_t>(core)];
    ++st.l1Accesses;

    // One probe serves the hit test, the coherency-miss classification
    // (the stale tag case) and the choice of way for the miss fill.
    Slot l1_fill = SetAssocArray::kNoSlot;
    const Slot resident = l1.probe(line, &l1_fill);

    // ---- L1 hit path ----------------------------------------------------
    if (resident != SetAssocArray::kNoSlot && l1.valid(resident)) {
        out.l1Hit = true;
        ++st.l1Hits;
        l1.touch(resident);
        if (is_write && !l1.dirty(resident)) {
            // Upgrade: gain exclusivity by invalidating other copies.
            const Slot dir = llcSlotOf(core, resident);
            invalidateOtherL1s(line, core, dir);
            sharers_[dir] = bit(core);
            dirtyOwner_[dir] = core;
            llc_.setDirty(dir, true);
            l1.setDirty(resident, true);
        }
        return out;
    }

    // ---- L1 miss: classify a possible coherency miss ---------------------
    if (resident != SetAssocArray::kNoSlot &&
        l1.coherenceInvalidated(resident)) {
        out.coherencyMiss = true;
        ++st.coherencyMisses;
    }

    // ---- shared LLC access ------------------------------------------------
    ++st.llcAccesses;
    const Atd::Probe probe = atds_[static_cast<std::size_t>(core)]->access(
        line);
    out.atdSampled = probe.sampled;
    out.atdHit = probe.hit;
    Atd::Probe oracle;
    if (params_.oracleAtds) {
        oracle = oracleAtds_[static_cast<std::size_t>(core)]->access(line);
    }

    // On a hit the fill slot is the resident one, so `dir` names the
    // line's LLC slot either way.
    Slot dir = SetAssocArray::kNoSlot;
    const Slot llc_resident = llc_.probe(line, &dir);
    if (llc_resident != SetAssocArray::kNoSlot && llc_.valid(llc_resident)) {
        out.llcHit = true;
        ++st.llcHits;
        llc_.touch(dir);

        // Dirty copy lives in another core's L1: cache-to-cache transfer
        // through the LLC (M -> S on a read, M -> I on a write).
        const CoreId owner = dirtyOwner_[dir];
        if (owner != kInvalidId && owner != core) {
            out.dirtyInOtherL1 = true;
            auto &owner_l1 = l1s_[static_cast<std::size_t>(owner)];
            if (is_write) {
                if (owner_l1.invalidate(line, /*keep_tag=*/true)) {
                    ++stats_[static_cast<std::size_t>(owner)]
                          .invalidationsReceived;
                }
                sharers_[dir] &= ~bit(owner);
            } else {
                const Slot oe = owner_l1.findValid(line);
                if (oe != SetAssocArray::kNoSlot)
                    owner_l1.setDirty(oe, false); // downgrade to shared
            }
            llc_.setDirty(dir, true);
            dirtyOwner_[dir] = kInvalidId;
        }

        if (is_write) {
            invalidateOtherL1s(line, core, dir);
            sharers_[dir] = bit(core);
            dirtyOwner_[dir] = core;
            llc_.setDirty(dir, true);
        } else {
            sharers_[dir] |= bit(core);
        }

        if (probe.sampled && !probe.hit) {
            out.interThreadHit = true;
            ++st.interThreadHitsSampled;
        }
        if (params_.oracleAtds && !oracle.hit) {
            out.oracleInterThreadHit = true;
            ++st.oracleInterThreadHits;
        }
        insertIntoL1(core, l1_fill, line, is_write, dir);
        return out;
    }

    // ---- LLC miss: fill from DRAM -----------------------------------------
    ++st.llcMisses;
    if (probe.sampled && probe.hit) {
        out.interThreadMiss = true;
        ++st.interThreadMissesSampled;
    }
    if (params_.oracleAtds && oracle.hit) {
        out.oracleInterThreadMiss = true;
        ++st.oracleInterThreadMisses;
    }

    const SetAssocArray::Evicted victim = llc_.fill(dir, line);
    if (victim.valid) {
        // Inclusive LLC: back-invalidate every L1 copy of the victim.
        const std::uint64_t victim_sharers = sharers_[dir];
        for (std::uint64_t rest = victim_sharers; rest != 0;
             rest &= rest - 1) {
            const int c = __builtin_ctzll(rest);
            l1s_[static_cast<std::size_t>(c)].invalidate(
                victim.line, /*keep_tag=*/false);
        }
        // A copy dropped from this core's L1 may have emptied a way of
        // the set the fill goes to; the empty way must win, so choose
        // again.
        if (victim_sharers & bit(core))
            l1.probe(line, &l1_fill);
        if (victim.dirty || dirtyOwner_[dir] != kInvalidId) {
            out.victimWriteback = true;
            out.victimLine = victim.line;
            ++st.writebacks;
        }
    }
    sharers_[dir] = bit(core);
    dirtyOwner_[dir] = is_write ? core : kInvalidId;
    llc_.setDirty(dir, is_write);
    insertIntoL1(core, l1_fill, line, is_write, dir);
    return out;
}

void
CacheHierarchy::resetStats()
{
    for (auto &st : stats_)
        st = CacheStats{};
}

void
CacheHierarchy::flushL1(CoreId core)
{
    auto &l1 = l1s_[static_cast<std::size_t>(core)];
    for (Slot s = 0; s < l1.size(); ++s) {
        if (l1.valid(s))
            dropL1Copy(core, llcSlotOf(core, s), l1.dirty(s));
    }
    l1.reset();
}

} // namespace sst
