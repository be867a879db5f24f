/**
 * @file
 * Unit tests for the cache hierarchy: L1/LLC paths, MSI coherence,
 * coherency-miss classification, inter-thread classification, inclusion
 * and writebacks; the inclusion invariant behind the L1 -> LLC
 * back-pointers under random streams; and per-core counters pinned on
 * seeded streams.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "util/rng.hh"

namespace sst {
namespace {

CacheParams
smallParams()
{
    CacheParams p;
    p.l1Bytes = 4 * 1024;
    p.l1Ways = 4;
    p.llcBytes = 64 * 1024;
    p.llcWays = 8;
    p.atdSamplingFactor = 1; // sample everything for deterministic tests
    return p;
}

TEST(Hierarchy, ColdMissThenHits)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x1000;
    const AccessOutcome first = h.access(0, addr, false);
    EXPECT_FALSE(first.l1Hit);
    EXPECT_FALSE(first.llcHit);
    EXPECT_TRUE(first.dramAccess());

    const AccessOutcome second = h.access(0, addr, false);
    EXPECT_TRUE(second.l1Hit);
    EXPECT_EQ(h.stats(0).l1Hits, 1u);
    EXPECT_EQ(h.stats(0).llcMisses, 1u);
}

TEST(Hierarchy, SecondCoreHitsLlcNotL1)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x2000;
    h.access(0, addr, false);
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.llcHit);
    // Core 1 never brought it privately: inter-thread hit.
    EXPECT_TRUE(out.interThreadHit);
}

TEST(Hierarchy, WriteInvalidatesOtherL1Copies)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x3000;
    h.access(0, addr, false);
    h.access(1, addr, false);
    // Core 1 writes: core 0's copy must be invalidated.
    h.access(1, addr, true);
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.coherencyMiss);
    EXPECT_TRUE(out.llcHit);
    EXPECT_EQ(h.stats(0).invalidationsReceived, 1u);
    EXPECT_EQ(h.stats(0).coherencyMisses, 1u);
}

TEST(Hierarchy, DirtyInOtherL1TriggersTransfer)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x4000;
    h.access(0, addr, true); // core 0 has the line modified
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_TRUE(out.llcHit);
    EXPECT_TRUE(out.dirtyInOtherL1);
}

TEST(Hierarchy, WriteHitUpgradeGainsExclusivity)
{
    CacheHierarchy h(2, smallParams());
    const Addr addr = 0x5000;
    h.access(0, addr, false);
    h.access(1, addr, false);
    // Core 0 upgrades its shared copy.
    const AccessOutcome up = h.access(0, addr, true);
    EXPECT_TRUE(up.l1Hit);
    // Core 1 re-reads: coherency miss + dirty transfer from core 0.
    const AccessOutcome re = h.access(1, addr, false);
    EXPECT_TRUE(re.coherencyMiss);
    EXPECT_TRUE(re.dirtyInOtherL1);
}

TEST(Hierarchy, InterThreadMissClassification)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    // Core 0 loads a line; core 1 thrashes the LLC set until it is
    // evicted; core 0's re-access misses the LLC but hits its ATD.
    const Addr line0 = 0;
    h.access(0, line0 * kLineBytes, false);
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        h.access(1,
                 static_cast<Addr>(w) * static_cast<Addr>(sets) *
                     kLineBytes,
                 false);
    }
    const AccessOutcome out = h.access(0, line0, false);
    EXPECT_FALSE(out.llcHit);
    EXPECT_TRUE(out.interThreadMiss)
        << "evicted by another core but resident in the private shadow";
}

TEST(Hierarchy, InclusiveBackInvalidation)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    const Addr addr = 0;
    h.access(0, addr, false);
    // Evict the line from the LLC via core 1's conflicting traffic.
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        h.access(1,
                 static_cast<Addr>(w) * static_cast<Addr>(sets) *
                     kLineBytes,
                 false);
    }
    // Core 0's L1 copy must be gone (inclusion).
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_FALSE(out.coherencyMiss) << "capacity, not coherence";
}

TEST(Hierarchy, DirtyVictimWritesBack)
{
    CacheParams params = smallParams();
    CacheHierarchy h(1, params);
    const Addr addr = 0;
    h.access(0, addr, true); // dirty line
    const int sets = static_cast<int>(params.llcBytes / kLineBytes) /
                     params.llcWays;
    bool saw_writeback = false;
    for (int w = 1; w <= params.llcWays + 2; ++w) {
        const AccessOutcome out = h.access(
            0,
            static_cast<Addr>(w) * static_cast<Addr>(sets) * kLineBytes,
            false);
        if (out.victimWriteback && out.victimLine == lineNum(addr))
            saw_writeback = true;
    }
    EXPECT_TRUE(saw_writeback);
}

TEST(Hierarchy, L1EvictionWritesDirtyDataToLlc)
{
    CacheParams params = smallParams();
    CacheHierarchy h(2, params);
    const Addr addr = 0;
    h.access(0, addr, true); // modified in core 0's L1
    // Evict from core 0's L1 (4KB, 4 ways -> 16 sets).
    const int l1_sets = static_cast<int>(params.l1Bytes / kLineBytes) /
                        params.l1Ways;
    for (int w = 1; w <= params.l1Ways + 1; ++w) {
        h.access(0,
                 static_cast<Addr>(w) * static_cast<Addr>(l1_sets) *
                     kLineBytes,
                 false);
    }
    // Core 1 reads: data must come from the LLC without a dirty
    // transfer (the writeback already happened).
    const AccessOutcome out = h.access(1, addr, false);
    EXPECT_TRUE(out.llcHit);
    EXPECT_FALSE(out.dirtyInOtherL1);
}

TEST(Hierarchy, FlushL1DropsPrivateCopies)
{
    CacheHierarchy h(1, smallParams());
    const Addr addr = 0x7000;
    h.access(0, addr, false);
    h.flushL1(0);
    const AccessOutcome out = h.access(0, addr, false);
    EXPECT_FALSE(out.l1Hit);
    EXPECT_TRUE(out.llcHit);
}

TEST(Hierarchy, ResetStatsZeroesCounters)
{
    CacheHierarchy h(1, smallParams());
    h.access(0, 0x1000, false);
    h.resetStats();
    EXPECT_EQ(h.stats(0).l1Accesses, 0u);
    EXPECT_EQ(h.stats(0).llcMisses, 0u);
}

TEST(Hierarchy, OracleAtdsTrackEverything)
{
    CacheParams params = smallParams();
    params.atdSamplingFactor = 8;
    params.oracleAtds = true;
    CacheHierarchy h(2, params);
    h.access(0, 0x100 * kLineBytes, false);
    const AccessOutcome out = h.access(1, 0x100 * kLineBytes, false);
    EXPECT_TRUE(out.oracleInterThreadHit);
}

// ---- seeded streams -------------------------------------------------------

/**
 * Drive @p h with a seeded stream. Each access picks a random core and
 * one of three address classes:
 *   - the core's hot line, which stays MRU in its L1 but ages in the
 *     LLC (L1 hits do not touch LLC stamps), so LLC misses keep
 *     back-invalidating lines in the requesting core's own L1 set;
 *   - one of 32 lines shared by every core (upgrades, invalidations,
 *     dirty transfers, coherency misses);
 *   - a line from a footprint four times the LLC (capacity misses).
 * About one step in 500 flushes the chosen core's L1 instead.
 * @p after_each runs after every step.
 */
template <typename AfterEach>
void
driveStream(CacheHierarchy &h, std::uint64_t seed, int steps,
            AfterEach &&after_each)
{
    Rng rng(seed);
    const Addr llc_lines = h.params().llcBytes / kLineBytes;
    for (int i = 0; i < steps; ++i) {
        const CoreId core = static_cast<CoreId>(
            rng.below(static_cast<std::uint64_t>(h.ncores())));
        if (rng.chance(0.002)) {
            h.flushL1(core);
            after_each();
            continue;
        }
        Addr line = 0;
        switch (rng.below(4)) {
        case 0:
            line = 4 * llc_lines + static_cast<Addr>(core);
            break;
        case 1:
            line = 4 * llc_lines + 1024 + rng.below(32);
            break;
        default:
            line = rng.below(4 * llc_lines);
            break;
        }
        h.access(core, line * kLineBytes, rng.chance(0.3));
        after_each();
    }
}

/** Every valid L1 line's back-pointer names a valid LLC slot holding
 *  the line, with the core's sharer bit set. */
void
expectInclusion(const CacheHierarchy &h, int step)
{
    const SetAssocArray &llc = h.llc();
    for (CoreId c = 0; c < h.ncores(); ++c) {
        const SetAssocArray &l1 = h.l1(c);
        for (SetAssocArray::Slot s = 0; s < l1.size(); ++s) {
            if (!l1.valid(s))
                continue;
            const SetAssocArray::Slot dir = h.l1LlcSlot(c, s);
            ASSERT_LT(dir, llc.size()) << "core " << c << " step " << step;
            ASSERT_TRUE(llc.valid(dir)) << "core " << c << " step " << step;
            ASSERT_EQ(llc.line(dir), l1.line(s))
                << "core " << c << " step " << step;
            ASSERT_NE(h.sharers(dir) & (std::uint64_t(1) << c), 0u)
                << "core " << c << " step " << step;
        }
    }
}

class HierarchyStreams : public ::testing::TestWithParam<int>
{
};

TEST_P(HierarchyStreams, BackPointersKeepInclusion)
{
    const int ncores = GetParam();
    CacheHierarchy h(ncores, smallParams());
    int step = 0;
    driveStream(h, 1000 + static_cast<std::uint64_t>(ncores), 4000,
                [&] { expectInclusion(h, step++); });
    EXPECT_EQ(step, 4000);
}

INSTANTIATE_TEST_SUITE_P(Cores, HierarchyStreams,
                         ::testing::Values(1, 4, 16, 64));

/** A core's CacheStats as one array, in declaration order. */
std::array<std::uint64_t, 12>
fields(const CacheStats &s)
{
    return {s.l1Accesses,
            s.l1Hits,
            s.coherencyMisses,
            s.llcAccesses,
            s.llcHits,
            s.llcMisses,
            s.interThreadHitsSampled,
            s.interThreadMissesSampled,
            s.oracleInterThreadHits,
            s.oracleInterThreadMisses,
            s.invalidationsReceived,
            s.writebacks};
}

// The expected counters below were captured from the cache model
// before it moved to per-slot state; the layout change must not move
// any of them.

TEST(HierarchyPinned, FourCoreStreamCounters)
{
    CacheHierarchy h(4, smallParams());
    driveStream(h, 4, 20000, [] {});
    const std::array<std::array<std::uint64_t, 12>, 4> expected = {{
        {5040, 1724, 182, 3316, 1370, 1946, 384, 251, 0, 0, 450, 639},
        {5037, 1711, 156, 3326, 1364, 1962, 370, 260, 0, 0, 429, 630},
        {4931, 1654, 175, 3277, 1359, 1918, 372, 242, 0, 0, 434, 573},
        {4957, 1696, 169, 3261, 1337, 1924, 388, 242, 0, 0, 437, 557},
    }};
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(fields(h.stats(c)), expected[static_cast<std::size_t>(c)])
            << "core " << c;
}

TEST(HierarchyPinned, SixtyFourCoreStreamCounters)
{
    // Hits the re-probe after a back-invalidation frees a way in the
    // requesting core's L1 set: skipping it moves coherencyMisses.
    CacheHierarchy h(64, smallParams());
    driveStream(h, 64, 40000, [] {});
    std::array<std::uint64_t, 12> totals{};
    std::uint64_t digest = 0xcbf29ce484222325ULL; // FNV-1a, per byte
    for (CoreId c = 0; c < 64; ++c) {
        const std::array<std::uint64_t, 12> f = fields(h.stats(c));
        for (std::size_t i = 0; i < f.size(); ++i) {
            totals[i] += f[i];
            for (int b = 0; b < 8; ++b) {
                digest ^= (f[i] >> (8 * b)) & 0xff;
                digest *= 0x100000001b3ULL;
            }
        }
    }
    const std::array<std::uint64_t, 12> expected = {
        39911, 9260, 4685, 30651, 13770, 16881,
        6178,  1555, 0,    0,     10528, 6201};
    EXPECT_EQ(totals, expected);
    EXPECT_EQ(digest, 0xbe78e72e1535083aULL);
}

TEST(HierarchyPinned, BackInvalidatedWayIsReusedByTheFill)
{
    // Hot line A stays MRU in the L1 but LRU in the LLC. The 8th
    // conflicting line B8 evicts A from the LLC, back-invalidating A
    // out of the same L1 set; B8 must take A's freed way, not evict
    // the L1's LRU line B5.
    CacheParams params = smallParams();
    CacheHierarchy h(1, params);
    const Addr llc_sets = params.llcBytes / kLineBytes /
                          static_cast<Addr>(params.llcWays);
    for (Addr i = 1; i <= 8; ++i) {
        h.access(0, 0, false);
        h.access(0, i * llc_sets * kLineBytes, false);
    }
    EXPECT_TRUE(h.access(0, 5 * llc_sets * kLineBytes, false).l1Hit);
    const std::array<std::uint64_t, 12> expected = {17, 8, 0, 9, 0, 9,
                                                    0,  0, 0, 0, 0, 0};
    EXPECT_EQ(fields(h.stats(0)), expected);
}

} // namespace
} // namespace sst
