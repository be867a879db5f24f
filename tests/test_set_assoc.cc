/**
 * @file
 * Unit and property tests for the set-associative tag array: LRU
 * behaviour, invalidation semantics, and geometry sweeps.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"

namespace sst {
namespace {

using Slot = SetAssocArray::Slot;
constexpr Slot kNoSlot = SetAssocArray::kNoSlot;

/** Probe-then-fill as the cache models do: fill @p line into the way
 *  probe() chose and return what it displaced. */
SetAssocArray::Evicted
insert(SetAssocArray &a, Addr line)
{
    Slot fill = kNoSlot;
    a.probe(line, &fill);
    return a.fill(fill, line);
}

TEST(SetAssoc, HitAfterInsert)
{
    SetAssocArray a(64 * 1024, 8);
    EXPECT_EQ(a.findValid(100), kNoSlot);
    insert(a, 100);
    const Slot s = a.findValid(100);
    ASSERT_NE(s, kNoSlot);
    EXPECT_TRUE(a.valid(s));
    EXPECT_FALSE(a.dirty(s));
    EXPECT_EQ(a.line(s), 100u);
}

TEST(SetAssoc, LruEvictsOldest)
{
    // 2 sets x 2 ways; fill one set and overflow it.
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    const Addr s0_a = 0, s0_b = 2, s0_c = 4; // all map to set 0
    insert(a, s0_a);
    insert(a, s0_b);
    // Touch a so b becomes LRU.
    a.touch(a.findValid(s0_a));
    const SetAssocArray::Evicted victim = insert(a, s0_c);
    EXPECT_TRUE(victim.valid);
    EXPECT_EQ(victim.line, s0_b);
    EXPECT_NE(a.findValid(s0_a), kNoSlot);
    EXPECT_EQ(a.findValid(s0_b), kNoSlot);
    EXPECT_NE(a.findValid(s0_c), kNoSlot);
}

TEST(SetAssoc, InsertPrefersFreeWay)
{
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    insert(a, 0);
    const SetAssocArray::Evicted victim = insert(a, 2); // free way left
    EXPECT_FALSE(victim.valid);
}

TEST(SetAssoc, ProbeReportsResidentAndFillSlot)
{
    SetAssocArray a = SetAssocArray::fromSets(1, 4);
    Slot fill = kNoSlot;
    EXPECT_EQ(a.probe(10, &fill), kNoSlot);
    EXPECT_EQ(fill, 0u); // first free way
    a.fill(fill, 10);
    EXPECT_EQ(a.probe(10, &fill), 0u);
    EXPECT_EQ(fill, 0u); // a resident line fills its own way
    EXPECT_EQ(a.probe(11, &fill), kNoSlot);
    EXPECT_EQ(fill, 1u);
    EXPECT_EQ(a.probe(10), 0u); // the fill-less probe agrees
}

TEST(SetAssoc, ProbePicksFirstFreeWayOverLru)
{
    SetAssocArray a = SetAssocArray::fromSets(1, 4);
    for (Addr l = 0; l < 4; ++l)
        insert(a, l);
    a.invalidate(2);
    a.invalidate(1);
    Slot fill = kNoSlot;
    a.probe(9, &fill);
    EXPECT_EQ(fill, 1u) << "lowest empty way wins";
}

TEST(SetAssoc, DirtyBitRoundTripsAndIsEvicted)
{
    SetAssocArray a = SetAssocArray::fromSets(1, 1);
    insert(a, 5);
    const Slot s = a.findValid(5);
    a.setDirty(s, true);
    EXPECT_TRUE(a.dirty(s));
    const SetAssocArray::Evicted victim = insert(a, 6);
    EXPECT_TRUE(victim.valid);
    EXPECT_TRUE(victim.dirty);
    EXPECT_EQ(victim.line, 5u);
    EXPECT_FALSE(a.dirty(a.findValid(6))) << "a fill is clean";
}

TEST(SetAssoc, InvalidateKeepTagMarksCoherence)
{
    SetAssocArray a(4 * 1024, 4);
    insert(a, 42);
    EXPECT_TRUE(a.invalidate(42, /*keep_tag=*/true));
    EXPECT_EQ(a.findValid(42), kNoSlot);
    const Slot stale = a.probe(42);
    ASSERT_NE(stale, kNoSlot);
    EXPECT_TRUE(a.coherenceInvalidated(stale));
    EXPECT_FALSE(a.valid(stale));
}

TEST(SetAssoc, InvalidateDropRemovesEntry)
{
    SetAssocArray a(4 * 1024, 4);
    insert(a, 42);
    EXPECT_TRUE(a.invalidate(42, /*keep_tag=*/false));
    EXPECT_EQ(a.probe(42), kNoSlot);
}

TEST(SetAssoc, InvalidateMissingReturnsFalse)
{
    SetAssocArray a(4 * 1024, 4);
    EXPECT_FALSE(a.invalidate(7));
}

TEST(SetAssoc, ReinsertReusesCoherenceInvalidatedEntry)
{
    SetAssocArray a = SetAssocArray::fromSets(2, 2);
    insert(a, 0);
    const Slot before = a.probe(0);
    a.invalidate(0, /*keep_tag=*/true);
    Slot fill = kNoSlot;
    EXPECT_EQ(a.probe(0, &fill), before);
    EXPECT_EQ(fill, before) << "the stale tag's way is reused";
    const SetAssocArray::Evicted victim = a.fill(fill, 0);
    EXPECT_FALSE(victim.valid); // no live line displaced
    EXPECT_TRUE(a.valid(fill));
    EXPECT_FALSE(a.coherenceInvalidated(fill));
}

TEST(SetAssoc, ValidCountAndReset)
{
    SetAssocArray a(4 * 1024, 4);
    EXPECT_EQ(a.validCount(), 0u);
    insert(a, 1);
    insert(a, 2);
    EXPECT_EQ(a.validCount(), 2u);
    a.invalidate(1);
    EXPECT_EQ(a.validCount(), 1u);
    a.reset();
    EXPECT_EQ(a.validCount(), 0u);
    EXPECT_EQ(a.probe(2), kNoSlot);
}

/** Property sweep over geometries: capacity is respected and a working
 *  set no larger than one set's ways never evicts. */
class SetAssocGeometry
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(SetAssocGeometry, WorkingSetWithinWaysNeverEvicts)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a = SetAssocArray::fromSets(sets, ways);

    // `ways` lines in the same set, accessed round-robin: no evictions.
    for (int round = 0; round < 4; ++round) {
        for (int w = 0; w < ways; ++w) {
            const Addr line = static_cast<Addr>(w) *
                              static_cast<Addr>(sets);
            Slot fill = kNoSlot;
            const Slot s = a.probe(line, &fill);
            if (s != kNoSlot && a.valid(s))
                a.touch(s);
            else
                EXPECT_FALSE(a.fill(fill, line).valid);
        }
    }
    EXPECT_EQ(a.validCount(), static_cast<std::uint64_t>(ways));
}

TEST_P(SetAssocGeometry, CapacityBound)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a = SetAssocArray::fromSets(sets, ways);
    EXPECT_EQ(a.size(), static_cast<Slot>(sets * ways));
    for (Addr line = 0; line < static_cast<Addr>(4 * sets * ways); ++line)
        insert(a, line);
    EXPECT_LE(a.validCount(),
              static_cast<std::uint64_t>(sets) *
                  static_cast<std::uint64_t>(ways));
}

TEST_P(SetAssocGeometry, ProbeSlotsStayInTheLinesSet)
{
    const auto [sets, ways] = GetParam();
    SetAssocArray a = SetAssocArray::fromSets(sets, ways);
    for (Addr line = 0; line < static_cast<Addr>(3 * sets * ways);
         line += 3) {
        Slot fill = kNoSlot;
        a.probe(line, &fill);
        ASSERT_LT(fill, a.size());
        EXPECT_EQ(fill / static_cast<Slot>(ways), a.setIndex(line));
        a.fill(fill, line);
        EXPECT_EQ(a.findValid(line), fill);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocGeometry,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(2, 4),
                      std::make_tuple(16, 8), std::make_tuple(64, 16),
                      std::make_tuple(2048, 16)));

} // namespace
} // namespace sst
