/// \file
/// Virtual Domain Table tests: radix structure, chained areas, trimming.

#include <gtest/gtest.h>

#include "kernel/vdt.h"

namespace vdom::kernel {
namespace {

TEST(Vdt, AddAndLookup)
{
    Vdt vdt;
    vdt.add_area(5, VdtArea{100, 10, false});
    vdt.add_area(5, VdtArea{300, 4, false});
    const auto &areas = vdt.areas(5);
    ASSERT_EQ(areas.size(), 2u);
    EXPECT_EQ(areas[0].start, 100u);
    EXPECT_EQ(areas[1].pages, 4u);
    EXPECT_EQ(vdt.protected_pages(5), 14u);
}

TEST(Vdt, EmptyForUnknownVdom)
{
    Vdt vdt;
    EXPECT_TRUE(vdt.areas(42).empty());
    EXPECT_EQ(vdt.protected_pages(42), 0u);
}

TEST(Vdt, SparseIdsShareNothing)
{
    Vdt vdt;
    // Ids in different leaves of the radix (leaf covers 1024 ids).
    vdt.add_area(1, VdtArea{0, 1, false});
    vdt.add_area(5000, VdtArea{10, 2, false});
    vdt.add_area(1000000, VdtArea{20, 3, false});
    EXPECT_EQ(vdt.areas(1).size(), 1u);
    EXPECT_EQ(vdt.areas(5000).size(), 1u);
    EXPECT_EQ(vdt.areas(1000000).size(), 1u);
    EXPECT_EQ(vdt.num_leaves(), 3u);
}

TEST(Vdt, UnseenSlotInAnExistingLeafIsEmpty)
{
    Vdt vdt;
    vdt.add_area(3, VdtArea{100, 10, false});
    ASSERT_EQ(vdt.num_leaves(), 1u);
    // Slot 700 shares slot 3's leaf but was never chained: one past the
    // chained slots, and one far past them.
    for (VdomId unseen : {VdomId{4}, VdomId{700}}) {
        EXPECT_TRUE(vdt.areas(unseen).empty());
        EXPECT_EQ(vdt.protected_pages(unseen), 0u);
        vdt.pop_area(unseen);
        vdt.clear(unseen);
        vdt.remove_range(unseen, 0, 1000);
        EXPECT_TRUE(vdt.areas(unseen).empty());
        EXPECT_EQ(vdt.num_leaves(), 1u);
    }
    // Slot 3's chain is untouched; a later, higher slot still chains.
    EXPECT_EQ(vdt.protected_pages(3), 10u);
    vdt.add_area(1023, VdtArea{5, 1, true});
    EXPECT_EQ(vdt.areas(1023).size(), 1u);
    EXPECT_EQ(vdt.areas(3).size(), 1u);
    EXPECT_TRUE(vdt.areas(700).empty());
    EXPECT_EQ(vdt.num_leaves(), 1u);
}

TEST(Vdt, Clear)
{
    Vdt vdt;
    vdt.add_area(7, VdtArea{0, 5, false});
    vdt.clear(7);
    EXPECT_TRUE(vdt.areas(7).empty());
}

TEST(Vdt, RemoveRangeWhole)
{
    Vdt vdt;
    vdt.add_area(3, VdtArea{100, 10, false});
    vdt.remove_range(3, 100, 10);
    EXPECT_TRUE(vdt.areas(3).empty());
}

TEST(Vdt, RemoveRangeTrimsPartialOverlap)
{
    Vdt vdt;
    vdt.add_area(3, VdtArea{100, 10, false});
    vdt.remove_range(3, 104, 3);  // Punch a hole [104,107).
    const auto &areas = vdt.areas(3);
    ASSERT_EQ(areas.size(), 2u);
    EXPECT_EQ(areas[0].start, 100u);
    EXPECT_EQ(areas[0].pages, 4u);
    EXPECT_EQ(areas[1].start, 107u);
    EXPECT_EQ(areas[1].pages, 3u);
    EXPECT_EQ(vdt.protected_pages(3), 7u);
}

TEST(Vdt, RemoveRangeLeavesDisjointAreas)
{
    Vdt vdt;
    vdt.add_area(3, VdtArea{0, 4, false});
    vdt.add_area(3, VdtArea{100, 4, false});
    vdt.remove_range(3, 50, 10);
    EXPECT_EQ(vdt.areas(3).size(), 2u);
}

TEST(Vdt, HugeFlagPreserved)
{
    Vdt vdt;
    vdt.add_area(9, VdtArea{0, 512, true});
    EXPECT_TRUE(vdt.areas(9)[0].huge);
    vdt.remove_range(9, 0, 100);
    ASSERT_EQ(vdt.areas(9).size(), 1u);
    EXPECT_TRUE(vdt.areas(9)[0].huge);
}

}  // namespace
}  // namespace vdom::kernel
