/// \file
/// TLB model tests: ASID tagging, LRU capacity, flush variants.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hw/tlb.h"
#include "telemetry/metrics.h"

namespace vdom::hw {
namespace {

TEST(Tlb, MissThenHit)
{
    Tlb tlb(8);
    EXPECT_FALSE(tlb.lookup(1, 100).has_value());
    tlb.insert(1, 100, TlbEntry{3, false});
    auto hit = tlb.lookup(1, 100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pdom, 3);
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
}

TEST(Tlb, AsidTaggingSeparatesAddressSpaces)
{
    Tlb tlb(8);
    tlb.insert(1, 100, TlbEntry{3, false});
    tlb.insert(2, 100, TlbEntry{7, false});
    EXPECT_EQ(tlb.lookup(1, 100)->pdom, 3);
    EXPECT_EQ(tlb.lookup(2, 100)->pdom, 7);
}

TEST(Tlb, CapacityEvictsLru)
{
    Tlb tlb(4);
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(1, v, TlbEntry{0, false});
    // Touch 0 so it is MRU; inserting a 5th evicts vpn 1 (LRU).
    ASSERT_TRUE(tlb.lookup(1, 0).has_value());
    tlb.insert(1, 99, TlbEntry{0, false});
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(Tlb, InsertExistingUpdates)
{
    Tlb tlb(4);
    tlb.insert(1, 5, TlbEntry{2, false});
    tlb.insert(1, 5, TlbEntry{9, false});
    EXPECT_EQ(tlb.size(), 1u);
    EXPECT_EQ(tlb.lookup(1, 5)->pdom, 9);
}

TEST(Tlb, FlushAll)
{
    Tlb tlb(8);
    tlb.insert(1, 1, {});
    tlb.insert(2, 2, {});
    tlb.flush_all();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.stats().flushes_all, 1u);
}

TEST(Tlb, FlushAsidIsSelective)
{
    Tlb tlb(8);
    tlb.insert(1, 1, {});
    tlb.insert(1, 2, {});
    tlb.insert(2, 1, {});
    tlb.flush_asid(1);
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_FALSE(tlb.lookup(1, 2).has_value());
    EXPECT_TRUE(tlb.lookup(2, 1).has_value());
}

TEST(Tlb, FlushRangeCountsTouchedPages)
{
    Tlb tlb(16);
    for (Vpn v = 0; v < 8; ++v)
        tlb.insert(3, v, {});
    std::uint64_t touched = tlb.flush_range(3, 2, 4);
    EXPECT_EQ(touched, 4u);
    EXPECT_TRUE(tlb.lookup(3, 0).has_value());
    EXPECT_FALSE(tlb.lookup(3, 3).has_value());
    EXPECT_TRUE(tlb.lookup(3, 6).has_value());
    EXPECT_EQ(tlb.stats().flushed_pages, 4u);
}

TEST(Tlb, FlushRangeOtherAsidUntouched)
{
    Tlb tlb(16);
    tlb.insert(1, 5, {});
    tlb.insert(2, 5, {});
    tlb.flush_range(1, 0, 10);
    EXPECT_TRUE(tlb.lookup(2, 5).has_value());
}

TEST(Tlb, HugeFlagTravels)
{
    Tlb tlb(4);
    tlb.insert(1, 0, TlbEntry{4, true});
    EXPECT_TRUE(tlb.lookup(1, 0)->huge);
}

class TlbCapacitySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlbCapacitySweep, NeverExceedsCapacity)
{
    std::size_t cap = GetParam();
    Tlb tlb(cap);
    for (Vpn v = 0; v < 3 * cap + 7; ++v)
        tlb.insert(1, v, {});
    EXPECT_LE(tlb.size(), cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, TlbCapacitySweep,
                         ::testing::Values(1, 2, 16, 512, 1536));

/// Sparse-flush tests run on both the fully associative default and a
/// real set-associative geometry: flushes walk the per-set LRU lists, so
/// each must leave the free list, the index and LRU order intact.
struct TlbGeometry {
    std::size_t capacity;
    std::size_t ways;
};

class TlbSparseFlush : public ::testing::TestWithParam<TlbGeometry> {
  protected:
    Tlb make() const { return Tlb(GetParam().capacity, 0, GetParam().ways); }

    /// The first \p n VPNs whose (asid, vpn) lands in \p set.
    static std::vector<Vpn>
    vpns_in_set(const Tlb &tlb, Asid asid, std::size_t set, std::size_t n)
    {
        std::vector<Vpn> out;
        for (Vpn v = 0; out.size() < n; ++v) {
            if (tlb.set_index(asid, v) == set)
                out.push_back(v);
        }
        return out;
    }
};

TEST_P(TlbSparseFlush, FlushAllRefillsToCapacityWithoutEviction)
{
    Tlb tlb = make();
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(1 + static_cast<Asid>(v % 2), v * 1000, {});
    tlb.flush_all();
    EXPECT_EQ(tlb.size(), 0u);
    for (Vpn v = 0; v < 4; ++v)
        EXPECT_FALSE(tlb.lookup(1 + static_cast<Asid>(v % 2), v * 1000)
                         .has_value());

    // Fill every set to its ways exactly: the whole slot array must be
    // back on the free list.
    std::vector<std::size_t> per_set(tlb.num_sets(), 0);
    std::vector<Vpn> filled;
    for (Vpn v = 0; filled.size() < tlb.capacity(); ++v) {
        std::size_t set = tlb.set_index(3, v);
        if (per_set[set] == tlb.ways())
            continue;
        ++per_set[set];
        tlb.insert(3, v, TlbEntry{static_cast<Pdom>(v % 16), false});
        filled.push_back(v);
    }
    EXPECT_EQ(tlb.size(), tlb.capacity());
    EXPECT_EQ(tlb.stats().evictions, 0u);
    for (Vpn v : filled) {
        auto hit = tlb.lookup(3, v);
        ASSERT_TRUE(hit.has_value()) << "vpn " << v;
        EXPECT_EQ(hit->pdom, static_cast<Pdom>(v % 16));
    }
}

TEST_P(TlbSparseFlush, FlushAsidKeepsSurvivorLruOrder)
{
    Tlb tlb = make();
    const std::size_t set = tlb.set_index(2, 0);
    std::vector<Vpn> a = vpns_in_set(tlb, 1, set, 3);
    std::vector<Vpn> b = vpns_in_set(tlb, 2, set, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        tlb.insert(1, a[i], {});
        tlb.insert(2, b[i], {});
    }
    // LRU -> MRU: a0 b0 a1 b1 a2 b2; touching b0 makes it MRU, so after
    // the flush the survivors are b1 (LRU), b2, b0.
    ASSERT_TRUE(tlb.lookup(2, b[0]).has_value());
    tlb.flush_asid(1);
    for (Vpn v : a)
        EXPECT_FALSE(tlb.lookup(1, v).has_value());
    EXPECT_EQ(tlb.size(), 3u);

    // Fill the set with fresh entries; one more must evict exactly b1.
    std::vector<Vpn> fresh = vpns_in_set(tlb, 3, set, tlb.ways() - 2);
    for (std::size_t i = 0; i + 1 < fresh.size(); ++i)
        tlb.insert(3, fresh[i], {});
    EXPECT_EQ(tlb.stats().evictions, 0u);
    tlb.insert(3, fresh.back(), {});
    EXPECT_EQ(tlb.stats().evictions, 1u);
    EXPECT_FALSE(tlb.lookup(2, b[1]).has_value());
    EXPECT_TRUE(tlb.lookup(2, b[2]).has_value());
    EXPECT_TRUE(tlb.lookup(2, b[0]).has_value());
}

TEST_P(TlbSparseFlush, EmptyFlushStillCounts)
{
    telemetry::MetricsRegistry registry;
    Tlb tlb = make();
    {
        telemetry::ScopedMetrics attach(registry);
        tlb.flush_all();
        tlb.flush_asid(7);
    }
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(tlb.stats().flushes_all, 1u);
    EXPECT_EQ(tlb.stats().flushes_asid, 1u);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbSparseFlush,
    ::testing::Values(TlbGeometry{1536, 0}, TlbGeometry{512, 8}),
    [](const ::testing::TestParamInfo<TlbGeometry> &info) {
        return info.param.ways == 0 ? std::string("FullyAssociative")
                                    : std::string("SetAssociative");
    });

}  // namespace
}  // namespace vdom::hw
