/// \file
/// TLB model tests: ASID tagging, LRU capacity, flush variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <list>
#include <optional>
#include <string>
#include <vector>

#include "hw/tlb.h"
#include "sim/fault.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

namespace vdom::hw {
namespace {

TEST(Tlb, MissThenHit)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    Tlb tlb(8);
    EXPECT_FALSE(tlb.lookup(1, 100).has_value());
    tlb.insert(1, 100, TlbEntry{3, false});
    auto hit = tlb.lookup(1, 100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->pdom, 3);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbHit), 1u);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbMiss), 1u);
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
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    Tlb tlb(4);
    for (Vpn v = 0; v < 4; ++v)
        tlb.insert(1, v, TlbEntry{0, false});
    // Touch 0 so it is MRU; inserting a 5th evicts vpn 1 (LRU).
    ASSERT_TRUE(tlb.lookup(1, 0).has_value());
    tlb.insert(1, 99, TlbEntry{0, false});
    EXPECT_TRUE(tlb.lookup(1, 0).has_value());
    EXPECT_FALSE(tlb.lookup(1, 1).has_value());
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbEvict), 1u);
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
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    Tlb tlb(8);
    tlb.insert(1, 1, {});
    tlb.insert(2, 2, {});
    tlb.flush_all();
    EXPECT_EQ(tlb.size(), 0u);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 1u);
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
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    Tlb tlb(16);
    for (Vpn v = 0; v < 8; ++v)
        tlb.insert(3, v, {});
    std::uint64_t touched = tlb.flush_range(3, 2, 4);
    EXPECT_EQ(touched, 4u);
    EXPECT_TRUE(tlb.lookup(3, 0).has_value());
    EXPECT_FALSE(tlb.lookup(3, 3).has_value());
    EXPECT_TRUE(tlb.lookup(3, 6).has_value());
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlushedPages), 4u);
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

/// The two shipped per-core TLBs: x86 (1536 entries) and ARM (512).
struct TlbShape {
    std::size_t capacity;
    std::size_t index_cells;  ///< Index size once full: bit_ceil(2 × cap).
};

constexpr TlbShape kX86Tlb{1536, 4096};
constexpr TlbShape kArmTlb{512, 1024};

/// Sparse-flush tests: flushes walk the LRU list, so each must leave the
/// free list, the index and LRU order intact.
class TlbSparseFlush : public ::testing::TestWithParam<TlbShape> {
  protected:
    Tlb make() const { return Tlb(GetParam().capacity); }

    telemetry::MetricsRegistry metrics_;
    telemetry::ScopedMetrics attach_{metrics_};
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

    // Fill to capacity exactly: the whole slot array must be back on the
    // free list.
    for (Vpn v = 0; v < tlb.capacity(); ++v)
        tlb.insert(3, v, TlbEntry{static_cast<Pdom>(v % 16), false});
    EXPECT_EQ(tlb.size(), tlb.capacity());
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
    for (Vpn v = 0; v < tlb.capacity(); ++v) {
        auto hit = tlb.lookup(3, v);
        ASSERT_TRUE(hit.has_value()) << "vpn " << v;
        EXPECT_EQ(hit->pdom, static_cast<Pdom>(v % 16));
    }
}

TEST_P(TlbSparseFlush, FlushAsidKeepsSurvivorLruOrder)
{
    Tlb tlb = make();
    for (Vpn v = 0; v < 3; ++v) {
        tlb.insert(1, v, {});
        tlb.insert(2, v, {});
    }
    // LRU -> MRU: a0 b0 a1 b1 a2 b2; touching b0 makes it MRU, so after
    // the flush the survivors are b1 (LRU), b2, b0.
    ASSERT_TRUE(tlb.lookup(2, 0).has_value());
    tlb.flush_asid(1);
    for (Vpn v = 0; v < 3; ++v)
        EXPECT_FALSE(tlb.lookup(1, v).has_value());
    EXPECT_EQ(tlb.size(), 3u);

    // Fill the TLB with fresh entries; one more must evict exactly b1.
    for (Vpn v = 0; tlb.size() < tlb.capacity(); ++v)
        tlb.insert(3, v, {});
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
    tlb.insert(4, 0, {});
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 1u);
    EXPECT_FALSE(tlb.lookup(2, 1).has_value());
    EXPECT_TRUE(tlb.lookup(2, 2).has_value());
    EXPECT_TRUE(tlb.lookup(2, 0).has_value());
}

TEST_P(TlbSparseFlush, EmptyFlushStillCounts)
{
    Tlb tlb = make();
    tlb.flush_all();
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbFlush), 1u);
    tlb.flush_asid(7);
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbFlush), 2u);
    EXPECT_EQ(tlb.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbSparseFlush, ::testing::Values(kX86Tlb, kArmTlb),
    [](const ::testing::TestParamInfo<TlbShape> &info) {
        // The x86 case keeps the suite's unsuffixed test id.
        std::string name = "FullyAssociative";
        if (info.param.capacity != kX86Tlb.capacity)
            name += std::to_string(info.param.capacity);
        return name;
    });

/// Index-growth tests: a fresh TLB's index starts at 8 cells and doubles
/// as it fills, so every insert, flush and injected drop must keep the
/// index consistent with the slots across each resize.  An exact LRU
/// list model pins membership and eviction order, and the per-tag live
/// counts that let flush_asid skip an empty tag and stop after its last
/// match.
class TlbIndexGrowth : public ::testing::TestWithParam<TlbShape> {
  protected:
    struct Page {
        Asid asid;
        Vpn vpn;
    };

    TlbIndexGrowth() : tlb_(GetParam().capacity) {}

    /// Inserts after which the index has just doubled: it grows before an
    /// insert would push its load above one half, from 8 cells up to
    /// index_cells.
    std::vector<std::size_t>
    doubling_points() const
    {
        std::vector<std::size_t> out;
        for (std::size_t cells = 8; cells < GetParam().index_cells;
             cells *= 2)
            out.push_back(cells / 2 + 1);
        return out;
    }

    static Pdom pdom_of(const Page &page) { return Pdom(page.vpn % 16); }

    /// A page never inserted before.
    Page fresh(Asid asid) { return Page{asid, next_vpn_++ * 7}; }

    std::list<Page>::iterator
    find(Page page)
    {
        return std::find_if(lru_.begin(), lru_.end(), [page](const Page &p) {
            return p.asid == page.asid && p.vpn == page.vpn;
        });
    }

    /// Inserts \p page into the TLB and the model; checks the size, that
    /// the page is found, and that the evicted page (if any) is the
    /// model's LRU victim.  A page already present only becomes MRU.
    /// Neither lookup changes LRU order: a miss touches nothing and the
    /// page is already MRU.
    void
    insert(Page page)
    {
        std::optional<Page> victim;
        if (auto it = find(page); it != lru_.end()) {
            lru_.erase(it);
        } else if (lru_.size() == tlb_.capacity()) {
            victim = lru_.back();
            lru_.pop_back();
        }
        lru_.push_front(page);
        tlb_.insert(page.asid, page.vpn, TlbEntry{pdom_of(page), false});
        EXPECT_EQ(tlb_.size(), lru_.size());
        if (victim) {
            EXPECT_FALSE(tlb_.lookup(victim->asid, victim->vpn).has_value())
                << "vpn " << victim->vpn << " should have been evicted";
        }
        EXPECT_TRUE(tlb_.lookup(page.asid, page.vpn).has_value())
            << "vpn " << page.vpn;
    }

    /// Looks \p page up with \p plan armed: on a drop the entry leaves
    /// the TLB and the model; on a hit it becomes MRU.
    void
    lookup_armed(sim::FaultPlan &plan, Page page)
    {
        std::uint64_t drops = plan.fires(sim::FaultSite::kTlbEntryDrop);
        tlb_.lookup(page.asid, page.vpn, &plan);
        auto it = find(page);
        if (it == lru_.end())
            return;
        if (plan.fires(sim::FaultSite::kTlbEntryDrop) != drops)
            lru_.erase(it);
        else
            lru_.splice(lru_.begin(), lru_, it);
    }

    /// Checks that every tag's live count, for tags 0 ..= \p max_tag and
    /// for kMaxAsid (never inserted here), is the model's.
    void
    expect_tag_counts(Asid max_tag)
    {
        ASSERT_EQ(tlb_.size(), lru_.size());
        std::vector<std::size_t> expected(max_tag + 1, 0);
        for (const Page &p : lru_)
            ++expected[p.asid];
        for (Asid asid = 0; asid <= max_tag; ++asid)
            ASSERT_EQ(tlb_.size(asid), expected[asid]) << "tag " << asid;
        ASSERT_EQ(tlb_.size(Tlb::kMaxAsid), 0u);
    }

    /// Checks that the TLB holds exactly the model's pages.  They are
    /// looked up from LRU to MRU, which leaves the order unchanged.
    void
    expect_matches_model()
    {
        ASSERT_EQ(tlb_.size(), lru_.size());
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            auto hit = tlb_.lookup(it->asid, it->vpn);
            ASSERT_TRUE(hit.has_value()) << "vpn " << it->vpn;
            ASSERT_EQ(hit->pdom, pdom_of(*it));
        }
    }

    telemetry::MetricsRegistry metrics_;
    telemetry::ScopedMetrics attach_{metrics_};
    Tlb tlb_;
    std::list<Page> lru_;  ///< MRU first.
    Vpn next_vpn_ = 1;
};

TEST_P(TlbIndexGrowth, FillToCapacityKeepsEveryKey)
{
    for (std::size_t n = 0; n < tlb_.capacity(); ++n) {
        insert(fresh(1 + static_cast<Asid>(n % 3)));
        expect_matches_model();
        if (HasFatalFailure())
            return;
    }
    EXPECT_EQ(tlb_.size(), tlb_.capacity());
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
}

TEST_P(TlbIndexGrowth, FlushRightAfterDoublingKeepsSurvivorsAndLru)
{
    for (std::size_t point : doubling_points()) {
        SCOPED_TRACE("flush after insert " + std::to_string(point));
        // A fresh TLB each time: the index never shrinks, so only a new
        // one doubles again at this insert.
        tlb_ = Tlb(GetParam().capacity);
        lru_.clear();
        Vpn first = next_vpn_ * 7;
        for (std::size_t n = 0; n < point; ++n)
            insert(fresh(1 + static_cast<Asid>(n % 2)));
        Vpn last = next_vpn_ * 7;

        // Drop the lower half of ASID 1's pages, then all of ASID 2.
        Vpn mid = first + (last - first) / 2;
        std::size_t expected = 0;
        for (const Page &p : lru_)
            expected += p.asid == 1 && p.vpn < mid;
        EXPECT_EQ(tlb_.flush_range(1, first, mid - first), expected);
        lru_.remove_if(
            [mid](const Page &p) { return p.asid == 1 && p.vpn < mid; });
        tlb_.flush_asid(2);
        lru_.remove_if([](const Page &p) { return p.asid == 2; });
        expect_matches_model();
        if (HasFatalFailure())
            return;

        // Refill to capacity, then push every survivor out: each insert
        // into a full TLB must evict exactly the model's LRU page.
        while (tlb_.size() < tlb_.capacity())
            insert(fresh(3));
        for (std::size_t n = 0; n < tlb_.capacity(); ++n)
            insert(fresh(4));
        expect_matches_model();
        if (HasFatalFailure())
            return;
    }
}

TEST_P(TlbIndexGrowth, FlushAllRefillsToCapacityWithoutEviction)
{
    while (tlb_.size() < tlb_.capacity())
        insert(fresh(1));
    tlb_.flush_all();
    lru_.clear();
    EXPECT_EQ(tlb_.size(), 0u);
    while (tlb_.size() < tlb_.capacity())
        insert(fresh(2));
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
    expect_matches_model();
}

TEST_P(TlbIndexGrowth, EntryDropDuringFillErasesItsCell)
{
    sim::FaultPlan plan;
    plan.arm(sim::FaultSite::kTlbEntryDrop, {.every = 5});
    std::vector<Page> inserted;
    for (std::size_t n = 0; n < tlb_.capacity(); ++n) {
        Page page = fresh(1);
        insert(page);
        inserted.push_back(page);
        // Look up an older page with the drop armed.
        lookup_armed(plan, inserted[n / 2]);
        expect_matches_model();
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(plan.fires(sim::FaultSite::kTlbEntryDrop), 0u);
    EXPECT_EQ(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
}

TEST_P(TlbIndexGrowth, TagCountsFollowRandomSequences)
{
    // Tags 1..5 over a vpn space twice the capacity, so inserts both hit
    // live pages and push past capacity and range flushes find pages.
    // Tag 9 is flushed but never inserted; tag 10 refills at the end.
    constexpr Asid kTags = 5;
    constexpr Asid kAbsent = 9;
    const std::size_t cap = tlb_.capacity();
    sim::FaultPlan drops;
    drops.arm(sim::FaultSite::kTlbEntryDrop, {.every = 4});
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        tlb_ = Tlb(cap);
        lru_.clear();
        metrics_.reset();
        std::uint64_t drops0 = drops.fires(sim::FaultSite::kTlbEntryDrop);
        std::uint64_t asid_flushes = 0;
        sim::Rng rng(seed);
        auto random_page = [&rng, cap] {
            return Page{1 + static_cast<Asid>(rng.below(kTags)),
                        rng.below(2 * cap)};
        };
        for (int round = 0; round < 3; ++round) {
            // Fill past capacity: inserts, and lookups with drops armed
            // of live pages or of random ones.
            for (std::size_t n = 0; n < 3 * cap; ++n) {
                std::uint64_t op = rng.below(10);
                if (op < 7) {
                    insert(random_page());
                } else if (op < 9 && !lru_.empty()) {
                    lookup_armed(drops, *std::next(lru_.begin(),
                                                   rng.below(lru_.size())));
                } else {
                    lookup_armed(drops, random_page());
                }
                if (n % 64 == 0)
                    expect_tag_counts(kAbsent);
                if (HasFatalFailure())
                    return;
            }
            // Flush: ranges, ASID flushes of present tags, of a tag never
            // seen and of one past every tag seen, rarely everything.
            for (int n = 0; n < 24; ++n) {
                std::uint64_t op = rng.below(20);
                if (op < 8) {
                    Page first = random_page();
                    std::uint64_t count = 1 + rng.below(64);
                    std::size_t before = lru_.size();
                    lru_.remove_if([&](const Page &p) {
                        return p.asid == first.asid && p.vpn >= first.vpn &&
                               p.vpn < first.vpn + count;
                    });
                    EXPECT_EQ(tlb_.flush_range(first.asid, first.vpn, count),
                              before - lru_.size());
                } else if (op < 19) {
                    std::uint64_t pick = rng.below(kTags + 2);
                    Asid asid = pick < kTags ? 1 + static_cast<Asid>(pick)
                              : pick == kTags ? kAbsent : Tlb::kMaxAsid;
                    lru_.remove_if(
                        [asid](const Page &p) { return p.asid == asid; });
                    tlb_.flush_asid(asid);
                    ++asid_flushes;
                } else {
                    lru_.clear();
                    tlb_.flush_all();
                }
                expect_tag_counts(kAbsent);
                expect_matches_model();
                if (HasFatalFailure())
                    return;
            }
        }
        EXPECT_GT(metrics_.value(telemetry::Metric::kTlbEvict), 0u);
        EXPECT_GT(drops.fires(sim::FaultSite::kTlbEntryDrop), drops0);
        EXPECT_GT(metrics_.value(telemetry::Metric::kTlbFlushedPages), 0u);
        EXPECT_GT(asid_flushes, 0u);
        // The survivors leave in the model's LRU order.
        for (std::size_t n = 0; n < 2 * cap; ++n)
            insert(fresh(kAbsent + 1));
        expect_tag_counts(kAbsent + 1);
        if (HasFatalFailure())
            return;
    }
}

TEST_P(TlbIndexGrowth, EmptyTagFlushKeepsEveryEntry)
{
    while (tlb_.size() < tlb_.capacity())
        insert(fresh(1 + static_cast<Asid>(lru_.size() % 3)));
    telemetry::MetricsRegistry registry;
    {
        telemetry::ScopedMetrics attach(registry);
        tlb_.flush_asid(9);
        tlb_.flush_asid(Tlb::kMaxAsid);
        // Tag 2 held entries; its second flush finds none.
        tlb_.flush_asid(2);
        tlb_.flush_asid(2);
    }
    lru_.remove_if([](const Page &p) { return p.asid == 2; });
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 4u);
    expect_tag_counts(9);
    expect_matches_model();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TlbIndexGrowth, ::testing::Values(kX86Tlb, kArmTlb),
    [](const ::testing::TestParamInfo<TlbShape> &info) {
        return "FullyAssociative" + std::to_string(info.param.capacity);
    });

}  // namespace
}  // namespace vdom::hw
