/// \file
/// TLB-pressure behaviour: working sets larger than the TLB, warmth across
/// VDS switches, and the cost asymmetry the design exploits.

#include <gtest/gtest.h>

#include <memory>

#include "baselines/libmpk.h"
#include "common.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;
using telemetry::Metric;

TEST(TlbPressure, SmallWorkingSetHitsAfterWarmup)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    Task *task = world->ready_thread();
    hw::Vpn region = world->proc.mm().mmap(64);
    for (int i = 0; i < 64; ++i)
        world->sys.access(world->core(0), *task, region + i, true);
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    for (int round = 0; round < 10; ++round)
        for (int i = 0; i < 64; ++i)
            world->sys.access(world->core(0), *task, region + i, false);
    EXPECT_EQ(metrics.value(Metric::kTlbMiss), 0u);
}

TEST(TlbPressure, OversizedWorkingSetThrashes)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    Task *task = world->ready_thread();
    std::size_t capacity = world->machine.params().tlb_entries;
    hw::Vpn region = world->proc.mm().mmap(2 * capacity);
    // Sequential sweep of 2x the TLB: every access after warmup misses
    // (LRU + cyclic sweep is the worst case).
    for (std::size_t i = 0; i < 2 * capacity; ++i)
        world->sys.access(world->core(0), *task, region + i, true);
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    for (std::size_t i = 0; i < 2 * capacity; ++i)
        world->sys.access(world->core(0), *task, region + i, false);
    EXPECT_EQ(metrics.value(Metric::kTlbMiss), 2 * capacity);
}

TEST(TlbPressure, VdsSwitchKeepsBothWorkingSetsWarm)
{
    // The §5 design point: two address spaces' TLB entries coexist under
    // distinct ASIDs, so ping-ponging between VDSes stays warm.
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    auto world = std::unique_ptr<World>(World::x86(1));
    Task *task = world->ready_thread(4);
    std::size_t usable = world->machine.params().usable_pdoms();
    // Two VDSes worth of domains, 16 pages each.
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < 2 * usable; ++i) {
        doms.push_back(world->make_domain(16));
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kFullAccess);
        for (int p = 0; p < 16; ++p)
            world->sys.access(world->core(0), *task,
                              doms.back().second + p, true);
        // Release before moving on so the algorithm switches address
        // spaces instead of evicting in place (§5.4).
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kAccessDisable);
    }
    ASSERT_GE(world->proc.mm().num_vdses(), 2u);
    ASSERT_EQ(metrics.value(Metric::kHlruEvict), 0u);
    // Warm pass across everything (faults settled), then measure.
    for (auto &[v, vpn] : doms) {
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        for (int p = 0; p < 16; ++p)
            world->sys.access(world->core(0), *task, vpn + p, false);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
    std::uint64_t misses0 = metrics.value(Metric::kTlbMiss);
    for (auto &[v, vpn] : doms) {
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        for (int p = 0; p < 16; ++p)
            world->sys.access(world->core(0), *task, vpn + p, false);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
    // No new misses: both address spaces' translations stayed cached.
    EXPECT_EQ(metrics.value(Metric::kTlbMiss), misses0);
}

TEST(TlbPressure, EvictionInvalidatesOnlyTheVictimRange)
{
    auto world = std::unique_ptr<World>(World::x86(1));
    Task *task = world->ready_thread(1);
    std::size_t usable = world->machine.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < usable; ++i) {
        doms.push_back(world->make_domain(8));
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kFullAccess);
        for (int p = 0; p < 8; ++p)
            world->sys.access(world->core(0), *task,
                              doms.back().second + p, true);
    }
    // Trigger one eviction with a fresh domain.
    auto [extra, evpn] = world->make_domain(8);
    world->sys.wrvdr(world->core(0), *task, extra, VPerm::kFullAccess);
    world->sys.access(world->core(0), *task, evpn, true);
    // Count how many of the surviving domains' pages still hit.
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    std::size_t survivors = 0;
    for (auto &[v, vpn] : doms) {
        if (!task->vds()->is_mapped(v))
            continue;  // The victim.
        ++survivors;
        for (int p = 0; p < 8; ++p)
            world->sys.access(world->core(0), *task, vpn + p, false);
    }
    // §5.5 range flushes: survivors' entries were untouched.
    EXPECT_EQ(metrics.value(Metric::kTlbMiss), 0u);
    EXPECT_EQ(survivors, usable - 1);
}

TEST(TlbPressure, LibmpkEvictionNukesEverything)
{
    // Contrast case: libmpk's broadcast flush wipes the initiator's own
    // warm entries too, one of §3.2's two root causes.
    auto world = std::unique_ptr<World>(World::x86(2));
    baselines::LibMpk mpk(world->proc);
    Task *task = world->spawn(0);
    std::vector<std::pair<int, hw::Vpn>> keys;
    for (int i = 0; i < 16; ++i) {
        hw::Vpn vpn = world->proc.mm().mmap(8);
        int key = mpk.pkey_alloc(world->core(0));
        mpk.pkey_mprotect(world->core(0), vpn, 8, key);
        keys.emplace_back(key, vpn);
    }
    for (int i = 0; i < 15; ++i) {
        mpk.pkey_set(world->core(0), *task, keys[i].first,
                     VPerm::kFullAccess);
        for (int p = 0; p < 8; ++p)
            mpk.access(world->core(0), *task, keys[i].second + p, true);
        mpk.pkey_set(world->core(0), *task, keys[i].first,
                     VPerm::kAccessDisable);
    }
    ASSERT_GT(world->core(0).tlb().size(), 0u);
    // The 16th key forces an eviction: full flush.
    mpk.pkey_set(world->core(0), *task, keys[15].first,
                 VPerm::kFullAccess);
    EXPECT_EQ(world->core(0).tlb().size(), 0u);
}

TEST(TlbPressure, StatsAccumulateAcrossKinds)
{
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    hw::Tlb tlb(8);
    tlb.lookup(1, 5);
    tlb.insert(1, 5, {});
    tlb.lookup(1, 5);
    tlb.flush_asid(1);
    tlb.flush_all();
    EXPECT_EQ(metrics.value(Metric::kTlbMiss), 1u);
    EXPECT_EQ(metrics.value(Metric::kTlbHit), 1u);
    EXPECT_EQ(metrics.value(Metric::kTlbFlush), 2u);
}

}  // namespace
}  // namespace vdom
