/// \file
/// Design-knob tests: each ablation toggle changes exactly the behaviour
/// it claims to, and the full design is strictly cheaper on the workload
/// that exercises it.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

std::unique_ptr<World>
make_world(hw::DesignKnobs knobs)
{
    hw::ArchParams params = hw::ArchParams::x86(4);
    params.knobs = knobs;
    return std::make_unique<World>(params);
}

/// Cycles for one eviction round-trip of a 2MB domain.
double
eviction_cost(World &world)
{
    Task *task = world.ready_thread(/*nas=*/1);
    hw::Core &core = world.core(0);
    std::size_t usable = world.machine.params().usable_pdoms();
    std::vector<VdomId> doms;
    for (std::size_t i = 0; i < usable + 1; ++i) {
        auto [v, vpn] = world.make_domain(512);
        doms.push_back(v);
        world.sys.wrvdr(core, *task, v, VPerm::kFullAccess);
        for (int p = 0; p < 512; ++p)
            world.sys.access(core, *task, vpn + p, true);
        world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
    }
    // Steady state: average over two full thrash rounds.
    telemetry::MetricsRegistry metrics;
    hw::Cycles t0 = core.now();
    {
        telemetry::ScopedMetrics attach(metrics);
        for (int round = 0; round < 2; ++round) {
            for (VdomId v : doms) {
                world.sys.wrvdr(core, *task, v, VPerm::kFullAccess);
                world.sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
            }
        }
    }
    std::uint64_t evictions = metrics.value(telemetry::Metric::kHlruEvict);
    return evictions ? (core.now() - t0) / evictions : 0;
}

TEST(Ablation, PmdFastPathReducesEvictionCost)
{
    auto full = make_world(hw::DesignKnobs{});
    hw::DesignKnobs no_pmd;
    no_pmd.pmd_fast_path = false;
    auto ablated = make_world(no_pmd);
    double fast = eviction_cost(*full);
    double slow = eviction_cost(*ablated);
    // 512 PTE writes each way instead of one PMD write each way.
    EXPECT_GT(slow, fast * 3);
}

TEST(Ablation, PmdFastPathOffStillCorrect)
{
    hw::DesignKnobs no_pmd;
    no_pmd.pmd_fast_path = false;
    auto world = make_world(no_pmd);
    Task *task = world->ready_thread(1);
    std::size_t usable = world->machine.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < usable + 1; ++i) {
        doms.push_back(world->make_domain(512));
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kFullAccess);
        ASSERT_TRUE(world->sys
                        .access(world->core(0), *task,
                                doms.back().second + 100, true)
                        .ok);
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kAccessDisable);
    }
    // Everything still enforces correctly after eviction churn.
    for (auto &[v, vpn] : doms) {
        EXPECT_TRUE(
            world->sys.access(world->core(0), *task, vpn, false).sigsegv);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
}

TEST(Ablation, HlruOffUsesNoPreferredPdom)
{
    hw::DesignKnobs no_hlru;
    no_hlru.hlru = false;
    hw::ArchParams params = hw::ArchParams::x86(2);
    params.knobs = no_hlru;
    kernel::Vds vds(1, params);
    vds.map_vdom(5, 42);
    vds.unmap_pdom(5);
    // With HLRU off, the remembered pdom is ignored: first free wins.
    auto free = vds.find_free_pdom(vds.last_pdom(42));
    ASSERT_TRUE(free.has_value());
    EXPECT_EQ(*free, params.num_reserved_pdoms);  // Lowest usable, not 5.
    // And victim choice skips HLRU step 1.
    vds.map_vdom(5, 43);
    vds.map_vdom(2, 44);
    vds.touch(43, 100.0);
    vds.touch(44, 50.0);
    auto victim = vds.choose_victim(
        42, [](VdomId) { return true; }, [](VdomId) { return false; });
    ASSERT_TRUE(victim.has_value());
    EXPECT_EQ(vds.vdom_at(*victim), 44u);  // Plain LRU, not 42's old slot.
}

TEST(Ablation, AsidOffFlushesOnEverySwitch)
{
    hw::DesignKnobs no_asid;
    no_asid.asid = false;
    auto world = make_world(no_asid);
    Task *task = world->ready_thread(4);
    hw::Core &core = world->core(0);
    core.tlb().insert(core.asid(), 1234, {});
    kernel::Vds *fresh = world->proc.mm().create_vds();
    world->proc.switch_vds(core, *task, *fresh, hw::CostKind::kPgdSwitch);
    // Without ASIDs the pgd switch flushed everything.
    EXPECT_EQ(core.tlb().size(), 0u);
}

TEST(Ablation, NarrowShootdownOffBroadcasts)
{
    // Scenario shared by both halves: the acting thread lives alone in a
    // private VDS; a bystander thread of the same process runs a
    // different VDS on another core.  Narrowed shootdowns never IPI the
    // bystander; broadcast ones do.
    auto run = [](hw::DesignKnobs knobs) {
        auto world = make_world(knobs);
        Task *task = world->ready_thread(2);
        world->spawn(2);  // Bystander resident in VDS0 on core 2.
        kernel::Vds *mine = world->proc.mm().create_vds();
        world->proc.switch_vds(world->core(0), *task, *mine,
                               hw::CostKind::kPgdSwitch);
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        EXPECT_EQ(task->vds(), mine);
        telemetry::MetricsRegistry metrics;
        telemetry::ScopedMetrics attach(metrics);
        world->proc.mm().evict_vdom_from_vds(world->core(0), *task->vds(),
                                             v);
        return metrics.value(telemetry::Metric::kShootdownIpis);
    };
    hw::DesignKnobs wide;
    wide.narrow_shootdown = false;
    EXPECT_GT(run(wide), 0u);                 // Broadcast IPIs everyone.
    EXPECT_EQ(run(hw::DesignKnobs{}), 0u);    // Narrowed: local only.
}

TEST(Ablation, KnobsDefaultToFullDesign)
{
    hw::DesignKnobs knobs;
    EXPECT_TRUE(knobs.pmd_fast_path);
    EXPECT_TRUE(knobs.hlru);
    EXPECT_TRUE(knobs.asid);
    EXPECT_TRUE(knobs.narrow_shootdown);
}

}  // namespace
}  // namespace vdom
