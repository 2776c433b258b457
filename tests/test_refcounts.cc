/// \file
/// Thread-reference bookkeeping (Fig. 3's per-VDS "#thread" counts):
/// references are dropped on the VDS that holds them, regardless of where
/// the thread is when it revokes.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Task;
using kernel::Vds;
using ::vdom::testing::World;

TEST(RefCounts, GrantAndRevokeBalance)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    Vds *vds0 = world->proc.mm().vds0();
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_EQ(vds0->thread_refs(v), 1u);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    EXPECT_EQ(vds0->thread_refs(v), 0u);
}

TEST(RefCounts, PermTransitionsDoNotDoubleCount)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    Vds *vds0 = world->proc.mm().vds0();
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_EQ(vds0->thread_refs(v), 1u);  // Still exactly one.
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kPinned);
    EXPECT_EQ(vds0->thread_refs(v), 0u);  // Pinned is not active.
}

TEST(RefCounts, RevokeFromAnotherVdsDropsTheHomeRef)
{
    // The leak this suite exists for: grant in VDS0, get switched to
    // VDS1 by the algorithm, then revoke — the VDS0 reference must drop.
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread(4);
    Vds *vds0 = world->proc.mm().vds0();
    auto [early, evpn] = world->make_domain(1);
    (void)evpn;
    world->sys.wrvdr(world->core(0), *task, early, VPerm::kFullAccess);
    ASSERT_EQ(vds0->thread_refs(early), 1u);

    // The scheduler/kernel moves the thread into a different address
    // space while the grant's reference still lives on VDS0.
    kernel::Vds *fresh = world->proc.mm().create_vds();
    world->proc.switch_vds(world->core(0), *task, *fresh,
                           hw::CostKind::kPgdSwitch);
    ASSERT_NE(task->vds(), vds0);

    // Revoke `early` while resident elsewhere: the VDS0 ref must drop.
    world->sys.wrvdr(world->core(0), *task, early, VPerm::kAccessDisable);
    EXPECT_EQ(vds0->thread_refs(early), 0u);
    EXPECT_EQ(fresh->thread_refs(early), 0u);
}

TEST(RefCounts, VdrFreeCleansEveryHome)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread(4);
    Vds *vds0 = world->proc.mm().vds0();
    std::vector<VdomId> held;
    std::size_t usable = world->machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable + 2; ++i) {
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        held.push_back(v);
        if (i < 3)  // Keep a few held; release the rest.
            continue;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
    world->sys.vdr_free(world->core(0), *task);
    for (VdomId v : held) {
        for (const auto &vds : world->proc.mm().vdses())
            EXPECT_EQ(vds->thread_refs(v), 0u) << v;
    }
    (void)vds0;
}

TEST(RefCounts, MigrationMovesRefsPrecisely)
{
    // Fig. 3: the migrating thread's counts move from source to target.
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *t = world->ready_thread(4);
    Task *peer = world->spawn(1);
    world->sys.vdr_alloc(world->core(1), *peer, 2);
    Vds *vds0 = world->proc.mm().vds0();

    auto [shared_dom, svpn] = world->make_domain(1);
    (void)svpn;
    // Both threads hold the shared vdom: refs == 2 on VDS0.
    world->sys.wrvdr(world->core(0), *t, shared_dom, VPerm::kFullAccess);
    world->sys.wrvdr(world->core(1), *peer, shared_dom,
                     VPerm::kFullAccess);
    ASSERT_EQ(vds0->thread_refs(shared_dom), 2u);

    // Fill VDS0, then have t demand one more domain while still holding
    // shared_dom: with a peer resident, t migrates.
    std::size_t usable = world->machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable - 1; ++i) {
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(1), *peer, v, VPerm::kFullAccess);
        world->sys.wrvdr(world->core(1), *peer, v, VPerm::kAccessDisable);
    }
    ASSERT_EQ(vds0->free_pdoms(), 0u);
    auto [trigger, tvpn] = world->make_domain(1);
    (void)tvpn;
    telemetry::MetricsRegistry metrics;
    {
        telemetry::ScopedMetrics attach(metrics);
        world->sys.wrvdr(world->core(0), *t, trigger, VPerm::kFullAccess);
    }
    ASSERT_GT(metrics.value(telemetry::Metric::kMigration), 0u);
    ASSERT_NE(t->vds(), vds0);

    // t's ref on shared_dom moved with it; the peer's stayed.
    EXPECT_EQ(vds0->thread_refs(shared_dom), 1u);
    EXPECT_EQ(t->vds()->thread_refs(shared_dom), 1u);
    // And revoking from the new home works.
    world->sys.wrvdr(world->core(0), *t, shared_dom,
                     VPerm::kAccessDisable);
    EXPECT_EQ(t->vds()->thread_refs(shared_dom), 0u);
    EXPECT_EQ(vds0->thread_refs(shared_dom), 1u);
}

}  // namespace
}  // namespace vdom
