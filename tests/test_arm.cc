/// \file
/// ARM-platform-specific behaviour: privileged DACR path, reserved
/// kernel/IO domains, generation-rollover under VDom churn, cost shape.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"
#include "sim/rng.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

class ArmTest : public ::testing::Test {
  protected:
    ArmTest() : world(World::arm(4)) {}

    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach{metrics};
    std::unique_ptr<World> world;
};

TEST_F(ArmTest, WrvdrAlwaysPaysSyscall)
{
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    // Steady state on a mapped vdom: still syscall-gated.
    hw::Cycles syscall0 =
        world->core(0).breakdown().get(hw::CostKind::kSyscall);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable);
    EXPECT_NEAR(world->core(0).breakdown().get(hw::CostKind::kSyscall) -
                    syscall0,
                world->machine.params().costs.syscall, 0.01);
}

TEST_F(ArmTest, FastModeIsNoFasterOnArm)
{
    // ApiMode::kFast only matters on Intel (the call gate); ARM's
    // privileged register write costs the same either way.
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    hw::Cycles t0 = world->core(0).now();
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable,
                     ApiMode::kSecure);
    hw::Cycles secure = world->core(0).now() - t0;
    t0 = world->core(0).now();
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess,
                     ApiMode::kFast);
    hw::Cycles fast = world->core(0).now() - t0;
    EXPECT_DOUBLE_EQ(secure, fast);
}

TEST_F(ArmTest, TwelveUsableDomainsPerVds)
{
    Task *task = world->ready_thread(1);
    std::size_t usable = world->machine.params().usable_pdoms();
    EXPECT_EQ(usable, 12u);
    // Exactly 12 protected vdoms fit without eviction.
    for (std::size_t i = 0; i < usable; ++i) {
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    }
    EXPECT_EQ(metrics.value(telemetry::Metric::kHlruEvict), 0u);
    auto [extra, evpn] = world->make_domain(1);
    (void)evpn;
    world->sys.wrvdr(world->core(0), *task, extra, VPerm::kFullAccess);
    EXPECT_EQ(metrics.value(telemetry::Metric::kHlruEvict), 1u);
}

TEST_F(ArmTest, ReservedKernelIoDomainsNeverHandedOut)
{
    Task *task = world->ready_thread(1);
    for (int i = 0; i < 30; ++i) {
        auto [v, vpn] = world->make_domain(1);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
        for (const auto &vds : world->proc.mm().vdses()) {
            vds->for_each_mapped([](hw::Pdom pdom, VdomId) {
                EXPECT_GE(pdom, 4);  // 0 default, 1 access-never, 2/3 krnl+IO.
            });
        }
    }
}

TEST_F(ArmTest, GenerationRolloverUnderChurnStaysCorrect)
{
    // Force ASID rollover while protected state is live: permissions must
    // still enforce exactly afterwards.
    Task *task = world->ready_thread(4);
    auto [secret, vpn] = world->make_domain(2);
    world->sys.wrvdr(world->core(0), *task, secret, VPerm::kFullAccess);
    ASSERT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);

    // 300 VDS switch-ins exhaust the 256-entry ASID space.
    for (int i = 0; i < 300; ++i) {
        kernel::Vds *vds = world->proc.mm().create_vds();
        world->proc.switch_vds(world->core(0), *task, *vds,
                               hw::CostKind::kPgdSwitch);
    }
    // Return home: the rollover flushed everything; access still works and
    // still enforces.
    world->proc.switch_vds(world->core(0), *task, *world->proc.mm().vds0(),
                           hw::CostKind::kPgdSwitch);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);
    world->sys.wrvdr(world->core(0), *task, secret, VPerm::kAccessDisable);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn, false)
                    .sigsegv);
}

TEST_F(ArmTest, EvictionCostlierThanX86)
{
    // Table 3: ARM 4KB eviction (2,274) vs X86 (1,639): slower syscalls,
    // PTE ops and flushes.
    auto measure = [this](World &w) {
        Task *task = w.ready_thread(1);
        std::size_t usable = w.machine.params().usable_pdoms();
        std::vector<VdomId> doms;
        for (std::size_t i = 0; i < usable + 1; ++i) {
            auto [v, vpn] = w.make_domain(1);
            (void)vpn;
            doms.push_back(v);
            w.sys.wrvdr(w.core(0), *task, v, VPerm::kFullAccess);
            w.sys.wrvdr(w.core(0), *task, v, VPerm::kAccessDisable);
        }
        std::uint64_t evict0 = metrics.value(telemetry::Metric::kHlruEvict);
        hw::Cycles t0 = w.core(0).now();
        for (int r = 0; r < 3; ++r) {
            for (VdomId v : doms) {
                w.sys.wrvdr(w.core(0), *task, v, VPerm::kFullAccess);
                w.sys.wrvdr(w.core(0), *task, v, VPerm::kAccessDisable);
            }
        }
        std::uint64_t evictions =
            metrics.value(telemetry::Metric::kHlruEvict) - evict0;
        return evictions ? (w.core(0).now() - t0) / evictions : 0.0;
    };
    auto x86 = std::unique_ptr<World>(World::x86(2));
    double arm_cost = measure(*world);
    double x86_cost = measure(*x86);
    EXPECT_GT(arm_cost, x86_cost);
}

TEST_F(ArmTest, RandomChurnParity)
{
    // The same random grant/revoke/access script on ARM and X86 must
    // produce identical *outcomes* (allow/deny), even though costs differ.
    auto x86 = std::unique_ptr<World>(World::x86(4));
    auto run = [](World &w, std::vector<bool> &outcomes) {
        Task *task = w.ready_thread(2);
        std::vector<std::pair<VdomId, hw::Vpn>> doms;
        for (int i = 0; i < 25; ++i)
            doms.push_back(w.make_domain(1));
        sim::Rng rng(31337);
        for (int op = 0; op < 300; ++op) {
            auto &[v, vpn] = doms[rng.below(doms.size())];
            switch (rng.below(3)) {
              case 0:
                w.sys.wrvdr(w.core(0), *task, v, VPerm::kFullAccess);
                break;
              case 1:
                w.sys.wrvdr(w.core(0), *task, v, VPerm::kAccessDisable);
                break;
              case 2:
                outcomes.push_back(
                    w.sys.access(w.core(0), *task, vpn, rng.below(2)).ok);
                break;
            }
        }
    };
    std::vector<bool> arm_outcomes, x86_outcomes;
    run(*world, arm_outcomes);
    run(*x86, x86_outcomes);
    EXPECT_EQ(arm_outcomes, x86_outcomes);
}

}  // namespace
}  // namespace vdom
