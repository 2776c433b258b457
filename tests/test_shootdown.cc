/// \file
/// Shootdown-manager tests: bitmap targeting, cost attribution.

#include <gtest/gtest.h>

#include "hw/machine.h"
#include "kernel/shootdown.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {
namespace {

class ShootdownTest : public ::testing::Test {
  protected:
    ShootdownTest() : machine(hw::ArchParams::x86(4)), sd(machine) {}

    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach{metrics};
    hw::Machine machine;
    ShootdownManager sd;
};

TEST_F(ShootdownTest, OnlyBitmapTargetsFlushed)
{
    for (std::size_t c = 0; c < 4; ++c)
        machine.core(c).tlb().insert(9, 1, {});
    // Shoot cores 1 and 3 from core 0.
    sd.shoot(machine.core(0), 0b1010, FlushKind::kAll);
    EXPECT_TRUE(machine.core(0).tlb().lookup(9, 1).has_value());
    EXPECT_FALSE(machine.core(1).tlb().lookup(9, 1).has_value());
    EXPECT_TRUE(machine.core(2).tlb().lookup(9, 1).has_value());
    EXPECT_FALSE(machine.core(3).tlb().lookup(9, 1).has_value());
    EXPECT_EQ(metrics.value(telemetry::Metric::kShootdowns), 1u);
    EXPECT_EQ(metrics.value(telemetry::Metric::kShootdownIpis), 2u);
}

TEST_F(ShootdownTest, InitiatorExcludedFromItsOwnBitmapBit)
{
    machine.core(0).tlb().insert(9, 1, {});
    sd.shoot(machine.core(0), 0b0001, FlushKind::kAll);
    EXPECT_TRUE(machine.core(0).tlb().lookup(9, 1).has_value());
    EXPECT_EQ(metrics.value(telemetry::Metric::kShootdownIpis), 0u);
}

TEST_F(ShootdownTest, CostsLandOnBothSides)
{
    sd.shoot(machine.core(0), 0b0110, FlushKind::kAll);
    const hw::CostTable &costs = machine.params().costs;
    EXPECT_NEAR(machine.core(0).breakdown().get(hw::CostKind::kShootdown),
                2 * (costs.ipi_post + costs.ipi_wait), 0.01);
    EXPECT_NEAR(machine.core(1).breakdown().get(hw::CostKind::kShootdown),
                costs.ipi_handle, 0.01);
    EXPECT_GT(machine.core(1).breakdown().get(hw::CostKind::kTlbFlush), 0);
}

TEST_F(ShootdownTest, TargetCurrentAsidFlushesPerCoreAsid)
{
    // Core 1 runs ASID 7; core 2 runs ASID 8 (per-core PCIDs).
    machine.core(1).set_pgd(nullptr, 7);
    machine.core(2).set_pgd(nullptr, 8);
    machine.core(1).tlb().insert(7, 1, {});
    machine.core(1).tlb().insert(5, 1, {});  // Unrelated ASID survives.
    machine.core(2).tlb().insert(8, 1, {});
    sd.shoot(machine.core(0), 0b0110, FlushKind::kAsid, 0, 0, 0,
             /*target_current_asid=*/true);
    EXPECT_FALSE(machine.core(1).tlb().lookup(7, 1).has_value());
    EXPECT_TRUE(machine.core(1).tlb().lookup(5, 1).has_value());
    EXPECT_FALSE(machine.core(2).tlb().lookup(8, 1).has_value());
}

TEST_F(ShootdownTest, RangeFlushChargesPerPage)
{
    for (hw::Vpn v = 0; v < 8; ++v)
        machine.core(1).tlb().insert(3, v, {});
    sd.shoot(machine.core(0), 0b0010, FlushKind::kRange, 3, 2, 4);
    EXPECT_FALSE(machine.core(1).tlb().lookup(3, 3).has_value());
    EXPECT_TRUE(machine.core(1).tlb().lookup(3, 7).has_value());
}

TEST_F(ShootdownTest, LocalFlush)
{
    machine.core(0).tlb().insert(3, 1, {});
    sd.local_flush(machine.core(0), FlushKind::kAsid, 3);
    EXPECT_FALSE(machine.core(0).tlb().lookup(3, 1).has_value());
    EXPECT_EQ(metrics.value(telemetry::Metric::kShootdownIpis), 0u);
}

TEST_F(ShootdownTest, BroadcastFlushAll)
{
    for (std::size_t c = 0; c < 4; ++c)
        machine.core(c).tlb().insert(1, 1, {});
    sd.broadcast_flush_all(machine.core(2));
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_EQ(machine.core(c).tlb().size(), 0u) << c;
}

}  // namespace
}  // namespace vdom::kernel
