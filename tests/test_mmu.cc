/// \file
/// MMU access-path tests: TLB fill, domain checks, fault kinds.

#include <gtest/gtest.h>

#include "hw/machine.h"
#include "hw/mmu.h"
#include "hw/page_table.h"
#include "telemetry/metrics.h"

namespace vdom::hw {
namespace {

class MmuTest : public ::testing::Test {
  protected:
    MmuTest() : machine(ArchParams::x86(1)), pt(512)
    {
        core().set_pgd(&pt, 7);
    }

    Core &core() { return machine.core(0); }

    Machine machine;
    PageTable pt;
};

TEST_F(MmuTest, HitAfterMissFillsTlb)
{
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    pt.map_page(10, 0);
    AccessResult first = Mmu::access(core(), 10, false);
    EXPECT_EQ(first.outcome, AccessOutcome::kOk);
    EXPECT_FALSE(first.tlb_hit);
    AccessResult second = Mmu::access(core(), 10, false);
    EXPECT_TRUE(second.tlb_hit);
    EXPECT_EQ(metrics.value(telemetry::Metric::kTlbHit), 1u);
}

TEST_F(MmuTest, WalkCostsMoreThanHit)
{
    pt.map_page(10, 0);
    Cycles before = core().now();
    Mmu::access(core(), 10, false);
    Cycles walk = core().now() - before;
    before = core().now();
    Mmu::access(core(), 10, false);
    Cycles hit = core().now() - before;
    EXPECT_GT(walk, hit);
}

TEST_F(MmuTest, UnmappedPageFaults)
{
    AccessResult res = Mmu::access(core(), 999, false);
    EXPECT_EQ(res.outcome, AccessOutcome::kPageFault);
}

TEST_F(MmuTest, DomainFaultWhenRegisterDenies)
{
    pt.map_page(10, 5);
    // Slot 5 defaults to access-disable.
    AccessResult res = Mmu::access(core(), 10, false);
    EXPECT_EQ(res.outcome, AccessOutcome::kDomainFault);
    EXPECT_EQ(res.pdom, 5);
    core().perm_reg().set(5, Perm::kFullAccess);
    EXPECT_EQ(Mmu::access(core(), 10, false).outcome, AccessOutcome::kOk);
}

TEST_F(MmuTest, WriteDisableAllowsReadOnly)
{
    pt.map_page(10, 5);
    core().perm_reg().set(5, Perm::kWriteDisable);
    EXPECT_EQ(Mmu::access(core(), 10, false).outcome, AccessOutcome::kOk);
    EXPECT_EQ(Mmu::access(core(), 10, true).outcome,
              AccessOutcome::kDomainFault);
}

TEST_F(MmuTest, DisabledPmdReportsPageFault)
{
    for (Vpn v = 0; v < 512; ++v)
        pt.map_page(v, 5);
    pt.disable_range(0, 512, 1, true);
    core().tlb().flush_all();
    AccessResult res = Mmu::access(core(), 100, false);
    EXPECT_EQ(res.outcome, AccessOutcome::kPageFault);
    EXPECT_TRUE(res.pmd_disabled);
}

TEST_F(MmuTest, DomainCheckHappensOnTlbHitToo)
{
    pt.map_page(10, 5);
    core().perm_reg().set(5, Perm::kFullAccess);
    Mmu::access(core(), 10, false);  // Fill TLB.
    core().perm_reg().set(5, Perm::kAccessDisable);
    AccessResult res = Mmu::access(core(), 10, false);
    EXPECT_TRUE(res.tlb_hit);
    EXPECT_EQ(res.outcome, AccessOutcome::kDomainFault);
}

TEST_F(MmuTest, TranslateOnlySkipsPermissionCheck)
{
    pt.map_page(10, 5);  // Register denies pdom 5.
    AccessResult res = Mmu::translate_only(core(), 10);
    EXPECT_EQ(res.outcome, AccessOutcome::kOk);
}

TEST_F(MmuTest, NoPgdInstalledFaults)
{
    core().set_pgd(nullptr, 0);
    EXPECT_EQ(Mmu::access(core(), 10, false).outcome,
              AccessOutcome::kPageFault);
}

}  // namespace
}  // namespace vdom::hw
