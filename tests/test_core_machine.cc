/// \file
/// Core and Machine tests: clocks, charging, breakdowns, reset.

#include <gtest/gtest.h>

#include "hw/machine.h"
#include "hw/page_table.h"

namespace vdom::hw {
namespace {

TEST(Core, ChargeAdvancesClockAndBreakdown)
{
    Machine machine(ArchParams::x86(1));
    Core &core = machine.core(0);
    EXPECT_DOUBLE_EQ(core.now(), 0.0);
    core.charge(CostKind::kCompute, 100);
    core.charge(CostKind::kSyscall, 50);
    EXPECT_DOUBLE_EQ(core.now(), 150.0);
    EXPECT_DOUBLE_EQ(core.breakdown().get(CostKind::kCompute), 100.0);
    EXPECT_DOUBLE_EQ(core.breakdown().get(CostKind::kSyscall), 50.0);
}

TEST(Core, AdvanceToOnlyMovesForward)
{
    Machine machine(ArchParams::x86(1));
    Core &core = machine.core(0);
    core.charge(CostKind::kCompute, 500);
    core.advance_to(300, CostKind::kIdle);  // In the past: no-op.
    EXPECT_DOUBLE_EQ(core.now(), 500.0);
    core.advance_to(800, CostKind::kIdle);
    EXPECT_DOUBLE_EQ(core.now(), 800.0);
    EXPECT_DOUBLE_EQ(core.breakdown().get(CostKind::kIdle), 300.0);
}

TEST(Core, SwitchPgdChargesBaseRegisterWrite)
{
    Machine machine(ArchParams::x86(1));
    Core &core = machine.core(0);
    PageTable pt(512);
    core.switch_pgd(&pt, 7, CostKind::kPgdSwitch);
    EXPECT_EQ(core.pgd(), &pt);
    EXPECT_EQ(core.asid(), 7u);
    EXPECT_DOUBLE_EQ(core.now(), machine.params().costs.pgd_switch);
    // set_pgd is the free variant (initial placement).
    core.set_pgd(nullptr, 0);
    EXPECT_DOUBLE_EQ(core.now(), machine.params().costs.pgd_switch);
}

TEST(Core, ResetClearsEverything)
{
    Machine machine(ArchParams::x86(1));
    Core &core = machine.core(0);
    PageTable pt(512);
    core.switch_pgd(&pt, 3, CostKind::kPgdSwitch);
    core.tlb().insert(3, 10, {});
    core.perm_reg().set(5, Perm::kFullAccess);
    core.reset();
    EXPECT_DOUBLE_EQ(core.now(), 0.0);
    EXPECT_EQ(core.pgd(), nullptr);
    EXPECT_EQ(core.tlb().size(), 0u);
    EXPECT_EQ(core.perm_reg().get(5), Perm::kAccessDisable);
    EXPECT_DOUBLE_EQ(core.breakdown().total(), 0.0);
}

TEST(Machine, AggregatesAcrossCores)
{
    Machine machine(ArchParams::x86(4));
    machine.core(0).charge(CostKind::kCompute, 100);
    machine.core(1).charge(CostKind::kIo, 300);
    machine.core(3).charge(CostKind::kCompute, 50);
    CycleBreakdown total = machine.total_breakdown();
    EXPECT_DOUBLE_EQ(total.get(CostKind::kCompute), 150.0);
    EXPECT_DOUBLE_EQ(total.get(CostKind::kIo), 300.0);
    EXPECT_DOUBLE_EQ(machine.max_clock(), 300.0);
    machine.reset();
    EXPECT_DOUBLE_EQ(machine.max_clock(), 0.0);
}

TEST(Machine, CoreIdsAndParams)
{
    Machine machine(ArchParams::arm(3));
    EXPECT_EQ(machine.num_cores(), 3u);
    for (std::size_t c = 0; c < 3; ++c)
        EXPECT_EQ(machine.core(c).id(), c);
    EXPECT_EQ(machine.params().kind, ArchKind::kArm);
    EXPECT_EQ(machine.core(1).params().tlb_entries,
              machine.params().tlb_entries);
}

TEST(Machine, EveryCoreTlbIsFullyAssociative)
{
    // Every core gets one LRU over the arch's full TLB capacity.
    for (const ArchParams &params : {ArchParams::x86(4), ArchParams::arm(4)}) {
        Machine machine(params);
        for (std::size_t c = 0; c < machine.num_cores(); ++c) {
            EXPECT_EQ(machine.core(c).tlb().capacity(), params.tlb_entries)
                << "core " << c;
        }
    }
}

}  // namespace
}  // namespace vdom::hw
