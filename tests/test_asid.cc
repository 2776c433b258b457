/// \file
/// ASID allocator tests: PCID caching and ARM generation rollover.

#include <gtest/gtest.h>

#include "hw/arch.h"
#include "hw/machine.h"
#include "kernel/asid.h"
#include "telemetry/metrics.h"

namespace vdom::kernel {
namespace {

TEST(X86Pcid, HitReusesAsidWithoutFlush)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    X86PcidAllocator alloc(machine, 6);
    AsidAssignment a = alloc.assign(0, 100);
    EXPECT_FALSE(a.need_flush_asid);
    AsidAssignment b = alloc.assign(0, 100);
    EXPECT_EQ(a.asid, b.asid);
    EXPECT_FALSE(b.need_flush_asid);
}

TEST(X86Pcid, PerCoreSlots)
{
    hw::Machine machine(hw::ArchParams::x86(2));
    X86PcidAllocator alloc(machine, 6);
    AsidAssignment a = alloc.assign(0, 100);
    AsidAssignment b = alloc.assign(1, 100);
    // The same context gets different tags on different cores (PCIDs are
    // per-core state).
    EXPECT_NE(a.asid, b.asid);
}

TEST(X86Pcid, EvictionFlushesRecycledSlot)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, 2);
    alloc.assign(0, 1);
    alloc.assign(0, 2);
    // Third context overflows the 2-slot cache: recycled slot must flush.
    AsidAssignment c = alloc.assign(0, 3);
    EXPECT_TRUE(c.need_flush_asid);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRecycle), 1u);
    // Returning to context 1 misses again (it was evicted).
    AsidAssignment again = alloc.assign(0, 1);
    EXPECT_TRUE(again.need_flush_asid);
}

TEST(X86Pcid, LruSlotIsVictim)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, 2);
    AsidAssignment a1 = alloc.assign(0, 1);
    alloc.assign(0, 2);
    alloc.assign(0, 1);  // Touch 1: now 2 is LRU.
    alloc.assign(0, 3);  // Evicts 2.
    AsidAssignment a1_again = alloc.assign(0, 1);
    EXPECT_EQ(a1.asid, a1_again.asid);  // 1 stayed cached.
    EXPECT_FALSE(a1_again.need_flush_asid);
}

TEST(ArmAsid, StableUntilRollover)
{
    hw::Machine machine(hw::ArchParams::arm(4));
    ArmAsidAllocator alloc(machine, 256);
    AsidAssignment a = alloc.assign(0, 42);
    AsidAssignment b = alloc.assign(3, 42);
    EXPECT_EQ(a.asid, b.asid);  // Global space: same tag on every core.
    EXPECT_FALSE(a.need_flush_all);
}

TEST(ArmAsid, RolloverFlushesEverything)
{
    hw::Machine machine(hw::ArchParams::arm(1));
    ArmAsidAllocator alloc(machine, 4);
    alloc.assign(0, 1);
    alloc.assign(0, 2);
    alloc.assign(0, 3);
    AsidAssignment d = alloc.assign(0, 4);
    EXPECT_TRUE(d.need_flush_all);
    EXPECT_EQ(alloc.generation(), 2u);
    // Context 1 must re-allocate after the rollover.
    AsidAssignment again = alloc.assign(0, 1);
    EXPECT_FALSE(again.need_flush_all);
    EXPECT_NE(again.asid, 0u);
}

TEST(AsidFactory, PicksPerArch)
{
    hw::Machine x86_machine(hw::ArchParams::x86(2));
    hw::Machine arm_machine(hw::ArchParams::arm(2));
    auto x86 = AsidAllocator::make(x86_machine);
    auto arm = AsidAllocator::make(arm_machine);
    EXPECT_NE(dynamic_cast<X86PcidAllocator *>(x86.get()), nullptr);
    EXPECT_NE(dynamic_cast<ArmAsidAllocator *>(arm.get()), nullptr);
}

TEST(AsidUniqueness, TagsNeverRecycledAcrossContexts)
{
    // The model's tags are machine-unique and never recycled within a
    // world, which is what guarantees a stale TLB entry can never be
    // matched by a new context.
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, 2);
    std::vector<hw::Asid> seen;
    for (std::uint64_t ctx = 1; ctx <= 20; ++ctx) {
        AsidAssignment a = alloc.assign(0, ctx);
        for (hw::Asid old : seen)
            EXPECT_NE(a.asid, old);
        seen.push_back(a.asid);
    }
}

TEST(AsidUniquenessDeathTest, MachineStopsBeforeATagWouldAlias)
{
    // A TLB key keeps 16 bits of the tag: tag 65536 would alias tag 0 and
    // 65537 tag 1, so the machine stops the run instead of handing one
    // out, in every build type.
    hw::Machine machine(hw::ArchParams::x86(1));
    for (hw::Asid expect = 1; expect <= hw::Tlb::kMaxAsid; ++expect)
        ASSERT_EQ(machine.next_asid(), expect);
    EXPECT_DEATH(machine.next_asid(), "out of TLB tags");
}

}  // namespace
}  // namespace vdom::kernel
