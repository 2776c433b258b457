/// \file
/// ASID behaviour under injected exhaustion (FaultSite::kAsidExhaustion).
///
/// ARM: a forced exhaustion must take exactly the generation-rollover path
/// (generation bump + need_flush_all + machine-wide flush), the same path
/// natural exhaustion takes when the space runs out.  X86: a forced PCID
/// cache thrash must take exactly the recycle path (need_flush_asid on the
/// recycled slot) and never a flush-all — per DESIGN.md, need_flush_all is
/// an ARM-rollover-only signal.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "kernel/asid.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using ::vdom::testing::World;
using kernel::ArmAsidAllocator;
using kernel::AsidAssignment;
using kernel::X86PcidAllocator;
using sim::FaultPlan;
using sim::FaultSite;
using sim::ScopedFaults;

// -- ARM: generation rollover ---------------------------------------------

TEST(ArmAsidFaults, ForcedExhaustionTakesTheRolloverPath)
{
    hw::Machine machine(hw::ArchParams::arm(1));
    ArmAsidAllocator alloc(machine, /*space_size=*/64);
    AsidAssignment first = alloc.assign(0, 1);
    EXPECT_FALSE(first.need_flush_all);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_all);  // warm hit
    std::uint64_t gen = alloc.generation();

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1});
    {
        ScopedFaults armed(plan);
        AsidAssignment forced = alloc.assign(0, 1);
        // Exactly the rollover signature: flush-all, never flush-asid.
        EXPECT_TRUE(forced.need_flush_all);
        EXPECT_FALSE(forced.need_flush_asid);
        EXPECT_EQ(alloc.generation(), gen + 1);
        EXPECT_NE(forced.asid, first.asid);
    }
    // The rollover re-registered the context in the new generation: the
    // next unarmed assignment is a plain hit with no flush at all.
    AsidAssignment after = alloc.assign(0, 1);
    EXPECT_FALSE(after.need_flush_all);
    EXPECT_FALSE(after.need_flush_asid);
    EXPECT_EQ(alloc.flush_count(), 1u);
}

TEST(ArmAsidFaults, NaturalExhaustionRollsOverAtTheSamePoint)
{
    // Small space: contexts 1..3 fit, the 4th exhausts it.  The flag must
    // fire exactly once, exactly there — not before, not after.
    hw::Machine machine(hw::ArchParams::arm(1));
    ArmAsidAllocator alloc(machine, /*space_size=*/4);
    for (std::uint64_t ctx = 1; ctx <= 3; ++ctx)
        EXPECT_FALSE(alloc.assign(0, ctx).need_flush_all) << ctx;
    EXPECT_EQ(alloc.generation(), 1u);
    AsidAssignment rolled = alloc.assign(0, 4);
    EXPECT_TRUE(rolled.need_flush_all);
    EXPECT_EQ(alloc.generation(), 2u);
    // Post-rollover the space is empty again; the next context fits.
    EXPECT_FALSE(alloc.assign(0, 5).need_flush_all);
}

TEST(ArmAsidFaults, ForcedRolloverCountsTheRolloverMetric)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::arm(1));
    ArmAsidAllocator alloc(machine);
    alloc.assign(0, 1);
    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 3});
    ScopedFaults armed(plan);
    for (int i = 0; i < 5; ++i)
        alloc.assign(0, 1);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRollover), 3u);
    EXPECT_EQ(registry.value(telemetry::Metric::kFaultsInjected), 3u);
}

TEST(ArmAsidFaults, RolloverBroadcastsFlushAllThroughTheProcess)
{
    auto world = std::unique_ptr<World>(World::arm(2));
    kernel::Task *task = world->ready_thread();
    auto flushes = [&](std::size_t c) {
        return world->core(c).tlb().stats().flushes_all;
    };
    std::uint64_t before0 = flushes(0), before1 = flushes(1);

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 1});
    {
        ScopedFaults armed(plan);
        world->proc.switch_to(world->core(0), *task, false);
    }
    // ARM rollover flushes every TLB in the machine, not just the
    // initiating core's.
    EXPECT_GT(flushes(0), before0);
    EXPECT_GT(flushes(1), before1);

    // Unarmed switches go back to paying nothing.
    std::uint64_t settled0 = flushes(0);
    world->proc.switch_to(world->core(0), *task, false);
    EXPECT_EQ(flushes(0), settled0);
}

// -- X86: PCID cache thrash -----------------------------------------------

TEST(X86PcidFaults, ForcedThrashTakesTheRecyclePath)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, /*slots_per_core=*/4);
    AsidAssignment first = alloc.assign(0, 1);
    EXPECT_FALSE(first.need_flush_asid);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);  // warm hit

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1});
    {
        ScopedFaults armed(plan);
        AsidAssignment forced = alloc.assign(0, 1);
        // Exactly the thrash signature: the slot is treated as lost, so
        // the context pays a recycle flush — but never a flush-all (that
        // is ARM's rollover signal, DESIGN.md invariant).
        EXPECT_TRUE(forced.need_flush_asid);
        EXPECT_FALSE(forced.need_flush_all);
        EXPECT_NE(forced.asid, first.asid);
    }
    EXPECT_EQ(alloc.flush_count(), 1u);
    // Unarmed again: the refilled slot hits.
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);
}

TEST(X86PcidFaults, NaturalThrashWhenWorkingSetExceedsSlots)
{
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, /*slots_per_core=*/2);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);
    EXPECT_FALSE(alloc.assign(0, 2).need_flush_asid);
    // Third context evicts the LRU slot (ctx 1) and pays the flush; ctx 1
    // then misses and recycles in turn.
    EXPECT_TRUE(alloc.assign(0, 3).need_flush_asid);
    EXPECT_TRUE(alloc.assign(0, 1).need_flush_asid);
    EXPECT_EQ(alloc.flush_count(), 2u);
}

TEST(X86PcidFaults, ForcedThrashCountsTheRecycleMetric)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, 4);
    alloc.assign(0, 1);
    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 2});
    ScopedFaults armed(plan);
    for (int i = 0; i < 4; ++i)
        alloc.assign(0, 1);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRecycle), 2u);
}

TEST(X86PcidFaults, ThrashFlushesOnlyTheLocalAsidThroughTheProcess)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = world->ready_thread();
    auto stats = [&](std::size_t c) {
        return world->core(c).tlb().stats();
    };
    std::uint64_t asid_before = stats(0).flushes_asid;
    std::uint64_t all_before0 = stats(0).flushes_all;
    std::uint64_t all_before1 = stats(1).flushes_all;

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 1});
    {
        ScopedFaults armed(plan);
        world->proc.switch_to(world->core(0), *task, false);
    }
    // The recycle costs a local ASID flush; nobody broadcasts anything.
    EXPECT_GT(stats(0).flushes_asid, asid_before);
    EXPECT_EQ(stats(0).flushes_all, all_before0);
    EXPECT_EQ(stats(1).flushes_all, all_before1);
}

}  // namespace
}  // namespace vdom
