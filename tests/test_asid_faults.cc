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

/// Tags 1..kFillTags cover every tag a small world hands out; each core's
/// TLB holds kFillPages entries under each of them.
constexpr hw::Asid kFillTags = 16;
constexpr std::size_t kFillPages = 2;

void
fill_tlbs(World &world)
{
    for (std::size_t c = 0; c < world.machine.num_cores(); ++c)
        for (hw::Asid tag = 1; tag <= kFillTags; ++tag)
            for (hw::Vpn vpn = 0; vpn < kFillPages; ++vpn)
                world.core(c).tlb().insert(tag, vpn, {});
}

// -- ARM: generation rollover ---------------------------------------------

TEST(ArmAsidFaults, ForcedExhaustionTakesTheRolloverPath)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::arm(1));
    ArmAsidAllocator alloc(machine, /*space_size=*/64);
    AsidAssignment first = alloc.assign(0, 1);
    EXPECT_FALSE(first.need_flush_all);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_all);  // warm hit
    std::uint64_t gen = alloc.generation();

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1});
    machine.set_faults(&plan);
    AsidAssignment forced = alloc.assign(0, 1);
    // Exactly the rollover signature: flush-all, never flush-asid.
    EXPECT_TRUE(forced.need_flush_all);
    EXPECT_FALSE(forced.need_flush_asid);
    EXPECT_EQ(alloc.generation(), gen + 1);
    EXPECT_NE(forced.asid, first.asid);
    machine.set_faults(nullptr);
    // The rollover re-registered the context in the new generation: the
    // next unarmed assignment is a plain hit with no flush at all.
    AsidAssignment after = alloc.assign(0, 1);
    EXPECT_FALSE(after.need_flush_all);
    EXPECT_FALSE(after.need_flush_asid);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRollover), 1u);
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
    machine.set_faults(&plan);
    for (int i = 0; i < 5; ++i)
        alloc.assign(0, 1);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRollover), 3u);
    EXPECT_EQ(registry.value(telemetry::Metric::kFaultsInjected), 3u);
}

TEST(ArmAsidFaults, RolloverBroadcastsFlushAllThroughTheProcess)
{
    auto world = std::unique_ptr<World>(World::arm(2));
    kernel::Task *task = world->ready_thread();
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    fill_tlbs(*world);

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 1});
    world->machine.set_faults(&plan);
    world->proc.switch_to(world->core(0), *task, false);
    world->machine.set_faults(nullptr);
    // ARM rollover flushes every TLB in the machine, not just the
    // initiating core's: one remote and one local flush-all.
    EXPECT_EQ(world->core(0).tlb().size(), 0u);
    EXPECT_EQ(world->core(1).tlb().size(), 0u);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 2u);

    // Unarmed switches go back to paying nothing.
    fill_tlbs(*world);
    world->proc.switch_to(world->core(0), *task, false);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_EQ(world->core(c).tlb().size(), kFillTags * kFillPages) << c;
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 2u);
}

// -- X86: PCID cache thrash -----------------------------------------------

TEST(X86PcidFaults, ForcedThrashTakesTheRecyclePath)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, /*slots_per_core=*/4);
    AsidAssignment first = alloc.assign(0, 1);
    EXPECT_FALSE(first.need_flush_asid);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);  // warm hit

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1});
    machine.set_faults(&plan);
    AsidAssignment forced = alloc.assign(0, 1);
    // Exactly the thrash signature: the slot is treated as lost, so
    // the context pays a recycle flush — but never a flush-all (that
    // is ARM's rollover signal, DESIGN.md invariant).
    EXPECT_TRUE(forced.need_flush_asid);
    EXPECT_FALSE(forced.need_flush_all);
    EXPECT_NE(forced.asid, first.asid);
    machine.set_faults(nullptr);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRecycle), 1u);
    // Unarmed again: the refilled slot hits.
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);
}

TEST(X86PcidFaults, NaturalThrashWhenWorkingSetExceedsSlots)
{
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    hw::Machine machine(hw::ArchParams::x86(1));
    X86PcidAllocator alloc(machine, /*slots_per_core=*/2);
    EXPECT_FALSE(alloc.assign(0, 1).need_flush_asid);
    EXPECT_FALSE(alloc.assign(0, 2).need_flush_asid);
    // Third context evicts the LRU slot (ctx 1) and pays the flush; ctx 1
    // then misses and recycles in turn.
    EXPECT_TRUE(alloc.assign(0, 3).need_flush_asid);
    EXPECT_TRUE(alloc.assign(0, 1).need_flush_asid);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRecycle), 2u);
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
    machine.set_faults(&plan);
    for (int i = 0; i < 4; ++i)
        alloc.assign(0, 1);
    EXPECT_EQ(registry.value(telemetry::Metric::kAsidRecycle), 2u);
}

TEST(X86PcidFaults, ThrashFlushesOnlyTheLocalAsidThroughTheProcess)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    kernel::Task *task = world->ready_thread();
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics metrics(registry);
    fill_tlbs(*world);
    hw::Asid before = world->core(0).asid();

    FaultPlan plan(7);
    plan.arm(FaultSite::kAsidExhaustion, {.every = 1, .max_fires = 1});
    world->machine.set_faults(&plan);
    world->proc.switch_to(world->core(0), *task, false);
    world->machine.set_faults(nullptr);
    // The recycle costs one local flush of the recycled ASID; nobody
    // broadcasts anything.  Core 0 loses exactly that tag's entries and
    // core 1 keeps every entry.
    hw::Asid recycled = world->core(0).asid();
    ASSERT_NE(recycled, before);
    ASSERT_LE(recycled, kFillTags);
    EXPECT_EQ(registry.value(telemetry::Metric::kTlbFlush), 1u);
    for (hw::Asid tag = 1; tag <= kFillTags; ++tag) {
        EXPECT_EQ(world->core(0).tlb().size(tag),
                  tag == recycled ? 0u : kFillPages)
            << "tag " << tag;
        EXPECT_EQ(world->core(1).tlb().size(tag), kFillPages) << "tag " << tag;
    }
}

}  // namespace
}  // namespace vdom
