/// \file
/// Compartment / RAII-guard tests.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"
#include "vdom/compartment.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

class CompartmentTest : public ::testing::Test {
  protected:
    CompartmentTest() : world(World::x86(2))
    {
        task = world->ready_thread();
        ps = world->machine.params().page_size;
    }

    std::unique_ptr<World> world;
    Task *task = nullptr;
    std::uint64_t ps = 0;
};

TEST_F(CompartmentTest, ScopedAccessOpensAndCloses)
{
    Compartment comp(world->sys, world->core(0));
    SecureAllocation secret = comp.allocate(world->core(0), 64);
    hw::Vpn page = secret.page(ps);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, page, true)
                    .sigsegv);
    {
        ScopedAccess open(comp, world->core(0), *task);
        EXPECT_TRUE(world->sys.access(world->core(0), *task, page, true).ok);
    }
    EXPECT_TRUE(world->sys.access(world->core(0), *task, page, false)
                    .sigsegv);
}

TEST_F(CompartmentTest, EarlyReturnStillCloses)
{
    Compartment comp(world->sys, world->core(0));
    SecureAllocation secret = comp.allocate(world->core(0), 8);
    auto risky = [&]() -> bool {
        ScopedAccess open(comp, world->core(0), *task);
        if (world->sys.access(world->core(0), *task, secret.page(ps), true)
                .ok) {
            return true;  // Early return: the guard must still close.
        }
        return false;
    };
    EXPECT_TRUE(risky());
    EXPECT_TRUE(world->sys
                    .access(world->core(0), *task, secret.page(ps), false)
                    .sigsegv);
}

TEST_F(CompartmentTest, DowngradeInPlace)
{
    Compartment comp(world->sys, world->core(0));
    SecureAllocation buf = comp.allocate(world->core(0), 128);
    hw::Vpn page = buf.page(ps);
    ScopedAccess open(comp, world->core(0), *task);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, page, true).ok);
    open.downgrade(VPerm::kWriteDisable);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, page, false).ok);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, page, true)
                    .sigsegv);
}

TEST_F(CompartmentTest, MoveTransfersOwnership)
{
    Compartment comp(world->sys, world->core(0));
    SecureAllocation buf = comp.allocate(world->core(0), 8);
    {
        ScopedAccess outer(comp, world->core(0), *task);
        ScopedAccess inner(std::move(outer));
        EXPECT_TRUE(world->sys
                        .access(world->core(0), *task, buf.page(ps), true)
                        .ok);
        // outer's destructor (moved-from) must not close early.
    }
    EXPECT_TRUE(world->sys
                    .access(world->core(0), *task, buf.page(ps), false)
                    .sigsegv);
}

TEST_F(CompartmentTest, ParkKeepsMappingWarm)
{
    Compartment comp(world->sys, world->core(0));
    SecureAllocation buf = comp.allocate(world->core(0), 8);
    {
        ScopedPinnedAccess open(comp, world->core(0), *task);
        ASSERT_TRUE(world->sys
                        .access(world->core(0), *task, buf.page(ps), true)
                        .ok);
    }
    // Parked: inaccessible...
    EXPECT_TRUE(world->sys
                    .access(world->core(0), *task, buf.page(ps), false)
                    .sigsegv);
    // ...but still mapped (the pin's purpose): reopening is the cheap
    // mapped-wrvdr path, no eviction.
    ASSERT_TRUE(task->vds()->is_mapped(comp.domain()));
    telemetry::MetricsRegistry metrics;
    {
        telemetry::ScopedMetrics attach(metrics);
        comp.open(world->core(0), *task);
    }
    EXPECT_EQ(metrics.value(telemetry::Metric::kHlruEvict), 0u);
    EXPECT_TRUE(
        world->sys.access(world->core(0), *task, buf.page(ps), true).ok);
}

TEST_F(CompartmentTest, AdoptExistingRegion)
{
    Compartment comp(world->sys, world->core(0));
    hw::Vpn legacy = world->proc.mm().mmap(4);
    EXPECT_EQ(comp.adopt(world->core(0), legacy, 4), VdomStatus::kOk);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, legacy, false)
                    .sigsegv);
    ScopedAccess open(comp, world->core(0), *task);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, legacy + 3, true)
                    .ok);
}

TEST_F(CompartmentTest, CompartmentsAreMutuallyIsolated)
{
    Compartment a(world->sys, world->core(0));
    Compartment b(world->sys, world->core(0));
    SecureAllocation sa = a.allocate(world->core(0), 8);
    SecureAllocation sb = b.allocate(world->core(0), 8);
    ScopedAccess open_a(a, world->core(0), *task);
    EXPECT_TRUE(
        world->sys.access(world->core(0), *task, sa.page(ps), true).ok);
    EXPECT_TRUE(world->sys
                    .access(world->core(0), *task, sb.page(ps), false)
                    .sigsegv);
}

}  // namespace
}  // namespace vdom
