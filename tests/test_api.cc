/// \file
/// Public API tests (Table 1 semantics).

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

class ApiTest : public ::testing::Test {
  protected:
    ApiTest() : world(World::x86(2)) {}

    std::unique_ptr<World> world;
};

TEST_F(ApiTest, InitIsIdempotent)
{
    EXPECT_EQ(world->sys.vdom_init(world->core(0)), VdomStatus::kOk);
    EXPECT_TRUE(world->sys.initialized());
    EXPECT_EQ(world->sys.vdom_init(world->core(0)), VdomStatus::kOk);
}

TEST_F(ApiTest, CallsBeforeInitRejected)
{
    Task *task = world->spawn();
    EXPECT_EQ(world->sys.vdom_alloc(world->core(0)), kInvalidVdom);
    EXPECT_EQ(world->sys.vdr_alloc(world->core(0), *task, 1),
              VdomStatus::kNotInitialized);
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), 0, 1, 5),
              VdomStatus::kNotInitialized);
}

TEST_F(ApiTest, VdrLifecycle)
{
    Task *task = world->ready_thread();
    EXPECT_TRUE(task->has_vdr());
    EXPECT_EQ(world->sys.vdr_alloc(world->core(0), *task, 1),
              VdomStatus::kVdrInUse);
    EXPECT_EQ(world->sys.vdr_free(world->core(0), *task), VdomStatus::kOk);
    EXPECT_FALSE(task->has_vdr());
    EXPECT_EQ(world->sys.vdr_free(world->core(0), *task),
              VdomStatus::kNoVdr);
}

TEST_F(ApiTest, WrvdrRequiresVdr)
{
    world->sys.vdom_init(world->core(0));
    Task *task = world->spawn();
    VdomId v = world->sys.vdom_alloc(world->core(0));
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kFullAccess),
              VdomStatus::kNoVdr);
}

TEST_F(ApiTest, WrvdrRdvdrRoundTrip)
{
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kWriteDisable),
              VdomStatus::kOk);
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, v),
              VPerm::kWriteDisable);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, v),
              VPerm::kAccessDisable);
}

TEST_F(ApiTest, WrvdrRejectsReservedAndUnknown)
{
    Task *task = world->ready_thread();
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, kApiVdom,
                               VPerm::kFullAccess),
              VdomStatus::kPermissionDenied);
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, 424242,
                               VPerm::kFullAccess),
              VdomStatus::kInvalidVdom);
}

TEST_F(ApiTest, ProtectedAccessEndToEnd)
{
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(4);
    // Without permission: SIGSEGV.
    VAccess denied = world->sys.access(world->core(0), *task, vpn, false);
    EXPECT_TRUE(denied.sigsegv);
    // Grant read, read works, write still fails.
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable);
    VAccess read = world->sys.access(world->core(0), *task, vpn, false);
    EXPECT_TRUE(read.ok);
    VAccess write = world->sys.access(world->core(0), *task, vpn, true);
    EXPECT_TRUE(write.sigsegv);
    // Full access: write works.
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn + 3, true).ok);
}

TEST_F(ApiTest, UnprotectedMemoryAlwaysAccessible)
{
    Task *task = world->ready_thread();
    hw::Vpn vpn = world->proc.mm().mmap(2);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);
}

TEST_F(ApiTest, UnmappedAddressSigsegv)
{
    Task *task = world->ready_thread();
    EXPECT_TRUE(
        world->sys.access(world->core(0), *task, 0xdeadbee, false).sigsegv);
}

TEST_F(ApiTest, MprotectBytesRounding)
{
    world->sys.vdom_init(world->core(0));
    VdomId v = world->sys.vdom_alloc(world->core(0));
    hw::Vpn vpn = world->proc.mm().mmap(4);
    std::uint64_t ps = world->machine.params().page_size;
    // Bytes [vpn*ps + 100, +2*ps): touches pages 0..2 of the region.
    EXPECT_EQ(world->sys.vdom_mprotect_bytes(world->core(0),
                                             vpn * ps + 100, 2 * ps, v),
              VdomStatus::kOk);
    EXPECT_EQ(world->proc.mm().vdom_of(vpn), v);
    EXPECT_EQ(world->proc.mm().vdom_of(vpn + 2), v);
    EXPECT_EQ(world->proc.mm().vdom_of(vpn + 3), kCommonVdom);
    // A range whose last byte would wrap past the top of the address
    // space is rejected, not folded onto low pages.
    EXPECT_EQ(world->sys.vdom_mprotect_bytes(world->core(0), ~0ULL - 9, 11,
                                             v),
              VdomStatus::kInvalidRange);
    EXPECT_EQ(world->sys.vdom_mprotect_bytes(world->core(0), 0, 0, v),
              VdomStatus::kInvalidRange);
}

TEST_F(ApiTest, VdomFreeRevokesEverywhere)
{
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(2);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    ASSERT_TRUE(world->sys.access(world->core(0), *task, vpn, true).ok);
    EXPECT_EQ(world->sys.vdom_free(world->core(0), v), VdomStatus::kOk);
    // Pages are access-never now; even with the stale VDR bits the access
    // must fail (the vdom is gone).
    EXPECT_FALSE(world->sys.access(world->core(0), *task, vpn, true).ok);
}

TEST_F(ApiTest, VdomFreeRejectsReserved)
{
    world->sys.vdom_init(world->core(0));
    EXPECT_EQ(world->sys.vdom_free(world->core(0), kCommonVdom),
              VdomStatus::kPermissionDenied);
    EXPECT_EQ(world->sys.vdom_free(world->core(0), kApiVdom),
              VdomStatus::kPermissionDenied);
}

TEST_F(ApiTest, EvictedDomainFaultsBackIn)
{
    // Force an eviction, then touch the evicted vdom: the fault handler
    // must remap and retry transparently.
    Task *task = world->ready_thread(/*nas=*/1);
    std::size_t usable = world->machine.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < usable + 2; ++i) {
        doms.push_back(world->make_domain(1));
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kFullAccess);
        ASSERT_TRUE(world->sys
                        .access(world->core(0), *task, doms.back().second,
                                true)
                        .ok);
        world->sys.wrvdr(world->core(0), *task, doms.back().first,
                         VPerm::kAccessDisable);
    }
    // doms[0] was evicted at some point.  Re-grant and access.
    world->sys.wrvdr(world->core(0), *task, doms[0].first,
                     VPerm::kFullAccess);
    EXPECT_TRUE(
        world->sys.access(world->core(0), *task, doms[0].second, true).ok);
}

TEST_F(ApiTest, ThreadLocalViews)
{
    // §5.2: "all threads in a process independently have their permissions
    // on different vdoms."
    Task *t1 = world->ready_thread();
    Task *t2 = world->spawn(1);
    world->sys.vdr_alloc(world->core(1), *t2, 2);
    auto [v, vpn] = world->make_domain(1);
    world->sys.wrvdr(world->core(0), *t1, v, VPerm::kFullAccess);
    EXPECT_TRUE(world->sys.access(world->core(0), *t1, vpn, true).ok);
    EXPECT_TRUE(world->sys.access(world->core(1), *t2, vpn, false).sigsegv);
}

TEST_F(ApiTest, ArmSyscallGatedApi)
{
    auto arm = std::unique_ptr<World>(World::arm(2));
    Task *task = arm->ready_thread();
    auto [v, vpn] = arm->make_domain(1);
    hw::Cycles before = arm->core(0).now();
    arm->sys.wrvdr(arm->core(0), *task, v, VPerm::kFullAccess);
    // ARM wrvdr always pays a syscall (DACR is privileged).
    EXPECT_GT(arm->core(0).now() - before,
              arm->machine.params().costs.syscall);
    EXPECT_TRUE(arm->sys.access(arm->core(0), *task, vpn, true).ok);
}

TEST_F(ApiTest, StatsCount)
{
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_TRUE(world->sys.access(world->core(0), *task, vpn, false).ok);
    world->sys.rdvdr(world->core(0), *task, v);
    EXPECT_EQ(metrics.value(telemetry::Metric::kWrvdrCalls), 1u);
    EXPECT_EQ(metrics.value(telemetry::Metric::kRdvdrCalls), 1u);
}

// `api.wrvdr` and `api.wrvdr_cycles` count calls that pass validation:
// a call rejected at any validation step leaves both unchanged, and a
// valid call bumps each exactly once.
TEST_F(ApiTest, WrvdrMetricsCountOnlyValidatedCalls)
{
    using telemetry::Metric;
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    hw::Core &core = world->core(0);
    auto expect_uncounted = [&](Task &task, VdomId vdom,
                                VdomStatus expected) {
        EXPECT_EQ(world->sys.wrvdr(core, task, vdom, VPerm::kFullAccess),
                  expected);
        EXPECT_EQ(metrics.value(Metric::kWrvdrCalls), 0u);
        EXPECT_EQ(metrics.histogram(Metric::kWrvdrLatency).count, 0u);
    };

    Task *task = world->spawn();
    expect_uncounted(*task, 2, VdomStatus::kNotInitialized);
    world->sys.vdom_init(core);
    expect_uncounted(*task, 2, VdomStatus::kNoVdr);
    world->sys.vdr_alloc(core, *task, 4);
    expect_uncounted(*task, kApiVdom, VdomStatus::kPermissionDenied);
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    expect_uncounted(*task, v + 1, VdomStatus::kInvalidVdom);

    EXPECT_EQ(world->sys.wrvdr(core, *task, v, VPerm::kFullAccess),
              VdomStatus::kOk);
    EXPECT_EQ(metrics.value(Metric::kWrvdrCalls), 1u);
    EXPECT_EQ(metrics.histogram(Metric::kWrvdrLatency).count, 1u);
}

// -- Argument validation: every entry point rejects bad vdom ids ----------

TEST_F(ApiTest, MprotectRejectsOutOfRangeAndFreedIds)
{
    world->sys.vdom_init(world->core(0));
    hw::Vpn vpn = world->proc.mm().mmap(2);
    // Never-allocated / out-of-range ids.
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), vpn, 2, 9999),
              VdomStatus::kInvalidVdom);
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), vpn, 2,
                                       kInvalidVdom),
              VdomStatus::kInvalidVdom);
    // A freed id is as dead as a never-allocated one.
    VdomId v = world->sys.vdom_alloc(world->core(0));
    ASSERT_EQ(world->sys.vdom_free(world->core(0), v), VdomStatus::kOk);
    EXPECT_EQ(world->sys.vdom_mprotect(world->core(0), vpn, 2, v),
              VdomStatus::kInvalidVdom);
    // No partial mutation: the region is still unassigned and assignable.
    EXPECT_EQ(world->proc.mm().vdom_of(vpn), kCommonVdom);
}

TEST_F(ApiTest, WrvdrRejectsOutOfRangeAndFreedIds)
{
    Task *task = world->ready_thread();
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, 9999,
                               VPerm::kFullAccess),
              VdomStatus::kInvalidVdom);
    VdomId v = world->sys.vdom_alloc(world->core(0));
    ASSERT_EQ(world->sys.vdom_free(world->core(0), v), VdomStatus::kOk);
    EXPECT_EQ(world->sys.wrvdr(world->core(0), *task, v,
                               VPerm::kFullAccess),
              VdomStatus::kInvalidVdom);
}

TEST_F(ApiTest, RdvdrReportsInvalidIdsViaStatus)
{
    Task *task = world->ready_thread();
    VPerm out = VPerm::kFullAccess;
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, 9999, &out),
              VdomStatus::kInvalidVdom);
    // The out-param is defensively reset, never left at the caller's value.
    EXPECT_EQ(out, VPerm::kAccessDisable);

    VdomId v = world->sys.vdom_alloc(world->core(0));
    ASSERT_EQ(world->sys.vdom_free(world->core(0), v), VdomStatus::kOk);
    out = VPerm::kFullAccess;
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, v, &out),
              VdomStatus::kInvalidVdom);
    EXPECT_EQ(out, VPerm::kAccessDisable);

    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, kApiVdom, &out),
              VdomStatus::kPermissionDenied);

    // A live id round-trips through the status-returning form.
    auto [live, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, live, VPerm::kWriteDisable);
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, live, &out),
              VdomStatus::kOk);
    EXPECT_EQ(out, VPerm::kWriteDisable);
}

TEST_F(ApiTest, RdvdrBeforeInitOrWithoutVdrRejected)
{
    Task *task = world->spawn();
    VPerm out = VPerm::kFullAccess;
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, 3, &out),
              VdomStatus::kNotInitialized);
    EXPECT_EQ(out, VPerm::kAccessDisable);
    world->sys.vdom_init(world->core(0));
    EXPECT_EQ(world->sys.rdvdr(world->core(0), *task, 3, &out),
              VdomStatus::kNoVdr);
}

}  // namespace
}  // namespace vdom
