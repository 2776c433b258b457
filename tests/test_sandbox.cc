/// \file
/// Sandbox-module tests (§7.1, Table 2): the three ported defense classes.

#include <gtest/gtest.h>

#include <memory>

#include "common.h"
#include "telemetry/metrics.h"
#include "vdom/sandbox.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

class SandboxTest : public ::testing::Test {
  protected:
    SandboxTest() : world(World::x86(2)), sandbox(world->sys)
    {
        world->sys.vdom_init(world->core(0));
        task = world->spawn(0);
        world->sys.vdr_alloc(world->core(0), *task, 2);
    }

    std::unique_ptr<World> world;
    Sandbox sandbox;
    Task *task = nullptr;
};

TEST_F(SandboxTest, BinaryScanAcceptsCleanCode)
{
    std::vector<std::uint8_t> clean = {0x55, 0x48, 0x89, 0xE5, 0x90,
                                       0xE8, 0x10, 0x00, 0x00, 0x00,
                                       0x5D, 0xC3};
    EXPECT_TRUE(Sandbox::code_is_safe(clean));
    EXPECT_TRUE(sandbox.allow_executable(world->core(0), clean));
    EXPECT_EQ(sandbox.stats().scan_rejections, 0u);
}

TEST_F(SandboxTest, BinaryScanCatchesWrpkru)
{
    std::vector<std::uint8_t> smuggled = {0x90, 0x0F, 0x01, 0xEF, 0xC3};
    EXPECT_FALSE(Sandbox::code_is_safe(smuggled));
    EXPECT_FALSE(sandbox.allow_executable(world->core(0), smuggled));
    EXPECT_EQ(sandbox.stats().scan_rejections, 1u);
}

TEST_F(SandboxTest, BinaryScanCatchesXrstor)
{
    // xrstor [rax]: 0F AE 28.
    std::vector<std::uint8_t> smuggled = {0x0F, 0xAE, 0x28};
    EXPECT_FALSE(Sandbox::code_is_safe(smuggled));
    // Other 0F AE forms (e.g. mfence 0F AE F0) are fine.
    std::vector<std::uint8_t> mfence = {0x0F, 0xAE, 0xF0};
    EXPECT_TRUE(Sandbox::code_is_safe(mfence));
}

TEST_F(SandboxTest, GateCheckPassesLegitimateState)
{
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_TRUE(sandbox.check_gate_exit(world->core(0), *task));
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable);
    EXPECT_TRUE(sandbox.check_gate_exit(world->core(0), *task));
    EXPECT_EQ(sandbox.stats().gate_violations, 0u);
}

TEST_F(SandboxTest, GateCheckCountsNoRegisterWrites)
{
    // The expected image is a scratch register that never reaches
    // hardware: reconstructing it must not count perm_reg.write.
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    EXPECT_TRUE(sandbox.check_gate_exit(world->core(0), *task));
    EXPECT_EQ(registry.value(telemetry::Metric::kPermRegWrite), 0u);
}

TEST_F(SandboxTest, GateCheckCatchesHijackedRegister)
{
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    // Map the vdom, then revoke: the slot exists but must read AD.
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    ASSERT_TRUE(task->vds()->pdom_of(v).has_value());
    // Control-flow hijack: the attacker grants itself the vdom's pdom
    // directly in the register, bypassing wrvdr.
    hw::Pdom pdom = *task->vds()->pdom_of(v);
    world->core(0).perm_reg().set(pdom, hw::Perm::kFullAccess);
    EXPECT_FALSE(sandbox.check_gate_exit(world->core(0), *task));
    EXPECT_EQ(sandbox.stats().gate_violations, 1u);
}

TEST_F(SandboxTest, GateCheckCatchesOpenPdom1)
{
    // Keeping the API domain open past the gate is the classic attack.
    world->core(0).perm_reg().set(
        world->machine.params().access_never_pdom, hw::Perm::kFullAccess);
    EXPECT_FALSE(sandbox.check_gate_exit(world->core(0), *task));
}

TEST_F(SandboxTest, ExpectedPkruTracksDomainMapChanges)
{
    // The reconstruction follows remaps — the reason the classic
    // compare-with-constant check cannot work under VDom (§7.1).
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    std::uint32_t before = sandbox.expected_pkru(*task);
    // Force churn that may remap v to a different pdom.
    std::size_t usable = world->machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable + 2; ++i) {
        auto [w, wvpn] = world->make_domain(1);
        (void)wvpn;
        world->sys.wrvdr(world->core(0), *task, w, VPerm::kFullAccess);
        world->sys.wrvdr(world->core(0), *task, w, VPerm::kAccessDisable);
    }
    std::uint32_t after = sandbox.expected_pkru(*task);
    (void)before;
    // Whatever happened, the live register must match the reconstruction.
    EXPECT_EQ(world->core(0).perm_reg().raw() , after);
    EXPECT_TRUE(sandbox.check_gate_exit(world->core(0), *task));
}

TEST_F(SandboxTest, SyscallFilterBlocksConfusedDeputy)
{
    auto [v, vpn] = world->make_domain(1);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    world->sys.access(world->core(0), *task, vpn, true);
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    // The caller lacks permission: the kernel must not read on its behalf.
    VAccess res =
        sandbox.filtered_kernel_access(world->core(0), *task, vpn, false);
    EXPECT_TRUE(res.sigsegv);
    EXPECT_EQ(sandbox.stats().filter_denials, 1u);
    // With permission, the filtered path works.
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    EXPECT_TRUE(sandbox
                    .filtered_kernel_access(world->core(0), *task, vpn,
                                            false)
                    .ok);
}

TEST_F(SandboxTest, ApiRegionLockedForever)
{
    hw::Vpn api = world->sys.api_region();
    EXPECT_FALSE(sandbox.mprotect_allowed(api, 1));
    EXPECT_FALSE(sandbox.mprotect_allowed(api + 2, 4));
    EXPECT_FALSE(
        sandbox.mprotect_allowed(api - 1, 3));  // Straddles the start.
    EXPECT_TRUE(sandbox.mprotect_allowed(
        api + world->sys.api_region_pages(), 4));
    EXPECT_TRUE(sandbox.mprotect_allowed(0x10, 2));
}

}  // namespace
}  // namespace vdom
