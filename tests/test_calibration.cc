/// \file
/// Calibration regression tests: the Table 3 composite operations must
/// stay inside their calibrated bands.  These are the anchors every macro
/// result (Figures 1/5/6/7, Tables 4/5) is derived from — if one drifts,
/// EXPERIMENTS.md's paper-vs-measured story silently rots.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

/// Steady-state cycles of one wrvdr(FA) on a mapped 2MB vdom.
double
wrvdr_mapped(hw::ArchKind arch, ApiMode mode)
{
    auto world = std::make_unique<World>(arch == hw::ArchKind::kX86
                                             ? hw::ArchParams::x86(2)
                                             : hw::ArchParams::arm(2));
    Task *task = world->ready_thread(1);
    auto [v, vpn] = world->make_domain(512);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess, mode);
    hw::Cycles t0 = world->core(0).now();
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable, mode);
    return world->core(0).now() - t0;
}

/// Steady-state cycles of an eviction-triggering wrvdr on domains of
/// \p pages pages, measured on eviction events only.
double
wrvdr_evicting(hw::ArchKind arch, std::uint64_t pages)
{
    auto world = std::make_unique<World>(arch == hw::ArchKind::kX86
                                             ? hw::ArchParams::x86(2)
                                             : hw::ArchParams::arm(2));
    Task *task = world->ready_thread(1);
    hw::Core &core = world->core(0);
    std::size_t usable = world->machine.params().usable_pdoms();
    std::vector<VdomId> doms;
    for (std::size_t i = 0; i < usable + 1; ++i) {
        auto [v, vpn] = world->make_domain(pages);
        doms.push_back(v);
        world->sys.wrvdr(core, *task, v, VPerm::kFullAccess);
        for (std::uint64_t p = 0; p < pages; ++p)
            world->sys.access(core, *task, vpn + p, true);
        world->sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
    }
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    double sum = 0;
    std::uint64_t count = 0;
    for (int round = 0; round < 6; ++round) {
        for (VdomId v : doms) {
            std::uint64_t e0 = metrics.value(telemetry::Metric::kHlruEvict);
            hw::Cycles t0 = core.now();
            world->sys.wrvdr(core, *task, v, VPerm::kFullAccess);
            if (metrics.value(telemetry::Metric::kHlruEvict) > e0) {
                sum += core.now() - t0;
                ++count;
            }
            world->sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
        }
    }
    return count ? sum / count : 0;
}

/// Steady-state cycles of a VDS-switch-triggering wrvdr.
double
wrvdr_switching(hw::ArchKind arch)
{
    auto world = std::make_unique<World>(arch == hw::ArchKind::kX86
                                             ? hw::ArchParams::x86(2)
                                             : hw::ArchParams::arm(2));
    Task *task = world->ready_thread(4);
    hw::Core &core = world->core(0);
    std::size_t usable = world->machine.params().usable_pdoms();
    std::vector<VdomId> doms;
    for (std::size_t i = 0; i < 2 * usable; ++i) {
        auto [v, vpn] = world->make_domain(512);
        (void)vpn;
        doms.push_back(v);
        world->sys.wrvdr(core, *task, v, VPerm::kFullAccess);
        world->sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
    }
    telemetry::MetricsRegistry metrics;
    telemetry::ScopedMetrics attach(metrics);
    double sum = 0;
    std::uint64_t count = 0;
    for (int round = 0; round < 4; ++round) {
        for (VdomId v : doms) {
            std::uint64_t s0 = metrics.value(telemetry::Metric::kVdsSwitch);
            hw::Cycles t0 = core.now();
            world->sys.wrvdr(core, *task, v, VPerm::kFullAccess);
            if (metrics.value(telemetry::Metric::kVdsSwitch) > s0) {
                sum += core.now() - t0;
                ++count;
            }
            world->sys.wrvdr(core, *task, v, VPerm::kAccessDisable);
        }
    }
    return count ? sum / count : 0;
}

// Bands: paper value +-10% (the EXPERIMENTS.md tolerance).

TEST(Calibration, SecureWrvdrMappedX86)
{
    EXPECT_NEAR(wrvdr_mapped(hw::ArchKind::kX86, ApiMode::kSecure), 104.0,
                10.4);
}

TEST(Calibration, FastWrvdrMappedX86)
{
    EXPECT_NEAR(wrvdr_mapped(hw::ArchKind::kX86, ApiMode::kFast), 68.8,
                6.9);
}

TEST(Calibration, WrvdrMappedArm)
{
    EXPECT_NEAR(wrvdr_mapped(hw::ArchKind::kArm, ApiMode::kSecure), 406.0,
                40.6);
}

TEST(Calibration, Eviction4KbX86)
{
    EXPECT_NEAR(wrvdr_evicting(hw::ArchKind::kX86, 1), 1639.0, 164.0);
}

TEST(Calibration, Eviction2MbX86)
{
    EXPECT_NEAR(wrvdr_evicting(hw::ArchKind::kX86, 512), 1605.0, 161.0);
}

TEST(Calibration, Eviction64MbX86)
{
    EXPECT_NEAR(wrvdr_evicting(hw::ArchKind::kX86, 512 * 32), 8097.0,
                810.0);
}

TEST(Calibration, Eviction4KbArm)
{
    EXPECT_NEAR(wrvdr_evicting(hw::ArchKind::kArm, 1), 2274.0, 228.0);
}

TEST(Calibration, Eviction2MbArm)
{
    EXPECT_NEAR(wrvdr_evicting(hw::ArchKind::kArm, 512), 3159.0, 316.0);
}

TEST(Calibration, VdsSwitchX86)
{
    EXPECT_NEAR(wrvdr_switching(hw::ArchKind::kX86), 583.0, 58.0);
}

TEST(Calibration, VdsSwitchArm)
{
    EXPECT_NEAR(wrvdr_switching(hw::ArchKind::kArm), 723.0, 72.0);
}

TEST(Calibration, ContextSwitchCosts)
{
    // §7.5 anchors (see bench/tab3_micro_ops for the full measurement).
    const hw::CostTable x86 = hw::default_costs(hw::ArchKind::kX86);
    EXPECT_NEAR(x86.context_switch + x86.pgd_switch, 426.3, 0.1);
    EXPECT_NEAR(x86.context_switch + x86.pgd_switch +
                    x86.context_switch_vdom,
                451.9, 0.1);
    const hw::CostTable arm = hw::default_costs(hw::ArchKind::kArm);
    EXPECT_NEAR(arm.context_switch + arm.pgd_switch, 1339.8, 0.1);
}

}  // namespace
}  // namespace vdom
