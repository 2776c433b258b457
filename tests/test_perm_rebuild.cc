/// \file
/// Permission-register rebuild (switch_mm, Fig. 3): the memo-free VDR walk
/// must produce the image and the write count of the plain per-pdom
/// Vdr::get loop, for VDRs smaller and larger than the domain map.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common.h"
#include "sim/rng.h"
#include "telemetry/metrics.h"

namespace vdom {
namespace {

using kernel::Process;
using kernel::Task;
using kernel::Vds;
using ::vdom::testing::World;

/// Reference rebuild: every usable pdom holding a vdom gets the VDR's
/// answer for it, one counted write each.  Returns (raw image, writes).
std::pair<std::uint32_t, std::uint64_t>
reference_image(const Task &task, const Vds &vds,
                const hw::ArchParams &params)
{
    hw::PermRegister reg;
    std::uint64_t writes = 0;
    const Vdr *vdr = task.vdr();
    if (vdr) {
        for (std::size_t p = params.num_reserved_pdoms; p < params.num_pdoms;
             ++p) {
            auto pdom = static_cast<hw::Pdom>(p);
            VdomId v = vds.vdom_at(pdom);
            if (v == kInvalidVdom)
                continue;
            reg.set_unmetered(pdom, to_hw_perm(vdr->get(v)));
            ++writes;
        }
    }
    return {reg.raw(), writes};
}

/// Number of stored VDR entries.
std::size_t
vdr_entries(const Vdr &vdr)
{
    std::size_t n = 0;
    vdr.for_each([&](VdomId, VPerm) { ++n; });
    return n;
}

VPerm
random_perm(sim::Rng &rng)
{
    static constexpr VPerm kPerms[] = {VPerm::kFullAccess,
                                       VPerm::kWriteDisable,
                                       VPerm::kAccessDisable,
                                       VPerm::kPinned};
    return kPerms[rng.below(4)];
}

struct Coverage {
    std::size_t small_vdrs = 0;  ///< Rebuilds with |VDR| <= mapped.
    std::size_t large_vdrs = 0;  ///< Rebuilds with |VDR| > mapped.
};

/// Builds one random world, then compares the rebuild against the
/// reference for every (task, VDS) pair, charging the rebuild to core 0.
void
check_random_world(const hw::ArchParams &params, std::uint64_t seed,
                   Coverage &cov)
{
    sim::Rng rng(seed);
    auto world = std::make_unique<World>(params);
    World &w = *world;
    w.sys.vdom_init(w.core(0));

    // Real mappings: threads grant random domains through wrvdr, spilling
    // into several VDSes once their active sets outgrow the pdoms.
    std::vector<Task *> tasks;
    std::size_t nthreads = 2 + rng.below(4);
    for (std::size_t t = 0; t < nthreads; ++t) {
        Task *task = w.spawn(t % params.num_cores);
        w.sys.vdr_alloc(w.core(t % params.num_cores), *task, 4);
        tasks.push_back(task);
    }
    std::vector<VdomId> doms;
    std::size_t ndoms = 4 + rng.below(30);
    for (std::size_t d = 0; d < ndoms; ++d)
        doms.push_back(w.make_domain(1).first);
    std::size_t nops = 20 + rng.below(80);
    for (std::size_t op = 0; op < nops; ++op) {
        std::size_t ti = rng.below(tasks.size());
        hw::Core &core = w.core(ti % params.num_cores);
        w.proc.switch_to(core, *tasks[ti], false);
        w.sys.wrvdr(core, *tasks[ti], doms[rng.below(doms.size())],
                    random_perm(rng));
    }

    // Raw VDR entries the API would refuse or never create: unmapped and
    // never-allocated vdoms, vdom0 and vdom1 at any permission, and a
    // VDR large enough to exceed every domain map.
    for (Task *task : tasks) {
        Vdr &vdr = *task->vdr();
        std::size_t extra = rng.below(4) == 0 ? 150 + rng.below(120)
                                              : rng.below(6);
        for (std::size_t i = 0; i < extra; ++i) {
            VdomId v = rng.below(3) == 0
                ? doms[rng.below(doms.size())]
                : static_cast<VdomId>(rng.below(ndoms + 400));
            vdr.set(v, random_perm(rng));
        }
        if (rng.below(2) == 0)
            vdr.set(kCommonVdom, random_perm(rng));
        if (rng.below(2) == 0)
            vdr.set(kApiVdom, random_perm(rng));
    }

    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    hw::Core &core = w.core(0);
    for (Task *task : tasks) {
        for (const auto &vds : w.proc.mm().vdses()) {
            auto [want_raw, want_writes] =
                reference_image(*task, *vds, params);
            std::size_t entries = vdr_entries(*task->vdr());
            if (entries <= vds->mapped_pdoms())
                ++cov.small_vdrs;
            else
                ++cov.large_vdrs;
            std::uint64_t before =
                registry.value(telemetry::Metric::kPermRegWrite);
            Process::rebuild_perm_reg(core, *task, *vds);
            std::uint64_t writes =
                registry.value(telemetry::Metric::kPermRegWrite) - before;
            EXPECT_EQ(core.perm_reg().raw(), want_raw)
                << "seed " << seed << " task " << task->tid() << " vds "
                << vds->id() << " |vdr| " << entries
                << " mapped " << vds->mapped_pdoms();
            EXPECT_EQ(writes, want_writes)
                << "seed " << seed << " vds " << vds->id();
        }
    }
}

TEST(PermRebuild, MatchesPerPdomLoopOnRandomWorlds)
{
    Coverage cov;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        check_random_world(hw::ArchParams::x86(4), seed, cov);
        check_random_world(hw::ArchParams::arm(4), 1000 + seed, cov);
    }
    // VDRs on both sides of the mapped count were exercised.
    EXPECT_GT(cov.small_vdrs, 0u);
    EXPECT_GT(cov.large_vdrs, 0u);
}

TEST(PermRebuild, SmallAndLargeVdrOverFullMap)
{
    // One VDS whose usable pdoms are all mapped; the same task is rebuilt
    // with a 2-entry VDR and then with one larger than the map.
    for (hw::ArchParams params :
         {hw::ArchParams::x86(2), hw::ArchParams::arm(2)}) {
        World w(params);
        Task *task = w.ready_thread(1);
        std::vector<VdomId> doms;
        for (std::size_t i = 0; i < params.usable_pdoms(); ++i) {
            VdomId v = w.make_domain(1).first;
            w.sys.wrvdr(w.core(0), *task, v, VPerm::kFullAccess);
            doms.push_back(v);
        }
        Vds &vds = *task->vds();
        ASSERT_EQ(vds.mapped_pdoms(), params.usable_pdoms());
        Vdr &vdr = *task->vdr();
        vdr.clear();
        vdr.set(doms[0], VPerm::kWriteDisable);
        vdr.set(doms[1], VPerm::kPinned);
        ASSERT_LE(vdr_entries(vdr), vds.mapped_pdoms());
        Process::rebuild_perm_reg(w.core(0), *task, vds);
        EXPECT_EQ(w.core(0).perm_reg().raw(),
                  reference_image(*task, vds, params).first);
        EXPECT_EQ(w.core(0).perm_reg().get(*vds.pdom_of(doms[0])),
                  hw::Perm::kWriteDisable);
        EXPECT_EQ(w.core(0).perm_reg().get(*vds.pdom_of(doms[1])),
                  hw::Perm::kAccessDisable);

        for (VdomId v = 0; v < 64; ++v)
            vdr.set(v + 2, VPerm::kFullAccess);
        ASSERT_GT(vdr_entries(vdr), vds.mapped_pdoms());
        Process::rebuild_perm_reg(w.core(0), *task, vds);
        EXPECT_EQ(w.core(0).perm_reg().raw(),
                  reference_image(*task, vds, params).first);
    }
}

TEST(PermRebuild, NoVdrResetsWithoutCountingWrites)
{
    World w(hw::ArchParams::x86(2));
    Task *owner = w.ready_thread(1);
    VdomId v = w.make_domain(1).first;
    w.sys.wrvdr(w.core(0), *owner, v, VPerm::kFullAccess);
    Task *plain = w.proc.create_task();  // Never called vdr_alloc.
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    Process::rebuild_perm_reg(w.core(0), *plain, *owner->vds());
    EXPECT_EQ(w.core(0).perm_reg().raw(), hw::PermRegister().raw());
    EXPECT_EQ(registry.value(telemetry::Metric::kPermRegWrite), 0u);
}

TEST(PermRebuild, RebuildLeavesVdrMemoAlone)
{
    World w(hw::ArchParams::x86(2));
    Task *task = w.ready_thread(1);
    VdomId a = w.make_domain(1).first;
    VdomId b = w.make_domain(1).first;
    w.sys.wrvdr(w.core(0), *task, a, VPerm::kFullAccess);
    w.sys.wrvdr(w.core(0), *task, b, VPerm::kFullAccess);
    telemetry::MetricsRegistry registry;
    telemetry::ScopedMetrics attach(registry);
    EXPECT_EQ(task->vdr()->get(b), VPerm::kFullAccess);  // Memo: b.
    std::uint64_t hits = registry.value(telemetry::Metric::kVdrMemoHit);
    Process::rebuild_perm_reg(w.core(0), *task, *task->vds());
    EXPECT_EQ(registry.value(telemetry::Metric::kVdrMemoHit), hits);
    EXPECT_EQ(task->vdr()->get(b), VPerm::kFullAccess);
    EXPECT_EQ(registry.value(telemetry::Metric::kVdrMemoHit), hits + 1);
}

}  // namespace
}  // namespace vdom
