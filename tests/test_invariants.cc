/// \file
/// Property-based tests for the DESIGN.md invariants, driven by randomized
/// operation sequences over both architectures.

#include <gtest/gtest.h>

#include <memory>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "sim/rng.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

/// gtest names each case after a byte dump of its parameter, so the
/// struct carries its padding as zeroed fields: implicit padding holds
/// whatever the stack held and would make the case names vary per run.
struct SweepParam {
    SweepParam(hw::ArchKind arch, std::size_t threads, std::size_t domains,
               std::uint64_t seed, hw::DesignKnobs knobs = {})
        : arch(arch), threads(threads), domains(domains), seed(seed),
          knobs(knobs)
    {
    }

    hw::ArchKind arch;
    std::uint32_t pad_after_arch = 0;
    std::size_t threads;
    std::size_t domains;
    std::uint64_t seed;
    hw::DesignKnobs knobs;
    std::uint32_t pad_after_knobs = 0;
};
static_assert(std::has_unique_object_representations_v<SweepParam>,
              "SweepParam must have no implicit padding");

class InvariantSweep : public ::testing::TestWithParam<SweepParam> {};

/// Randomized churn: threads grant/revoke/access random domains.  After
/// every operation the core invariants must hold — including with each
/// design optimization ablated (correctness must never depend on them).
TEST_P(InvariantSweep, HoldUnderRandomChurn)
{
    const SweepParam param = GetParam();
    hw::ArchParams params = param.arch == hw::ArchKind::kX86
        ? hw::ArchParams::x86(4)
        : hw::ArchParams::arm(4);
    params.knobs = param.knobs;
    auto world = std::make_unique<World>(params);
    World &w = *world;
    w.sys.vdom_init(w.core(0));

    std::vector<Task *> tasks;
    for (std::size_t t = 0; t < param.threads; ++t) {
        Task *task = w.spawn(t % 4);
        w.sys.vdr_alloc(w.core(t % 4), *task, 1 + t % 3);
        tasks.push_back(task);
    }
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t d = 0; d < param.domains; ++d)
        doms.push_back(w.make_domain(1 + d % 3, d % 5 == 0));

    sim::Rng rng(param.seed);
    for (int op = 0; op < 400; ++op) {
        std::size_t ti = rng.below(tasks.size());
        std::size_t core_id = ti % 4;
        Task &task = *tasks[ti];
        // Keep the acting thread installed on its core.
        w.proc.switch_to(w.core(core_id), task, false);
        auto &[vdomid, vpn] = doms[rng.below(doms.size())];
        switch (rng.below(4)) {
          case 0:
            w.sys.wrvdr(w.core(core_id), task, vdomid,
                        VPerm::kFullAccess);
            break;
          case 1:
            w.sys.wrvdr(w.core(core_id), task, vdomid,
                        VPerm::kAccessDisable);
            break;
          case 2:
            w.sys.wrvdr(w.core(core_id), task, vdomid, VPerm::kPinned);
            break;
          case 3: {
            bool write = rng.below(2);
            VPerm held = task.vdr()->get(vdomid);
            VAccess res =
                w.sys.access(w.core(core_id), task, vpn, write);
            // Invariant 1: access outcome == VDR policy, always.
            bool allowed = write ? held == VPerm::kFullAccess
                                 : vperm_active(held);
            EXPECT_EQ(res.ok, allowed)
                << "op " << op << " vdom " << vdomid << " perm "
                << vperm_name(held) << " write " << write;
            break;
          }
        }
        // Invariant 3: every VDS domain map stays consistent.
        for (const auto &vds : w.proc.mm().vdses())
            ASSERT_TRUE(vds->check_consistency()) << "op " << op;
    }

    // Invariant 7: reserved pdoms never appear in any domain map.
    for (const auto &vds : w.proc.mm().vdses()) {
        vds->for_each_mapped([&](hw::Pdom pdom, VdomId vdomid) {
            EXPECT_GE(pdom, w.machine.params().num_reserved_pdoms);
            EXPECT_NE(vdomid, kApiVdom);
        });
    }
}

hw::DesignKnobs
knobs_without(bool pmd, bool hlru, bool asid, bool narrow)
{
    hw::DesignKnobs knobs;
    knobs.pmd_fast_path = pmd;
    knobs.hlru = hlru;
    knobs.asid = asid;
    knobs.narrow_shootdown = narrow;
    return knobs;
}

INSTANTIATE_TEST_SUITE_P(
    Churn, InvariantSweep,
    ::testing::Values(
        SweepParam{hw::ArchKind::kX86, 1, 8, 1},
        SweepParam{hw::ArchKind::kX86, 1, 40, 2},
        SweepParam{hw::ArchKind::kX86, 4, 20, 3},
        SweepParam{hw::ArchKind::kX86, 8, 60, 4},
        SweepParam{hw::ArchKind::kArm, 1, 30, 5},
        SweepParam{hw::ArchKind::kArm, 4, 25, 6},
        // Ablated configurations: safety never depends on optimizations.
        SweepParam{hw::ArchKind::kX86, 4, 40, 7,
                   knobs_without(false, true, true, true)},
        SweepParam{hw::ArchKind::kX86, 4, 40, 8,
                   knobs_without(true, false, true, true)},
        SweepParam{hw::ArchKind::kX86, 4, 40, 9,
                   knobs_without(true, true, false, true)},
        SweepParam{hw::ArchKind::kX86, 4, 40, 10,
                   knobs_without(true, true, true, false)},
        SweepParam{hw::ArchKind::kArm, 4, 40, 11,
                   knobs_without(false, false, false, false)}),
    [](const ::testing::TestParamInfo<SweepParam> &info) {
        const SweepParam &p = info.param;
        std::string name = std::string(hw::arch_name(p.arch)) + "_t" +
                           std::to_string(p.threads) + "_d" +
                           std::to_string(p.domains);
        if (!p.knobs.pmd_fast_path)
            name += "_nopmd";
        if (!p.knobs.hlru)
            name += "_nohlru";
        if (!p.knobs.asid)
            name += "_noasid";
        if (!p.knobs.narrow_shootdown)
            name += "_broadcast";
        return name;
    });

TEST(InvariantUnlimited, ThousandsOfDomainsAlwaysAllocatable)
{
    // Invariant 4: vdom_alloc never fails (id space is 2^32).
    auto world = std::unique_ptr<World>(World::x86(2));
    world->sys.vdom_init(world->core(0));
    for (int i = 0; i < 5000; ++i)
        ASSERT_NE(world->sys.vdom_alloc(world->core(0)), kInvalidVdom);
}

TEST(InvariantSharedLayout, AllVdsesTranslateIdentically)
{
    // Invariant 6: identical translations everywhere; only pdom tags
    // differ.
    auto world = std::unique_ptr<World>(World::x86(2));
    World &w = *world;
    Task *task = w.ready_thread(4);
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    std::size_t usable = w.machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable + 3; ++i) {
        doms.push_back(w.make_domain(2));
        w.sys.wrvdr(w.core(0), *task, doms.back().first,
                    VPerm::kFullAccess);
        w.sys.access(w.core(0), *task, doms.back().second, true);
        w.sys.wrvdr(w.core(0), *task, doms.back().first,
                    VPerm::kAccessDisable);
    }
    ASSERT_GT(w.proc.mm().num_vdses(), 1u);
    // Shared unprotected page: present in the shadow; any VDS that has
    // faulted it sees the same frame/translation presence.
    hw::Vpn shm = w.proc.mm().mmap(1);
    for (const auto &vds : w.proc.mm().vdses())
        w.proc.mm().fault_in(w.core(0), *vds, shm);
    for (const auto &vds : w.proc.mm().vdses()) {
        hw::Translation t = vds->pgd().translate(shm);
        ASSERT_TRUE(t.present);
        EXPECT_EQ(t.pdom, w.machine.params().default_pdom);
    }
}

TEST(InvariantTlbCoherence, NoStaleTranslationAfterEviction)
{
    // Invariant 5: after an eviction commits, no core can use a stale
    // translation of the evicted range.
    auto world = std::unique_ptr<World>(World::x86(2));
    World &w = *world;
    Task *task = w.ready_thread(1);
    std::size_t usable = w.machine.params().usable_pdoms();
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (std::size_t i = 0; i < usable + 4; ++i) {
        doms.push_back(w.make_domain(1));
        w.sys.wrvdr(w.core(0), *task, doms.back().first,
                    VPerm::kFullAccess);
        // Warm the TLB with this domain's page.
        ASSERT_TRUE(
            w.sys.access(w.core(0), *task, doms.back().second, true).ok);
        w.sys.wrvdr(w.core(0), *task, doms.back().first,
                    VPerm::kAccessDisable);
    }
    // Several of the early domains were evicted; their TLB entries must
    // be gone: an access via VDR=AD must report SIGSEGV (the TLB cannot
    // short-circuit the new access-never tag).
    for (auto &[vdomid, vpn] : doms) {
        VAccess res = w.sys.access(w.core(0), *task, vpn, false);
        EXPECT_TRUE(res.sigsegv);
    }
}

TEST(InvariantAddressSpace, VdomNeverReassigned)
{
    // Invariant 2 under randomized assignment attempts.
    auto world = std::unique_ptr<World>(World::x86(2));
    World &w = *world;
    w.sys.vdom_init(w.core(0));
    sim::Rng rng(11);
    std::vector<std::pair<VdomId, hw::Vpn>> doms;
    for (int i = 0; i < 20; ++i)
        doms.push_back(w.make_domain(4));
    std::unordered_map<hw::Vpn, VdomId> owner;
    for (auto &[v, vpn] : doms)
        owner[vpn] = v;
    for (int trial = 0; trial < 100; ++trial) {
        auto &[v, vpn] = doms[rng.below(doms.size())];
        auto &[v2, vpn2] = doms[rng.below(doms.size())];
        (void)vpn2;
        VdomStatus st = w.sys.vdom_mprotect(w.core(0), vpn, 4, v2);
        if (v2 != v) {
            EXPECT_EQ(st, VdomStatus::kAlreadyAssigned);
        }
        EXPECT_EQ(w.proc.mm().vdom_of(vpn), owner[vpn]);
    }
}

}  // namespace
}  // namespace vdom
