/// \file
/// Introspection tests: summary metrics and state dumps.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common.h"
#include "vdom/introspect.h"

namespace vdom {
namespace {

using kernel::Task;
using ::vdom::testing::World;

TEST(Introspect, SummaryOfFreshProcess)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    world->sys.vdom_init(world->core(0));
    IntrospectSummary s = summarize(world->sys);
    EXPECT_EQ(s.vdses, 1u);
    EXPECT_EQ(s.live_vdoms, 2u);  // vdom0 + the API vdom.
    EXPECT_EQ(s.mapped_slots, 0u);  // No protected vdoms mapped yet.
    EXPECT_EQ(s.free_slots, world->machine.params().usable_pdoms());
    // The pdom1-protected API region counts as protected pages.
    EXPECT_EQ(s.protected_pages, world->sys.api_region_pages());
}

TEST(Introspect, TracksGrowth)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread(4);
    std::size_t usable = world->machine.params().usable_pdoms();
    for (std::size_t i = 0; i < usable + 3; ++i) {
        auto [v, vpn] = world->make_domain(2);
        (void)vpn;
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
        world->sys.wrvdr(world->core(0), *task, v, VPerm::kAccessDisable);
    }
    IntrospectSummary s = summarize(world->sys);
    EXPECT_GE(s.vdses, 2u);
    EXPECT_EQ(s.live_vdoms, usable + 3 + 2);
    EXPECT_EQ(s.protected_pages,
              2 * (usable + 3) + world->sys.api_region_pages());
    EXPECT_GE(s.mapped_slots, usable);
    EXPECT_EQ(s.resident_threads, 1u);
    EXPECT_GE(s.vdt_leaves, 1u);
}

TEST(Introspect, DomainMapFormat)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread();
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kFullAccess);
    std::string map = format_domain_map(*task->vds(),
                                        world->machine.params());
    EXPECT_NE(map.find("VDS0"), std::string::npos);
    EXPECT_NE(map.find("0 (common)"), std::string::npos);
    EXPECT_NE(map.find("(access-never)"), std::string::npos);
    EXPECT_NE(map.find(std::to_string(v)), std::string::npos);
}

TEST(Introspect, FullDump)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    Task *task = world->ready_thread(2);
    auto [v, vpn] = world->make_domain(1);
    (void)vpn;
    world->sys.wrvdr(world->core(0), *task, v, VPerm::kWriteDisable);
    std::ostringstream out;
    dump_state(world->sys, out);
    std::string text = out.str();
    EXPECT_NE(text.find("VDom process state"), std::string::npos);
    EXPECT_NE(text.find(":WD"), std::string::npos);
    EXPECT_NE(text.find("tid " + std::to_string(task->tid())),
              std::string::npos);
}

// The snapshot writers as they were written on std::ostringstream: the
// byte-for-byte oracle for the iostream-free versions in introspect.cc,
// whose output the sweep digests fold.
std::string
stream_domain_table(VdomSystem &sys)
{
    kernel::MmStruct &mm = sys.process().mm();
    std::ostringstream out;
    out << "init " << (sys.initialized() ? 1 : 0) << " api_region "
        << sys.api_region() << "\n";
    auto high_water = static_cast<VdomId>(mm.vdm().high_water());
    for (VdomId v = 0; v < high_water; ++v) {
        if (!mm.vdm().is_allocated(v))
            continue;
        out << "vdom " << v << " freq " << (mm.vdm().is_frequent(v) ? 1 : 0)
            << " areas[";
        for (const kernel::VdtArea &a : mm.vdm().vdt().areas(v))
            out << "(" << a.start << "," << a.pages << "," << (a.huge ? 1 : 0)
                << ")";
        out << "]\n";
    }
    for (const auto &[start, vma] : mm.vmas()) {
        out << "vma " << start << " " << vma.pages << " " << vma.vdom << " "
            << (vma.huge ? 1 : 0) << "\n";
    }
    return out.str();
}

std::string
stream_snapshot_state(VdomSystem &sys)
{
    kernel::Process &proc = sys.process();
    std::ostringstream out;
    out << stream_domain_table(sys);
    for (const auto &vds : proc.mm().vdses()) {
        out << "vds " << vds->id() << " map[";
        vds->for_each_mapped([&](hw::Pdom pdom, VdomId vdomid) {
            out << "(" << static_cast<int>(pdom) << "," << vdomid << ","
                << vds->thread_refs(vdomid) << ")";
        });
        out << "] free " << vds->free_pdoms() << " resident "
            << vds->resident_threads() << " cpus " << vds->cpu_bitmap()
            << "\n";
    }
    for (const auto &task : proc.tasks()) {
        out << "task " << task->tid() << " vds "
            << (task->vds() ? static_cast<int>(task->vds()->id()) : -1)
            << " vdr " << (task->has_vdr() ? 1 : 0);
        if (task->has_vdr()) {
            out << " nas " << task->nas_limit() << " perms[";
            task->vdr()->for_each([&](VdomId v, VPerm perm) {
                out << "(" << v << "," << vperm_name(perm) << ")";
            });
            out << "] refs[";
            task->for_each_ref_home([&](VdomId v, kernel::Vds *home) {
                out << "(" << v << ","
                    << (home ? static_cast<int>(home->id()) : -1) << ")";
            });
            out << "] owned[";
            for (const kernel::Vds *owned : task->owned_vdses())
                out << owned->id() << ",";
            out << "]";
        }
        out << "\n";
    }
    return out.str();
}

std::string
stream_snapshot_durable_state(VdomSystem &sys)
{
    std::ostringstream out;
    out << stream_domain_table(sys);
    for (const auto &task : sys.process().tasks()) {
        out << "task " << task->tid() << " vdr "
            << (task->has_vdr() ? 1 : 0);
        if (task->has_vdr()) {
            out << " nas " << task->nas_limit() << " perms[";
            task->vdr()->for_each([&](VdomId v, VPerm perm) {
                out << "(" << v << "," << vperm_name(perm) << ")";
            });
            out << "]";
        }
        out << "\n";
    }
    return out.str();
}

TEST(Introspect, SnapshotsMatchTheStreamWriterByteForByte)
{
    auto world = std::unique_ptr<World>(World::x86(2));
    kernel::MmStruct &mm = world->proc.mm();
    hw::Core &core = world->core(0);
    const hw::ArchParams &params = world->machine.params();
    auto same = [&] {
        EXPECT_EQ(snapshot_state(world->sys),
                  stream_snapshot_state(world->sys));
        EXPECT_EQ(snapshot_durable_state(world->sys),
                  stream_snapshot_durable_state(world->sys));
    };
    same();  // Before vdom_init: no domains, no tasks.

    Task *busy = world->ready_thread(3);
    Task *plain = world->spawn(1);  // Never gets a VDR.

    // More granted domains than one VDS has slots: the task switches
    // between, and owns, several VDSes.
    std::vector<VdomId> doms;
    for (std::size_t i = 0; i < params.usable_pdoms() + 4; ++i) {
        auto [v, vpn] = world->make_domain(1 + i % 3, i % 4 == 0);
        (void)vpn;
        doms.push_back(v);
        world->sys.wrvdr(core, *busy, v, VPerm::kFullAccess);
    }
    world->sys.wrvdr(core, *busy, doms[1], VPerm::kWriteDisable);
    world->sys.wrvdr(core, *busy, doms[2], VPerm::kPinned);
    world->sys.wrvdr(core, *busy, doms[4], VPerm::kAccessDisable);

    // A huge-page area.
    VdomId huge = world->sys.vdom_alloc(core);
    hw::Vpn huge_vpn = mm.mmap(params.pmd_span_pages, true);
    ASSERT_EQ(world->sys.vdom_mprotect(core, huge_vpn, params.pmd_span_pages,
                                       huge),
              VdomStatus::kOk);
    world->sys.wrvdr(core, *busy, huge, VPerm::kFullAccess);

    // A freed id below the high-water mark leaves a gap in the table.
    ASSERT_EQ(world->sys.vdom_free(core, doms[3]), VdomStatus::kOk);

    // The world exercises every field the snapshots write.
    EXPECT_GE(mm.num_vdses(), 2u);
    EXPECT_FALSE(mm.vdm().is_allocated(doms[3]));
    EXPECT_LT(doms[3], mm.vdm().high_water());
    EXPECT_FALSE(plain->has_vdr());
    EXPECT_GE(busy->owned_vdses().size(), 2u);
    std::size_t refs = 0;
    busy->for_each_ref_home([&](VdomId, kernel::Vds *) { ++refs; });
    EXPECT_GT(refs, 0u);
    const std::string text = snapshot_state(world->sys);
    EXPECT_NE(text.find(",1)]"), std::string::npos);  // The huge area.
    EXPECT_NE(text.find(" freq 1 "), std::string::npos);
    EXPECT_NE(text.find(",WD)"), std::string::npos);
    EXPECT_NE(text.find(",PIN)"), std::string::npos);
    same();
}

TEST(Introspect, ArmReservedSlotsShown)
{
    auto world = std::unique_ptr<World>(World::arm(2));
    world->sys.vdom_init(world->core(0));
    std::string map = format_domain_map(*world->proc.mm().vds0(),
                                        world->machine.params());
    // ARM reserves pdom2/3 for kernel/IO domains.
    EXPECT_NE(map.find("(reserved)"), std::string::npos);
}

}  // namespace
}  // namespace vdom
