/// \file
/// Introspection implementation.

#include "vdom/introspect.h"

#include <ostream>
#include <sstream>

namespace vdom {

IntrospectSummary
summarize(VdomSystem &sys)
{
    kernel::Process &proc = sys.process();
    kernel::MmStruct &mm = proc.mm();
    IntrospectSummary s;
    s.vdses = mm.num_vdses();
    s.live_vdoms = mm.vdm().live_count();
    s.vdt_leaves = mm.vdm().vdt().num_leaves();
    for (const auto &vds : mm.vdses()) {
        s.mapped_slots += vds->mapped_pdoms();
        s.free_slots += vds->free_pdoms();
        s.resident_threads += vds->resident_threads();
    }
    for (const auto &[start, vma] : mm.vmas()) {
        (void)start;
        if (vma.vdom != kCommonVdom)
            s.protected_pages += vma.pages;
    }
    return s;
}

std::string
format_domain_map(const kernel::Vds &vds, const hw::ArchParams &params)
{
    std::ostringstream out;
    out << "VDS" << vds.id() << "  (ctx " << vds.ctx_id() << ", "
        << vds.resident_threads() << " resident, tlb_gen "
        << vds.tlb_gen() << ")\n";
    out << "  pdom  vdom      #thread\n";
    for (hw::Pdom p = 0; p < params.num_pdoms; ++p) {
        VdomId v = vds.vdom_at(p);
        out << "  " << static_cast<int>(p);
        out << (p < 10 ? "     " : "    ");
        if (p == params.default_pdom) {
            out << "0 (common)\n";
            continue;
        }
        if (p == params.access_never_pdom) {
            out << "- (access-never)\n";
            continue;
        }
        if (p < params.num_reserved_pdoms) {
            out << "- (reserved)\n";
            continue;
        }
        if (v == kInvalidVdom) {
            out << "-         -\n";
        } else {
            std::string id = std::to_string(v);
            out << id << std::string(id.size() < 10 ? 10 - id.size() : 1,
                                     ' ')
                << vds.thread_refs(v) << "\n";
        }
    }
    return out.str();
}

std::string
snapshot_state(VdomSystem &sys)
{
    kernel::Process &proc = sys.process();
    kernel::MmStruct &mm = proc.mm();
    std::ostringstream out;

    out << "init " << (sys.initialized() ? 1 : 0) << " api_region "
        << sys.api_region() << "\n";

    // Domain table: allocated ids, hints, and their VDT area chains.
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

    // Address-space layout.
    for (const auto &[start, vma] : mm.vmas()) {
        out << "vma " << start << " " << vma.pages << " " << vma.vdom << " "
            << (vma.huge ? 1 : 0) << "\n";
    }

    // Per-VDS domain maps (Fig. 3) and residency; pdom order is the map's
    // index order, so iteration is deterministic.
    for (const auto &vds : mm.vdses()) {
        out << "vds " << vds->id() << " map[";
        vds->for_each_mapped([&](hw::Pdom pdom, VdomId vdomid) {
            out << "(" << static_cast<int>(pdom) << "," << vdomid << ","
                << vds->thread_refs(vdomid) << ")";
        });
        out << "] free " << vds->free_pdoms() << " resident "
            << vds->resident_threads() << " cpus " << vds->cpu_bitmap()
            << "\n";
    }

    // Per-thread VDRs and reference bookkeeping.
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
snapshot_durable_state(VdomSystem &sys)
{
    kernel::Process &proc = sys.process();
    kernel::MmStruct &mm = proc.mm();
    std::ostringstream out;

    out << "init " << (sys.initialized() ? 1 : 0) << " api_region "
        << sys.api_region() << "\n";

    // Domain table: allocated ids, hints, and their VDT area chains.
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

    // Address-space layout.
    for (const auto &[start, vma] : mm.vmas()) {
        out << "vma " << start << " " << vma.pages << " " << vma.vdom << " "
            << (vma.huge ? 1 : 0) << "\n";
    }

    // Per-thread VDR policy.  No VDS placement, reference homes or
    // ownership: those are volatile scheduling state rebuilt on demand.
    for (const auto &task : proc.tasks()) {
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

std::uint64_t
snapshot_hash(const std::string &data)
{
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis.
    for (unsigned char c : data) {
        h ^= c;
        h *= 1099511628211ULL;  // FNV prime.
    }
    return h;
}

void
dump_state(VdomSystem &sys, std::ostream &out)
{
    kernel::Process &proc = sys.process();
    kernel::MmStruct &mm = proc.mm();
    const hw::ArchParams &params = proc.params();
    IntrospectSummary s = summarize(sys);

    out << "=== VDom process state (" << hw::arch_name(params.kind)
        << ") ===\n";
    out << "vdoms: " << s.live_vdoms << " live (high water "
        << mm.vdm().high_water() << "), protected pages: "
        << s.protected_pages << ", VDT leaves: " << s.vdt_leaves << "\n";
    out << "address spaces: " << s.vdses << " (" << s.mapped_slots
        << " mapped slots, " << s.free_slots << " free)\n\n";

    for (const auto &vds : mm.vdses())
        out << format_domain_map(*vds, params) << "\n";

    out << "threads:\n";
    for (const auto &task : proc.tasks()) {
        out << "  tid " << task->tid() << ": vds "
            << (task->vds() ? static_cast<int>(task->vds()->id()) : -1);
        if (task->has_vdr()) {
            out << ", nas " << task->nas_limit() << ", active vdoms {";
            bool first = true;
            task->vdr()->for_each_active([&](VdomId v, VPerm perm) {
                if (!first)
                    out << ", ";
                out << v << ":" << vperm_name(perm);
                first = false;
            });
            out << "}";
        } else {
            out << " (no VDR)";
        }
        out << "\n";
    }

    const DomainVirtualizer::Stats &vs = sys.virtualizer().stats();
    out << "\nalgorithm counters: hits " << vs.hits << ", map-free "
        << vs.maps_free << ", switches " << vs.vds_switches
        << ", evictions " << vs.evictions << ", migrations "
        << vs.migrations << ", vds-allocs " << vs.vds_allocs << "\n";
}

}  // namespace vdom
