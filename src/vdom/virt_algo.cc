/// \file
/// Domain virtualization algorithm implementation.

#include "vdom/virt_algo.h"

#include "kernel/mm.h"
#include "sim/fault.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"

namespace vdom {

namespace tm = ::vdom::telemetry;

std::optional<hw::Pdom>
DomainVirtualizer::ensure_mapped_slow(hw::Core &core, kernel::Task &task,
                                      VdomId vdom, bool charge_kernel_entry)
{
    kernel::Vds &cur = *task.vds();
    // Everything below runs in the kernel (❶ was handled inline).
    tm::Span span("ensure_mapped", core, task.tid());
    if (charge_kernel_entry)
        core.charge(hw::CostKind::kSyscall, core.costs().syscall);

    // A vdom already resident in another of T's address spaces: switch
    // the pgd instead of duplicating the mapping — the switch costs ~583
    // cycles while installing the vdom's present pages into the current
    // VDS costs per-PTE work (this is what makes Table 4's
    // switch-triggering pattern actually trigger switches).
    for (kernel::Vds *owned : task.owned_vdses()) {
        if (owned != &cur && owned->is_mapped(vdom)) {
            proc_->switch_vds(core, task, *owned, hw::CostKind::kPgdSwitch);
            owned->touch(vdom, core.now());
            tm::metric_add(tm::Metric::kVdsSwitch);
            tm::flight_event(core, tm::FlightEvent::kVdsSwitch, task.tid(),
                             vdom, cur.id(), owned->id());
            return owned->pdom_of(vdom);
        }
    }

    // ❷/❸ A free pdom in the current VDS: map D there, preferring D's
    // previous pdom (HLRU remap-to-same-pdom, §5.5).
    if (auto free = cur.find_free_pdom(cur.last_pdom(vdom))) {
        map_into(core, cur, vdom, *free, hw::CostKind::kMemSync);
        cur.touch(vdom, core.now());
        tm::metric_add(tm::Metric::kDomainMapFree);
        tm::flight_event(core, tm::FlightEvent::kMapFree, task.tid(), vdom,
                         cur.id(), cur.id());
        return free;
    }
    // ❹ Thread alone in its VDS -> ❺ VDS switch or eviction.
    if (cur.resident_threads() <= 1)
        return switch_or_evict(core, task, vdom);

    // ❻/❼ Try to accommodate T in an existing VDS.
    kernel::MmStruct &mm = proc_->mm();
    for (const auto &vds : mm.vdses()) {
        if (vds.get() == &cur)
            continue;
        if (fits(task, *vds, vdom))
            return migrate(core, task, *vds, vdom);
    }
    // ❽ Allocate a new VDS and migrate there.
    if (sim::fault_fires(core.faults(), sim::FaultSite::kVdsAllocFail)) {
        // Injected allocation failure: degrade to eviction in the
        // current VDS rather than failing the request — displaced vdoms
        // fault back in later.
        return evict_and_map(core, task, cur, vdom);
    }
    kernel::Vds *fresh = mm.create_vds();
    core.charge(hw::CostKind::kMigration, core.costs().vds_alloc);
    tm::metric_add(tm::Metric::kVdsAlloc);
    tm::flight_event(core, tm::FlightEvent::kVdsCreate, task.tid(), vdom,
                     cur.id(), fresh->id());
    return migrate(core, task, *fresh, vdom);
}

bool
DomainVirtualizer::fits(const kernel::Task &task, const kernel::Vds &vds,
                        VdomId vdom) const
{
    const Vdr *vdr = task.vdr();
    std::size_t missing = vds.is_mapped(vdom) ? 0 : 1;
    if (vdr) {
        vdr->for_each_active([&](VdomId v, VPerm) {
            if (v != vdom && !vds.is_mapped(v))
                ++missing;
        });
    }
    return missing <= vds.free_pdoms();
}

std::optional<hw::Pdom>
DomainVirtualizer::switch_or_evict(hw::Core &core, kernel::Task &task,
                                   VdomId vdom)
{
    kernel::Vds &cur = *task.vds();
    kernel::MmStruct &mm = proc_->mm();
    const Vdr *vdr = task.vdr();

    // Eviction is preferred when D is frequently-accessed or the thread
    // still holds access to other vdoms mapped here (switching away would
    // lose simultaneous access) — §5.4 "VDS switch or domain eviction".
    bool accessible_others = false;
    if (vdr) {
        accessible_others = !cur.for_each_mapped([&](hw::Pdom, VdomId v) {
            return v == vdom || !vperm_active(vdr->get(v));
        });
    }
    bool prefer_evict = mm.vdm().is_frequent(vdom) || accessible_others;

    if (!prefer_evict) {
        // Find D in another VDS of T and switch pgd.
        for (kernel::Vds *owned : task.owned_vdses()) {
            if (owned != &cur && owned->is_mapped(vdom)) {
                proc_->switch_vds(core, task, *owned,
                                  hw::CostKind::kPgdSwitch);
                owned->touch(vdom, core.now());
                tm::metric_add(tm::Metric::kVdsSwitch);
                tm::flight_event(core, tm::FlightEvent::kVdsSwitch, task.tid(),
                                 vdom, cur.id(), owned->id());
                return owned->pdom_of(vdom);
            }
        }
        // Make the most of additional page tables within the nas budget.
        // (An injected VDS allocation failure drops through to eviction.)
        if (task.owned_vdses().size() < task.nas_limit() &&
            !sim::fault_fires(core.faults(), sim::FaultSite::kVdsAllocFail)) {
            kernel::Vds *fresh = mm.create_vds();
            core.charge(hw::CostKind::kPgdSwitch, core.costs().vds_alloc);
            tm::metric_add(tm::Metric::kVdsAlloc);
            tm::flight_event(core, tm::FlightEvent::kVdsCreate, task.tid(),
                             vdom, cur.id(), fresh->id());
            task.add_owned(fresh);
            proc_->switch_vds(core, task, *fresh, hw::CostKind::kPgdSwitch);
            tm::metric_add(tm::Metric::kVdsSwitch);
            auto free = fresh->find_free_pdom(std::nullopt);
            map_into(core, *fresh, vdom, *free, hw::CostKind::kMemSync);
            fresh->touch(vdom, core.now());
            return free;
        }
    }
    // Eviction in a chosen VDS of T (the current one).
    return evict_and_map(core, task, cur, vdom);
}

std::optional<hw::Pdom>
DomainVirtualizer::migrate(hw::Core &core, kernel::Task &task,
                           kernel::Vds &target, VdomId vdom)
{
    kernel::Vds &cur = *task.vds();
    const hw::CostTable &costs = core.costs();
    tm::Span span("migrate", core, task.tid());
    core.charge(hw::CostKind::kMigration, costs.migrate_fixed);
    tm::metric_add(tm::Metric::kMigration);
    tm::flight_event(core, tm::FlightEvent::kMigration, task.tid(), vdom,
                     cur.id(), target.id());

    // Map T's active set plus D into the target (Fig. 3 right: vdom4, 14,
    // D are mapped to pdom6, 7, 8 of VDS1).
    auto map_if_missing = [&](VdomId v) {
        if (target.is_mapped(v))
            return;
        auto free = target.find_free_pdom(target.last_pdom(v));
        if (free)
            map_into(core, target, v, *free, hw::CostKind::kMigration);
    };
    const Vdr *vdr = task.vdr();
    if (vdr) {
        vdr->for_each_active([&](VdomId v, VPerm) {
            map_if_missing(v);
            // Fig. 3: #thread moves with the migrating thread — from the
            // VDS holding the reference to the migration target.
            if (kernel::Vds *home = task.ref_home(v))
                home->remove_thread_ref(v);
            else
                cur.remove_thread_ref(v);
        });
    }
    map_if_missing(vdom);
    proc_->switch_vds(core, task, target, hw::CostKind::kMigration);
    if (vdr) {
        vdr->for_each_active([&](VdomId v, VPerm) {
            target.add_thread_ref(v);
            task.set_ref_home(v, &target);
        });
    }
    task.add_owned(&target);
    if (!target.is_mapped(vdom)) {
        // The thread's active set alone exceeds the hardware domains a
        // VDS can hold: make room for the vdom actually being requested.
        return evict_and_map(core, task, target, vdom);
    }
    target.touch(vdom, core.now());
    return target.pdom_of(vdom);
}

std::optional<hw::Pdom>
DomainVirtualizer::evict_and_map(hw::Core &core, kernel::Task &task,
                                 kernel::Vds &vds, VdomId vdom)
{
    kernel::MmStruct &mm = proc_->mm();
    const hw::CostTable &costs = core.costs();
    const Vdr *vdr = task.vdr();

    auto inaccessible = [&](VdomId v) {
        VPerm p = vdr ? vdr->get(v) : VPerm::kAccessDisable;
        return !vperm_active(p) && vds.thread_refs(v) == 0;
    };
    auto pinned = [&](VdomId v) {
        return vdr && vdr->get(v) == VPerm::kPinned;
    };
    auto victim_pdom = vds.choose_victim(vdom, inaccessible, pinned);
    if (!victim_pdom) {
        // Every mapped vdom is accessible: strict LRU as a last resort;
        // displaced vdoms fault back in on their next use.
        victim_pdom = vds.choose_victim(
            vdom, [](VdomId) { return true; }, pinned);
    }
    if (!victim_pdom)
        return std::nullopt;

    VdomId victim = vds.vdom_at(*victim_pdom);
    tm::Span span("evict", core, task.tid());
    core.charge(hw::CostKind::kEviction, costs.evict_fixed);
    tm::metric_add(tm::Metric::kHlruEvict);
    tm::flight_event(core, tm::FlightEvent::kEvict, task.tid(), victim,
                     vds.id(), vds.id());
    // Disable the victim's pages (PMD fast path + minimal TLB flushes are
    // inside, §5.5) and release its pdom.
    mm.evict_vdom_from_vds(core, vds, victim);
    vds.unmap_pdom(*victim_pdom);
    core.perm_reg().set(*victim_pdom, hw::Perm::kAccessDisable);

    // Map D into the freed slot.
    map_into(core, vds, vdom, *victim_pdom, hw::CostKind::kEviction);
    vds.touch(vdom, core.now());
    return victim_pdom;
}

void
DomainVirtualizer::map_into(hw::Core &core, kernel::Vds &vds, VdomId vdom,
                            hw::Pdom pdom, hw::CostKind kind)
{
    vds.map_vdom(pdom, vdom);
    proc_->mm().install_vdom_in_vds(core, vds, vdom, pdom, kind);
}

}  // namespace vdom
